//! The poll-based TCP server.
//!
//! Thread shape: one event-loop thread owns the listener and **every**
//! client connection through a `poll(2)` readiness set ([`crate::sys`])
//! — an idle connection costs one pollfd and two buffers, not a
//! thread, so thousands of idle clients are cheap. Beside it run one
//! executor thread draining a **bounded** sweep queue through the
//! [`Harness`] (in cluster mode, one whose jobs run on worker processes
//! through a [`Coordinator`]), and a small fixed pool of trace threads so
//! `trace` re-simulations never stall the event loop.
//!
//! The loop never ticks: a byte on its wake socket reports each
//! finished job, sweep and trace, and shutdown. Otherwise `poll` sleeps
//! until the earliest idle, stalled-write or drain deadline, if any, or
//! returns at once when a connection that flushed its buffer may have
//! more of a stream or more queued frames to serve. A `poll` failure
//! closes every connection and drains instead of spinning on retries.
//!
//! Both bounds shed load instead of blocking: past `max_conns` a new
//! connection gets an `overloaded` frame and is closed, and a full
//! sweep queue rejects `submit` with the same retriable class — the
//! server's latency stays flat and clients are told to back off (see
//! `docs/serving.md`).
//!
//! Results stream instead of buffering: a `results` or `stream` reply
//! is pumped into the connection's write buffer a few lines at a time
//! under a high-water mark, and `stream` ships each record line as the
//! executor completes the job (in index order), so a slow client or a
//! huge sweep never balloons server memory.
//!
//! Degradation rules: a malformed frame produces an `error` reply and
//! the connection keeps being served; a frame over the size cap or an
//! idle/stalled-write timeout closes only that connection; per-job
//! panics are already isolated inside the harness. Nothing a client
//! sends can take the process down.
//!
//! Shutdown is drain-then-exit: after a `shutdown` frame (or
//! [`Server::shutdown`]) the server stops accepting work, the
//! executor finishes every queued sweep, open streams flush, and all
//! threads join.

use crate::coordinator::{ClusterConfig, Coordinator};
use crate::metrics::Metrics;
use crate::protocol::{ErrorClass, Request, Response, StatusInfo, SweepState};
use crate::sys::{self, PollFd};
use senss_harness::{Harness, HarnessConfig, JobSpec, RunRecord, SweepResult, SweepSpec};
use senss_sim::Stats;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A pluggable job runner, used by tests to make execution time and
/// failures deterministic. `None` in [`ServerConfig`] means the real
/// [`JobSpec::run`].
pub type JobRunner = Arc<dyn Fn(&JobSpec) -> Stats + Send + Sync>;

/// Per-connection write-buffer high-water mark: response pumping stops
/// above it and resumes as the socket drains, so one slow client
/// buffers at most this much (plus one frame).
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:4765` (`:0` picks a free port).
    pub addr: String,
    /// Bound on concurrently open client connections; beyond it new
    /// connections get an `overloaded` frame and are closed.
    pub max_conns: usize,
    /// Bound on queued (not yet running) sweeps; beyond it `submit`
    /// returns the retriable `overloaded` error.
    pub queue_capacity: usize,
    /// Idle timeout: a connection with no traffic and nothing pending
    /// for this long is closed.
    pub read_timeout: Duration,
    /// Write-stall timeout: a connection whose pending output makes no
    /// progress for this long is closed.
    pub write_timeout: Duration,
    /// Maximum request-frame size in bytes.
    pub max_frame_bytes: usize,
    /// Threads serving `trace` re-simulations (they are CPU-bound and
    /// must never run on the event loop).
    pub trace_workers: usize,
    /// Harness configuration for sweep execution. In cluster mode its
    /// thread count is the cluster's worker count.
    pub harness: HarnessConfig,
    /// Test hook: replaces [`JobSpec::run`].
    pub runner: Option<JobRunner>,
    /// Run as a coordinator: execute each cache miss on one of these
    /// worker processes instead of locally.
    pub cluster: Option<ClusterConfig>,
    /// Suppress stderr logging.
    pub quiet: bool,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("max_conns", &self.max_conns)
            .field("queue_capacity", &self.queue_capacity)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("max_frame_bytes", &self.max_frame_bytes)
            .field("trace_workers", &self.trace_workers)
            .field("harness", &self.harness)
            .field("runner", &self.runner.as_ref().map(|_| "<custom>"))
            .field("cluster", &self.cluster)
            .field("quiet", &self.quiet)
            .finish()
    }
}

impl ServerConfig {
    /// Production-ish defaults on `addr`, harness from the environment
    /// ([`HarnessConfig::from_env`]).
    pub fn new(addr: impl Into<String>) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            max_conns: 4096,
            queue_capacity: 32,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_frame_bytes: 8 << 20,
            trace_workers: 2,
            harness: HarnessConfig::from_env(),
            runner: None,
            cluster: None,
            quiet: false,
        }
    }

    /// A loopback configuration for tests: ephemeral port, hermetic
    /// harness (no cache/records on disk), short timeouts, quiet.
    pub fn loopback() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            harness: HarnessConfig::hermetic().with_workers(2),
            quiet: true,
            ..ServerConfig::new("127.0.0.1:0")
        }
    }

    /// Sets the open-connection bound.
    pub fn with_max_conns(mut self, n: usize) -> ServerConfig {
        self.max_conns = n.max(1);
        self
    }

    /// Sets the sweep-queue bound.
    pub fn with_queue_capacity(mut self, n: usize) -> ServerConfig {
        self.queue_capacity = n;
        self
    }

    /// Sets the harness configuration.
    pub fn with_harness(mut self, harness: HarnessConfig) -> ServerConfig {
        self.harness = harness;
        self
    }

    /// Installs a custom job runner (tests).
    pub fn with_runner(mut self, runner: JobRunner) -> ServerConfig {
        self.runner = Some(runner);
        self
    }

    /// Runs as a coordinator over a worker cluster.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> ServerConfig {
        self.cluster = Some(cluster);
        self
    }
}

/// Per-job result lines as they become available: `None` until the job
/// completes (or forever, if it fails permanently). Indexed by the
/// job's position in the submitted sweep.
type PartialLines = Arc<Mutex<Vec<Option<String>>>>;

enum EntryState {
    Queued {
        sweep: SweepSpec,
    },
    Running {
        partial: PartialLines,
    },
    Done {
        lines: Arc<Vec<Option<String>>>,
        executed: u64,
        cached: u64,
        failures: u64,
    },
    Failed {
        message: String,
    },
}

struct Entry {
    jobs: u64,
    state: EntryState,
}

#[derive(Default)]
struct JobTable {
    next_id: u64,
    entries: HashMap<u64, Entry>,
    queue: VecDeque<u64>,
}

struct Shared {
    metrics: Arc<Metrics>,
    table: Mutex<JobTable>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    executor_done: AtomicBool,
    cfg: ServerConfig,
    /// The wake socket: the event loop polls `wake_rx`.
    wake_rx: UnixStream,
    wake_tx: UnixStream,
}

impl Shared {
    fn from_config(cfg: &ServerConfig) -> std::io::Result<Arc<Shared>> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(Arc::new(Shared {
            metrics: Arc::new(match &cfg.cluster {
                Some(cluster) => Metrics::with_workers(cluster.workers),
                None => Metrics::new(),
            }),
            table: Mutex::new(JobTable::default()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            executor_done: AtomicBool::new(false),
            cfg: cfg.clone(),
            wake_rx,
            wake_tx,
        }))
    }

    /// Wakes the event loop. A full socket buffer already holds a
    /// pending wake, so a failed write is ignored.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.cfg.quiet {
            eprintln!("senss-serve: {msg}");
        }
    }
}

/// Locks a mutex, recovering from poisoning. A thread that panicked
/// mid-update can at worst leave one sweep entry stale; every other
/// connection must keep being served, so poisoning is never allowed to
/// cascade into a process-wide denial of service.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Wake the executor so an empty queue drains immediately, and the
    // event loop so it stops accepting.
    shared.queue_cv.notify_all();
    shared.wake();
}

/// A running server: its bound address, live metrics, and join/shutdown
/// control. Dropping the handle without calling
/// [`shutdown`](Server::shutdown) or [`join`](Server::join)
/// detaches the threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    coordinator: Option<Arc<Coordinator>>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("threads", &self.threads.len())
            .field("cluster", &self.coordinator.is_some())
            .finish()
    }
}

impl Server {
    /// Binds `cfg.addr` and spawns the event-loop, executor and trace
    /// threads (plus worker processes in cluster mode). Returns as soon
    /// as the socket is listening.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Shared::from_config(&cfg)?;
        let coordinator = match &cfg.cluster {
            Some(cluster) => Some(Arc::new(Coordinator::start(
                cluster.clone(),
                Arc::clone(&shared.metrics),
                cfg.quiet,
            )?)),
            None => None,
        };

        let (trace_tx, trace_rx) = std::sync::mpsc::channel::<TraceTask>();
        let trace_rx = Arc::new(Mutex::new(trace_rx));
        let trace_done: Arc<Mutex<Vec<TraceOutcome>>> = Arc::new(Mutex::new(Vec::new()));

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            let trace_done = Arc::clone(&trace_done);
            threads.push(std::thread::spawn(move || {
                event_loop(listener, &shared, &trace_tx, &trace_done)
            }));
        }
        for _ in 0..cfg.trace_workers.max(1) {
            let shared = Arc::clone(&shared);
            let trace_rx = Arc::clone(&trace_rx);
            let trace_done = Arc::clone(&trace_done);
            threads.push(std::thread::spawn(move || {
                trace_worker(&shared, &trace_rx, &trace_done)
            }));
        }
        {
            let shared = Arc::clone(&shared);
            let harness = Harness::new(match &cfg.cluster {
                Some(cluster) => cfg.harness.clone().with_workers(cluster.workers),
                None => cfg.harness.clone(),
            });
            let coordinator = coordinator.clone();
            threads.push(std::thread::spawn(move || {
                executor_loop(&shared, &harness, coordinator.as_deref())
            }));
        }
        Ok(Server {
            addr,
            shared,
            coordinator,
            threads,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// An owned handle on the metrics registry that outlives the
    /// server — lets callers inspect final counts after
    /// [`join`](Server::join)/[`shutdown`](Server::shutdown).
    pub fn metrics_handle(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The cluster coordinator, when running in cluster mode. Exposed
    /// so fault-injection tests can kill workers mid-sweep.
    pub fn coordinator(&self) -> Option<&Coordinator> {
        self.coordinator.as_deref()
    }

    /// Triggers drain-then-exit shutdown and joins every thread.
    pub fn shutdown(self) {
        trigger_shutdown(&self.shared);
        self.join();
    }

    /// Joins every thread; returns once the server has fully exited
    /// (i.e. after shutdown was triggered by some client or by
    /// [`shutdown`](Server::shutdown)).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Frame extraction
// ---------------------------------------------------------------------------

/// Outcome of scanning the read buffer for one frame.
#[derive(Debug, PartialEq, Eq)]
enum Extracted {
    /// No complete frame yet; read more.
    Incomplete,
    /// The next frame's content exceeds the size cap. The stream is no
    /// longer in sync, so the connection must close after replying.
    TooLong,
    /// One frame, newline stripped.
    Frame(Vec<u8>),
}

/// Extracts the next newline-terminated frame from `rbuf`.
///
/// The cap applies to frame **content** (the newline is free): exactly
/// `max` content bytes are accepted, `max + 1` are rejected — even if
/// a newline arrives later, because an oversized frame already
/// desynchronized the stream.
fn extract_frame(rbuf: &mut Vec<u8>, max: usize) -> Extracted {
    match rbuf.iter().position(|&b| b == b'\n') {
        Some(pos) if pos > max => Extracted::TooLong,
        Some(pos) => {
            let mut frame: Vec<u8> = rbuf.drain(..=pos).collect();
            frame.pop();
            Extracted::Frame(frame)
        }
        None if rbuf.len() > max => Extracted::TooLong,
        None => Extracted::Incomplete,
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// Cursor of an in-progress `results`/`stream` reply: record lines are
/// pumped into the write buffer in index order as they become
/// available, then the `end` trailer.
struct ResultStream {
    id: u64,
    /// Next job slot (position in the submitted sweep) to inspect.
    next: usize,
    /// Record lines shipped so far.
    sent: u64,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    stream_state: Option<ResultStream>,
    /// A `trace` is in flight on the trace pool; further frames wait in
    /// `rbuf` so replies keep their order.
    trace_pending: bool,
    eof: bool,
    close_after_flush: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            stream_state: None,
            trace_pending: false,
            eof: false,
            close_after_flush: false,
            last_activity: Instant::now(),
        })
    }

    fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn push_frame(&mut self, frame: &str) {
        self.wbuf.extend_from_slice(frame.as_bytes());
        self.wbuf.push(b'\n');
    }

    fn push_response(&mut self, shared: &Shared, response: &Response) {
        if let Response::Error { class, .. } = response {
            shared.metrics.record_error(*class);
        }
        self.push_frame(&response.encode());
    }

    /// Non-blocking read into `rbuf`. Returns false on a fatal error.
    fn try_read(&mut self, max_frame: usize) -> bool {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            // One frame past the cap is enough to detect TooLong; stop
            // there so a spamming client cannot balloon the buffer.
            if self.rbuf.len() > max_frame {
                return true;
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.eof = true;
                    return true;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&tmp[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                    ) =>
                {
                    self.eof = true;
                    return true;
                }
                Err(_) => return false,
            }
        }
    }

    /// Non-blocking write of pending output. Returns false on a fatal
    /// error.
    fn try_write(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        true
    }
}

struct TraceTask {
    token: u64,
    id: u64,
    index: u64,
    started: Instant,
}

struct TraceOutcome {
    token: u64,
    response: Response,
    started: Instant,
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

fn event_loop(
    listener: TcpListener,
    shared: &Shared,
    trace_tx: &Sender<TraceTask>,
    trace_done: &Mutex<Vec<TraceOutcome>>,
) {
    if let Err(e) = listener.set_nonblocking(true) {
        shared.log(format_args!("cannot make listener non-blocking: {e}"));
        return;
    }
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<u64> = Vec::new();
    // Set once the executor has drained during shutdown; pushed forward
    // while any connection still makes write progress, so large final
    // streams flush but a wedged client cannot hold the process open.
    let mut drain_deadline: Option<Instant> = None;
    // The earliest idle, stalled-write or drain deadline: `poll` sleeps
    // until then unless a socket or a wake byte arrives first.
    let mut wait_until: Option<Instant> = None;
    // Set when a connection flushed its whole buffer and may have more
    // to send at once: the rest of a stream, or frames queued behind
    // one. No socket event would announce that, so `poll` does not wait.
    let mut again = false;

    loop {
        if shared.shutdown.load(Ordering::SeqCst) && listener.is_some() {
            listener = None;
            shared.log(format_args!("shutdown requested; draining queue"));
        }

        // The wake socket is `fds[0]`; `tokens` label the rest, with 0
        // for the listener.
        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(shared.wake_rx.as_raw_fd(), sys::POLLIN));
        if let Some(l) = &listener {
            fds.push(PollFd::new(l.as_raw_fd(), sys::POLLIN));
            tokens.push(0);
        }
        for (&token, conn) in &conns {
            let mut events = 0i16;
            let room = !conn.eof
                && conn.rbuf.len() <= shared.cfg.max_frame_bytes
                && conn.pending_out() < WRITE_HIGH_WATER
                && !conn.close_after_flush;
            if room {
                events |= sys::POLLIN;
            }
            if conn.pending_out() > 0 {
                events |= sys::POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            tokens.push(token);
        }

        // Wake a millisecond past the deadline: the checks below are strict.
        let timeout_ms = match wait_until {
            _ if again => 0,
            None => -1,
            Some(t) => {
                let ms = t.saturating_duration_since(Instant::now()).as_millis() + 1;
                ms.min(i32::MAX as u128) as i32
            }
        };
        if let Err(e) = sys::poll_fds(&mut fds, timeout_ms) {
            // A loop that cannot poll can serve no socket; retrying would
            // only spin. The executor still drains its queue.
            shared.log(format_args!(
                "poll failed: {e}; closing {} connection(s) and draining",
                conns.len()
            ));
            trigger_shutdown(shared);
            break;
        }

        if fds[0].ready(sys::POLLIN) {
            let mut buf = [0u8; 256];
            while matches!((&shared.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
        }
        let mut dead: Vec<u64> = Vec::new();
        for (fd, &token) in fds[1..].iter().zip(&tokens) {
            if token == 0 {
                if fd.ready(sys::POLLIN) {
                    accept_ready(listener.as_ref(), &mut conns, &mut next_token, shared);
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if (fd.ready(sys::POLLIN) || fd.failed()) && !conn.try_read(shared.cfg.max_frame_bytes)
            {
                dead.push(token);
                continue;
            }
            if fd.ready(sys::POLLOUT) && !conn.try_write() {
                dead.push(token);
            }
        }
        for token in dead.drain(..) {
            conns.remove(&token);
        }

        // Trace results finished since the last wake-up.
        for outcome in std::mem::take(&mut *lock_recover(trace_done)) {
            if let Some(conn) = conns.get_mut(&outcome.token) {
                conn.push_response(shared, &outcome.response);
                shared.metrics.latency.observe(outcome.started.elapsed());
                conn.trace_pending = false;
            }
        }

        // Parse + serve, pump streams, flush, and decide each
        // connection's fate. Shared state is read only after the wake
        // socket was drained, so a change made after the drain leaves a
        // byte behind that ends the next `poll` at once.
        let now = Instant::now();
        let drained =
            shared.shutdown.load(Ordering::SeqCst) && shared.executor_done.load(Ordering::SeqCst);
        let mut progress = false;
        wait_until = None;
        again = false;
        conns.retain(|&token, conn| {
            if !drained {
                process_frames(conn, token, shared, trace_tx);
            }
            pump_stream(conn, shared);
            let before = conn.pending_out();
            if !conn.try_write() {
                return false;
            }
            progress |= conn.pending_out() < before;
            // Serving stopped at the high-water mark or at a stream's
            // end; with the buffer empty, more may be ready now.
            again |= before > 0
                && conn.pending_out() == 0
                && (conn.stream_state.is_some() || !conn.rbuf.is_empty());
            if conn.close_after_flush && conn.pending_out() == 0 {
                return false;
            }
            let settled =
                conn.pending_out() == 0 && conn.stream_state.is_none() && !conn.trace_pending;
            if conn.eof && conn.rbuf.is_empty() && settled {
                return false;
            }
            if drained && settled {
                return false;
            }
            // Idle reclaim, or a stalled writer; a connection waiting on
            // a stream or a trace has no deadline of its own.
            let limit = if settled {
                shared.cfg.read_timeout
            } else if conn.pending_out() > 0 {
                shared.cfg.write_timeout
            } else {
                return true;
            };
            if now.duration_since(conn.last_activity) > limit {
                return false;
            }
            let deadline = conn.last_activity + limit;
            wait_until = Some(wait_until.map_or(deadline, |w| w.min(deadline)));
            true
        });
        shared
            .metrics
            .connections_open
            .store(conns.len() as u64, Ordering::Relaxed);

        if drained {
            if conns.is_empty() {
                break;
            }
            let deadline = match drain_deadline {
                Some(d) if !progress => d,
                _ => now + shared.cfg.write_timeout,
            };
            if now >= deadline {
                shared.log(format_args!(
                    "drain grace expired with {} connection(s) unflushed",
                    conns.len()
                ));
                break;
            }
            drain_deadline = Some(deadline);
            wait_until = Some(wait_until.map_or(deadline, |w| w.min(deadline)));
        }
    }
    // Dropping `trace_tx`'s last clone (held by our caller's channel)
    // happens when this function returns; trace workers exit on the
    // closed channel.
}

fn accept_ready(
    listener: Option<&TcpListener>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &Shared,
) {
    let Some(listener) = listener else { return };
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                shared
                    .metrics
                    .connections_total
                    .fetch_add(1, Ordering::Relaxed);
                if conns.len() >= shared.cfg.max_conns {
                    shared
                        .metrics
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    shared.metrics.record_error(ErrorClass::Overloaded);
                    reject_connection(stream, shared);
                    continue;
                }
                match Conn::new(stream) {
                    Ok(conn) => {
                        let token = *next_token;
                        *next_token += 1;
                        conns.insert(token, conn);
                    }
                    Err(e) => shared.log(format_args!("accepted socket unusable: {e}")),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                shared.log(format_args!("accept failed: {e}"));
                return;
            }
        }
    }
}

/// Sheds an over-capacity connection with a structured error so the
/// client knows to back off rather than seeing a bare RST. Best-effort
/// and non-blocking: the peer is being shed, not served.
fn reject_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nonblocking(true);
    let frame = Response::error(
        ErrorClass::Overloaded,
        format!(
            "connection limit reached ({} open); retry with backoff",
            shared.cfg.max_conns
        ),
    )
    .encode();
    let _ = (&stream).write_all(frame.as_bytes());
    let _ = (&stream).write_all(b"\n");
}

/// Parses and serves every complete frame in the connection's read
/// buffer, stopping at backpressure boundaries: a pending trace, an
/// active result stream, or a write buffer over the high-water mark.
fn process_frames(conn: &mut Conn, token: u64, shared: &Shared, trace_tx: &Sender<TraceTask>) {
    loop {
        if conn.trace_pending
            || conn.stream_state.is_some()
            || conn.close_after_flush
            || conn.pending_out() >= WRITE_HIGH_WATER
        {
            return;
        }
        let frame = match extract_frame(&mut conn.rbuf, shared.cfg.max_frame_bytes) {
            Extracted::Incomplete => {
                if conn.eof && !conn.rbuf.is_empty() {
                    // A final unterminated frame is still served, like
                    // any text tool tolerating a missing last newline.
                    std::mem::take(&mut conn.rbuf)
                } else {
                    return;
                }
            }
            Extracted::TooLong => {
                // The rest of the oversized frame is unread, so the
                // stream is no longer in sync: reply, then close.
                conn.push_response(
                    shared,
                    &Response::error(
                        ErrorClass::Malformed,
                        format!("frame exceeds {} bytes", shared.cfg.max_frame_bytes),
                    ),
                );
                conn.close_after_flush = true;
                return;
            }
            Extracted::Frame(f) => f,
        };
        let line = match String::from_utf8(frame) {
            Ok(s) => s,
            Err(_) => {
                conn.push_response(
                    shared,
                    &Response::error(ErrorClass::Malformed, "frame is not valid UTF-8"),
                );
                continue;
            }
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let started = Instant::now();
        let request = match Request::decode(line) {
            Ok(r) => r,
            Err((class, message)) => {
                conn.push_response(shared, &Response::error(class, message));
                continue;
            }
        };
        shared.metrics.record_request(request.kind());
        match request {
            Request::Submit { sweep } => {
                let response = submit(sweep, shared);
                conn.push_response(shared, &response);
            }
            Request::Status { id } => {
                let response = status(id, shared);
                conn.push_response(shared, &response);
            }
            Request::Results { id } => open_stream(conn, shared, id, results_header(id, shared)),
            Request::Stream { id } => open_stream(conn, shared, id, stream_header(id, shared)),
            Request::Trace { id, index } => {
                conn.trace_pending = true;
                if trace_tx
                    .send(TraceTask {
                        token,
                        id,
                        index,
                        started,
                    })
                    .is_err()
                {
                    conn.push_response(
                        shared,
                        &Response::error(ErrorClass::ShuttingDown, "trace pool is gone"),
                    );
                    conn.trace_pending = false;
                }
                // Latency is observed when the trace completes.
                continue;
            }
            Request::Metrics => {
                let snapshot = shared.metrics.snapshot();
                conn.push_frame(&Response::Metrics(snapshot).encode());
            }
            Request::Ping => conn.push_frame(&Response::Pong.encode()),
            Request::Shutdown => {
                conn.push_frame(&Response::ShuttingDown.encode());
                conn.close_after_flush = true;
                trigger_shutdown(shared);
            }
        }
        shared.metrics.latency.observe(started.elapsed());
    }
}

/// Sends a `results` or `stream` reply's header and starts pumping the
/// sweep's lines after it, or sends the refusal.
fn open_stream(conn: &mut Conn, shared: &Shared, id: u64, header: Result<Response, Response>) {
    match header {
        Ok(header) => {
            conn.push_frame(&header.encode());
            conn.stream_state = Some(ResultStream {
                id,
                next: 0,
                sent: 0,
            });
        }
        Err(response) => conn.push_response(shared, &response),
    }
}

/// Moves available record lines (in index order) from the sweep entry
/// into the connection's write buffer, up to the high-water mark;
/// finishes with the `end` trailer once every slot has been inspected
/// on a completed sweep.
fn pump_stream(conn: &mut Conn, shared: &Shared) {
    let Some(mut st) = conn.stream_state.take() else {
        return;
    };
    let mut finished = false;
    loop {
        if conn.wbuf.len() - conn.wpos >= WRITE_HIGH_WATER {
            break;
        }
        // Pull the next batch of available lines under the table lock,
        // then release it before encoding into the write buffer.
        enum Step {
            Lines(Vec<Option<String>>),
            End(u64),
            Abort(Response),
            Wait,
        }
        let step = {
            let table = lock_recover(&shared.table);
            match table.entries.get(&st.id) {
                None => Step::Abort(Response::error(
                    ErrorClass::NotFound,
                    format!("sweep {} vanished mid-stream", st.id),
                )),
                Some(entry) => match &entry.state {
                    EntryState::Queued { .. } => Step::Wait,
                    EntryState::Running { partial } => {
                        let p = lock_recover(partial);
                        let batch: Vec<Option<String>> = p[st.next.min(p.len())..]
                            .iter()
                            .take_while(|l| l.is_some())
                            .take(64)
                            .cloned()
                            .collect();
                        if batch.is_empty() {
                            Step::Wait
                        } else {
                            Step::Lines(batch)
                        }
                    }
                    EntryState::Done { lines, .. } => {
                        if st.next >= lines.len() {
                            Step::End(st.sent)
                        } else {
                            let batch: Vec<Option<String>> =
                                lines[st.next..].iter().take(64).cloned().collect();
                            Step::Lines(batch)
                        }
                    }
                    EntryState::Failed { message } => Step::Abort(Response::error(
                        ErrorClass::Internal,
                        format!("sweep {} failed mid-stream: {message}", st.id),
                    )),
                },
            }
        };
        match step {
            Step::Wait => break,
            Step::Lines(batch) => {
                for line in batch {
                    st.next += 1;
                    if let Some(line) = line {
                        st.sent += 1;
                        conn.wbuf.extend_from_slice(line.as_bytes());
                        conn.wbuf.push(b'\n');
                    }
                }
            }
            Step::End(count) => {
                conn.push_frame(&Response::End { id: st.id, count }.encode());
                finished = true;
                break;
            }
            Step::Abort(response) => {
                conn.push_response(shared, &response);
                // The stream contract is broken; resynchronize by
                // closing once the error flushes.
                conn.close_after_flush = true;
                finished = true;
                break;
            }
        }
    }
    if !finished {
        conn.stream_state = Some(st);
    }
}

// ---------------------------------------------------------------------------
// Request handlers
// ---------------------------------------------------------------------------

fn submit(sweep: SweepSpec, shared: &Shared) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::error(ErrorClass::ShuttingDown, "server is draining");
    }
    let jobs = sweep.len() as u64;
    let mut table = lock_recover(&shared.table);
    if table.queue.len() >= shared.cfg.queue_capacity {
        return Response::error(
            ErrorClass::Overloaded,
            format!(
                "sweep queue full ({} queued, capacity {}); retry with backoff",
                table.queue.len(),
                shared.cfg.queue_capacity
            ),
        );
    }
    let id = table.next_id;
    table.next_id += 1;
    table.entries.insert(
        id,
        Entry {
            jobs,
            state: EntryState::Queued { sweep },
        },
    );
    table.queue.push_back(id);
    drop(table);
    shared.metrics.queue_pushed();
    shared
        .metrics
        .sweeps_submitted
        .fetch_add(1, Ordering::Relaxed);
    shared.queue_cv.notify_one();
    Response::Submitted { id, jobs }
}

fn status(id: u64, shared: &Shared) -> Response {
    let table = lock_recover(&shared.table);
    let entry = match entry(&table, id) {
        Ok(entry) => entry,
        Err(reply) => return reply,
    };
    let (state, (executed, cached, failures), message) = match &entry.state {
        EntryState::Queued { .. } => (SweepState::Queued, (0, 0, 0), ""),
        EntryState::Running { .. } => (SweepState::Running, (0, 0, 0), ""),
        EntryState::Done {
            executed,
            cached,
            failures,
            ..
        } => (SweepState::Done, (*executed, *cached, *failures), ""),
        EntryState::Failed { message } => (SweepState::Failed, (0, 0, 0), message.as_str()),
    };
    Response::Status(StatusInfo {
        id,
        state,
        jobs: entry.jobs,
        executed,
        cached,
        failures,
        message: message.to_string(),
    })
}

/// Sweep `id`'s table entry, or the `not_found` reply.
fn entry(table: &JobTable, id: u64) -> Result<&Entry, Response> {
    table
        .entries
        .get(&id)
        .ok_or_else(|| Response::error(ErrorClass::NotFound, format!("no sweep with id {id}")))
}

fn failed(id: u64, message: &str) -> Response {
    Response::error(
        ErrorClass::Internal,
        format!("sweep {id} failed: {message}"),
    )
}

/// The result lines of finished sweep `id`, which `results` and `trace`
/// require, or the reply saying why there are none yet.
fn finished_lines(id: u64, shared: &Shared) -> Result<Arc<Vec<Option<String>>>, Response> {
    match &entry(&lock_recover(&shared.table), id)?.state {
        EntryState::Queued { .. } | EntryState::Running { .. } => Err(Response::error(
            ErrorClass::NotReady,
            format!("sweep {id} has not finished; stream it to wait"),
        )),
        EntryState::Failed { message } => Err(failed(id, message)),
        EntryState::Done { lines, .. } => Ok(Arc::clone(lines)),
    }
}

/// Validates a `results` request; the reply header on success. Results
/// require a finished sweep (`stream` is the progressive alternative).
fn results_header(id: u64, shared: &Shared) -> Result<Response, Response> {
    let count = finished_lines(id, shared)?.iter().flatten().count() as u64;
    Ok(Response::ResultsHeader { id, count })
}

/// Validates a `stream` request; the reply header on success. Streams
/// attach to a sweep in any live state and deliver lines as jobs
/// complete.
fn stream_header(id: u64, shared: &Shared) -> Result<Response, Response> {
    let table = lock_recover(&shared.table);
    let entry = entry(&table, id)?;
    match &entry.state {
        EntryState::Failed { message } => Err(failed(id, message)),
        _ => Ok(Response::StreamHeader {
            id,
            jobs: entry.jobs,
        }),
    }
}

// ---------------------------------------------------------------------------
// Trace pool
// ---------------------------------------------------------------------------

fn trace_worker(shared: &Shared, rx: &Mutex<Receiver<TraceTask>>, done: &Mutex<Vec<TraceOutcome>>) {
    loop {
        let task = {
            let rx = lock_recover(rx);
            match rx.recv() {
                Ok(t) => t,
                Err(_) => return,
            }
        };
        let response = trace(task.id, task.index, shared).unwrap_or_else(|refusal| refusal);
        lock_recover(done).push(TraceOutcome {
            token: task.token,
            response,
            started: task.started,
        });
        shared.wake();
    }
}

/// Bus-utilization bucket width used for served derived metrics: wide
/// enough to keep the timeline array small for long runs, fine enough
/// to show phase behaviour.
const TRACE_BUCKET_CYCLES: u64 = 1 << 14;

/// Serves a `trace` request: re-runs one job of a finished sweep with a
/// ring sink and folds the event stream into derived metrics.
///
/// Jobs are deterministic, so the re-run reproduces exactly the
/// execution whose stats the sweep already returned; the stored result
/// lines are untouched. The re-run happens on a trace-pool thread (never
/// the event loop), under the same panic isolation the harness gives its
/// workers. A refusal comes back as `Err`, as from the other handlers.
fn trace(id: u64, index: u64, shared: &Shared) -> Result<Response, Response> {
    let lines = finished_lines(id, shared)?;
    let line = match lines.get(index as usize) {
        Some(Some(line)) => line,
        None => {
            return Err(Response::error(
                ErrorClass::NotFound,
                format!("sweep {id} has {} job(s); no index {index}", lines.len()),
            ))
        }
        Some(None) => {
            return Err(Response::error(
                ErrorClass::NotFound,
                format!("job {index} of sweep {id} failed; nothing to trace"),
            ))
        }
    };
    let internal = |message: String| Response::error(ErrorClass::Internal, message);
    let spec = crate::protocol::parse_result_line(line)
        .map_err(|e| {
            internal(format!(
                "stored result line for job {index} is unreadable: {e}"
            ))
        })?
        .spec;
    let json_text = std::panic::catch_unwind(move || {
        use senss_trace::{fold, RingSink};
        let mut sys = spec.build_system_with_sink(RingSink::new());
        sys.finish();
        fold(sys.into_sink().events(), TRACE_BUCKET_CYCLES).to_json()
    })
    .map_err(|_| internal(format!("traced re-run of job {index} panicked")))?;
    let derived = senss_harness::json::parse(&json_text)
        .map_err(|e| internal(format!("derived metrics did not encode cleanly: {e}")))?;
    Ok(Response::Trace { id, index, derived })
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

fn executor_loop(shared: &Shared, harness: &Harness, coordinator: Option<&Coordinator>) {
    loop {
        let (id, sweep, partial) = {
            let mut table = lock_recover(&shared.table);
            loop {
                if let Some(id) = table.queue.pop_front() {
                    // A table recovered from lock poisoning can hold a
                    // queue id whose entry was lost or left in an odd
                    // state mid-update; skip it instead of killing the
                    // executor (clients see `not_found` / stale status).
                    // The state is only replaced once it is known to be
                    // Queued — replacing first would wipe a finished
                    // entry's results and strand it in Running.
                    match table.entries.get_mut(&id) {
                        Some(entry) if matches!(entry.state, EntryState::Queued { .. }) => {
                            let partial: PartialLines =
                                Arc::new(Mutex::new(vec![None; entry.jobs as usize]));
                            let state = std::mem::replace(
                                &mut entry.state,
                                EntryState::Running {
                                    partial: Arc::clone(&partial),
                                },
                            );
                            let EntryState::Queued { sweep } = state else {
                                unreachable!("state was just matched as Queued");
                            };
                            break (id, sweep, partial);
                        }
                        Some(_) => shared.log(format_args!(
                            "sweep {id} was queued but not in Queued state; skipping"
                        )),
                        None => shared.log(format_args!(
                            "queued sweep {id} has no table entry; skipping"
                        )),
                    }
                    continue;
                }
                // Drain-then-exit: leave only once the queue is empty.
                if shared.shutdown.load(Ordering::SeqCst) {
                    shared.executor_done.store(true, Ordering::SeqCst);
                    shared.wake();
                    return;
                }
                table = shared
                    .queue_cv
                    .wait(table)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.metrics.queue_popped();
        let outcome = run_sweep(shared, harness, coordinator, &sweep, &partial);
        // The observer has filled every successful slot; snapshot it as
        // the final line set so `results` serves exactly the streamed
        // bytes.
        let lines = Arc::new(lock_recover(&partial).clone());
        let mut table = lock_recover(&shared.table);
        let Some(entry) = table.entries.get_mut(&id) else {
            shared.log(format_args!(
                "sweep {id} vanished from the table; dropping its result"
            ));
            continue;
        };
        match outcome {
            Ok(done) => {
                let (executed, cached) = (done.executed as u64, done.cached as u64);
                let failures = done.failures.len() as u64;
                let m = &shared.metrics;
                m.jobs_executed.fetch_add(executed, Ordering::Relaxed);
                m.jobs_cached.fetch_add(cached, Ordering::Relaxed);
                m.jobs_failed.fetch_add(failures, Ordering::Relaxed);
                m.jobs_forked
                    .fetch_add(done.forked as u64, Ordering::Relaxed);
                m.cache_lines_skipped
                    .fetch_add(done.cache_skipped as u64, Ordering::Relaxed);
                m.sweeps_completed.fetch_add(1, Ordering::Relaxed);
                entry.state = EntryState::Done {
                    lines,
                    executed,
                    cached,
                    failures,
                };
            }
            Err(e) => {
                shared.metrics.sweeps_failed.fetch_add(1, Ordering::Relaxed);
                entry.state = EntryState::Failed {
                    message: e.to_string(),
                };
            }
        }
        drop(table);
        shared.wake();
    }
}

/// Executes one sweep through the harness, whose jobs run locally or,
/// in cluster mode, on the workers, filling `partial` with encoded
/// result lines as jobs complete and waking the event loop, so attached
/// streams ship them immediately.
fn run_sweep(
    shared: &Shared,
    harness: &Harness,
    coordinator: Option<&Coordinator>,
    sweep: &SweepSpec,
    partial: &PartialLines,
) -> std::io::Result<SweepResult> {
    let observe = |rec: &RunRecord| {
        lock_recover(partial)[rec.index] = Some(crate::protocol::result_line(rec));
        shared.wake();
    };
    match (coordinator, &shared.cfg.runner) {
        (Some(c), _) => harness.run_with_observed(sweep, |j| c.run_job(j), observe),
        (None, Some(r)) => harness.run_with_observed(sweep, |j| r(j), observe),
        (None, None) => harness.run_observed(sweep, observe),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::result_line;
    use senss_harness::SecurityMode;
    use senss_workloads::Workload;

    #[test]
    fn frame_extraction_pins_the_size_cap_boundaries() {
        const MAX: usize = 8;
        // Exactly `max` content bytes, newline-terminated: accepted.
        let mut buf = b"12345678\n".to_vec();
        assert_eq!(
            extract_frame(&mut buf, MAX),
            Extracted::Frame(b"12345678".to_vec())
        );
        assert!(buf.is_empty());
        // One content byte over, newline present: rejected — the
        // newline never rescues an oversized frame.
        let mut buf = b"123456789\n".to_vec();
        assert_eq!(extract_frame(&mut buf, MAX), Extracted::TooLong);
        // Exactly `max` bytes, no newline yet: wait for more input.
        let mut buf = b"12345678".to_vec();
        assert_eq!(extract_frame(&mut buf, MAX), Extracted::Incomplete);
        assert_eq!(buf, b"12345678");
        // One over without a newline: already rejectable.
        let mut buf = b"123456789".to_vec();
        assert_eq!(extract_frame(&mut buf, MAX), Extracted::TooLong);
        // Empty frames and back-to-back frames drain in order.
        let mut buf = b"\nab\ncd".to_vec();
        assert_eq!(extract_frame(&mut buf, MAX), Extracted::Frame(Vec::new()));
        assert_eq!(
            extract_frame(&mut buf, MAX),
            Extracted::Frame(b"ab".to_vec())
        );
        assert_eq!(extract_frame(&mut buf, MAX), Extracted::Incomplete);
        assert_eq!(buf, b"cd");
    }

    /// Regression test: a queue id whose entry is already finished must
    /// be skipped WITHOUT touching its state. The old executor replaced
    /// the state with `Running` before inspecting it, wiping the result
    /// lines of a `Done` entry and stranding it un-streamable.
    #[test]
    fn executor_skips_stale_queue_ids_without_clobbering_done_entries() {
        let cfg = ServerConfig::loopback();
        let shared = Shared::from_config(&cfg).unwrap();
        let spec = JobSpec::new(Workload::Fft, 2, 1 << 20)
            .with_ops(200)
            .with_mode(SecurityMode::senss());
        let rec = RunRecord {
            index: 0,
            spec,
            key: spec.cache_key(),
            stats: Stats {
                total_cycles: 42,
                ..Stats::default()
            },
            wall_micros: 1,
            worker: Some(0),
            attempts: 1,
            cached: false,
        };
        let line = result_line(&rec);
        {
            let mut table = lock_recover(&shared.table);
            table.entries.insert(
                7,
                Entry {
                    jobs: 1,
                    state: EntryState::Done {
                        lines: Arc::new(vec![Some(line.clone())]),
                        executed: 1,
                        cached: 0,
                        failures: 0,
                    },
                },
            );
            // The corruption scenario: the finished sweep's id is
            // (wrongly) back on the queue.
            table.queue.push_back(7);
        }
        shared.shutdown.store(true, Ordering::SeqCst);
        let harness = Harness::new(HarnessConfig::hermetic());
        executor_loop(&shared, &harness, None);

        let table = lock_recover(&shared.table);
        match &table.entries.get(&7).unwrap().state {
            EntryState::Done {
                lines, executed, ..
            } => {
                assert_eq!(lines.as_ref(), &vec![Some(line)]);
                assert_eq!(*executed, 1);
            }
            _ => panic!("stale queue id must not clobber the Done entry"),
        }
    }
}
