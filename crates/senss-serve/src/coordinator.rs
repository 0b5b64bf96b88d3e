//! The cluster coordinator: runs each cache miss on a worker process.
//!
//! Topology: one coordinator (the process running [`Server`] with a
//! [`ClusterConfig`]) supervises N worker processes ([`WorkerProc`]),
//! each an ordinary `senss-serve worker` speaking the NDJSON protocol
//! on loopback. The coordinator's own [`Harness`] runs every sweep: it
//! serves cache hits, applies the cycle budget, writes records and
//! streams lines exactly as a local run does, with one thread per
//! worker slot whose job runner is `Coordinator::run_job`. That
//! sends the job to an idle worker as a one-job sweep and decodes the
//! stats from the worker's result line. Result lines are deterministic,
//! so a cluster sweep is byte-identical to a local run of it, and the
//! coordinator's cache file is the only one written.
//!
//! Fault model: workers are hermetic and stateless, so supervision is
//! kill-and-respawn. Any error talking to a worker (connect failure,
//! mid-stream EOF from a crash, a structured error frame) retires that
//! worker's process and retries the job on a fresh one, up to
//! [`ClusterConfig::shard_retries`] times. Because jobs are
//! deterministic, a retried job reproduces the lost line exactly. A job
//! that still fails, or fails on the worker itself, fails alone, as a
//! panicking job does in a local run.
//!
//! [`Server`]: crate::Server
//! [`Harness`]: senss_harness::Harness

use crate::client::Client;
use crate::metrics::Metrics;
use crate::protocol::parse_result_line;
use crate::worker::WorkerProc;
use senss_harness::{JobSpec, SweepSpec};
use senss_sim::Stats;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Configuration of the worker cluster behind a coordinator.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker processes, and of the coordinator harness's
    /// threads.
    pub workers: usize,
    /// Program to spawn as a worker — normally the coordinator's own
    /// executable (`std::env::current_exe`); tests point it at
    /// `CARGO_BIN_EXE_senss-serve`.
    pub program: String,
    /// Extra arguments after `worker --addr 127.0.0.1:0`, e.g.
    /// `--quiet`.
    pub worker_args: Vec<String>,
    /// Retries per job after the first attempt; each retry respawns
    /// the job's worker.
    pub shard_retries: u32,
    /// Per-call I/O timeout talking to a worker. The result stream
    /// waits for the job to finish, so size it to the slowest single
    /// job.
    pub worker_timeout: Duration,
}

impl ClusterConfig {
    /// A cluster of `workers` processes spawned from `program`, with
    /// 2 retries per job and a 60 s worker-stall timeout.
    pub fn new(workers: usize, program: impl Into<String>) -> ClusterConfig {
        ClusterConfig {
            workers: workers.max(1),
            program: program.into(),
            worker_args: Vec::new(),
            shard_retries: 2,
            worker_timeout: Duration::from_secs(60),
        }
    }

    /// Appends an argument passed to every worker process.
    pub fn with_worker_arg(mut self, arg: impl Into<String>) -> ClusterConfig {
        self.worker_args.push(arg.into());
        self
    }

    /// Sets the per-job retry budget.
    pub fn with_shard_retries(mut self, retries: u32) -> ClusterConfig {
        self.shard_retries = retries;
        self
    }

    /// Sets the worker-stall timeout.
    pub fn with_worker_timeout(mut self, timeout: Duration) -> ClusterConfig {
        self.worker_timeout = timeout;
        self
    }
}

/// One worker slot: its live process, if any, and how many times a
/// process was spawned for it. Only the job holding the slot spawns or
/// retires its process.
#[derive(Default)]
struct Slot {
    proc_: Option<WorkerProc>,
    spawns: u64,
}

/// Supervisor for the worker fleet. Shared by the executor (which runs
/// jobs through it) and fault-injection tests (which kill workers
/// through it); dropping the coordinator drops, and so kills, every
/// worker.
pub struct Coordinator {
    cfg: ClusterConfig,
    metrics: Arc<Metrics>,
    slots: Vec<Mutex<Slot>>,
    /// Slots not running a job, the longest idle first.
    idle: Mutex<VecDeque<usize>>,
    quiet: bool,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("workers", &self.slots.len())
            .field("program", &self.cfg.program)
            .finish()
    }
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Coordinator {
    /// Spawns the full worker fleet eagerly (failing fast if the worker
    /// binary is unusable) and returns the supervisor.
    pub fn start(
        cfg: ClusterConfig,
        metrics: Arc<Metrics>,
        quiet: bool,
    ) -> std::io::Result<Coordinator> {
        let coordinator = Coordinator {
            slots: (0..cfg.workers).map(|_| Mutex::default()).collect(),
            idle: Mutex::new((0..cfg.workers).collect()),
            cfg,
            metrics,
            quiet,
        };
        for slot in 0..coordinator.slots.len() {
            coordinator.checkout(slot)?;
        }
        Ok(coordinator)
    }

    fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.quiet {
            eprintln!("senss-serve: {msg}");
        }
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Ensures slot `slot` has a live worker, spawning one if needed;
    /// returns its address. The slot lock is released before any
    /// network I/O happens against the returned address.
    fn checkout(&self, slot: usize) -> std::io::Result<String> {
        let mut s = lock_recover(&self.slots[slot]);
        if s.proc_.is_none() {
            let proc_ = WorkerProc::spawn(&self.cfg.program, &self.cfg.worker_args)?;
            s.spawns += 1;
            if s.spawns > 1 {
                self.metrics
                    .workers_respawned
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(w) = self.metrics.worker(slot) {
                    w.respawns.fetch_add(1, Ordering::Relaxed);
                }
                self.log(format_args!(
                    "worker {slot} respawned at {} (spawn {})",
                    proc_.addr(),
                    s.spawns
                ));
            } else {
                self.log(format_args!("worker {slot} started at {}", proc_.addr()));
            }
            s.proc_ = Some(proc_);
        }
        Ok(s.proc_.as_ref().expect("just ensured").addr().to_string())
    }

    /// Kills slot `slot`'s worker process, if it has one (dropping a
    /// [`WorkerProc`] kills it). The next job on the slot respawns it.
    fn retire(&self, slot: usize) -> bool {
        lock_recover(&self.slots[slot]).proc_.take().is_some()
    }

    /// Fault-injection hook: kills slot `slot`'s worker process
    /// outright, even while it runs a job.
    pub fn kill_worker(&self, slot: usize) {
        if self.retire(slot) {
            self.log(format_args!("worker {slot} killed (fault injection)"));
        }
    }

    /// Runs `job` on an idle worker and returns its stats: the
    /// coordinator harness's job runner. A transport failure retires
    /// the worker and retries on a fresh one, up to
    /// [`ClusterConfig::shard_retries`] times.
    ///
    /// # Panics
    ///
    /// Panics, so that the harness reports the job failed, when the
    /// worker ran the job but produced no result line, or when every
    /// attempt failed.
    pub(crate) fn run_job(&self, job: &JobSpec) -> Stats {
        let slot = IdleSlot::take(self);
        self.metrics
            .shards_dispatched
            .fetch_add(1, Ordering::Relaxed);
        let mut sweep = SweepSpec::new("");
        sweep.push(*job);
        let mut last_err = String::from("no attempt made");
        for attempt in 0..=self.cfg.shard_retries {
            if attempt > 0 {
                self.metrics.shard_retries.fetch_add(1, Ordering::Relaxed);
                self.log(format_args!(
                    "worker {} retry {attempt}/{}",
                    slot.0, self.cfg.shard_retries
                ));
            }
            let addr = match self.checkout(slot.0) {
                Ok(addr) => addr,
                Err(e) => {
                    last_err = format!("worker spawn failed: {e}");
                    continue;
                }
            };
            match self.attempt(&addr, &sweep) {
                Ok(Some(stats)) => {
                    if let Some(w) = self.metrics.worker(slot.0) {
                        w.jobs.fetch_add(1, Ordering::Relaxed);
                    }
                    return stats;
                }
                Ok(None) => panic!("job failed on worker {}", slot.0),
                // Whatever went wrong, the worker is suspect; a fresh
                // process is cheap and always safe.
                Err(e) => {
                    last_err = e;
                    self.retire(slot.0);
                }
            }
        }
        panic!(
            "worker {} failed after {} attempt(s): {last_err}",
            slot.0,
            self.cfg.shard_retries + 1
        )
    }

    /// One attempt against one worker: submit the one-job sweep and
    /// stream its line back. `Ok(None)` means the stream ended without
    /// a line, i.e. the job itself failed on the worker.
    fn attempt(&self, addr: &str, sweep: &SweepSpec) -> Result<Option<Stats>, String> {
        let client = Client::new(addr).with_timeout(self.cfg.worker_timeout);
        let (id, _) = client
            .submit_once(sweep)
            .map_err(|e| format!("submit to {addr}: {e}"))?;
        let mut line = None;
        client
            .stream_with(id, |l| line = Some(l.to_string()))
            .map_err(|e| format!("stream from {addr}: {e}"))?;
        line.map(|l| parse_result_line(&l).map(|r| r.stats))
            .transpose()
            .map_err(|e| format!("result line from {addr}: {e}"))
    }
}

/// A worker slot taken off the idle list for one job, and put back at
/// its end on drop (also when the job panics).
struct IdleSlot<'a>(usize, &'a Coordinator);

impl<'a> IdleSlot<'a> {
    /// The coordinator harness runs one thread per slot, so an idle
    /// slot always exists.
    fn take(coordinator: &'a Coordinator) -> IdleSlot<'a> {
        let slot = lock_recover(&coordinator.idle)
            .pop_front()
            .expect("one harness thread per worker slot");
        IdleSlot(slot, coordinator)
    }
}

impl Drop for IdleSlot<'_> {
    fn drop(&mut self) {
        lock_recover(&self.1.idle).push_back(self.0);
    }
}
