//! The cluster coordinator: shards sweeps across worker processes.
//!
//! Topology: one coordinator (the process running [`Server`] with a
//! [`ClusterConfig`]) supervises N worker processes ([`WorkerProc`]),
//! each an ordinary `senss-serve worker` speaking the NDJSON protocol
//! on loopback. A submitted sweep is split round-robin into N shards
//! ([`SweepSpec::shards`]); each shard is submitted to its worker with
//! the `indices` extension so every result line carries its position in
//! the *original* sweep, streamed back progressively, and merged in
//! index order. Determinism end to end: the merged JSONL is
//! byte-identical to a local [`Harness`](senss_harness::Harness) run of
//! the same sweep.
//!
//! Fault model: workers are stateless (their result cache is an
//! optimization, not state the coordinator depends on), so supervision
//! is kill-and-respawn. Any error talking to a worker — connect
//! failure, mid-stream EOF from a crash, a structured error frame —
//! retires that worker's process and retries the whole shard on a
//! fresh one, up to [`ClusterConfig::shard_retries`] times. Because
//! job results are deterministic, a retried shard reproduces the lost
//! lines exactly.
//!
//! [`Server`]: crate::Server

use crate::client::Client;
use crate::metrics::Metrics;
use crate::worker::WorkerProc;
use senss_harness::{json, SweepShard, SweepSpec};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Configuration of the worker cluster behind a coordinator.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker processes (= maximum shards per sweep).
    pub workers: usize,
    /// Program to spawn as a worker — normally the coordinator's own
    /// executable (`std::env::current_exe`); tests point it at
    /// `CARGO_BIN_EXE_senss-serve`.
    pub program: String,
    /// Extra arguments after `worker --addr 127.0.0.1:0`, e.g.
    /// `--hermetic` or `--quiet`.
    pub worker_args: Vec<String>,
    /// Retries per shard after the first attempt; each retry respawns
    /// the shard's worker.
    pub shard_retries: u32,
    /// Per-call I/O timeout talking to a worker. The result stream
    /// waits on job completions, so this bounds worker *stall*, not
    /// sweep duration: size it to the slowest single job.
    pub worker_timeout: Duration,
}

impl ClusterConfig {
    /// A cluster of `workers` processes spawned from `program`, with
    /// 2 retries per shard and a 60 s worker-stall timeout.
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

    /// Sets the per-shard retry budget.
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

/// One worker slot. `generation` increments on every (re)spawn so a
/// shard thread that hit an error can tell whether the process it was
/// talking to has already been replaced by someone else.
struct Slot {
    proc_: Option<WorkerProc>,
    generation: u64,
    ever_spawned: bool,
}

/// Merged outcome of a sharded sweep, in original-sweep index order.
pub(crate) struct ClusterOutcome {
    /// One slot per job; `None` where the job failed on its worker.
    pub lines: Vec<Option<String>>,
    /// Jobs executed across all shards.
    pub executed: u64,
    /// Jobs served from worker caches.
    pub cached: u64,
    /// Jobs that failed permanently.
    pub failures: u64,
}

/// Supervisor for the worker fleet. Shared by the executor (which runs
/// sweeps through it) and fault-injection tests (which kill workers
/// through it); dropping the coordinator kills every worker.
pub struct Coordinator {
    cfg: ClusterConfig,
    metrics: Arc<Metrics>,
    slots: Vec<Mutex<Slot>>,
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
            slots: (0..cfg.workers)
                .map(|_| {
                    Mutex::new(Slot {
                        proc_: None,
                        generation: 0,
                        ever_spawned: false,
                    })
                })
                .collect(),
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
    /// returns its address and generation. The slot lock is released
    /// before any network I/O happens against the returned address.
    fn checkout(&self, slot: usize) -> std::io::Result<(String, u64)> {
        let mut s = lock_recover(&self.slots[slot]);
        if s.proc_.is_none() {
            let proc_ = WorkerProc::spawn(&self.cfg.program, &self.cfg.worker_args)?;
            s.generation += 1;
            if s.ever_spawned {
                self.metrics
                    .workers_respawned
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(w) = self.metrics.worker(slot) {
                    w.respawns.fetch_add(1, Ordering::Relaxed);
                }
                self.log(format_args!(
                    "worker {slot} respawned at {} (generation {})",
                    proc_.addr(),
                    s.generation
                ));
            } else {
                self.log(format_args!("worker {slot} started at {}", proc_.addr()));
            }
            s.ever_spawned = true;
            s.proc_ = Some(proc_);
        }
        let addr = s.proc_.as_ref().expect("just ensured").addr().to_string();
        Ok((addr, s.generation))
    }

    /// Retires slot `slot`'s worker **if** it is still the generation
    /// the caller was talking to — a concurrent retire-and-respawn must
    /// not get its fresh worker killed for the old one's failure.
    fn retire(&self, slot: usize, generation: u64) {
        let mut s = lock_recover(&self.slots[slot]);
        if s.generation == generation {
            if let Some(mut p) = s.proc_.take() {
                p.kill();
            }
        }
    }

    /// Fault-injection hook: kills slot `slot`'s worker process
    /// outright (no generation check — this *is* the failure). The next
    /// shard touching the slot respawns it.
    pub fn kill_worker(&self, slot: usize) {
        let mut s = lock_recover(&self.slots[slot]);
        if let Some(mut p) = s.proc_.take() {
            self.log(format_args!("worker {slot} killed (fault injection)"));
            p.kill();
        }
    }

    /// Runs `sweep` sharded across the fleet. `orig[i]` is job `i`'s
    /// index in the original client-submitted sweep (identity for a
    /// direct submit); `on_line(i, line)` fires for each completed job
    /// as its result line arrives from a worker, feeding the
    /// coordinator's own progressive streams.
    ///
    /// Returns the merged outcome once every shard has completed, or an
    /// error if any shard exhausted its retry budget — partial results
    /// are never reported as success.
    pub(crate) fn run_sweep(
        &self,
        sweep: &SweepSpec,
        orig: &[u64],
        on_line: &(dyn Fn(usize, String) + Sync),
    ) -> std::io::Result<ClusterOutcome> {
        let shards = sweep.shards(self.slots.len());
        self.metrics
            .shards_dispatched
            .fetch_add(shards.len() as u64, Ordering::Relaxed);
        let outcomes: Vec<Result<ShardOutcome, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|shard| scope.spawn(move || self.run_shard(shard, orig, on_line)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("shard thread panicked".to_string()))
                })
                .collect()
        });
        let mut merged = ClusterOutcome {
            lines: vec![None; sweep.len()],
            executed: 0,
            cached: 0,
            failures: 0,
        };
        for (shard, outcome) in shards.iter().zip(outcomes) {
            match outcome {
                Ok(out) => {
                    self.metrics
                        .shards_completed
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(w) = self.metrics.worker(shard.shard) {
                        w.shards.fetch_add(1, Ordering::Relaxed);
                        w.jobs.fetch_add(out.lines.len() as u64, Ordering::Relaxed);
                    }
                    for (local, line) in out.lines {
                        merged.lines[local] = Some(line);
                    }
                    merged.executed += out.executed;
                    merged.cached += out.cached;
                    merged.failures += out.failures;
                }
                Err(message) => {
                    return Err(std::io::Error::other(format!(
                        "shard {} failed after {} attempt(s): {message}",
                        shard.shard,
                        self.cfg.shard_retries + 1
                    )))
                }
            }
        }
        Ok(merged)
    }

    /// Runs one shard with kill-and-respawn retry.
    fn run_shard(
        &self,
        shard: &SweepShard,
        orig: &[u64],
        on_line: &(dyn Fn(usize, String) + Sync),
    ) -> Result<ShardOutcome, String> {
        let mut last_err = String::from("no attempt made");
        for attempt in 0..=self.cfg.shard_retries {
            if attempt > 0 {
                self.metrics.shard_retries.fetch_add(1, Ordering::Relaxed);
                self.log(format_args!(
                    "shard {} retry {attempt}/{}",
                    shard.shard, self.cfg.shard_retries
                ));
            }
            let (addr, generation) = match self.checkout(shard.shard) {
                Ok(x) => x,
                Err(e) => {
                    last_err = format!("worker spawn failed: {e}");
                    continue;
                }
            };
            match self.shard_attempt(&addr, shard, orig, on_line) {
                Ok(out) => return Ok(out),
                Err(e) => {
                    last_err = e;
                    // Whatever went wrong, the worker is suspect; a
                    // fresh process is cheap and always safe.
                    self.retire(shard.shard, generation);
                }
            }
        }
        Err(last_err)
    }

    /// One attempt of one shard against one worker: submit with
    /// original indices, stream lines back as they complete, then read
    /// the final status for the executed/cached/failure accounting.
    fn shard_attempt(
        &self,
        addr: &str,
        shard: &SweepShard,
        orig: &[u64],
        on_line: &(dyn Fn(usize, String) + Sync),
    ) -> Result<ShardOutcome, String> {
        let client = Client::new(addr)
            .with_timeout(self.cfg.worker_timeout)
            .with_retry(0, Duration::from_millis(0));
        let indices: Vec<u64> = shard.indices.iter().map(|&i| orig[i]).collect();
        let (id, _) = client
            .submit_sharded(&shard.spec, &indices)
            .map_err(|e| format!("submit to {addr}: {e}"))?;
        // Original-sweep index value → position in the full sweep, for
        // routing streamed lines (which carry original indices) back to
        // their merge slot.
        let local_of: std::collections::HashMap<u64, usize> = shard
            .indices
            .iter()
            .enumerate()
            .map(|(k, &local)| (indices[k], local))
            .collect();
        let mut lines: Vec<(usize, String)> = Vec::with_capacity(shard.indices.len());
        let mut unroutable = 0usize;
        client
            .stream_with(id, |line| {
                let idx = json::parse(line)
                    .ok()
                    .and_then(|v| v.get("index").and_then(json::Value::as_u64));
                match idx.and_then(|i| local_of.get(&i).copied()) {
                    Some(local) => {
                        on_line(local, line.to_string());
                        lines.push((local, line.to_string()));
                    }
                    None => unroutable += 1,
                }
            })
            .map_err(|e| format!("stream from {addr}: {e}"))?;
        if unroutable > 0 {
            return Err(format!(
                "{unroutable} streamed line(s) carried indices outside the shard"
            ));
        }
        let info = client
            .status(id)
            .map_err(|e| format!("status from {addr}: {e}"))?;
        match info.state {
            crate::protocol::SweepState::Done => Ok(ShardOutcome {
                lines,
                executed: info.executed,
                cached: info.cached,
                failures: info.failures,
            }),
            state => Err(format!(
                "worker reported state {state:?} after its stream ended"
            )),
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        for slot in &self.slots {
            if let Some(mut p) = lock_recover(slot).proc_.take() {
                p.kill();
            }
        }
    }
}

/// One shard's merged contribution: `(full-sweep position, line)`.
struct ShardOutcome {
    lines: Vec<(usize, String)>,
    executed: u64,
    cached: u64,
    failures: u64,
}
