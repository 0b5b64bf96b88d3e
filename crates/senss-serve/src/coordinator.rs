//! The cluster coordinator: runs each cache miss on a worker process.
//!
//! Topology: one coordinator (the process running [`Server`] with a
//! [`ClusterConfig`]) supervises N worker processes ([`WorkerProc`]),
//! each a `senss-serve worker` child that answers one job line on its
//! stdin with one result line on its stdout (see [`crate::worker`]).
//! The coordinator's own [`Harness`] runs every sweep: it serves cache
//! hits, applies the cycle budget, writes records and streams lines
//! exactly as a local run does, with one thread per worker slot whose
//! job runner is [`Coordinator::run_job`]. That writes the job to an
//! idle worker and takes the stats from its reply. Result lines are
//! deterministic, so a cluster sweep is byte-identical to a local run
//! of it, and the coordinator's cache file is the only one written.
//!
//! Fault model: workers are hermetic and stateless, so supervision is
//! kill-and-respawn. Any failure talking to a worker (a spawn error, a
//! broken pipe or EOF from a crash, no reply within
//! [`ClusterConfig::worker_timeout`], a reply that does not parse)
//! retires that worker's process and retries the job on a fresh one,
//! up to [`JOB_RETRIES`] times. Because jobs are deterministic, a
//! retried job reproduces the lost line exactly. A job that panics on
//! the worker fails alone, with the worker's panic message, as a
//! panicking job does in a local run; so does a job that exhausts its
//! retries.
//!
//! [`Server`]: crate::Server
//! [`Harness`]: senss_harness::Harness

use crate::metrics::Metrics;
use crate::server::lock_recover;
use crate::worker::WorkerProc;
use senss_harness::JobSpec;
use senss_sim::Stats;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Retries per job after the first attempt; each retry respawns the
/// job's worker.
pub const JOB_RETRIES: u32 = 2;

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
    /// Extra arguments after `worker`, e.g. `--quiet`.
    pub worker_args: Vec<String>,
    /// How long to wait for a worker's hello line, and for its reply to
    /// one job; size it to the slowest single job.
    pub worker_timeout: Duration,
}

impl ClusterConfig {
    /// A cluster of `workers` processes spawned from `program`, with a
    /// 60 s worker-stall timeout.
    pub fn new(workers: usize, program: impl Into<String>) -> ClusterConfig {
        ClusterConfig {
            workers: workers.max(1),
            program: program.into(),
            worker_args: Vec::new(),
            worker_timeout: Duration::from_secs(60),
        }
    }

    /// Appends an argument passed to every worker process.
    pub fn with_worker_arg(mut self, arg: impl Into<String>) -> ClusterConfig {
        self.worker_args.push(arg.into());
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
/// retires its process; [`Coordinator::kill_worker`] may kill it at any
/// time, which the job sees as a broken pipe.
#[derive(Default)]
struct Slot {
    proc_: Option<Arc<WorkerProc>>,
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

    /// Ensures slot `slot` has a live worker, spawning one if needed,
    /// and returns it. The slot lock is released before any job I/O.
    fn checkout(&self, slot: usize) -> std::io::Result<Arc<WorkerProc>> {
        let mut s = lock_recover(&self.slots[slot]);
        if let Some(proc_) = &s.proc_ {
            return Ok(Arc::clone(proc_));
        }
        let proc_ = Arc::new(WorkerProc::spawn(
            &self.cfg.program,
            &self.cfg.worker_args,
            self.cfg.worker_timeout,
        )?);
        s.spawns += 1;
        if s.spawns > 1 {
            self.metrics
                .workers_respawned
                .fetch_add(1, Ordering::Relaxed);
            if let Some(w) = self.metrics.worker(slot) {
                w.respawns.fetch_add(1, Ordering::Relaxed);
            }
            self.log(format_args!("worker {slot} respawned (spawn {})", s.spawns));
        } else {
            self.log(format_args!("worker {slot} started"));
        }
        s.proc_ = Some(Arc::clone(&proc_));
        Ok(proc_)
    }

    /// Kills slot `slot`'s worker process, if it has one. The next job
    /// on the slot respawns it.
    fn retire(&self, slot: usize) -> bool {
        let proc_ = lock_recover(&self.slots[slot]).proc_.take();
        proc_.map(|p| p.kill()).is_some()
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
    /// the worker and retries on a fresh one, up to [`JOB_RETRIES`]
    /// times.
    ///
    /// # Panics
    ///
    /// Panics, so that the harness reports the job failed, when the
    /// job panicked on the worker (the message carries the worker's),
    /// or when every attempt failed.
    pub fn run_job(&self, job: &JobSpec) -> Stats {
        let slot = IdleSlot::take(self);
        self.metrics
            .shards_dispatched
            .fetch_add(1, Ordering::Relaxed);
        let mut last_err = String::from("no attempt made");
        for attempt in 0..=JOB_RETRIES {
            if attempt > 0 {
                self.metrics.shard_retries.fetch_add(1, Ordering::Relaxed);
                self.log(format_args!(
                    "worker {} retry {attempt}/{JOB_RETRIES}: {last_err}",
                    slot.0
                ));
            }
            let reply = self
                .checkout(slot.0)
                .and_then(|worker| worker.run(job, self.cfg.worker_timeout));
            match reply {
                Ok(Ok(stats)) => {
                    if let Some(w) = self.metrics.worker(slot.0) {
                        w.jobs.fetch_add(1, Ordering::Relaxed);
                    }
                    return stats;
                }
                Ok(Err(message)) => panic!("job failed on worker {}: {message}", slot.0),
                // Whatever went wrong, the worker is suspect; a fresh
                // process is cheap and always safe.
                Err(e) => {
                    last_err = e.to_string();
                    self.retire(slot.0);
                }
            }
        }
        panic!(
            "worker {} failed after {} attempt(s): {last_err}",
            slot.0,
            JOB_RETRIES + 1
        )
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
