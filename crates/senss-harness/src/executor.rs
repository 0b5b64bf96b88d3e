//! The parallel, fault-tolerant sweep executor.
//!
//! Jobs are dispatched from a shared work queue to a pool of worker
//! threads (worker count defaults to the machine's available
//! parallelism, overridable with `HARNESS_WORKERS`). Each job runs
//! exactly once under [`std::panic::catch_unwind`], so a poisoned
//! configuration fails alone instead of sinking the sweep. Jobs are
//! deterministic, so a failure is reported rather than retried: another
//! attempt would replay the same panic at the same cycle. Results are
//! re-ordered by job index before being returned, so the output is
//! identical no matter how many workers ran or in which order they
//! finished.

use crate::cache::ResultCache;
use crate::record::RunRecord;
use crate::spec::{JobSpec, SweepSpec};
use senss_sim::Stats;
use senss_snapshot::Snapshot;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker thread count (clamped to at least 1).
    pub workers: usize,
    /// Fail any job whose simulated `total_cycles` exceeds this budget.
    pub cycle_budget: Option<u64>,
    /// Cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// Where run-record JSONL files are written (`None` disables).
    pub records_dir: Option<PathBuf>,
    /// Warm-start forking: sweep points identical except for
    /// `ops_per_core` share their simulated prefix by forking one
    /// checkpoint instead of re-simulating it. Results are
    /// bit-identical to cold runs (and cached under the same keys);
    /// only wall-clock changes.
    pub warm_start: bool,
}

impl HarnessConfig {
    /// Configuration from the environment, the one the figure binaries
    /// use:
    ///
    /// * `HARNESS_WORKERS` — worker count (default: available
    ///   parallelism);
    /// * `HARNESS_CYCLE_BUDGET` — per-job simulated-cycle budget
    ///   (default: none);
    /// * `HARNESS_NO_CACHE` — any value disables the result cache;
    /// * `HARNESS_WARM_START` — any value but `0` enables warm-start
    ///   forking of ops-per-core sweeps (default off);
    /// * cache lives under `results/cache/`, records under
    ///   `results/records/`.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the variable if a set numeric
    /// variable does not parse — a typo like `HARNESS_CYCLE_BUDGET=abc`
    /// must not silently run the sweep with the budget dropped.
    pub fn from_env() -> HarnessConfig {
        Self::from_lookup(|key| std::env::var(key).ok())
    }

    /// [`from_env`](HarnessConfig::from_env) with the variable lookup
    /// injected, so tests can exercise parsing without racing on the
    /// process environment.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> HarnessConfig {
        let workers = env_number(&lookup, "HARNESS_WORKERS").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        HarnessConfig {
            workers,
            cycle_budget: env_number(&lookup, "HARNESS_CYCLE_BUDGET"),
            cache_dir: if lookup("HARNESS_NO_CACHE").is_some() {
                None
            } else {
                Some(PathBuf::from("results/cache"))
            },
            records_dir: Some(PathBuf::from("results/records")),
            warm_start: lookup("HARNESS_WARM_START")
                .map(|v| v != "0")
                .unwrap_or(false),
        }
    }

    /// A hermetic configuration for tests: one worker, no cache, no
    /// records.
    pub fn hermetic() -> HarnessConfig {
        HarnessConfig {
            workers: 1,
            cycle_budget: None,
            cache_dir: None,
            records_dir: None,
            warm_start: false,
        }
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> HarnessConfig {
        self.workers = workers;
        self
    }

    /// Sets the per-job cycle budget.
    pub fn with_cycle_budget(mut self, budget: u64) -> HarnessConfig {
        self.cycle_budget = Some(budget);
        self
    }

    /// Sets the cache directory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> HarnessConfig {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Sets the records directory.
    pub fn with_records_dir(mut self, dir: impl Into<PathBuf>) -> HarnessConfig {
        self.records_dir = Some(dir.into());
        self
    }

    /// Enables or disables warm-start forking.
    pub fn with_warm_start(mut self, on: bool) -> HarnessConfig {
        self.warm_start = on;
        self
    }
}

/// Reads the numeric variable `key` through `lookup`: `None` when it is
/// unset. The one strict reader of numeric environment knobs.
///
/// # Panics
///
/// Panics with the variable's name and value if it is set but does not
/// parse, so a typo never silently falls back to a default.
pub fn env_number<T: std::str::FromStr>(
    lookup: impl Fn(&str) -> Option<String>,
    key: &str,
) -> Option<T> {
    lookup(key).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{key} must be a non-negative integer, got {v:?}"))
    })
}

/// Why a job failed for good.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; carries the panic message.
    Panicked(String),
    /// The run completed but blew the configured cycle budget.
    CycleBudgetExceeded {
        /// Simulated cycles the run took.
        cycles: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::CycleBudgetExceeded { cycles, budget } => {
                write!(f, "cycle budget exceeded: {cycles} > {budget}")
            }
        }
    }
}

/// A job that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Position in the sweep.
    pub index: usize,
    /// The failed job.
    pub spec: JobSpec,
    /// Final error.
    pub error: JobError,
    /// Attempts consumed: always 1, since every job runs once. Kept so
    /// failure reports and [`RunRecord::attempts`] share one shape.
    pub attempts: u32,
}

/// The outcome of running a sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// Sweep name.
    pub name: String,
    /// Successful records, ordered by job index.
    pub records: Vec<RunRecord>,
    /// Failed jobs, ordered by job index.
    pub failures: Vec<JobFailure>,
    /// Jobs actually executed this run (cache misses that succeeded or
    /// failed).
    pub executed: usize,
    /// Jobs served from the cache.
    pub cached: usize,
    /// Jobs whose result came from a warm-start fork (a subset of
    /// `executed`): their shared prefix was restored from a checkpoint
    /// instead of re-simulated.
    pub forked: usize,
    /// Corrupt or truncated cache lines skipped when this sweep read
    /// the result cache. A [`Harness`] parses each line once: its first
    /// sweep opens the file and later ones read only lines appended
    /// since, so a damaged line counts in one sweep (and runs with the
    /// cache off read 0). Non-zero means the on-disk cache was damaged
    /// and some hits degraded to re-executions.
    pub cache_skipped: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time for the whole sweep.
    pub wall: Duration,
    by_spec: HashMap<JobSpec, usize>,
}

impl SweepResult {
    /// The stats of the record matching `spec`, if it succeeded.
    pub fn stats(&self, spec: &JobSpec) -> Option<&Stats> {
        self.by_spec.get(spec).map(|&i| &self.records[i].stats)
    }

    /// Like [`stats`](SweepResult::stats) but panics with a diagnostic —
    /// the figure binaries treat a missing result as fatal.
    ///
    /// # Panics
    ///
    /// Panics if the job is absent or failed.
    pub fn require(&self, spec: &JobSpec) -> &Stats {
        self.stats(spec).unwrap_or_else(|| {
            panic!(
                "no successful result for job {spec:?} in sweep {:?} \
                 ({} records, {} failures)",
                self.name,
                self.records.len(),
                self.failures.len()
            )
        })
    }

    /// Whether every job produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Additive aggregate of every successful record's stats
    /// (via [`Stats::merge`]).
    pub fn aggregate(&self) -> Stats {
        let mut total = Stats::default();
        for r in &self.records {
            total.merge(&r.stats);
        }
        total
    }

    /// Assembles a result from already-materialized records — the path
    /// `senss-bench` takes when a sweep was executed remotely by
    /// `senss-serve`. Records are re-sorted by job index and the
    /// executed/cached split is recomputed from each record's
    /// provenance flag; the failure list is empty (a remote sweep with
    /// failures is reported through the serve protocol instead).
    pub fn from_records(
        name: impl Into<String>,
        mut records: Vec<RunRecord>,
        workers: usize,
        wall: Duration,
    ) -> SweepResult {
        records.sort_by_key(|r| r.index);
        let cached = records.iter().filter(|r| r.cached).count();
        let executed = records.len() - cached;
        let by_spec = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.spec, i))
            .collect();
        SweepResult {
            name: name.into(),
            records,
            failures: Vec::new(),
            executed,
            cached,
            forked: 0,
            cache_skipped: 0,
            workers,
            wall,
            by_spec,
        }
    }

    /// One-line human summary (the binaries print this to stderr).
    pub fn summary(&self) -> String {
        let forked = if self.forked > 0 {
            format!(" ({} warm-forked)", self.forked)
        } else {
            String::new()
        };
        format!(
            "harness[{}]: {} executed{forked}, {} cached, {} failed on {} worker{} in {:.2?}",
            self.name,
            self.executed,
            self.cached,
            self.failures.len(),
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.wall
        )
    }
}

enum WorkerMsg {
    Done {
        index: usize,
        stats: Stats,
        wall_micros: u64,
        worker: usize,
        forked: bool,
    },
    Failed(JobFailure),
}

/// A unit of work on the dispatch queue: either one job, or a
/// warm-start fork group (indices sorted by ascending ops-per-core)
/// whose members share a simulated prefix.
enum WorkItem {
    Single(usize),
    Group(Vec<usize>),
}

/// The sweep executor.
#[derive(Debug)]
pub struct Harness {
    cfg: HarnessConfig,
    /// The result cache, opened by the first sweep and refreshed by
    /// every later one.
    cache: Mutex<Option<ResultCache>>,
}

impl Harness {
    /// An executor with an explicit configuration.
    pub fn new(cfg: HarnessConfig) -> Harness {
        Harness {
            cfg,
            cache: Mutex::new(None),
        }
    }

    /// The resident cache; a panicking holder cannot leave it unsound.
    fn cache(&self) -> MutexGuard<'_, Option<ResultCache>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An executor configured from the environment
    /// ([`HarnessConfig::from_env`]).
    pub fn from_env() -> Harness {
        Harness::new(HarnessConfig::from_env())
    }

    /// Runs the sweep with the production runner ([`JobSpec::run`]).
    pub fn run(&self, sweep: &SweepSpec) -> std::io::Result<SweepResult> {
        self.run_observed(sweep, |_| {})
    }

    /// Like [`run`](Harness::run), but invokes `on_record` once per
    /// completed [`RunRecord`] — cache hits included — as each becomes
    /// available, before the sweep as a whole finishes.
    ///
    /// Records are observed in **completion order**, not sweep order
    /// (the returned [`SweepResult`] is still index-ordered as always);
    /// each carries its [`RunRecord::index`], so observers that need
    /// ordering can slot records by index. `senss-serve` uses this to
    /// stream result lines to clients while the sweep is still
    /// running. The callback runs on the collector thread; keep it
    /// short or the sweep stalls.
    pub fn run_observed(
        &self,
        sweep: &SweepSpec,
        on_record: impl Fn(&RunRecord) + Sync,
    ) -> std::io::Result<SweepResult> {
        self.run_rich(sweep, JobSpec::run, self.cfg.warm_start, &on_record)
    }

    /// Runs the sweep with a caller-supplied job runner. Used by the
    /// fault-injection tests; the runner must be deterministic for the
    /// cache to be meaningful. Warm-start forking is disabled (the
    /// executor cannot fork what an arbitrary runner computes).
    pub fn run_with<F>(&self, sweep: &SweepSpec, runner: F) -> std::io::Result<SweepResult>
    where
        F: Fn(&JobSpec) -> Stats + Sync,
    {
        self.run_with_observed(sweep, runner, |_| {})
    }

    /// [`run_with`](Harness::run_with) plus the per-record observer of
    /// [`run_observed`](Harness::run_observed).
    pub fn run_with_observed<F>(
        &self,
        sweep: &SweepSpec,
        runner: F,
        on_record: impl Fn(&RunRecord) + Sync,
    ) -> std::io::Result<SweepResult>
    where
        F: Fn(&JobSpec) -> Stats + Sync,
    {
        self.run_rich(sweep, runner, false, &on_record)
    }

    fn run_rich<F>(
        &self,
        sweep: &SweepSpec,
        runner: F,
        warm_start: bool,
        on_record: &(dyn Fn(&RunRecord) + Sync),
    ) -> std::io::Result<SweepResult>
    where
        F: Fn(&JobSpec) -> Stats + Sync,
    {
        let started = Instant::now();
        let mut cache = self.cache();
        let cache_skipped = match (&mut *cache, &self.cfg.cache_dir) {
            (Some(resident), _) => resident.refresh()?,
            (None, Some(dir)) => {
                let opened = ResultCache::open(dir)?;
                let skipped = opened.skipped();
                *cache = Some(opened);
                skipped
            }
            (None, None) => 0,
        };

        // Partition into cache hits and jobs that must execute.
        let keys: Vec<String> = sweep.jobs.iter().map(JobSpec::cache_key).collect();
        let mut slots: Vec<Option<RunRecord>> = Vec::with_capacity(sweep.jobs.len());
        let mut pending: VecDeque<usize> = VecDeque::new();
        for (index, spec) in sweep.jobs.iter().enumerate() {
            let hit = cache.as_ref().and_then(|c| c.get(&keys[index]));
            match hit {
                Some(stats) => {
                    let record = RunRecord {
                        index,
                        spec: *spec,
                        key: keys[index].clone(),
                        stats: stats.clone(),
                        wall_micros: 0,
                        worker: None,
                        attempts: 0,
                        cached: true,
                    };
                    on_record(&record);
                    slots.push(Some(record));
                }
                None => {
                    slots.push(None);
                    pending.push_back(index);
                }
            }
        }
        drop(cache);
        let cached = sweep.jobs.len() - pending.len();
        let to_execute = pending.len();

        let mut failures: Vec<JobFailure> = Vec::new();
        let mut forked = 0usize;
        if !pending.is_empty() {
            let items = if warm_start {
                plan_fork_groups(&sweep.jobs, &pending)
            } else {
                pending.into_iter().map(WorkItem::Single).collect()
            };
            let workers = self.cfg.workers.max(1).min(items.len());
            let queue = Mutex::new(items);
            let (tx, rx) = mpsc::channel::<WorkerMsg>();
            let jobs = &sweep.jobs;
            let cfg = &self.cfg;
            let runner = &runner;
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    let tx = tx.clone();
                    let queue = &queue;
                    scope.spawn(move || {
                        loop {
                            // Recover the queue even if a sibling worker
                            // panicked while holding the lock: the items
                            // inside are still sound, and abandoning them
                            // would silently truncate the sweep.
                            let item = match queue
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .pop_front()
                            {
                                Some(i) => i,
                                None => break,
                            };
                            let msgs = match item {
                                WorkItem::Single(index) => {
                                    vec![run_one(cfg, runner, &jobs[index], index, worker)]
                                }
                                WorkItem::Group(indices) => {
                                    run_fork_group(cfg, runner, jobs, &indices, worker)
                                }
                            };
                            if msgs.into_iter().any(|m| tx.send(m).is_err()) {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                // Collect on the main thread, which is also the only
                // cache writer.
                for msg in rx {
                    match msg {
                        WorkerMsg::Done {
                            index,
                            stats,
                            wall_micros,
                            worker,
                            forked: was_forked,
                        } => {
                            forked += was_forked as usize;
                            if let Some(c) = self.cache().as_mut() {
                                // Append errors are demoted to warnings:
                                // losing a cache entry never loses a run.
                                if let Err(e) = c.put(&keys[index], &stats) {
                                    eprintln!("harness: cache write failed: {e}");
                                }
                            }
                            let record = RunRecord {
                                index,
                                spec: jobs[index],
                                key: keys[index].clone(),
                                stats,
                                wall_micros,
                                worker: Some(worker),
                                attempts: 1,
                                cached: false,
                            };
                            on_record(&record);
                            slots[index] = Some(record);
                        }
                        WorkerMsg::Failed(failure) => failures.push(failure),
                    }
                }
            });
        }

        failures.sort_by_key(|f| f.index);
        let records: Vec<RunRecord> = slots.into_iter().flatten().collect();
        let by_spec = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.spec, i))
            .collect();
        let result = SweepResult {
            name: sweep.name.clone(),
            records,
            failures,
            executed: to_execute,
            cached,
            forked,
            cache_skipped,
            workers: self.cfg.workers.max(1),
            wall: started.elapsed(),
            by_spec,
        };
        self.write_records(&result)?;
        Ok(result)
    }

    fn write_records(&self, result: &SweepResult) -> std::io::Result<()> {
        let Some(dir) = &self.cfg.records_dir else {
            return Ok(());
        };
        if result.name.is_empty() {
            return Ok(());
        }
        std::fs::create_dir_all(dir)?;
        let mut out = String::new();
        for r in &result.records {
            out.push_str(&r.encode());
            out.push('\n');
        }
        std::fs::write(dir.join(format!("{}.jsonl", result.name)), out)
    }
}

/// Partitions pending job indices into warm-start fork groups.
///
/// A group is two or more jobs that are identical except for
/// `ops_per_core` — they simulate the same prefix, so one checkpoint
/// can seed them all. Everything else stays a [`WorkItem::Single`].
/// First-occurrence order is preserved so scheduling stays
/// deterministic.
fn plan_fork_groups(jobs: &[JobSpec], pending: &VecDeque<usize>) -> VecDeque<WorkItem> {
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut slot_of: HashMap<JobSpec, usize> = HashMap::new();
    for &index in pending {
        let key = JobSpec {
            ops_per_core: 0,
            ..jobs[index]
        };
        let slot = *slot_of.entry(key).or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        members[slot].push(index);
    }
    members
        .into_iter()
        .map(|mut group| {
            if group.len() < 2 {
                return WorkItem::Single(group[0]);
            }
            group.sort_by_key(|&i| (jobs[i].ops_per_core, i));
            WorkItem::Group(group)
        })
        .collect()
}

/// Executes a warm-start fork group, falling back to individual cold
/// runs if the prefix-sharing assumption does not hold (non-prefix
/// trace generator, too-short runs, or a panic).
fn run_fork_group<F>(
    cfg: &HarnessConfig,
    runner: &F,
    jobs: &[JobSpec],
    indices: &[usize],
    worker: usize,
) -> Vec<WorkerMsg>
where
    F: Fn(&JobSpec) -> Stats + Sync,
{
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| warm_start_group(jobs, indices)))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload.as_ref()))));
    let results = match outcome {
        Ok(results) => results,
        Err(reason) => {
            eprintln!("harness: warm-start fork unavailable ({reason}); running group cold");
            return indices
                .iter()
                .map(|&i| run_one(cfg, runner, &jobs[i], i, worker))
                .collect();
        }
    };
    let wall_micros = started.elapsed().as_micros() as u64;
    results
        .into_iter()
        .map(|(index, stats, forked)| {
            let ran = Ok((stats, wall_micros, forked));
            finished(cfg, &jobs[index], index, worker, ran)
        })
        .collect()
}

/// Runs a fork group: the shortest member cold (to learn how long the
/// shared prefix safely is), the longest member cold with a checkpoint
/// captured mid-prefix, and every other member by forking that
/// checkpoint onto its own (longer-or-equal) traces.
///
/// Returns `(index, stats, was_forked)` per member. Errors mean the
/// group must fall back to cold runs; determinism guarantees the
/// fallback produces the same stats.
fn warm_start_group(
    jobs: &[JobSpec],
    indices: &[usize],
) -> Result<Vec<(usize, Stats, bool)>, String> {
    let shortest = &jobs[indices[0]];
    let short_stats = shortest.build_system().run();
    // No core may run dry before the fork point in ANY member, and
    // every member has at least as many ops as the shortest, so any
    // cycle strictly before the shortest run's first core finish is a
    // shared prefix. 3/4 of it amortizes most of the win while keeping
    // a safety margin.
    let f_min = short_stats
        .core_finish_times
        .iter()
        .copied()
        .min()
        .unwrap_or(0);
    let fork_at = f_min.saturating_mul(3) / 4;
    let mut out = vec![(indices[0], short_stats, false)];
    if fork_at == 0 {
        return Err("prefix too short to fork".into());
    }
    let last = *indices.last().expect("groups have >= 2 members");
    let mut sys = jobs[last].build_system();
    sys.run_until(fork_at);
    let snap = Snapshot::capture(&sys, fork_at);
    out.push((last, sys.finish(), false));
    for &index in &indices[1..indices.len() - 1] {
        let mut fork = snap.clone();
        fork.replace_traces(jobs[index].traces())
            .map_err(|e| format!("job {index}: {e}"))?;
        let stats = fork.restore(jobs[index].build_extension()).finish();
        out.push((index, stats, true));
    }
    Ok(out)
}

fn run_one<F>(
    cfg: &HarnessConfig,
    runner: &F,
    spec: &JobSpec,
    index: usize,
    worker: usize,
) -> WorkerMsg
where
    F: Fn(&JobSpec) -> Stats + Sync,
{
    let started = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| runner(spec)))
        .map(|stats| (stats, started.elapsed().as_micros() as u64, false))
        .map_err(|payload| JobError::Panicked(panic_message(payload.as_ref())));
    finished(cfg, spec, index, worker, ran)
}

/// A job's message once it ran (`Ok((stats, wall_micros, forked))`) or
/// panicked; a run over the cycle budget fails too.
fn finished(
    cfg: &HarnessConfig,
    spec: &JobSpec,
    index: usize,
    worker: usize,
    ran: Result<(Stats, u64, bool), JobError>,
) -> WorkerMsg {
    let error = match ran {
        Ok((stats, wall_micros, forked)) => match cfg.cycle_budget {
            Some(budget) if stats.total_cycles > budget => JobError::CycleBudgetExceeded {
                cycles: stats.total_cycles,
                budget,
            },
            _ => {
                return WorkerMsg::Done {
                    index,
                    stats,
                    wall_micros,
                    worker,
                    forked,
                }
            }
        },
        Err(error) => error,
    };
    WorkerMsg::Failed(JobFailure {
        index,
        spec: *spec,
        error,
        attempts: 1,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SecurityMode;
    use senss_workloads::Workload;

    #[test]
    fn from_records_rebuilds_lookup_and_provenance() {
        let base = JobSpec::new(Workload::Fft, 2, 1 << 20).with_ops(100);
        let sec = base.with_mode(SecurityMode::senss());
        let record = |index, spec: JobSpec, cached| RunRecord {
            index,
            spec,
            key: spec.cache_key(),
            stats: Stats {
                total_cycles: 10 + index as u64,
                ..Stats::default()
            },
            wall_micros: 0,
            worker: None,
            attempts: 0,
            cached,
        };
        // Out of order on purpose: from_records must re-sort by index.
        let result = SweepResult::from_records(
            "remote",
            vec![record(1, sec, true), record(0, base, false)],
            0,
            Duration::from_millis(5),
        );
        assert_eq!(result.records[0].spec, base);
        assert_eq!(result.executed, 1);
        assert_eq!(result.cached, 1);
        assert!(result.is_complete());
        assert_eq!(result.require(&sec).total_cycles, 11);
        assert!(result.stats(&base.with_seed(99)).is_none());
    }
    #[test]
    fn from_lookup_parses_valid_values() {
        let cfg = HarnessConfig::from_lookup(|key| match key {
            "HARNESS_WORKERS" => Some("3".to_string()),
            "HARNESS_CYCLE_BUDGET" => Some("123456".to_string()),
            _ => None,
        });
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.cycle_budget, Some(123_456));
        assert!(cfg.cache_dir.is_some());

        let no_cache =
            HarnessConfig::from_lookup(|key| (key == "HARNESS_NO_CACHE").then(|| "1".to_string()));
        assert_eq!(no_cache.cycle_budget, None);
        assert!(no_cache.cache_dir.is_none());
    }

    #[test]
    #[should_panic(expected = "HARNESS_CYCLE_BUDGET")]
    fn malformed_cycle_budget_fails_loudly() {
        // Regression: `HARNESS_CYCLE_BUDGET=abc` used to parse to `None`,
        // silently running the sweep with no budget at all.
        HarnessConfig::from_lookup(|key| {
            (key == "HARNESS_CYCLE_BUDGET").then(|| "abc".to_string())
        });
    }

    #[test]
    #[should_panic(expected = "HARNESS_WORKERS")]
    fn malformed_worker_count_fails_loudly() {
        HarnessConfig::from_lookup(|key| (key == "HARNESS_WORKERS").then(|| "-2".to_string()));
    }

    #[test]
    fn snapshot_knobs_parse_from_lookup() {
        let cfg = HarnessConfig::from_lookup(|key| {
            (key == "HARNESS_WARM_START").then(|| "1".to_string())
        });
        assert!(cfg.warm_start);
        let off = HarnessConfig::from_lookup(|key| {
            (key == "HARNESS_WARM_START").then(|| "0".to_string())
        });
        assert!(!off.warm_start);
    }

    fn ops_sweep(ops: &[usize]) -> SweepSpec {
        let mut sweep = SweepSpec::new("");
        for &n in ops {
            sweep.push(
                JobSpec::new(Workload::Fft, 2, 1 << 20)
                    .with_mode(SecurityMode::senss())
                    .with_ops(n),
            );
        }
        sweep
    }

    #[test]
    fn warm_start_matches_cold_runs_bit_for_bit() {
        let sweep = ops_sweep(&[400, 700, 1_000, 1_300]);
        let cold = Harness::new(HarnessConfig::hermetic()).run(&sweep).unwrap();
        let warm = Harness::new(HarnessConfig::hermetic().with_warm_start(true))
            .run(&sweep)
            .unwrap();
        assert!(cold.is_complete() && warm.is_complete());
        assert!(
            warm.forked >= 2,
            "middle points must be forked, got {}",
            warm.forked
        );
        assert_eq!(cold.forked, 0);
        for job in &sweep.jobs {
            assert_eq!(cold.require(job), warm.require(job), "{job:?}");
        }
    }

    #[test]
    fn observed_records_match_the_returned_sweep() {
        use std::sync::Mutex;
        let sweep = ops_sweep(&[400, 700, 1_000]);
        let seen: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let result = Harness::new(HarnessConfig::hermetic())
            .run_observed(&sweep, |r| {
                seen.lock().unwrap().push((r.index, r.key.clone()));
            })
            .unwrap();
        assert!(result.is_complete());
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        let expect: Vec<(usize, String)> = result
            .records
            .iter()
            .map(|r| (r.index, r.key.clone()))
            .collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn warm_start_leaves_singletons_alone() {
        let mut sweep = ops_sweep(&[400]);
        sweep.push(JobSpec::new(Workload::Lu, 2, 1 << 20).with_ops(400));
        let result = Harness::new(HarnessConfig::hermetic().with_warm_start(true))
            .run(&sweep)
            .unwrap();
        assert!(result.is_complete());
        assert_eq!(result.forked, 0);
    }
}
