//! Integration tests for the sweep executor: determinism across worker
//! counts, per-job panic isolation, retry, cycle budgets, and the
//! content-addressed cache.

use senss_harness::{Harness, HarnessConfig, JobError, JobSpec, SecurityMode, SweepSpec};
use senss_sim::Stats;
use senss_workloads::Workload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn small_sweep(name: &str) -> SweepSpec {
    let mut sweep = SweepSpec::new(name);
    sweep.grid(
        &[Workload::Fft, Workload::Lu, Workload::Radix],
        &[2, 4],
        &[1 << 20],
        &[SecurityMode::Baseline, SecurityMode::senss()],
        500,
        7,
    );
    sweep
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("senss-harness-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic runner whose output depends only on the spec, so results
/// are comparable across worker counts without simulator cost.
fn synthetic(spec: &JobSpec) -> Stats {
    Stats {
        total_cycles: spec.seed * 1000 + spec.cores as u64,
        ops_executed: spec.ops_per_core as u64,
        ..Stats::default()
    }
}

#[test]
fn a_servas_job_never_reads_a_cached_senss_cbc_result() {
    // Regression for the senss-backends rollout: the mode tag is part
    // of the canonical form, so a SERVAS job with an otherwise
    // identical shape must miss the cache entry a SENSS-CBC run wrote
    // (and vice versa for every other backend pair).
    let dir = tmp_dir("backend-cache-isolation");
    let shape = JobSpec::new(Workload::Fft, 2, 1 << 20).with_ops(400);
    let senss_job = shape.with_mode(SecurityMode::senss());
    let servas_job = shape.with_mode(SecurityMode::servas());
    assert_ne!(senss_job.cache_key(), servas_job.cache_key());

    let cfg = HarnessConfig::hermetic().with_cache_dir(&dir);
    let mut warm = SweepSpec::new("senss-cbc");
    warm.push(senss_job);
    let first = Harness::new(cfg.clone()).run(&warm).unwrap();
    assert_eq!(first.cached, 0);

    // The SENSS entry is hot now — but the SERVAS job must still run.
    let mut cross = SweepSpec::new("servas");
    cross.push(servas_job);
    let second = Harness::new(cfg.clone()).run(&cross).unwrap();
    assert_eq!(second.cached, 0, "SERVAS read a SENSS-CBC cache line");
    assert_ne!(
        first.records[0].stats, second.records[0].stats,
        "the two modes simulate differently, so a silent hit would corrupt figures"
    );

    // Each mode does hit its *own* entry on re-run, and the record
    // codec round-trips the backend spec it was keyed under.
    for (sweep, job) in [(&warm, senss_job), (&cross, servas_job)] {
        let rerun = Harness::new(cfg.clone()).run(sweep).unwrap();
        assert_eq!(rerun.cached, 1);
        assert_eq!(rerun.records[0].spec, job);
        let line = rerun.records[0].encode();
        let parsed = senss_harness::json::parse(&line).unwrap();
        let decoded = senss_harness::RunRecord::decode(&parsed).unwrap();
        assert_eq!(decoded.spec, job);
        assert!(decoded.cached);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_worker_and_many_workers_agree_exactly() {
    let sweep = small_sweep("det");
    let serial = Harness::new(HarnessConfig::hermetic()).run(&sweep).unwrap();
    let parallel = Harness::new(HarnessConfig::hermetic().with_workers(4))
        .run(&sweep)
        .unwrap();
    assert!(serial.is_complete() && parallel.is_complete());
    assert_eq!(serial.records.len(), sweep.len());
    // Identical specs, order and stats — worker count must be invisible.
    for (a, b) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.key, b.key);
        assert_eq!(a.stats, b.stats);
    }
    // Records come back in sweep order.
    for (i, r) in parallel.records.iter().enumerate() {
        assert_eq!(r.index, i);
        assert_eq!(r.spec, sweep.jobs[i]);
    }
}

#[test]
fn a_panicking_job_fails_alone() {
    let mut sweep = SweepSpec::new("panic");
    sweep.grid(
        &[Workload::Fft, Workload::Barnes, Workload::Ocean],
        &[2],
        &[1 << 20],
        &[SecurityMode::Baseline],
        100,
        1,
    );
    let poison = sweep.jobs[1];
    let poison_calls = AtomicUsize::new(0);
    let result = Harness::new(HarnessConfig::hermetic().with_workers(3))
        .run_with(&sweep, |spec| {
            if *spec == poison {
                poison_calls.fetch_add(1, Ordering::SeqCst);
                panic!("injected failure");
            }
            synthetic(spec)
        })
        .unwrap();
    // The poisoned job is the only casualty, and it ran exactly once:
    // jobs are deterministic, so a panic is reported, not retried.
    assert_eq!(poison_calls.load(Ordering::SeqCst), 1);
    assert_eq!(result.failures.len(), 1);
    assert_eq!(result.failures[0].spec, poison);
    assert!(matches!(
        &result.failures[0].error,
        JobError::Panicked(msg) if msg.contains("injected failure")
    ));
    assert_eq!(result.records.len(), sweep.len() - 1);
    assert!(result.stats(&poison).is_none());
    assert!(result.stats(&sweep.jobs[0]).is_some());
    assert!(result.stats(&sweep.jobs[2]).is_some());
}

/// A job the simulator cannot build fails as itself, before any runner
/// sees it (its cache key needs the configuration it lacks); the rest
/// of the sweep runs, with the cache on and warm-start forking too.
#[test]
fn unbuildable_jobs_fail_alone_without_running() {
    let dir = tmp_dir("unbuildable");
    let mut sweep = small_sweep("unbuildable");
    let bad_l2 = JobSpec::new(Workload::Fft, 2, 3 << 20).with_ops(100);
    let no_cores = JobSpec::new(Workload::Lu, 0, 1 << 20).with_ops(100);
    sweep.push(bad_l2);
    sweep.push(no_cores);
    for warm_start in [false, true] {
        let cfg = HarnessConfig::hermetic()
            .with_cache_dir(&dir)
            .with_warm_start(warm_start);
        let result = Harness::new(cfg)
            .run(&sweep)
            .expect("the run itself succeeds");
        let failed: Vec<_> = result
            .failures
            .iter()
            .map(|f| (f.spec, f.error.clone()))
            .collect();
        assert_eq!(
            failed,
            [
                (
                    bad_l2,
                    JobError::Invalid("L2 size must be a power of two >= 64KB")
                ),
                (no_cores, JobError::Invalid("need at least one processor")),
            ]
        );
        assert_eq!(result.records.len(), sweep.len() - 2);
        assert_eq!(result.executed + result.cached, sweep.len() - 2);
    }
    let calls = AtomicUsize::new(0);
    let result = Harness::new(HarnessConfig::hermetic())
        .run_with(&sweep, |spec| {
            calls.fetch_add(1, Ordering::SeqCst);
            synthetic(spec)
        })
        .unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), sweep.len() - 2);
    assert_eq!(result.failures.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cycle_budget_violations_fail_without_retry() {
    let mut sweep = SweepSpec::new("budget");
    sweep.push(JobSpec::new(Workload::Fft, 2, 1 << 20).with_seed(5));
    sweep.push(JobSpec::new(Workload::Fft, 2, 1 << 20).with_seed(1));
    let calls = AtomicUsize::new(0);
    let result = Harness::new(HarnessConfig::hermetic().with_cycle_budget(2_000))
        .run_with(&sweep, |spec| {
            calls.fetch_add(1, Ordering::SeqCst);
            synthetic(spec) // seed 5 ⇒ 5002 cycles > budget; seed 1 ⇒ 1002 ok
        })
        .unwrap();
    assert_eq!(result.records.len(), 1);
    assert_eq!(result.failures.len(), 1);
    assert_eq!(
        result.failures[0].error,
        JobError::CycleBudgetExceeded {
            cycles: 5_002,
            budget: 2_000
        }
    );
    // One call per job: the overrun is reported, not retried.
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}

#[test]
fn warm_cache_executes_zero_jobs() {
    let dir = tmp_dir("warm");
    let sweep = small_sweep("cache");
    let cfg = HarnessConfig::hermetic().with_cache_dir(&dir);
    let cold = Harness::new(cfg.clone()).run(&sweep).unwrap();
    assert_eq!(cold.executed, sweep.len());
    assert_eq!(cold.cached, 0);

    let warm = Harness::new(cfg.clone()).run(&sweep).unwrap();
    assert_eq!(warm.executed, 0, "second run must execute nothing");
    assert_eq!(warm.cached, sweep.len());
    for (a, b) in cold.records.iter().zip(&warm.records) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.stats, b.stats);
        assert!(b.cached);
        assert_eq!(b.worker, None);
    }

    // A changed config is a cache miss; the unchanged jobs still hit.
    let mut extended = sweep.clone();
    extended.push(
        JobSpec::new(Workload::Ocean, 2, 1 << 20)
            .with_ops(500)
            .with_seed(99),
    );
    let mixed = Harness::new(cfg).run(&extended).unwrap();
    assert_eq!(mixed.executed, 1);
    assert_eq!(mixed.cached, sweep.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_harness_keeps_its_cache_across_sweeps() {
    // The cache is opened by the first sweep and kept: the second run
    // of the same harness is all hits, and each executed job appended
    // exactly one line.
    let dir = tmp_dir("resident");
    let sweep = small_sweep("resident");
    let harness = Harness::new(HarnessConfig::hermetic().with_cache_dir(&dir));
    let cold = harness.run_with(&sweep, synthetic).unwrap();
    assert_eq!(cold.executed, sweep.len());
    let warm = harness.run_with(&sweep, synthetic).unwrap();
    assert_eq!(warm.executed, 0, "second run must execute nothing");
    assert_eq!(warm.cached, sweep.len());
    assert!(warm.records.iter().all(|r| r.cached));
    let text = std::fs::read_to_string(dir.join(senss_harness::cache::CACHE_FILE)).unwrap();
    assert_eq!(text.lines().count(), cold.executed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_resident_cache_sees_what_another_harness_cached() {
    // Two harnesses sharing a cache directory, as cluster workers do:
    // each keeps its cache open, yet a job the other executed is a hit.
    let dir = tmp_dir("shared");
    let cfg = HarnessConfig::hermetic().with_cache_dir(&dir);
    let (first, second) = (Harness::new(cfg.clone()), Harness::new(cfg));
    let mut warm_up = SweepSpec::new("warm-up");
    warm_up.push(JobSpec::new(Workload::Fft, 2, 1 << 20).with_ops(100));
    first.run_with(&warm_up, synthetic).unwrap();
    let sweep = small_sweep("shared");
    assert_eq!(
        second.run_with(&sweep, synthetic).unwrap().executed,
        sweep.len()
    );
    let result = first.run_with(&sweep, synthetic).unwrap();
    assert_eq!(
        result.executed, 0,
        "the other harness's entries must be hits"
    );
    assert_eq!(result.cache_skipped, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_records_are_written_as_jsonl() {
    let dir = tmp_dir("records");
    let mut sweep = SweepSpec::new("records_sweep");
    sweep.push(JobSpec::new(Workload::Fft, 2, 1 << 20));
    sweep.push(JobSpec::new(Workload::Lu, 2, 1 << 20));
    let result = Harness::new(HarnessConfig::hermetic().with_records_dir(&dir))
        .run_with(&sweep, synthetic)
        .unwrap();
    assert!(result.is_complete());
    let text = std::fs::read_to_string(dir.join("records_sweep.jsonl")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    for (i, line) in lines.iter().enumerate() {
        let v = senss_harness::json::parse(line).unwrap();
        assert_eq!(v.get("index").unwrap().as_u64(), Some(i as u64));
        assert_eq!(
            v.get("cached"),
            Some(&senss_harness::json::Value::Bool(false))
        );
        assert!(v.get("stats").unwrap().get("total_cycles").is_some());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn aggregate_merges_all_records() {
    let mut sweep = SweepSpec::new("agg");
    sweep.push(JobSpec::new(Workload::Fft, 2, 1 << 20).with_seed(1));
    sweep.push(JobSpec::new(Workload::Fft, 2, 1 << 20).with_seed(2));
    let result = Harness::new(HarnessConfig::hermetic())
        .run_with(&sweep, synthetic)
        .unwrap();
    let total = result.aggregate();
    assert_eq!(total.ops_executed, 2 * 10_000);
    assert_eq!(total.total_cycles, 2_002); // max, not sum
}
