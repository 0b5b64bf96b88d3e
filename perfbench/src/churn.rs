//! `harness-churn`: many tiny jobs (2–4 processors, a few hundred
//! operations, many seeds) plus ops-per-core ladders that warm-start
//! fork, run through a `Harness` with an on-disk cache and run records
//! in a fresh scratch directory. Each round fills the cache cold (the
//! write path) and then re-runs the same sweep entirely from cache (the
//! read path). Simulation is small, so per-job executor overhead —
//! cache keys, cache open and appends, record writes, snapshot forks —
//! dominates.

use crate::figure::{check_trace, modes, SETUPS};
use crate::report::{median, ms, Report};
use crate::{local_trace, Ctx, Rng};
use senss_harness::{Harness, HarnessConfig, JobSpec, ResultCache, SecurityMode, SweepSpec};
use senss_workloads::Workload;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Operations per core of a tiny job.
const TINY_OPS: usize = 300;
/// Rungs of an ops-per-core ladder (a warm-start fork group).
const LADDER: [usize; 3] = [400, 800, 1_600];
const CORES: [usize; 2] = [2, 4];
const TINY_SEEDS: u64 = 8;
const LADDER_SEEDS: [u64; 2] = [100, 101];
/// Tiny jobs and ladders per round.
const TINY_PER_ROUND: usize = 96;
const LADDERS_PER_ROUND: usize = 4;
/// Tiny jobs the set-up sweep runs to create the cache and record files.
const SETUP_JOBS: usize = 8;
const L2: usize = 1 << 20;

fn tiny_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for w in Workload::all() {
        for cores in CORES {
            for mode in modes() {
                for seed in 0..TINY_SEEDS {
                    jobs.push(
                        JobSpec::new(w, cores, L2)
                            .with_mode(mode)
                            .with_ops(TINY_OPS)
                            .with_seed(seed),
                    );
                }
            }
        }
    }
    jobs
}

/// Fork groups: jobs identical except for ops per core.
fn ladders() -> Vec<Vec<JobSpec>> {
    let mut groups = Vec::new();
    for w in Workload::all() {
        for cores in CORES {
            for mode in [SecurityMode::Baseline, SecurityMode::senss()] {
                for seed in LADDER_SEEDS {
                    let base = JobSpec::new(w, cores, L2).with_mode(mode).with_seed(seed);
                    groups.push(LADDER.iter().map(|&ops| base.with_ops(ops)).collect());
                }
            }
        }
    }
    groups
}

/// Every job this workload can run.
pub fn pool() -> Vec<JobSpec> {
    let mut jobs = tiny_jobs();
    jobs.extend(ladders().into_iter().flatten());
    jobs
}

/// One round's sweep, drawn from the pool by `rng`.
fn round_sweep(rng: &mut Rng, tiny: &[JobSpec], ladders: &[Vec<JobSpec>]) -> SweepSpec {
    let mut picks: Vec<usize> = (0..tiny.len()).collect();
    rng.shuffle(&mut picks);
    let mut jobs: Vec<JobSpec> = picks[..TINY_PER_ROUND].iter().map(|&i| tiny[i]).collect();
    let mut groups: Vec<usize> = (0..ladders.len()).collect();
    rng.shuffle(&mut groups);
    for &g in &groups[..LADDERS_PER_ROUND] {
        jobs.extend(&ladders[g]);
    }
    rng.shuffle(&mut jobs);
    let mut sweep = SweepSpec::new("harness-churn");
    sweep.jobs = jobs;
    sweep
}

fn harness_in(dir: &Path) -> Harness {
    Harness::new(
        HarnessConfig::hermetic()
            .with_workers(2)
            .with_cache_dir(dir.join("cache"))
            .with_records_dir(dir.join("records"))
            .with_warm_start(true),
    )
}

/// Runs the workload; returns the distinct jobs of the last round.
pub fn run(ctx: &Ctx, report: &mut Report) -> Vec<JobSpec> {
    let tiny = tiny_jobs();
    let ladders = ladders();
    // Set-up: create a scratch cache directory and its first cache and
    // record files.
    let mut setups = Vec::new();
    for n in 0..SETUPS {
        let dir = ctx.tmp.join(format!("setup-{n}"));
        let t = Instant::now();
        let made = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut first = SweepSpec::new("setup");
            first.jobs = tiny[n * SETUP_JOBS..(n + 1) * SETUP_JOBS].to_vec();
            harness_in(&dir).run(&first).map(|_| ())
        });
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = made {
            report.fail(format!("set-up failed: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    report.set("setup_s", median(&setups), "s");

    let mut rng = Rng::new(ctx.seed, 2);
    let mut latencies = Vec::new();
    let mut trace_latencies = Vec::new();
    let (mut job_rates, mut event_rates) = (Vec::new(), Vec::new());
    let (mut jobs, mut busy) = (0u64, 0.0f64);
    let (mut executed, mut cached, mut forked) = (0u64, 0u64, 0u64);
    let mut hit_us = 0.0f64;
    let (mut open_ms, mut entries) = (Vec::new(), 0usize);
    let mut last = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed() < ctx.loop_window() {
        let dir = ctx.tmp.join(format!("round-{round}"));
        round += 1;
        let sweep = round_sweep(&mut rng, &tiny, &ladders);
        let harness = harness_in(&dir);
        let (mut round_jobs, mut round_events, mut round_wall) = (0u64, 0u64, 0.0f64);
        for pass in ["cold", "hit"] {
            let done = Mutex::new(Vec::with_capacity(sweep.len()));
            let t0 = Instant::now();
            let result =
                harness.run_observed(&sweep, |_| done.lock().unwrap().push(ms(t0.elapsed())));
            let wall = t0.elapsed().as_secs_f64();
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    report.fail(format!("{pass} sweep failed: {e}"));
                    continue;
                }
            };
            round_wall += wall;
            latencies.extend(done.into_inner().unwrap());
            for f in &result.failures {
                report.fail(format!("job {} failed: {}", f.index, f.error));
            }
            for rec in &result.records {
                round_jobs += 1;
                if let Some(n) = ctx.expected.check(report, &rec.spec, &rec.stats) {
                    round_events += n;
                }
            }
            if pass == "cold" {
                executed += result.executed as u64;
                forked += result.forked as u64;
                let t = Instant::now();
                match ResultCache::open(&dir.join("cache")) {
                    Ok(c) => entries = c.len(),
                    Err(e) => report.fail(format!("cache open failed: {e}")),
                }
                open_ms.push(ms(t.elapsed()));
            } else {
                cached += result.cached as u64;
                hit_us += wall * 1e6;
                if result.cached != sweep.len() {
                    report.fail(format!(
                        "re-run served {} of {} jobs from cache",
                        result.cached,
                        sweep.len()
                    ));
                }
            }
        }
        jobs += round_jobs;
        busy += round_wall;
        job_rates.push(round_jobs as f64 / round_wall);
        event_rates.push(round_events as f64 / round_wall);
        // One local re-trace per round, always of a ladder's top rung, so
        // every run traces the same kind of job.
        if let Some(job) = sweep
            .jobs
            .iter()
            .find(|j| j.ops_per_core == LADDER[LADDER.len() - 1])
        {
            let t = Instant::now();
            let (stats, derived) = local_trace(job);
            trace_latencies.push(ms(t.elapsed()));
            check_trace(ctx, report, job, &stats, &derived);
        }
        let _ = std::fs::remove_dir_all(&dir);
        last = sweep.jobs;
    }
    // Medians over rounds, as on figure-cold.
    report.set("jobs_per_s", median(&job_rates), "1/s");
    report.set("events_per_s", median(&event_rates), "1/s");
    report.percentiles("sweep_latency", &latencies, &[50, 90]);
    report.percentiles("trace_latency", &trace_latencies, &[50, 90]);
    report.notes.push(format!(
        "{round} rounds, {jobs} jobs cold + all-hit in {busy:.2} s"
    ));
    if ctx.traced {
        report.set("harness.jobs_executed", executed as f64, "count");
        report.set("harness.jobs_cached", cached as f64, "count");
        report.set("harness.jobs_forked", forked as f64, "count");
        report.set(
            "harness.fork_ratio",
            forked as f64 / executed.max(1) as f64,
            "ratio",
        );
        // No `harness.cold_overhead_us_per_job` here: the records of a
        // warm-start fork group each count the shared prefix, so their
        // wall times overlap and sweep wall × workers − Σ walls goes
        // negative. The harness probe measures it without forks.
        report.set(
            "harness.hit_us_per_job",
            hit_us / cached.max(1) as f64,
            "us",
        );
        report.set("harness.cache_open_ms", median(&open_ms), "ms");
        report.set("harness.cache_entries", entries as f64, "count");
    }
    last
}
