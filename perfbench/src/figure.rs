//! `figure-cold`: the full figure grid, one cold `Harness::run` at a
//! time — cache, records and warm start off, two workers. Host time is
//! almost all `System::run` plus extension hooks, so simulator, crypto
//! and backend changes show here and harness or serve changes do not.
//!
//! After each grid the workload re-traces its thirty 4-processor jobs
//! locally (ring sink + fold), the path a `trace` request takes, so
//! trace latency has samples on every workload.

use crate::report::{median, ms, Report};
use crate::{local_trace, Ctx};
use senss_harness::{Harness, HarnessConfig, JobSpec, SecurityMode, SweepSpec};
use senss_workloads::Workload;
use std::sync::Mutex;
use std::time::Instant;

/// Operations per core: the harness's standard figure-job scale.
pub const OPS: usize = 2_000;
/// Processor counts of the grid.
pub const CORES: [usize; 3] = [4, 16, 32];
/// Workload-generator seeds; `--seed` picks where a run starts in this
/// list, so every grid a run can execute has committed outputs.
pub const SEEDS: [u64; 4] = [11, 12, 13, 14];

const L2: usize = 1 << 20;
/// Set-ups timed per run; the median is reported.
pub const SETUPS: usize = 9;

/// The six security modes at their reference settings, in
/// [`crate::catalog::MODES`] order.
pub fn modes() -> [SecurityMode; 6] {
    [
        SecurityMode::Baseline,
        SecurityMode::senss(),
        SecurityMode::integrated(),
        SecurityMode::servas(),
        SecurityMode::sealer(),
        SecurityMode::scattered(),
    ]
}

/// The figure grid: fft/radix/barnes/lu/ocean × 4/16/32P × six modes.
pub fn grid(seed: u64) -> SweepSpec {
    let mut sweep = SweepSpec::new("figure-cold");
    sweep.grid(&Workload::all(), &CORES, &[L2], &modes(), OPS, seed);
    sweep
}

/// Every job this workload can run.
pub fn pool() -> Vec<JobSpec> {
    SEEDS.iter().flat_map(|&s| grid(s).jobs).collect()
}

/// Runs the workload; returns the jobs of the last grid.
pub fn run(ctx: &Ctx, report: &mut Report) -> Vec<JobSpec> {
    let cfg = HarnessConfig::hermetic().with_workers(2);
    // Set-up: build the executor and the grid, and run the grid's first
    // (smallest) job so the simulator's code and allocator are warm
    // before timing.
    let mut setups = Vec::new();
    let mut harness = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let h = Harness::new(cfg.clone());
        let g = grid(SEEDS[0]);
        std::hint::black_box(g.jobs[0].run());
        setups.push(t.elapsed().as_secs_f64());
        harness = Some(h);
    }
    let harness = harness.expect("set-up ran");
    report.set("setup_s", median(&setups), "s");

    let mut latencies = Vec::new();
    let mut trace_latencies = Vec::new();
    let (mut job_rates, mut event_rates) = (Vec::new(), Vec::new());
    let (mut jobs, mut busy) = (0u64, 0.0f64);
    let (mut executed, mut overhead_us) = (0u64, 0.0f64);
    let mut last = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || start.elapsed() < ctx.loop_window() {
        let sweep = grid(SEEDS[(ctx.seed as usize + i) % SEEDS.len()]);
        i += 1;
        let done = Mutex::new(Vec::with_capacity(sweep.len()));
        let t0 = Instant::now();
        let result = harness.run_observed(&sweep, |_| done.lock().unwrap().push(ms(t0.elapsed())));
        let wall = t0.elapsed();
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("grid failed: {e}"));
                continue;
            }
        };
        busy += wall.as_secs_f64();
        latencies.extend(done.into_inner().unwrap());
        for f in &result.failures {
            report.fail(format!("job {} failed: {}", f.index, f.error));
        }
        let (mut job_us, mut events) = (0.0, 0u64);
        for rec in &result.records {
            job_us += rec.wall_micros as f64;
            if let Some(n) = ctx.expected.check(report, &rec.spec, &rec.stats) {
                events += n;
            }
        }
        jobs += result.records.len() as u64;
        job_rates.push(result.records.len() as f64 / wall.as_secs_f64());
        event_rates.push(events as f64 / wall.as_secs_f64());
        executed += result.executed as u64;
        overhead_us += wall.as_secs_f64() * 1e6 * result.workers as f64 - job_us;
        // Every 4-processor job, the same thirty each grid: with fewer
        // kinds of job the p90 would sit on the step between two of them.
        for job in sweep.jobs.iter().filter(|j| j.cores == CORES[0]) {
            let t = Instant::now();
            let (stats, derived) = local_trace(job);
            trace_latencies.push(ms(t.elapsed()));
            check_trace(ctx, report, job, &stats, &derived);
        }
        last = sweep.jobs;
    }
    // Rates are medians over grids, so a burst of host noise during one
    // grid does not move the run's figure.
    report.set("jobs_per_s", median(&job_rates), "1/s");
    report.set("events_per_s", median(&event_rates), "1/s");
    report.percentiles("sweep_latency", &latencies, &[50, 90]);
    report.percentiles("trace_latency", &trace_latencies, &[50, 90]);
    report
        .notes
        .push(format!("{i} grids, {jobs} jobs in {busy:.2} s"));
    if ctx.traced {
        report.set("harness.jobs_executed", executed as f64, "count");
        report.set("harness.jobs_cached", 0.0, "count");
        report.set("harness.jobs_forked", 0.0, "count");
        report.set("harness.fork_ratio", 0.0, "ratio");
        report.set("harness.cache_entries", 0.0, "count");
        report.set(
            "harness.cold_overhead_us_per_job",
            overhead_us / executed.max(1) as f64,
            "us",
        );
    }
    last
}

/// Checks a locally traced job: its stats match the committed outcome
/// and its derived metrics parse as the served schema.
pub fn check_trace(
    ctx: &Ctx,
    report: &mut Report,
    job: &JobSpec,
    stats: &senss_sim::Stats,
    derived: &str,
) {
    let parsed = senss_harness::json::parse(derived);
    match parsed {
        Ok(v) if crate::is_derived(&v) => {
            ctx.expected.check(report, job, stats);
        }
        _ => report.fail(format!(
            "trace of {} is not senss.trace.derived.v1",
            crate::expected::label(job)
        )),
    }
}
