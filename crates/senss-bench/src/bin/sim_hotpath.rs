//! Event-loop hot-path micro-benchmark with a machine-readable output.
//!
//! Times `System::run` — the inner loop every figure and every
//! `senss-serve` job spends its cycles in — on the fft/radix/ocean
//! traces at 4/8/16/32 processors, under the insecure baseline and under
//! SENSS-CBC (the paper's default security mode). Each configuration is
//! run several times; the per-iteration events/sec and simulated
//! cycles/sec rates are summarized as median / p10 / p90 and written as
//! JSON to `BENCH_sim.json` (see `docs/perf.md` for the schema and how
//! to compare two runs).
//!
//! ```text
//! sim_hotpath [--smoke] [--iters N] [--ops N] [--out PATH]
//!             [--sink null|ring] [--check BASELINE.json] [--tol PCT]
//! ```
//!
//! `--smoke` is the CI mode: a tiny trace and a single iteration, so the
//! binary and its JSON emission stay exercised without burning minutes.
//!
//! `--check` compares this run's median events/s against a previously
//! committed `BENCH_sim.json` and exits nonzero if any matching config
//! regressed by more than `--tol` percent (default 2). The simulator
//! compiles with the `NullSink` trace sink by default, so this guard is
//! exactly the tracing-off overhead gate: tracing instrumentation must
//! not move the hot path.
//!
//! `--sink ring` times the tracing-*on* path instead (a default-capacity
//! `RingSink` attached), for measuring the cost of live tracing; see
//! `docs/observability.md`. Comparing a ring run to a null baseline with
//! `--check` is meaningless — the regression gate is for `--sink null`.
//!
//! The JSON's `"scheduler":"heap"` field is a constant (the simulator has
//! one event queue); it stays so the `senss.sim_hotpath.v1` schema, and
//! every committed baseline, keeps the same fields.

use senss_bench::benchkit::black_box;
use senss_harness::json::Value;
use senss_harness::{JobSpec, SecurityMode};
use senss_trace::RingSink;
use senss_workloads::Workload;
use std::time::Instant;

/// Which trace sink the timed runs attach.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SinkChoice {
    /// Tracing off — the default build, the regression-gated path.
    Null,
    /// Tracing on into a default-capacity ring, for overhead studies.
    Ring,
}

/// One benchmark configuration (a cell of the workload × processors ×
/// mode grid).
struct Config {
    workload: Workload,
    processors: usize,
    mode: SecurityMode,
}

/// One configuration's measured summary.
struct Measured {
    config: Config,
    /// Events the loop dispatched in one run (identical across
    /// iterations — the simulator is deterministic).
    events: u64,
    /// Simulated cycles of one run.
    sim_cycles: u64,
    /// Per-iteration events/sec samples.
    events_per_sec: Vec<f64>,
    /// Per-iteration simulated-cycles/sec samples.
    cycles_per_sec: Vec<f64>,
}

fn mode_tag(mode: SecurityMode) -> &'static str {
    match mode {
        SecurityMode::Baseline => "baseline",
        _ => "senss-cbc",
    }
}

/// Nearest-rank percentile of an unsorted sample set (q in 0..=100).
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn summary(samples: &[f64]) -> Value {
    let as_uint = |v: f64| Value::UInt(v.round().max(0.0) as u64);
    Value::Obj(vec![
        ("median".to_string(), as_uint(percentile(samples, 50.0))),
        ("p10".to_string(), as_uint(percentile(samples, 10.0))),
        ("p90".to_string(), as_uint(percentile(samples, 90.0))),
    ])
}

fn run_config(config: Config, ops: usize, iters: usize, sink: SinkChoice) -> Measured {
    let job = JobSpec::new(config.workload, config.processors, 1 << 20)
        .with_mode(config.mode)
        .with_ops(ops);
    let mut events = 0;
    let mut sim_cycles = 0;
    let mut events_per_sec = Vec::with_capacity(iters);
    let mut cycles_per_sec = Vec::with_capacity(iters);
    // One untimed warmup run per config settles the allocator and caches.
    black_box(job.run());
    // The event count is a property of the config (the simulator is
    // deterministic and tracing does not alter it), so for the ring
    // mode it is measured once here rather than inside the timed loop.
    if sink == SinkChoice::Ring {
        let (stats, loop_events) = job.run_counting();
        events = loop_events;
        sim_cycles = stats.total_cycles;
    }
    for _ in 0..iters {
        let started = Instant::now();
        let stats = match sink {
            SinkChoice::Null => {
                let (stats, loop_events) = job.run_counting();
                events = loop_events;
                stats
            }
            SinkChoice::Ring => {
                let (stats, ring) = job.run_with_sink(RingSink::new());
                black_box(ring.len());
                stats
            }
        };
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        sim_cycles = stats.total_cycles;
        events_per_sec.push(events as f64 / secs);
        cycles_per_sec.push(stats.total_cycles as f64 / secs);
        black_box(stats);
    }
    Measured {
        config,
        events,
        sim_cycles,
        events_per_sec,
        cycles_per_sec,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: sim_hotpath [--smoke] [--iters N] [--ops N] [--out PATH] \
         [--sink null|ring] [--check BASELINE.json] [--tol PCT]"
    );
    std::process::exit(2);
}

/// Baseline cell key: the grid coordinates a config is matched on.
fn cell_key(cell: &Value) -> Option<(String, u64, String)> {
    Some((
        cell.get("workload")?.as_str()?.to_string(),
        cell.get("processors")?.as_u64()?,
        cell.get("mode")?.as_str()?.to_string(),
    ))
}

/// Compares this run's cells against a committed baseline document.
/// Returns the number of configs that regressed beyond `tol_pct`.
/// Configs present in only one document are reported but not failed —
/// the grid may legitimately grow or shrink between revisions.
fn check_against_baseline(current: &[Value], baseline_path: &str, tol_pct: f64) -> usize {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("sim_hotpath: cannot read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let doc = senss_harness::json::parse(text.trim()).unwrap_or_else(|e| {
        eprintln!("sim_hotpath: baseline {baseline_path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let Some(base_cells) = doc.get("configs").and_then(Value::as_arr) else {
        eprintln!("sim_hotpath: baseline {baseline_path} has no configs array");
        std::process::exit(2);
    };
    let median = |cell: &Value| -> Option<u64> {
        cell.get("events_per_sec")?.get("median")?.as_u64()
    };
    eprintln!(
        "sim_hotpath: {:<8} {:>3} {:<10} {:>12} {:>12} {:>8}  verdict",
        "workload", "P", "mode", "events/s", "baseline", "delta"
    );
    let mut regressions = 0;
    for cell in current {
        let Some(key) = cell_key(cell) else { continue };
        let Some(base) = base_cells
            .iter()
            .find(|c| cell_key(c).as_ref() == Some(&key))
        else {
            eprintln!(
                "sim_hotpath: {} {}P {} not in baseline, skipping",
                key.0, key.1, key.2
            );
            continue;
        };
        let (Some(now), Some(was)) = (median(cell), median(base)) else {
            continue;
        };
        let floor = was as f64 * (1.0 - tol_pct / 100.0);
        let delta_pct = (now as f64 - was as f64) / was as f64 * 100.0;
        let verdict = if (now as f64) < floor { "REGRESSED" } else { "ok" };
        eprintln!(
            "sim_hotpath: {:<8} {:>2}P {:<10} {now:>12} {was:>12} {delta_pct:>+7.2}%  {verdict}",
            key.0, key.1, key.2
        );
        if (now as f64) < floor {
            regressions += 1;
        }
    }
    regressions
}

fn main() {
    let mut smoke = false;
    let mut iters: Option<usize> = None;
    let mut ops: Option<usize> = None;
    let mut out = "BENCH_sim.json".to_string();
    let mut sink = SinkChoice::Null;
    let mut check: Option<String> = None;
    let mut tol_pct = 2.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--sink" => {
                sink = match args.next().as_deref() {
                    Some("null") => SinkChoice::Null,
                    Some("ring") => SinkChoice::Ring,
                    _ => usage(),
                }
            }
            "--check" => check = Some(args.next().unwrap_or_else(|| usage())),
            "--tol" => {
                tol_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--iters" => {
                iters = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--ops" => {
                ops = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let iters = iters.unwrap_or(if smoke { 1 } else { 7 }).max(1);
    let ops = ops.unwrap_or(if smoke { 300 } else { 20_000 });

    let workloads = [Workload::Fft, Workload::Radix, Workload::Ocean];
    let processors = [4usize, 8, 16, 32];
    let modes = [SecurityMode::Baseline, SecurityMode::senss()];

    eprintln!(
        "sim_hotpath: {} configs x {iters} iteration(s), {ops} ops/core{}",
        workloads.len() * processors.len() * modes.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut cells = Vec::new();
    for &workload in &workloads {
        for &procs in &processors {
            for &mode in &modes {
                let m = run_config(
                    Config {
                        workload,
                        processors: procs,
                        mode,
                    },
                    ops,
                    iters,
                    sink,
                );
                println!(
                    "{:<8} {:>2}P {:<10} {:>12.0} events/s (median of {iters}), {} events/run",
                    m.config.workload.name(),
                    m.config.processors,
                    mode_tag(m.config.mode),
                    percentile(&m.events_per_sec, 50.0),
                    m.events,
                );
                cells.push(Value::Obj(vec![
                    (
                        "workload".to_string(),
                        Value::Str(m.config.workload.name().to_string()),
                    ),
                    (
                        "processors".to_string(),
                        Value::UInt(m.config.processors as u64),
                    ),
                    (
                        "mode".to_string(),
                        Value::Str(mode_tag(m.config.mode).to_string()),
                    ),
                    ("events".to_string(), Value::UInt(m.events)),
                    ("sim_cycles".to_string(), Value::UInt(m.sim_cycles)),
                    ("events_per_sec".to_string(), summary(&m.events_per_sec)),
                    ("cycles_per_sec".to_string(), summary(&m.cycles_per_sec)),
                ]));
            }
        }
    }

    let doc = Value::Obj(vec![
        (
            "schema".to_string(),
            Value::Str("senss.sim_hotpath.v1".to_string()),
        ),
        ("smoke".to_string(), Value::Bool(smoke)),
        (
            "sink".to_string(),
            Value::Str(
                match sink {
                    SinkChoice::Null => "null",
                    SinkChoice::Ring => "ring",
                }
                .to_string(),
            ),
        ),
        ("scheduler".to_string(), Value::Str("heap".to_string())),
        ("iterations".to_string(), Value::UInt(iters as u64)),
        ("ops_per_core".to_string(), Value::UInt(ops as u64)),
        ("configs".to_string(), Value::Arr(cells)),
    ]);
    std::fs::write(&out, doc.encode() + "\n").expect("write bench JSON");
    eprintln!("sim_hotpath: wrote {out}");

    if let Some(baseline) = check {
        let cells = doc
            .get("configs")
            .and_then(Value::as_arr)
            .expect("just built");
        let regressions = check_against_baseline(cells, &baseline, tol_pct);
        if regressions > 0 {
            eprintln!(
                "sim_hotpath: {regressions} config(s) regressed more than {tol_pct}% vs {baseline}"
            );
            std::process::exit(1);
        }
        eprintln!("sim_hotpath: all configs within {tol_pct}% of {baseline}");
    }
}
