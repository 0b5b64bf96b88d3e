//! Checkpoint-cost and warm-start-speedup micro-benchmark.
//!
//! Two measurements, both machine-readable in `BENCH_snapshot.json`:
//!
//! 1. **Checkpoint cost** — on one representative SENSS job, the wall
//!    cost of `Snapshot::capture`, text `encode`, `decode`, and
//!    `restore` at the run's midpoint, plus the encoded size. This is
//!    the price the harness pays per warm-start fork checkpoint.
//!
//! 2. **Fork speedup** — a dense ops-per-core grid (every member shares
//!    the same architectural config, so the executor's warm-start
//!    planner folds them into one fork group) is swept twice on one
//!    worker with the cache off: once cold, once with warm-start
//!    forking. The merged result JSONL must be byte-identical — a fork
//!    is only legal if it is invisible in every number — and the
//!    speedup is reported.
//!
//! ```text
//! snapshot_bench [--smoke] [--assert-speedup] [--ops N] [--points N]
//!                [--out PATH] [--emit-snapshot PATH]
//! ```
//!
//! `--smoke` is the CI mode: tiny grid, byte-equality still enforced,
//! timing reported but not judged. `--assert-speedup` exits nonzero if
//! the warm sweep is not at least 1.5× faster than the cold one — the
//! acceptance gate, meant for quiet machines rather than busy CI boxes.

use senss_bench::benchkit::black_box;
use senss_harness::json::Value;
use senss_harness::{Harness, HarnessConfig, JobSpec, SecurityMode, SweepSpec};
use senss_serve::protocol::result_line;
use senss_snapshot::Snapshot;
use senss_workloads::Workload;
use std::time::Instant;

/// The acceptance floor `--assert-speedup` enforces.
const SPEEDUP_FLOOR: f64 = 1.5;

fn usage() -> ! {
    eprintln!(
        "usage: snapshot_bench [--smoke] [--assert-speedup] [--ops N] \
         [--points N] [--out PATH] [--emit-snapshot PATH]"
    );
    std::process::exit(2);
}

/// Times one closure, returning (result, micros).
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_micros() as u64)
}

/// Measures capture/encode/decode/restore cost at the midpoint of one
/// representative job. With `emit`, also writes the encoded snapshot
/// text to disk (the CI sample artifact).
fn checkpoint_cost(ops: usize, emit: Option<&str>) -> Vec<(String, Value)> {
    let spec = JobSpec::new(Workload::Fft, 4, 1 << 20)
        .with_mode(SecurityMode::senss())
        .with_ops(ops);
    let total = spec.run().total_cycles;
    let mut sys = spec.build_system();
    sys.run_until(total / 2);

    let (snap, capture_us) = timed(|| Snapshot::capture(&sys, total / 2));
    let (text, encode_us) = timed(|| snap.encode());
    let (back, decode_us) = timed(|| Snapshot::decode(&text).expect("own encoding decodes"));
    let (warm, restore_us) = timed(|| back.restore(spec.build_extension()));
    black_box(&warm);
    if let Some(path) = emit {
        std::fs::write(path, &text).expect("write sample snapshot");
        eprintln!("snapshot_bench: wrote sample snapshot to {path}");
    }

    println!(
        "snapshot_bench: checkpoint at cycle {} of {total}: capture {capture_us}us, \
         encode {encode_us}us ({} bytes), decode {decode_us}us, restore {restore_us}us",
        total / 2,
        text.len()
    );
    vec![
        ("checkpoint_cycle".to_string(), Value::UInt(total / 2)),
        ("capture_micros".to_string(), Value::UInt(capture_us)),
        ("encode_micros".to_string(), Value::UInt(encode_us)),
        ("decode_micros".to_string(), Value::UInt(decode_us)),
        ("restore_micros".to_string(), Value::UInt(restore_us)),
        ("snapshot_bytes".to_string(), Value::UInt(text.len() as u64)),
    ]
}

/// The dense sweep every fork-group member of which shares one config:
/// only ops-per-core varies, in small steps. A modest L2 keeps the
/// per-fork state copy small relative to the simulation being skipped —
/// forking pays off when runs are simulation-dominated, not when a few
/// thousand ops ride on megabytes of cache arrays.
fn dense_grid(ops: usize, points: usize) -> SweepSpec {
    let mut sweep = SweepSpec::new("snapshot-bench-dense");
    let step = (ops / 100).max(1);
    for i in 0..points {
        sweep.push(
            JobSpec::new(Workload::Fft, 2, 1 << 18)
                .with_mode(SecurityMode::senss())
                .with_ops(ops + i * step),
        );
    }
    sweep
}

/// Runs the sweep on one worker with the cache off and renders its
/// merged (deterministic) result JSONL.
fn run_sweep(sweep: &SweepSpec, warm: bool) -> (String, u64, usize) {
    let harness = Harness::new(
        HarnessConfig::hermetic()
            .with_workers(1)
            .with_warm_start(warm),
    );
    let started = Instant::now();
    let result = harness.run(sweep).expect("hermetic sweep cannot fail on I/O");
    let wall_us = started.elapsed().as_micros() as u64;
    assert!(result.is_complete(), "sweep had failures");
    let mut jsonl = String::new();
    for rec in &result.records {
        jsonl.push_str(&result_line(rec));
        jsonl.push('\n');
    }
    (jsonl, wall_us, result.forked)
}

fn main() {
    let mut smoke = false;
    let mut assert_speedup = false;
    let mut ops: Option<usize> = None;
    let mut points: Option<usize> = None;
    let mut out = "BENCH_snapshot.json".to_string();
    let mut emit: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--assert-speedup" => assert_speedup = true,
            "--ops" => {
                ops = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--points" => {
                points = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--emit-snapshot" => emit = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let ops = ops.unwrap_or(if smoke { 400 } else { 40_000 });
    let points = points.unwrap_or(if smoke { 4 } else { 10 }).max(2);

    eprintln!(
        "snapshot_bench: {points}-point dense grid at {ops}+ ops/core{}",
        if smoke { " (smoke)" } else { "" }
    );

    let cost = checkpoint_cost(ops, emit.as_deref());

    let sweep = dense_grid(ops, points);
    let (cold_jsonl, cold_us, cold_forked) = run_sweep(&sweep, false);
    let (warm_jsonl, warm_us, warm_forked) = run_sweep(&sweep, true);

    assert_eq!(cold_forked, 0, "cold sweep must not fork");
    assert!(
        warm_forked >= points - 2,
        "warm sweep forked only {warm_forked} of {points} jobs; the dense \
         grid should fork every middle member"
    );
    assert_eq!(
        warm_jsonl, cold_jsonl,
        "warm-start forked results must be byte-identical to cold runs"
    );

    let speedup = cold_us as f64 / warm_us.max(1) as f64;
    println!(
        "snapshot_bench: cold {cold_us}us, warm {warm_us}us ({warm_forked} forked) \
         -> {speedup:.2}x"
    );

    let doc = Value::Obj(
        [
            (
                "schema".to_string(),
                Value::Str("senss.snapshot_bench.v1".to_string()),
            ),
            ("smoke".to_string(), Value::Bool(smoke)),
            ("ops_per_core".to_string(), Value::UInt(ops as u64)),
            ("grid_points".to_string(), Value::UInt(points as u64)),
        ]
        .into_iter()
        .chain(cost)
        .chain([
            ("cold_wall_micros".to_string(), Value::UInt(cold_us)),
            ("warm_wall_micros".to_string(), Value::UInt(warm_us)),
            ("jobs_forked".to_string(), Value::UInt(warm_forked as u64)),
            (
                "speedup_milli".to_string(),
                Value::UInt((speedup * 1000.0).round() as u64),
            ),
        ])
        .collect(),
    );
    std::fs::write(&out, doc.encode() + "\n").expect("write bench JSON");
    eprintln!("snapshot_bench: wrote {out}");

    if assert_speedup && speedup < SPEEDUP_FLOOR {
        eprintln!(
            "snapshot_bench: warm-start speedup {speedup:.2}x is below the \
             {SPEEDUP_FLOOR}x floor"
        );
        std::process::exit(1);
    }
}
