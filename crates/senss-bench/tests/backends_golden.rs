//! Golden-record and checkpoint oracles for the competing security
//! backends (`senss-backends`: SERVAS, Sealer, scattered memory).
//!
//! Three guarantees, mirroring what `golden_stats.rs` and
//! `snapshot_roundtrip.rs` pin for the paper's own configurations:
//!
//! 1. Every backend's observable [`Stats`] are pinned byte-for-byte in
//!    `tests/golden_backends.jsonl` (regenerate with `GOLDEN_REGEN=1`
//!    after an intentional semantic change).
//! 2. Interrupting each backend at T/4, T/2 and 3T/4, pushing the
//!    snapshot — extension `x key value` pairs included — through the
//!    text codec and restoring must reproduce the same golden line.
//!    A checkpoint of `servas.*` / `sealer.*` / `scat.*` state is only
//!    correct if it is invisible in every number.
//! 3. The cross-backend figure table is byte-identical between a cold
//!    hermetic run and a warm-start snapshot-forked run that actually
//!    forked (`forked > 0`).

use senss_bench::backends;
use senss_harness::record::{encode_spec, encode_stats};
use senss_harness::{json::Value, Harness, HarnessConfig, JobSpec, SecurityMode};
use senss_snapshot::Snapshot;
use senss_workloads::Workload;

const OPS: usize = 2_000;

/// One pinned configuration per backend, on distinct workloads/shapes so
/// the fixture also covers shape variety.
fn backend_configs() -> Vec<(&'static str, JobSpec)> {
    vec![
        (
            "backend_servas",
            JobSpec::new(Workload::Fft, 4, 1 << 20)
                .with_mode(SecurityMode::servas())
                .with_ops(OPS),
        ),
        (
            "backend_servas_m2",
            JobSpec::new(Workload::Radix, 8, 1 << 20)
                .with_mode(SecurityMode::Servas { masks: 2 })
                .with_ops(OPS),
        ),
        (
            "backend_sealer",
            JobSpec::new(Workload::Ocean, 4, 4 << 20)
                .with_mode(SecurityMode::sealer())
                .with_ops(OPS),
        ),
        (
            "backend_sealer_i1",
            JobSpec::new(Workload::Lu, 8, 4 << 20)
                .with_mode(SecurityMode::Sealer { auth_interval: 1 })
                .with_ops(OPS),
        ),
        (
            "backend_scattered",
            JobSpec::new(Workload::Barnes, 4, 1 << 20)
                .with_mode(SecurityMode::scattered())
                .with_ops(OPS),
        ),
        (
            "backend_scattered_n5",
            JobSpec::new(Workload::Fft, 16, 1 << 20)
                .with_mode(SecurityMode::Scattered { shares: 5 })
                .with_ops(OPS),
        ),
    ]
}

/// Renders the canonical golden line for `spec` with the given stats.
fn golden_line(name: &str, spec: &JobSpec, stats: &senss_sim::Stats) -> String {
    let mut fields = vec![("figure".to_string(), Value::Str(name.to_string()))];
    fields.extend(encode_spec(spec));
    fields.push(("stats".to_string(), encode_stats(stats)));
    Value::Obj(fields).encode()
}

#[test]
fn backend_stats_match_golden_records_and_survive_checkpoints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_backends.jsonl");
    let configs = backend_configs();

    let lines: Vec<String> = configs
        .iter()
        .map(|(name, spec)| golden_line(name, spec, &spec.run()))
        .collect();
    let rendered = lines.join("\n") + "\n";

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden fixture");
        eprintln!("regenerated {path}");
        return;
    }

    let golden = std::fs::read_to_string(path)
        .expect("golden fixture missing; regenerate with GOLDEN_REGEN=1");
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden_lines.len(),
        configs.len(),
        "fixture line count differs; regenerate with GOLDEN_REGEN=1 if intended"
    );

    for (((name, spec), line), want) in configs.iter().zip(&lines).zip(&golden_lines) {
        assert_eq!(
            line.as_str(),
            *want,
            "{name}: backend Stats diverged from the golden record — a \
             timing-model change needs GOLDEN_REGEN=1 to re-pin"
        );

        // The checkpoint oracle: interrupt at three points, round-trip
        // the snapshot (with the backend's `x key value` extension
        // pairs) through the text codec, restore, and demand the same
        // golden line.
        let total = spec.run().total_cycles;
        for cycle in [total / 4, total / 2, total * 3 / 4] {
            let mut sys = spec.build_system();
            sys.run_until(cycle);
            let snap = Snapshot::capture(&sys, cycle);

            let text = snap.encode();
            let back = Snapshot::decode(&text)
                .unwrap_or_else(|e| panic!("{name}@{cycle}: snapshot does not decode: {e}"));
            assert_eq!(back, snap, "{name}@{cycle}: codec round-trip changed state");
            assert_eq!(
                back.encode(),
                text,
                "{name}@{cycle}: re-encode not canonical"
            );

            let warm = back.restore(spec.build_extension()).finish();
            assert_eq!(
                golden_line(name, spec, &warm).as_str(),
                *want,
                "{name}: restore at cycle {cycle} changed the golden JSONL"
            );
        }
    }
    assert_eq!(rendered, golden, "trailing content differs");
}

#[test]
fn warm_start_forking_reproduces_the_figure_table_byte_for_byte() {
    let ws = backends::workloads(true);
    let ops = 600;
    let sweep = backends::sweep(&ws, ops, 7);

    let cold = Harness::new(HarnessConfig::hermetic()).run(&sweep).unwrap();
    let warm = Harness::new(HarnessConfig::hermetic().with_warm_start(true))
        .run(&sweep)
        .unwrap();

    assert!(cold.is_complete() && warm.is_complete());
    assert_eq!(cold.forked, 0);
    assert!(
        warm.forked > 0,
        "the three scale points per cell must form real fork groups"
    );

    let cold_table = backends::jsonl_table(&backends::cells(&cold, &ws, ops, 7));
    let warm_table = backends::jsonl_table(&backends::cells(&warm, &ws, ops, 7));
    assert!(!cold_table.is_empty());
    assert_eq!(
        cold_table, warm_table,
        "snapshot-forked execution must be invisible in the figure"
    );
}
