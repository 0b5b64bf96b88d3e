//! Checkpoint/restore equivalence against the golden-record suite.
//!
//! For every one of the pinned figure configurations, the run is
//! interrupted at three distinct cycle points (T/4, T/2, 3T/4 of the
//! uninterrupted total), captured with `senss-snapshot`, pushed through
//! the text codec, and restored into a fresh system. The restored run's
//! final [`Stats`] must be bit-identical to the cold run's — and the
//! golden JSONL line rendered from them must match
//! `tests/golden_stats.jsonl` byte for byte. A checkpoint is only
//! correct if it is *invisible* in every observable number.
//!
//! One configuration additionally pins the trace-event stream: the
//! events captured before the checkpoint chained with the restored
//! run's tail must equal the cold run's full stream.

use senss_harness::record::{encode_spec, encode_stats};
use senss_harness::{json::Value, JobSpec, SecurityMode, TraceSpec};
use senss_sim::config::CoherenceProtocol;
use senss_snapshot::Snapshot;
use senss_trace::RingSink;
use senss_workloads::Workload;

const OPS: usize = 2_000;

/// The same configurations `golden_stats.rs` pins. Duplicated
/// rather than shared because each integration test compiles as its own
/// crate; any drift shows up as a fixture mismatch here.
fn figure_configs() -> Vec<(&'static str, JobSpec)> {
    vec![
        (
            "fig06_slowdown",
            JobSpec::new(Workload::Fft, 2, 1 << 20)
                .with_mode(SecurityMode::senss())
                .with_ops(OPS),
        ),
        (
            "fig07_masks",
            JobSpec::new(Workload::Radix, 4, 4 << 20)
                .with_mode(SecurityMode::senss_masks(1))
                .with_ops(OPS),
        ),
        (
            "fig08_traffic",
            JobSpec::new(Workload::Ocean, 4, 4 << 20).with_ops(OPS),
        ),
        (
            "fig09_interval",
            JobSpec::new(Workload::Lu, 4, 4 << 20)
                .with_mode(SecurityMode::senss_interval(1))
                .with_ops(OPS),
        ),
        (
            "fig10_integrated",
            JobSpec::new(Workload::Barnes, 4, 1 << 20)
                .with_mode(SecurityMode::integrated())
                .with_ops(OPS),
        ),
        (
            "fig11_variability",
            JobSpec::new(TraceSpec::FalseSharing, 2, 1 << 20)
                .with_mode(SecurityMode::senss_interval(1))
                .with_ops(OPS),
        ),
        (
            "coherence_protocols",
            JobSpec::new(Workload::Fft, 4, 1 << 20)
                .with_coherence(CoherenceProtocol::WriteUpdate)
                .with_mode(SecurityMode::senss_interval(1))
                .with_ops(OPS),
        ),
        (
            "hw_overhead",
            JobSpec::new(Workload::Ocean, 4, 4 << 20)
                .with_mode(SecurityMode::senss())
                .with_ops(OPS),
        ),
        (
            "scaling_study",
            JobSpec::new(Workload::Ocean, 16, 4 << 20)
                .with_mode(SecurityMode::senss())
                .with_ops(OPS),
        ),
        (
            "scaling_study_32p",
            JobSpec::new(Workload::Ocean, 32, 4 << 20)
                .with_mode(SecurityMode::senss())
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
fn checkpoint_restore_is_invisible_in_every_golden_figure() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_stats.jsonl");
    let golden = std::fs::read_to_string(path)
        .expect("golden fixture missing; regenerate with GOLDEN_REGEN=1");
    let golden_lines: Vec<&str> = golden.lines().collect();
    let configs = figure_configs();
    assert_eq!(golden_lines.len(), configs.len());

    for ((name, spec), want) in configs.iter().zip(&golden_lines) {
        let cold = spec.run();
        assert_eq!(
            golden_line(name, spec, &cold).as_str(),
            *want,
            "{name}: cold run diverged from the golden record before any \
             checkpointing — fix that first"
        );
        let total = cold.total_cycles;
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
}

#[test]
fn restored_runs_reproduce_the_trace_event_stream() {
    let spec = JobSpec::new(Workload::Fft, 2, 1 << 20)
        .with_mode(SecurityMode::senss())
        .with_ops(OPS);
    let (cold_stats, cold_sink) = spec.run_with_sink(RingSink::new());
    assert_eq!(cold_sink.dropped(), 0, "ring must hold the full stream");
    let full: Vec<_> = cold_sink.events().copied().collect();

    let cycle = cold_stats.total_cycles / 2;
    let mut sys = spec.build_system_with_sink(RingSink::new());
    sys.run_until(cycle);
    let prefix: Vec<_> = sys.sink().events().copied().collect();
    let snap = Snapshot::capture(&sys, cycle);

    let mut warm = Snapshot::decode(&snap.encode())
        .expect("decodes")
        .restore_with_sink(spec.build_extension(), RingSink::new());
    let warm_stats = warm.finish();
    assert_eq!(warm_stats, cold_stats);

    let tail: Vec<_> = warm.into_sink().events().copied().collect();
    let stitched: Vec<_> = prefix.into_iter().chain(tail).collect();
    assert_eq!(
        stitched, full,
        "prefix + restored tail must equal the uninterrupted event stream"
    );
}
