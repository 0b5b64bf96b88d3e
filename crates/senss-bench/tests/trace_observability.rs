//! Acceptance tests for the tracing/observability layer (issue 5).
//!
//! The paper-default configuration here is fft at 4 processors under
//! SENSS-CBC. The tests pin down the three guarantees the trace layer
//! makes:
//!
//! 1. tracing observes, never perturbs — a traced run's `Stats` are
//!    bit-identical to an untraced run of the same spec;
//! 2. the trace ties out — per-kind transaction counts and bus-busy
//!    cycles derived from the event stream match the `Stats` counters
//!    exactly;
//! 3. the Chrome export is well-formed — valid JSON, monotonic `ts`,
//!    and every `B` span closed by a matching `E` on its lane — and
//!    byte-identically deterministic across identical runs.

use senss_harness::json::{self, Value};
use senss_harness::{JobSpec, SecurityMode};
use senss_sim::Stats;
use senss_trace::{chrome_trace, fold, RingSink, TxnClass};
use senss_workloads::Workload;
use std::collections::HashMap;

fn traced_job() -> JobSpec {
    JobSpec::new(Workload::Fft, 4, 1 << 20)
        .with_mode(SecurityMode::senss())
        .with_ops(800)
}

fn stats_txn_count(stats: &Stats, class: TxnClass) -> u64 {
    match class {
        TxnClass::Read => stats.txn_read,
        TxnClass::ReadExclusive => stats.txn_read_exclusive,
        TxnClass::Upgrade => stats.txn_upgrade,
        TxnClass::Update => stats.txn_update,
        TxnClass::Writeback => stats.txn_writeback,
        TxnClass::HashFetch => stats.txn_hash_fetch,
        TxnClass::HashWriteback => stats.txn_hash_writeback,
        TxnClass::Auth => stats.txn_auth,
        TxnClass::PadInvalidate => stats.txn_pad_invalidate,
        TxnClass::PadRequest => stats.txn_pad_request,
    }
}

#[test]
fn traced_run_ties_out_against_stats() {
    let job = traced_job();
    let (stats, sink) = job.run_with_sink(RingSink::new());
    assert_eq!(sink.dropped(), 0, "ring must hold the whole run");
    assert!(!sink.is_empty());
    assert_eq!(stats, job.run(), "tracing must not perturb the simulation");

    let derived = fold(sink.events(), 1 << 14);
    for class in TxnClass::ALL {
        assert_eq!(
            derived.txn_counts[class.index()],
            stats_txn_count(&stats, class),
            "traced {} count must match Stats",
            class.name()
        );
    }
    assert!(derived.total_transactions() > 0);
    assert_eq!(
        derived.bus_busy_cycles, stats.bus_busy_cycles,
        "sum of BusGrant busy must reproduce Stats::bus_busy_cycles"
    );
    assert_eq!(derived.mem_fills, stats.memory_transfers);
    assert_eq!(
        derived.unmatched_done, 0,
        "complete trace, no orphan closes"
    );
}

#[test]
fn chrome_export_is_valid_monotonic_and_balanced() {
    let job = traced_job();
    let (stats, sink) = job.run_with_sink(RingSink::new());
    assert_eq!(sink.dropped(), 0);
    let text = chrome_trace(sink.events());

    let doc = json::parse(&text).expect("chrome export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts = 0u64;
    // tid → stack of open span names; spans on one lane must nest.
    let mut open: HashMap<u64, Vec<String>> = HashMap::new();
    let mut begin_counts: HashMap<String, u64> = HashMap::new();
    for ev in events {
        let ts = ev.get("ts").and_then(Value::as_u64).expect("ts");
        assert!(ts >= last_ts, "ts must be monotonically non-decreasing");
        last_ts = ts;
        let tid = ev.get("tid").and_then(Value::as_u64).expect("tid");
        let name = ev.get("name").and_then(Value::as_str).expect("name");
        match ev.get("ph").and_then(Value::as_str).expect("ph") {
            "B" => {
                open.entry(tid).or_default().push(name.to_string());
                *begin_counts.entry(name.to_string()).or_default() += 1;
            }
            "E" => {
                let top = open
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("E without open B on tid {tid}"));
                assert_eq!(top, name, "E must close the innermost B of its lane");
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &open {
        assert!(stack.is_empty(), "unclosed span(s) {stack:?} on tid {tid}");
    }

    // Per-kind span counts in the exported file match the Stats counters.
    for class in TxnClass::ALL {
        assert_eq!(
            begin_counts.get(class.name()).copied().unwrap_or(0),
            stats_txn_count(&stats, class),
            "chrome {} span count must match Stats",
            class.name()
        );
    }
}

#[test]
fn identical_runs_trace_byte_identically() {
    let (stats_a, sink_a) = traced_job().run_with_sink(RingSink::new());
    let (stats_b, sink_b) = traced_job().run_with_sink(RingSink::new());
    assert_eq!(stats_a, stats_b);
    assert_eq!(
        sink_a.to_jsonl(),
        sink_b.to_jsonl(),
        "identical runs must produce byte-identical JSONL traces"
    );
    assert_eq!(
        chrome_trace(sink_a.events()),
        chrome_trace(sink_b.events()),
        "identical runs must produce byte-identical Chrome exports"
    );
}
