//! Every metric the benchmark reports, with its unit and direction.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// End-to-end metrics, printed by untraced runs of every workload.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("events_per_s", "1/s", "higher"),
    ("sweep_latency_p50_ms", "ms", "lower"),
    ("sweep_latency_p90_ms", "ms", "lower"),
    ("trace_latency_p50_ms", "ms", "lower"),
    ("trace_latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// The six security modes, by the name used in `ext.<mode>.*`.
pub const MODES: [&str; 6] = [
    "baseline",
    "senss",
    "integrated",
    "servas",
    "sealer",
    "scattered",
];

/// The six `Extension` hooks timed by the wrapper, in trait order.
pub const HOOKS: [&str; 6] = [
    "transfer_start_delay",
    "transfer_extra_latency",
    "transaction_complete",
    "pad_request_needed",
    "integrity_chain",
    "writeback_chain",
];

/// Per-layer metrics with a fixed name, printed by traced runs of every
/// workload (the per-mode and per-hook families follow in
/// [`per_layer`]).
const FIXED_PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.generate_ms", "ms", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.cycles", "count", "lower"),
    ("sim.build_ms", "ms", "lower"),
    ("sim.run_ms", "ms", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.ns_per_event.p4", "ns", "lower"),
    ("sim.ns_per_event.p16", "ns", "lower"),
    ("sim.ns_per_event.p32", "ns", "lower"),
    ("sim.bus_grants", "count", "lower"),
    ("sim.txn_starts", "count", "lower"),
    ("sim.mesi_transitions", "count", "lower"),
    ("sim.mem_fills", "count", "lower"),
    ("sim.shu_encrypts", "count", "lower"),
    ("sim.shu_verifies", "count", "lower"),
    ("sim.cache_probe_hit_ns.w2", "ns", "lower"),
    ("sim.cache_probe_hit_ns.w4", "ns", "lower"),
    ("sim.cache_probe_miss_ns.w2", "ns", "lower"),
    ("sim.cache_probe_miss_ns.w4", "ns", "lower"),
    ("sim.arbiter_grant_ns.p16", "ns", "lower"),
    ("sim.arbiter_grant_ns.p32", "ns", "lower"),
    ("crypto.aes128_block_ns", "ns", "lower"),
    ("crypto.sha256_64b_ns", "ns", "lower"),
    ("harness.cache_key_us", "us", "lower"),
    ("harness.jobs_executed", "count", "lower"),
    ("harness.jobs_cached", "count", "higher"),
    ("harness.jobs_forked", "count", "higher"),
    ("harness.fork_ratio", "ratio", "higher"),
    ("harness.cold_overhead_us_per_job", "us", "lower"),
    ("harness.hit_us_per_job", "us", "lower"),
    ("harness.cache_open_ms", "ms", "lower"),
    ("harness.cache_entries", "count", "lower"),
    ("snapshot.bytes", "bytes", "lower"),
    ("snapshot.capture_ms", "ms", "lower"),
    ("snapshot.encode_ms", "ms", "lower"),
    ("snapshot.decode_ms", "ms", "lower"),
    ("snapshot.restore_ms", "ms", "lower"),
    ("trace.ring_slowdown", "ratio", "lower"),
    ("trace.fold_ms", "ms", "lower"),
    ("serve.ping_rtt_us", "us", "lower"),
    ("serve.wait_ms", "ms", "lower"),
    ("serve.jobs_executed", "count", "lower"),
    ("serve.jobs_cached", "count", "higher"),
    ("serve.trace_checkpoint_hits", "count", "higher"),
    ("serve.checkpoint_hit_ratio", "ratio", "higher"),
    ("serve.errors_overloaded", "count", "lower"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.shards_dispatched", "count", "lower"),
    ("serve.shard_retries", "count", "lower"),
    ("bench.tracing_overhead", "ratio", "lower"),
];

/// Every per-layer metric as `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut all: Vec<(String, &'static str, &'static str)> = FIXED_PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for mode in MODES {
        all.push((format!("ext.{mode}.ns_per_event"), "ns", "lower"));
        if mode != "baseline" {
            all.push((format!("ext.{mode}.overhead_ns_per_event"), "ns", "lower"));
        }
    }
    for hook in HOOKS {
        all.push((format!("ext.{hook}.calls"), "count", "lower"));
        all.push((format!("ext.{hook}.ns"), "ns", "lower"));
    }
    all
}

/// Whether a metric of `unit` counts work rather than timing it; only
/// these may legitimately read 0 on a workload that skips the layer.
pub fn is_count(unit: &str) -> bool {
    matches!(unit, "count" | "ratio")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minijson::{self, Json};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names(list: &Json) -> Vec<(String, String, String)> {
        list.as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = minijson::parse(&text).expect("BENCHMARK.json parses");
        let workloads = v.get("workloads").and_then(Json::as_arr).unwrap();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            assert!(valid_name(w.get("name").and_then(Json::as_str).unwrap()));
        }
        let e2e = names(v.get("end_to_end").unwrap());
        let layer = names(v.get("per_layer").unwrap());
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layer.len()));
        let mut seen = std::collections::HashSet::new();
        for (name, _, _) in e2e.iter().chain(&layer) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate metric {name:?}");
        }
        let want_e2e: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(e2e, want_e2e);
        let want_layer: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layer, want_layer);
    }
}
