//! Adversarial numeric inputs against the harness's on-disk codecs.
//!
//! The cache and record layers promise an integer-only world: every
//! number they write is a `u64`, and everything else — floats,
//! exponents, signs, NaN/infinity spellings — must fail loudly (a
//! parse error or a rejected line), never silently truncate to some
//! nearby integer. `u64::MAX` is a legal value everywhere and must
//! round-trip exactly, with no float intermediate to lose precision.

use senss_harness::cache::{ResultCache, CACHE_FILE};
use senss_harness::json::{self, Value};
use senss_harness::record::{decode_spec, encode_spec, RunRecord};
use senss_harness::spec::JobSpec;
use senss_sim::Stats;
use senss_workloads::Workload;

/// Every non-integer numeric spelling a hand-edited or corrupted file
/// could plausibly contain.
const POISON: &[&str] = &[
    "1.5",
    "-5",
    "1e9",
    "1E9",
    "+7",
    "NaN",
    "nan",
    "Infinity",
    "-Infinity",
    "inf",
    "0x10",
    "18446744073709551616", // u64::MAX + 1
];

#[test]
fn json_parser_rejects_every_poison_spelling() {
    for bad in POISON {
        assert!(
            json::parse(bad).is_err(),
            "bare {bad:?} must not parse as a value"
        );
        let in_obj = format!("{{\"total_cycles\":{bad}}}");
        assert!(
            json::parse(&in_obj).is_err(),
            "{in_obj:?} must not parse as an object"
        );
    }
}

#[test]
fn u64_max_round_trips_exactly_through_stats() {
    let stats = Stats {
        total_cycles: u64::MAX,
        bus_bytes: u64::MAX,
        ops_executed: u64::MAX - 1,
        core_finish_times: vec![u64::MAX, 0],
        core_ops: vec![u64::MAX],
        ..Stats::default()
    };
    let line = senss_harness::record::encode_stats(&stats).encode();
    assert!(
        line.contains(&u64::MAX.to_string()),
        "u64::MAX must be written in full: {line}"
    );
    let back = senss_harness::record::decode_stats(&json::parse(&line).unwrap()).unwrap();
    assert_eq!(back, stats, "no precision loss allowed anywhere");
}

#[test]
fn u64_max_round_trips_through_spec_fields() {
    let spec = JobSpec::new(Workload::Fft, 2, 1 << 20).with_seed(u64::MAX);
    assert_eq!(decode_spec(&Value::Obj(encode_spec(&spec))), Some(spec));
}

#[test]
fn poisoned_record_lines_are_rejected_not_mangled() {
    let spec = JobSpec::new(Workload::Fft, 2, 1 << 20).with_ops(100);
    let rec = RunRecord {
        index: 0,
        spec,
        key: spec.cache_key(),
        stats: Stats {
            total_cycles: 123_456,
            ..Stats::default()
        },
        wall_micros: 9,
        worker: Some(0),
        cached: false,
    };
    let line = rec.encode();
    assert_eq!(RunRecord::decode(&json::parse(&line).unwrap()), Some(rec));
    for bad in POISON {
        let poisoned = line.replacen("123456", bad, 1);
        assert_ne!(poisoned, line, "substitution must have happened");
        // Either the whole line fails to parse, or (never) it parses to
        // something — in which case decoding must not produce a record
        // with a silently-altered counter.
        if let Ok(v) = json::parse(&poisoned) {
            panic!("poisoned line parsed: {bad} -> {v:?}");
        }
    }
}

#[test]
fn cache_skips_poisoned_lines_and_keeps_exact_values() {
    let dir =
        std::env::temp_dir().join(format!("senss-harness-adversarial-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let stats = Stats {
        total_cycles: u64::MAX,
        ..Stats::default()
    };
    let good = Value::Obj(vec![
        ("key".into(), Value::Str("exact".into())),
        ("stats".into(), senss_harness::record::encode_stats(&stats)),
    ])
    .encode();
    let mut file = String::new();
    for bad in POISON {
        file.push_str(&format!(
            "{{\"key\":\"p\",\"stats\":{{\"total_cycles\":{bad}}}}}\n"
        ));
    }
    file.push_str(&good);
    file.push('\n');
    std::fs::write(dir.join(CACHE_FILE), file).unwrap();
    let cache = ResultCache::open(&dir).unwrap();
    assert_eq!(
        cache.skipped(),
        POISON.len(),
        "every poisoned line must be counted as skipped"
    );
    assert_eq!(cache.len(), 1);
    assert_eq!(
        cache.get("exact").unwrap().total_cycles,
        u64::MAX,
        "u64::MAX must survive the disk round-trip exactly"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
