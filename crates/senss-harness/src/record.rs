//! Structured run records: the JSONL output layer.
//!
//! Every executed (or cache-served) job produces a [`RunRecord`]
//! carrying the full [`Stats`] struct plus execution metadata (wall
//! time, worker id, cache provenance). Records serialize one
//! per line to `results/records/<sweep>.jsonl`; the same `Stats`
//! encoding backs the result cache.

use crate::json::Value;
use crate::spec::JobSpec;
use senss_sim::Stats;

/// Lists every scalar `u64` counter of [`Stats`] exactly once; the
/// encoder and decoder both expand it, so the two can never drift.
macro_rules! for_each_stats_counter {
    ($apply:ident!($($extra:tt)*)) => {
        $apply!($($extra)*;
            total_cycles,
            ops_executed,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            upgrades,
            txn_read,
            txn_read_exclusive,
            txn_upgrade,
            txn_update,
            txn_writeback,
            txn_hash_fetch,
            txn_hash_writeback,
            txn_auth,
            txn_pad_invalidate,
            txn_pad_request,
            cache_to_cache_transfers,
            memory_transfers,
            bus_busy_cycles,
            bus_bytes,
            mask_stall_cycles,
            integrity_check_cycles,
            mask_stalled_transfers
        )
    };
}

macro_rules! encode_counters {
    ($stats:ident; $($name:ident),+) => {
        vec![ $( (stringify!($name).to_string(), Value::UInt($stats.$name)) ),+ ]
    };
}

macro_rules! decode_counters {
    ($obj:ident, $stats:ident; $($name:ident),+) => {
        $( $stats.$name = $obj.get(stringify!($name)).and_then(Value::as_u64).unwrap_or(0); )+
    };
}

/// Encodes the full [`Stats`] struct as a JSON object.
pub fn encode_stats(stats: &Stats) -> Value {
    let mut fields: Vec<(String, Value)> = for_each_stats_counter!(encode_counters!(stats));
    fields.push((
        "core_finish_times".to_string(),
        Value::Arr(
            stats
                .core_finish_times
                .iter()
                .map(|&v| Value::UInt(v))
                .collect(),
        ),
    ));
    fields.push((
        "core_ops".to_string(),
        Value::Arr(stats.core_ops.iter().map(|&v| Value::UInt(v)).collect()),
    ));
    Value::Obj(fields)
}

/// Decodes a [`Stats`] object; absent counters default to zero (forward
/// compatibility for counters added later).
pub fn decode_stats(obj: &Value) -> Option<Stats> {
    if !matches!(obj, Value::Obj(_)) {
        return None;
    }
    let mut stats = Stats::default();
    for_each_stats_counter!(decode_counters!(obj, stats));
    let arr = |key: &str| -> Vec<u64> {
        obj.get(key)
            .and_then(Value::as_arr)
            .map(|items| items.iter().filter_map(Value::as_u64).collect())
            .unwrap_or_default()
    };
    stats.core_finish_times = arr("core_finish_times");
    stats.core_ops = arr("core_ops");
    Some(stats)
}

/// Encodes every [`JobSpec`] field as flat JSON object fields, the
/// layout shared by run-record lines and the `senss-serve` wire format.
pub fn encode_spec(spec: &JobSpec) -> Vec<(String, Value)> {
    vec![
        ("trace".into(), Value::Str(spec.trace.tag().to_string())),
        ("cores".into(), Value::UInt(spec.cores as u64)),
        ("l2_bytes".into(), Value::UInt(spec.l2_bytes as u64)),
        (
            "coherence".into(),
            Value::Str(crate::spec::coherence_tag(spec.coherence).to_string()),
        ),
        ("mode".into(), Value::Str(spec.mode.tag())),
        ("ops_per_core".into(), Value::UInt(spec.ops_per_core as u64)),
        ("seed".into(), Value::UInt(spec.seed)),
    ]
}

/// Decodes a [`JobSpec`] from an object carrying the
/// [`encode_spec`] fields. Returns `None` on any missing or
/// unparseable field, or a job that fails [`JobSpec::validate`] —
/// callers treat that as a malformed frame.
pub fn decode_spec(obj: &Value) -> Option<JobSpec> {
    let uint = |key: &str| obj.get(key).and_then(Value::as_u64);
    let spec = JobSpec {
        trace: crate::spec::TraceSpec::from_tag(obj.get("trace")?.as_str()?)?,
        cores: uint("cores")? as usize,
        l2_bytes: uint("l2_bytes")? as usize,
        coherence: crate::spec::coherence_from_tag(obj.get("coherence")?.as_str()?)?,
        mode: crate::spec::SecurityMode::from_tag(obj.get("mode")?.as_str()?)?,
        ops_per_core: uint("ops_per_core")? as usize,
        seed: uint("seed")?,
    };
    spec.validate().ok()?;
    Some(spec)
}

/// One job's complete execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Position of the job in its sweep (records are emitted in this
    /// order regardless of completion order).
    pub index: usize,
    /// The job that ran.
    pub spec: JobSpec,
    /// Content-addressed cache key of the job.
    pub key: String,
    /// Full simulation statistics.
    pub stats: Stats,
    /// Wall-clock execution time in microseconds (0 for cache hits).
    pub wall_micros: u64,
    /// Executor worker that ran the job (`None` for cache hits).
    pub worker: Option<usize>,
    /// Whether the result was served from the cache.
    pub cached: bool,
}

impl RunRecord {
    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("index".to_string(), Value::UInt(self.index as u64)),
            ("key".to_string(), Value::Str(self.key.clone())),
        ];
        fields.extend(encode_spec(&self.spec));
        fields.extend([
            ("wall_micros".to_string(), Value::UInt(self.wall_micros)),
            (
                "worker".to_string(),
                match self.worker {
                    Some(w) => Value::UInt(w as u64),
                    None => Value::Str("cache".into()),
                },
            ),
            ("cached".to_string(), Value::Bool(self.cached)),
        ]);
        fields.push(("stats".to_string(), encode_stats(&self.stats)));
        Value::Obj(fields).encode()
    }

    /// Decodes a record from its parsed JSONL form; `None` means the
    /// object is not a well-formed record.
    pub fn decode(obj: &Value) -> Option<RunRecord> {
        Some(RunRecord {
            index: obj.get("index")?.as_u64()? as usize,
            key: obj.get("key")?.as_str()?.to_string(),
            spec: decode_spec(obj)?,
            stats: decode_stats(obj.get("stats")?)?,
            wall_micros: obj.get("wall_micros")?.as_u64()?,
            worker: obj.get("worker")?.as_u64().map(|w| w as usize),
            cached: matches!(obj.get("cached")?, Value::Bool(true)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::spec::SecurityMode;
    use senss_workloads::Workload;

    fn sample_stats() -> Stats {
        Stats {
            total_cycles: 123_456,
            ops_executed: 999,
            txn_auth: 7,
            mask_stall_cycles: 3,
            core_finish_times: vec![10, 20],
            core_ops: vec![500, 499],
            ..Stats::default()
        }
    }

    #[test]
    fn stats_roundtrip_every_field() {
        // Fill every counter with a distinct value via merge of defaults.
        let mut s = sample_stats();
        s.l1_hits = 1;
        s.l1_misses = 2;
        s.l2_hits = 3;
        s.l2_misses = 4;
        s.upgrades = 5;
        s.txn_read = 6;
        s.txn_read_exclusive = 7;
        s.txn_upgrade = 8;
        s.txn_update = 9;
        s.txn_writeback = 10;
        s.txn_hash_fetch = 11;
        s.txn_hash_writeback = 12;
        s.txn_pad_invalidate = 13;
        s.txn_pad_request = 14;
        s.cache_to_cache_transfers = 15;
        s.memory_transfers = 16;
        s.bus_busy_cycles = 17;
        s.bus_bytes = 18;
        s.integrity_check_cycles = 19;
        s.mask_stalled_transfers = 20;
        let encoded = encode_stats(&s).encode();
        let decoded = decode_stats(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn missing_counters_default_to_zero() {
        let decoded = decode_stats(&json::parse(r#"{"total_cycles": 5}"#).unwrap()).unwrap();
        assert_eq!(decoded.total_cycles, 5);
        assert_eq!(decoded.txn_auth, 0);
        assert!(decoded.core_ops.is_empty());
    }

    #[test]
    fn record_lines_parse_back() {
        let spec = JobSpec::new(Workload::Ocean, 4, 1 << 20)
            .with_mode(SecurityMode::senss())
            .with_ops(5_000);
        let rec = RunRecord {
            index: 3,
            spec,
            key: spec.cache_key(),
            stats: sample_stats(),
            wall_micros: 1234,
            worker: Some(1),
            cached: false,
        };
        let parsed = json::parse(&rec.encode()).unwrap();
        assert_eq!(parsed.get("index").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("trace").unwrap().as_str(), Some("ocean"));
        assert_eq!(
            parsed.get("mode").unwrap().as_str(),
            Some("senss:m8:i100:cbc")
        );
        let stats = decode_stats(parsed.get("stats").unwrap()).unwrap();
        assert_eq!(stats, sample_stats());
    }

    #[test]
    fn records_and_specs_round_trip() {
        let spec = JobSpec::new(Workload::Radix, 2, 1 << 20)
            .with_mode(SecurityMode::integrated())
            .with_ops(777)
            .with_seed(9);
        assert_eq!(
            decode_spec(&Value::Obj(encode_spec(&spec))),
            Some(spec),
            "spec codec must round-trip"
        );
        for worker in [Some(2), None] {
            let rec = RunRecord {
                index: 0,
                spec,
                key: spec.cache_key(),
                stats: sample_stats(),
                wall_micros: 55,
                worker,
                cached: worker.is_none(),
            };
            let parsed = json::parse(&rec.encode()).unwrap();
            assert_eq!(RunRecord::decode(&parsed), Some(rec.clone()));
        }
        // A record with a missing field is rejected, not mis-decoded.
        assert_eq!(RunRecord::decode(&json::parse("{}").unwrap()), None);
    }

    /// Exactly the geometries `SystemConfig::e6000` rejects decode to
    /// `None`, so no job that would panic in its cache key gets in.
    #[test]
    fn specs_the_simulator_cannot_build_are_refused() {
        let decode = |cores, l2_bytes| {
            decode_spec(&Value::Obj(encode_spec(&JobSpec::new(
                Workload::Fft,
                cores,
                l2_bytes,
            ))))
        };
        for (cores, l2_bytes) in [(0, 1 << 20), (2, 3 << 20), (2, 32 << 10), (2, 0)] {
            assert_eq!(decode(cores, l2_bytes), None, "{cores} cores, {l2_bytes} B");
        }
        for (cores, l2_bytes) in [(1, 64 << 10), (65, 1 << 20)] {
            assert!(
                decode(cores, l2_bytes).is_some(),
                "{cores} cores, {l2_bytes} B"
            );
        }
    }

    #[test]
    fn backend_mode_specs_round_trip() {
        // The wire/record codec must carry every senss-backends mode:
        // a serve worker decodes the spec from exactly these fields.
        for mode in [
            SecurityMode::servas(),
            SecurityMode::Servas { masks: 2 },
            SecurityMode::sealer(),
            SecurityMode::Sealer { auth_interval: 1 },
            SecurityMode::scattered(),
            SecurityMode::Scattered { shares: 4 },
        ] {
            let spec = JobSpec::new(Workload::Fft, 4, 1 << 20)
                .with_mode(mode)
                .with_ops(1_234)
                .with_seed(7);
            assert_eq!(
                decode_spec(&Value::Obj(encode_spec(&spec))),
                Some(spec),
                "{mode:?}"
            );
        }
    }
}
