//! Post-processing: fold a trace into derived metrics.
//!
//! [`fold`] makes one pass over an event stream and produces
//! [`DerivedMetrics`]: a bus-utilization timeline, per-transaction-kind
//! latency summaries (p50/p90/p99 over grant→completion cycles), the
//! MESI transition matrix, and SHU/memory counters. The folding is pure
//! post-processing — it never touches the simulator — so it can run on a
//! live `RingSink`, a parsed JSONL file, or server-side for a completed
//! sweep.

use crate::event::{MesiPoint, TraceEvent, TxnClass};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Latency distribution for one transaction class, in simulated cycles
/// from bus grant to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Completed (start+done matched) transactions.
    pub count: u64,
    /// Median latency.
    pub p50: u64,
    /// 90th-percentile latency.
    pub p90: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Maximum latency.
    pub max: u64,
    /// Sum of latencies (for means across classes).
    pub total: u64,
}

impl LatencySummary {
    fn from_samples(samples: &mut [u64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        // Nearest-rank percentile, like perfbench.
        let rank = |q: f64| -> u64 {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            samples[idx]
        };
        LatencySummary {
            count: n as u64,
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: samples[n - 1],
            total: samples.iter().sum(),
        }
    }
}

/// Everything [`fold`] derives from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedMetrics {
    /// Cycle width of each utilization bucket.
    pub bucket_cycles: u64,
    /// Bus-busy cycles per bucket, bucket 0 starting at cycle 0. Busy
    /// intervals spanning a bucket boundary are split across buckets.
    pub busy_timeline: Vec<u64>,
    /// Total bus-busy cycles (sum of `BusGrant::busy`) — ties out
    /// against `Stats::bus_busy_cycles` for a complete trace.
    pub bus_busy_cycles: u64,
    /// Granted transactions per class (`TxnStart` counts, indexed by
    /// [`TxnClass::index`]) — tie out against the `Stats` counters.
    pub txn_counts: [u64; TxnClass::COUNT],
    /// Grant→completion latency per class.
    pub txn_latency: [LatencySummary; TxnClass::COUNT],
    /// MESI transition counts, `[from][to]` by [`MesiPoint::index`].
    pub mesi_transitions: [[u64; 4]; 4],
    /// Fills supplied by memory.
    pub mem_fills: u64,
    /// SHU-encrypted transfers seen.
    pub shu_encrypts: u64,
    /// Total mask-wait stall cycles across encrypted transfers.
    pub shu_stall_cycles: u64,
    /// Authentication rounds seen.
    pub shu_verifies: u64,
    /// Timestamp of the last event in the trace.
    pub last_cycle: u64,
    /// `TxnDone` events with no matching `TxnStart` (nonzero only for
    /// truncated traces, e.g. a wrapped ring).
    pub unmatched_done: u64,
    /// `TxnStart` events never completed (in flight at end of trace).
    pub open_spans: u64,
}

impl DerivedMetrics {
    /// Bus utilization over the whole trace window (0.0–1.0).
    pub fn bus_utilization(&self) -> f64 {
        if self.last_cycle == 0 {
            return 0.0;
        }
        self.bus_busy_cycles as f64 / self.last_cycle as f64
    }

    /// Bus utilization in parts per million — the integer form used in
    /// the JSON encoding, which must stay parseable by integer-only
    /// JSON readers (the workspace has one).
    pub fn bus_utilization_ppm(&self) -> u64 {
        if self.last_cycle == 0 {
            return 0;
        }
        (self.bus_busy_cycles.saturating_mul(1_000_000)) / self.last_cycle
    }

    /// Total transactions across all classes.
    pub fn total_transactions(&self) -> u64 {
        self.txn_counts.iter().sum()
    }

    /// The metrics as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":\"senss.trace.derived.v1\"");
        let _ = write!(
            out,
            ",\"last_cycle\":{},\"bus_busy_cycles\":{},\
             \"bus_utilization_ppm\":{},\"total_transactions\":{}",
            self.last_cycle,
            self.bus_busy_cycles,
            self.bus_utilization_ppm(),
            self.total_transactions()
        );
        let _ = write!(out, ",\"bucket_cycles\":{}", self.bucket_cycles);
        out.push_str(",\"busy_timeline\":[");
        for (i, busy) in self.busy_timeline.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{busy}");
        }
        out.push(']');
        out.push_str(",\"txns\":{");
        let mut first = true;
        for class in TxnClass::ALL {
            let idx = class.index();
            if self.txn_counts[idx] == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let lat = &self.txn_latency[idx];
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"completed\":{},\"p50\":{},\
                 \"p90\":{},\"p99\":{},\"max\":{},\"total_cycles\":{}}}",
                class.name(),
                self.txn_counts[idx],
                lat.count,
                lat.p50,
                lat.p90,
                lat.p99,
                lat.max,
                lat.total
            );
        }
        out.push('}');
        out.push_str(",\"mesi_transitions\":{");
        let mut first = true;
        for from in MesiPoint::ALL {
            for to in MesiPoint::ALL {
                let n = self.mesi_transitions[from.index()][to.index()];
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}>{}\":{n}", from.letter(), to.letter());
            }
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"mem_fills\":{},\"shu\":{{\"encrypts\":{},\
             \"stall_cycles\":{},\"verifies\":{}}},\
             \"unmatched_done\":{},\"open_spans\":{}}}",
            self.mem_fills,
            self.shu_encrypts,
            self.shu_stall_cycles,
            self.shu_verifies,
            self.unmatched_done,
            self.open_spans
        );
        out
    }
}

/// Folds an event stream into [`DerivedMetrics`].
///
/// `bucket_cycles` sets the utilization-timeline resolution (clamped to
/// at least 1). Events must be in emission (simulation) order, which
/// every sink in this crate preserves.
pub fn fold<'a, I>(events: I, bucket_cycles: u64) -> DerivedMetrics
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    let bucket_cycles = bucket_cycles.max(1);
    let mut m = DerivedMetrics {
        bucket_cycles,
        busy_timeline: Vec::new(),
        bus_busy_cycles: 0,
        txn_counts: [0; TxnClass::COUNT],
        txn_latency: [LatencySummary::default(); TxnClass::COUNT],
        mesi_transitions: [[0; 4]; 4],
        mem_fills: 0,
        shu_encrypts: 0,
        shu_stall_cycles: 0,
        shu_verifies: 0,
        last_cycle: 0,
        unmatched_done: 0,
        open_spans: 0,
    };
    let mut samples: [Vec<u64>; TxnClass::COUNT] = Default::default();
    let mut open: HashMap<u64, u64> = HashMap::new();
    for ev in events {
        m.last_cycle = m.last_cycle.max(ev.time());
        match *ev {
            TraceEvent::BusGrant { time, busy, .. } => {
                m.bus_busy_cycles += busy;
                // Spread the busy interval across timeline buckets.
                let mut start = time;
                let end = time + busy;
                while start < end {
                    let bucket = (start / bucket_cycles) as usize;
                    let bucket_end = (bucket as u64 + 1) * bucket_cycles;
                    let span = end.min(bucket_end) - start;
                    if m.busy_timeline.len() <= bucket {
                        m.busy_timeline.resize(bucket + 1, 0);
                    }
                    m.busy_timeline[bucket] += span;
                    start += span;
                }
                m.last_cycle = m.last_cycle.max(end);
            }
            TraceEvent::TxnStart {
                time, token, kind, ..
            } => {
                m.txn_counts[kind.index()] += 1;
                open.insert(token, time);
            }
            TraceEvent::TxnDone {
                time, token, kind, ..
            } => match open.remove(&token) {
                Some(started) => {
                    samples[kind.index()].push(time.saturating_sub(started));
                }
                None => m.unmatched_done += 1,
            },
            TraceEvent::MesiTransition { from, to, .. } => {
                m.mesi_transitions[from.index()][to.index()] += 1;
            }
            TraceEvent::ShuEncrypt { stall, .. } => {
                m.shu_encrypts += 1;
                m.shu_stall_cycles += stall;
            }
            TraceEvent::ShuVerify { .. } => m.shu_verifies += 1,
            TraceEvent::MemFill { .. } => m.mem_fills += 1,
        }
    }
    m.open_spans = open.len() as u64;
    for (idx, class_samples) in samples.iter_mut().enumerate() {
        m.txn_latency[idx] = LatencySummary::from_samples(class_samples);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(token: u64, kind: TxnClass, start: u64, end: u64, busy: u64) -> Vec<TraceEvent> {
        vec![
            TraceEvent::BusGrant {
                time: start,
                pid: 0,
                token,
                kind,
                addr: 64,
                queue_depth: 0,
                busy,
            },
            TraceEvent::TxnStart {
                time: start,
                pid: 0,
                token,
                kind,
                addr: 64,
            },
            TraceEvent::TxnDone {
                time: end,
                pid: 0,
                token,
                kind,
                addr: 64,
            },
        ]
    }

    #[test]
    fn fold_counts_latency_and_busy() {
        let mut events = Vec::new();
        events.extend(span(1, TxnClass::Read, 0, 180, 2));
        events.extend(span(2, TxnClass::Read, 100, 220, 2));
        events.extend(span(3, TxnClass::Upgrade, 300, 301, 1));
        let m = fold(&events, 100);
        assert_eq!(m.txn_counts[TxnClass::Read.index()], 2);
        assert_eq!(m.txn_counts[TxnClass::Upgrade.index()], 1);
        assert_eq!(m.bus_busy_cycles, 5);
        let read = m.txn_latency[TxnClass::Read.index()];
        assert_eq!(read.count, 2);
        assert_eq!(read.p50, 120);
        assert_eq!(read.max, 180);
        assert_eq!(read.total, 300);
        assert_eq!(m.last_cycle, 301);
        assert_eq!(m.open_spans, 0);
        assert_eq!(m.unmatched_done, 0);
        // Buckets: [0,100) gets 2, [100,200) gets 2, [300,400) gets 1.
        assert_eq!(m.busy_timeline, vec![2, 2, 0, 1]);
    }

    #[test]
    fn busy_interval_splits_across_bucket_boundary() {
        let events = vec![TraceEvent::BusGrant {
            time: 95,
            pid: 0,
            token: 1,
            kind: TxnClass::Writeback,
            addr: 0,
            queue_depth: 0,
            busy: 10,
        }];
        let m = fold(&events, 100);
        assert_eq!(m.busy_timeline, vec![5, 5]);
        assert_eq!(m.bus_busy_cycles, 10);
        assert_eq!(m.last_cycle, 105);
    }

    #[test]
    fn truncated_traces_are_reported_not_miscounted() {
        // A done without its start (ring wrapped) and a start without
        // its done (still in flight).
        let events = vec![
            TraceEvent::TxnDone {
                time: 10,
                pid: 0,
                token: 7,
                kind: TxnClass::Read,
                addr: 0,
            },
            TraceEvent::TxnStart {
                time: 20,
                pid: 0,
                token: 8,
                kind: TxnClass::Read,
                addr: 0,
            },
        ];
        let m = fold(&events, 64);
        assert_eq!(m.unmatched_done, 1);
        assert_eq!(m.open_spans, 1);
        assert_eq!(m.txn_latency[TxnClass::Read.index()].count, 0);
    }

    #[test]
    fn mesi_and_security_counters() {
        let events = vec![
            TraceEvent::MesiTransition {
                time: 1,
                pid: 0,
                addr: 0,
                from: MesiPoint::Invalid,
                to: MesiPoint::Exclusive,
            },
            TraceEvent::MesiTransition {
                time: 2,
                pid: 1,
                addr: 0,
                from: MesiPoint::Exclusive,
                to: MesiPoint::Shared,
            },
            TraceEvent::ShuEncrypt {
                time: 3,
                pid: 0,
                token: 1,
                stall: 4,
            },
            TraceEvent::ShuVerify {
                time: 4,
                pid: 0,
                token: 1,
                auth_round: 1,
            },
            TraceEvent::MemFill {
                time: 5,
                pid: 0,
                token: 2,
                addr: 64,
            },
        ];
        let m = fold(&events, 16);
        assert_eq!(
            m.mesi_transitions[MesiPoint::Invalid.index()][MesiPoint::Exclusive.index()],
            1
        );
        assert_eq!(
            m.mesi_transitions[MesiPoint::Exclusive.index()][MesiPoint::Shared.index()],
            1
        );
        assert_eq!(m.shu_encrypts, 1);
        assert_eq!(m.shu_stall_cycles, 4);
        assert_eq!(m.shu_verifies, 1);
        assert_eq!(m.mem_fills, 1);
    }

    #[test]
    fn json_is_deterministic_and_skips_zero_rows() {
        let mut events = Vec::new();
        events.extend(span(1, TxnClass::Auth, 5, 6, 1));
        let m = fold(&events, 10);
        let a = m.to_json();
        let b = fold(&events, 10).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\":\"senss.trace.derived.v1\""));
        assert!(a.contains("\"auth\":{\"count\":1"));
        // Classes with zero transactions are omitted.
        assert!(!a.contains("\"read\":"));
        assert!(a.contains("\"mesi_transitions\":{}"));
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let m = fold(&[], 0);
        assert_eq!(m.bucket_cycles, 1);
        assert_eq!(m.total_transactions(), 0);
        assert_eq!(m.bus_utilization(), 0.0);
        assert!(m.busy_timeline.is_empty());
    }
}
