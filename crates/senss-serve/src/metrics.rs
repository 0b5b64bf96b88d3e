//! In-process metrics registry, snapshotted into `metrics` responses.
//!
//! Everything is a lock-free [`AtomicU64`]; a snapshot is a plain JSON
//! object so clients (and the CLI) can render it without a schema. The
//! glossary of every counter lives in `docs/serving.md`.

use senss_harness::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::protocol::ErrorClass;

/// Upper bucket bounds of the request wall-latency histogram, in
/// microseconds. The final bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

const BUCKET_LABELS: [&str; 7] = [
    "le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "inf",
];

/// A fixed-bucket wall-latency histogram.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 7],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn observe(&self, wall: Duration) {
        let micros = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        let slot = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> Value {
        let mut fields: Vec<(String, Value)> = BUCKET_LABELS
            .iter()
            .zip(&self.buckets)
            .map(|(label, b)| (label.to_string(), Value::UInt(b.load(Ordering::Relaxed))))
            .collect();
        fields.push((
            "sum_micros".to_string(),
            Value::UInt(self.sum_micros.load(Ordering::Relaxed)),
        ));
        fields.push(("count".to_string(), Value::UInt(self.count())));
        Value::Obj(fields)
    }
}

/// The server's metrics registry. One instance per server, shared by
/// every thread; all counters are monotonic except the `*_depth`
/// gauges.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted (including ones rejected for backpressure).
    pub connections_total: AtomicU64,
    /// Connections turned away because the pending-connection queue was
    /// full.
    pub connections_rejected: AtomicU64,
    /// Requests fully parsed and dispatched.
    pub requests_total: AtomicU64,
    /// `submit` requests accepted (a rejected submit counts as an
    /// error, not here).
    pub requests_submit: AtomicU64,
    /// `status` requests served.
    pub requests_status: AtomicU64,
    /// `stream` requests served.
    pub requests_stream: AtomicU64,
    /// `trace` requests served.
    pub requests_trace: AtomicU64,
    /// `metrics` requests served.
    pub requests_metrics: AtomicU64,
    /// `ping` requests served.
    pub requests_ping: AtomicU64,
    /// `shutdown` requests served.
    pub requests_shutdown: AtomicU64,
    /// Error responses sent, by [`ErrorClass`] (same order as
    /// [`ErrorClass::ALL`]).
    errors: [AtomicU64; ErrorClass::ALL.len()],
    /// Sweeps accepted into the queue.
    pub sweeps_submitted: AtomicU64,
    /// Sweeps that ran to completion (even with per-job failures).
    pub sweeps_completed: AtomicU64,
    /// Sweeps that failed server-side (harness I/O error).
    pub sweeps_failed: AtomicU64,
    /// Jobs actually executed by the harness (cache misses).
    pub jobs_executed: AtomicU64,
    /// Jobs served from the harness result cache.
    pub jobs_cached: AtomicU64,
    /// Jobs that failed permanently inside completed sweeps.
    pub jobs_failed: AtomicU64,
    /// Jobs whose result came from a warm-start checkpoint fork instead
    /// of a cold re-simulation (a subset of `jobs_executed`).
    pub jobs_forked: AtomicU64,
    /// Corrupt or truncated result-cache lines skipped while opening
    /// the cache (accumulated across sweeps; 0 when the cache is off or
    /// healthy).
    pub cache_lines_skipped: AtomicU64,
    /// Current depth of the sweep queue (gauge).
    pub queue_depth: AtomicU64,
    /// High-water mark of the sweep queue.
    pub queue_depth_max: AtomicU64,
    /// Open client connections on the event loop (gauge).
    pub connections_open: AtomicU64,
    /// Jobs handed to cluster workers, one per dispatch (0 unless
    /// running as a coordinator).
    pub shards_dispatched: AtomicU64,
    /// Jobs re-dispatched after a worker error or death.
    pub shard_retries: AtomicU64,
    /// Worker processes respawned after dying or misbehaving.
    pub workers_respawned: AtomicU64,
    /// Per-worker counters, sized by [`Metrics::with_workers`]; empty
    /// outside coordinator mode.
    workers: Vec<WorkerStats>,
    /// Request wall-latency histogram (parse → response flushed).
    pub latency: LatencyHistogram,
}

/// Per-worker-slot counters for coordinator mode. A slot survives its
/// process: when a worker dies and is respawned, the replacement keeps
/// accumulating into the same slot.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Jobs this worker slot ran to a result line.
    pub jobs: AtomicU64,
    /// Times this slot's process was respawned.
    pub respawns: AtomicU64,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// A zeroed registry with `n` per-worker counter slots, for
    /// coordinator mode. The snapshot gains `worker_{i}_jobs` and
    /// `worker_{i}_respawns` fields.
    pub fn with_workers(n: usize) -> Metrics {
        Metrics {
            workers: (0..n).map(|_| WorkerStats::default()).collect(),
            ..Metrics::default()
        }
    }

    /// The per-worker counters for slot `i`, if this registry has them.
    pub fn worker(&self, i: usize) -> Option<&WorkerStats> {
        self.workers.get(i)
    }

    /// Counts one dispatched request of the given wire kind.
    pub fn record_request(&self, kind: &str) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let counter = match kind {
            "submit" => &self.requests_submit,
            "status" => &self.requests_status,
            "stream" => &self.requests_stream,
            "trace" => &self.requests_trace,
            "metrics" => &self.requests_metrics,
            "ping" => &self.requests_ping,
            "shutdown" => &self.requests_shutdown,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one error response of the given class.
    pub fn record_error(&self, class: ErrorClass) {
        let slot = ErrorClass::ALL.iter().position(|&c| c == class).unwrap();
        self.errors[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Error responses sent for `class` so far.
    pub fn errors(&self, class: ErrorClass) -> u64 {
        let slot = ErrorClass::ALL.iter().position(|&c| c == class).unwrap();
        self.errors[slot].load(Ordering::Relaxed)
    }

    /// Moves the queue-depth gauge after a push.
    pub fn queue_pushed(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Moves the queue-depth gauge after a pop. Saturates at zero: an
    /// unmatched pop is a caller bug, but it must not wrap the gauge to
    /// `u64::MAX` and poison the high-water mark through `fetch_max`.
    pub fn queue_popped(&self) {
        let saturate = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
        debug_assert!(saturate.is_ok(), "fetch_update with Some never fails");
    }

    /// Snapshots every counter into a JSON object.
    pub fn snapshot(&self) -> Value {
        let get = |a: &AtomicU64| Value::UInt(a.load(Ordering::Relaxed));
        let mut fields = vec![
            (
                "connections_total".to_string(),
                get(&self.connections_total),
            ),
            (
                "connections_rejected".to_string(),
                get(&self.connections_rejected),
            ),
            ("requests_total".to_string(), get(&self.requests_total)),
            ("requests_submit".to_string(), get(&self.requests_submit)),
            ("requests_status".to_string(), get(&self.requests_status)),
            ("requests_stream".to_string(), get(&self.requests_stream)),
            ("requests_trace".to_string(), get(&self.requests_trace)),
            ("requests_metrics".to_string(), get(&self.requests_metrics)),
            ("requests_ping".to_string(), get(&self.requests_ping)),
            (
                "requests_shutdown".to_string(),
                get(&self.requests_shutdown),
            ),
            ("sweeps_submitted".to_string(), get(&self.sweeps_submitted)),
            ("sweeps_completed".to_string(), get(&self.sweeps_completed)),
            ("sweeps_failed".to_string(), get(&self.sweeps_failed)),
            ("jobs_executed".to_string(), get(&self.jobs_executed)),
            ("jobs_cached".to_string(), get(&self.jobs_cached)),
            ("jobs_failed".to_string(), get(&self.jobs_failed)),
            ("jobs_forked".to_string(), get(&self.jobs_forked)),
            (
                "cache_lines_skipped".to_string(),
                get(&self.cache_lines_skipped),
            ),
            ("queue_depth".to_string(), get(&self.queue_depth)),
            ("queue_depth_max".to_string(), get(&self.queue_depth_max)),
            ("connections_open".to_string(), get(&self.connections_open)),
            (
                "shards_dispatched".to_string(),
                get(&self.shards_dispatched),
            ),
            ("shard_retries".to_string(), get(&self.shard_retries)),
            (
                "workers_respawned".to_string(),
                get(&self.workers_respawned),
            ),
        ];
        for (i, w) in self.workers.iter().enumerate() {
            fields.push((format!("worker_{i}_jobs"), get(&w.jobs)));
            fields.push((format!("worker_{i}_respawns"), get(&w.respawns)));
        }
        for (class, counter) in ErrorClass::ALL.iter().zip(&self.errors) {
            fields.push((format!("errors_{}", class.tag()), get(counter)));
        }
        fields.push(("latency_micros".to_string(), self.latency.snapshot()));
        Value::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_sum() {
        let h = LatencyHistogram::default();
        h.observe(Duration::from_micros(50)); // le_100us
        h.observe(Duration::from_micros(500)); // le_1ms
        h.observe(Duration::from_millis(5)); // le_10ms
        h.observe(Duration::from_secs(60)); // inf
        assert_eq!(h.count(), 4);
        let snap = h.snapshot();
        assert_eq!(snap.get("le_100us").unwrap().as_u64(), Some(1));
        assert_eq!(snap.get("le_1ms").unwrap().as_u64(), Some(1));
        assert_eq!(snap.get("le_10ms").unwrap().as_u64(), Some(1));
        assert_eq!(snap.get("le_100ms").unwrap().as_u64(), Some(0));
        assert_eq!(snap.get("inf").unwrap().as_u64(), Some(1));
        assert_eq!(
            snap.get("sum_micros").unwrap().as_u64(),
            Some(50 + 500 + 5_000 + 60_000_000)
        );
    }

    #[test]
    fn snapshot_carries_every_error_class_and_gauge() {
        let m = Metrics::new();
        m.record_request("submit");
        m.record_request("metrics");
        m.record_error(ErrorClass::Overloaded);
        m.record_error(ErrorClass::Overloaded);
        m.queue_pushed();
        m.queue_pushed();
        m.queue_popped();
        let snap = m.snapshot();
        assert_eq!(snap.get("requests_total").unwrap().as_u64(), Some(2));
        assert_eq!(snap.get("requests_submit").unwrap().as_u64(), Some(1));
        assert_eq!(snap.get("errors_overloaded").unwrap().as_u64(), Some(2));
        assert_eq!(snap.get("errors_malformed").unwrap().as_u64(), Some(0));
        assert_eq!(snap.get("queue_depth").unwrap().as_u64(), Some(1));
        assert_eq!(snap.get("queue_depth_max").unwrap().as_u64(), Some(2));
        assert_eq!(m.errors(ErrorClass::Overloaded), 2);
    }

    #[test]
    fn per_worker_slots_appear_in_the_snapshot() {
        let m = Metrics::with_workers(2);
        m.worker(0).unwrap().jobs.fetch_add(3, Ordering::Relaxed);
        m.worker(1).unwrap().jobs.fetch_add(7, Ordering::Relaxed);
        m.worker(1)
            .unwrap()
            .respawns
            .fetch_add(1, Ordering::Relaxed);
        assert!(m.worker(2).is_none());
        let snap = m.snapshot();
        assert_eq!(snap.get("worker_0_jobs").unwrap().as_u64(), Some(3));
        assert_eq!(snap.get("worker_0_respawns").unwrap().as_u64(), Some(0));
        assert_eq!(snap.get("worker_1_jobs").unwrap().as_u64(), Some(7));
        assert_eq!(snap.get("worker_1_respawns").unwrap().as_u64(), Some(1));
        // Plain registries carry no per-worker fields at all.
        assert!(Metrics::new().snapshot().get("worker_0_jobs").is_none());
    }

    #[test]
    fn unmatched_pop_saturates_instead_of_wrapping() {
        let m = Metrics::new();
        m.queue_pushed();
        m.queue_popped();
        // Regression: this unmatched pop used to wrap the gauge to
        // u64::MAX, and the next push then froze the high-water mark there.
        m.queue_popped();
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
        m.queue_pushed();
        let snap = m.snapshot();
        assert_eq!(snap.get("queue_depth").unwrap().as_u64(), Some(1));
        assert_eq!(snap.get("queue_depth_max").unwrap().as_u64(), Some(1));
    }
}
