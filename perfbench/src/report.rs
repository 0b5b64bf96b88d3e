//! What one benchmark run produces: named metrics with units, the
//! sample counts behind every percentile, and the attempted/failed
//! operation tally that feeds `failure_rate`.

use std::collections::BTreeMap;
use std::time::Duration;

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `q` percent of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-th percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q`-th percentile's rank. A percentile
/// is only trusted with at least [`MIN_BEYOND`] of them.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Minimum samples beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of unsorted values (lower middle for even counts, so it is
/// always a measured value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Sample count behind each percentile family.
    pub samples: BTreeMap<String, usize>,
    /// Percentiles reported with fewer than [`MIN_BEYOND`] samples
    /// beyond them.
    pub thin_percentiles: Vec<String>,
    /// Operations attempted (jobs, sweeps, trace requests, checks).
    pub attempted: u64,
    /// Operations that failed, mismatched their expected output, or
    /// were refused.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets `name`, replacing any earlier value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Sets `name` only if the workload did not already measure it.
    pub fn set_default(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .entry(name.to_string())
            .or_insert((value, unit));
    }

    /// Whether `name` has a value.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// Counts one attempted operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted operation that failed.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    /// Records `prefix_pXX_ms` for each percentile in `qs` over
    /// `samples` (milliseconds), with the sample count.
    pub fn percentiles(&mut self, prefix: &str, samples: &[f64], qs: &[u32]) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.samples.insert(prefix.to_string(), sorted.len());
        for &q in qs {
            let name = format!("{prefix}_p{q}_ms");
            if samples_beyond(sorted.len(), f64::from(q)) < MIN_BEYOND {
                self.thin_percentiles.push(name.clone());
            }
            if !sorted.is_empty() {
                self.set(&name, nearest_rank(&sorted, f64::from(q)), "ms");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 90.0), 90.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 95.0), 7.0);
        // Rank rounds up: the 50th percentile of 3 samples is the 2nd.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 needs 100 samples, p95 200, p99 1000.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
        let mut r = Report::default();
        r.percentiles("x", &vec![1.0; 150], &[50, 90, 95]);
        assert_eq!(r.thin_percentiles, vec!["x_p95_ms".to_string()]);
        assert_eq!(r.samples["x"], 150);
        assert!(r.has("x_p95_ms"));
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut r = Report::default();
        r.ok();
        r.fail("boom");
        assert_eq!((r.attempted, r.failed), (2, 1));
    }
}
