//! Expected simulation outputs, committed beside the benchmark.
//!
//! Every job the `figure-cold` and `harness-churn` workloads can run is
//! listed in `expected/jobs.txt` with its simulator event count and a
//! digest of its full [`Stats`]. A run compares every job it completes
//! against that table, so a change that alters simulated results shows
//! up as failures, never as speed.

use crate::report::Report;
use senss_crypto::sha256::Sha256;
use senss_harness::{Harness, HarnessConfig, JobSpec, SweepSpec};
use senss_sim::Stats;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// Benchmark-local job label: every field that determines the result.
pub fn label(job: &JobSpec) -> String {
    format!(
        "{}|p{}|l2={}|{}|ops{}|seed{}",
        job.trace.tag(),
        job.cores,
        job.l2_bytes,
        job.mode.tag(),
        job.ops_per_core,
        job.seed
    )
}

/// SHA-256 (first 16 hex digits) over every field of `stats`, listed
/// explicitly so the digest does not depend on any serializer.
pub fn digest(s: &Stats) -> String {
    let mut text = String::new();
    for v in [
        s.total_cycles,
        s.ops_executed,
        s.l1_hits,
        s.l1_misses,
        s.l2_hits,
        s.l2_misses,
        s.upgrades,
        s.txn_read,
        s.txn_read_exclusive,
        s.txn_upgrade,
        s.txn_update,
        s.txn_writeback,
        s.txn_hash_fetch,
        s.txn_hash_writeback,
        s.txn_auth,
        s.txn_pad_invalidate,
        s.txn_pad_request,
        s.cache_to_cache_transfers,
        s.memory_transfers,
        s.bus_busy_cycles,
        s.bus_bytes,
        s.mask_stall_cycles,
        s.integrity_check_cycles,
        s.mask_stalled_transfers,
    ] {
        let _ = write!(text, "{v},");
    }
    for list in [&s.core_finish_times, &s.core_ops] {
        text.push('|');
        for v in list {
            let _ = write!(text, "{v},");
        }
    }
    Sha256::digest(text.as_bytes())[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// One committed job outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Simulator main-loop events (`System::events_processed`).
    pub events: u64,
    /// Simulated cycles, for human inspection of the file.
    pub cycles: u64,
    /// [`digest`] of the job's stats.
    pub digest: String,
}

/// The committed table, keyed by [`label`].
#[derive(Debug, Default)]
pub struct Expected {
    jobs: HashMap<String, Outcome>,
}

impl Expected {
    /// Parses the `label events cycles digest` lines of `text`.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut jobs = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("line {}: expected `label events cycles digest`", n + 1);
            if f.len() != 4 {
                return Err(bad());
            }
            let outcome = Outcome {
                events: f[1].parse().map_err(|_| bad())?,
                cycles: f[2].parse().map_err(|_| bad())?,
                digest: f[3].to_string(),
            };
            jobs.insert(f[0].to_string(), outcome);
        }
        Ok(Expected { jobs })
    }

    /// Reads the table from `path`.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Expected::parse(&text)
    }

    /// The committed outcome of `job`, if listed.
    pub fn get(&self, job: &JobSpec) -> Option<&Outcome> {
        self.jobs.get(&label(job))
    }

    /// Compares `stats` with the committed outcome of `job`, counting
    /// the check in `report`. Returns the job's event count on a match.
    pub fn check(&self, report: &mut Report, job: &JobSpec, stats: &Stats) -> Option<u64> {
        match self.get(job) {
            Some(o) if o.digest == digest(stats) => {
                report.ok();
                Some(o.events)
            }
            Some(_) => {
                report.fail(format!("stats mismatch for {}", label(job)));
                None
            }
            None => {
                report.fail(format!("no expected outcome for {}", label(job)));
                None
            }
        }
    }
}

/// Simulates every job of `jobs` (two harness workers) and renders the
/// expected-outcome table, sorted by label.
pub fn generate(jobs: &[JobSpec]) -> String {
    let mut sweep = SweepSpec::new("expected");
    for job in jobs {
        sweep.push(*job);
    }
    let events = Mutex::new(HashMap::new());
    let harness = Harness::new(HarnessConfig::hermetic().with_workers(2));
    let result = harness
        .run_with(&sweep, |job| {
            let (stats, n) = job.run_counting();
            events.lock().unwrap().insert(label(job), n);
            stats
        })
        .expect("hermetic harness does no I/O");
    assert!(
        result.is_complete(),
        "a pool job failed: {:?}",
        result.failures
    );
    let events = events.into_inner().unwrap();
    let mut lines: Vec<String> = result
        .records
        .iter()
        .map(|r| {
            let l = label(&r.spec);
            format!(
                "{l} {} {} {}",
                events[&l],
                r.stats.total_cycles,
                digest(&r.stats)
            )
        })
        .collect();
    lines.sort();
    lines.dedup();
    let mut out = String::from(
        "# perfbench expected job outcomes: label events total_cycles stats-digest\n\
         # regenerate with: perfbench --regen-expected\n",
    );
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use senss_workloads::Workload;

    #[test]
    fn forced_stats_mismatch_counts_as_failure() {
        let job = JobSpec::new(Workload::Fft, 2, 1 << 20).with_ops(50);
        let (stats, events) = job.run_counting();
        let table = format!(
            "{} {events} {} {}\n",
            label(&job),
            stats.total_cycles,
            digest(&stats)
        );
        let expected = Expected::parse(&table).unwrap();
        let mut report = Report::default();
        assert_eq!(expected.check(&mut report, &job, &stats), Some(events));
        let mut forced = stats.clone();
        forced.total_cycles += 1;
        assert_eq!(expected.check(&mut report, &job, &forced), None);
        let unknown = job.with_seed(7);
        assert_eq!(expected.check(&mut report, &unknown, &stats), None);
        assert_eq!((report.attempted, report.failed), (3, 2));
    }

    #[test]
    fn digest_covers_per_core_lists() {
        let a = Stats {
            core_ops: vec![1, 2],
            ..Stats::default()
        };
        let b = Stats {
            core_ops: vec![2, 1],
            ..Stats::default()
        };
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }

    #[test]
    fn malformed_table_is_rejected() {
        assert!(Expected::parse("a 1 2\n").is_err());
        assert!(Expected::parse("a x 2 d\n").is_err());
        assert!(Expected::parse("# comment\n\n").is_ok());
    }
}
