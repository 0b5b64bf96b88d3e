//! Figure-regeneration harness for the SENSS reproduction.
//!
//! One binary per paper figure/table lives in `src/bin/`; this library
//! holds the shared machinery: declaring a figure's grid of jobs over
//! the five SPLASH-2-like workloads ([`sweeps`]), running it through the
//! harness, and formatting the result tables.
//!
//! The binaries intentionally print the *same rows/series* as the paper's
//! figures so paper-vs-measured comparison is mechanical; see
//! `EXPERIMENTS.md` at the repository root for the recorded comparison.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backends;
pub mod sweeps;

use senss_harness::env_number;
use senss_sim::Stats;
use senss_workloads::Workload;

/// Default operations per core for figure runs (override with the
/// `SENSS_OPS` environment variable).
pub const DEFAULT_OPS: usize = 30_000;

/// Default workload seed (override with `SENSS_SEED`).
pub const DEFAULT_SEED: u64 = 42;

/// Reads the per-core operation count from `SENSS_OPS`; panics if malformed.
pub fn ops_per_core() -> usize {
    env_number(|k| std::env::var(k).ok(), "SENSS_OPS").unwrap_or(DEFAULT_OPS)
}

/// Reads the workload seed from `SENSS_SEED`; panics if malformed.
pub fn seed() -> u64 {
    env_number(|k| std::env::var(k).ok(), "SENSS_SEED").unwrap_or(DEFAULT_SEED)
}

/// Snapshot of the environment knobs every figure binary honours:
/// the simulation size (`SENSS_OPS`/`SENSS_SEED`) plus how sweeps will
/// execute (`HARNESS_WORKERS`, `HARNESS_NO_CACHE`, `SENSS_SERVE`).
///
/// The binaries call [`RunEnv::banner`] first thing; it prints the
/// figure title and ops/seed line to **stdout** — byte-identical no
/// matter how the sweep executes — and the execution knobs to
/// **stderr**, preserving the piped-stdout determinism invariant.
#[derive(Debug, Clone)]
pub struct RunEnv {
    /// Operations per core (`SENSS_OPS`).
    pub ops: usize,
    /// Workload seed (`SENSS_SEED`).
    pub seed: u64,
    /// Worker-count override (`HARNESS_WORKERS`); `None` = auto.
    pub workers: Option<usize>,
    /// Whether the result cache is enabled (`HARNESS_NO_CACHE` unset).
    pub cache: bool,
    /// Remote `senss-serve` address (`SENSS_SERVE`); `None` = run
    /// sweeps in-process.
    pub serve: Option<String>,
}

impl RunEnv {
    /// Reads every knob from the environment; a malformed number panics
    /// with the variable's name and value ([`env_number`]).
    pub fn from_env() -> RunEnv {
        RunEnv::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`from_env`](RunEnv::from_env) with the variable lookup injected.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> RunEnv {
        RunEnv {
            ops: env_number(&lookup, "SENSS_OPS").unwrap_or(DEFAULT_OPS),
            seed: env_number(&lookup, "SENSS_SEED").unwrap_or(DEFAULT_SEED),
            workers: env_number(&lookup, "HARNESS_WORKERS"),
            cache: lookup("HARNESS_NO_CACHE").is_none(),
            serve: lookup("SENSS_SERVE").filter(|a| !a.is_empty()),
        }
    }

    /// The standard figure banner: title line plus the ops/seed line.
    pub fn banner(&self, title: &str) {
        println!("=== {title} ===");
        println!("ops/core = {}, seed = {}\n", self.ops, self.seed);
        self.log_knobs();
    }

    /// Banner for figures whose stdout doesn't lead with ops/seed (the
    /// hardware-accounting table, the variability study).
    pub fn banner_bare(&self, title: &str) {
        println!("=== {title} ===\n");
        self.log_knobs();
    }

    /// One stderr line describing how sweeps will execute.
    pub fn log_knobs(&self) {
        let workers = match self.workers {
            Some(w) => w.to_string(),
            None => "auto".to_string(),
        };
        let exec = match &self.serve {
            Some(addr) => format!("remote via {addr}"),
            None => "in-process".to_string(),
        };
        eprintln!(
            "env: {exec}, workers = {workers}, cache = {}",
            if self.cache { "on" } else { "off" }
        );
    }
}

/// The paper's five workloads plus the derived "average" column.
pub fn workload_columns() -> Vec<Workload> {
    Workload::all().to_vec()
}

/// Formats a figure table: one row label + per-workload values + average.
pub fn format_table(title: &str, rows: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<28}", "configuration"));
    for w in workload_columns() {
        out.push_str(&format!("{:>9}", w.name()));
    }
    out.push_str(&format!("{:>9}\n", "average"));
    out.push_str(&"-".repeat(28 + 9 * 6));
    out.push('\n');
    for (label, values) in rows {
        out.push_str(&format!("{label:<28}"));
        for v in values {
            out.push_str(&format!("{v:>9.3}"));
        }
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        out.push_str(&format!("{avg:>9.3}\n"));
    }
    out
}

/// Writes a figure's rows as CSV under `results/` when the `SENSS_CSV`
/// environment variable is set (any value). The figure binaries call this
/// after printing the human-readable table.
///
/// # Panics
///
/// Panics if the `results/` directory cannot be written.
pub fn maybe_write_csv(figure: &str, rows: &[(String, Vec<f64>)]) {
    if std::env::var_os("SENSS_CSV").is_none() {
        return;
    }
    let mut csv = String::from("configuration");
    for w in workload_columns() {
        csv.push(',');
        csv.push_str(w.name());
    }
    csv.push_str(
        ",average
",
    );
    for (label, values) in rows {
        csv.push_str(label);
        for v in values {
            csv.push_str(&format!(",{v:.6}"));
        }
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        csv.push_str(&format!(
            ",{avg:.6}
"
        ));
    }
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(format!("results/{figure}.csv"), csv).expect("write csv");
}

/// Convenience: the slowdown/traffic pair of a secured run vs baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Percentage slowdown (positive = slower).
    pub slowdown_pct: f64,
    /// Percentage increase in total bus transactions.
    pub traffic_pct: f64,
}

/// Computes both headline metrics.
pub fn overhead(secured: &Stats, baseline: &Stats) -> Overhead {
    Overhead {
        slowdown_pct: secured.slowdown_vs(baseline),
        traffic_pct: secured.bus_increase_vs(baseline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_includes_average() {
        let t = format_table(
            "Figure X",
            &[("row".to_string(), vec![1.0, 2.0, 3.0, 4.0, 5.0])],
        );
        assert!(t.contains("Figure X"));
        assert!(t.contains("fft"));
        assert!(t.contains("3.000"), "{t}");
    }

    #[test]
    fn env_defaults() {
        assert!(ops_per_core() > 0);
        let _ = seed();
    }

    #[test]
    fn run_env_reads_its_lookup() {
        let env = RunEnv::from_lookup(|key| match key {
            "SENSS_OPS" => Some("2000".to_string()),
            "SENSS_SEED" => Some("7".to_string()),
            "HARNESS_NO_CACHE" => Some(String::new()),
            "SENSS_SERVE" => Some(String::new()),
            _ => None,
        });
        assert_eq!((env.ops, env.seed, env.workers), (2000, 7, None));
        assert!(!env.cache);
        assert_eq!(env.serve, None);
    }

    #[test]
    #[should_panic(expected = "SENSS_OPS must be a non-negative integer, got \"2k\"")]
    fn malformed_ops_fail_loudly() {
        // Regression: `SENSS_OPS=2k` used to run at the 30 000 default.
        RunEnv::from_lookup(|key| (key == "SENSS_OPS").then(|| "2k".to_string()));
    }

    #[test]
    #[should_panic(expected = "SENSS_SEED must be a non-negative integer, got \"-1\"")]
    fn malformed_seed_fails_loudly() {
        RunEnv::from_lookup(|key| (key == "SENSS_SEED").then(|| "-1".to_string()));
    }

    #[test]
    #[should_panic(expected = "HARNESS_WORKERS must be a non-negative integer, got \"two\"")]
    fn malformed_workers_fail_loudly() {
        // Regression: `HARNESS_WORKERS=two` used to log `workers = auto`.
        RunEnv::from_lookup(|key| (key == "HARNESS_WORKERS").then(|| "two".to_string()));
    }

    #[test]
    fn run_env_matches_free_functions() {
        let env = RunEnv::from_env();
        assert_eq!(env.ops, ops_per_core());
        assert_eq!(env.seed, seed());
        // Smoke the stderr line; stdout is covered by the figures-smoke
        // determinism test.
        env.log_knobs();
    }
}
