//! The bridge between the figure binaries and the senss-harness
//! executor.
//!
//! Every figure binary follows the same pattern now: declare its grid as
//! a [`SweepSpec`], hand it to [`execute`] (which runs it on the shared
//! worker-pool executor with caching and run-record output), then look
//! results up by [`JobSpec`] to build its tables. The bespoke nested
//! simulation loops the binaries used to carry are gone.

pub use senss_harness::{
    Harness, HarnessConfig, JobSpec, RunRecord, SecurityMode, SweepResult, SweepSpec, TraceSpec,
};

use crate::{ops_per_core, overhead, seed, workload_columns, Overhead};
use senss_workloads::Workload;
use std::time::Instant;

/// Runs a sweep through the environment-configured harness
/// ([`HarnessConfig::from_env`]) — or, when the `SENSS_SERVE`
/// environment variable names a server address, remotely through that
/// `senss-serve` instance (see `docs/serving.md`).
///
/// The execution summary (jobs executed vs served from cache, worker
/// count, wall time) and any per-job failures go to **stderr**, so
/// figure output piped from stdout stays byte-identical regardless of
/// worker count, cache warmth, or local-vs-remote execution.
///
/// # Panics
///
/// Panics if the cache or record directories cannot be written, or if
/// the `SENSS_SERVE` server is unreachable or reports a failure.
pub fn execute(sweep: &SweepSpec) -> SweepResult {
    if let Some(addr) = std::env::var("SENSS_SERVE").ok().filter(|a| !a.is_empty()) {
        return execute_remote(sweep, &addr);
    }
    let result = Harness::from_env()
        .run(sweep)
        .expect("harness: cache/records I/O failed");
    eprintln!("{}", result.summary());
    for f in &result.failures {
        eprintln!(
            "harness[{}]: job {} ({}) failed: {}",
            result.name,
            f.index,
            f.spec.trace.tag(),
            f.error
        );
    }
    result
}

/// Ships the sweep to a `senss-serve` server, streams its result lines
/// as the jobs finish, and reassembles them into a [`SweepResult`]. The
/// wire's result lines carry no execution metadata, so the records come
/// back with zero wall time and no worker attribution — but the `stats`
/// are byte-identical to a local run, and that is all the figure tables
/// read. One `status` after the stream's end supplies the
/// executed/cached/failed summary.
fn execute_remote(sweep: &SweepSpec, addr: &str) -> SweepResult {
    let started = Instant::now();
    let die = |stage: &str, err: &dyn std::fmt::Display| -> ! {
        panic!("SENSS_SERVE={addr}: {stage} failed: {err}")
    };
    let client = senss_serve::Client::new(addr);
    let (id, _) = client.submit(sweep).unwrap_or_else(|e| die("submit", &e));
    let results = client.stream(id).unwrap_or_else(|e| die("stream", &e));
    let info = client.status(id).unwrap_or_else(|e| die("status", &e));
    assert!(
        info.failures == 0,
        "SENSS_SERVE={addr}: {} job(s) of sweep {id} failed on the server \
         (see the server's stderr for per-job errors)",
        info.failures
    );
    let records = results
        .into_iter()
        .map(|r| RunRecord {
            index: r.index as usize,
            spec: r.spec,
            key: r.key,
            stats: r.stats,
            wall_micros: 0,
            worker: None,
            cached: false,
        })
        .collect();
    let result = SweepResult::from_records(&sweep.name, records, 0, started.elapsed());
    eprintln!(
        "harness[{}]: remote via {addr}: {} executed, {} cached on the server; \
         {} record(s) fetched in {:.2?}",
        result.name,
        info.executed,
        info.cached,
        result.records.len(),
        result.wall
    );
    result
}

/// A job on workload `w` with the environment's ops/seed
/// (`SENSS_OPS`/`SENSS_SEED`), baseline mode; refine with the `with_`
/// builders.
pub fn point(w: Workload, cores: usize, l2: usize) -> JobSpec {
    JobSpec::new(w, cores, l2)
        .with_ops(ops_per_core())
        .with_seed(seed())
}

/// Per-workload overheads of `mode` vs the baseline at the same shape:
/// one [`Overhead`] per paper workload, in column order. Both the
/// baseline and secured jobs must be present in `result`.
pub fn workload_overheads(
    result: &SweepResult,
    cores: usize,
    l2: usize,
    mode: SecurityMode,
) -> Vec<Overhead> {
    workload_columns()
        .into_iter()
        .map(|w| {
            let base = result.require(&point(w, cores, l2));
            let sec = result.require(&point(w, cores, l2).with_mode(mode));
            overhead(sec, base)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_uses_env_defaults() {
        let p = point(Workload::Fft, 2, 1 << 20);
        assert_eq!(p.ops_per_core, ops_per_core());
        assert_eq!(p.seed, seed());
        assert_eq!(p.mode, SecurityMode::Baseline);
    }

    #[test]
    fn workload_overheads_reads_back_a_sweep() {
        // A hermetic in-process run: tiny ops, no cache/records.
        let mut sweep = SweepSpec::new("");
        let mode = SecurityMode::senss();
        for w in workload_columns() {
            sweep.push(point(w, 2, 1 << 20).with_ops(400));
            sweep.push(point(w, 2, 1 << 20).with_ops(400).with_mode(mode));
        }
        let result = Harness::new(HarnessConfig::hermetic()).run(&sweep).unwrap();
        assert!(result.is_complete());
        // Look up through the same spec constructors the binaries use.
        let w = workload_columns()[0];
        let base = result.require(&point(w, 2, 1 << 20).with_ops(400));
        let sec = result.require(&point(w, 2, 1 << 20).with_ops(400).with_mode(mode));
        assert!(base.total_cycles > 0);
        assert!(sec.txn_auth <= sec.cache_to_cache_transfers);
    }
}
