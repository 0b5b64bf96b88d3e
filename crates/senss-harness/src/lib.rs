//! # senss-harness — parallel, fault-tolerant experiment execution
//!
//! Every figure and sweep in the SENSS reproduction is, at bottom, the
//! same computation: a grid of `(workload, core count, security mode,
//! cache geometry)` points, each point an independent simulation whose
//! [`Stats`](senss_sim::Stats) feed a table or CSV. This crate factors
//! that shape out of the figure binaries:
//!
//! * [`spec`] — declare a sweep as data: [`JobSpec`] pins every
//!   parameter of one simulation, [`SweepSpec`] collects jobs (with a
//!   [`SweepSpec::grid`] cross-product helper), [`SecurityMode`] and
//!   [`TraceSpec`] name the experiment axes.
//! * [`executor`] — run the sweep on a worker pool, each job once with
//!   panic isolation (failures are reported, never retried), an optional
//!   simulated-cycle budget, and deterministic result ordering: the
//!   output is identical for 1 worker or N.
//! * [`cache`] — a content-addressed result cache keyed by a stable
//!   hash of the full job configuration, persisted as JSONL under
//!   `results/cache/`, so re-running `run_figures.sh` only executes
//!   configs that changed.
//! * [`record`] — structured [`RunRecord`] output (one JSONL line per
//!   job under `results/records/`) carrying the full `Stats` plus wall
//!   time, worker id, attempt count and cache provenance.
//!
//! See `docs/harness.md` for the user-facing guide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod executor;
pub mod json;
pub mod record;
pub mod spec;

pub use cache::ResultCache;
pub use executor::{env_number, Harness, HarnessConfig, JobError, JobFailure, SweepResult};
pub use record::{decode_spec, encode_spec, RunRecord};
pub use spec::{
    coherence_from_tag, coherence_tag, JobSpec, SecurityMode, SweepSpec, TraceSpec, CACHE_FORMAT,
};
