//! # senss-serve — the networked simulation service
//!
//! The paper's deployment story (§4.1) is a client dispatching work to
//! a trusted processor group over an untrusted transport; this crate is
//! that serving path for the reproduction: a std-only, multi-threaded
//! TCP service exposing the [`senss_harness`] executor over a
//! newline-delimited JSON protocol.
//!
//! * [`protocol`] — versioned request/response frames (`submit` a
//!   [`SweepSpec`](senss_harness::SweepSpec), `status`, progressive
//!   `stream`, `trace`, `metrics`, `shutdown`) plus the deterministic
//!   per-job result-line codec.
//! * [`server`] — a `poll(2)`-based event loop (one thread, every
//!   connection; see [`sys`]) woken by job completions rather than a
//!   timer, over a bounded job queue that **rejects
//!   with a retriable `overloaded` error instead of blocking**;
//!   idle/stalled-connection reclaim; malformed frames answered, never
//!   fatal; drain-then-exit shutdown.
//! * [`coordinator`] / [`worker`] — the cluster tier: a coordinator's
//!   harness serves cache hits and runs each miss on an idle,
//!   hermetic `senss-serve worker` child process — a filter answering
//!   one job line on its stdin with one result line on its stdout —
//!   with kill-and-respawn retry, byte-identically to a local run.
//! * [`metrics`] — lock-free in-process registry (request/error
//!   counters, executed-vs-cached jobs, queue-depth and
//!   open-connection gauges, per-worker job counters, wall-latency
//!   histogram) snapshotted into `metrics` responses.
//! * [`client`] — a blocking client used by the `senss-serve` CLI, the
//!   loopback tests, and `senss-bench`'s `SENSS_SERVE` bridge.
//!
//! See `docs/serving.md` for the protocol reference, cluster topology,
//! failure and backpressure semantics, and the metrics glossary.

// The only `unsafe` in the workspace is the single `poll(2)` FFI call
// in [`sys`], which opts in locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod sys;
pub mod worker;

pub use client::{Client, ClientError};
pub use coordinator::{ClusterConfig, Coordinator};
pub use metrics::Metrics;
pub use protocol::{ErrorClass, JobResult, Request, Response, StatusInfo, SweepState};
pub use server::{Server, ServerConfig};
pub use worker::WorkerProc;
