//! A cycle-level symmetric shared-memory multiprocessor (SMP) simulator.
//!
//! This crate is the substrate on which the SENSS reproduction measures
//! performance: it models the machine of the paper's Figure 5 (a Sun
//! E6000-class SMP) at CPU-cycle resolution —
//!
//! * trace-driven processor cores ([`trace`], [`core`]),
//! * private two-level caches: 64 KB 2-way L1s over 1–4 MB 4-way L2s
//!   ([`cache`]),
//! * the MESI write-invalidate snooping protocol ([`mesi`]),
//! * an arbitrated shared bus at 100 MHz / 3.2 GB/s with cache-to-cache
//!   transfers at 120 cycles and memory transfers at 180 cycles ([`bus`]),
//! * a DRAM model ([`memory`]) and detailed statistics ([`stats`]).
//!
//! Security layers hook in through the [`extension::Extension`] trait:
//! the `senss` crate implements the paper's bus encryption/authentication,
//! `senss-memprot` the cache-to-memory protection. The simulator itself
//! stays security-agnostic; a [`extension::NullExtension`] run is the
//! insecure baseline every figure compares against.
//!
//! # Example
//!
//! ```
//! use senss_sim::config::SystemConfig;
//! use senss_sim::extension::NullExtension;
//! use senss_sim::system::System;
//! use senss_sim::trace::{AccessKind, Op, VecTrace};
//!
//! let cfg = SystemConfig::e6000(2, 1 << 20);
//! let traces = vec![
//!     VecTrace::new(vec![Op::new(10, AccessKind::Read, 0x1000)]),
//!     VecTrace::new(vec![Op::new(10, AccessKind::Write, 0x1000)]),
//! ];
//! let mut system = System::new(cfg, traces, NullExtension);
//! let stats = system.run();
//! assert!(stats.total_cycles > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod addrmap;
pub mod bus;
pub mod cache;
pub mod config;
pub mod core;
pub mod extension;
pub mod memory;
pub mod mesi;
mod sched;
pub mod state;
pub mod stats;
pub mod system;
pub mod trace;

pub use config::SystemConfig;
pub use extension::{Extension, NullExtension};
pub use stats::Stats;
pub use system::System;
