//! Plain-data mirror of a [`crate::system::System`] at a cycle boundary.
//!
//! [`SystemState`] is everything a simulation's future depends on,
//! flattened into public-field structs of integers and small enums: the
//! event queue (sorted), the transaction and chain slabs with their free
//! lists, per-cache slot arrays (including invalid slots — they steer
//! future insert decisions), core/trace cursors, arbiter queues, the
//! collected [`Stats`], and the security extension's state as
//! `(key, value)` pairs from [`crate::extension::Extension::snapshot`].
//!
//! Capture is [`crate::system::System::capture_state`]; restore is
//! [`crate::system::System::from_state`]. The `senss-snapshot` crate
//! serializes this struct to its versioned integer-only text format —
//! keeping the *shape* here (where the simulator's private types are
//! visible) and the *codec* there keeps both honest: adding a field to
//! the simulator without snapshotting it fails to compile in
//! `system.rs`, not silently at restore time.
//!
//! Deliberately **not** captured: the grant-deferral scratch buffer and
//! the spare chain-step pool. Both are empty at every event boundary
//! (pure intra-event scratch), so restoring them empty is exact.

use crate::bus::{BusRequest, Supplier, Transaction};
use crate::config::SystemConfig;
use crate::stats::Stats;
use crate::trace::{Op, VecTrace};

/// Execution state tag of one core (mirror of the private
/// `core::CoreState`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStateSnap {
    /// Will attempt its pending op at a scheduled cycle.
    Ready,
    /// Stalled on a bus transaction.
    WaitingBus,
    /// Trace exhausted.
    Finished,
}

/// One core's full mutable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSnap {
    /// The complete trace (the part already consumed is needed so a
    /// restored trace can be prefix-validated when forked).
    pub ops: Vec<Op>,
    /// Read cursor: index of the next *unfetched* op.
    pub pos: usize,
    /// The prefetched op the core will perform next.
    pub pending: Option<Op>,
    /// Execution state.
    pub state: CoreStateSnap,
    /// Operations completed.
    pub ops_done: u64,
    /// Finish cycle, if the trace is exhausted.
    pub finished_at: Option<u64>,
}

/// One cache way-slot; `meta` is the per-line metadata packed into a
/// `u64` (L1: dirty bit; L2: MESI state as 0–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSnap {
    /// Line tag (address >> line shift).
    pub tag: u64,
    /// Packed metadata.
    pub meta: u64,
    /// LRU timestamp.
    pub last_use: u64,
    /// Whether the slot holds a live line.
    pub valid: bool,
}

/// One set-associative cache array's exact state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheSnap {
    /// The LRU clock.
    pub use_clock: u64,
    /// Per-set slot arrays, in set order, slots in physical order —
    /// invalid slots included (inserts fill them before growing a set).
    pub sets: Vec<Vec<LineSnap>>,
}

/// The bus arbiter's queues and round-robin cursor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArbiterSnap {
    /// Per-processor request queues, front first.
    pub queues: Vec<Vec<BusRequest>>,
    /// The injected (security-message) queue, front first.
    pub injected: Vec<BusRequest>,
    /// Pid of the last granted processor request.
    pub last_granted: usize,
}

/// A pending event-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSnap {
    /// Firing cycle (high half of the packed heap key).
    pub time: u64,
    /// Scheduling sequence number (low half; unique, breaks ties).
    pub seq: u64,
    /// The event itself.
    pub ev: EventKindSnap,
}

/// Mirror of the simulator's private event enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKindSnap {
    /// A core performs its pending reference.
    CoreStep(usize),
    /// The arbiter grants one queued request.
    BusGrant,
    /// The transaction holding this token completes.
    TxnDone(u64),
}

/// Mirror of the simulator's private transaction-purpose enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PurposeSnap {
    /// A core's line fill.
    CoreFill {
        /// Requesting processor.
        pid: usize,
        /// L2 line address.
        addr: u64,
        /// Resolved supplier (`Supplier::None` until grant).
        supplier: Supplier,
    },
    /// A core's S→M upgrade.
    CoreUpgrade {
        /// Requesting processor.
        pid: usize,
    },
    /// A core's write-update broadcast.
    CoreWriteUpdate {
        /// Requesting processor.
        pid: usize,
    },
    /// A step of a resolution chain.
    ChainStep {
        /// Chain-slab id.
        chain_id: u64,
    },
    /// Traffic-only transaction.
    FireAndForget,
}

/// One live slot of the transaction slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnSlotSnap {
    /// What the transaction is for.
    pub purpose: PurposeSnap,
    /// The granted transaction (`None` while queued in the arbiter).
    pub txn: Option<Transaction>,
}

/// Mirror of the simulator's private resolution-chain step enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepSnap {
    /// Fetch the latest OTP pad from a remote cache.
    PadRequest(u64),
    /// Verify a Merkle ancestor.
    HashCheck(u64),
    /// Dirty the parent hash line after an update.
    MarkHashDirty(u64),
}

/// One live resolution chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSnap {
    /// Owning processor.
    pub pid: usize,
    /// Whether a stalled core waits on this chain.
    pub blocking: bool,
    /// Remaining steps, front first.
    pub steps: Vec<StepSnap>,
}

/// The complete simulator state at a cycle boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemState {
    /// The architectural configuration (restore validates against it).
    pub cfg: SystemConfig,
    /// Per-core state, pid order.
    pub cores: Vec<CoreSnap>,
    /// Per-core L1 arrays (`meta` = dirty bit).
    pub l1: Vec<CacheSnap>,
    /// Per-core L2 arrays (`meta` = MESI state, 0=I 1=S 2=E 3=M).
    pub l2: Vec<CacheSnap>,
    /// Bus arbiter queues.
    pub arbiter: ArbiterSnap,
    /// Pending events, sorted ascending by `(time, seq)` — the heap's
    /// internal layout is unspecified, so capture canonicalizes.
    pub events: Vec<EventSnap>,
    /// Scheduling sequence counter.
    pub seq: u64,
    /// Cycle at which the bus is next free.
    pub bus_next_free: u64,
    /// Whether a `BusGrant` event is in flight.
    pub grant_scheduled: bool,
    /// Events dispatched so far (simulator property, kept so a restored
    /// run's `events_processed` matches an uninterrupted one).
    pub events_processed: u64,
    /// The transaction slab, index = token; `None` entries are free.
    pub slots: Vec<Option<TxnSlotSnap>>,
    /// Free-token stack, in exact pop order (tokens appear in trace
    /// events, so allocation order must replay identically).
    pub free_tokens: Vec<u64>,
    /// Lines with a blocking fill in flight: `(addr, completion)`.
    pub inflight_lines: Vec<(u64, u64)>,
    /// The chain slab, index = chain id; `None` entries are free.
    pub chains: Vec<Option<ChainSnap>>,
    /// Free-chain-id stack, in exact pop order.
    pub free_chains: Vec<u64>,
    /// Statistics collected so far.
    pub stats: Stats,
    /// Security-extension state from
    /// [`Extension::snapshot`](crate::extension::Extension::snapshot), in
    /// capture order.
    pub ext: Vec<(String, u64)>,
}

/// Why [`SystemState::replace_traces`] refused a fork.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkError {
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for ForkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ForkError {}

impl SystemState {
    /// Swaps in replacement traces for a warm-start fork: sweep points
    /// that share a workload prefix restore one checkpoint and continue
    /// under their own (longer) traces instead of re-simulating the
    /// prefix.
    ///
    /// Sound only when every replacement is a *prefix extension* of the
    /// captured trace and no core has finished, which this validates:
    /// the consumed prefix (everything up to the cursor) must match
    /// op-for-op, and the new trace must extend past the cursor. The
    /// caller guarantees the deeper condition — that the checkpoint
    /// cycle precedes any behavioural divergence between the runs —
    /// by checkpointing before the *shortest* point's first core
    /// finishes.
    pub fn replace_traces(&mut self, traces: Vec<VecTrace>) -> Result<(), ForkError> {
        let fail = |message: String| Err(ForkError { message });
        if traces.len() != self.cores.len() {
            return fail(format!(
                "{} replacement traces for {} cores",
                traces.len(),
                self.cores.len()
            ));
        }
        let ops: Vec<Vec<Op>> = traces.into_iter().map(VecTrace::into_ops).collect();
        for (pid, (core, new_ops)) in self.cores.iter().zip(&ops).enumerate() {
            if core.state == CoreStateSnap::Finished {
                return fail(format!(
                    "core {pid} already finished at the checkpoint; fork \
                     the checkpoint earlier"
                ));
            }
            if new_ops.len() < core.pos {
                return fail(format!(
                    "core {pid}: replacement trace ({} ops) shorter than \
                     the consumed prefix ({})",
                    new_ops.len(),
                    core.pos
                ));
            }
            if new_ops[..core.pos] != core.ops[..core.pos] {
                return fail(format!(
                    "core {pid}: replacement trace diverges within the \
                     consumed prefix"
                ));
            }
        }
        for (core, new_ops) in self.cores.iter_mut().zip(ops) {
            core.ops = new_ops;
        }
        Ok(())
    }
}
