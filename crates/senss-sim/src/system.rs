//! The event-driven SMP system: cores + caches + snooping bus + memory.
//!
//! # Model
//!
//! The system advances through a time-ordered event queue:
//!
//! * **CoreStep(pid)** — a core performs its pending memory reference.
//!   L1/L2 hits complete locally; misses and upgrades queue a bus request
//!   and stall the core.
//! * **BusGrant** — the arbiter grants one queued request. Snoop state
//!   changes (MESI degrade/invalidate, dirty-supplier selection) are
//!   applied *atomically at grant time*, which makes the protocol
//!   race-free and the simulation deterministic. The requester's new line
//!   state is also installed at grant; only the *timing* of the data
//!   arrival is deferred.
//! * **TxnDone(token)** — a transaction's latency has elapsed. Blocking
//!   requesters resume, possibly after a *resolution chain* (pad request,
//!   Merkle ancestor verification) that can itself issue more bus
//!   transactions.
//!
//! Latencies follow the paper's Figure 5: L1 hit 2, L2 hit 10,
//! cache-to-cache 120, memory 180 cycles; the bus moves 32 B per 10-cycle
//! bus cycle. The security [`Extension`] adds its overheads at the hook
//! points described in [`crate::extension`].

use std::collections::VecDeque;

use crate::addrmap::{InflightLines, SharerIndex};
use crate::bus::{Arbiter, BusRequest, Supplier, Transaction, TxnKind};
use crate::cache::SetAssocCache;
use crate::config::{CoherenceProtocol, SystemConfig};
use crate::core::{Core, CoreState};
use crate::extension::{Extension, FollowUp};
use crate::mesi::MesiState;
use crate::sched::{Event, EventQueue};
use crate::state::{
    ArbiterSnap, CacheSnap, ChainSnap, CoreSnap, CoreStateSnap, EventKindSnap, EventSnap,
    LineSnap, PurposeSnap, StepSnap, SystemState, TxnSlotSnap,
};
use crate::stats::Stats;
use crate::trace::{AccessKind, VecTrace};
use senss_trace::{NullSink, TraceEvent, TraceSink, Tracer};

/// Per-L1-line metadata.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct L1Meta {
    dirty: bool,
}

/// What a completed transaction was for.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    /// A core's line fill (Read / ReadExclusive).
    CoreFill {
        pid: usize,
        addr: u64,
        supplier: Supplier,
    },
    /// A core's S→M upgrade.
    CoreUpgrade { pid: usize },
    /// A core's write-update broadcast (write-update protocol: the line
    /// stays Shared everywhere).
    CoreWriteUpdate { pid: usize },
    /// A step of a resolution chain (hash fetch or pad request).
    ChainStep { chain_id: u64 },
    /// Traffic-only transaction (write-back, auth, pad invalidate, …).
    FireAndForget,
}

/// One step of a post-fill resolution chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Fetch the latest OTP pad from a remote cache (blocking).
    PadRequest(u64),
    /// Verify a Merkle ancestor: L2 hit ends the walk; miss fetches it.
    HashCheck(u64),
    /// Mark the (now resident) parent hash line dirty after an update.
    MarkHashDirty(u64),
}

#[derive(Debug, Clone)]
struct ChainWalk {
    pid: usize,
    steps: VecDeque<Step>,
    /// `true` if a stalled core waits for this chain.
    blocking: bool,
}

/// One live transaction, from bus request to completion, in the token
/// slab. The purpose is known at request time; the granted transaction
/// is filled in at grant, so `TxnDone` is a single indexed load.
#[derive(Debug, Clone, Copy)]
struct TxnSlot {
    purpose: Purpose,
    /// `None` while the request waits in the arbiter.
    txn: Option<Transaction>,
}

/// The simulated SMP system, parameterized by a security [`Extension`]
/// and a [`TraceSink`].
///
/// The sink defaults to [`NullSink`] (tracing off): every
/// instrumentation site is guarded by `self.sink.enabled()`, which is an
/// `#[inline(always)] false` for `NullSink`, so the untraced
/// monomorphization compiles to exactly the pre-instrumentation hot
/// path. Pass a live sink via [`System::with_sink`] to record events.
///
/// # Hot-path data layout
///
/// The event loop is the whole-repo hot path (every figure is thousands
/// of [`System::run`] calls), so its bookkeeping avoids hashing and
/// per-transaction allocation — see `docs/perf.md` for the design and
/// the `perfbench` rows backing it:
///
/// * transactions live in a free-list slab indexed by the (recycled)
///   token carried in every [`BusRequest`],
/// * resolution chains use the same slab pattern and recycle their step
///   buffers through a spare pool,
/// * in-flight line tracking keeps its snapshot-visible vec order but
///   carries an address-indexed side table for O(1) conflict checks,
/// * snoops consult the L2 sharer-presence index and visit only actual
///   sharers instead of scanning every core,
/// * the event queue packs `(time, seq, event)` into one `u128`, so a
///   heap compare is one wide integer compare.
pub struct System<E, S = NullSink> {
    cfg: SystemConfig,
    sink: S,
    cores: Vec<Core>,
    l1: Vec<SetAssocCache<L1Meta>>,
    l2: Vec<SetAssocCache<MesiState>>,
    /// Which cores' L2s hold each line (derived from `l2`, never
    /// snapshotted): snoops visit only the set bits instead of scanning
    /// every core. See [`SharerIndex`] for the invariants.
    sharers: SharerIndex,
    arbiter: Arbiter,
    ext: E,
    stats: Stats,
    /// Pending simulation events, keyed by packed `(time << 64) | seq`
    /// (see [`crate::sched`]).
    events: EventQueue,
    seq: u64,
    bus_next_free: u64,
    grant_scheduled: bool,
    /// Token slab: every in-flight transaction, indexed by its token.
    slots: Vec<Option<TxnSlot>>,
    /// Recycled slab indices; a token is freed when its `TxnDone` fires
    /// (each granted token gets exactly one), so reuse can never collide
    /// with a pending completion.
    free_tokens: Vec<u64>,
    /// Lines with a blocking fill/upgrade in flight; conflicting grants
    /// are deferred until the completion passes (split-transaction
    /// NACK/retry). Indexed by address for O(1) conflict checks.
    inflight_lines: InflightLines,
    /// Chain slab, indexed by chain id, free-listed like the tokens.
    chains: Vec<Option<ChainWalk>>,
    free_chains: Vec<u64>,
    /// Retired chain step buffers, kept to reuse their capacity.
    spare_steps: Vec<VecDeque<Step>>,
    /// Scratch for NACKed grant candidates, reused across grants.
    deferred_scratch: Vec<BusRequest>,
    events_processed: u64,
    /// Cycles at which [`System::run`] captures a checkpoint, sorted
    /// ascending. Checked once at `run` entry, not per event, so the
    /// unarmed hot path is unchanged.
    checkpoint_schedule: Vec<u64>,
    /// Checkpoints captured by [`System::run`]; harvest with
    /// [`System::take_checkpoints`].
    captured_checkpoints: Vec<(u64, SystemState)>,
}

impl<E: std::fmt::Debug, S> std::fmt::Debug for System<E, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("processors", &self.cores.len())
            .field("pending_events", &self.events.len())
            .field("extension", &self.ext)
            .finish()
    }
}

impl<E: Extension> System<E> {
    /// Builds an untraced system ([`NullSink`]) from a configuration, one
    /// trace per processor, and a security extension.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` does not match
    /// `cfg.num_processors`.
    pub fn new(cfg: SystemConfig, traces: Vec<VecTrace>, ext: E) -> System<E> {
        System::with_sink(cfg, traces, ext, NullSink)
    }
}

impl<E: Extension, S: TraceSink> System<E, S> {
    /// Builds a system whose simulation events are recorded into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` does not match
    /// `cfg.num_processors`.
    pub fn with_sink(
        cfg: SystemConfig,
        traces: Vec<VecTrace>,
        ext: E,
        sink: S,
    ) -> System<E, S> {
        assert_eq!(
            traces.len(),
            cfg.num_processors,
            "one trace per processor required"
        );
        let n = cfg.num_processors;
        let cores: Vec<Core> = traces
            .into_iter()
            .enumerate()
            .map(|(pid, t)| Core::new(pid, t))
            .collect();
        let l1 = (0..n)
            .map(|_| SetAssocCache::new(cfg.l1_size, cfg.l1_ways, cfg.l1_line))
            .collect();
        let l2 = (0..n)
            .map(|_| SetAssocCache::new(cfg.l2_size, cfg.l2_ways, cfg.l2_line))
            .collect();
        let mut sys = System {
            arbiter: Arbiter::new(n),
            sink,
            cores,
            l1,
            l2,
            sharers: SharerIndex::new(n),
            ext,
            stats: Stats::default(),
            events: EventQueue::new(),
            seq: 0,
            bus_next_free: 0,
            grant_scheduled: false,
            slots: Vec::new(),
            free_tokens: Vec::new(),
            inflight_lines: InflightLines::new(),
            chains: Vec::new(),
            free_chains: Vec::new(),
            spare_steps: Vec::new(),
            deferred_scratch: Vec::new(),
            events_processed: 0,
            checkpoint_schedule: Vec::new(),
            captured_checkpoints: Vec::new(),
            cfg,
        };
        for pid in 0..n {
            if let Some(op) = sys.cores[pid].pending_op() {
                sys.schedule(op.gap, Event::CoreStep(pid));
            }
        }
        sys
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The extension (e.g. to read security-layer statistics after a run).
    pub fn extension(&self) -> &E {
        &self.ext
    }

    /// Mutable access to the extension.
    pub fn extension_mut(&mut self) -> &mut E {
        &mut self.ext
    }

    /// The trace sink (e.g. to inspect a `RingSink` mid-run).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the trace sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the system and returns the sink with the recorded trace.
    pub fn into_sink(self) -> S {
        self.sink
    }

    fn schedule(&mut self, time: u64, ev: Event) {
        self.seq += 1;
        self.events.push(((time as u128) << 64) | self.seq as u128, ev);
    }

    fn token(&mut self, purpose: Purpose) -> u64 {
        let slot = Some(TxnSlot { purpose, txn: None });
        match self.free_tokens.pop() {
            Some(t) => {
                self.slots[t as usize] = slot;
                t
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u64
            }
        }
    }

    /// A cleared chain-step buffer, reusing a retired chain's capacity
    /// when one is available.
    fn take_steps_buf(&mut self) -> VecDeque<Step> {
        self.spare_steps.pop().unwrap_or_default()
    }

    fn recycle_steps(&mut self, mut buf: VecDeque<Step>) {
        buf.clear();
        if self.spare_steps.len() < 64 {
            self.spare_steps.push(buf);
        }
    }

    /// Number of events the main loop has dispatched so far. Not part of
    /// [`Stats`] (it is a property of the simulator, not of the simulated
    /// machine); `perfbench` divides it by wall time to report
    /// `events_per_s`.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs to completion and returns the final statistics.
    ///
    /// If checkpoints were armed via [`System::checkpoint_at`], each is
    /// captured as its cycle boundary passes (collect them afterwards
    /// with [`System::take_checkpoints`]). The schedule is consulted
    /// once here — with no checkpoints armed the event loop is the same
    /// tight pop loop as always.
    pub fn run(&mut self) -> Stats {
        if !self.checkpoint_schedule.is_empty() {
            let schedule = std::mem::take(&mut self.checkpoint_schedule);
            for cycle in schedule {
                self.run_until(cycle);
                let state = self.capture_state();
                self.captured_checkpoints.push((cycle, state));
            }
        }
        self.finish()
    }

    /// Processes every pending event with firing time `<= bound`, then
    /// stops at the cycle boundary. Returns `true` while events remain
    /// (all strictly after `bound`), `false` once the simulation has
    /// fully drained.
    ///
    /// A [`System::capture_state`] taken here, restored, and
    /// [`System::finish`]ed replays the identical event sequence an
    /// uninterrupted [`System::run`] would have produced.
    pub fn run_until(&mut self, bound: u64) -> bool {
        while let Some((key, ev)) = self.events.pop_if(bound) {
            let time = (key >> 64) as u64;
            self.events_processed += 1;
            match ev {
                Event::CoreStep(pid) => self.core_step(pid, time),
                Event::BusGrant => self.bus_grant(time),
                Event::TxnDone(token) => self.txn_done(token, time),
            }
        }
        !self.events.is_empty()
    }

    /// Drains all remaining events and returns the final statistics.
    /// `run` without the checkpoint pass; the continuation of
    /// [`System::run_until`].
    pub fn finish(&mut self) -> Stats {
        while let Some((key, ev)) = self.events.pop() {
            let time = (key >> 64) as u64;
            self.events_processed += 1;
            match ev {
                Event::CoreStep(pid) => self.core_step(pid, time),
                Event::BusGrant => self.bus_grant(time),
                Event::TxnDone(token) => self.txn_done(token, time),
            }
        }
        self.stats.core_finish_times = self
            .cores
            .iter()
            .map(|c| c.finished_at().unwrap_or(0))
            .collect();
        self.stats.core_ops = self.cores.iter().map(|c| c.ops_done()).collect();
        self.stats.total_cycles = self
            .stats
            .core_finish_times
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        self.stats.clone()
    }

    // ------------------------------------------------------------------
    // Checkpoint capture / restore
    // ------------------------------------------------------------------

    /// Arms a checkpoint: the next [`System::run`] captures the system
    /// state once every event at or before `cycle` has been processed.
    /// May be called repeatedly to arm several cycles (duplicates are
    /// collapsed).
    pub fn checkpoint_at(&mut self, cycle: u64) {
        if let Err(i) = self.checkpoint_schedule.binary_search(&cycle) {
            self.checkpoint_schedule.insert(i, cycle);
        }
    }

    /// Takes the checkpoints captured by [`System::run`], as
    /// `(cycle, state)` pairs in ascending cycle order.
    pub fn take_checkpoints(&mut self) -> Vec<(u64, SystemState)> {
        std::mem::take(&mut self.captured_checkpoints)
    }

    /// Captures the complete simulator state at the current cycle
    /// boundary. Side-effect free; call between events (i.e. from
    /// outside the event loop, or via [`System::checkpoint_at`]).
    ///
    /// The event queue is emitted sorted by `(time, seq)` so equal
    /// states always capture identically (the heap's internal layout
    /// depends on insertion history).
    pub fn capture_state(&self) -> SystemState {
        let mut events: Vec<EventSnap> = self
            .events
            .export()
            .into_iter()
            .map(|(key, ev)| EventSnap {
                time: (key >> 64) as u64,
                seq: key as u64,
                ev: match ev {
                    Event::CoreStep(pid) => EventKindSnap::CoreStep(pid),
                    Event::BusGrant => EventKindSnap::BusGrant,
                    Event::TxnDone(token) => EventKindSnap::TxnDone(token),
                },
            })
            .collect();
        events.sort_by_key(|e| (e.time, e.seq));
        let cores = self
            .cores
            .iter()
            .map(|c| {
                let (ops, pos, pending, state, ops_done, finished_at) = c.export_state();
                CoreSnap {
                    ops: ops.to_vec(),
                    pos,
                    pending,
                    state: match state {
                        CoreState::Ready => CoreStateSnap::Ready,
                        CoreState::WaitingBus => CoreStateSnap::WaitingBus,
                        CoreState::Finished => CoreStateSnap::Finished,
                    },
                    ops_done,
                    finished_at,
                }
            })
            .collect();
        let snap_cache = |use_clock: u64, sets: Vec<Vec<(u64, u64, u64, bool)>>| CacheSnap {
            use_clock,
            sets: sets
                .into_iter()
                .map(|set| {
                    set.into_iter()
                        .map(|(tag, meta, last_use, valid)| LineSnap {
                            tag,
                            meta,
                            last_use,
                            valid,
                        })
                        .collect()
                })
                .collect(),
        };
        let l1 = self
            .l1
            .iter()
            .map(|c| {
                let (clock, sets) = c.export_state();
                snap_cache(
                    clock,
                    sets.into_iter()
                        .map(|s| {
                            s.into_iter()
                                .map(|(tag, m, lu, v)| (tag, m.dirty as u64, lu, v))
                                .collect()
                        })
                        .collect(),
                )
            })
            .collect();
        let l2 = self
            .l2
            .iter()
            .map(|c| {
                let (clock, sets) = c.export_state();
                snap_cache(
                    clock,
                    sets.into_iter()
                        .map(|s| {
                            s.into_iter()
                                .map(|(tag, m, lu, v)| (tag, mesi_to_u64(m), lu, v))
                                .collect()
                        })
                        .collect(),
                )
            })
            .collect();
        let (queues, injected, last_granted) = self.arbiter.export_state();
        let slots = self
            .slots
            .iter()
            .map(|s| {
                s.as_ref().map(|slot| TxnSlotSnap {
                    purpose: match slot.purpose {
                        Purpose::CoreFill {
                            pid,
                            addr,
                            supplier,
                        } => PurposeSnap::CoreFill {
                            pid,
                            addr,
                            supplier,
                        },
                        Purpose::CoreUpgrade { pid } => PurposeSnap::CoreUpgrade { pid },
                        Purpose::CoreWriteUpdate { pid } => PurposeSnap::CoreWriteUpdate { pid },
                        Purpose::ChainStep { chain_id } => PurposeSnap::ChainStep { chain_id },
                        Purpose::FireAndForget => PurposeSnap::FireAndForget,
                    },
                    txn: slot.txn,
                })
            })
            .collect();
        let chains = self
            .chains
            .iter()
            .map(|c| {
                c.as_ref().map(|chain| ChainSnap {
                    pid: chain.pid,
                    blocking: chain.blocking,
                    steps: chain
                        .steps
                        .iter()
                        .map(|s| match *s {
                            Step::PadRequest(a) => StepSnap::PadRequest(a),
                            Step::HashCheck(a) => StepSnap::HashCheck(a),
                            Step::MarkHashDirty(a) => StepSnap::MarkHashDirty(a),
                        })
                        .collect(),
                })
            })
            .collect();
        let mut ext = Vec::new();
        self.ext.snapshot(&mut ext);
        SystemState {
            cfg: self.cfg.clone(),
            cores,
            l1,
            l2,
            arbiter: ArbiterSnap {
                queues,
                injected,
                last_granted,
            },
            events,
            seq: self.seq,
            bus_next_free: self.bus_next_free,
            grant_scheduled: self.grant_scheduled,
            events_processed: self.events_processed,
            slots,
            free_tokens: self.free_tokens.clone(),
            inflight_lines: self.inflight_lines.entries().to_vec(),
            chains,
            free_chains: self.free_chains.clone(),
            stats: self.stats.clone(),
            ext,
        }
    }

    /// Rebuilds a mid-run system from a captured [`SystemState`], a
    /// fresh extension (configured identically to the captured run's —
    /// its mutable state is re-imposed via
    /// [`Extension::restore`]),
    /// and a sink for the continuation's trace events.
    ///
    /// [`System::finish`] on the result produces bit-identical [`Stats`]
    /// and trace events to the uninterrupted run's continuation.
    ///
    /// # Panics
    ///
    /// Panics if the state is internally inconsistent (core cursor past
    /// its trace, cache geometry mismatch, unknown extension keys, …) —
    /// a corrupted or mismatched snapshot fails loudly, never silently.
    pub fn from_state(state: &SystemState, mut ext: E, sink: S) -> System<E, S> {
        let cfg = state.cfg.clone();
        let n = cfg.num_processors;
        assert_eq!(state.cores.len(), n, "snapshot core count != config");
        let cores = state
            .cores
            .iter()
            .enumerate()
            .map(|(pid, c)| {
                Core::from_state(
                    pid,
                    c.ops.clone(),
                    c.pos,
                    c.pending,
                    match c.state {
                        CoreStateSnap::Ready => CoreState::Ready,
                        CoreStateSnap::WaitingBus => CoreState::WaitingBus,
                        CoreStateSnap::Finished => CoreState::Finished,
                    },
                    c.ops_done,
                    c.finished_at,
                )
            })
            .collect();
        assert_eq!(state.l1.len(), n, "snapshot L1 count != config");
        assert_eq!(state.l2.len(), n, "snapshot L2 count != config");
        let l1 = state
            .l1
            .iter()
            .map(|snap| {
                let mut c = SetAssocCache::new(cfg.l1_size, cfg.l1_ways, cfg.l1_line);
                c.import_state(
                    snap.use_clock,
                    snap.sets
                        .iter()
                        .map(|s| {
                            s.iter()
                                .map(|l| {
                                    (l.tag, L1Meta { dirty: l.meta != 0 }, l.last_use, l.valid)
                                })
                                .collect()
                        })
                        .collect(),
                );
                c
            })
            .collect();
        let l2: Vec<SetAssocCache<MesiState>> = state
            .l2
            .iter()
            .map(|snap| {
                let mut c = SetAssocCache::new(cfg.l2_size, cfg.l2_ways, cfg.l2_line);
                c.import_state(
                    snap.use_clock,
                    snap.sets
                        .iter()
                        .map(|s| {
                            s.iter()
                                .map(|l| (l.tag, mesi_from_u64(l.meta), l.last_use, l.valid))
                                .collect()
                        })
                        .collect(),
                );
                c
            })
            .collect();
        // The sharer-presence index is derived, not snapshotted: rebuild
        // it from the restored L2 contents.
        let mut sharers = SharerIndex::new(n);
        for (pid, cache) in l2.iter().enumerate() {
            for (addr, _) in cache.iter() {
                sharers.add(pid, addr);
            }
        }
        let mut arbiter = Arbiter::new(n);
        arbiter.import_state(
            state.arbiter.queues.clone(),
            state.arbiter.injected.clone(),
            state.arbiter.last_granted,
        );
        let mut events = EventQueue::new();
        for e in &state.events {
            events.push(
                ((e.time as u128) << 64) | e.seq as u128,
                match e.ev {
                    EventKindSnap::CoreStep(pid) => Event::CoreStep(pid),
                    EventKindSnap::BusGrant => Event::BusGrant,
                    EventKindSnap::TxnDone(token) => Event::TxnDone(token),
                },
            );
        }
        let slots = state
            .slots
            .iter()
            .map(|s| {
                s.as_ref().map(|slot| TxnSlot {
                    purpose: match slot.purpose {
                        PurposeSnap::CoreFill {
                            pid,
                            addr,
                            supplier,
                        } => Purpose::CoreFill {
                            pid,
                            addr,
                            supplier,
                        },
                        PurposeSnap::CoreUpgrade { pid } => Purpose::CoreUpgrade { pid },
                        PurposeSnap::CoreWriteUpdate { pid } => Purpose::CoreWriteUpdate { pid },
                        PurposeSnap::ChainStep { chain_id } => Purpose::ChainStep { chain_id },
                        PurposeSnap::FireAndForget => Purpose::FireAndForget,
                    },
                    txn: slot.txn,
                })
            })
            .collect();
        let chains = state
            .chains
            .iter()
            .map(|c| {
                c.as_ref().map(|chain| ChainWalk {
                    pid: chain.pid,
                    blocking: chain.blocking,
                    steps: chain
                        .steps
                        .iter()
                        .map(|s| match *s {
                            StepSnap::PadRequest(a) => Step::PadRequest(a),
                            StepSnap::HashCheck(a) => Step::HashCheck(a),
                            StepSnap::MarkHashDirty(a) => Step::MarkHashDirty(a),
                        })
                        .collect(),
                })
            })
            .collect();
        ext.restore(&state.ext);
        System {
            cfg,
            sink,
            cores,
            l1,
            l2,
            sharers,
            arbiter,
            ext,
            stats: state.stats.clone(),
            events,
            seq: state.seq,
            bus_next_free: state.bus_next_free,
            grant_scheduled: state.grant_scheduled,
            slots,
            free_tokens: state.free_tokens.clone(),
            inflight_lines: InflightLines::from_entries(state.inflight_lines.clone()),
            chains,
            free_chains: state.free_chains.clone(),
            spare_steps: Vec::new(),
            deferred_scratch: Vec::new(),
            events_processed: state.events_processed,
            checkpoint_schedule: Vec::new(),
            captured_checkpoints: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Core side
    // ------------------------------------------------------------------

    fn core_step(&mut self, pid: usize, now: u64) {
        debug_assert_eq!(self.cores[pid].state(), CoreState::Ready);
        let op = self.cores[pid].pending_op().expect("ready core has an op");
        self.stats.ops_executed += 1;
        let l1_addr = self.l1[pid].line_addr(op.addr);
        let l2_addr = self.l2[pid].line_addr(op.addr);

        // --- L1 lookup ---
        if let Some(meta) = self.l1[pid].lookup_mut(l1_addr) {
            self.stats.l1_hits += 1;
            match op.kind {
                AccessKind::Read => {
                    let done = now + self.cfg.l1_hit_latency;
                    self.finish_op(pid, done);
                    return;
                }
                AccessKind::Write => {
                    if meta.dirty {
                        // L1 dirty implies L2 Modified: write completes in L1.
                        let done = now + self.cfg.l1_hit_latency;
                        self.finish_op(pid, done);
                        return;
                    }
                    let state = *self.l2[pid]
                        .peek(l2_addr)
                        .expect("inclusion: L1 line has an L2 line");
                    if state.can_write() {
                        // Silent E→M upgrade.
                        *self.l2[pid].peek_mut(l2_addr).expect("present") =
                            state.on_local_write();
                        self.l1[pid].peek_mut(l1_addr).expect("present").dirty = true;
                        let done = now + self.cfg.l1_hit_latency;
                        self.finish_op(pid, done);
                        return;
                    }
                    // Shared: invalidate-then-own, or broadcast the datum.
                    self.stats.upgrades += 1;
                    match self.cfg.coherence {
                        CoherenceProtocol::WriteInvalidate => {
                            self.request_upgrade(pid, l2_addr, l1_addr, now)
                        }
                        CoherenceProtocol::WriteUpdate => {
                            self.request_write_update(pid, l2_addr, now)
                        }
                    }
                    return;
                }
            }
        }

        // --- L1 miss, L2 lookup ---
        self.stats.l1_misses += 1;
        if let Some(&state) = self.l2[pid].peek(l2_addr) {
            let ok = match op.kind {
                AccessKind::Read => state.can_read(),
                AccessKind::Write => state.can_write(),
            };
            // Touch LRU on the L2 access.
            self.l2[pid].lookup_mut(l2_addr);
            if ok {
                self.stats.l2_hits += 1;
                if op.kind == AccessKind::Write {
                    *self.l2[pid].peek_mut(l2_addr).expect("present") = state.on_local_write();
                }
                self.fill_l1(pid, l1_addr, op.kind == AccessKind::Write);
                let done = now + self.cfg.l2_hit_latency;
                self.finish_op(pid, done);
                return;
            }
            if op.kind == AccessKind::Write && state == MesiState::Shared {
                self.stats.l2_hits += 1;
                self.stats.upgrades += 1;
                match self.cfg.coherence {
                    CoherenceProtocol::WriteInvalidate => {
                        self.request_upgrade(pid, l2_addr, l1_addr, now)
                    }
                    CoherenceProtocol::WriteUpdate => {
                        self.request_write_update(pid, l2_addr, now)
                    }
                }
                return;
            }
            // A valid L2 line that can't serve the access should be
            // impossible (reads are served by any valid state).
            unreachable!("unsatisfiable L2 state {state:?} for {:?}", op.kind);
        }

        // --- L2 miss: full bus fill ---
        self.stats.l2_misses += 1;
        let kind = match (op.kind, self.cfg.coherence) {
            (AccessKind::Read, _) => TxnKind::Read,
            (AccessKind::Write, CoherenceProtocol::WriteInvalidate) => TxnKind::ReadExclusive,
            // Write-update fetches a shared copy, then broadcasts the
            // datum once the fill arrives.
            (AccessKind::Write, CoherenceProtocol::WriteUpdate) => TxnKind::Read,
        };
        let token = self.token(Purpose::CoreFill {
            pid,
            addr: l2_addr,
            supplier: Supplier::None, // resolved at grant
        });
        self.cores[pid].stall();
        self.push_request(
            BusRequest {
                pid,
                kind,
                addr: l2_addr,
                blocking: true,
                token,
            },
            now,
            false,
        );
    }

    fn request_upgrade(&mut self, pid: usize, l2_addr: u64, _l1_addr: u64, now: u64) {
        let token = self.token(Purpose::CoreUpgrade { pid });
        self.cores[pid].stall();
        self.push_request(
            BusRequest {
                pid,
                kind: TxnKind::Upgrade,
                addr: l2_addr,
                blocking: true,
                token,
            },
            now,
            false,
        );
    }

    fn request_write_update(&mut self, pid: usize, l2_addr: u64, now: u64) {
        let token = self.token(Purpose::CoreWriteUpdate { pid });
        self.cores[pid].stall();
        self.push_request(
            BusRequest {
                pid,
                kind: TxnKind::Update,
                addr: l2_addr,
                blocking: true,
                token,
            },
            now,
            false,
        );
    }

    /// Completes the core's current op at `done` and schedules its next.
    fn finish_op(&mut self, pid: usize, done: u64) {
        if let Some(gap) = self.cores[pid].complete_op(done) {
            self.schedule(done + gap, Event::CoreStep(pid));
        }
    }

    // ------------------------------------------------------------------
    // Bus side
    // ------------------------------------------------------------------

    fn push_request(&mut self, req: BusRequest, now: u64, injected: bool) {
        if injected {
            self.arbiter.push_injected(req);
        } else {
            self.arbiter.push(req);
        }
        if !self.grant_scheduled {
            self.grant_scheduled = true;
            let at = now.max(self.bus_next_free);
            self.schedule(at, Event::BusGrant);
        }
    }

    fn bus_grant(&mut self, now: u64) {
        debug_assert!(now >= self.bus_next_free);
        // Pick the first grantable request, deferring any whose line has a
        // fill in flight (the bus NACKs it; the requester retries).
        let pending = self.arbiter.pending();
        let mut deferred = std::mem::take(&mut self.deferred_scratch);
        let mut granted = None;
        for _ in 0..pending {
            let Some(candidate) = self.arbiter.grant() else {
                break;
            };
            let conflicts = matches!(
                candidate.kind,
                TxnKind::Read | TxnKind::ReadExclusive | TxnKind::Upgrade | TxnKind::HashFetch
            ) && self
                .inflight_lines
                .completion(candidate.addr)
                .is_some_and(|done| done > now);
            if conflicts {
                deferred.push(candidate);
            } else {
                granted = Some(candidate);
                break;
            }
        }
        for d in deferred.drain(..).rev() {
            self.arbiter.push_front(d);
        }
        self.deferred_scratch = deferred;
        let Some(req) = granted else {
            // Everything queued conflicts with an in-flight fill: retry
            // when the earliest one completes.
            if self.arbiter.is_empty() {
                self.grant_scheduled = false;
            } else {
                let retry_at = self
                    .inflight_lines
                    .earliest_after(now)
                    .unwrap_or(now + self.cfg.bus_cycle);
                self.grant_scheduled = true;
                self.schedule(retry_at.max(now + 1), Event::BusGrant);
            }
            return;
        };
        // Keep the flag set while processing: pushes made during this grant
        // (victim write-backs, injected messages) must not double-schedule.
        self.grant_scheduled = true;
        let mut txn = Transaction {
            request: req,
            supplier: Supplier::None,
            granted_at: now,
        };

        // Snoop and apply protocol state changes atomically.
        match req.kind {
            TxnKind::Read => {
                let (supplier, sharers) = self.snoop_read(req.pid, req.addr, now);
                txn.supplier = supplier;
                let state = MesiState::fill_for_read(sharers);
                self.install_l2(req.pid, req.addr, state, now);
            }
            TxnKind::ReadExclusive => {
                let supplier = self.snoop_write(req.pid, req.addr, now);
                txn.supplier = supplier;
                self.install_l2(req.pid, req.addr, MesiState::fill_for_write(), now);
            }
            TxnKind::Upgrade => {
                self.snoop_write(req.pid, req.addr, now);
                if let Some(state) = self.l2[req.pid].peek_mut(req.addr) {
                    let old = std::mem::replace(state, MesiState::Modified);
                    if self.sink.enabled() && old != MesiState::Modified {
                        self.sink.emit(TraceEvent::MesiTransition {
                            time: now,
                            pid: req.pid as u32,
                            addr: req.addr,
                            from: old.into(),
                            to: MesiState::Modified.into(),
                        });
                    }
                }
            }
            TxnKind::HashFetch => {
                let (supplier, sharers) = self.snoop_read(req.pid, req.addr, now);
                txn.supplier = supplier;
                let state = MesiState::fill_for_read(sharers);
                self.install_l2(req.pid, req.addr, state, now);
            }
            TxnKind::Update => {
                // Sharers absorb the datum; every copy stays valid and
                // memory is updated in the background. No state changes.
                txn.supplier = Supplier::None;
            }
            TxnKind::Writeback | TxnKind::HashWriteback => {
                txn.supplier = Supplier::None;
            }
            TxnKind::Auth | TxnKind::PadInvalidate | TxnKind::PadRequest => {
                txn.supplier = Supplier::None;
            }
        }

        match txn.supplier {
            Supplier::Cache(_) => self.stats.cache_to_cache_transfers += 1,
            Supplier::Memory => self.stats.memory_transfers += 1,
            Supplier::None => {}
        }

        // Security-layer timing for cache-to-cache transfers.
        let (stall, extra) = if txn.is_cache_to_cache() {
            let mut tracer = Tracer::of(&mut self.sink);
            let stall = self.ext.transfer_start_delay(&txn, now, &mut tracer);
            let extra = self.ext.transfer_extra_latency(&txn);
            (stall, extra)
        } else {
            (0, 0)
        };
        if stall > 0 {
            self.stats.mask_stall_cycles += stall;
            self.stats.mask_stalled_transfers += 1;
        }

        let base_latency = match req.kind {
            TxnKind::Read | TxnKind::ReadExclusive | TxnKind::HashFetch => match txn.supplier {
                Supplier::Cache(_) => self.cfg.cache_to_cache_latency,
                Supplier::Memory => self.cfg.cache_to_memory_latency,
                Supplier::None => unreachable!("fills always have a supplier"),
            },
            TxnKind::Writeback | TxnKind::HashWriteback => self.cfg.cache_to_memory_latency,
            TxnKind::Upgrade | TxnKind::Update | TxnKind::Auth | TxnKind::PadInvalidate => {
                self.cfg.address_occupancy()
            }
            TxnKind::PadRequest => self.cfg.cache_to_cache_latency,
        };

        let start = now + stall;
        let completion = start + base_latency + extra;
        let occupancy = if req.kind.carries_line() {
            self.cfg.data_occupancy()
        } else {
            self.cfg.address_occupancy()
        };
        let occupancy_end = start + occupancy;
        self.bus_next_free = occupancy_end;
        self.stats.bus_busy_cycles += occupancy_end - now;
        self.stats.count_txn(req.kind);
        if self.sink.enabled() {
            // Emitted adjacent to `count_txn` so per-kind trace counts
            // always agree with `Stats`, and `busy` mirrors the
            // `bus_busy_cycles` increment above so traces tie out.
            let kind = req.kind.into();
            self.sink.emit(TraceEvent::BusGrant {
                time: now,
                pid: req.pid as u32,
                token: req.token,
                kind,
                addr: req.addr,
                queue_depth: self.arbiter.pending() as u32,
                busy: occupancy_end - now,
            });
            self.sink.emit(TraceEvent::TxnStart {
                time: now,
                pid: req.pid as u32,
                token: req.token,
                kind,
                addr: req.addr,
            });
        }
        self.stats.bus_bytes += match req.kind {
            k if k.carries_line() => self.cfg.l2_line as u64,
            TxnKind::Auth | TxnKind::PadRequest => 16,
            TxnKind::Update => 8, // one written word + address
            _ => 8,
        };

        // Record the resolved supplier and the granted transaction for
        // completion handling — one slab slot holds both.
        let slot = self.slots[req.token as usize]
            .as_mut()
            .expect("granted token is live");
        if let Purpose::CoreFill { supplier, .. } = &mut slot.purpose {
            *supplier = txn.supplier;
        }
        slot.txn = Some(txn);

        if req.blocking
            && matches!(
                req.kind,
                TxnKind::Read | TxnKind::ReadExclusive | TxnKind::Upgrade | TxnKind::HashFetch
            )
        {
            self.inflight_lines.set(req.addr, completion);
        }
        self.schedule(completion, Event::TxnDone(req.token));

        if self.arbiter.is_empty() {
            self.grant_scheduled = false;
        } else {
            self.schedule(occupancy_end, Event::BusGrant);
        }
    }

    /// Snoops a read of `addr` by `pid`: degrades remote copies, picks the
    /// supplier, and reports whether any other cache keeps a copy.
    ///
    /// With the presence index live, only cores whose bit is set are
    /// visited (ascending pid order, matching the scan it replaces, so
    /// trace emission order is unchanged); otherwise every core is
    /// scanned as before.
    fn snoop_read(&mut self, pid: usize, addr: u64, now: u64) -> (Supplier, bool) {
        let mut supplier = Supplier::Memory;
        let mut sharers = false;
        match self.sharers.mask(addr) {
            Some(mask) => {
                let mut bits = mask & !(1u64 << pid);
                while bits != 0 {
                    let other = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.snoop_read_one(other, addr, now, &mut supplier, &mut sharers);
                }
            }
            None => {
                for other in 0..self.cores.len() {
                    if other != pid {
                        self.snoop_read_one(other, addr, now, &mut supplier, &mut sharers);
                    }
                }
            }
        }
        (supplier, sharers)
    }

    fn snoop_read_one(
        &mut self,
        other: usize,
        addr: u64,
        now: u64,
        supplier: &mut Supplier,
        sharers: &mut bool,
    ) {
        let Some(state) = self.l2[other].peek(addr).copied() else {
            debug_assert!(
                self.sharers.mask(addr).is_none(),
                "presence index lists core {other} for {addr:#x} but its L2 misses"
            );
            return;
        };
        if state.must_supply() {
            *supplier = Supplier::Cache(other);
            // The dirty supplier's L1 copies are now clean.
            self.clean_l1_sublines(other, addr);
        }
        let next = state.on_remote_read();
        *self.l2[other].peek_mut(addr).expect("present") = next;
        if self.sink.enabled() && next != state {
            self.sink.emit(TraceEvent::MesiTransition {
                time: now,
                pid: other as u32,
                addr,
                from: state.into(),
                to: next.into(),
            });
        }
        *sharers = true;
    }

    /// Snoops a write (RdX/Upgrade) of `addr` by `pid`: invalidates remote
    /// copies and picks the supplier. Index-accelerated like
    /// [`System::snoop_read`].
    fn snoop_write(&mut self, pid: usize, addr: u64, now: u64) -> Supplier {
        let mut supplier = Supplier::Memory;
        match self.sharers.mask(addr) {
            Some(mask) => {
                let mut bits = mask & !(1u64 << pid);
                while bits != 0 {
                    let other = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.snoop_write_one(other, addr, now, &mut supplier);
                }
            }
            None => {
                for other in 0..self.cores.len() {
                    if other != pid {
                        self.snoop_write_one(other, addr, now, &mut supplier);
                    }
                }
            }
        }
        supplier
    }

    fn snoop_write_one(&mut self, other: usize, addr: u64, now: u64, supplier: &mut Supplier) {
        let Some(state) = self.l2[other].take(addr) else {
            debug_assert!(
                self.sharers.mask(addr).is_none(),
                "presence index lists core {other} for {addr:#x} but its L2 misses"
            );
            return;
        };
        self.sharers.remove(other, addr);
        if state.must_supply() {
            *supplier = Supplier::Cache(other);
        }
        self.invalidate_l1_sublines(other, addr);
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::MesiTransition {
                time: now,
                pid: other as u32,
                addr,
                from: state.into(),
                to: MesiState::Invalid.into(),
            });
        }
    }

    /// Installs a fresh L2 line, handling victim eviction (write-back +
    /// hash-tree update chain + L1 back-invalidation).
    fn install_l2(&mut self, pid: usize, addr: u64, state: MesiState, now: u64) {
        if self.l2[pid].peek(addr).is_some() {
            // Possible when a previous fill installed the line at grant and
            // a chain step re-fetches it; just upgrade the state.
            let cur = self.l2[pid].peek_mut(addr).expect("present");
            if state == MesiState::Modified {
                let old = std::mem::replace(cur, state);
                if self.sink.enabled() && old != state {
                    self.sink.emit(TraceEvent::MesiTransition {
                        time: now,
                        pid: pid as u32,
                        addr,
                        from: old.into(),
                        to: state.into(),
                    });
                }
            }
            return;
        }
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::MesiTransition {
                time: now,
                pid: pid as u32,
                addr,
                from: MesiState::Invalid.into(),
                to: state.into(),
            });
        }
        self.sharers.add(pid, addr);
        if let Some((victim_addr, victim_state)) = self.l2[pid].insert(addr, state) {
            self.sharers.remove(pid, victim_addr);
            self.invalidate_l1_sublines(pid, victim_addr);
            if victim_state == MesiState::Modified {
                let kind = if is_hash_line(victim_addr) {
                    TxnKind::HashWriteback
                } else {
                    TxnKind::Writeback
                };
                let token = self.token(Purpose::FireAndForget);
                let req = BusRequest {
                    pid,
                    kind,
                    addr: victim_addr,
                    blocking: false,
                    token,
                };
                // Schedule at the current bus time; `push_request` clamps.
                self.push_request(req, self.bus_next_free, false);
                // Hash-tree maintenance for the written-back line.
                let chain = self.ext.writeback_chain(pid, victim_addr);
                if !chain.is_empty() {
                    let mut steps = self.take_steps_buf();
                    chain_to_update_steps(&chain, &mut steps);
                    self.start_chain(pid, steps, false, self.bus_next_free);
                }
            }
        }
    }

    /// Fills the L1 with the subline for `l1_addr` (victim merges into L2
    /// silently — inclusion guarantees the L2 line exists and is Modified
    /// whenever the L1 victim is dirty).
    fn fill_l1(&mut self, pid: usize, l1_addr: u64, dirty: bool) {
        if let Some(meta) = self.l1[pid].peek_mut(l1_addr) {
            meta.dirty |= dirty;
            return;
        }
        self.l1[pid].insert(l1_addr, L1Meta { dirty });
    }

    fn invalidate_l1_sublines(&mut self, pid: usize, l2_addr: u64) {
        let l1_line = self.l1[pid].line_size() as u64;
        let l2_line = self.l2[pid].line_size() as u64;
        let mut a = l2_addr;
        while a < l2_addr + l2_line {
            self.l1[pid].take(a);
            a += l1_line;
        }
    }

    fn clean_l1_sublines(&mut self, pid: usize, l2_addr: u64) {
        let l1_line = self.l1[pid].line_size() as u64;
        let l2_line = self.l2[pid].line_size() as u64;
        let mut a = l2_addr;
        while a < l2_addr + l2_line {
            if let Some(meta) = self.l1[pid].peek_mut(a) {
                meta.dirty = false;
            }
            a += l1_line;
        }
    }

    // ------------------------------------------------------------------
    // Completion side
    // ------------------------------------------------------------------

    fn txn_done(&mut self, token: u64, now: u64) {
        let slot = self.slots[token as usize]
            .take()
            .expect("completion for a granted transaction");
        self.free_tokens.push(token);
        let txn = slot.txn.expect("completed transaction was granted");
        let purpose = slot.purpose;
        if self.sink.enabled() {
            let r = txn.request;
            self.sink.emit(TraceEvent::TxnDone {
                time: now,
                pid: r.pid as u32,
                token,
                kind: r.kind.into(),
                addr: r.addr,
            });
            if let Purpose::CoreFill {
                pid,
                addr,
                supplier: Supplier::Memory,
            } = purpose
            {
                self.sink.emit(TraceEvent::MemFill {
                    time: now,
                    pid: pid as u32,
                    token,
                    addr,
                });
            }
        }
        // The line's data has arrived; conflicting requests may proceed.
        self.inflight_lines.remove_if_elapsed(txn.request.addr, now);
        // Let the extension observe the completed transaction.
        let followups = {
            let mut tracer = Tracer::of(&mut self.sink);
            self.ext.transaction_complete(&txn, now, &mut tracer)
        };
        for f in followups {
            match f {
                FollowUp::Auth { initiator } => {
                    let t = self.token(Purpose::FireAndForget);
                    self.push_request(
                        BusRequest {
                            pid: initiator,
                            kind: TxnKind::Auth,
                            addr: 0,
                            blocking: false,
                            token: t,
                        },
                        now,
                        true,
                    );
                }
                FollowUp::PadInvalidate { pid, addr } => {
                    let t = self.token(Purpose::FireAndForget);
                    self.push_request(
                        BusRequest {
                            pid,
                            kind: TxnKind::PadInvalidate,
                            addr,
                            blocking: false,
                            token: t,
                        },
                        now,
                        true,
                    );
                }
            }
        }

        match purpose {
            Purpose::CoreFill {
                pid,
                addr,
                supplier,
            } => {
                let op = self.cores[pid].pending_op().expect("stalled op");
                // Under write-update, a write fill only needs a readable
                // copy (ownership is never exclusive for shared lines).
                let need = match (op.kind, self.cfg.coherence) {
                    (AccessKind::Write, CoherenceProtocol::WriteUpdate) => AccessKind::Read,
                    (k, _) => k,
                };
                // The line was installed at grant time, but a remote write
                // may have stolen it (or degraded it) while the data was in
                // flight; if so, retry the fill.
                if !self.fill_still_valid(pid, addr, need) {
                    self.retry_fill(pid, addr, op.kind, now);
                    return;
                }
                if op.kind == AccessKind::Write
                    && self.cfg.coherence == CoherenceProtocol::WriteUpdate
                {
                    let state = *self.l2[pid].peek(addr).expect("validated above");
                    if state == MesiState::Shared {
                        // Sharers exist: broadcast the datum before the
                        // write retires; the L1 copy stays clean.
                        let l1_addr = self.l1[pid].line_addr(op.addr);
                        self.fill_l1(pid, l1_addr, false);
                        self.request_write_update(pid, addr, now);
                        return;
                    }
                    // Sole copy: silent E→M as usual.
                    *self.l2[pid].peek_mut(addr).expect("present") = state.on_local_write();
                    let l1_addr = self.l1[pid].line_addr(op.addr);
                    self.fill_l1(pid, l1_addr, true);
                    self.finish_op(pid, now);
                    return;
                }
                let l1_addr = self.l1[pid].line_addr(op.addr);
                self.fill_l1(pid, l1_addr, op.kind == AccessKind::Write);
                // Memory fills may need pad + integrity resolution.
                let mut steps = self.take_steps_buf();
                if supplier == Supplier::Memory {
                    if self.ext.pad_request_needed(pid, addr) {
                        steps.push_back(Step::PadRequest(addr));
                    }
                    for h in self.ext.integrity_chain(pid, addr) {
                        steps.push_back(Step::HashCheck(h));
                    }
                }
                if steps.is_empty() {
                    self.recycle_steps(steps);
                    self.finish_op(pid, now);
                } else {
                    self.start_chain(pid, steps, true, now);
                }
            }
            Purpose::CoreWriteUpdate { pid } => {
                let op = self.cores[pid].pending_op().expect("stalled op");
                // The broadcast retired the write; the line stays Shared
                // everywhere (if it vanished meanwhile, retry as a fill).
                let l2_addr = self.l2[pid].line_addr(op.addr);
                if self.l2[pid].peek(l2_addr).is_none() {
                    self.retry_fill(pid, l2_addr, AccessKind::Write, now);
                    return;
                }
                let l1_addr = self.l1[pid].line_addr(op.addr);
                self.fill_l1(pid, l1_addr, false);
                self.finish_op(pid, now);
            }
            Purpose::CoreUpgrade { pid } => {
                let op = self.cores[pid].pending_op().expect("stalled op");
                let l2_addr = self.l2[pid].line_addr(op.addr);
                if !self.fill_still_valid(pid, l2_addr, AccessKind::Write) {
                    // Lost the line while upgrading: escalate to a full RdX.
                    self.retry_fill(pid, l2_addr, AccessKind::Write, now);
                    return;
                }
                let l1_addr = self.l1[pid].line_addr(op.addr);
                self.fill_l1(pid, l1_addr, true);
                self.finish_op(pid, now);
            }
            Purpose::ChainStep { chain_id } => {
                self.continue_chain(chain_id, now, true);
            }
            Purpose::FireAndForget => {}
        }
    }

    /// Whether the line filled for `pid` still satisfies the stalled access.
    fn fill_still_valid(&self, pid: usize, addr: u64, kind: AccessKind) -> bool {
        match self.l2[pid].peek(addr) {
            None => false,
            Some(state) => match kind {
                AccessKind::Read => state.can_read(),
                AccessKind::Write => state.can_write(),
            },
        }
    }

    /// Re-issues a fill whose line was stolen in flight; the core stays
    /// stalled.
    fn retry_fill(&mut self, pid: usize, addr: u64, kind: AccessKind, now: u64) {
        let txn_kind = match (kind, self.cfg.coherence) {
            (AccessKind::Read, _) => TxnKind::Read,
            (AccessKind::Write, CoherenceProtocol::WriteInvalidate) => TxnKind::ReadExclusive,
            (AccessKind::Write, CoherenceProtocol::WriteUpdate) => TxnKind::Read,
        };
        let token = self.token(Purpose::CoreFill {
            pid,
            addr,
            supplier: Supplier::None,
        });
        self.push_request(
            BusRequest {
                pid,
                kind: txn_kind,
                addr,
                blocking: true,
                token,
            },
            now,
            false,
        );
    }

    // ------------------------------------------------------------------
    // Resolution chains (pad requests + Merkle walks)
    // ------------------------------------------------------------------

    fn start_chain(&mut self, pid: usize, steps: VecDeque<Step>, blocking: bool, now: u64) {
        let chain = Some(ChainWalk {
            pid,
            steps,
            blocking,
        });
        let id = match self.free_chains.pop() {
            Some(id) => {
                self.chains[id as usize] = chain;
                id
            }
            None => {
                self.chains.push(chain);
                (self.chains.len() - 1) as u64
            }
        };
        self.continue_chain(id, now, false);
    }

    /// Advances chain `id` at time `now`. `step_completed` signals that the
    /// front step's bus transaction just finished and the step should be
    /// consumed.
    fn continue_chain(&mut self, id: u64, now: u64, step_completed: bool) {
        let mut t = now;
        let Some(mut chain) = self.chains.get_mut(id as usize).and_then(Option::take) else {
            return;
        };
        if step_completed {
            let done = chain.steps.pop_front().expect("in-flight step");
            if let Step::HashCheck(_) = done {
                // The fetched hash line was installed at grant; checking it
                // against its parent costs one hash latency.
                t += self.ext.hash_latency();
                if chain.blocking {
                    self.stats.integrity_check_cycles += self.ext.hash_latency();
                }
            }
        }
        while let Some(&step) = chain.steps.front() {
            match step {
                Step::HashCheck(addr) => {
                    if self.l2[chain.pid].peek(addr).is_some() {
                        // Found in L2: trusted — the walk ends (§6.2). The
                        // fetched line's own hash check proceeds
                        // *speculatively* (Suh et al.: the core consumes
                        // the data while the hashing unit verifies, rolling
                        // back on failure), so the resident-parent case
                        // adds no critical-path latency.
                        self.l2[chain.pid].lookup_mut(addr);
                        // Drop the remaining contiguous hash checks.
                        while matches!(chain.steps.front(), Some(Step::HashCheck(_))) {
                            chain.steps.pop_front();
                        }
                        continue;
                    }
                    // Miss: fetch the node over the bus, then re-enter.
                    let token = self.token(Purpose::ChainStep { chain_id: id });
                    let req = BusRequest {
                        pid: chain.pid,
                        kind: TxnKind::HashFetch,
                        addr,
                        blocking: chain.blocking,
                        token,
                    };
                    self.push_request(req, t, false);
                    self.chains[id as usize] = Some(chain);
                    return;
                }
                Step::PadRequest(addr) => {
                    let token = self.token(Purpose::ChainStep { chain_id: id });
                    let req = BusRequest {
                        pid: chain.pid,
                        kind: TxnKind::PadRequest,
                        addr,
                        blocking: chain.blocking,
                        token,
                    };
                    self.push_request(req, t, false);
                    self.chains[id as usize] = Some(chain);
                    return;
                }
                Step::MarkHashDirty(addr) => {
                    chain.steps.pop_front();
                    match self.l2[chain.pid].peek(addr).copied() {
                        Some(MesiState::Shared) => {
                            // Needs an invalidation broadcast; fire-and-forget.
                            *self.l2[chain.pid].peek_mut(addr).expect("present") =
                                MesiState::Modified;
                            let token = self.token(Purpose::FireAndForget);
                            let req = BusRequest {
                                pid: chain.pid,
                                kind: TxnKind::Upgrade,
                                addr,
                                blocking: false,
                                token,
                            };
                            self.push_request(req, t, false);
                        }
                        Some(_) => {
                            *self.l2[chain.pid].peek_mut(addr).expect("present") =
                                MesiState::Modified;
                        }
                        None => {}
                    }
                }
            }
        }
        // Chain exhausted: free the id and keep the buffer for reuse.
        if chain.blocking {
            self.finish_op(chain.pid, t);
        }
        self.recycle_steps(chain.steps);
        self.free_chains.push(id);
    }
}

/// Builds the step sequence for a §6.2 hash-tree *update* after a
/// write-back into `steps`: verify ancestors bottom-up until one is
/// already resident, then dirty the parent.
fn chain_to_update_steps(chain: &[u64], steps: &mut VecDeque<Step>) {
    steps.extend(chain.iter().map(|&a| Step::HashCheck(a)));
    if let Some(&parent) = chain.first() {
        steps.push_back(Step::MarkHashDirty(parent));
    }
}

/// Victim classification: hash lines live in a disjoint address region by
/// the convention shared with `senss-memprot` (above `1 << 47`), so the
/// simulator can pick the right write-back transaction kind.
fn is_hash_line(addr: u64) -> bool {
    addr >= (1 << 47)
}

/// Snapshot encoding of a MESI state. The numbering is part of the
/// snapshot format — never renumber.
fn mesi_to_u64(s: MesiState) -> u64 {
    match s {
        MesiState::Invalid => 0,
        MesiState::Shared => 1,
        MesiState::Exclusive => 2,
        MesiState::Modified => 3,
    }
}

fn mesi_from_u64(v: u64) -> MesiState {
    match v {
        0 => MesiState::Invalid,
        1 => MesiState::Shared,
        2 => MesiState::Exclusive,
        3 => MesiState::Modified,
        _ => panic!("invalid MESI snapshot value {v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extension::NullExtension;
    use crate::trace::Op;

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig::e6000(n, 1 << 20)
    }

    fn run1(ops: Vec<Op>) -> Stats {
        let mut sys = System::new(cfg(1), vec![VecTrace::new(ops)], NullExtension);
        sys.run()
    }

    #[test]
    fn empty_traces_complete_at_zero() {
        let stats = run1(vec![]);
        assert_eq!(stats.total_cycles, 0);
        assert_eq!(stats.ops_executed, 0);
    }

    #[test]
    fn single_memory_fill_timing() {
        // Cold read: L1 miss, L2 miss, memory fill = 180 cycles end to end.
        let stats = run1(vec![Op::read(0, 0x1000)]);
        assert_eq!(stats.total_cycles, 180);
        assert_eq!(stats.l2_misses, 1);
        assert_eq!(stats.memory_transfers, 1);
        assert_eq!(stats.txn_read, 1);
    }

    #[test]
    fn l1_hit_timing() {
        // Second access to the same line is an L1 hit (2 cycles).
        let stats = run1(vec![Op::read(0, 0x1000), Op::read(0, 0x1004)]);
        assert_eq!(stats.total_cycles, 182);
        assert_eq!(stats.l1_hits, 1);
        assert_eq!(stats.l1_misses, 1);
    }

    #[test]
    fn l2_hit_timing() {
        // 0x1000 and 0x1020 share a 64B L2 line but not a 32B L1 line.
        let stats = run1(vec![Op::read(0, 0x1000), Op::read(0, 0x1020)]);
        assert_eq!(stats.total_cycles, 190);
        assert_eq!(stats.l2_hits, 1);
        assert_eq!(stats.l2_misses, 1);
    }

    #[test]
    fn compute_gaps_accumulate() {
        let stats = run1(vec![Op::read(50, 0x1000), Op::read(30, 0x1004)]);
        // 50 gap + 180 fill + 30 gap + 2 hit.
        assert_eq!(stats.total_cycles, 262);
    }

    #[test]
    fn silent_e_to_m_upgrade_needs_no_bus() {
        // Sole owner writes to an Exclusive line: no Upgrade transaction.
        let stats = run1(vec![Op::read(0, 0x1000), Op::write(0, 0x1004)]);
        assert_eq!(stats.txn_upgrade, 0);
        assert_eq!(stats.upgrades, 0);
        assert_eq!(stats.total_transactions(), 1);
    }

    #[test]
    fn write_after_remote_read_requires_upgrade() {
        // A reads X; B reads X (both Shared); A writes X -> BusUpgr.
        let a = VecTrace::new(vec![Op::read(0, 0x1000), Op::write(500, 0x1000)]);
        let b = VecTrace::new(vec![Op::read(100, 0x1000)]);
        let mut sys = System::new(cfg(2), vec![a, b], NullExtension);
        let stats = sys.run();
        assert_eq!(stats.txn_upgrade, 1);
        assert_eq!(stats.upgrades, 1);
    }

    #[test]
    fn dirty_sharing_is_cache_to_cache() {
        // A writes X (Modified); B reads X -> c2c transfer from A.
        let a = VecTrace::new(vec![Op::write(0, 0x1000)]);
        let b = VecTrace::new(vec![Op::read(1000, 0x1000)]);
        let mut sys = System::new(cfg(2), vec![a, b], NullExtension);
        let stats = sys.run();
        assert_eq!(stats.cache_to_cache_transfers, 1);
        assert_eq!(stats.memory_transfers, 1); // A's initial fill
    }

    #[test]
    fn write_invalidate_forces_remote_refetch() {
        // A and B read X (Shared). A writes (invalidating B). B reads again:
        // that read must be a new bus transaction supplied c2c by A.
        let a = VecTrace::new(vec![Op::read(0, 0x1000), Op::write(1000, 0x1000)]);
        let b = VecTrace::new(vec![Op::read(300, 0x1000), Op::read(3000, 0x1000)]);
        let mut sys = System::new(cfg(2), vec![a, b], NullExtension);
        let stats = sys.run();
        // Fills: A cold, B cold(shared), B re-fetch after invalidation.
        assert_eq!(stats.txn_read, 3);
        assert_eq!(stats.cache_to_cache_transfers, 1);
        assert_eq!(stats.txn_upgrade, 1);
    }

    #[test]
    fn write_miss_uses_read_exclusive() {
        let stats = run1(vec![Op::write(0, 0x2000)]);
        assert_eq!(stats.txn_read_exclusive, 1);
        assert_eq!(stats.txn_read, 0);
    }

    #[test]
    fn capacity_eviction_writes_back_dirty_lines() {
        // Fill one L2 set (4 ways) with dirty lines, then push a 5th line
        // into the same set: the LRU victim must be written back.
        let l2_sets = (1 << 20) / (4 * 64);
        let stride = (l2_sets * 64) as u64;
        let ops: Vec<Op> = (0..5).map(|i| Op::write(0, i * stride)).collect();
        let stats = run1(ops);
        assert_eq!(stats.txn_writeback, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let l2_sets = (1 << 20) / (4 * 64);
        let stride = (l2_sets * 64) as u64;
        let ops: Vec<Op> = (0..5).map(|i| Op::read(0, i * stride)).collect();
        let stats = run1(ops);
        assert_eq!(stats.txn_writeback, 0);
    }

    #[test]
    fn determinism() {
        let mk = || {
            let a = VecTrace::new(
                (0..200)
                    .map(|i| {
                        if i % 3 == 0 {
                            Op::write(i % 7, (i % 40) * 64)
                        } else {
                            Op::read(i % 5, (i % 23) * 64)
                        }
                    })
                    .collect(),
            );
            let b = VecTrace::new(
                (0..200)
                    .map(|i| {
                        if i % 4 == 0 {
                            Op::write(i % 6, (i % 23) * 64)
                        } else {
                            Op::read(i % 3, (i % 40) * 64)
                        }
                    })
                    .collect(),
            );
            System::new(cfg(2), vec![a, b], NullExtension).run()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn bus_serializes_concurrent_fills() {
        // Two cores miss simultaneously on different lines: the second
        // transfer cannot start before the first's occupancy ends.
        let a = VecTrace::new(vec![Op::read(0, 0x1000)]);
        let b = VecTrace::new(vec![Op::read(0, 0x8000)]);
        let mut sys = System::new(cfg(2), vec![a, b], NullExtension);
        let stats = sys.run();
        // First fill completes at 180; second granted at occupancy end
        // (20) and completes at 200.
        assert_eq!(stats.total_cycles, 200);
        assert_eq!(stats.bus_busy_cycles, 40);
    }

    #[test]
    fn ops_counted_across_cores() {
        let a = VecTrace::new(vec![Op::read(0, 0x0), Op::read(0, 0x4)]);
        let b = VecTrace::new(vec![Op::read(0, 0x8000)]);
        let mut sys = System::new(cfg(2), vec![a, b], NullExtension);
        let stats = sys.run();
        assert_eq!(stats.ops_executed, 3);
    }

    #[test]
    fn conflicting_concurrent_fills_make_progress() {
        // Two cores write the same cold line at the same instant. The
        // second RdX must be deferred until the first fill completes
        // (NACK/retry), and both ops must still finish — the livelock
        // guard for in-flight line stealing.
        let a = VecTrace::new(vec![Op::write(0, 0x1000)]);
        let b = VecTrace::new(vec![Op::write(0, 0x1000)]);
        let mut sys = System::new(cfg(2), vec![a, b], NullExtension);
        let stats = sys.run();
        assert_eq!(stats.ops_executed, 2);
        // First fill from memory completes at 180; the deferred RdX is
        // granted no earlier, then supplied c2c from the first writer.
        assert!(stats.total_cycles >= 180 + 120);
        assert_eq!(stats.cache_to_cache_transfers, 1);
    }

    #[test]
    fn ping_pong_terminates() {
        // Dense write sharing between two cores used to be able to
        // livelock via fill stealing; it must terminate with all ops done.
        let mk = |phase: u64| {
            VecTrace::new(
                (0..50)
                    .map(|i| {
                        if (i + phase).is_multiple_of(2) {
                            Op::write(1, 0x2000)
                        } else {
                            Op::read(1, 0x2000)
                        }
                    })
                    .collect(),
            )
        };
        let mut sys = System::new(cfg(2), vec![mk(0), mk(1)], NullExtension);
        let stats = sys.run();
        assert_eq!(stats.ops_executed, 100);
    }

    // --- checkpoint capture / restore ---

    fn busy_traces() -> Vec<VecTrace> {
        let a = VecTrace::new(
            (0..300)
                .map(|i| {
                    if i % 3 == 0 {
                        Op::write(i % 7, (i % 40) * 64)
                    } else {
                        Op::read(i % 5, (i % 23) * 64)
                    }
                })
                .collect(),
        );
        let b = VecTrace::new(
            (0..300)
                .map(|i| {
                    if i % 4 == 0 {
                        Op::write(i % 6, (i % 23) * 64)
                    } else {
                        Op::read(i % 3, (i % 40) * 64)
                    }
                })
                .collect(),
        );
        vec![a, b]
    }

    #[test]
    fn restore_reproduces_uninterrupted_run() {
        let cold = System::new(cfg(2), busy_traces(), NullExtension).run();
        assert!(cold.total_cycles > 100);
        for divisor in [7, 3, 2] {
            let c = cold.total_cycles / divisor;
            let mut sys = System::new(cfg(2), busy_traces(), NullExtension);
            assert!(sys.run_until(c), "events must remain at cycle {c}");
            let state = sys.capture_state();
            let mut restored: System<NullExtension> =
                System::from_state(&state, NullExtension, NullSink);
            assert_eq!(restored.events_processed(), sys.events_processed());
            let warm = restored.finish();
            assert_eq!(warm, cold, "restore at cycle {c} diverged");
            // The original keeps running correctly too.
            assert_eq!(sys.finish(), cold);
        }
    }

    #[test]
    fn capture_is_deterministic_and_side_effect_free() {
        let mut sys = System::new(cfg(2), busy_traces(), NullExtension);
        sys.run_until(500);
        let s1 = sys.capture_state();
        let s2 = sys.capture_state();
        assert_eq!(s1, s2);
        // A restored copy captures identically.
        let restored: System<NullExtension> = System::from_state(&s1, NullExtension, NullSink);
        assert_eq!(restored.capture_state(), s1);
    }

    #[test]
    fn checkpoint_at_captures_during_run() {
        let cold = System::new(cfg(2), busy_traces(), NullExtension).run();
        let mut sys = System::new(cfg(2), busy_traces(), NullExtension);
        sys.checkpoint_at(cold.total_cycles / 2);
        sys.checkpoint_at(cold.total_cycles / 4);
        sys.checkpoint_at(cold.total_cycles / 2); // duplicate collapses
        let stats = sys.run();
        assert_eq!(stats, cold, "armed checkpoints must not perturb the run");
        let cps = sys.take_checkpoints();
        assert_eq!(cps.len(), 2);
        assert_eq!(cps[0].0, cold.total_cycles / 4);
        assert_eq!(cps[1].0, cold.total_cycles / 2);
        for (cycle, state) in cps {
            let mut restored: System<NullExtension> =
                System::from_state(&state, NullExtension, NullSink);
            assert_eq!(restored.finish(), cold, "checkpoint at {cycle} diverged");
        }
        assert!(sys.take_checkpoints().is_empty());
    }

    #[test]
    fn replace_traces_extends_a_fork() {
        // A checkpoint of a short run, forked onto longer traces, must
        // equal the longer run simulated cold.
        let long = busy_traces();
        let short: Vec<VecTrace> = long
            .iter()
            .cloned()
            .map(|mut t| {
                t.truncate(200);
                t
            })
            .collect();
        let cold_long = System::new(cfg(2), long.clone(), NullExtension).run();
        let cold_short = System::new(cfg(2), short.clone(), NullExtension).run();
        // Fork before the short run's first core finishes: behaviour up
        // to there is identical under either trace set.
        let fork_at = cold_short.core_finish_times.iter().min().unwrap() / 2;
        let mut sys = System::new(cfg(2), short, NullExtension);
        sys.run_until(fork_at);
        let mut state = sys.capture_state();
        state.replace_traces(long).unwrap();
        let mut forked: System<NullExtension> = System::from_state(&state, NullExtension, NullSink);
        assert_eq!(forked.finish(), cold_long);
    }

    #[test]
    fn replace_traces_rejects_divergent_prefix() {
        let mut sys = System::new(cfg(2), busy_traces(), NullExtension);
        sys.run_until(500);
        let mut state = sys.capture_state();
        let mut bad = busy_traces();
        bad[0] = VecTrace::new(vec![Op::read(0, 0x9999 * 64)]);
        assert!(state.replace_traces(bad).is_err());
    }

    // --- write-update protocol (§6.1 ablation) ---

    fn cfg_update(n: usize) -> SystemConfig {
        SystemConfig::e6000(n, 1 << 20)
            .with_coherence(crate::config::CoherenceProtocol::WriteUpdate)
    }

    #[test]
    fn write_update_keeps_sharers_valid() {
        // A and B read X; A writes it twice. Under write-update, B's copy
        // stays valid: its later read is a pure L1/L2 hit, and each of
        // A's writes is one Update broadcast.
        let a = VecTrace::new(vec![
            Op::read(0, 0x1000),
            Op::write(500, 0x1000),
            Op::write(100, 0x1000),
        ]);
        let b = VecTrace::new(vec![Op::read(100, 0x1000), Op::read(2000, 0x1000)]);
        let stats = System::new(cfg_update(2), vec![a, b], NullExtension).run();
        assert_eq!(stats.txn_update, 2, "one broadcast per shared write");
        assert_eq!(stats.txn_upgrade, 0, "no invalidations under update");
        // B never re-fetches: only the two initial fills hit the bus.
        assert_eq!(stats.txn_read, 2);
        assert_eq!(stats.cache_to_cache_transfers, 0);
    }

    #[test]
    fn write_update_sole_owner_writes_silently() {
        // No sharers: E→M is silent in both protocols.
        let stats = {
            let t = VecTrace::new(vec![Op::read(0, 0x2000), Op::write(10, 0x2000)]);
            System::new(cfg_update(1), vec![t], NullExtension).run()
        };
        assert_eq!(stats.txn_update, 0);
        assert_eq!(stats.txn_upgrade, 0);
    }

    #[test]
    fn write_update_write_miss_fetches_shared_then_broadcasts() {
        // B holds X Shared; A write-misses X: fill (shared) + broadcast.
        let a = VecTrace::new(vec![Op::write(500, 0x3000)]);
        let b = VecTrace::new(vec![Op::read(0, 0x3000), Op::read(2000, 0x3000)]);
        let stats = System::new(cfg_update(2), vec![a, b], NullExtension).run();
        assert_eq!(stats.txn_read, 2, "B's fill + A's shared fill");
        assert_eq!(stats.txn_read_exclusive, 0);
        assert_eq!(stats.txn_update, 1);
        // B's second read still hits locally.
        assert!(stats.l1_hits + stats.l2_hits >= 1);
    }

    #[test]
    fn update_protocol_trades_refetches_for_broadcast_traffic() {
        // Migratory ping-pong: invalidate refetches the line every
        // handoff; update broadcasts every write instead.
        let mk = |coherence| {
            let a: VecTrace = (0..20).map(|i| Op::write(i * 1500, 0x4000)).collect();
            let b: VecTrace = (0..20).map(|i| Op::write(700 + i * 1500, 0x4000)).collect();
            System::new(
                SystemConfig::e6000(2, 1 << 20).with_coherence(coherence),
                vec![a, b],
                NullExtension,
            )
            .run()
        };
        let inval = mk(crate::config::CoherenceProtocol::WriteInvalidate);
        let update = mk(crate::config::CoherenceProtocol::WriteUpdate);
        assert!(update.txn_update > 30, "nearly every write broadcasts");
        assert!(
            update.cache_to_cache_transfers < inval.cache_to_cache_transfers,
            "update avoids the dirty refetches ({} vs {})",
            update.cache_to_cache_transfers,
            inval.cache_to_cache_transfers
        );
    }

    #[test]
    fn update_broadcasts_are_secured_transfers() {
        // SENSS must encrypt/authenticate update broadcasts: they carry
        // data. The ProbeExt charges its +3/+5 on them.
        let a = VecTrace::new(vec![Op::read(0, 0x5000), Op::write(500, 0x5000)]);
        let b = VecTrace::new(vec![Op::read(100, 0x5000)]);
        let base = System::new(cfg_update(2), vec![a.clone(), b.clone()], NullExtension).run();
        let sec = System::new(
            cfg_update(2),
            vec![a, b],
            ProbeExt {
                auth_every: 1,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(base.txn_update, 1);
        assert!(sec.txn_auth >= 1, "the update ticked the auth counter");
        assert!(sec.total_cycles > base.total_cycles);
    }

    #[test]
    #[should_panic(expected = "one trace per processor")]
    fn trace_count_must_match() {
        let _ = System::new(cfg(2), vec![VecTrace::default()], NullExtension);
    }

    // --- extension hook behaviour ---

    #[derive(Debug, Default)]
    struct ProbeExt {
        c2c_seen: u64,
        auth_every: u64,
    }

    impl Extension for ProbeExt {
        fn transfer_start_delay(
            &mut self,
            _txn: &Transaction,
            _now: u64,
            _tracer: &mut Tracer<'_>,
        ) -> u64 {
            5
        }

        fn transfer_extra_latency(&mut self, _txn: &Transaction) -> u64 {
            3
        }

        fn transaction_complete(
            &mut self,
            txn: &Transaction,
            _now: u64,
            _tracer: &mut Tracer<'_>,
        ) -> Vec<FollowUp> {
            if txn.is_cache_to_cache() {
                self.c2c_seen += 1;
                if self.auth_every > 0 && self.c2c_seen.is_multiple_of(self.auth_every) {
                    return vec![FollowUp::Auth { initiator: 0 }];
                }
            }
            Vec::new()
        }
    }

    #[test]
    fn extension_overhead_applies_to_c2c_only() {
        // Memory fill must not pay the +3/+5; the c2c transfer must.
        let a = VecTrace::new(vec![Op::write(0, 0x1000)]);
        let b = VecTrace::new(vec![Op::read(1000, 0x1000)]);
        let base = System::new(cfg(2), vec![a.clone(), b.clone()], NullExtension).run();
        let sec = System::new(
            cfg(2),
            vec![a, b],
            ProbeExt {
                auth_every: 0,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(sec.total_cycles, base.total_cycles + 5 + 3);
        assert_eq!(sec.mask_stall_cycles, 5);
        assert_eq!(sec.mask_stalled_transfers, 1);
    }

    #[test]
    fn auth_followups_become_transactions() {
        // Force two c2c transfers; auth_every=1 -> two Auth transactions.
        let a = VecTrace::new(vec![Op::write(0, 0x1000), Op::write(10, 0x2000)]);
        let b = VecTrace::new(vec![Op::read(1000, 0x1000), Op::read(10, 0x2000)]);
        let mut sys = System::new(
            cfg(2),
            vec![a, b],
            ProbeExt {
                auth_every: 1,
                ..Default::default()
            },
        );
        let stats = sys.run();
        assert_eq!(stats.cache_to_cache_transfers, 2);
        assert_eq!(stats.txn_auth, 2);
    }

    #[derive(Debug, Default)]
    struct IntegrityExt;

    impl Extension for IntegrityExt {
        fn integrity_chain(&mut self, _pid: usize, addr: u64) -> Vec<u64> {
            // A fixed 2-level chain in the hash region.
            vec![(1 << 47) | (addr >> 3 << 6), (1 << 47) | 0x40]
        }

        fn hash_latency(&self) -> u64 {
            160
        }
    }

    #[test]
    fn integrity_chain_fetches_and_charges() {
        // Cold fill: both chain levels miss -> 2 hash fetches, each
        // followed by a 160-cycle check on the critical path.
        let stats = {
            let mut sys = System::new(
                cfg(1),
                vec![VecTrace::new(vec![Op::read(0, 0x1000)])],
                IntegrityExt,
            );
            sys.run()
        };
        assert_eq!(stats.txn_hash_fetch, 2);
        assert_eq!(stats.integrity_check_cycles, 320);
        // 180 data + (grant wait + 180 + 160) x 2 levels, bus occupancy
        // detail aside: strictly more than three serialized memory trips.
        assert!(stats.total_cycles >= 180 + 2 * (180 + 160));
    }

    #[test]
    fn integrity_walk_stops_at_resident_ancestor() {
        // Two fills whose chains share the root: the second fill's walk
        // must stop at the first resident ancestor.
        let ops = vec![Op::read(0, 0x1000), Op::read(0, 0x9000)];
        let mut sys = System::new(cfg(1), vec![VecTrace::new(ops)], IntegrityExt);
        let stats = sys.run();
        // First fill fetches its parent + root; second fetches only its
        // own parent (root already resident).
        assert_eq!(stats.txn_hash_fetch, 3);
    }

    #[derive(Debug, Default)]
    struct PadExt {
        requests: u64,
    }

    impl Extension for PadExt {
        fn pad_request_needed(&mut self, _pid: usize, _addr: u64) -> bool {
            self.requests += 1;
            true
        }
    }

    #[test]
    fn pad_requests_block_memory_fills() {
        let mut sys = System::new(
            cfg(1),
            vec![VecTrace::new(vec![Op::read(0, 0x1000)])],
            PadExt::default(),
        );
        let stats = sys.run();
        assert_eq!(stats.txn_pad_request, 1);
        // 180 fill + pad request (granted after occupancy, 120 c2c-class).
        assert!(stats.total_cycles >= 300);
        assert_eq!(sys.extension().requests, 1);
    }

    // --- tracing ---

    fn sharing_traces() -> Vec<VecTrace> {
        let a = VecTrace::new(
            (0..100)
                .map(|i| {
                    if i % 3 == 0 {
                        Op::write(i % 7, (i % 40) * 64)
                    } else {
                        Op::read(i % 5, (i % 23) * 64)
                    }
                })
                .collect(),
        );
        let b = VecTrace::new(
            (0..100)
                .map(|i| {
                    if i % 4 == 0 {
                        Op::write(i % 6, (i % 23) * 64)
                    } else {
                        Op::read(i % 3, (i % 40) * 64)
                    }
                })
                .collect(),
        );
        vec![a, b]
    }

    #[test]
    fn traced_run_has_identical_stats_and_matching_counts() {
        use senss_trace::{fold, RingSink, TxnClass};
        let untraced = System::new(cfg(2), sharing_traces(), NullExtension).run();
        let mut sys =
            System::with_sink(cfg(2), sharing_traces(), NullExtension, RingSink::new());
        let stats = sys.run();
        // Tracing must never perturb the simulated machine.
        assert_eq!(stats, untraced);
        let ring = sys.into_sink();
        assert_eq!(ring.dropped(), 0);
        let m = fold(ring.events(), 1 << 12);
        assert_eq!(m.txn_counts[TxnClass::Read.index()], stats.txn_read);
        assert_eq!(
            m.txn_counts[TxnClass::ReadExclusive.index()],
            stats.txn_read_exclusive
        );
        assert_eq!(m.txn_counts[TxnClass::Upgrade.index()], stats.txn_upgrade);
        assert_eq!(m.txn_counts[TxnClass::Writeback.index()], stats.txn_writeback);
        assert_eq!(m.total_transactions(), stats.total_transactions());
        // Summed grant occupancy reproduces the simulator's own counter.
        assert_eq!(m.bus_busy_cycles, stats.bus_busy_cycles);
        // Every span closed: the run drained its event queue.
        assert_eq!(m.open_spans, 0);
        assert_eq!(m.unmatched_done, 0);
        // Memory fills seen at completion match grant-time accounting
        // (no hash fetches in a NullExtension run).
        assert_eq!(m.mem_fills, stats.memory_transfers);
    }

    #[test]
    fn traces_are_deterministic() {
        use senss_trace::RingSink;
        let mk = || {
            let mut sys =
                System::with_sink(cfg(2), sharing_traces(), NullExtension, RingSink::new());
            sys.run();
            sys.into_sink().to_jsonl()
        };
        let a = mk();
        assert!(!a.is_empty());
        assert_eq!(a, mk());
    }

    #[test]
    fn mesi_transitions_are_traced() {
        use senss_trace::{fold, MesiPoint, RingSink};
        // A reads X (I->E), B reads X (A: E->S, B: I->S), A writes X
        // (B: S->I, A: S->M upgrade).
        let a = VecTrace::new(vec![Op::read(0, 0x1000), Op::write(1000, 0x1000)]);
        let b = VecTrace::new(vec![Op::read(300, 0x1000)]);
        let mut sys = System::with_sink(cfg(2), vec![a, b], NullExtension, RingSink::new());
        sys.run();
        let m = fold(sys.sink().events(), 64);
        let at = |f: MesiPoint, t: MesiPoint| m.mesi_transitions[f.index()][t.index()];
        assert_eq!(at(MesiPoint::Invalid, MesiPoint::Exclusive), 1);
        assert_eq!(at(MesiPoint::Exclusive, MesiPoint::Shared), 1);
        assert_eq!(at(MesiPoint::Invalid, MesiPoint::Shared), 1);
        assert_eq!(at(MesiPoint::Shared, MesiPoint::Invalid), 1);
        assert_eq!(at(MesiPoint::Shared, MesiPoint::Modified), 1);
    }

    /// Brute-force oracle for the sharer-presence index: recompute every
    /// line's mask by scanning all L2s and compare, then check the index
    /// holds no stale entries.
    fn assert_sharers_match_brute_force<E: Extension, S: TraceSink>(sys: &System<E, S>) {
        let mut expected: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (pid, cache) in sys.l2.iter().enumerate() {
            for (addr, _) in cache.iter() {
                *expected.entry(addr).or_insert(0) |= 1 << pid;
            }
        }
        for (&addr, &mask) in &expected {
            assert_eq!(
                sys.sharers.mask(addr),
                Some(mask),
                "presence index disagrees with L2 scan at {addr:#x}"
            );
        }
        assert_eq!(
            sys.sharers.indexed_lines(),
            Some(expected.len()),
            "presence index holds stale entries"
        );
    }

    /// Randomized install/evict/invalidate sequences: coherence traffic
    /// over a hot set (constant evictions) plus a wider pool (sharing,
    /// upgrades, invalidations), checked against the brute-force scan at
    /// every cycle boundary, across both protocols and a mid-run
    /// capture/restore.
    #[test]
    fn sharer_index_always_agrees_with_l2_scan_under_random_traffic() {
        use senss_crypto::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x5EA);
        for round in 0..16u64 {
            let n = [2, 3, 4, 8][(round % 4) as usize];
            let config = if round % 5 == 0 {
                cfg(n).with_coherence(CoherenceProtocol::WriteUpdate)
            } else {
                cfg(n)
            };
            // 1 MB 4-way L2 with 64B lines: set stride is 256 KiB, so
            // the hot pool's 12 tags all collide in set 0 and evict
            // constantly; the wide pool exercises plain sharing.
            let traces: Vec<VecTrace> = (0..n)
                .map(|_| {
                    let ops = (0..200)
                        .map(|_| {
                            let addr = if rng.next_below(2) == 0 {
                                rng.next_below(12) * (256 << 10)
                            } else {
                                rng.next_below(64) * 64
                            };
                            let gap = rng.next_below(40);
                            if rng.next_below(3) == 0 {
                                Op::write(gap, addr)
                            } else {
                                Op::read(gap, addr)
                            }
                        })
                        .collect();
                    VecTrace::new(ops)
                })
                .collect();
            let mut sys = System::new(config, traces, NullExtension);
            let mut bound = 0;
            while {
                bound += 500;
                sys.run_until(bound)
            } {
                assert_sharers_match_brute_force(&sys);
            }
            assert_sharers_match_brute_force(&sys);

            // The index is derived state: a restore must rebuild it to
            // the same brute-force-consistent view.
            let state = sys.capture_state();
            let mut restored: System<NullExtension> =
                System::from_state(&state, NullExtension, NullSink);
            assert_sharers_match_brute_force(&restored);
            restored.finish();
            assert_sharers_match_brute_force(&restored);
        }
    }

    /// Above 64 cores the index is disabled and snoops fall back to the
    /// full scan; coherence results must be unchanged.
    #[test]
    fn wide_systems_fall_back_to_full_snoop_scan() {
        let n = 65;
        let mk_traces = || {
            (0..n)
                .map(|pid| {
                    VecTrace::new(vec![
                        Op::read(pid as u64 * 3, 0x1000),
                        Op::write(200, 0x1000),
                    ])
                })
                .collect::<Vec<_>>()
        };
        let mut sys = System::new(cfg(n), mk_traces(), NullExtension);
        assert_eq!(sys.sharers.mask(0x1000), None, "index must be disabled");
        let stats = sys.run();
        assert_eq!(stats.ops_executed, 2 * n as u64);
        // Every write invalidates the other copies, so upgrades and
        // invalidating fills dominate; the run completing with every op
        // executed is the functional check.
        assert!(stats.txn_read_exclusive + stats.txn_upgrade > 0);
    }
}
