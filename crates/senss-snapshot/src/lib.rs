//! Deterministic checkpoint/restore of simulator state.
//!
//! A [`Snapshot`] is a [`senss_sim::state::SystemState`] captured at a
//! cycle boundary plus the cycle it was taken at, with a versioned
//! text codec: line-oriented, whitespace-separated, integers only (the
//! simulator holds no floats). The format is strict both ways —
//! [`Snapshot::encode`] emits a canonical byte string (equal states
//! encode identically), and [`Snapshot::decode`] rejects anything it
//! did not write: unknown tags, wrong field counts, non-digit tokens,
//! truncation, or a version it does not speak, each with a line number.
//!
//! Two workflows build on this:
//!
//! * **round-trip replay** — capture mid-run, restore later (or
//!   elsewhere), [`senss_sim::system::System::finish`], and get
//!   bit-identical [`senss_sim::Stats`] and trace events versus the
//!   uninterrupted run;
//! * **warm-start forking** — sweep points that differ only in
//!   operations-per-core share their simulated prefix: fork one
//!   checkpoint via [`Snapshot::replace_traces`] instead of
//!   re-simulating it (the harness does this automatically).
//!
//! See `docs/snapshot.md` for the format specification and the
//! versioning policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;

use senss_sim::bus::{BusRequest, Supplier, Transaction, TxnKind};
use senss_sim::config::{CoherenceProtocol, SystemConfig};
use senss_sim::extension::Extension;
use senss_sim::state::{
    ArbiterSnap, CacheSnap, ChainSnap, CoreSnap, CoreStateSnap, EventKindSnap, EventSnap,
    ForkError, LineSnap, PurposeSnap, StepSnap, SystemState, TxnSlotSnap,
};
use senss_sim::system::System;
use senss_sim::trace::{AccessKind, Op, VecTrace};
use senss_sim::Stats;
use senss_trace::{NullSink, TraceSink};

/// Version of the snapshot text format. Bump on ANY change to the
/// encoding — field order, a new line tag, a widened enum — so stale
/// snapshots are rejected at decode and stale cached results keyed on
/// the format (the harness folds this into its cache keys) are never
/// served.
pub const FORMAT_VERSION: u32 = 1;

/// The header magic on the first line of every snapshot.
const MAGIC: &str = "senss-snapshot";

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The first line is not `senss-snapshot <version>`.
    BadHeader(String),
    /// The header names a format version this build does not speak.
    UnsupportedVersion(u64),
    /// A line failed to parse.
    Line {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The input ended before the `end` marker.
    Truncated,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadHeader(h) => write!(f, "bad snapshot header: {h:?}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot format v{v} not supported (this build speaks v{FORMAT_VERSION})"
                )
            }
            SnapshotError::Line { line, message } => write!(f, "snapshot line {line}: {message}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated before `end` marker"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A captured simulator state plus the cycle it was captured at.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    cycle: u64,
    state: SystemState,
}

impl Snapshot {
    /// Captures the full state of `sys` at the current cycle boundary
    /// (`cycle` is recorded as metadata — pass the bound handed to
    /// [`System::run_until`]).
    pub fn capture<E: Extension, S: TraceSink>(sys: &System<E, S>, cycle: u64) -> Snapshot {
        Snapshot {
            cycle,
            state: sys.capture_state(),
        }
    }

    /// Wraps an already-captured state (e.g. from
    /// [`System::capture_state`]).
    pub fn from_state(cycle: u64, state: SystemState) -> Snapshot {
        Snapshot { cycle, state }
    }

    /// The cycle boundary this snapshot was captured at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The captured state.
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// Restores an untraced [`System`] that continues exactly where the
    /// captured run left off. `ext` must be configured identically to
    /// the captured run's extension; its mutable state is re-imposed.
    pub fn restore<E: Extension>(&self, ext: E) -> System<E> {
        System::from_state(&self.state, ext, NullSink)
    }

    /// [`Snapshot::restore`] with a live trace sink for the
    /// continuation's events.
    pub fn restore_with_sink<E: Extension, S: TraceSink>(&self, ext: E, sink: S) -> System<E, S> {
        System::from_state(&self.state, ext, sink)
    }

    /// Swaps in longer traces for a warm-start fork; see
    /// [`SystemState::replace_traces`].
    pub fn replace_traces(&mut self, traces: Vec<VecTrace>) -> Result<(), ForkError> {
        self.state.replace_traces(traces)
    }

    /// Encodes the snapshot into the versioned text format. Canonical:
    /// equal snapshots encode to identical bytes.
    pub fn encode(&self) -> String {
        let mut w = String::with_capacity(4096);
        let st = &self.state;
        wln(&mut w, format_args!("{MAGIC} {FORMAT_VERSION}"));
        encode_cfg(&mut w, &st.cfg);
        wln(
            &mut w,
            format_args!(
                "meta {} {} {} {} {}",
                self.cycle,
                st.seq,
                st.bus_next_free,
                st.grant_scheduled as u64,
                st.events_processed
            ),
        );
        encode_stats(&mut w, &st.stats);
        w.push_str("events ");
        push_u64(&mut w, st.events.len() as u64);
        for e in &st.events {
            let (kind, arg) = match e.ev {
                EventKindSnap::CoreStep(pid) => (0, pid as u64),
                EventKindSnap::BusGrant => (1, 0),
                EventKindSnap::TxnDone(token) => (2, token),
            };
            for v in [e.time, e.seq, kind, arg] {
                w.push(' ');
                push_u64(&mut w, v);
            }
        }
        w.push('\n');
        for (pid, c) in st.cores.iter().enumerate() {
            let (pf, pgap, pkind, paddr) = match c.pending {
                Some(op) => (1, op.gap, kind_to_u64(op.kind), op.addr),
                None => (0, 0, 0, 0),
            };
            let (ff, fat) = match c.finished_at {
                Some(t) => (1, t),
                None => (0, 0),
            };
            wln(
                &mut w,
                format_args!(
                    "core {pid} {} {} {} {ff} {fat} {pf} {pgap} {pkind} {paddr}",
                    c.pos,
                    c.ops_done,
                    core_state_to_u64(c.state),
                ),
            );
            w.push_str("ops ");
            push_u64(&mut w, c.ops.len() as u64);
            for op in &c.ops {
                for v in [op.gap, kind_to_u64(op.kind), op.addr] {
                    w.push(' ');
                    push_u64(&mut w, v);
                }
            }
            w.push('\n');
        }
        for (level, caches) in [("l1", &st.l1), ("l2", &st.l2)] {
            for (idx, c) in caches.iter().enumerate() {
                wln(
                    &mut w,
                    format_args!("cache {level} {idx} {} {}", c.use_clock, c.sets.len()),
                );
                for set in &c.sets {
                    w.push_str("set ");
                    push_u64(&mut w, set.len() as u64);
                    for l in set {
                        for v in [l.tag, l.meta, l.last_use, l.valid as u64] {
                            w.push(' ');
                            push_u64(&mut w, v);
                        }
                    }
                    w.push('\n');
                }
            }
        }
        wln(&mut w, format_args!("arb {}", st.arbiter.last_granted));
        for (pid, q) in st.arbiter.queues.iter().enumerate() {
            w.push_str("q ");
            push_u64(&mut w, pid as u64);
            w.push(' ');
            push_u64(&mut w, q.len() as u64);
            for r in q {
                encode_request(&mut w, r);
            }
            w.push('\n');
        }
        w.push_str("inj ");
        push_u64(&mut w, st.arbiter.injected.len() as u64);
        for r in &st.arbiter.injected {
            encode_request(&mut w, r);
        }
        w.push('\n');
        let live = st.slots.iter().filter(|s| s.is_some()).count();
        wln(&mut w, format_args!("slots {} {live}", st.slots.len()));
        for (idx, slot) in st.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            w.push_str("slot ");
            push_u64(&mut w, idx as u64);
            let (p, a, b, c, d) = match slot.purpose {
                PurposeSnap::CoreFill {
                    pid,
                    addr,
                    supplier,
                } => {
                    let (sk, sa) = supplier_to_u64(supplier);
                    (0, pid as u64, addr, sk, sa)
                }
                PurposeSnap::CoreUpgrade { pid } => (1, pid as u64, 0, 0, 0),
                PurposeSnap::CoreWriteUpdate { pid } => (2, pid as u64, 0, 0, 0),
                PurposeSnap::ChainStep { chain_id } => (3, chain_id, 0, 0, 0),
                PurposeSnap::FireAndForget => (4, 0, 0, 0, 0),
            };
            for v in [p, a, b, c, d] {
                w.push(' ');
                push_u64(&mut w, v);
            }
            match &slot.txn {
                None => w.push_str(" 0"),
                Some(t) => {
                    w.push_str(" 1");
                    encode_request(&mut w, &t.request);
                    let (sk, sa) = supplier_to_u64(t.supplier);
                    for v in [sk, sa, t.granted_at] {
                        w.push(' ');
                        push_u64(&mut w, v);
                    }
                }
            }
            w.push('\n');
        }
        encode_u64_list(&mut w, "free_tokens", &st.free_tokens);
        w.push_str("inflight ");
        push_u64(&mut w, st.inflight_lines.len() as u64);
        for &(addr, done) in &st.inflight_lines {
            for v in [addr, done] {
                w.push(' ');
                push_u64(&mut w, v);
            }
        }
        w.push('\n');
        let live = st.chains.iter().filter(|c| c.is_some()).count();
        wln(&mut w, format_args!("chains {} {live}", st.chains.len()));
        for (idx, chain) in st.chains.iter().enumerate() {
            let Some(chain) = chain else { continue };
            wln(
                &mut w,
                format_args!(
                    "chain {idx} {} {} {}",
                    chain.pid,
                    chain.blocking as u64,
                    chain.steps.len()
                ),
            );
            w.push_str("steps");
            for s in &chain.steps {
                let (k, a) = match *s {
                    StepSnap::PadRequest(a) => (0, a),
                    StepSnap::HashCheck(a) => (1, a),
                    StepSnap::MarkHashDirty(a) => (2, a),
                };
                for v in [k, a] {
                    w.push(' ');
                    push_u64(&mut w, v);
                }
            }
            w.push('\n');
        }
        encode_u64_list(&mut w, "free_chains", &st.free_chains);
        wln(&mut w, format_args!("ext {}", st.ext.len()));
        for (k, v) in &st.ext {
            debug_assert!(
                !k.is_empty() && !k.contains(char::is_whitespace),
                "extension snapshot keys must be non-empty and whitespace-free: {k:?}"
            );
            wln(&mut w, format_args!("x {k} {v}"));
        }
        w.push_str("end\n");
        w
    }

    /// Decodes a snapshot from the text format, rejecting anything
    /// malformed with a line-numbered [`SnapshotError`].
    pub fn decode(text: &str) -> Result<Snapshot, SnapshotError> {
        let mut p = Parser::new(text);
        {
            let mut f = p.line()?;
            let magic = f.word()?;
            if magic != MAGIC {
                return Err(SnapshotError::BadHeader(magic.to_string()));
            }
            let version = f.u64()?;
            if version != FORMAT_VERSION as u64 {
                return Err(SnapshotError::UnsupportedVersion(version));
            }
            f.done()?;
        }
        let cfg = decode_cfg(&mut p)?;
        let (cycle, seq, bus_next_free, grant_scheduled, events_processed) = {
            let mut f = p.tagged("meta")?;
            let v = (f.u64()?, f.u64()?, f.u64()?, f.bool()?, f.u64()?);
            f.done()?;
            v
        };
        let stats = decode_stats(&mut p)?;
        let events = {
            let mut f = p.tagged("events")?;
            let n = f.count()?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let (time, seq, kind, arg) = (f.u64()?, f.u64()?, f.u64()?, f.u64()?);
                let ev = match kind {
                    0 => EventKindSnap::CoreStep(f.cast_usize(arg)?),
                    1 => EventKindSnap::BusGrant,
                    2 => EventKindSnap::TxnDone(arg),
                    k => return Err(f.err(format!("unknown event kind {k}"))),
                };
                events.push(EventSnap { time, seq, ev });
            }
            f.done()?;
            events
        };
        let mut cores = Vec::with_capacity(cfg.num_processors);
        for pid in 0..cfg.num_processors {
            let mut f = p.tagged("core")?;
            let got = f.usize()?;
            if got != pid {
                return Err(f.err(format!("expected core {pid}, found {got}")));
            }
            let pos = f.usize()?;
            let ops_done = f.u64()?;
            let state = match f.u64()? {
                0 => CoreStateSnap::Ready,
                1 => CoreStateSnap::WaitingBus,
                2 => CoreStateSnap::Finished,
                s => return Err(f.err(format!("unknown core state {s}"))),
            };
            let finished = f.bool()?;
            let fat = f.u64()?;
            let has_pending = f.bool()?;
            let (pgap, pkind, paddr) = (f.u64()?, f.u64()?, f.u64()?);
            let pending = if has_pending {
                Some(Op {
                    gap: pgap,
                    kind: kind_from_u64(pkind).map_err(|m| f.err(m))?,
                    addr: paddr,
                })
            } else {
                None
            };
            f.done()?;
            let mut f = p.tagged("ops")?;
            let n = f.count()?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let (gap, kind, addr) = (f.u64()?, f.u64()?, f.u64()?);
                ops.push(Op {
                    gap,
                    kind: kind_from_u64(kind).map_err(|m| f.err(m))?,
                    addr,
                });
            }
            f.done()?;
            cores.push(CoreSnap {
                ops,
                pos,
                pending,
                state,
                ops_done,
                finished_at: if finished { Some(fat) } else { None },
            });
        }
        let mut caches = |level: &str| -> Result<Vec<CacheSnap>, SnapshotError> {
            let mut out = Vec::with_capacity(cfg.num_processors);
            for idx in 0..cfg.num_processors {
                let mut f = p.tagged("cache")?;
                let got_level = f.word()?;
                if got_level != level {
                    return Err(f.err(format!("expected cache {level}, found {got_level}")));
                }
                let got = f.usize()?;
                if got != idx {
                    return Err(f.err(format!("expected cache {level} {idx}, found {got}")));
                }
                let use_clock = f.u64()?;
                let nsets = f.count()?;
                f.done()?;
                let mut sets = Vec::with_capacity(nsets);
                for _ in 0..nsets {
                    let mut f = p.tagged("set")?;
                    let n = f.count()?;
                    let mut set = Vec::with_capacity(n);
                    for _ in 0..n {
                        set.push(LineSnap {
                            tag: f.u64()?,
                            meta: f.u64()?,
                            last_use: f.u64()?,
                            valid: f.bool()?,
                        });
                    }
                    f.done()?;
                    sets.push(set);
                }
                out.push(CacheSnap { use_clock, sets });
            }
            Ok(out)
        };
        let l1 = caches("l1")?;
        let l2 = caches("l2")?;
        let last_granted = {
            let mut f = p.tagged("arb")?;
            let v = f.usize()?;
            f.done()?;
            v
        };
        let mut queues = Vec::with_capacity(cfg.num_processors);
        for pid in 0..cfg.num_processors {
            let mut f = p.tagged("q")?;
            let got = f.usize()?;
            if got != pid {
                return Err(f.err(format!("expected queue {pid}, found {got}")));
            }
            let n = f.count()?;
            let mut q = Vec::with_capacity(n);
            for _ in 0..n {
                q.push(decode_request(&mut f)?);
            }
            f.done()?;
            queues.push(q);
        }
        let injected = {
            let mut f = p.tagged("inj")?;
            let n = f.count()?;
            let mut inj = Vec::with_capacity(n);
            for _ in 0..n {
                inj.push(decode_request(&mut f)?);
            }
            f.done()?;
            inj
        };
        let (slots_len, slots_live) = {
            let mut f = p.tagged("slots")?;
            let v = (f.count()?, f.usize()?);
            f.done()?;
            v
        };
        let mut slots: Vec<Option<TxnSlotSnap>> = vec![None; slots_len];
        for _ in 0..slots_live {
            let mut f = p.tagged("slot")?;
            let idx = f.usize()?;
            if idx >= slots_len {
                return Err(f.err(format!("slot index {idx} out of range {slots_len}")));
            }
            let (pkind, a, b, c, d) = (f.u64()?, f.u64()?, f.u64()?, f.u64()?, f.u64()?);
            let purpose = match pkind {
                0 => PurposeSnap::CoreFill {
                    pid: f.cast_usize(a)?,
                    addr: b,
                    supplier: supplier_from_u64(c, d).map_err(|m| f.err(m))?,
                },
                1 => PurposeSnap::CoreUpgrade {
                    pid: f.cast_usize(a)?,
                },
                2 => PurposeSnap::CoreWriteUpdate {
                    pid: f.cast_usize(a)?,
                },
                3 => PurposeSnap::ChainStep { chain_id: a },
                4 => PurposeSnap::FireAndForget,
                k => return Err(f.err(format!("unknown purpose kind {k}"))),
            };
            let txn = if f.bool()? {
                let request = decode_request(&mut f)?;
                let (sk, sa, granted_at) = (f.u64()?, f.u64()?, f.u64()?);
                Some(Transaction {
                    request,
                    supplier: supplier_from_u64(sk, sa).map_err(|m| f.err(m))?,
                    granted_at,
                })
            } else {
                None
            };
            f.done()?;
            if slots[idx].is_some() {
                return Err(p.err_last(format!("duplicate slot {idx}")));
            }
            slots[idx] = Some(TxnSlotSnap { purpose, txn });
        }
        let free_tokens = decode_u64_list(&mut p, "free_tokens")?;
        let inflight_lines = {
            let mut f = p.tagged("inflight")?;
            let n = f.count()?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push((f.u64()?, f.u64()?));
            }
            f.done()?;
            v
        };
        let (chains_len, chains_live) = {
            let mut f = p.tagged("chains")?;
            let v = (f.count()?, f.usize()?);
            f.done()?;
            v
        };
        let mut chains: Vec<Option<ChainSnap>> = vec![None; chains_len];
        for _ in 0..chains_live {
            let mut f = p.tagged("chain")?;
            let idx = f.usize()?;
            if idx >= chains_len {
                return Err(f.err(format!("chain index {idx} out of range {chains_len}")));
            }
            let pid = f.usize()?;
            let blocking = f.bool()?;
            let nsteps = f.count()?;
            f.done()?;
            let mut f = p.tagged("steps")?;
            let mut steps = Vec::with_capacity(nsteps);
            for _ in 0..nsteps {
                let (k, a) = (f.u64()?, f.u64()?);
                steps.push(match k {
                    0 => StepSnap::PadRequest(a),
                    1 => StepSnap::HashCheck(a),
                    2 => StepSnap::MarkHashDirty(a),
                    k => return Err(f.err(format!("unknown step kind {k}"))),
                });
            }
            f.done()?;
            if chains[idx].is_some() {
                return Err(p.err_last(format!("duplicate chain {idx}")));
            }
            chains[idx] = Some(ChainSnap {
                pid,
                blocking,
                steps,
            });
        }
        let free_chains = decode_u64_list(&mut p, "free_chains")?;
        let n_ext = {
            let mut f = p.tagged("ext")?;
            let n = f.count()?;
            f.done()?;
            n
        };
        let mut ext = Vec::with_capacity(n_ext);
        for _ in 0..n_ext {
            let mut f = p.tagged("x")?;
            let key = f.word()?.to_string();
            let value = f.u64()?;
            f.done()?;
            ext.push((key, value));
        }
        {
            let mut f = p.tagged("end")?;
            f.done()?;
        }
        if let Some(extra) = p.next_nonempty() {
            return Err(SnapshotError::Line {
                line: extra,
                message: "trailing data after `end`".into(),
            });
        }
        Ok(Snapshot {
            cycle,
            state: SystemState {
                cfg,
                cores,
                l1,
                l2,
                arbiter: ArbiterSnap {
                    queues,
                    injected,
                    last_granted,
                },
                events,
                seq,
                bus_next_free,
                grant_scheduled,
                events_processed,
                slots,
                free_tokens,
                inflight_lines,
                chains,
                free_chains,
                stats,
                ext,
            },
        })
    }
}

// ---------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------

fn wln(w: &mut String, args: std::fmt::Arguments<'_>) {
    w.write_fmt(args).expect("String write is infallible");
    w.push('\n');
}

fn push_u64(w: &mut String, v: u64) {
    write!(w, "{v}").expect("String write is infallible");
}

fn encode_u64_list(w: &mut String, tag: &str, list: &[u64]) {
    w.push_str(tag);
    w.push(' ');
    push_u64(w, list.len() as u64);
    for &v in list {
        w.push(' ');
        push_u64(w, v);
    }
    w.push('\n');
}

fn encode_request(w: &mut String, r: &BusRequest) {
    for v in [
        r.pid as u64,
        txn_kind_to_u64(r.kind),
        r.addr,
        r.blocking as u64,
        r.token,
    ] {
        w.push(' ');
        push_u64(w, v);
    }
}

/// Exhaustive destructuring: adding a `SystemConfig` field without
/// teaching the codec about it fails to compile here.
fn encode_cfg(w: &mut String, cfg: &SystemConfig) {
    let SystemConfig {
        num_processors,
        l1_size,
        l1_ways,
        l1_line,
        l1_hit_latency,
        l2_size,
        l2_ways,
        l2_line,
        l2_hit_latency,
        cache_to_cache_latency,
        cache_to_memory_latency,
        bus_cycle,
        bus_width,
        aes_latency,
        hash_latency,
        coherence,
    } = cfg;
    let coh = match coherence {
        CoherenceProtocol::WriteInvalidate => 0,
        CoherenceProtocol::WriteUpdate => 1,
    };
    wln(
        w,
        format_args!(
            "cfg {num_processors} {l1_size} {l1_ways} {l1_line} {l1_hit_latency} \
             {l2_size} {l2_ways} {l2_line} {l2_hit_latency} {cache_to_cache_latency} \
             {cache_to_memory_latency} {bus_cycle} {bus_width} {aes_latency} \
             {hash_latency} {coh}"
        ),
    );
}

fn decode_cfg(p: &mut Parser<'_>) -> Result<SystemConfig, SnapshotError> {
    let mut f = p.tagged("cfg")?;
    let cfg = SystemConfig {
        num_processors: f.count()?,
        l1_size: f.usize()?,
        l1_ways: f.usize()?,
        l1_line: f.usize()?,
        l1_hit_latency: f.u64()?,
        l2_size: f.usize()?,
        l2_ways: f.usize()?,
        l2_line: f.usize()?,
        l2_hit_latency: f.u64()?,
        cache_to_cache_latency: f.u64()?,
        cache_to_memory_latency: f.u64()?,
        bus_cycle: f.u64()?,
        bus_width: f.usize()?,
        aes_latency: f.u64()?,
        hash_latency: f.u64()?,
        coherence: match f.u64()? {
            0 => CoherenceProtocol::WriteInvalidate,
            1 => CoherenceProtocol::WriteUpdate,
            c => return Err(f.err(format!("unknown coherence protocol {c}"))),
        },
    };
    f.done()?;
    Ok(cfg)
}

/// Exhaustive destructuring: a new `Stats` field breaks the build here
/// until the codec carries it.
fn encode_stats(w: &mut String, stats: &Stats) {
    let Stats {
        total_cycles,
        ops_executed,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        upgrades,
        txn_read,
        txn_read_exclusive,
        txn_upgrade,
        txn_update,
        txn_writeback,
        txn_hash_fetch,
        txn_hash_writeback,
        txn_auth,
        txn_pad_invalidate,
        txn_pad_request,
        cache_to_cache_transfers,
        memory_transfers,
        bus_busy_cycles,
        bus_bytes,
        mask_stall_cycles,
        integrity_check_cycles,
        mask_stalled_transfers,
        core_finish_times,
        core_ops,
    } = stats;
    wln(
        w,
        format_args!(
            "stats {total_cycles} {ops_executed} {l1_hits} {l1_misses} {l2_hits} \
             {l2_misses} {upgrades} {txn_read} {txn_read_exclusive} {txn_upgrade} \
             {txn_update} {txn_writeback} {txn_hash_fetch} {txn_hash_writeback} \
             {txn_auth} {txn_pad_invalidate} {txn_pad_request} \
             {cache_to_cache_transfers} {memory_transfers} {bus_busy_cycles} \
             {bus_bytes} {mask_stall_cycles} {integrity_check_cycles} \
             {mask_stalled_transfers}"
        ),
    );
    encode_u64_list(w, "finish_times", core_finish_times);
    encode_u64_list(w, "core_ops", core_ops);
}

fn decode_stats(p: &mut Parser<'_>) -> Result<Stats, SnapshotError> {
    let mut f = p.tagged("stats")?;
    let mut stats = Stats {
        total_cycles: f.u64()?,
        ops_executed: f.u64()?,
        l1_hits: f.u64()?,
        l1_misses: f.u64()?,
        l2_hits: f.u64()?,
        l2_misses: f.u64()?,
        upgrades: f.u64()?,
        txn_read: f.u64()?,
        txn_read_exclusive: f.u64()?,
        txn_upgrade: f.u64()?,
        txn_update: f.u64()?,
        txn_writeback: f.u64()?,
        txn_hash_fetch: f.u64()?,
        txn_hash_writeback: f.u64()?,
        txn_auth: f.u64()?,
        txn_pad_invalidate: f.u64()?,
        txn_pad_request: f.u64()?,
        cache_to_cache_transfers: f.u64()?,
        memory_transfers: f.u64()?,
        bus_busy_cycles: f.u64()?,
        bus_bytes: f.u64()?,
        mask_stall_cycles: f.u64()?,
        integrity_check_cycles: f.u64()?,
        mask_stalled_transfers: f.u64()?,
        core_finish_times: Vec::new(),
        core_ops: Vec::new(),
    };
    f.done()?;
    stats.core_finish_times = decode_u64_list(p, "finish_times")?;
    stats.core_ops = decode_u64_list(p, "core_ops")?;
    Ok(stats)
}

fn decode_u64_list(p: &mut Parser<'_>, tag: &str) -> Result<Vec<u64>, SnapshotError> {
    let mut f = p.tagged(tag)?;
    let n = f.count()?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(f.u64()?);
    }
    f.done()?;
    Ok(v)
}

fn decode_request(f: &mut Fields<'_, '_>) -> Result<BusRequest, SnapshotError> {
    Ok(BusRequest {
        pid: f.usize()?,
        kind: {
            let k = f.u64()?;
            txn_kind_from_u64(k).map_err(|m| f.err(m))?
        },
        addr: f.u64()?,
        blocking: f.bool()?,
        token: f.u64()?,
    })
}

// ---------------------------------------------------------------------
// Enum numberings — part of the format, never renumber.
// ---------------------------------------------------------------------

fn kind_to_u64(k: AccessKind) -> u64 {
    match k {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

fn kind_from_u64(v: u64) -> Result<AccessKind, String> {
    match v {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        _ => Err(format!("unknown access kind {v}")),
    }
}

fn core_state_to_u64(s: CoreStateSnap) -> u64 {
    match s {
        CoreStateSnap::Ready => 0,
        CoreStateSnap::WaitingBus => 1,
        CoreStateSnap::Finished => 2,
    }
}

fn txn_kind_to_u64(k: TxnKind) -> u64 {
    match k {
        TxnKind::Read => 0,
        TxnKind::ReadExclusive => 1,
        TxnKind::Upgrade => 2,
        TxnKind::Update => 3,
        TxnKind::Writeback => 4,
        TxnKind::HashFetch => 5,
        TxnKind::HashWriteback => 6,
        TxnKind::Auth => 7,
        TxnKind::PadInvalidate => 8,
        TxnKind::PadRequest => 9,
    }
}

fn txn_kind_from_u64(v: u64) -> Result<TxnKind, String> {
    Ok(match v {
        0 => TxnKind::Read,
        1 => TxnKind::ReadExclusive,
        2 => TxnKind::Upgrade,
        3 => TxnKind::Update,
        4 => TxnKind::Writeback,
        5 => TxnKind::HashFetch,
        6 => TxnKind::HashWriteback,
        7 => TxnKind::Auth,
        8 => TxnKind::PadInvalidate,
        9 => TxnKind::PadRequest,
        _ => return Err(format!("unknown transaction kind {v}")),
    })
}

fn supplier_to_u64(s: Supplier) -> (u64, u64) {
    match s {
        Supplier::None => (0, 0),
        Supplier::Memory => (1, 0),
        Supplier::Cache(pid) => (2, pid as u64),
    }
}

fn supplier_from_u64(kind: u64, arg: u64) -> Result<Supplier, String> {
    Ok(match kind {
        0 => Supplier::None,
        1 => Supplier::Memory,
        2 => Supplier::Cache(arg as usize),
        _ => return Err(format!("unknown supplier kind {kind}")),
    })
}

// ---------------------------------------------------------------------
// Strict line parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    lines: std::str::Lines<'a>,
    lineno: usize,
    /// Bytes of input from the start of the next line to the end.
    left: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            lines: text.lines(),
            lineno: 0,
            left: text.len(),
        }
    }

    fn line<'p>(&'p mut self) -> Result<Fields<'a, 'p>, SnapshotError> {
        let line = self.lines.next().ok_or(SnapshotError::Truncated)?;
        self.lineno += 1;
        let left = self.left;
        self.left = left.saturating_sub(line.len() + 1);
        Ok(Fields {
            line: self.lineno,
            left,
            toks: line.split_whitespace(),
            _parser: std::marker::PhantomData,
        })
    }

    /// The next line, whose first token must equal `tag`.
    fn tagged<'p>(&'p mut self, tag: &str) -> Result<Fields<'a, 'p>, SnapshotError> {
        let mut f = self.line()?;
        let got = f.word()?;
        if got != tag {
            let line = f.line;
            return Err(SnapshotError::Line {
                line,
                message: format!("expected `{tag}`, found `{got}`"),
            });
        }
        Ok(f)
    }

    fn err_last(&self, message: String) -> SnapshotError {
        SnapshotError::Line {
            line: self.lineno,
            message,
        }
    }

    /// The 1-based line number of the next non-empty line, if any.
    fn next_nonempty(&mut self) -> Option<usize> {
        for line in self.lines.by_ref() {
            self.lineno += 1;
            if !line.trim().is_empty() {
                return Some(self.lineno);
            }
        }
        None
    }
}

struct Fields<'a, 'p> {
    line: usize,
    /// Bytes of input from the start of this line to the end.
    left: usize,
    toks: std::str::SplitWhitespace<'a>,
    _parser: std::marker::PhantomData<&'p ()>,
}

impl<'a> Fields<'a, '_> {
    fn err(&self, message: String) -> SnapshotError {
        SnapshotError::Line {
            line: self.line,
            message,
        }
    }

    fn word(&mut self) -> Result<&'a str, SnapshotError> {
        self.toks
            .next()
            .ok_or_else(|| self.err("missing field".into()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let tok = self.word()?;
        // Stricter than `u64::from_str` (which accepts a leading `+`):
        // canonical encodings are bare ASCII digits only.
        if tok.is_empty() || !tok.bytes().all(|b| b.is_ascii_digit()) {
            return Err(self.err(format!("not an unsigned integer: {tok:?}")));
        }
        tok.parse::<u64>()
            .map_err(|e| self.err(format!("bad integer {tok:?}: {e}")))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        self.cast_usize(v)
    }

    /// A count of elements that follow in the input, such as a list's
    /// length or a slab's, whose every index is either a live entry's
    /// line or on its free list. Each element takes at least one byte of
    /// text, so a count larger than the bytes left is corrupt; rejecting
    /// it bounds every allocation by the input's size.
    fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > self.left {
            return Err(self.err(format!("count {n} exceeds the {} bytes left", self.left)));
        }
        Ok(n)
    }

    fn cast_usize(&self, v: u64) -> Result<usize, SnapshotError> {
        usize::try_from(v).map_err(|_| self.err(format!("{v} exceeds usize")))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.err(format!("expected 0/1 flag, found {v}"))),
        }
    }

    /// Ensures the line has no trailing tokens.
    fn done(&mut self) -> Result<(), SnapshotError> {
        match self.toks.next() {
            None => Ok(()),
            Some(extra) => Err(self.err(format!("trailing field {extra:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senss_sim::extension::NullExtension;
    use senss_sim::trace::Op;

    fn traces() -> Vec<VecTrace> {
        let a = VecTrace::new(
            (0..400)
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
            (0..400)
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

    fn mid_run_snapshot(cycle: u64) -> Snapshot {
        let cfg = SystemConfig::e6000(2, 1 << 20);
        let mut sys = System::new(cfg, traces(), NullExtension);
        sys.run_until(cycle);
        Snapshot::capture(&sys, cycle)
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let snap = mid_run_snapshot(2_000);
        let text = snap.encode();
        let back = Snapshot::decode(&text).expect("decodes");
        assert_eq!(back, snap);
        // Canonical: re-encoding is byte-identical.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn decoded_snapshot_finishes_identically() {
        let cfg = SystemConfig::e6000(2, 1 << 20);
        let cold = System::new(cfg, traces(), NullExtension).run();
        let snap = mid_run_snapshot(cold.total_cycles / 2);
        let text = snap.encode();
        let back = Snapshot::decode(&text).unwrap();
        let warm = back.restore(NullExtension).finish();
        assert_eq!(warm, cold);
    }

    #[test]
    fn header_and_version_are_enforced() {
        assert!(matches!(
            Snapshot::decode("nonsense 1\n"),
            Err(SnapshotError::BadHeader(_))
        ));
        assert!(matches!(
            Snapshot::decode(&format!("{MAGIC} 999\n")),
            Err(SnapshotError::UnsupportedVersion(999))
        ));
        assert!(matches!(
            Snapshot::decode(""),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn truncation_is_rejected() {
        let text = mid_run_snapshot(2_000).encode();
        // Chop off the `end` marker and a bit more.
        let cut = &text[..text.len() - 10];
        assert!(Snapshot::decode(cut).is_err());
    }

    #[test]
    fn corrupt_tokens_are_rejected_loudly() {
        let text = mid_run_snapshot(2_000).encode();
        let rejected = |bad: &str, corrupted: &str| {
            let err = Snapshot::decode(corrupted).expect_err(bad);
            assert!(
                matches!(err, SnapshotError::Line { .. }),
                "{bad} must fail as a line error, got {err:?}"
            );
        };
        for bad in ["-1", "1.5", "1e9", "+7", "NaN", "inf", "0x10"] {
            rejected(bad, &text.replacen("meta ", &format!("meta {bad} "), 1));
        }
        // Counts no input of this size can back must not size an allocation.
        for (tag, line) in [
            ("events", "events 18446744073709551615"),
            ("events", "events 1099511627776"),
            ("slots", "slots 1099511627776 1"),
        ] {
            let at = text.find(&format!("\n{tag} ")).expect(tag) + 1;
            let end = at + text[at..].find('\n').expect("line end");
            rejected(line, &format!("{}{line}{}", &text[..at], &text[end..]));
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut text = mid_run_snapshot(500).encode();
        text.push_str("extra stuff\n");
        assert!(matches!(
            Snapshot::decode(&text),
            Err(SnapshotError::Line { .. })
        ));
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let text = mid_run_snapshot(500).encode();
        let corrupted = text.replacen("arb ", "arb x", 1);
        match Snapshot::decode(&corrupted) {
            Err(SnapshotError::Line { line, .. }) => assert!(line > 1),
            other => panic!("expected a line error, got {other:?}"),
        }
    }
}
