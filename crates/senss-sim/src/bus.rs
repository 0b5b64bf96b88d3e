//! Shared-bus transaction types and the round-robin arbiter.
//!
//! The modelled bus is an arbitrated 100 MHz shared medium. A transaction
//! *occupies* the bus for its transfer cycles (2 bus cycles for a 64 B line
//! over a 32 B-wide bus; 1 bus cycle for address-only messages), while the
//! *requester* additionally waits the access latency (120-cycle
//! cache-to-cache, 180-cycle memory). Snooping state changes are applied
//! atomically at grant time, which keeps the protocol race-free and the
//! simulation deterministic.
//!
//! SENSS adds three message types on the command bus (§7.1): bus
//! authentication (`00`), pad invalidate (`01`) and pad request (`10`) —
//! represented here as [`TxnKind::Auth`], [`TxnKind::PadInvalidate`] and
//! [`TxnKind::PadRequest`].

use std::collections::VecDeque;

/// The kind of a bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Read miss (BusRd): fill a line for reading.
    Read,
    /// Write miss (BusRdX): fill a line for writing, invalidating others.
    ReadExclusive,
    /// Upgrade (BusUpgr): S→M invalidation without data transfer.
    Upgrade,
    /// Write-update broadcast (BusUpd): pushes the written word to all
    /// sharers, keeping their copies valid (the §6.1 "write update"
    /// protocol family; data-carrying, one bus beat).
    Update,
    /// Write-back of a dirty line to memory.
    Writeback,
    /// Fetch of a memory-integrity (Merkle) line from memory.
    HashFetch,
    /// Write-back of a dirty memory-integrity line.
    HashWriteback,
    /// SENSS bus-authentication message (command-bus type `00`).
    Auth,
    /// Pad invalidate message (command-bus type `01`).
    PadInvalidate,
    /// Pad request message (command-bus type `10`); carries pad data from
    /// another cache, so it is a (short) cache-to-cache data transfer.
    PadRequest,
}

/// Keeps the tracing mirror in lockstep: adding a `TxnKind` variant
/// fails to compile until `senss_trace::TxnClass` learns it too.
impl From<TxnKind> for senss_trace::TxnClass {
    fn from(kind: TxnKind) -> senss_trace::TxnClass {
        use senss_trace::TxnClass;
        match kind {
            TxnKind::Read => TxnClass::Read,
            TxnKind::ReadExclusive => TxnClass::ReadExclusive,
            TxnKind::Upgrade => TxnClass::Upgrade,
            TxnKind::Update => TxnClass::Update,
            TxnKind::Writeback => TxnClass::Writeback,
            TxnKind::HashFetch => TxnClass::HashFetch,
            TxnKind::HashWriteback => TxnClass::HashWriteback,
            TxnKind::Auth => TxnClass::Auth,
            TxnKind::PadInvalidate => TxnClass::PadInvalidate,
            TxnKind::PadRequest => TxnClass::PadRequest,
        }
    }
}

impl TxnKind {
    /// Whether the transaction moves a full data line across the bus.
    pub fn carries_line(self) -> bool {
        matches!(
            self,
            TxnKind::Read
                | TxnKind::ReadExclusive
                | TxnKind::Writeback
                | TxnKind::HashFetch
                | TxnKind::HashWriteback
        )
    }

    /// Whether the transaction is one of the SENSS-added message types.
    pub fn is_security_message(self) -> bool {
        matches!(
            self,
            TxnKind::Auth | TxnKind::PadInvalidate | TxnKind::PadRequest
        )
    }
}

/// Who supplies the data for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Supplier {
    /// Another processor's cache (dirty sharing): a cache-to-cache transfer.
    Cache(usize),
    /// Main memory.
    Memory,
    /// No data movement (address-only transaction).
    None,
}

/// A bus request queued by a processor (or injected by the security layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusRequest {
    /// Requesting processor.
    pub pid: usize,
    /// Transaction kind.
    pub kind: TxnKind,
    /// Line address (or 0 for auth messages).
    pub addr: u64,
    /// Whether the requesting core stalls until completion.
    pub blocking: bool,
    /// Simulator-internal token linking the completion back to its purpose
    /// (core fill, integrity-chain step, fire-and-forget).
    pub token: u64,
}

/// A granted transaction, as seen by snoopers and the security extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// The request that was granted.
    pub request: BusRequest,
    /// Resolved data supplier.
    pub supplier: Supplier,
    /// Cycle at which the transaction was granted.
    pub granted_at: u64,
}

impl Transaction {
    /// Whether this transaction is a cache-to-cache data transfer — the
    /// traffic class SENSS encrypts and authenticates. Write-update
    /// broadcasts carry data to every sharer, so they count.
    pub fn is_cache_to_cache(&self) -> bool {
        matches!(self.supplier, Supplier::Cache(_))
            || matches!(self.request.kind, TxnKind::PadRequest | TxnKind::Update)
    }
}

/// Round-robin arbiter over per-processor request queues, plus a separate
/// injection queue for security messages (which have their own round-robin
/// initiator per §4.3).
#[derive(Debug, Clone)]
pub struct Arbiter {
    queues: Vec<VecDeque<BusRequest>>,
    injected: VecDeque<BusRequest>,
    last_granted: usize,
    pending: usize,
    /// Bit `pid` set iff `queues[pid]` is nonempty, so a grant finds the
    /// next requester with two bit scans instead of probing every queue
    /// (the per-event cost that dominates at high processor counts).
    /// Word-indexed to support arbitrary processor counts.
    nonempty: Vec<u64>,
}

impl Arbiter {
    /// Creates an arbiter for `num_processors` request queues.
    pub fn new(num_processors: usize) -> Arbiter {
        Arbiter {
            queues: vec![VecDeque::new(); num_processors],
            injected: VecDeque::new(),
            last_granted: 0,
            pending: 0,
            nonempty: vec![0; num_processors.div_ceil(64).max(1)],
        }
    }

    fn mark_nonempty(&mut self, pid: usize) {
        self.nonempty[pid / 64] |= 1 << (pid % 64);
    }

    /// First pid with a nonempty queue at or after `start` (no wrap), or
    /// `None` if every queue from `start` up is empty.
    fn next_nonempty_from(&self, start: usize) -> Option<usize> {
        let n = self.queues.len();
        if start >= n {
            return None;
        }
        let mut word = start / 64;
        let mut bits = self.nonempty[word] & (u64::MAX << (start % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= self.nonempty.len() {
                return None;
            }
            bits = self.nonempty[word];
        }
    }

    /// Queues a processor request.
    ///
    /// # Panics
    ///
    /// Panics if `req.pid` is out of range.
    pub fn push(&mut self, req: BusRequest) {
        self.queues[req.pid].push_back(req);
        self.mark_nonempty(req.pid);
        self.pending += 1;
    }

    /// Queues an injected (security) message; these win arbitration over
    /// processor requests so authentication does not starve under load.
    pub fn push_injected(&mut self, req: BusRequest) {
        self.injected.push_back(req);
        self.pending += 1;
    }

    /// Re-queues a request at the *front* of its processor's queue (used
    /// when a grant must be retried because its line has a fill in
    /// flight — the split-transaction NACK/retry path).
    pub fn push_front(&mut self, req: BusRequest) {
        self.queues[req.pid].push_front(req);
        self.mark_nonempty(req.pid);
        self.pending += 1;
    }

    /// Number of queued requests.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether any request is waiting.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Exact queue contents for checkpoint capture: per-processor queues
    /// in pid order, the injected queue, and the round-robin cursor.
    /// `pending` and the `nonempty` bitmask are derived, so they are
    /// recomputed on import instead of being serialized.
    pub(crate) fn export_state(&self) -> (Vec<Vec<BusRequest>>, Vec<BusRequest>, usize) {
        (
            self.queues
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            self.injected.iter().copied().collect(),
            self.last_granted,
        )
    }

    /// Restores state captured by [`Arbiter::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if the queue count disagrees with this arbiter's
    /// processor count.
    pub(crate) fn import_state(
        &mut self,
        queues: Vec<Vec<BusRequest>>,
        injected: Vec<BusRequest>,
        last_granted: usize,
    ) {
        assert_eq!(
            queues.len(),
            self.queues.len(),
            "snapshot arbiter has a different processor count"
        );
        self.pending = injected.len();
        self.nonempty.fill(0);
        for (pid, q) in queues.into_iter().enumerate() {
            self.pending += q.len();
            self.queues[pid] = q.into_iter().collect();
            if !self.queues[pid].is_empty() {
                self.mark_nonempty(pid);
            }
        }
        self.injected = injected.into_iter().collect();
        self.last_granted = last_granted;
    }

    /// Grants the next request round-robin, starting after the last
    /// granted processor.
    pub fn grant(&mut self) -> Option<BusRequest> {
        if let Some(req) = self.injected.pop_front() {
            self.pending -= 1;
            return Some(req);
        }
        let n = self.queues.len();
        if n == 0 {
            return None;
        }
        let start = (self.last_granted + 1) % n;
        let pid = match self.next_nonempty_from(start) {
            Some(pid) => pid,
            None => self.next_nonempty_from(0)?,
        };
        let req = self.queues[pid].pop_front().expect("bit set => nonempty");
        if self.queues[pid].is_empty() {
            self.nonempty[pid / 64] &= !(1 << (pid % 64));
        }
        self.last_granted = pid;
        self.pending -= 1;
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(pid: usize, kind: TxnKind) -> BusRequest {
        BusRequest {
            pid,
            kind,
            addr: 0x40,
            blocking: true,
            token: 0,
        }
    }

    #[test]
    fn kinds_classified() {
        assert!(TxnKind::Read.carries_line());
        assert!(TxnKind::Writeback.carries_line());
        assert!(!TxnKind::Upgrade.carries_line());
        assert!(!TxnKind::Auth.carries_line());
        assert!(TxnKind::Auth.is_security_message());
        assert!(!TxnKind::Read.is_security_message());
    }

    #[test]
    fn cache_to_cache_classification() {
        let txn = Transaction {
            request: req(0, TxnKind::Read),
            supplier: Supplier::Cache(1),
            granted_at: 0,
        };
        assert!(txn.is_cache_to_cache());
        let mem = Transaction {
            request: req(0, TxnKind::Read),
            supplier: Supplier::Memory,
            granted_at: 0,
        };
        assert!(!mem.is_cache_to_cache());
        let pad = Transaction {
            request: req(0, TxnKind::PadRequest),
            supplier: Supplier::None,
            granted_at: 0,
        };
        assert!(pad.is_cache_to_cache());
    }

    #[test]
    fn round_robin_fairness() {
        let mut a = Arbiter::new(3);
        a.push(req(0, TxnKind::Read));
        a.push(req(1, TxnKind::Read));
        a.push(req(2, TxnKind::Read));
        // last_granted starts at 0, so order is 1, 2, 0.
        assert_eq!(a.grant().unwrap().pid, 1);
        assert_eq!(a.grant().unwrap().pid, 2);
        assert_eq!(a.grant().unwrap().pid, 0);
        assert!(a.grant().is_none());
        assert!(a.is_empty());
    }

    #[test]
    fn per_processor_fifo_order() {
        let mut a = Arbiter::new(2);
        a.push(BusRequest {
            pid: 1,
            kind: TxnKind::Writeback,
            addr: 0x100,
            blocking: false,
            token: 0,
        });
        a.push(BusRequest {
            pid: 1,
            kind: TxnKind::Read,
            addr: 0x200,
            blocking: true,
            token: 0,
        });
        assert_eq!(a.grant().unwrap().kind, TxnKind::Writeback);
        assert_eq!(a.grant().unwrap().kind, TxnKind::Read);
    }

    #[test]
    fn injected_wins_arbitration() {
        let mut a = Arbiter::new(2);
        a.push(req(0, TxnKind::Read));
        a.push_injected(req(1, TxnKind::Auth));
        assert_eq!(a.grant().unwrap().kind, TxnKind::Auth);
        assert_eq!(a.grant().unwrap().kind, TxnKind::Read);
    }

    #[test]
    fn pending_counts() {
        let mut a = Arbiter::new(1);
        assert_eq!(a.pending(), 0);
        a.push(req(0, TxnKind::Read));
        a.push_injected(req(0, TxnKind::Auth));
        assert_eq!(a.pending(), 2);
        a.grant();
        assert_eq!(a.pending(), 1);
    }
}
