//! The hook through which security layers attach to the simulator.
//!
//! The simulator calls the [`Extension`] at well-defined points:
//!
//! * before a granted cache-to-cache data transfer starts (mask
//!   availability may delay it — §4.4),
//! * to learn the fixed per-transfer overhead (+3 cycles of XOR/GID lookup
//!   — §7.1),
//! * after a transfer completes (the SENSS authentication counter may
//!   inject an `Auth` transaction; memory protection may inject pad
//!   messages — §4.3, §6.1),
//! * when a fill arrives *from memory* (the Merkle ancestor chain must be
//!   verified — §6.2),
//! * when a dirty line is written back (pad update + hash-tree update).
//!
//! [`NullExtension`] implements the insecure baseline: every hook is a
//! no-op, so a `System<NullExtension>` is the stock SMP the paper compares
//! against.

use crate::bus::Transaction;
use senss_trace::Tracer;

/// Follow-up bus messages an extension asks the simulator to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowUp {
    /// A SENSS bus-authentication transaction initiated by `initiator`.
    Auth {
        /// Initiating processor (round-robin across the group, §4.3).
        initiator: usize,
    },
    /// A pad-invalidate broadcast for `addr` from `pid`.
    PadInvalidate {
        /// Originating processor.
        pid: usize,
        /// Memory line whose pad changed.
        addr: u64,
    },
}

/// Security/protection hooks invoked by [`crate::system::System`].
pub trait Extension {
    /// Cycles the granted transfer must wait before it can start (e.g. no
    /// encryption mask is available yet). Called only for cache-to-cache
    /// data transfers. `now` is the grant cycle. `tracer` lets the
    /// extension emit trace events (e.g. `ShuEncrypt`) into the
    /// simulator's sink; it is disabled unless tracing is on.
    fn transfer_start_delay(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> u64 {
        let _ = (txn, now, tracer);
        0
    }

    /// Fixed extra latency on the critical path of each cache-to-cache
    /// data transfer (the paper's +3 cycles: 1 sender XOR, 2 receiver
    /// lookup+XOR).
    fn transfer_extra_latency(&mut self, txn: &Transaction) -> u64 {
        let _ = txn;
        0
    }

    /// Called when any bus transaction completes; returns follow-up
    /// messages to inject (authentication, pad coherence). `tracer` lets
    /// the extension emit trace events (e.g. `ShuVerify`).
    fn transaction_complete(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> Vec<FollowUp> {
        let _ = (txn, now, tracer);
        Vec::new()
    }

    /// Whether processor `pid` must fetch the latest OTP pad from another
    /// cache before it can decrypt a fill of `addr` from memory (§6.1 pad
    /// coherence). A `true` return injects a blocking
    /// [`crate::bus::TxnKind::PadRequest`] transaction.
    fn pad_request_needed(&mut self, pid: usize, addr: u64) -> bool {
        let _ = (pid, addr);
        false
    }

    /// The Merkle ancestor chain (nearest parent first) that must be
    /// verified when processor `pid` fills line `addr` **from memory**.
    /// The simulator walks the chain, stopping at the first ancestor found
    /// in the local L2 (§6.2). Empty means no integrity checking.
    fn integrity_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        let _ = (pid, addr);
        Vec::new()
    }

    /// The Merkle ancestor chain that must be *updated* when processor
    /// `pid` writes line `addr` back to memory. Empty means no integrity
    /// maintenance. These fetches are non-blocking (lazy update).
    fn writeback_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        let _ = (pid, addr);
        Vec::new()
    }

    /// Latency in cycles of one hash verification step.
    fn hash_latency(&self) -> u64 {
        0
    }

    /// Serializes the extension's mutable state as ordered
    /// `(key, value)` pairs for a checkpoint (`senss-snapshot`). Keys
    /// must be stable, unique and whitespace-free; values are plain
    /// integers, so the snapshot format stays integer-only. Default:
    /// nothing to save (the baseline has no mutable security state).
    fn snapshot(&self, out: &mut Vec<(String, u64)>) {
        let _ = out;
    }

    /// Restores state previously produced by
    /// [`snapshot`](Extension::snapshot) into a freshly-constructed
    /// extension of the *same configuration*.
    ///
    /// # Panics
    ///
    /// Implementations should panic on missing or malformed keys — a
    /// mismatch means the snapshot came from a different configuration
    /// or format version, and silently continuing would corrupt the
    /// simulation.
    fn restore(&mut self, state: &[(String, u64)]) {
        let _ = state;
    }
}

/// The insecure baseline: no security machinery at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullExtension;

impl Extension for NullExtension {}

/// Blanket impl so one `System<Box<dyn Extension>>` monomorphization can
/// run any security stack: every harness job, warm-start fork and
/// snapshot restore is that one concrete type, whatever its mode.
impl<E: Extension + ?Sized> Extension for Box<E> {
    fn transfer_start_delay(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> u64 {
        (**self).transfer_start_delay(txn, now, tracer)
    }

    fn transfer_extra_latency(&mut self, txn: &Transaction) -> u64 {
        (**self).transfer_extra_latency(txn)
    }

    fn transaction_complete(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> Vec<FollowUp> {
        (**self).transaction_complete(txn, now, tracer)
    }

    fn pad_request_needed(&mut self, pid: usize, addr: u64) -> bool {
        (**self).pad_request_needed(pid, addr)
    }

    fn integrity_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        (**self).integrity_chain(pid, addr)
    }

    fn writeback_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        (**self).writeback_chain(pid, addr)
    }

    fn hash_latency(&self) -> u64 {
        (**self).hash_latency()
    }

    fn snapshot(&self, out: &mut Vec<(String, u64)>) {
        (**self).snapshot(out)
    }

    fn restore(&mut self, state: &[(String, u64)]) {
        (**self).restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{BusRequest, Supplier, TxnKind};

    fn txn() -> Transaction {
        Transaction {
            request: BusRequest {
                pid: 0,
                kind: TxnKind::Read,
                addr: 0x40,
                blocking: true,
                token: 0,
            },
            supplier: Supplier::Cache(1),
            granted_at: 100,
        }
    }

    #[test]
    fn null_extension_is_free() {
        let mut e = NullExtension;
        assert_eq!(
            e.transfer_start_delay(&txn(), 0, &mut Tracer::disabled()),
            0
        );
        assert_eq!(e.transfer_extra_latency(&txn()), 0);
        assert!(e
            .transaction_complete(&txn(), 0, &mut Tracer::disabled())
            .is_empty());
        assert!(!e.pad_request_needed(0, 0x40));
        assert!(e.integrity_chain(0, 0x40).is_empty());
        assert!(e.writeback_chain(0, 0x40).is_empty());
        assert_eq!(e.hash_latency(), 0);
    }
}
