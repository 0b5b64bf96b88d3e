//! SERVAS-style authenticryption backend (arXiv:2105.03395).
//!
//! SERVAS fuses encryption and authentication into a single
//! *authenticryption* pass of a tweakable block cipher: the same cipher
//! invocation that produces the ciphertext also produces the
//! authentication tag, and the tag rides the transfer itself. Two
//! consequences the timing model captures:
//!
//! * **One pipeline issue per transfer.** SENSS-CBC issues twice per
//!   transfer (mask chain + MAC chain); the fused pass issues once, so
//!   the shared crypto pipeline congests half as fast at peak bus rate.
//! * **No authentication traffic.** Each transfer carries its own fused
//!   tag and is verified inline by the receiver, so the periodic
//!   chained-MAC `Auth` bus transactions of SENSS disappear entirely —
//!   [`Extension::transaction_complete`] never injects a follow-up.
//!
//! The per-transfer critical-path cost is 2 cycles (sender tweak+XOR,
//! receiver XOR with the tag check overlapped) versus SENSS's 3: the
//! receiver needs no separate GID-table MAC-state lookup because the
//! tag is self-contained.
//!
//! The functional slice is real: each transfer's fused tag is computed
//! with the in-tree AES over a `(address, pid ‖ transfer-counter)`
//! tweak, the receiver recomputes it, and the two are compared in
//! constant time ([`crate::ct_verify`]). A rolling XOR of verified tags
//! (the *attestation chain*) is part of the checkpointed state.

use crate::{ct_verify, must_get};
use senss::mask::MaskArray;
use senss_crypto::aes::Aes;
use senss_crypto::Block;
use senss_sim::bus::Transaction;
use senss_sim::extension::{Extension, FollowUp};
use senss_trace::{TraceEvent, Tracer};

/// Fixed 128-bit key of the functional authenticryption slice. The
/// timing model is key-independent; a fixed key keeps runs and
/// snapshots deterministic.
const SERVAS_KEY: [u8; 16] = *b"SERVAS-authenc-k";

/// Configuration of the SERVAS authenticryption backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServasConfig {
    /// Counter-stream buffers (the analogue of SENSS masks): fused
    /// passes precomputed by the crypto pipeline.
    pub num_masks: usize,
    /// Crypto-unit latency in cycles (same 80-cycle AES core as SENSS —
    /// SERVAS changes the *construction*, not the primitive).
    pub aes_latency: u64,
    /// Pipeline initiation interval in cycles.
    pub aes_initiation_interval: u64,
    /// Fixed per-transfer critical-path cycles (sender tweak+XOR,
    /// receiver XOR; the fused tag check overlaps the data XOR).
    pub per_transfer_overhead: u64,
    /// Number of processors.
    pub num_processors: usize,
}

impl ServasConfig {
    /// The reference configuration: 8 fused-pass buffers on the paper's
    /// 80-cycle, bus-matched AES pipeline, +2 cycles per transfer.
    pub fn paper_default(num_processors: usize) -> ServasConfig {
        ServasConfig {
            num_masks: 8,
            aes_latency: 80,
            aes_initiation_interval: 10,
            per_transfer_overhead: 2,
            num_processors,
        }
    }

    /// Sets the fused-pass buffer count (the Figure-7 analogue sweep).
    pub fn with_masks(mut self, masks: usize) -> ServasConfig {
        self.num_masks = masks;
        self
    }
}

/// SERVAS-layer statistics accumulated during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServasStats {
    /// Cache-to-cache transfers secured by a fused pass.
    pub secured_transfers: u64,
    /// Inline fused-tag verifications performed (one per transfer).
    pub tag_checks: u64,
}

/// The SERVAS authenticryption extension.
#[derive(Debug)]
pub struct ServasExtension {
    cfg: ServasConfig,
    masks: MaskArray,
    aes: Aes,
    /// Monotone per-transfer tweak counter.
    transfers: u64,
    /// Rolling XOR of every verified fused tag (attestation chain).
    chain: Block,
    stats: ServasStats,
}

impl ServasExtension {
    /// Creates the extension.
    pub fn new(cfg: ServasConfig) -> ServasExtension {
        ServasExtension {
            masks: MaskArray::new(cfg.num_masks, cfg.aes_latency, cfg.aes_initiation_interval)
                .with_issues_per_use(1),
            aes: Aes::new_128(&SERVAS_KEY),
            transfers: 0,
            chain: Block::ZERO,
            stats: ServasStats::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServasConfig {
        &self.cfg
    }

    /// Backend statistics.
    pub fn stats(&self) -> &ServasStats {
        &self.stats
    }

    /// The fused-pass buffer array (stall statistics).
    pub fn masks(&self) -> &MaskArray {
        &self.masks
    }

    /// The rolling attestation chain over all verified tags.
    pub fn attestation_chain(&self) -> Block {
        self.chain
    }

    /// The fused tag of transfer number `counter` for line `addr` sent
    /// by `pid`: one cipher invocation over the transfer tweak.
    fn fused_tag(&self, addr: u64, pid: usize, counter: u64) -> Block {
        let tweak = Block::from_words(addr, ((pid as u64) << 48) ^ counter);
        self.aes.encrypt_block(tweak)
    }
}

impl Extension for ServasExtension {
    fn transfer_start_delay(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> u64 {
        let stall = self.masks.acquire(now);
        tracer.emit(|| TraceEvent::ShuEncrypt {
            time: now,
            pid: txn.request.pid as u32,
            token: txn.request.token,
            stall,
        });
        stall
    }

    fn transfer_extra_latency(&mut self, _txn: &Transaction) -> u64 {
        self.cfg.per_transfer_overhead
    }

    fn transaction_complete(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> Vec<FollowUp> {
        if txn.is_cache_to_cache() {
            self.stats.secured_transfers += 1;
            let counter = self.transfers;
            self.transfers += 1;
            // Sender side: the fused pass produced ciphertext + tag.
            let sent = self.fused_tag(txn.request.addr, txn.request.pid, counter);
            // Receiver side: recompute and verify inline, constant-time.
            let expected = self.fused_tag(txn.request.addr, txn.request.pid, counter);
            assert!(
                ct_verify(sent, expected),
                "fused tag mismatch: authenticryption state diverged"
            );
            self.stats.tag_checks += 1;
            self.chain ^= sent;
            let checks = self.stats.tag_checks;
            tracer.emit(|| TraceEvent::ShuVerify {
                time: now,
                pid: txn.request.pid as u32,
                token: txn.request.token,
                auth_round: checks,
            });
        }
        // Authenticryption needs no separate authentication rounds:
        // every transfer was already verified inline.
        Vec::new()
    }

    fn snapshot(&self, out: &mut Vec<(String, u64)>) {
        out.push(("servas.transfers".into(), self.transfers));
        out.push(("servas.secured".into(), self.stats.secured_transfers));
        out.push(("servas.checks".into(), self.stats.tag_checks));
        let (lo, hi) = self.chain.to_words();
        out.push(("servas.chain.lo".into(), lo));
        out.push(("servas.chain.hi".into(), hi));
        let (slots, aes_next, aes_issued, acquisitions, total_stall) = self.masks.export_state();
        out.push(("servas.aes.next".into(), aes_next));
        out.push(("servas.aes.issued".into(), aes_issued));
        out.push(("servas.acq".into(), acquisitions));
        out.push(("servas.stall".into(), total_stall));
        out.push(("servas.mask.len".into(), slots.len() as u64));
        for (j, &at) in slots.iter().enumerate() {
            out.push((format!("servas.mask.{j}"), at));
        }
    }

    fn restore(&mut self, state: &[(String, u64)]) {
        let map: std::collections::BTreeMap<&str, u64> =
            state.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        self.transfers = must_get(&map, "servas.transfers");
        self.stats.secured_transfers = must_get(&map, "servas.secured");
        self.stats.tag_checks = must_get(&map, "servas.checks");
        self.chain = Block::from_words(
            must_get(&map, "servas.chain.lo"),
            must_get(&map, "servas.chain.hi"),
        );
        let len = must_get(&map, "servas.mask.len") as usize;
        let slots: Vec<u64> = (0..len)
            .map(|j| must_get(&map, &format!("servas.mask.{j}")))
            .collect();
        self.masks.restore_state(
            &slots,
            must_get(&map, "servas.aes.next"),
            must_get(&map, "servas.aes.issued"),
            must_get(&map, "servas.acq"),
            must_get(&map, "servas.stall"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senss_sim::bus::{BusRequest, Supplier, TxnKind};

    fn c2c_txn(pid: usize, addr: u64) -> Transaction {
        Transaction {
            request: BusRequest {
                pid,
                kind: TxnKind::Read,
                addr,
                blocking: true,
                token: 0,
            },
            supplier: Supplier::Cache(pid ^ 1),
            granted_at: 0,
        }
    }

    fn mem_txn() -> Transaction {
        Transaction {
            request: BusRequest {
                pid: 0,
                kind: TxnKind::Read,
                addr: 0x40,
                blocking: true,
                token: 0,
            },
            supplier: Supplier::Memory,
            granted_at: 0,
        }
    }

    fn tr() -> Tracer<'static> {
        Tracer::disabled()
    }

    #[test]
    fn never_injects_auth_traffic() {
        let mut e = ServasExtension::new(ServasConfig::paper_default(2));
        for i in 0..500 {
            assert!(e
                .transaction_complete(&c2c_txn(i % 2, (i as u64) * 64), 0, &mut tr())
                .is_empty());
        }
        assert_eq!(e.stats().secured_transfers, 500);
        assert_eq!(e.stats().tag_checks, 500);
    }

    #[test]
    fn overhead_is_two_cycles() {
        let mut e = ServasExtension::new(ServasConfig::paper_default(2));
        assert_eq!(e.transfer_extra_latency(&c2c_txn(0, 0x40)), 2);
    }

    #[test]
    fn single_issue_never_stalls_at_peak_bus_rate() {
        // SENSS-CBC's double issue congests 8 masks at one transfer per
        // bus cycle; the fused single pass does not.
        let mut e = ServasExtension::new(ServasConfig::paper_default(2));
        for i in 0..200u64 {
            assert_eq!(
                e.transfer_start_delay(&c2c_txn(0, 0x40), i * 10, &mut tr()),
                0
            );
        }
    }

    #[test]
    fn memory_fills_are_not_secured_transfers() {
        let mut e = ServasExtension::new(ServasConfig::paper_default(2));
        assert!(e.transaction_complete(&mem_txn(), 0, &mut tr()).is_empty());
        assert_eq!(e.stats().secured_transfers, 0);
    }

    #[test]
    fn attestation_chain_depends_on_history() {
        let mut a = ServasExtension::new(ServasConfig::paper_default(2));
        let mut b = ServasExtension::new(ServasConfig::paper_default(2));
        a.transaction_complete(&c2c_txn(0, 0x40), 0, &mut tr());
        a.transaction_complete(&c2c_txn(1, 0x80), 0, &mut tr());
        b.transaction_complete(&c2c_txn(0, 0x40), 0, &mut tr());
        assert!(!ct_verify(a.attestation_chain(), b.attestation_chain()));
        b.transaction_complete(&c2c_txn(1, 0x80), 0, &mut tr());
        assert!(ct_verify(a.attestation_chain(), b.attestation_chain()));
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let mut e = ServasExtension::new(ServasConfig::paper_default(4).with_masks(2));
        for i in 0..57u64 {
            e.transfer_start_delay(&c2c_txn((i % 4) as usize, i * 64), i * 7, &mut tr());
            e.transaction_complete(&c2c_txn((i % 4) as usize, i * 64), i * 7 + 3, &mut tr());
        }
        let mut state = Vec::new();
        e.snapshot(&mut state);
        let mut fresh = ServasExtension::new(ServasConfig::paper_default(4).with_masks(2));
        fresh.restore(&state);
        let mut again = Vec::new();
        fresh.snapshot(&mut again);
        assert_eq!(
            state, again,
            "snapshot → restore → snapshot must be identity"
        );
        // The restored extension continues identically.
        let a = e.transfer_start_delay(&c2c_txn(0, 0x1000), 400, &mut tr());
        let b = fresh.transfer_start_delay(&c2c_txn(0, 0x1000), 400, &mut tr());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "snapshot missing key servas.transfers")]
    fn foreign_snapshot_is_rejected() {
        let mut e = ServasExtension::new(ServasConfig::paper_default(2));
        e.restore(&[("shu.secured".to_string(), 3)]);
    }

    #[test]
    fn shu_events_reach_a_live_tracer() {
        use senss_trace::RingSink;
        let mut e = ServasExtension::new(ServasConfig::paper_default(2));
        let mut sink = RingSink::new();
        let mut tracer = Tracer::of(&mut sink);
        e.transfer_start_delay(&c2c_txn(0, 0x40), 5, &mut tracer);
        e.transaction_complete(&c2c_txn(0, 0x40), 9, &mut tracer);
        let events: Vec<_> = sink.events().copied().collect();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], TraceEvent::ShuEncrypt { time: 5, .. }));
        assert!(matches!(
            events[1],
            TraceEvent::ShuVerify {
                time: 9,
                auth_round: 1,
                ..
            }
        ));
    }
}
