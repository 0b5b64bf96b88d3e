//! Secret-sharing scattered memory backend (arXiv:2402.15824 flavor).
//!
//! Instead of encrypting memory lines and authenticating them with a
//! hash tree, this design splits every line into `n` XOR shares stored
//! at scattered, address-keyed locations. An adversary who captures
//! fewer than all shares learns nothing (information-theoretic
//! secrecy), and tampering with any share is caught when the
//! reconstruction check fails — so there is no AES mask pipeline and no
//! Merkle walk at all. What it costs instead is *memory traffic*: a
//! fill from memory must also fetch the line's sibling shares, and a
//! writeback must update them.
//!
//! The mapping onto the simulator's hooks:
//!
//! * [`Extension::integrity_chain`] returns the `n−1` sibling-share
//!   addresses for a fill from memory. The simulator fetches them
//!   through the ordinary L2 + bus machinery and stops at the first one
//!   already resident in the local L2 — which models share caching:
//!   hot lines keep their shares on chip and fill at native speed.
//! * [`Extension::hash_latency`] is the per-share *reconstruction*
//!   latency — a few XOR/compare cycles, not a 160-cycle hash.
//! * [`Extension::writeback_chain`] returns the same sibling addresses
//!   for the lazy share update on a writeback.
//! * Cache-to-cache transfers carry reconstructed plaintext guarded by
//!   snooping, so [`Extension::transfer_start_delay`] never stalls (no
//!   masks to wait for) and the per-transfer overhead is 1 cycle of
//!   share-tag bookkeeping.
//!
//! Sibling shares live in a reserved region at [`SHARE_REGION_BASE`]
//! (disjoint from workload addresses *and* from `senss-memprot`'s hash
//! region at `1 << 47`), scattered by an address mix so consecutive
//! lines do not contend for the same share frames.
//!
//! The functional slice is real: each verified fill reconstructs a
//! line fingerprint by XOR-combining AES-derived shares and checks it
//! in constant time against the directly-derived fingerprint
//! ([`crate::ct_verify`]).
//!
//! [`Extension::integrity_chain`]: senss_sim::Extension::integrity_chain
//! [`Extension::writeback_chain`]: senss_sim::Extension::writeback_chain
//! [`Extension::hash_latency`]: senss_sim::Extension::hash_latency
//! [`Extension::transfer_start_delay`]: senss_sim::Extension::transfer_start_delay

use crate::{ct_verify, must_get};
use senss_crypto::aes::Aes;
use senss_crypto::Block;
use senss_sim::bus::{Supplier, Transaction};
use senss_sim::extension::{Extension, FollowUp};
use senss_trace::{TraceEvent, Tracer};

/// Base address of the reserved share region. Shares are synthetic
/// lines flowing through the normal cache + bus machinery, so they get
/// an address range no workload (and no hash region — that is `1 << 47`
/// in `senss-memprot`) can touch.
pub const SHARE_REGION_BASE: u64 = 1 << 48;

/// Fixed 128-bit key deriving the functional share pads. Timing is
/// key-independent; a fixed key keeps runs and snapshots deterministic.
const SCATTER_KEY: [u8; 16] = *b"scattered-mem-ks";

/// Configuration of the secret-sharing scattered memory backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatteredConfig {
    /// Shares per memory line (`n ≥ 2`; secrecy holds unless all `n`
    /// are captured).
    pub shares: u32,
    /// Cycles to XOR-combine one fetched share into the reconstruction
    /// and compare (replaces the 160-cycle hash step).
    pub reconstruct_latency: u64,
    /// Fixed per-transfer critical-path cycles (share-tag bookkeeping).
    pub per_transfer_overhead: u64,
    /// Size of the share region in 64-byte lines. Smaller spans give
    /// sibling shares more L2 reuse; larger spans scatter harder.
    pub span_lines: u64,
    /// Number of processors.
    pub num_processors: usize,
}

impl ScatteredConfig {
    /// The reference configuration: 3 shares, 12-cycle reconstruction,
    /// +1 cycle per transfer, a 4096-line share region.
    pub fn paper_default(num_processors: usize) -> ScatteredConfig {
        ScatteredConfig {
            shares: 3,
            reconstruct_latency: 12,
            per_transfer_overhead: 1,
            span_lines: 4096,
            num_processors,
        }
    }

    /// Sets the share count (the secrecy-vs-traffic knob).
    pub fn with_shares(mut self, shares: u32) -> ScatteredConfig {
        assert!(shares >= 2, "secret sharing needs at least two shares");
        self.shares = shares;
        self
    }
}

/// Scattered-memory statistics accumulated during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScatteredStats {
    /// Cache-to-cache transfers carried (no crypto stall, +1 cycle).
    pub secured_transfers: u64,
    /// Memory fills whose sibling shares were scheduled for fetch.
    pub fills_checked: u64,
    /// Reconstruction checks that verified (constant-time compare).
    pub reconstructions: u64,
    /// Writebacks that scheduled lazy sibling-share updates.
    pub writeback_updates: u64,
}

/// The secret-sharing scattered memory extension.
#[derive(Debug)]
pub struct ScatteredExtension {
    cfg: ScatteredConfig,
    aes: Aes,
    /// Rolling XOR of every reconstructed fingerprint (attestation of
    /// the verified-fill history).
    chain: Block,
    stats: ScatteredStats,
}

/// `splitmix64` finalizer: a cheap bijective mix scattering the share
/// index space.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

impl ScatteredExtension {
    /// Creates the extension.
    pub fn new(cfg: ScatteredConfig) -> ScatteredExtension {
        assert!(cfg.shares >= 2, "secret sharing needs at least two shares");
        assert!(cfg.span_lines > 0, "share region cannot be empty");
        ScatteredExtension {
            aes: Aes::new_128(&SCATTER_KEY),
            chain: Block::ZERO,
            stats: ScatteredStats::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ScatteredConfig {
        &self.cfg
    }

    /// Backend statistics.
    pub fn stats(&self) -> &ScatteredStats {
        &self.stats
    }

    /// The rolling attestation chain over all reconstructed
    /// fingerprints.
    pub fn attestation_chain(&self) -> Block {
        self.chain
    }

    /// The scattered address of sibling share `i` (1-based; share 0 is
    /// the line's home location) for line `addr`: line-aligned inside
    /// the reserved region.
    pub fn share_addr(&self, addr: u64, i: u32) -> u64 {
        let line = addr >> 6;
        let slot = mix(line ^ (u64::from(i) << 56)) % self.cfg.span_lines;
        SHARE_REGION_BASE + slot * 64
    }

    /// The sibling-share addresses fetched on a fill (and updated on a
    /// writeback) of `addr`.
    fn sibling_shares(&self, addr: u64) -> Vec<u64> {
        (1..self.cfg.shares)
            .map(|i| self.share_addr(addr, i))
            .collect()
    }

    /// Functional reconstruction check for a fill of `addr`: derive the
    /// fingerprint, split it into `n` XOR shares, recombine, verify in
    /// constant time. Returns the reconstructed fingerprint.
    fn reconstruct_and_verify(&mut self, addr: u64) -> Block {
        let line = addr >> 6;
        let fingerprint = self.aes.encrypt_block(Block::from_words(line, 0));
        // Shares 1..n are AES-derived pads; share 0 makes the XOR work out.
        let mut pads = Block::ZERO;
        let mut reconstructed = Block::ZERO;
        for i in 1..self.cfg.shares {
            let pad = self
                .aes
                .encrypt_block(Block::from_words(line, u64::from(i) << 32));
            pads ^= pad;
            reconstructed ^= pad;
        }
        let home_share = fingerprint ^ pads;
        reconstructed ^= home_share;
        assert!(
            ct_verify(reconstructed, fingerprint),
            "share reconstruction mismatch: a share was tampered with"
        );
        self.stats.reconstructions += 1;
        self.chain ^= reconstructed;
        reconstructed
    }
}

impl Extension for ScatteredExtension {
    fn transfer_start_delay(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> u64 {
        // No mask pipeline: shares are information-theoretic, nothing
        // must be precomputed before a transfer may start.
        tracer.emit(|| TraceEvent::ShuEncrypt {
            time: now,
            pid: txn.request.pid as u32,
            token: txn.request.token,
            stall: 0,
        });
        0
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
        } else if matches!(txn.supplier, Supplier::Memory) && txn.request.addr < SHARE_REGION_BASE {
            // A workload line arrived from memory: its sibling shares
            // were chained for fetch; run the reconstruction check.
            self.reconstruct_and_verify(txn.request.addr);
            let round = self.stats.reconstructions;
            tracer.emit(|| TraceEvent::ShuVerify {
                time: now,
                pid: txn.request.pid as u32,
                token: txn.request.token,
                auth_round: round,
            });
        }
        // Reconstruction needs no extra bus messages beyond the share
        // fetches already scheduled through `integrity_chain`.
        Vec::new()
    }

    fn integrity_chain(&mut self, _pid: usize, addr: u64) -> Vec<u64> {
        if addr >= SHARE_REGION_BASE {
            // Share fetches themselves are not further split.
            return Vec::new();
        }
        self.stats.fills_checked += 1;
        self.sibling_shares(addr)
    }

    fn writeback_chain(&mut self, _pid: usize, addr: u64) -> Vec<u64> {
        if addr >= SHARE_REGION_BASE {
            return Vec::new();
        }
        self.stats.writeback_updates += 1;
        self.sibling_shares(addr)
    }

    fn hash_latency(&self) -> u64 {
        self.cfg.reconstruct_latency
    }

    fn snapshot(&self, out: &mut Vec<(String, u64)>) {
        out.push(("scat.secured".into(), self.stats.secured_transfers));
        out.push(("scat.fills".into(), self.stats.fills_checked));
        out.push(("scat.recon".into(), self.stats.reconstructions));
        out.push(("scat.wb".into(), self.stats.writeback_updates));
        let (lo, hi) = self.chain.to_words();
        out.push(("scat.chain.lo".into(), lo));
        out.push(("scat.chain.hi".into(), hi));
    }

    fn restore(&mut self, state: &[(String, u64)]) {
        let map: std::collections::BTreeMap<&str, u64> =
            state.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        self.stats.secured_transfers = must_get(&map, "scat.secured");
        self.stats.fills_checked = must_get(&map, "scat.fills");
        self.stats.reconstructions = must_get(&map, "scat.recon");
        self.stats.writeback_updates = must_get(&map, "scat.wb");
        self.chain = Block::from_words(
            must_get(&map, "scat.chain.lo"),
            must_get(&map, "scat.chain.hi"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senss_sim::bus::{BusRequest, TxnKind};

    fn mem_txn(addr: u64) -> Transaction {
        Transaction {
            request: BusRequest {
                pid: 0,
                kind: TxnKind::Read,
                addr,
                blocking: true,
                token: 7,
            },
            supplier: Supplier::Memory,
            granted_at: 0,
        }
    }

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

    fn tr() -> Tracer<'static> {
        Tracer::disabled()
    }

    #[test]
    fn fill_chains_n_minus_one_sibling_shares_in_the_region() {
        let mut e = ScatteredExtension::new(ScatteredConfig::paper_default(4));
        let chain = e.integrity_chain(0, 0x1_0040);
        assert_eq!(chain.len(), 2);
        for a in &chain {
            assert!(*a >= SHARE_REGION_BASE);
            assert!(*a < SHARE_REGION_BASE + 4096 * 64);
            assert_eq!(*a % 64, 0, "share addresses are line-aligned");
        }
        let mut e5 = ScatteredExtension::new(ScatteredConfig::paper_default(4).with_shares(5));
        assert_eq!(e5.integrity_chain(0, 0x1_0040).len(), 4);
    }

    #[test]
    fn share_fetches_are_not_recursively_split() {
        let mut e = ScatteredExtension::new(ScatteredConfig::paper_default(4));
        let sibling = e.share_addr(0x40, 1);
        assert!(e.integrity_chain(0, sibling).is_empty());
        assert!(e.writeback_chain(0, sibling).is_empty());
    }

    #[test]
    fn share_addresses_are_deterministic_and_scattered() {
        let e = ScatteredExtension::new(ScatteredConfig::paper_default(4));
        assert_eq!(e.share_addr(0x40, 1), e.share_addr(0x40, 1));
        // Consecutive lines must not map to consecutive share frames.
        let deltas: Vec<i64> = (0..16u64)
            .map(|l| e.share_addr(l * 64, 1) as i64 - SHARE_REGION_BASE as i64)
            .collect();
        let monotone = deltas.windows(2).all(|w| w[1] - w[0] == 64);
        assert!(!monotone, "shares should scatter, not stride");
    }

    #[test]
    fn reconstruction_replaces_hash_latency() {
        let e = ScatteredExtension::new(ScatteredConfig::paper_default(4));
        assert_eq!(
            e.hash_latency(),
            12,
            "XOR reconstruction, not a 160-cycle hash"
        );
    }

    #[test]
    fn transfers_never_stall_and_cost_one_cycle() {
        let mut e = ScatteredExtension::new(ScatteredConfig::paper_default(2));
        for now in 0..50u64 {
            assert_eq!(e.transfer_start_delay(&c2c_txn(0, 0x40), now, &mut tr()), 0);
        }
        assert_eq!(e.transfer_extra_latency(&c2c_txn(0, 0x40)), 1);
    }

    #[test]
    fn memory_fill_runs_a_reconstruction_check() {
        let mut e = ScatteredExtension::new(ScatteredConfig::paper_default(2));
        e.integrity_chain(0, 0x2_0080);
        assert!(e
            .transaction_complete(&mem_txn(0x2_0080), 10, &mut tr())
            .is_empty());
        assert_eq!(e.stats().reconstructions, 1);
        assert_eq!(e.stats().fills_checked, 1);
        // Share-region fills must not themselves be checked.
        let sibling = e.share_addr(0x2_0080, 1);
        e.transaction_complete(&mem_txn(sibling), 11, &mut tr());
        assert_eq!(e.stats().reconstructions, 1);
    }

    #[test]
    fn attestation_chain_depends_on_fill_history() {
        let mut a = ScatteredExtension::new(ScatteredConfig::paper_default(2));
        let mut b = ScatteredExtension::new(ScatteredConfig::paper_default(2));
        a.transaction_complete(&mem_txn(0x40), 0, &mut tr());
        a.transaction_complete(&mem_txn(0x80), 0, &mut tr());
        b.transaction_complete(&mem_txn(0x40), 0, &mut tr());
        assert!(!ct_verify(a.attestation_chain(), b.attestation_chain()));
        b.transaction_complete(&mem_txn(0x80), 0, &mut tr());
        assert!(ct_verify(a.attestation_chain(), b.attestation_chain()));
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let mut e = ScatteredExtension::new(ScatteredConfig::paper_default(4).with_shares(4));
        for i in 0..30u64 {
            e.integrity_chain(0, i * 64);
            e.transaction_complete(&mem_txn(i * 64), i, &mut tr());
            e.writeback_chain(1, i * 128);
            e.transaction_complete(&c2c_txn((i % 4) as usize, i * 64), i, &mut tr());
        }
        let mut state = Vec::new();
        e.snapshot(&mut state);
        let mut fresh = ScatteredExtension::new(ScatteredConfig::paper_default(4).with_shares(4));
        fresh.restore(&state);
        let mut again = Vec::new();
        fresh.snapshot(&mut again);
        assert_eq!(
            state, again,
            "snapshot → restore → snapshot must be identity"
        );
        assert_eq!(fresh.stats(), e.stats());
    }

    #[test]
    #[should_panic(expected = "snapshot missing key scat.secured")]
    fn foreign_snapshot_is_rejected() {
        let mut e = ScatteredExtension::new(ScatteredConfig::paper_default(2));
        e.restore(&[("servas.transfers".to_string(), 3)]);
    }
}
