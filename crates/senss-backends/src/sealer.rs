//! Sealer-style in-SRAM AES backend (arXiv:2207.01298).
//!
//! Sealer keeps the SENSS *protocol* intact — CBC pad encryption, the
//! periodic chained-MAC authentication transactions, the GID table —
//! but moves mask generation into the SRAM array itself (compute-in-
//! memory AES). The architectural effect is purely a timing one: the
//! 80-cycle standalone AES unit becomes a ~2-cycle in-array operation
//! with single-cycle initiation, so mask-availability stalls all but
//! vanish and far fewer mask buffers are needed.
//!
//! This backend is therefore implemented as a thin wrapper around
//! [`SenssExtension`] with a re-timed [`SenssConfig`]: same datapath,
//! same authentication traffic, same functional guarantees — only the
//! crypto-pipeline constants change. What it isolates in the
//! cross-backend figure is exactly *how much of SENSS's overhead is
//! mask latency* versus protocol cost: the residual overhead under
//! Sealer is the irreducible per-transfer critical path plus
//! authentication traffic.
//!
//! Snapshot state is the inner SENSS state re-namespaced under
//! `sealer.` so a Sealer checkpoint can never be restored into a plain
//! SENSS run (or vice versa) even though the state shapes coincide.

use senss::secure_bus::{CipherMode, SenssConfig, SenssExtension, SenssStats};
use senss_sim::bus::Transaction;
use senss_sim::extension::{Extension, FollowUp};
use senss_trace::Tracer;

/// Configuration of the Sealer in-SRAM AES backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealerConfig {
    /// Cache-to-cache transfers between authentication transactions
    /// (the SENSS §4.3 knob, unchanged by Sealer).
    pub auth_interval: u64,
    /// Mask buffers. In-SRAM regeneration is so fast that two suffice
    /// (double buffering).
    pub num_masks: usize,
    /// In-array AES latency in cycles (~2 vs the standalone unit's 80).
    pub aes_latency: u64,
    /// In-array initiation interval (a fresh mask every cycle).
    pub aes_initiation_interval: u64,
    /// Per-transfer critical-path cycles. The receiver-side GID lookup
    /// overlaps the in-array pad fetch, so 1 cycle instead of SENSS's 3.
    pub per_transfer_overhead: u64,
    /// Number of processors.
    pub num_processors: usize,
}

impl SealerConfig {
    /// The reference configuration: interval-100 authentication with
    /// 2-cycle in-SRAM AES, double-buffered masks, +1 cycle/transfer.
    pub fn paper_default(num_processors: usize) -> SealerConfig {
        SealerConfig {
            auth_interval: 100,
            num_masks: 2,
            aes_latency: 2,
            aes_initiation_interval: 1,
            per_transfer_overhead: 1,
            num_processors,
        }
    }

    /// Sets the authentication interval (shared Figure-9 analogue).
    pub fn with_auth_interval(mut self, interval: u64) -> SealerConfig {
        self.auth_interval = interval;
        self
    }
}

/// The Sealer in-SRAM AES extension: the SENSS datapath on a re-timed
/// crypto pipeline.
#[derive(Debug)]
pub struct SealerExtension {
    cfg: SealerConfig,
    inner: SenssExtension,
}

impl SealerExtension {
    /// Creates the extension.
    pub fn new(cfg: SealerConfig) -> SealerExtension {
        let inner = SenssExtension::new(SenssConfig {
            num_masks: cfg.num_masks,
            auth_interval: cfg.auth_interval,
            per_transfer_overhead: cfg.per_transfer_overhead,
            aes_latency: cfg.aes_latency,
            aes_initiation_interval: cfg.aes_initiation_interval,
            num_processors: cfg.num_processors,
            cipher: CipherMode::CbcTwoPass,
        });
        SealerExtension { cfg, inner }
    }

    /// The configuration.
    pub fn config(&self) -> &SealerConfig {
        &self.cfg
    }

    /// SENSS-layer statistics of the wrapped datapath.
    pub fn stats(&self) -> &SenssStats {
        self.inner.stats()
    }

    /// The wrapped SENSS extension (mask stall statistics etc.).
    pub fn inner(&self) -> &SenssExtension {
        &self.inner
    }
}

const PREFIX: &str = "sealer.";

impl Extension for SealerExtension {
    fn transfer_start_delay(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> u64 {
        self.inner.transfer_start_delay(txn, now, tracer)
    }

    fn transfer_extra_latency(&mut self, txn: &Transaction) -> u64 {
        self.inner.transfer_extra_latency(txn)
    }

    fn transaction_complete(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> Vec<FollowUp> {
        self.inner.transaction_complete(txn, now, tracer)
    }

    fn pad_request_needed(&mut self, pid: usize, addr: u64) -> bool {
        self.inner.pad_request_needed(pid, addr)
    }

    fn integrity_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        self.inner.integrity_chain(pid, addr)
    }

    fn writeback_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        self.inner.writeback_chain(pid, addr)
    }

    fn hash_latency(&self) -> u64 {
        self.inner.hash_latency()
    }

    fn snapshot(&self, out: &mut Vec<(String, u64)>) {
        let mut inner_state = Vec::new();
        self.inner.snapshot(&mut inner_state);
        out.extend(
            inner_state
                .into_iter()
                .map(|(k, v)| (format!("{PREFIX}{k}"), v)),
        );
    }

    fn restore(&mut self, state: &[(String, u64)]) {
        let inner_state: Vec<(String, u64)> = state
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(PREFIX).map(|k| (k.to_string(), *v)))
            .collect();
        assert!(
            !inner_state.is_empty(),
            "snapshot missing key {PREFIX}shu.secured"
        );
        self.inner.restore(&inner_state);
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

    fn tr() -> Tracer<'static> {
        Tracer::disabled()
    }

    #[test]
    fn keeps_senss_authentication_traffic() {
        let mut e = SealerExtension::new(SealerConfig::paper_default(2).with_auth_interval(10));
        let mut auths = 0;
        for i in 0..100 {
            auths += e
                .transaction_complete(&c2c_txn(i % 2, (i as u64) * 64), 0, &mut tr())
                .len();
        }
        assert_eq!(auths, 10, "Sealer keeps the chained-MAC protocol");
    }

    #[test]
    fn in_sram_masks_do_not_stall_bus_rate_transfers() {
        // A data transfer occupies the bus for ~10 cycles; the 2-cycle
        // in-array pipeline refills a mask long before the next grant,
        // so a sustained bus-rate burst never stalls. The same burst on
        // the paper's 80-cycle unit with 2 masks stalls on most grants.
        let mut sealer = SealerExtension::new(SealerConfig::paper_default(2));
        let mut paper = SenssExtension::new(SenssConfig::paper_default(2).with_masks(2));
        let mut sealer_stall = 0;
        let mut paper_stall = 0;
        for i in 0..100u64 {
            let now = i * 10;
            sealer_stall += sealer.transfer_start_delay(&c2c_txn(0, 0x40), now, &mut tr());
            paper_stall += paper.transfer_start_delay(&c2c_txn(0, 0x40), now, &mut tr());
        }
        assert_eq!(sealer_stall, 0, "in-SRAM AES eliminates mask stalls");
        assert!(
            paper_stall > 100,
            "premise check: the 80-cycle unit should stall this burst, got {paper_stall}"
        );
    }

    #[test]
    fn overhead_is_one_cycle() {
        let mut e = SealerExtension::new(SealerConfig::paper_default(2));
        assert_eq!(e.transfer_extra_latency(&c2c_txn(0, 0x40)), 1);
    }

    #[test]
    fn snapshot_round_trips_under_sealer_namespace() {
        let mut e = SealerExtension::new(SealerConfig::paper_default(4).with_auth_interval(7));
        for i in 0..40u64 {
            e.transfer_start_delay(&c2c_txn((i % 4) as usize, i * 64), i * 3, &mut tr());
            e.transaction_complete(&c2c_txn((i % 4) as usize, i * 64), i * 3 + 1, &mut tr());
        }
        let mut state = Vec::new();
        e.snapshot(&mut state);
        assert!(state.iter().all(|(k, _)| k.starts_with("sealer.")));
        let mut fresh = SealerExtension::new(SealerConfig::paper_default(4).with_auth_interval(7));
        fresh.restore(&state);
        let mut again = Vec::new();
        fresh.snapshot(&mut again);
        assert_eq!(state, again);
        assert_eq!(fresh.stats(), e.stats());
    }

    #[test]
    #[should_panic(expected = "snapshot missing key sealer.shu.secured")]
    fn plain_senss_snapshot_is_rejected() {
        // An unprefixed SENSS snapshot must not restore into Sealer.
        let mut e = SealerExtension::new(SealerConfig::paper_default(2));
        e.restore(&[("shu.secured".to_string(), 3)]);
    }
}
