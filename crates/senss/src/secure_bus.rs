//! The SENSS timing layer for the simulator: [`SenssExtension`].
//!
//! This is the object a `senss_sim::System` is parameterized with to turn
//! the stock SMP into a SENSS machine. It models the paper's costs:
//!
//! * **+3 cycles** per cache-to-cache data transfer (1 cycle sender XOR,
//!   1 cycle receiver GID lookup, 1 cycle receiver XOR — §7.1),
//! * **mask availability stalls** through a [`MaskArray`] driven by the
//!   80-cycle AES unit (§4.4; the paper's Figure 7 sweeps 1/2/4/perfect),
//! * **authentication transactions** injected every `auth_interval`
//!   cache-to-cache transfers (§4.3; Figure 9 sweeps 1/10/32/100),
//! * optionally, the §6 cache-to-memory protection: pad requests, pad
//!   invalidates and Merkle ancestor chains via a
//!   [`senss_memprot::MemProtPolicy`] (Figure 10).

use crate::mask::{MaskArray, PERFECT_MASKS};
use senss_memprot::MemProtPolicy;
use senss_sim::bus::{Transaction, TxnKind};
use senss_sim::extension::{Extension, FollowUp};
use senss_trace::{TraceEvent, Tracer};

/// Which encryption/authentication algorithm pair the SHU runs (§4.3
/// *Implications*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CipherMode {
    /// The paper's scheme: CBC-AES masks for encryption plus a second AES
    /// pass per block for the chained MAC (two pipeline issues/transfer).
    #[default]
    CbcTwoPass,
    /// The GCM alternative: ciphertext and MAC from a single AES pass,
    /// with the tag computed by GF(2^128) multiplication.
    GcmSinglePass,
}

impl CipherMode {
    fn issues_per_use(self) -> u64 {
        match self {
            CipherMode::CbcTwoPass => 2,
            CipherMode::GcmSinglePass => 1,
        }
    }
}

/// Configuration of the SENSS security layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenssConfig {
    /// Number of encryption masks ([`PERFECT_MASKS`] for an unbounded
    /// supply).
    pub num_masks: usize,
    /// Cache-to-cache transfers between authentication transactions.
    pub auth_interval: u64,
    /// Fixed per-transfer critical-path cycles (the paper's 3).
    pub per_transfer_overhead: u64,
    /// AES unit latency in cycles (mask regeneration).
    pub aes_latency: u64,
    /// AES pipeline initiation interval in cycles (one block per bus
    /// cycle at the paper's throughput).
    pub aes_initiation_interval: u64,
    /// Number of processors (round-robin auth initiators).
    pub num_processors: usize,
    /// Encryption/authentication algorithm pair.
    pub cipher: CipherMode,
}

impl SenssConfig {
    /// The paper's highest-security default: interval-100 authentication,
    /// 8 masks, +3 cycles, 80-cycle AES at bus-matched throughput.
    pub fn paper_default(num_processors: usize) -> SenssConfig {
        SenssConfig {
            num_masks: 8,
            auth_interval: 100,
            per_transfer_overhead: 3,
            aes_latency: 80,
            aes_initiation_interval: 10,
            num_processors,
            cipher: CipherMode::CbcTwoPass,
        }
    }

    /// Same but with a perfect mask supply (Figure 6/8/9 runs).
    pub fn with_perfect_masks(mut self) -> SenssConfig {
        self.num_masks = PERFECT_MASKS;
        self
    }

    /// Sets the authentication interval (Figure 9 sweep).
    pub fn with_auth_interval(mut self, interval: u64) -> SenssConfig {
        self.auth_interval = interval;
        self
    }

    /// Sets the mask count (Figure 7 sweep).
    pub fn with_masks(mut self, masks: usize) -> SenssConfig {
        self.num_masks = masks;
        self
    }

    /// Selects the cipher mode (ablation: CBC two-pass vs GCM one-pass).
    pub fn with_cipher(mut self, cipher: CipherMode) -> SenssConfig {
        self.cipher = cipher;
        self
    }
}

/// SENSS-layer statistics accumulated during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SenssStats {
    /// Cache-to-cache transfers secured.
    pub secured_transfers: u64,
    /// Authentication transactions injected.
    pub auth_rounds: u64,
    /// Pad invalidate broadcasts injected.
    pub pad_invalidates: u64,
    /// Blocking pad requests demanded.
    pub pad_requests: u64,
}

/// Per-group security state: each group owns its masks and its
/// authentication counter (the SHU's group information table row).
#[derive(Debug)]
struct GroupState {
    masks: MaskArray,
    transfers_since_auth: u64,
    next_initiator_idx: usize,
    members: Vec<usize>,
}

/// The simulator extension implementing the SENSS model.
#[derive(Debug)]
pub struct SenssExtension {
    cfg: SenssConfig,
    groups: Vec<GroupState>,
    /// pid -> index into `groups`.
    group_of: Vec<usize>,
    stats: SenssStats,
    memprot: Option<MemProtPolicy>,
}

impl SenssExtension {
    /// Creates the bus-security-only extension (Figures 6–9) with a single
    /// group spanning all processors.
    pub fn new(cfg: SenssConfig) -> SenssExtension {
        let all: Vec<usize> = (0..cfg.num_processors).collect();
        SenssExtension::with_groups(cfg, vec![all])
    }

    /// Creates the extension with an explicit processor grouping: each
    /// group gets its own mask array and authentication counter, exactly
    /// as the SHU's group information table keeps per-GID state (§5.2).
    /// Processors not listed in any group join group 0.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty, any group is empty, or a pid is out of
    /// range.
    pub fn with_groups(cfg: SenssConfig, groups: Vec<Vec<usize>>) -> SenssExtension {
        assert!(!groups.is_empty(), "need at least one group");
        let mut group_of = vec![0usize; cfg.num_processors];
        let states: Vec<GroupState> = groups
            .into_iter()
            .enumerate()
            .map(|(g, members)| {
                assert!(!members.is_empty(), "a group needs members");
                for &pid in &members {
                    assert!(pid < cfg.num_processors, "pid {pid} out of range");
                    group_of[pid] = g;
                }
                GroupState {
                    masks: MaskArray::new(
                        cfg.num_masks,
                        cfg.aes_latency,
                        cfg.aes_initiation_interval,
                    )
                    .with_issues_per_use(cfg.cipher.issues_per_use()),
                    transfers_since_auth: 0,
                    next_initiator_idx: 0,
                    members,
                }
            })
            .collect();
        SenssExtension {
            groups: states,
            group_of,
            stats: SenssStats::default(),
            memprot: None,
            cfg,
        }
    }

    /// Adds the §6 cache-to-memory protection (Figure 10's
    /// `SENSS+Mem_OTP_CHash`).
    pub fn with_memory_protection(mut self, policy: MemProtPolicy) -> SenssExtension {
        self.memprot = Some(policy);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SenssConfig {
        &self.cfg
    }

    /// SENSS-layer statistics.
    pub fn stats(&self) -> &SenssStats {
        &self.stats
    }

    /// The mask array of group `g` (stall statistics).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a valid group index.
    pub fn group_masks(&self, g: usize) -> &MaskArray {
        &self.groups[g].masks
    }

    /// The first group's mask array (the common single-group case).
    pub fn masks(&self) -> &MaskArray {
        self.group_masks(0)
    }

    /// Number of groups configured.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The memory-protection policy, if attached.
    pub fn memory_protection(&self) -> Option<&MemProtPolicy> {
        self.memprot.as_ref()
    }

    /// The §7.1 bus augmentation: 2 message-type lines + 10 GID lines on
    /// top of the modelled machine's 378 — a 3.1% increase.
    pub fn extra_bus_lines() -> (usize, usize, f64) {
        let base = 378;
        let extra = 2 + 10;
        (base, extra, extra as f64 / base as f64 * 100.0)
    }
}

impl Extension for SenssExtension {
    fn transfer_start_delay(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> u64 {
        let g = self.group_of[txn.request.pid];
        let stall = self.groups[g].masks.acquire(now);
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
        let mut followups = Vec::new();
        if txn.is_cache_to_cache() {
            self.stats.secured_transfers += 1;
            let g = self.group_of[txn.request.pid];
            let group = &mut self.groups[g];
            group.transfers_since_auth += 1;
            if group.transfers_since_auth >= self.cfg.auth_interval {
                group.transfers_since_auth = 0;
                let initiator = group.members[group.next_initiator_idx % group.members.len()];
                group.next_initiator_idx += 1;
                self.stats.auth_rounds += 1;
                let auth_round = self.stats.auth_rounds;
                tracer.emit(|| TraceEvent::ShuVerify {
                    time: now,
                    pid: initiator as u32,
                    token: txn.request.token,
                    auth_round,
                });
                followups.push(FollowUp::Auth { initiator });
            }
        }
        if txn.request.kind == TxnKind::Writeback {
            if let Some(mp) = self.memprot.as_mut() {
                if mp.writeback_needs_broadcast(txn.request.pid, txn.request.addr) {
                    self.stats.pad_invalidates += 1;
                    followups.push(FollowUp::PadInvalidate {
                        pid: txn.request.pid,
                        addr: txn.request.addr,
                    });
                }
            }
        }
        followups
    }

    fn pad_request_needed(&mut self, pid: usize, addr: u64) -> bool {
        match self.memprot.as_mut() {
            Some(mp) => {
                let needed = mp.fill_needs_pad_request(pid, addr);
                if needed {
                    self.stats.pad_requests += 1;
                }
                needed
            }
            None => false,
        }
    }

    fn integrity_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        match self.memprot.as_mut() {
            Some(mp) => mp.fill_integrity_chain(pid, addr),
            None => Vec::new(),
        }
    }

    fn writeback_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        match self.memprot.as_mut() {
            Some(mp) => mp.writeback_integrity_chain(pid, addr),
            None => Vec::new(),
        }
    }

    fn hash_latency(&self) -> u64 {
        if self.memprot.is_some() {
            160
        } else {
            0
        }
    }

    fn snapshot(&self, out: &mut Vec<(String, u64)>) {
        out.push(("shu.secured".into(), self.stats.secured_transfers));
        out.push(("shu.auth_rounds".into(), self.stats.auth_rounds));
        out.push(("shu.pad_inv".into(), self.stats.pad_invalidates));
        out.push(("shu.pad_req".into(), self.stats.pad_requests));
        for (i, group) in self.groups.iter().enumerate() {
            out.push((format!("g{i}.auth"), group.transfers_since_auth));
            out.push((format!("g{i}.init"), group.next_initiator_idx as u64));
            let (slots, aes_next, aes_issued, acquisitions, total_stall) =
                group.masks.export_state();
            out.push((format!("g{i}.aes.next"), aes_next));
            out.push((format!("g{i}.aes.issued"), aes_issued));
            out.push((format!("g{i}.acq"), acquisitions));
            out.push((format!("g{i}.stall"), total_stall));
            out.push((format!("g{i}.mask.len"), slots.len() as u64));
            for (j, &at) in slots.iter().enumerate() {
                out.push((format!("g{i}.mask.{j}"), at));
            }
        }
        if let Some(mp) = &self.memprot {
            mp.snapshot_into(out);
        }
    }

    fn restore(&mut self, state: &[(String, u64)]) {
        let map: std::collections::BTreeMap<&str, u64> =
            state.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let get = |k: String| -> u64 {
            *map.get(k.as_str())
                .unwrap_or_else(|| panic!("snapshot missing key {k}"))
        };
        self.stats.secured_transfers = get("shu.secured".into());
        self.stats.auth_rounds = get("shu.auth_rounds".into());
        self.stats.pad_invalidates = get("shu.pad_inv".into());
        self.stats.pad_requests = get("shu.pad_req".into());
        for (i, group) in self.groups.iter_mut().enumerate() {
            group.transfers_since_auth = get(format!("g{i}.auth"));
            group.next_initiator_idx = get(format!("g{i}.init")) as usize;
            let len = get(format!("g{i}.mask.len")) as usize;
            let slots: Vec<u64> = (0..len).map(|j| get(format!("g{i}.mask.{j}"))).collect();
            group.masks.restore_state(
                &slots,
                get(format!("g{i}.aes.next")),
                get(format!("g{i}.aes.issued")),
                get(format!("g{i}.acq")),
                get(format!("g{i}.stall")),
            );
        }
        if let Some(mp) = self.memprot.as_mut() {
            mp.restore_from(&map);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senss_memprot::{MemProtConfig, MemProtPolicy};
    use senss_sim::bus::{BusRequest, Supplier};
    use senss_sim::config::SystemConfig;
    use senss_sim::system::System;
    use senss_sim::trace::{Op, VecTrace};

    fn c2c_txn(pid: usize) -> Transaction {
        Transaction {
            request: BusRequest {
                pid,
                kind: TxnKind::Read,
                addr: 0x40,
                blocking: true,
                token: 0,
            },
            supplier: Supplier::Cache(1 - pid),
            granted_at: 0,
        }
    }

    /// A fresh disabled tracer for direct hook calls.
    fn tr() -> Tracer<'static> {
        Tracer::disabled()
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

    #[test]
    fn overhead_is_three_cycles() {
        let mut e = SenssExtension::new(SenssConfig::paper_default(2));
        assert_eq!(e.transfer_extra_latency(&c2c_txn(0)), 3);
    }

    #[test]
    fn auth_fires_every_interval_with_round_robin_initiators() {
        let cfg = SenssConfig::paper_default(2).with_auth_interval(2);
        let mut e = SenssExtension::new(cfg);
        let mut initiators = Vec::new();
        for i in 0..8 {
            for f in e.transaction_complete(&c2c_txn(i % 2), 0, &mut tr()) {
                match f {
                    FollowUp::Auth { initiator } => initiators.push(initiator),
                    other => panic!("unexpected follow-up {other:?}"),
                }
            }
        }
        assert_eq!(initiators, vec![0, 1, 0, 1]);
        assert_eq!(e.stats().auth_rounds, 4);
        assert_eq!(e.stats().secured_transfers, 8);
    }

    #[test]
    fn memory_fills_do_not_tick_the_auth_counter() {
        let cfg = SenssConfig::paper_default(2).with_auth_interval(1);
        let mut e = SenssExtension::new(cfg);
        assert!(e.transaction_complete(&mem_txn(), 0, &mut tr()).is_empty());
        assert_eq!(e.stats().secured_transfers, 0);
    }

    #[test]
    fn mask_stalls_surface_with_one_mask() {
        let cfg = SenssConfig::paper_default(2).with_masks(1);
        let mut e = SenssExtension::new(cfg);
        assert_eq!(e.transfer_start_delay(&c2c_txn(0), 0, &mut tr()), 0);
        let stall = e.transfer_start_delay(&c2c_txn(1), 10, &mut tr());
        assert_eq!(stall, 70, "second transfer waits out the AES latency");
    }

    #[test]
    fn shu_events_reach_a_live_tracer() {
        use senss_trace::{RingSink, TraceEvent};
        let cfg = SenssConfig::paper_default(2).with_auth_interval(1);
        let mut e = SenssExtension::new(cfg);
        let mut sink = RingSink::new();
        let mut tracer = Tracer::of(&mut sink);
        e.transfer_start_delay(&c2c_txn(0), 5, &mut tracer);
        let followups = e.transaction_complete(&c2c_txn(0), 9, &mut tracer);
        assert_eq!(followups.len(), 1, "interval of 1 fires auth immediately");
        let events: Vec<_> = sink.events().copied().collect();
        assert_eq!(events.len(), 2);
        match events[0] {
            TraceEvent::ShuEncrypt {
                time, pid, stall, ..
            } => {
                assert_eq!(time, 5);
                assert_eq!(pid, 0);
                assert_eq!(stall, 0);
            }
            other => panic!("expected ShuEncrypt, got {other:?}"),
        }
        match events[1] {
            TraceEvent::ShuVerify {
                time, auth_round, ..
            } => {
                assert_eq!(time, 9);
                assert_eq!(auth_round, 1, "round number is 1-based");
            }
            other => panic!("expected ShuVerify, got {other:?}"),
        }
    }

    #[test]
    fn perfect_masks_never_stall() {
        let cfg = SenssConfig::paper_default(2).with_perfect_masks();
        let mut e = SenssExtension::new(cfg);
        for t in 0..100 {
            assert_eq!(e.transfer_start_delay(&c2c_txn(0), t, &mut tr()), 0);
        }
    }

    #[test]
    fn memprot_hooks_route_to_policy() {
        let policy = MemProtPolicy::new(MemProtConfig::paper_default(2));
        let mut e =
            SenssExtension::new(SenssConfig::paper_default(2)).with_memory_protection(policy);
        assert!(!e.integrity_chain(0, 0x1000).is_empty());
        assert_eq!(e.hash_latency(), 160);
        // A write-back after which another processor fills the same line.
        let wb = Transaction {
            request: BusRequest {
                pid: 0,
                kind: TxnKind::Writeback,
                addr: 0x1000,
                blocking: false,
                token: 0,
            },
            supplier: Supplier::None,
            granted_at: 0,
        };
        e.transaction_complete(&wb, 0, &mut tr());
        assert!(e.pad_request_needed(1, 0x1000));
        assert_eq!(e.stats().pad_requests, 1);
    }

    #[test]
    fn without_memprot_hooks_are_inert() {
        let mut e = SenssExtension::new(SenssConfig::paper_default(2));
        assert!(e.integrity_chain(0, 0x1000).is_empty());
        assert!(e.writeback_chain(0, 0x1000).is_empty());
        assert!(!e.pad_request_needed(0, 0x1000));
        assert_eq!(e.hash_latency(), 0);
    }

    #[test]
    fn extra_bus_lines_match_paper() {
        let (base, extra, pct) = SenssExtension::extra_bus_lines();
        assert_eq!(base, 378);
        assert_eq!(extra, 12);
        assert!((pct - 3.17).abs() < 0.1, "§7.1 reports ≈3.1%: {pct}");
    }

    #[test]
    fn groups_have_independent_auth_counters() {
        // Two 2-processor groups on a 4-way machine: transfers in group 0
        // must not tick group 1's counter.
        let cfg = SenssConfig::paper_default(4).with_auth_interval(2);
        let mut e = SenssExtension::with_groups(cfg, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(e.num_groups(), 2);
        // Three transfers inside group 0 -> exactly one auth (after 2).
        let mut auths = Vec::new();
        for _ in 0..3 {
            for f in e.transaction_complete(&c2c_txn(0), 0, &mut tr()) {
                if let FollowUp::Auth { initiator } = f {
                    auths.push(initiator);
                }
            }
        }
        assert_eq!(auths, vec![0], "group-0 initiator, one round");
        // Group 1's counter is untouched: its first transfer fires nothing.
        let t = Transaction {
            request: BusRequest {
                pid: 2,
                kind: TxnKind::Read,
                addr: 0x80,
                blocking: true,
                token: 0,
            },
            supplier: Supplier::Cache(3),
            granted_at: 0,
        };
        assert!(e.transaction_complete(&t, 0, &mut tr()).is_empty());
    }

    #[test]
    fn auth_initiators_stay_inside_the_group() {
        let cfg = SenssConfig::paper_default(4).with_auth_interval(1);
        let mut e = SenssExtension::with_groups(cfg, vec![vec![0, 1], vec![2, 3]]);
        let t = Transaction {
            request: BusRequest {
                pid: 3,
                kind: TxnKind::Read,
                addr: 0x80,
                blocking: true,
                token: 0,
            },
            supplier: Supplier::Cache(2),
            granted_at: 0,
        };
        for _ in 0..4 {
            for f in e.transaction_complete(&t, 0, &mut tr()) {
                if let FollowUp::Auth { initiator } = f {
                    assert!(initiator == 2 || initiator == 3);
                }
            }
        }
    }

    #[test]
    fn gcm_mode_stalls_less_at_peak_rate() {
        let mk = |cipher: CipherMode| {
            let mut e = SenssExtension::new(
                SenssConfig::paper_default(2)
                    .with_cipher(cipher)
                    .with_masks(8),
            );
            let mut stall = 0;
            for i in 0..200u64 {
                stall += e.transfer_start_delay(&c2c_txn(0), i * 10, &mut tr());
            }
            stall
        };
        let cbc = mk(CipherMode::CbcTwoPass);
        let gcm = mk(CipherMode::GcmSinglePass);
        assert_eq!(gcm, 0);
        assert!(cbc > gcm, "CBC's second pass must congest: {cbc} vs {gcm}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_group_pid_rejected() {
        let _ = SenssExtension::with_groups(SenssConfig::paper_default(2), vec![vec![0, 5]]);
    }

    #[test]
    fn end_to_end_senss_run_is_slower_but_close() {
        // A sharing-heavy two-core trace: SENSS must add auth transactions
        // and a small slowdown, nothing catastrophic.
        let mk_traces = || {
            let a: VecTrace = (0..200)
                .map(|i| {
                    if i % 2 == 0 {
                        Op::write(20, (i % 16) * 64)
                    } else {
                        Op::read(20, (i % 16) * 64)
                    }
                })
                .collect();
            let b: VecTrace = (0..200)
                .map(|i| Op::read(25, ((i + 8) % 16) * 64))
                .collect();
            vec![a, b]
        };
        let cfg = SystemConfig::e6000(2, 1 << 20);
        let base = System::new(cfg.clone(), mk_traces(), senss_sim::NullExtension).run();
        let mut sys = System::new(
            cfg,
            mk_traces(),
            SenssExtension::new(SenssConfig::paper_default(2).with_auth_interval(10)),
        );
        let secured = sys.run();
        assert!(secured.txn_auth > 0, "auth transactions must appear");
        let slowdown = secured.slowdown_vs(&base);
        assert!(
            slowdown > -1.0 && slowdown < 15.0,
            "slowdown out of plausible range: {slowdown}%"
        );
    }
}
