//! Simulation statistics — the raw material for every figure in §7.
//!
//! The paper's two headline metrics are **percentage slowdown** (total
//! cycles vs the insecure baseline) and **bus activity increase** (total
//! bus transactions vs baseline); both are computed by comparing two
//! [`Stats`] values via [`Stats::slowdown_vs`] and
//! [`Stats::bus_increase_vs`].

use crate::bus::TxnKind;

/// Counters collected over one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Cycle at which the last core finished its trace.
    pub total_cycles: u64,
    /// Trace operations executed (loads + stores), across all cores.
    pub ops_executed: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits (on L1 miss).
    pub l2_hits: u64,
    /// L2 misses (requiring a bus fill).
    pub l2_misses: u64,
    /// Write hits on Shared lines (requiring a bus upgrade).
    pub upgrades: u64,
    /// Bus transactions, by kind.
    pub txn_read: u64,
    /// BusRdX count.
    pub txn_read_exclusive: u64,
    /// BusUpgr count.
    pub txn_upgrade: u64,
    /// BusUpd (write-update broadcast) count.
    pub txn_update: u64,
    /// Write-back count.
    pub txn_writeback: u64,
    /// Merkle-line fetches.
    pub txn_hash_fetch: u64,
    /// Merkle-line write-backs.
    pub txn_hash_writeback: u64,
    /// SENSS authentication transactions.
    pub txn_auth: u64,
    /// Pad invalidate messages.
    pub txn_pad_invalidate: u64,
    /// Pad request messages.
    pub txn_pad_request: u64,
    /// Fills supplied cache-to-cache (dirty sharing).
    pub cache_to_cache_transfers: u64,
    /// Fills supplied by memory.
    pub memory_transfers: u64,
    /// Cycles the bus spent occupied.
    pub bus_busy_cycles: u64,
    /// Bytes moved across the bus.
    pub bus_bytes: u64,
    /// Cycles transfers spent stalled waiting for an encryption mask.
    pub mask_stall_cycles: u64,
    /// Cycles spent on hash verification on fill critical paths.
    pub integrity_check_cycles: u64,
    /// Number of transfers that experienced a non-zero mask stall.
    pub mask_stalled_transfers: u64,
    /// Per-core finish times (cycle each core exhausted its trace).
    pub core_finish_times: Vec<u64>,
    /// Per-core executed operation counts.
    pub core_ops: Vec<u64>,
}

impl Stats {
    /// Records one granted transaction of `kind`.
    pub fn count_txn(&mut self, kind: TxnKind) {
        match kind {
            TxnKind::Read => self.txn_read += 1,
            TxnKind::ReadExclusive => self.txn_read_exclusive += 1,
            TxnKind::Upgrade => self.txn_upgrade += 1,
            TxnKind::Update => self.txn_update += 1,
            TxnKind::Writeback => self.txn_writeback += 1,
            TxnKind::HashFetch => self.txn_hash_fetch += 1,
            TxnKind::HashWriteback => self.txn_hash_writeback += 1,
            TxnKind::Auth => self.txn_auth += 1,
            TxnKind::PadInvalidate => self.txn_pad_invalidate += 1,
            TxnKind::PadRequest => self.txn_pad_request += 1,
        }
    }

    /// Total bus transactions of every kind.
    pub fn total_transactions(&self) -> u64 {
        self.txn_read
            + self.txn_read_exclusive
            + self.txn_upgrade
            + self.txn_update
            + self.txn_writeback
            + self.txn_hash_fetch
            + self.txn_hash_writeback
            + self.txn_auth
            + self.txn_pad_invalidate
            + self.txn_pad_request
    }

    /// Percentage slowdown of `self` relative to `baseline`
    /// (positive = slower, the paper's Figures 6, 7, 9, 10).
    pub fn slowdown_vs(&self, baseline: &Stats) -> f64 {
        if baseline.total_cycles == 0 {
            return 0.0;
        }
        (self.total_cycles as f64 - baseline.total_cycles as f64) / baseline.total_cycles as f64
            * 100.0
    }

    /// Percentage increase in total bus transactions relative to
    /// `baseline` (the paper's Figures 7, 8, 9, 10).
    pub fn bus_increase_vs(&self, baseline: &Stats) -> f64 {
        let base = baseline.total_transactions();
        if base == 0 {
            return 0.0;
        }
        (self.total_transactions() as f64 - base as f64) / base as f64 * 100.0
    }

    /// L1 miss rate over all operations.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.ops_executed == 0 {
            return 0.0;
        }
        self.l1_misses as f64 / self.ops_executed as f64
    }

    /// Bus utilization: fraction of total cycles the bus was busy.
    pub fn bus_utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.bus_busy_cycles as f64 / self.total_cycles as f64
    }

    /// Load imbalance: slowest core finish time over the mean (1.0 =
    /// perfectly balanced). Zero when per-core data is absent
    /// (zero-processor or unmerged stats) or every core finished at 0 —
    /// this must never panic, whatever state the stats are in.
    pub fn imbalance(&self) -> f64 {
        let Some(&max) = self.core_finish_times.iter().max() else {
            return 0.0;
        };
        let mean =
            self.core_finish_times.iter().sum::<u64>() as f64 / self.core_finish_times.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        max as f64 / mean
    }

    /// Accumulates `other` into `self`: counters add, `total_cycles`
    /// takes the maximum (runs aggregated this way are conceptually
    /// concurrent), and the per-core vectors concatenate. Used by the
    /// harness to aggregate a sweep and by the bench crate to total
    /// traffic across workloads.
    pub fn merge(&mut self, other: &Stats) {
        self.total_cycles = self.total_cycles.max(other.total_cycles);
        self.ops_executed += other.ops_executed;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.upgrades += other.upgrades;
        self.txn_read += other.txn_read;
        self.txn_read_exclusive += other.txn_read_exclusive;
        self.txn_upgrade += other.txn_upgrade;
        self.txn_update += other.txn_update;
        self.txn_writeback += other.txn_writeback;
        self.txn_hash_fetch += other.txn_hash_fetch;
        self.txn_hash_writeback += other.txn_hash_writeback;
        self.txn_auth += other.txn_auth;
        self.txn_pad_invalidate += other.txn_pad_invalidate;
        self.txn_pad_request += other.txn_pad_request;
        self.cache_to_cache_transfers += other.cache_to_cache_transfers;
        self.memory_transfers += other.memory_transfers;
        self.bus_busy_cycles += other.bus_busy_cycles;
        self.bus_bytes += other.bus_bytes;
        self.mask_stall_cycles += other.mask_stall_cycles;
        self.integrity_check_cycles += other.integrity_check_cycles;
        self.mask_stalled_transfers += other.mask_stalled_transfers;
        self.core_finish_times
            .extend_from_slice(&other.core_finish_times);
        self.core_ops.extend_from_slice(&other.core_ops);
    }

    /// Fraction of line fills that were cache-to-cache.
    pub fn c2c_fraction(&self) -> f64 {
        let fills = self.cache_to_cache_transfers + self.memory_transfers;
        if fills == 0 {
            return 0.0;
        }
        self.cache_to_cache_transfers as f64 / fills as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_counting() {
        let mut s = Stats::default();
        s.count_txn(TxnKind::Read);
        s.count_txn(TxnKind::Read);
        s.count_txn(TxnKind::Auth);
        s.count_txn(TxnKind::PadRequest);
        assert_eq!(s.txn_read, 2);
        assert_eq!(s.txn_auth, 1);
        assert_eq!(s.total_transactions(), 4);
    }

    #[test]
    fn slowdown_math() {
        let base = Stats {
            total_cycles: 1000,
            ..Stats::default()
        };
        let slower = Stats {
            total_cycles: 1020,
            ..Stats::default()
        };
        assert!((slower.slowdown_vs(&base) - 2.0).abs() < 1e-9);
        // Faster runs give negative slowdown (§7.8 variability).
        let faster = Stats {
            total_cycles: 990,
            ..Stats::default()
        };
        assert!(faster.slowdown_vs(&base) < 0.0);
    }

    #[test]
    fn bus_increase_math() {
        let mut base = Stats::default();
        for _ in 0..100 {
            base.count_txn(TxnKind::Read);
        }
        let mut secured = base.clone();
        for _ in 0..46 {
            secured.count_txn(TxnKind::Auth);
        }
        assert!((secured.bus_increase_vs(&base) - 46.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_is_safe() {
        let s = Stats::default();
        assert_eq!(s.slowdown_vs(&s), 0.0);
        assert_eq!(s.bus_increase_vs(&s), 0.0);
        assert_eq!(s.l1_miss_rate(), 0.0);
        assert_eq!(s.bus_utilization(), 0.0);
        assert_eq!(s.c2c_fraction(), 0.0);
    }

    #[test]
    fn imbalance_math() {
        let s = Stats {
            core_finish_times: vec![100, 100, 200],
            ..Stats::default()
        };
        assert!((s.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn imbalance_is_zero_for_empty_or_trivial_finish_times() {
        // Unmerged / zero-processor stats: no per-core data at all.
        assert_eq!(Stats::default().imbalance(), 0.0);
        // All cores finished at cycle 0 (empty traces): zero mean must
        // yield 0.0, not NaN or a panic.
        let s = Stats {
            core_finish_times: vec![0, 0],
            ..Stats::default()
        };
        assert_eq!(s.imbalance(), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_maxes_cycles() {
        let mut a = Stats {
            total_cycles: 100,
            ops_executed: 10,
            txn_read: 5,
            mask_stall_cycles: 2,
            core_finish_times: vec![90, 100],
            core_ops: vec![5, 5],
            ..Stats::default()
        };
        let b = Stats {
            total_cycles: 80,
            ops_executed: 7,
            txn_read: 3,
            txn_auth: 4,
            core_finish_times: vec![80],
            core_ops: vec![7],
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.total_cycles, 100);
        assert_eq!(a.ops_executed, 17);
        assert_eq!(a.txn_read, 8);
        assert_eq!(a.txn_auth, 4);
        assert_eq!(a.mask_stall_cycles, 2);
        assert_eq!(a.core_finish_times, vec![90, 100, 80]);
        assert_eq!(a.core_ops, vec![5, 5, 7]);
        // Merging the default is the identity on counters.
        let before = a.clone();
        a.merge(&Stats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn derived_rates() {
        let s = Stats {
            ops_executed: 100,
            l1_misses: 10,
            total_cycles: 1000,
            bus_busy_cycles: 250,
            cache_to_cache_transfers: 3,
            memory_transfers: 7,
            ..Stats::default()
        };
        assert!((s.l1_miss_rate() - 0.1).abs() < 1e-9);
        assert!((s.bus_utilization() - 0.25).abs() < 1e-9);
        assert!((s.c2c_fraction() - 0.3).abs() < 1e-9);
    }
}
