//! End-to-end integration: all workloads through all three system
//! flavours (baseline, SENSS, SENSS + memory protection) on the
//! cycle-level simulator, checking the cross-crate invariants the paper's
//! evaluation relies on.

use senss::secure_bus::{SenssConfig, SenssExtension};
use senss_memprot::{MemProtConfig, MemProtPolicy};
use senss_sim::{NullExtension, Stats, System, SystemConfig};
use senss_workloads::Workload;

const OPS: usize = 3_000;
const SEED: u64 = 77;

fn baseline(w: Workload, cores: usize, l2: usize) -> Stats {
    System::new(
        SystemConfig::e6000(cores, l2),
        w.generate(cores, OPS, SEED),
        NullExtension,
    )
    .run()
}

fn senss(w: Workload, cores: usize, l2: usize, cfg: SenssConfig) -> Stats {
    System::new(
        SystemConfig::e6000(cores, l2),
        w.generate(cores, OPS, SEED),
        SenssExtension::new(cfg),
    )
    .run()
}

fn integrated(w: Workload, cores: usize, l2: usize) -> Stats {
    let ext = SenssExtension::new(SenssConfig::paper_default(cores))
        .with_memory_protection(MemProtPolicy::new(MemProtConfig::paper_default(cores)));
    System::new(
        SystemConfig::e6000(cores, l2),
        w.generate(cores, OPS, SEED),
        ext,
    )
    .run()
}

#[test]
fn every_workload_completes_on_every_flavour() {
    for w in Workload::all() {
        let b = baseline(w, 2, 1 << 20);
        let s = senss(w, 2, 1 << 20, SenssConfig::paper_default(2));
        let i = integrated(w, 2, 1 << 20);
        for (name, stats) in [("base", &b), ("senss", &s), ("integrated", &i)] {
            assert!(
                stats.ops_executed >= 2 * (OPS as u64 - 100),
                "{w}/{name}: ops lost"
            );
            assert!(stats.total_cycles > 0, "{w}/{name}");
        }
    }
}

#[test]
fn accounting_identities_hold() {
    for w in Workload::all() {
        let s = senss(
            w,
            4,
            1 << 20,
            SenssConfig::paper_default(4).with_auth_interval(10),
        );
        // Hits + misses = executed references.
        assert_eq!(s.l1_hits + s.l1_misses, s.ops_executed, "{w}");
        // Every L1 miss is an L2 hit, an L2 miss, or an upgrade path.
        assert!(s.l2_hits + s.l2_misses <= s.l1_misses, "{w}");
        // Every fill has exactly one supplier.
        assert_eq!(
            s.cache_to_cache_transfers + s.memory_transfers,
            s.txn_read + s.txn_read_exclusive + s.txn_hash_fetch,
            "{w}"
        );
        // Auth transactions fire once per interval of c2c transfers.
        let expected_auth = s.cache_to_cache_transfers / 10;
        let diff = expected_auth.abs_diff(s.txn_auth);
        assert!(
            diff <= 1,
            "{w}: auth {} vs expected {expected_auth}",
            s.txn_auth
        );
    }
}

#[test]
fn senss_only_overhead_is_small() {
    // The Figure 6 headline at integration-test scale: bus security alone
    // costs well under 5% on every workload (paper: < 0.2% at full scale).
    for w in Workload::all() {
        let b = baseline(w, 4, 1 << 20);
        let s = senss(w, 4, 1 << 20, SenssConfig::paper_default(4));
        let slowdown = s.slowdown_vs(&b);
        assert!(
            slowdown < 5.0,
            "{w}: SENSS-only slowdown {slowdown:.3}% too large"
        );
    }
}

#[test]
fn integrated_costs_dominate_senss_costs() {
    // Figure 10's shape: memory protection is the expensive part.
    let mut senss_total = 0.0;
    let mut integ_total = 0.0;
    for w in Workload::all() {
        let b = baseline(w, 4, 1 << 20);
        let s = senss(w, 4, 1 << 20, SenssConfig::paper_default(4));
        let i = integrated(w, 4, 1 << 20);
        senss_total += s.bus_increase_vs(&b);
        integ_total += i.bus_increase_vs(&b);
        assert!(i.txn_hash_fetch > 0, "{w}: no integrity traffic");
        assert!(
            i.total_cycles >= s.total_cycles,
            "{w}: integrated faster than SENSS-only"
        );
    }
    assert!(
        integ_total > senss_total * 5.0,
        "integrated traffic ({integ_total:.1}%) should dwarf SENSS-only ({senss_total:.1}%)"
    );
}

#[test]
fn interval_one_costs_more_than_interval_hundred() {
    let w = Workload::Ocean;
    let b = baseline(w, 4, 4 << 20);
    let i1 = senss(
        w,
        4,
        4 << 20,
        SenssConfig::paper_default(4).with_auth_interval(1),
    );
    let i100 = senss(
        w,
        4,
        4 << 20,
        SenssConfig::paper_default(4).with_auth_interval(100),
    );
    assert!(i1.txn_auth > i100.txn_auth * 50);
    assert!(i1.bus_increase_vs(&b) > i100.bus_increase_vs(&b));
}

#[test]
fn runs_are_deterministic_end_to_end() {
    let a = integrated(Workload::Fft, 2, 1 << 20);
    let b = integrated(Workload::Fft, 2, 1 << 20);
    assert_eq!(a, b);
}

#[test]
fn mask_starvation_shows_up_with_one_mask() {
    let w = Workload::Fft; // bursty transposes: back-to-back transfers
    let one = senss(w, 4, 4 << 20, SenssConfig::paper_default(4).with_masks(1));
    let eight = senss(w, 4, 4 << 20, SenssConfig::paper_default(4).with_masks(8));
    assert!(one.mask_stall_cycles > eight.mask_stall_cycles);
    assert_eq!(eight.mask_stall_cycles, 0, "8 masks never stall (§7.4)");
}
