//! Smoke tests for the figure harness: every paper figure's generating
//! path runs at reduced scale and its qualitative *shape* holds.

use senss::mask::PERFECT_MASKS;
use senss::secure_bus::{SenssConfig, SenssExtension};
use senss::shu::{BitMatrix, GroupInfoTable};
use senss_bench::overhead;
use senss_bench::sweeps::{point, JobSpec, SecurityMode};
use senss_workloads::Workload;

const OPS: usize = 4_000;
const SEED: u64 = 42;

/// A baseline job at the smoke scale, whatever `SENSS_OPS`/`SENSS_SEED`
/// say; refine with `with_mode`.
fn job(w: Workload, cores: usize, l2: usize) -> JobSpec {
    point(w, cores, l2).with_ops(OPS).with_seed(SEED)
}

#[test]
fn hw_overhead_numbers_match_the_paper() {
    // §7.1 exact values.
    assert_eq!(BitMatrix::storage_bits() / 8, 640);
    assert_eq!(GroupInfoTable::new(8).storage_bits() / 1024, 1161);
    let (_, extra, pct) = SenssExtension::extra_bus_lines();
    assert_eq!(extra, 12);
    assert!((pct - 3.17).abs() < 0.2);
}

#[test]
fn fig06_shape_slowdowns_are_small() {
    for &l2 in &[1usize << 20, 4 << 20] {
        for &cores in &[2usize, 4] {
            for w in [Workload::Fft, Workload::Ocean] {
                let p = job(w, cores, l2);
                let base = p.run();
                let sec = p.with_mode(SecurityMode::senss()).run();
                let o = overhead(&sec, &base);
                assert!(
                    o.slowdown_pct < 3.0,
                    "{w} {cores}P {l2}B: slowdown {:.3}%",
                    o.slowdown_pct
                );
            }
        }
    }
}

#[test]
fn fig07_shape_four_masks_close_to_perfect_one_mask_worse() {
    let p = job(Workload::Fft, 4, 4 << 20);
    let base = p.run();
    let run = |masks: usize| {
        let s = p.with_mode(SecurityMode::senss_masks(masks)).run();
        (overhead(&s, &base).slowdown_pct, s.mask_stall_cycles)
    };
    let (_, stall_perfect) = run(PERFECT_MASKS);
    let (_, stall4) = run(4);
    let (_, stall1) = run(1);
    assert_eq!(stall_perfect, 0);
    assert!(
        stall1 > stall4,
        "1 mask must stall more: {stall1} vs {stall4}"
    );
}

#[test]
fn fig08_shape_interval_100_traffic_below_one_percent() {
    for w in Workload::all() {
        let p = job(w, 4, 1 << 20);
        let base = p.run();
        let sec = p.with_mode(SecurityMode::senss()).run();
        let o = overhead(&sec, &base);
        assert!(
            o.traffic_pct < 1.5,
            "{w}: interval-100 traffic {:.2}% too high",
            o.traffic_pct
        );
    }
}

#[test]
fn fig09_shape_traffic_scales_inversely_with_interval() {
    let p = job(Workload::Ocean, 4, 4 << 20);
    let base = p.run();
    let traffic = |interval: u64| {
        let s = p.with_mode(SecurityMode::senss_interval(interval)).run();
        overhead(&s, &base).traffic_pct
    };
    let t100 = traffic(100);
    let t10 = traffic(10);
    let t1 = traffic(1);
    assert!(t1 > t10 && t10 > t100, "{t1} > {t10} > {t100} expected");
    // Interval 1: one auth per c2c transfer, so the increase approaches
    // the c2c share of total transactions (tens of percent on sharing
    // workloads, bounded by ~50%).
    assert!(t1 > 3.0 && t1 < 60.0, "interval-1 traffic {t1:.1}%");
}

#[test]
fn fig10_shape_integrated_dominates() {
    let p = job(Workload::Lu, 4, 1 << 20);
    let base = p.run();
    let senss_only = p.with_mode(SecurityMode::senss()).run();
    let integrated = p.with_mode(SecurityMode::integrated()).run();
    let o_s = overhead(&senss_only, &base);
    let o_i = overhead(&integrated, &base);
    assert!(o_i.slowdown_pct > o_s.slowdown_pct);
    assert!(o_i.traffic_pct > o_s.traffic_pct * 3.0);
    assert!(integrated.txn_hash_fetch > 0);
}

#[test]
fn fig11_shape_senss_changes_interleaving() {
    // The §7.8 variability mechanism: SENSS timing shifts hit/miss
    // patterns on false sharing.
    use senss_sim::{NullExtension, System, SystemConfig};
    use senss_workloads::micro;
    let cfg = SystemConfig::e6000(2, 1 << 20);
    let base = System::new(cfg.clone(), micro::false_sharing(1_500), NullExtension).run();
    let sec = System::new(
        cfg,
        micro::false_sharing(1_500),
        SenssExtension::new(SenssConfig::paper_default(2).with_auth_interval(1)),
    )
    .run();
    assert!(
        base.l1_hits != sec.l1_hits
            || base.cache_to_cache_transfers != sec.cache_to_cache_transfers
            || base.txn_upgrade != sec.txn_upgrade,
        "timing perturbation should shift the access interleaving"
    );
}
