//! Figure 11 / §7.8: simulation variability through access reordering.
//!
//! The paper's example: two CPUs false-sharing a line. The few extra
//! cycles SENSS adds to each bus transfer shift the interleaving of
//! accesses, which can flip hits to misses (and vice versa), occasionally
//! making the *secured* run faster than the baseline — which is why some
//! figure bars dip below zero. This binary reproduces the effect on the
//! false-sharing microbenchmark and on a seed sweep of `radix`.

use senss_bench::sweeps::{self, JobSpec, SecurityMode, SweepSpec, TraceSpec};
use senss_bench::{overhead, RunEnv};
use senss_workloads::Workload;

const MICRO_OPS: usize = 2_000;
const SEEDS: u64 = 8;

fn main() {
    let env = RunEnv::from_env();
    env.banner_bare("Figure 11 / §7.8: access reordering & variability");

    // One sweep covers both experiments: the paper-diagram false-sharing
    // micro-trace (interval 1 = worst case) and the radix seed sweep.
    let ops = env.ops.min(10_000);
    let mut sweep = SweepSpec::new("fig11");
    let micro = JobSpec::new(TraceSpec::FalseSharing, 2, 1 << 20).with_ops(MICRO_OPS);
    sweep.push(micro);
    sweep.push(micro.with_mode(SecurityMode::senss_interval(1)));
    for s in 0..SEEDS {
        let radix = JobSpec::new(Workload::Radix, 4, 1 << 20)
            .with_ops(ops)
            .with_seed(s);
        sweep.push(radix);
        sweep.push(radix.with_mode(SecurityMode::senss()));
    }
    let result = sweeps::execute(&sweep);

    let base = result.require(&micro);
    let sec = result.require(&micro.with_mode(SecurityMode::senss_interval(1)));
    println!("false-sharing micro (2 CPUs, same line, different words):");
    println!(
        "  base : cycles={:>9} l1_hits={:>6} c2c={:>5} upgrades={:>5}",
        base.total_cycles, base.l1_hits, base.cache_to_cache_transfers, base.txn_upgrade
    );
    println!(
        "  senss: cycles={:>9} l1_hits={:>6} c2c={:>5} upgrades={:>5}",
        sec.total_cycles, sec.l1_hits, sec.cache_to_cache_transfers, sec.txn_upgrade
    );
    println!(
        "  hit/miss mix changed: {} (the reordering effect)\n",
        base.l1_hits != sec.l1_hits
            || base.cache_to_cache_transfers != sec.cache_to_cache_transfers
    );

    // Seed sweep: the distribution of slowdowns includes negative values.
    println!("radix slowdown across seeds (4P, 1MB L2, interval 100):");
    let mut negatives = 0;
    for s in 0..SEEDS {
        let radix = JobSpec::new(Workload::Radix, 4, 1 << 20)
            .with_ops(ops)
            .with_seed(s);
        let base = result.require(&radix);
        let sec = result.require(&radix.with_mode(SecurityMode::senss()));
        let o = overhead(sec, base);
        if o.slowdown_pct < 0.0 {
            negatives += 1;
        }
        println!("  seed {s}: {:+.3}%", o.slowdown_pct);
    }
    println!("\nnegative slowdowns observed: {negatives}/{SEEDS}");
    println!("Paper: \"some of the programs run faster ... than the base case\" (§7.8).");
}
