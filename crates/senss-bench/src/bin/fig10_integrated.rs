//! Figure 10: the integrated system — SENSS plus cache-to-memory
//! protection (fast OTP encryption with a perfect sequence-number cache,
//! write-invalidate pad coherence, and CHash Merkle-tree integrity).
//!
//! 1 MB L2, 4 processors, auth interval 100. The paper reports an average
//! ≈12% slowdown (cache pollution by hash-tree nodes + hash fetch
//! traffic) and ≈58% more bus transactions, dominated by hash-tree
//! fetches and pad-coherence messages — an order of magnitude above the
//! bus-security-only cost.

use senss_bench::sweeps::{self, SecurityMode, SweepSpec};
use senss_bench::{format_table, maybe_write_csv, workload_columns, RunEnv};
use senss_workloads::Workload;

fn main() {
    let env = RunEnv::from_env();
    env.banner("Figure 10: integrated system (4P, 1MB L2, interval 100)");

    let flavours = [
        ("SENSS", SecurityMode::senss()),
        ("SENSS+Mem_OTP_CHash", SecurityMode::integrated()),
    ];
    let mut modes = vec![SecurityMode::Baseline];
    modes.extend(flavours.iter().map(|&(_, m)| m));
    let mut sweep = SweepSpec::new("fig10");
    sweep.grid(
        &workload_columns(),
        &[4],
        &[1 << 20],
        &modes,
        env.ops,
        env.seed,
    );
    let result = sweeps::execute(&sweep);

    let mut slow_rows = Vec::new();
    let mut traffic_rows = Vec::new();
    for &(flavour, mode) in &flavours {
        let overheads = sweeps::workload_overheads(&result, 4, 1 << 20, mode);
        slow_rows.push((
            flavour.to_string(),
            overheads.iter().map(|o| o.slowdown_pct).collect(),
        ));
        traffic_rows.push((
            flavour.to_string(),
            overheads.iter().map(|o| o.traffic_pct).collect(),
        ));
    }
    maybe_write_csv("fig10_slowdown", &slow_rows);
    maybe_write_csv("fig10_traffic", &traffic_rows);
    println!("{}", format_table("% slowdown", &slow_rows));
    println!("{}", format_table("% bus activity increase", &traffic_rows));

    // Detail: what the extra traffic is made of, for one workload.
    let stats = result
        .require(&sweeps::point(Workload::Ocean, 4, 1 << 20).with_mode(SecurityMode::integrated()));
    println!("ocean detail: hash fetches = {}, hash writebacks = {}, pad invalidates = {}, pad requests = {}",
        stats.txn_hash_fetch, stats.txn_hash_writeback,
        stats.txn_pad_invalidate, stats.txn_pad_request);
    println!("\nPaper shape: memory protection dominates (≈12% avg slowdown, ≈58% avg traffic);");
    println!("SENSS-only remains sub-1%.");
}
