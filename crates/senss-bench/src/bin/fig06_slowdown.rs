//! Figure 6: performance slowdown of SENSS bus security alone.
//!
//! The paper's setup: write-invalidate MESI, write-back L2 of 1 MB and
//! 4 MB, 2 and 4 processors, authentication every 100 cache-to-cache
//! transactions, bus security only (no cache-to-memory protection).
//! Reported shape: all slowdowns well under 1% (max 0.18%), generally
//! growing with the number of cache-to-cache transfers (more processors /
//! larger L2 ⇒ relatively more c2c).

use senss_bench::sweeps::{self, SecurityMode, SweepSpec};
use senss_bench::{format_table, maybe_write_csv, workload_columns, RunEnv};

const L2S: [usize; 2] = [1 << 20, 4 << 20];
const CORES: [usize; 2] = [2, 4];

fn main() {
    let env = RunEnv::from_env();
    env.banner("Figure 6: percentage slowdown (SENSS, auth interval 100)");

    let mut sweep = SweepSpec::new("fig06");
    sweep.grid(
        &workload_columns(),
        &CORES,
        &L2S,
        &[SecurityMode::Baseline, SecurityMode::senss()],
        env.ops,
        env.seed,
    );
    let result = sweeps::execute(&sweep);

    for &l2 in &L2S {
        let mut rows = Vec::new();
        for &cores in &CORES {
            let values = sweeps::workload_overheads(&result, cores, l2, SecurityMode::senss())
                .into_iter()
                .map(|o| o.slowdown_pct)
                .collect();
            rows.push((format!("{cores}P"), values));
        }
        maybe_write_csv(&format!("fig06_l2_{}mb", l2 >> 20), &rows);
        println!(
            "{}",
            format_table(
                &format!("Write-Invalidate + {}M write-back L2: % slowdown", l2 >> 20),
                &rows
            )
        );
    }
    println!("Paper shape: all values < 0.2%; larger L2 and more processors trend higher.");
}
