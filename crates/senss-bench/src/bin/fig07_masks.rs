//! Figure 7: impact of the number of encryption masks.
//!
//! 4 processors, 4 MB L2, auth interval 100. The paper finds 2 masks
//! generally satisfactory and 4 masks indistinguishable from a perfect
//! (unbounded) supply; a single mask pays mask-regeneration stalls on
//! back-to-back transfers.

use senss::mask::PERFECT_MASKS;
use senss_bench::sweeps::{self, SecurityMode, SweepSpec};
use senss_bench::{format_table, maybe_write_csv, workload_columns, RunEnv};

fn main() {
    let env = RunEnv::from_env();
    env.banner("Figure 7: mask-count sensitivity (4P, 4MB L2, interval 100)");

    let variants: &[(&str, usize)] = &[
        ("Perfect", PERFECT_MASKS),
        ("4 masks", 4),
        ("2 masks", 2),
        ("1 mask", 1),
    ];

    let mut modes = vec![SecurityMode::Baseline];
    modes.extend(variants.iter().map(|&(_, m)| SecurityMode::senss_masks(m)));
    let mut sweep = SweepSpec::new("fig07");
    sweep.grid(
        &workload_columns(),
        &[4],
        &[4 << 20],
        &modes,
        env.ops,
        env.seed,
    );
    let result = sweeps::execute(&sweep);

    let mut slow_rows = Vec::new();
    let mut traffic_rows = Vec::new();
    for &(label, masks) in variants {
        let overheads =
            sweeps::workload_overheads(&result, 4, 4 << 20, SecurityMode::senss_masks(masks));
        slow_rows.push((
            label.to_string(),
            overheads.iter().map(|o| o.slowdown_pct).collect(),
        ));
        traffic_rows.push((
            label.to_string(),
            overheads.iter().map(|o| o.traffic_pct).collect(),
        ));
    }
    maybe_write_csv("fig07_slowdown", &slow_rows);
    maybe_write_csv("fig07_traffic", &traffic_rows);
    println!("{}", format_table("% slowdown", &slow_rows));
    println!("{}", format_table("% bus activity increase", &traffic_rows));
    println!("Paper shape: 4 masks ≈ perfect; 2 masks close; 1 mask visibly worse.");
}
