//! Figure 9: sensitivity to the authentication interval.
//!
//! 4 processors, 4 MB L2. Interval 1 authenticates every cache-to-cache
//! transfer (maximum security): the paper reports up to 3.4% slowdown and
//! up to 46% more bus transactions (the auth messages mirror the c2c
//! share of total bus activity); longer intervals shrink both.

use senss_bench::sweeps::{self, SecurityMode, SweepSpec};
use senss_bench::{format_table, maybe_write_csv, workload_columns, RunEnv};

fn main() {
    let env = RunEnv::from_env();
    env.banner("Figure 9: authentication-interval sensitivity (4P, 4MB L2)");

    let intervals = [100u64, 32, 10, 1];
    let mut modes = vec![SecurityMode::Baseline];
    modes.extend(intervals.iter().map(|&i| SecurityMode::senss_interval(i)));
    let mut sweep = SweepSpec::new("fig09");
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
    for &interval in &intervals {
        let overheads =
            sweeps::workload_overheads(&result, 4, 4 << 20, SecurityMode::senss_interval(interval));
        slow_rows.push((
            format!("{interval} transactions"),
            overheads.iter().map(|o| o.slowdown_pct).collect(),
        ));
        traffic_rows.push((
            format!("{interval} transactions"),
            overheads.iter().map(|o| o.traffic_pct).collect(),
        ));
    }
    maybe_write_csv("fig09_slowdown", &slow_rows);
    maybe_write_csv("fig09_traffic", &traffic_rows);
    println!("{}", format_table("% slowdown", &slow_rows));
    println!("{}", format_table("% bus activity increase", &traffic_rows));
    println!("Paper shape: interval 1 ⇒ slowdown up to a few %, traffic up to ~46%;");
    println!("interval 100 ⇒ both near zero. Traffic at interval 1 equals the c2c share.");
}
