//! §7.1 hardware-overhead table: SHU storage and extra bus lines.
//!
//! Regenerates the paper's accounting: the group-processor bit matrix
//! (640 B), the group information table (1161 bits/entry ⇒ ≈148.6 KB for
//! 1024 entries), and the 11-extra-bus-lines (+3.1%) augmentation of the
//! Gigaplane-class bus. Also prints the Figure 5 parameter table and a
//! dynamic cross-check run through the harness: the observed auth-per-c2c
//! ratio must match the configured interval-100 accounting.

use senss::secure_bus::SenssExtension;
use senss::shu::{BitMatrix, GroupInfoTable};
use senss_bench::sweeps::{self, SecurityMode, SweepSpec};
use senss_bench::RunEnv;
use senss_workloads::Workload;

fn main() {
    let env = RunEnv::from_env();
    env.banner_bare("SENSS §7.1 hardware overhead");

    let matrix_bits = BitMatrix::storage_bits();
    println!(
        "Group-processor bit matrix : 1024 entries x 5 bits = {} bytes",
        matrix_bits / 8
    );

    let table = GroupInfoTable::new(8);
    let entry_bits = table.storage_bits() / 1024;
    println!(
        "Group information table    : {} bits/entry (1 occupied + 128 key + 8 ctr + 8x128 masks)",
        entry_bits
    );
    println!(
        "                             {:.1} KB for 1024 entries",
        table.storage_bits() as f64 / 8.0 / 1000.0
    );

    let (base, extra, pct) = SenssExtension::extra_bus_lines();
    println!(
        "Bus lines                  : {base} (Gigaplane) + {extra} (2 msg-type + 10 GID) = +{pct:.1}%"
    );

    // The figure-5 parameters come from the same materialized JobSpec the
    // sweeps run, so this table cannot drift from what is simulated.
    let job = sweeps::point(Workload::Ocean, 4, 4 << 20).with_mode(SecurityMode::senss());
    println!("\n=== Figure 5: architectural parameters ===\n");
    println!("{}", job.system_config().figure5_table());

    // Dynamic cross-check: one harness job confirms the static accounting
    // (auth interval 100 ⇒ one auth transaction per 100 c2c transfers).
    let mut sweep = SweepSpec::new("hw_overhead");
    sweep.push(job);
    let result = sweeps::execute(&sweep);
    let stats = result.require(&job);
    println!(
        "Dynamic cross-check (ocean, 4P, 4MB L2, ops/core = {}, seed = {}):",
        env.ops, env.seed
    );
    println!(
        "  c2c transfers = {}, auth transactions = {} (expected ~ c2c/100 = {})",
        stats.cache_to_cache_transfers,
        stats.txn_auth,
        stats.cache_to_cache_transfers / 100
    );

    println!(
        "\nPaper reference: matrix 640 bytes; table 1161 bits/entry, 148.6 KB; +3.1% bus lines."
    );
}
