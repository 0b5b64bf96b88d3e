//! `senss_cli` — run any SENSS configuration from the command line.
//!
//! ```text
//! cargo run --release -p senss-bench --bin senss_cli -- \
//!     --workload ocean --cores 4 --l2-mb 1 --masks 8 --interval 100 \
//!     --ops 30000 --seed 42 --memprot chash --cipher cbc
//! ```
//!
//! Prints the insecure baseline, the configured SENSS run, and the
//! overhead comparison. `--memprot none|otp|chash|lhash` selects the §6
//! stack; `--cipher cbc|gcm` the §4.3 algorithm pair.

use senss::mask::PERFECT_MASKS;
use senss::secure_bus::{CipherMode, SenssConfig, SenssExtension};
use senss_memprot::{IntegrityMode, MemProtConfig, MemProtPolicy, PadProtocol};
use senss_sim::{NullExtension, System, SystemConfig};
use senss_workloads::Workload;

#[derive(Debug)]
struct CliArgs {
    workload: Workload,
    cores: usize,
    l2_mb: usize,
    masks: usize,
    interval: u64,
    ops: usize,
    seed: u64,
    memprot: String,
    cipher: CipherMode,
}

fn usage() -> ! {
    eprintln!(
        "usage: senss_cli [--workload fft|radix|barnes|lu|ocean] [--cores N] \
         [--l2-mb N] [--masks N|perfect] [--interval N] [--ops N] [--seed N] \
         [--memprot none|otp|chash|lhash] [--cipher cbc|gcm]"
    );
    std::process::exit(2);
}

fn parse_args() -> CliArgs {
    let mut args = CliArgs {
        workload: Workload::Ocean,
        cores: 4,
        l2_mb: 1,
        masks: 8,
        interval: 100,
        ops: 30_000,
        seed: 42,
        memprot: "none".to_string(),
        cipher: CipherMode::CbcTwoPass,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = match argv.get(i + 1) {
            Some(v) => v.as_str(),
            None => usage(),
        };
        match flag {
            "--workload" => {
                args.workload = value.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--cores" => args.cores = value.parse().unwrap_or_else(|_| usage()),
            "--l2-mb" => args.l2_mb = value.parse().unwrap_or_else(|_| usage()),
            "--masks" => {
                args.masks = if value == "perfect" {
                    PERFECT_MASKS
                } else {
                    value.parse().unwrap_or_else(|_| usage())
                }
            }
            "--interval" => args.interval = value.parse().unwrap_or_else(|_| usage()),
            "--ops" => args.ops = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--memprot" => args.memprot = value.to_string(),
            "--cipher" => {
                args.cipher = match value {
                    "cbc" => CipherMode::CbcTwoPass,
                    "gcm" => CipherMode::GcmSinglePass,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    args
}

fn main() {
    let a = parse_args();
    let cfg = SystemConfig::e6000(a.cores, a.l2_mb << 20);
    println!(
        "workload={} cores={} l2={}MB masks={} interval={} ops={} seed={} memprot={} cipher={:?}\n",
        a.workload,
        a.cores,
        a.l2_mb,
        if a.masks == PERFECT_MASKS {
            "perfect".to_string()
        } else {
            a.masks.to_string()
        },
        a.interval,
        a.ops,
        a.seed,
        a.memprot,
        a.cipher,
    );

    let base = System::new(
        cfg.clone(),
        a.workload.generate(a.cores, a.ops, a.seed),
        NullExtension,
    )
    .run();

    let sec_cfg = SenssConfig::paper_default(a.cores)
        .with_masks(a.masks)
        .with_auth_interval(a.interval)
        .with_cipher(a.cipher);
    let mut ext = SenssExtension::new(sec_cfg);
    let integrity = match a.memprot.as_str() {
        "none" => None,
        "otp" => Some(IntegrityMode::None),
        "chash" => Some(IntegrityMode::CHash),
        "lhash" => Some(IntegrityMode::Lazy),
        _ => usage(),
    };
    if let Some(mode) = integrity {
        ext = ext.with_memory_protection(MemProtPolicy::new(MemProtConfig {
            otp: true,
            integrity: mode,
            pad_protocol: PadProtocol::WriteInvalidate,
            data_span: 1 << 32,
            num_processors: a.cores,
        }));
    }
    let mut sys = System::new(cfg, a.workload.generate(a.cores, a.ops, a.seed), ext);
    let sec = sys.run();

    let row = |name: &str, s: &senss_sim::Stats| {
        println!(
            "{name:<9} cycles={:>12}  txns={:>8}  c2c={:>7}  mem={:>7}  auth={:>6}  hash={:>6}  pad={:>5}",
            s.total_cycles,
            s.total_transactions(),
            s.cache_to_cache_transfers,
            s.memory_transfers,
            s.txn_auth,
            s.txn_hash_fetch + s.txn_hash_writeback,
            s.txn_pad_invalidate + s.txn_pad_request,
        );
    };
    row("baseline", &base);
    row("senss", &sec);
    println!(
        "\nslowdown = {:+.3}%   bus-traffic = {:+.2}%   mask-stalls = {} cycles",
        sec.slowdown_vs(&base),
        sec.bus_increase_vs(&base),
        sec.mask_stall_cycles
    );
    println!(
        "bus utilization: baseline {:.1}%, senss {:.1}%;  c2c share {:.1}%",
        base.bus_utilization() * 100.0,
        sec.bus_utilization() * 100.0,
        sec.c2c_fraction() * 100.0
    );
}
