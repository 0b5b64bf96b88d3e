//! `perfbench` — the SENSS workspace benchmark.
//!
//! ```text
//! perfbench --workload <figure-cold|harness-churn|serve-loopback|serve-cluster>
//!           --seed <n> --seconds <s> --trace <0|1> [--serve-bin <path>]
//! perfbench --regen-expected
//! ```
//!
//! An untraced run (`--trace 0`) drives one workload through the
//! crates' public APIs for `--seconds`, checks every output, and prints
//! the end-to-end metrics. A traced run (`--trace 1`) prints the
//! per-layer metrics instead: phase timers around the benchmark's own
//! calls into each crate, a counting `TraceSink`, a timing wrapper
//! around the security `Extension`, and component probes. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` beside this crate for the metric map.

mod catalog;
mod churn;
mod expected;
mod figure;
#[cfg(test)]
mod minijson;
mod probe;
mod report;
mod serve;

use expected::Expected;
use report::Report;
use senss_harness::JobSpec;
use senss_sim::Stats;
use senss_trace::{fold, RingSink};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Everything a workload needs to know about this run.
pub struct Ctx {
    /// Workload seed from the command line.
    pub seed: u64,
    /// Measurement window (`--seconds`).
    pub window: Duration,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Scratch directory inside the checkout, removed on exit.
    pub tmp: PathBuf,
    /// The built `senss-serve` executable (cluster workers).
    pub serve_bin: PathBuf,
    /// Committed expected outputs.
    pub expected: Expected,
}

impl Ctx {
    /// The window a workload's own loop measures for: all of it when
    /// untraced; in a traced run the rest goes to the instrumented
    /// re-execution and the layer probes.
    pub fn loop_window(&self) -> Duration {
        if self.traced {
            self.window * 3 / 5
        } else {
            self.window
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// the command line.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Bus-utilization bucket width the serve tier uses for `trace`
/// replies; the local trace path uses the same so replies compare
/// exactly.
pub const TRACE_BUCKET_CYCLES: u64 = 1 << 14;

/// The local equivalent of a serve `trace` request: re-run `job` under
/// a ring sink and fold the events into `senss.trace.derived.v1` JSON.
pub fn local_trace(job: &JobSpec) -> (Stats, String) {
    let (stats, sink) = job.run_with_sink(RingSink::new());
    (stats, fold(sink.events(), TRACE_BUCKET_CYCLES).to_json())
}

/// Whether `json` is a derived-metrics object of the served schema.
pub fn is_derived(json: &senss_harness::json::Value) -> bool {
    json.get("schema").and_then(|s| s.as_str()) == Some("senss.trace.derived.v1")
        && json
            .get("total_transactions")
            .and_then(|v| v.as_u64())
            .is_some()
}

/// The checkout the benchmark was built from.
fn checkout() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the checkout root")
        .to_path_buf()
}

/// Removes the scratch directory however the run ends.
struct TmpGuard(PathBuf);

impl Drop for TmpGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    serve_bin: Option<PathBuf>,
    regen: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <figure-cold|harness-churn|serve-loopback|serve-cluster> \
         --seed <n> --seconds <s> --trace <0|1> [--serve-bin <path>]\n       \
         perfbench --regen-expected"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        traced: false,
        serve_bin: None,
        regen: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--regen-expected" {
            args.regen = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let num = |v: &str| {
            v.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} must be an unsigned integer")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(value),
            "--seconds" => args.seconds = num(value).max(1),
            "--trace" => args.traced = num(value) != 0,
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// Aggregate CPU jiffies `(steal, total)` from `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    senss_harness::json::Value::Str(s.to_string()).encode()
}

/// Commit (when the checkout is a git work tree), a digest of the
/// sources that were built, host fingerprint and toolchain.
fn provenance(args: &Args, report: &Report, steal_share: f64) -> String {
    let root = checkout();
    let commit = std::fs::read_to_string(root.join(".git/HEAD"))
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(root.join(".git").join(r)).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!(
        "{{\"provenance\":{{\"commit\":{},\"source_digest\":{},\"cpu\":{},\"nproc\":{nproc},\
         \"kernel\":{},\"rustc\":{},\"steal_share\":{steal_share},\"workload\":{},\"seed\":{},\
         \"seconds\":{},\"trace\":{},\"samples\":{{{}}}}}}}",
        json_str(&commit),
        json_str(&source_digest(&root)),
        json_str(&cpu),
        json_str(&kernel),
        json_str(&rustc),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        samples.join(",")
    )
}

/// SHA-256 over the workspace manifests and every crate source file,
/// in path order — identifies the code measured when there is no git
/// metadata in the checkout.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = senss_crypto::sha256::Sha256::new();
    for f in &files {
        h.update(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.update(&std::fs::read(f).unwrap_or_default());
    }
    h.finalize()[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Prints the human-readable table, the provenance line and, last, the
/// result object.
fn emit(args: &Args, mut report: Report, steal_share: f64) {
    let wanted: Vec<(String, &str)> = if args.traced {
        catalog::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    for (name, unit) in &wanted {
        match report.metrics.get(name) {
            Some(&(v, _)) if v.is_finite() => {}
            Some(_) => {
                report.fail(format!("metric {name} is not finite"));
                report.set(name, 0.0, unit);
            }
            // A layer the workload never touched did no work: its
            // counters read 0. A missing timing is a benchmark bug.
            None if catalog::is_count(unit) => report.set(name, 0.0, unit),
            None => {
                report.fail(format!("metric {name} was not measured"));
                report.set(name, 0.0, unit);
            }
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    if !args.traced {
        for name in &report.thin_percentiles {
            println!(
                "# warning: {name} has fewer than {} samples beyond it",
                report::MIN_BEYOND
            );
        }
    }
    for f in &report.failures {
        println!("# failure: {f}");
    }
    let failure_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# failure_rate {failure_rate} ratio ({} of {} operations)",
        report.failed, report.attempted
    );
    for (name, unit) in &wanted {
        println!("# {name} {} {unit}", report.metrics[name].0);
    }
    println!("{}", provenance(args, &report, steal_share));
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                report.metrics[name].0,
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}

fn main() {
    let args = parse_args();
    let root = checkout();
    let expected_path = root.join("perfbench/expected/jobs.txt");
    if args.regen {
        let mut jobs = figure::pool();
        jobs.extend(churn::pool());
        let text = expected::generate(&jobs);
        std::fs::write(&expected_path, text).expect("write expected table");
        eprintln!("perfbench: wrote {}", expected_path.display());
        return;
    }
    if !matches!(
        args.workload.as_str(),
        "figure-cold" | "harness-churn" | "serve-loopback" | "serve-cluster"
    ) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    let expected = Expected::load(&expected_path).unwrap_or_else(|e| usage(&e));
    let tmp = root.join(".bench_tmp").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap_or_else(|e| usage(&format!("scratch dir: {e}")));
    let _guard = TmpGuard(tmp.clone());
    let serve_bin = args
        .serve_bin
        .clone()
        .map(|p| std::fs::canonicalize(&p).unwrap_or(p))
        .unwrap_or_else(|| {
            std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(|d| d.join("senss-serve")))
                .unwrap_or_else(|| PathBuf::from("senss-serve"))
        });
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        traced: args.traced,
        tmp,
        serve_bin,
        expected,
    };
    let mut report = Report::default();
    let cpu_start = cpu_jiffies();
    let jobs = match args.workload.as_str() {
        "figure-cold" => figure::run(&ctx, &mut report),
        "harness-churn" => churn::run(&ctx, &mut report),
        "serve-loopback" => serve::run(&ctx, &mut report, false),
        _ => serve::run(&ctx, &mut report, true),
    };
    if ctx.traced {
        probe::layers(&ctx, &mut report, &jobs);
    } else {
        report.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    // Share of this VM's CPU time the host took back during the run:
    // the first thing to look at when two runs disagree.
    let cpu_end = cpu_jiffies();
    let total = cpu_end.1.saturating_sub(cpu_start.1).max(1);
    let steal_share = cpu_end.0.saturating_sub(cpu_start.0) as f64 / total as f64;
    emit(&args, report, steal_share);
}
