//! `senss-serve` — serve the SENSS simulator over TCP, and talk to it.
//!
//! ```text
//! senss-serve serve    [--addr 127.0.0.1:4765] [--queue 32] [--max-conns 4096]
//!                      [--trace-workers 2] [--workers N] [--shard-retries 2]
//!                      [--hermetic] [--quiet]
//! senss-serve worker   [--addr 127.0.0.1:0] [--queue 32] [--stall-ms 0] [--quiet]
//! senss-serve submit   [--addr ...] [--name s] [--workloads fft,ocean] [--cores 2]
//!                      [--l2-mb 1] [--modes baseline,senss] [--ops 2000] [--seed 42]
//!                      [--file sweep.json] [--wait]
//! senss-serve status   --id N [--addr ...]
//! senss-serve results  --id N [--addr ...]
//! senss-serve stream   --id N [--addr ...]
//! senss-serve trace    --id N --index J [--addr ...]
//! senss-serve metrics  [--addr ...]
//! senss-serve ping     [--addr ...]
//! senss-serve shutdown [--addr ...]
//! ```
//!
//! `submit --wait` streams the result lines as the jobs finish, the
//! same bytes `results` prints once the sweep is done.
//!
//! `serve --workers N` runs the process as a cluster coordinator: its
//! harness serves cache hits and runs each miss on one of N supervised
//! `senss-serve worker` child processes (spawned from this same
//! executable). `worker` is the child-process mode: it binds an
//! ephemeral port, prints the bound address as its first stdout line,
//! runs jobs hermetically (no cache or records on disk) and exits when
//! its stdin closes. The server honours the usual `HARNESS_*`
//! environment knobs (workers, cache, budget) for sweep execution; in
//! cluster mode `--workers` sets the harness's thread count. See
//! `docs/serving.md`.

use senss_harness::json::{self, Value};
use senss_harness::{decode_spec, HarnessConfig, JobSpec, SecurityMode, SweepSpec};
use senss_serve::client::STREAM_TIMEOUT;
use senss_serve::{Client, ClusterConfig, Server, ServerConfig};
use senss_workloads::Workload;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

const DEFAULT_ADDR: &str = "127.0.0.1:4765";

fn usage() -> ! {
    eprintln!(
        "usage: senss-serve <serve|worker|submit|status|results|stream|trace|metrics|ping|shutdown> [flags]\n\
         run `senss-serve help` or see docs/serving.md for the flag reference"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("senss-serve: {msg}");
    std::process::exit(1);
}

/// Flag map: `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(argv: &[String]) -> Flags {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let Some(key) = argv[i].strip_prefix("--") else {
                usage();
            };
            // Valueless switches.
            if matches!(key, "wait" | "quiet" | "hermetic") {
                pairs.push((key.to_string(), "true".to_string()));
                i += 1;
                continue;
            }
            let Some(value) = argv.get(i + 1) else {
                usage()
            };
            pairs.push((key.to_string(), value.clone()));
            i += 2;
        }
        Flags(pairs)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("senss-serve: bad value for --{key}: {v:?}");
                std::process::exit(2);
            }),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// A flag the subcommand cannot work without: absence is reported
    /// explicitly (never papered over with a sentinel value).
    fn require_u64(&self, key: &str) -> u64 {
        if !self.has(key) {
            eprintln!("senss-serve: missing required flag --{key}");
            std::process::exit(2);
        }
        self.parse_or(key, 0)
    }
}

fn client(flags: &Flags) -> Client {
    Client::new(flags.get_or("addr", DEFAULT_ADDR))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let flags = Flags::parse(&argv[1..]);
    match cmd.as_str() {
        "serve" => serve(&flags),
        "worker" => worker(&flags),
        "submit" => submit(&flags),
        "status" => status(&flags),
        "results" => results(&flags),
        "stream" => stream(&client(&flags), flags.require_u64("id")),
        "trace" => trace(&flags),
        "metrics" => metrics(&flags),
        "ping" => ping(&flags),
        "shutdown" => shutdown(&flags),
        _ => usage(),
    }
}

fn base_config(flags: &Flags, default_addr: &str) -> ServerConfig {
    let mut cfg = ServerConfig::new(flags.get_or("addr", default_addr))
        .with_queue_capacity(flags.parse_or("queue", 32))
        .with_max_conns(flags.parse_or("max-conns", 4096));
    cfg.trace_workers = flags.parse_or("trace-workers", 2);
    cfg.quiet = flags.has("quiet");
    if flags.has("hermetic") {
        cfg = cfg.with_harness(
            HarnessConfig::hermetic()
                .with_workers(std::thread::available_parallelism().map_or(2, |n| n.get())),
        );
    }
    cfg
}

fn serve(flags: &Flags) -> ! {
    let mut cfg = base_config(flags, DEFAULT_ADDR);
    let workers: usize = flags.parse_or("workers", 0);
    if workers > 0 {
        let program = std::env::current_exe()
            .unwrap_or_else(|e| fail(format_args!("cannot locate own executable: {e}")));
        let mut cluster = ClusterConfig::new(workers, program.to_string_lossy())
            .with_shard_retries(flags.parse_or("shard-retries", 2));
        if flags.has("quiet") {
            cluster = cluster.with_worker_arg("--quiet");
        }
        cfg = cfg.with_cluster(cluster);
    }
    let server = Server::start(cfg)
        .unwrap_or_else(|e| fail(format_args!("bind or worker spawn failed: {e}")));
    // The listening line goes to stderr so piped stdout stays clean; CI
    // smoke greps for it.
    eprintln!("senss-serve: listening on {}", server.addr());
    server.join();
    eprintln!("senss-serve: drained and exited");
    std::process::exit(0);
}

/// Cluster child-process mode: bind (default an ephemeral port), print
/// the bound address as the first stdout line — the coordinator's
/// readiness handshake — then serve hermetically until told to shut
/// down or until stdin, which the coordinator holds open, reaches EOF.
fn worker(flags: &Flags) -> ! {
    let mut cfg = base_config(flags, "127.0.0.1:0").with_harness(HarnessConfig::hermetic());
    let stall = Duration::from_millis(flags.parse_or("stall-ms", 0u64));
    if !stall.is_zero() {
        // Fault-injection aid: stretch each job's wall time without
        // touching its deterministic result, so tests can kill a worker
        // reliably mid-sweep.
        cfg = cfg.with_runner(Arc::new(move |job: &JobSpec| {
            std::thread::sleep(stall);
            job.run()
        }));
    }
    let server = Server::start(cfg).unwrap_or_else(|e| fail(format_args!("bind failed: {e}")));
    println!("{}", server.addr());
    let _ = std::io::stdout().flush();
    let addr = server.addr().to_string();
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
        let _ = Client::new(addr).shutdown();
    });
    server.join();
    std::process::exit(0);
}

fn build_sweep(flags: &Flags) -> SweepSpec {
    if let Some(path) = flags.get("file") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
        return decode_sweep_file(&text)
            .unwrap_or_else(|e| fail(format_args!("bad sweep file {path}: {e}")));
    }
    let workloads: Vec<Workload> = flags
        .get_or("workloads", "fft")
        .split(',')
        .map(|w| w.parse().unwrap_or_else(|e| fail(e)))
        .collect();
    let modes: Vec<SecurityMode> = flags
        .get_or("modes", "baseline,senss")
        .split(',')
        .map(|m| match m {
            "baseline" => SecurityMode::Baseline,
            "senss" => SecurityMode::senss(),
            "integrated" => SecurityMode::integrated(),
            "servas" => SecurityMode::servas(),
            "sealer" => SecurityMode::sealer(),
            "scattered" => SecurityMode::scattered(),
            tag => SecurityMode::from_tag(tag)
                .unwrap_or_else(|| fail(format_args!("unknown mode {tag:?}"))),
        })
        .collect();
    let mut sweep = SweepSpec::new(flags.get_or("name", "cli"));
    sweep.grid(
        &workloads,
        &[flags.parse_or("cores", 2usize)],
        &[flags.parse_or("l2-mb", 1usize) << 20],
        &modes,
        flags.parse_or("ops", 2_000usize),
        flags.parse_or("seed", 42u64),
    );
    sweep
}

/// Parses a sweep file: `{"name": "...", "jobs": [{...job spec...}]}`,
/// the same job-spec layout the wire format uses.
fn decode_sweep_file(text: &str) -> Result<SweepSpec, String> {
    let v = json::parse(text.trim()).map_err(|e| e.to_string())?;
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .unwrap_or("file")
        .to_string();
    let jobs = v
        .get("jobs")
        .and_then(Value::as_arr)
        .ok_or("missing jobs array")?;
    let jobs: Vec<JobSpec> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| decode_spec(j).ok_or(format!("job {i} is not a valid job spec")))
        .collect::<Result<_, _>>()?;
    Ok(SweepSpec { name, jobs })
}

fn submit(flags: &Flags) {
    let sweep = build_sweep(flags);
    let client = client(flags);
    let (id, jobs) = client
        .submit(&sweep)
        .unwrap_or_else(|e| fail(format_args!("submit failed: {e}")));
    eprintln!("senss-serve: submitted sweep {id} ({jobs} jobs)");
    if !flags.has("wait") {
        println!("{id}");
        return;
    }
    stream(&client, id);
}

fn status(flags: &Flags) {
    let id = flags.require_u64("id");
    let info = client(flags)
        .status(id)
        .unwrap_or_else(|e| fail(format_args!("status failed: {e}")));
    println!(
        "sweep {}: {} (jobs {}, executed {}, cached {}, failures {}){}{}",
        info.id,
        info.state.tag(),
        info.jobs,
        info.executed,
        info.cached,
        info.failures,
        if info.message.is_empty() { "" } else { ": " },
        info.message
    );
}

fn results(flags: &Flags) {
    let id = flags.require_u64("id");
    for line in client(flags)
        .results_raw(id)
        .unwrap_or_else(|e| fail(format_args!("results failed: {e}")))
    {
        println!("{line}");
    }
}

/// Streams a sweep's result lines progressively, printing each as it
/// arrives — usable on a sweep that is still queued or running. The
/// server's completions pace the stream, not the round-trip timeout.
fn stream(client: &Client, id: u64) {
    let delivered = client
        .clone()
        .with_timeout(STREAM_TIMEOUT)
        .stream_with(id, |line| println!("{line}"))
        .unwrap_or_else(|e| fail(format_args!("stream failed: {e}")));
    eprintln!("senss-serve: streamed {delivered} result line(s) for sweep {id}");
}

fn trace(flags: &Flags) {
    let id = flags.require_u64("id");
    let index = flags.require_u64("index");
    let derived = client(flags)
        .trace(id, index)
        .unwrap_or_else(|e| fail(format_args!("trace failed: {e}")));
    println!("{}", derived.encode());
}

fn metrics(flags: &Flags) {
    let snapshot = client(flags)
        .metrics()
        .unwrap_or_else(|e| fail(format_args!("metrics failed: {e}")));
    println!("{}", snapshot.encode());
}

fn ping(flags: &Flags) {
    client(flags)
        .ping()
        .unwrap_or_else(|e| fail(format_args!("ping failed: {e}")));
    println!("pong");
}

fn shutdown(flags: &Flags) {
    client(flags)
        .shutdown()
        .unwrap_or_else(|e| fail(format_args!("shutdown failed: {e}")));
    eprintln!("senss-serve: server acknowledged shutdown; draining");
}
