//! `serve-loopback` and `serve-cluster`: an in-process `senss-serve`
//! server on loopback — single process, or a coordinator over two
//! `senss-serve worker` processes — driven by two closed-loop client
//! threads, each modelling a figure binary that waits for its reply.
//!
//! The window is a sequence of sessions. A session starts a fresh
//! server with a fresh on-disk cache (the set-up that `setup_s` times),
//! lets each client run a fixed number of iterations, and shuts the
//! server down — one figure-regeneration pass against a newly started
//! server. Fixed-size sessions keep the cache, which every sweep
//! re-reads, the same size from run to run.
//!
//! An iteration is `submit_once` + `stream_with` of a 4-job 2-core
//! sweep (3 in 8 repeat a sweep of the session, so they hit the server
//! cache), or — one in five — a `trace` request, half of which re-trace
//! one of the client's last few traced jobs so the checkpoint store can
//! hit. Compute per request is about a millisecond, so latency is
//! protocol, event loop, queueing and wake-up time.
//!
//! Outputs are checked after the window against a local `Harness` run
//! of the same sweeps (the cluster `cmp` oracle): streamed lines byte
//! for byte, trace replies field for field.

use crate::figure::modes;
use crate::report::{median, ms, Report};
use crate::{local_trace, Ctx, Rng};
use senss_harness::json::{self, Value};
use senss_harness::{Harness, HarnessConfig, JobSpec, ResultCache, SweepSpec};
use senss_serve::protocol::result_line;
use senss_serve::{Client, ClientError, ClusterConfig, Server, ServerConfig};
use senss_workloads::Workload;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Operations per core of a served job.
const OPS: usize = 250;
const JOBS_PER_SWEEP: usize = 4;
const CLIENTS: u64 = 2;
/// Requests each client makes per session.
const ITERATIONS: usize = 60;
/// Recent sweeps a client may repeat, and recently traced jobs it may
/// re-trace.
const HISTORY: usize = 16;
const RETRACE: usize = 4;
/// Server counters summed over sessions (`queue_depth_max` is a max).
const COUNTERS: [&str; 8] = [
    "jobs_executed",
    "jobs_cached",
    "jobs_forked",
    "trace_checkpoint_hits",
    "requests_trace",
    "errors_overloaded",
    "shards_dispatched",
    "shard_retries",
];

/// Sweep number `k` of the run seeded `seed`.
pub fn sweep(seed: u64, k: u64) -> SweepSpec {
    let mut rng = Rng::new(seed, 1000 + k);
    let mut s = SweepSpec::new(&format!("serve-{k}"));
    let modes = modes();
    for _ in 0..JOBS_PER_SWEEP {
        let w = Workload::all()[rng.below(5)];
        s.push(
            JobSpec::new(w, 2, 1 << 20)
                .with_mode(modes[rng.below(modes.len())])
                .with_ops(OPS)
                .with_seed(rng.next_u64() % 1_000_000),
        );
    }
    s
}

/// One sweep request: submit, then stream every line to the `end`
/// frame. A refusal (`overloaded`) is an error like any other — the
/// benchmark never retries it away.
pub fn sweep_request(
    client: &Client,
    sweep: &SweepSpec,
) -> Result<(u64, Vec<String>), ClientError> {
    let (id, _) = client.submit_once(sweep)?;
    let mut lines = Vec::with_capacity(sweep.len());
    client.stream_with(id, |l| lines.push(l.to_string()))?;
    Ok((id, lines))
}

/// What a client thread saw, checked after the window.
#[derive(Default)]
struct Seen {
    /// `(sweep number, lines, latency ms)` per completed sweep.
    sweeps: Vec<(u64, Vec<String>, f64)>,
    /// `(sweep number, job index, reply, latency ms)` per trace.
    traces: Vec<(u64, usize, Value, f64)>,
    /// Requests that returned an error.
    errors: Vec<String>,
}

/// One client's closed loop of `iterations` requests; `next` hands out
/// numbers of sweeps never requested before.
fn client_loop(addr: &str, seed: u64, stream: u64, next: &AtomicU64, iterations: usize) -> Seen {
    let client = Client::new(addr).with_retry(0, Duration::ZERO);
    let mut rng = Rng::new(seed, stream);
    let mut seen = Seen::default();
    let mut history: VecDeque<(u64, u64)> = VecDeque::new();
    let mut retrace: VecDeque<(u64, u64, usize)> = VecDeque::new();
    for _ in 0..iterations {
        if !history.is_empty() && rng.below(5) == 0 {
            let (id, k, index) = match retrace.len() {
                n if n > 0 && rng.below(2) == 0 => retrace[rng.below(n)],
                _ => {
                    let &(id, k) = history.back().expect("non-empty");
                    (id, k, rng.below(JOBS_PER_SWEEP))
                }
            };
            let t = Instant::now();
            match client.trace(id, index as u64) {
                Ok(v) => seen.traces.push((k, index, v, ms(t.elapsed()))),
                Err(e) => seen.errors.push(format!("trace {id}/{index}: {e}")),
            }
            if !retrace.contains(&(id, k, index)) {
                retrace.push_back((id, k, index));
                if retrace.len() > RETRACE {
                    retrace.pop_front();
                }
            }
            continue;
        }
        let k = match history.len() {
            n if n > 0 && rng.below(8) < 3 => history[rng.below(n)].1,
            _ => next.fetch_add(1, Ordering::Relaxed),
        };
        let s = sweep(seed, k);
        let t = Instant::now();
        match sweep_request(&client, &s) {
            Ok((id, lines)) => {
                seen.sweeps.push((k, lines, ms(t.elapsed())));
                history.push_back((id, k));
                if history.len() > HISTORY {
                    history.pop_front();
                }
            }
            Err(e) => seen.errors.push(format!("sweep {k}: {e}")),
        }
    }
    seen
}

/// The local oracle for one sweep: its result lines, each job's event
/// count, and the local wall time of the same sweep on two workers.
pub struct Oracle {
    /// Result lines of a local `Harness` run.
    pub lines: Vec<String>,
    events: u64,
    /// Local wall time of the sweep.
    pub wall_ms: f64,
    overhead_us: f64,
}

/// Runs `s` locally through a hermetic two-worker harness.
pub fn oracle(s: &SweepSpec) -> Result<Oracle, String> {
    let events = AtomicU64::new(0);
    let harness = Harness::new(HarnessConfig::hermetic().with_workers(2));
    let t = Instant::now();
    let result = harness
        .run_with(s, |job| {
            let (stats, n) = job.run_counting();
            events.fetch_add(n, Ordering::Relaxed);
            stats
        })
        .map_err(|e| e.to_string())?;
    let wall = t.elapsed();
    if !result.is_complete() {
        return Err(format!("local run of {} failed", s.name));
    }
    let busy: u64 = result.records.iter().map(|r| r.wall_micros).sum();
    Ok(Oracle {
        lines: result.records.iter().map(result_line).collect(),
        events: events.into_inner(),
        wall_ms: ms(wall),
        overhead_us: wall.as_secs_f64() * 1e6 * result.workers as f64 - busy as f64,
    })
}

fn config(dir: &Path, cluster: Option<&Path>) -> ServerConfig {
    let harness = HarnessConfig::hermetic()
        .with_workers(2)
        .with_cache_dir(dir.join("cache"));
    let cfg = ServerConfig::loopback().with_harness(harness);
    match cluster {
        Some(bin) => cfg
            .with_cluster(ClusterConfig::new(2, bin.to_string_lossy()).with_worker_arg("--quiet")),
        None => cfg,
    }
}

/// Runs a serve workload; returns the distinct jobs it served.
pub fn run(ctx: &Ctx, report: &mut Report, cluster: bool) -> Vec<JobSpec> {
    let home = std::env::current_dir().ok();
    if cluster {
        // Workers take their harness from the environment and keep
        // their result cache under `results/cache` of their working
        // directory, which each session points at its own directory.
        std::env::set_var("HARNESS_WORKERS", "2");
        std::env::set_var("HARNESS_RETRIES", "0");
        for var in [
            "HARNESS_NO_CACHE",
            "HARNESS_WARM_START",
            "HARNESS_CYCLE_BUDGET",
            "HARNESS_CHECKPOINT_CYCLES",
        ] {
            std::env::remove_var(var);
        }
    }
    let served = sessions(ctx, report, cluster);
    if let Some(home) = home {
        let _ = std::env::set_current_dir(home);
    }
    served
}

/// Server-side observations of a traced run, over all sessions.
#[derive(Default)]
struct ServerSide {
    counters: HashMap<&'static str, f64>,
    queue_depth_max: f64,
    pings: Vec<f64>,
    open_ms: Vec<f64>,
    entries: usize,
}

fn sessions(ctx: &Ctx, report: &mut Report, cluster: bool) -> Vec<JobSpec> {
    let bin = cluster.then_some(ctx.serve_bin.as_path());
    let next = AtomicU64::new(0);
    let (mut setups, mut job_rates, mut event_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut side = ServerSide::default();
    let mut c = Checked::default();
    // The window counts set-up and client time; each session's replies
    // are checked between sessions, outside it.
    let (mut busy, mut wall) = (0.0f64, 0.0f64);
    let mut n = 0usize;
    while n == 0 || busy < ctx.loop_window().as_secs_f64() {
        let dir = ctx.tmp.join(format!("session-{n}"));
        n += 1;
        let entered = std::fs::create_dir_all(&dir).and_then(|()| match cluster {
            true => std::env::set_current_dir(&dir),
            false => Ok(()),
        });
        if let Err(e) = entered {
            report.fail(format!("cannot prepare session dir: {e}"));
            break;
        }
        // Set-up: start the server (and spawn its workers) and answer
        // one ping.
        let t = Instant::now();
        let started = Server::start(config(&dir, bin))
            .map_err(|e| e.to_string())
            .and_then(|s| {
                Client::new(s.addr().to_string())
                    .ping()
                    .map_err(|e| e.to_string())?;
                Ok(s)
            });
        setups.push(t.elapsed().as_secs_f64());
        let server = match started {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("server start failed: {e}"));
                break;
            }
        };
        let addr = server.addr().to_string();
        let t = Instant::now();
        let session: Vec<Seen> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (addr, next) = (&addr, &next);
                    s.spawn(move || client_loop(addr, ctx.seed, 10 + c, next, ITERATIONS))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let session_wall = t.elapsed().as_secs_f64();
        busy += setups[setups.len() - 1] + session_wall;
        wall += session_wall;
        if ctx.traced {
            observe_server(report, &mut side, &Client::new(addr), &dir, cluster, server);
        } else {
            server.shutdown();
        }
        // Rates are medians over sessions, so a burst of host noise
        // during one session does not move the run's figure.
        let (jobs, events) = (c.jobs, c.events);
        check(ctx.seed, report, &session, &mut c);
        job_rates.push((c.jobs - jobs) as f64 / session_wall);
        event_rates.push((c.events - events) as f64 / session_wall);
    }
    report.set("setup_s", median(&setups), "s");
    report.set("jobs_per_s", median(&job_rates), "1/s");
    report.set("events_per_s", median(&event_rates), "1/s");
    report.percentiles("sweep_latency", &c.latencies, &[50, 90]);
    report.percentiles("trace_latency", &c.trace_latencies, &[50, 90]);
    report.notes.push(format!(
        "{n} sessions: {} sweeps and {} traces by {CLIENTS} closed-loop clients in {wall:.2} s",
        c.latencies.len(),
        c.trace_latencies.len()
    ));
    if ctx.traced {
        layer_metrics(report, &side, &c);
    }
    c.served
}

/// Reads a finished session's server side: the public `metrics`
/// counters, ping round trips (first session only), and — after
/// shutdown — the on-disk cache the next start would reopen.
fn observe_server(
    report: &mut Report,
    side: &mut ServerSide,
    client: &Client,
    dir: &Path,
    cluster: bool,
    server: Server,
) {
    match client.metrics() {
        Ok(m) => {
            let get = |key: &str| m.get(key).and_then(Value::as_u64).unwrap_or(0) as f64;
            for key in COUNTERS {
                *side.counters.entry(key).or_default() += get(key);
            }
            side.queue_depth_max = side.queue_depth_max.max(get("queue_depth_max"));
        }
        Err(e) => report.fail(format!("metrics request failed: {e}")),
    }
    if side.pings.is_empty() {
        for _ in 0..200 {
            let t = Instant::now();
            if client.ping().is_ok() {
                side.pings.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    server.shutdown();
    // Cluster workers share one cache under their working directory.
    let cache_dir = if cluster {
        dir.join("results/cache")
    } else {
        dir.join("cache")
    };
    let t = Instant::now();
    if let Ok(cache) = ResultCache::open(&cache_dir) {
        side.open_ms.push(ms(t.elapsed()));
        side.entries = side.entries.max(cache.len());
    }
}

/// Replies checked against the local oracle.
#[derive(Default)]
struct Checked {
    /// Jobs delivered with correct result lines.
    jobs: u64,
    /// Simulator events of those jobs.
    events: u64,
    latencies: Vec<f64>,
    trace_latencies: Vec<f64>,
    /// Sweep latency minus the local wall time of the same sweep.
    waits: Vec<f64>,
    /// Distinct jobs served.
    served: Vec<JobSpec>,
    /// Σ local harness overhead (sweep wall × workers − Σ job walls)
    /// and the number of jobs it covers.
    overhead: (f64, usize),
}

impl Checked {
    /// Local harness overhead per job, over every sweep run locally.
    fn overhead_us_per_job(&self) -> f64 {
        self.overhead.0 / self.overhead.1.max(1) as f64
    }
}

/// Checks every reply one session's clients saw, counting one
/// operation per request: errors (refusals included) and mismatches
/// are failures. Repeats and re-traces name sweeps of the same session
/// only, so the local runs are kept for the session and then dropped.
fn check(seed: u64, report: &mut Report, seen: &[Seen], c: &mut Checked) {
    let mut oracles: HashMap<u64, Result<Oracle, String>> = HashMap::new();
    let mut derived: HashMap<(u64, usize), String> = HashMap::new();
    for seen in seen {
        for e in &seen.errors {
            report.fail(e.clone());
        }
        for (k, lines, latency) in &seen.sweeps {
            c.latencies.push(*latency);
            let o = oracles.entry(*k).or_insert_with(|| {
                let s = sweep(seed, *k);
                c.served.extend(s.jobs.iter().copied());
                let o = oracle(&s);
                if let Ok(o) = &o {
                    c.overhead.0 += o.overhead_us;
                    c.overhead.1 += JOBS_PER_SWEEP;
                }
                o
            });
            match o {
                Ok(o) if &o.lines == lines => {
                    report.ok();
                    c.jobs += lines.len() as u64;
                    c.events += o.events;
                    c.waits.push(latency - o.wall_ms);
                }
                Ok(_) => report.fail(format!("sweep {k}: streamed lines differ from a local run")),
                Err(e) => report.fail(format!("sweep {k}: {e}")),
            }
        }
        for (k, index, reply, latency) in &seen.traces {
            c.trace_latencies.push(*latency);
            let local = derived
                .entry((*k, *index))
                .or_insert_with(|| local_trace(&sweep(seed, *k).jobs[*index]).1);
            if crate::is_derived(reply) && json::parse(local).as_ref() == Ok(reply) {
                report.ok();
            } else {
                report.fail(format!(
                    "trace of sweep {k} job {index} differs from a local trace"
                ));
            }
        }
    }
}

/// Per-layer metrics of a serve run.
fn layer_metrics(report: &mut Report, side: &ServerSide, c: &Checked) {
    let get = |key: &str| side.counters.get(key).copied().unwrap_or(0.0);
    for key in [
        "jobs_executed",
        "jobs_cached",
        "trace_checkpoint_hits",
        "errors_overloaded",
        "shards_dispatched",
        "shard_retries",
    ] {
        report.set(&format!("serve.{key}"), get(key), "count");
    }
    report.set("serve.queue_depth_max", side.queue_depth_max, "count");
    report.set(
        "serve.checkpoint_hit_ratio",
        get("trace_checkpoint_hits") / get("requests_trace").max(1.0),
        "ratio",
    );
    // The server's harness is this workload's harness layer.
    let executed = get("jobs_executed");
    report.set("harness.jobs_executed", executed, "count");
    report.set("harness.jobs_cached", get("jobs_cached"), "count");
    report.set("harness.jobs_forked", get("jobs_forked"), "count");
    report.set(
        "harness.fork_ratio",
        get("jobs_forked") / executed.max(1.0),
        "ratio",
    );
    report.set(
        "harness.cold_overhead_us_per_job",
        c.overhead_us_per_job(),
        "us",
    );
    if !side.open_ms.is_empty() {
        report.set("harness.cache_open_ms", median(&side.open_ms), "ms");
        report.set("harness.cache_entries", side.entries as f64, "count");
    }
    if !side.pings.is_empty() {
        report.set("serve.ping_rtt_us", median(&side.pings), "us");
    }
    if !c.waits.is_empty() {
        report.set("serve.wait_ms", median(&c.waits), "ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_submit_is_an_error_not_a_retry() {
        let server = Server::start(ServerConfig::loopback().with_queue_capacity(0)).unwrap();
        let client = Client::new(server.addr().to_string()).with_retry(0, Duration::ZERO);
        let refused = sweep_request(&client, &sweep(1, 0));
        assert!(matches!(
            refused,
            Err(ClientError::Server {
                class: senss_serve::ErrorClass::Overloaded,
                ..
            })
        ));
        server.shutdown();
    }

    #[test]
    fn refused_submit_counts_as_failure() {
        let server = Server::start(ServerConfig::loopback().with_queue_capacity(0)).unwrap();
        let seen = client_loop(&server.addr().to_string(), 1, 10, &AtomicU64::new(0), 5);
        server.shutdown();
        assert!(seen.sweeps.is_empty());
        assert_eq!(seen.errors.len(), 5);
        assert!(seen.errors.iter().all(|e| e.contains("overloaded")));
        let mut report = Report::default();
        check(1, &mut report, &[seen], &mut Checked::default());
        assert_eq!((report.attempted, report.failed), (5, 5));
    }

    #[test]
    fn sweeps_are_a_function_of_seed_and_number() {
        assert_eq!(sweep(3, 7), sweep(3, 7));
        assert_ne!(sweep(3, 7).jobs, sweep(3, 8).jobs);
        assert_ne!(sweep(3, 7).jobs, sweep(4, 7).jobs);
    }

    #[test]
    fn served_lines_and_traces_match_the_local_oracle() {
        let server = Server::start(ServerConfig::loopback()).unwrap();
        let seen = client_loop(&server.addr().to_string(), 5, 10, &AtomicU64::new(0), 12);
        server.shutdown();
        assert!(!seen.sweeps.is_empty() && !seen.traces.is_empty());
        let mut report = Report::default();
        let mut c = Checked::default();
        check(5, &mut report, &[seen], &mut c);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        assert_eq!(report.attempted, 12);
        assert!(c.jobs > 0 && c.events > 0);
    }
}
