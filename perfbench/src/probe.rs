//! The traced run's instrumentation: everything that produces the
//! per-layer metrics.
//!
//! * an instrumented re-execution of the jobs the workload ran — phase
//!   timers around `JobSpec::traces`, `System::new` and `System::run`,
//!   a counting [`TraceSink`], and a timing wrapper around
//!   `JobSpec::build_extension()` — whose stats must be bit-identical
//!   to an untraced run of the same jobs;
//! * component probes: AES block, SHA-256, cache key, set-associative
//!   cache probe, bus arbiter grant;
//! * a snapshot round trip of the workload's largest job;
//! * a fixed figure slice (fft and ocean × 4/16/32P × six modes) that
//!   prices one simulator event per processor count and per security
//!   mode, and a ring sink against the null sink;
//! * small harness and serve probes that fill in the cache and serve
//!   timings of workloads that never touch those layers.
//!
//! Last, it prints predicted (Σ count × component cost) against
//! measured busy time for the simulator, extension and harness layers.

use crate::catalog::{HOOKS, MODES};
use crate::figure::{modes, CORES};
use crate::report::{median, ms, Report};
use crate::{serve, Ctx, Rng, TRACE_BUCKET_CYCLES};
use senss_crypto::aes::Aes;
use senss_crypto::sha256::Sha256;
use senss_crypto::Block;
use senss_harness::{Harness, HarnessConfig, JobSpec, ResultCache, SweepSpec};
use senss_serve::{Client, Server, ServerConfig};
use senss_sim::bus::{Arbiter, BusRequest, Transaction, TxnKind};
use senss_sim::cache::SetAssocCache;
use senss_sim::extension::FollowUp;
use senss_sim::{Extension, Stats, System};
use senss_snapshot::Snapshot;
use senss_trace::{fold, RingSink, TraceEvent, TraceSink, Tracer};
use senss_workloads::Workload;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Delegates every hook to the job's real extension, counting calls
/// and timing each one.
pub struct Timed {
    inner: Box<dyn Extension>,
    /// Calls per hook, in [`HOOKS`] order.
    pub calls: [u64; 6],
    /// Nanoseconds per hook, in [`HOOKS`] order.
    pub ns: [u64; 6],
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Extension>) -> Timed {
        Timed {
            inner,
            calls: [0; 6],
            ns: [0; 6],
        }
    }

    fn time<T>(&mut self, hook: usize, f: impl FnOnce(&mut dyn Extension) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        self.ns[hook] += t.elapsed().as_nanos() as u64;
        self.calls[hook] += 1;
        out
    }
}

impl Extension for Timed {
    fn transfer_start_delay(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> u64 {
        self.time(0, |e| e.transfer_start_delay(txn, now, tracer))
    }

    fn transfer_extra_latency(&mut self, txn: &Transaction) -> u64 {
        self.time(1, |e| e.transfer_extra_latency(txn))
    }

    fn transaction_complete(
        &mut self,
        txn: &Transaction,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> Vec<FollowUp> {
        self.time(2, |e| e.transaction_complete(txn, now, tracer))
    }

    fn pad_request_needed(&mut self, pid: usize, addr: u64) -> bool {
        self.time(3, |e| e.pad_request_needed(pid, addr))
    }

    fn integrity_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        self.time(4, |e| e.integrity_chain(pid, addr))
    }

    fn writeback_chain(&mut self, pid: usize, addr: u64) -> Vec<u64> {
        self.time(5, |e| e.writeback_chain(pid, addr))
    }

    fn hash_latency(&self) -> u64 {
        self.inner.hash_latency()
    }

    fn snapshot(&self, out: &mut Vec<(String, u64)>) {
        self.inner.snapshot(out)
    }

    fn restore(&mut self, state: &[(String, u64)]) {
        self.inner.restore(state)
    }
}

/// A sink that only counts events by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counting {
    bus_grants: u64,
    txn_starts: u64,
    mesi_transitions: u64,
    mem_fills: u64,
    shu_encrypts: u64,
    shu_verifies: u64,
}

impl TraceSink for Counting {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::BusGrant { .. } => self.bus_grants += 1,
            TraceEvent::TxnStart { .. } => self.txn_starts += 1,
            TraceEvent::TxnDone { .. } => {}
            TraceEvent::MesiTransition { .. } => self.mesi_transitions += 1,
            TraceEvent::MemFill { .. } => self.mem_fills += 1,
            TraceEvent::ShuEncrypt { .. } => self.shu_encrypts += 1,
            TraceEvent::ShuVerify { .. } => self.shu_verifies += 1,
        }
    }
}

/// Per-layer metrics for the workload whose own loop already ran.
pub fn layers(ctx: &Ctx, report: &mut Report, jobs: &[JobSpec]) {
    components(report);
    let counts = instrumented(ctx, report, jobs);
    snapshot_round_trip(report, jobs);
    figure_slice(report);
    let missing = |r: &Report, names: &[&str]| names.iter().any(|n| !r.has(n));
    if missing(
        report,
        &[
            "harness.cold_overhead_us_per_job",
            "harness.hit_us_per_job",
            "harness.cache_open_ms",
        ],
    ) {
        harness_probe(ctx, report);
    }
    if missing(report, &["serve.ping_rtt_us", "serve.wait_ms"]) {
        serve_probe(ctx, report);
    }
    predictions(report, &counts);
}

/// Mean nanoseconds per call of `f` over `reps` calls; the median of
/// five trials.
fn per_call_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..reps {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&trials)
}

/// Probe cost of a full `size`-byte, `ways`-way cache, hit and miss.
fn cache_probe_ns(size: usize, ways: usize) -> (f64, f64) {
    let lines = size / 64;
    let mut cache: SetAssocCache<u8> = SetAssocCache::new(size, ways, 64);
    for i in 0..lines {
        cache.insert((i * 64) as u64, 1);
    }
    let mut rng = Rng::new(7, 7);
    let resident: Vec<u64> = (0..4096).map(|_| (rng.below(lines) * 64) as u64).collect();
    let absent: Vec<u64> = resident.iter().map(|a| a + (lines * 64) as u64).collect();
    let n = resident.len();
    let hit = per_call_ns(200_000, |i| {
        black_box(cache.lookup_mut(resident[i % n]).is_some());
    });
    let miss = per_call_ns(200_000, |i| {
        black_box(cache.lookup_mut(absent[i % n]).is_some());
    });
    (hit, miss)
}

/// Cost of one grant (plus re-queueing the granted request) with every
/// one of `p` processors waiting.
fn arbiter_grant_ns(p: usize) -> f64 {
    let mut arb = Arbiter::new(p);
    for pid in 0..p {
        arb.push(BusRequest {
            pid,
            kind: TxnKind::Read,
            addr: (pid * 64) as u64,
            blocking: true,
            token: pid as u64,
        });
    }
    per_call_ns(200_000, |_| {
        let req = arb.grant().expect("requests are waiting");
        arb.push(black_box(req));
    })
}

fn components(report: &mut Report) {
    let aes = Aes::new_128(&[0x2b; 16]);
    let mut block = Block::from_words(1, 2);
    report.set(
        "crypto.aes128_block_ns",
        per_call_ns(100_000, |_| block = aes.encrypt_block(black_box(block))),
        "ns",
    );
    let data = [0x5a_u8; 64];
    report.set(
        "crypto.sha256_64b_ns",
        per_call_ns(50_000, |_| {
            black_box(Sha256::digest(black_box(&data)));
        }),
        "ns",
    );
    let specs = crate::figure::grid(crate::figure::SEEDS[0]).jobs;
    report.set(
        "harness.cache_key_us",
        per_call_ns(5_000, |i| {
            black_box(specs[i % specs.len()].cache_key());
        }) / 1e3,
        "us",
    );
    for (ways, size) in [(2, 64 << 10), (4, 1 << 20)] {
        let (hit, miss) = cache_probe_ns(size, ways);
        report.set(&format!("sim.cache_probe_hit_ns.w{ways}"), hit, "ns");
        report.set(&format!("sim.cache_probe_miss_ns.w{ways}"), miss, "ns");
    }
    for p in [16, 32] {
        report.set(
            &format!("sim.arbiter_grant_ns.p{p}"),
            arbiter_grant_ns(p),
            "ns",
        );
    }
}

/// Operation counts of the instrumented re-execution, for the
/// predicted-vs-measured lines.
#[derive(Default)]
struct Counts {
    sink: Counting,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    hook_ns: u64,
    run_ns: f64,
}

/// Re-executes the workload's jobs (shuffled, as many as fit a quarter
/// of the window) untraced and then instrumented.
fn instrumented(ctx: &Ctx, report: &mut Report, jobs: &[JobSpec]) -> Counts {
    let mut order: Vec<JobSpec> = jobs.to_vec();
    order.dedup();
    Rng::new(ctx.seed, 3).shuffle(&mut order);
    let budget = ctx.window / 4;

    // Untraced: the production path, with phase timers only.
    let (mut gen, mut build, mut run) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut events, mut cycles) = (0u64, 0u64);
    let mut plain: Vec<(JobSpec, Stats)> = Vec::new();
    let all = Instant::now();
    for job in order {
        if !plain.is_empty() && all.elapsed() > budget {
            break;
        }
        let t = Instant::now();
        let traces = job.traces();
        gen += t.elapsed();
        let t = Instant::now();
        let mut sys = System::new(job.system_config(), traces, job.build_extension());
        build += t.elapsed();
        let t = Instant::now();
        let stats = sys.run();
        run += t.elapsed();
        events += sys.events_processed();
        cycles += stats.total_cycles;
        plain.push((job, stats));
    }
    let plain_wall = all.elapsed();
    report.set("workloads.generate_ms", ms(gen), "ms");
    report.set("sim.build_ms", ms(build), "ms");
    report.set("sim.run_ms", ms(run), "ms");
    report.set("sim.events", events as f64, "count");
    report.set("sim.cycles", cycles as f64, "count");
    report.set(
        "sim.ns_per_event",
        run.as_nanos() as f64 / events.max(1) as f64,
        "ns",
    );

    // Traced: counting sink and timed extension on the same jobs.
    let mut c = Counts {
        run_ns: run.as_nanos() as f64,
        ..Counts::default()
    };
    let (mut calls, mut hook_ns) = ([0u64; 6], [0u64; 6]);
    let all = Instant::now();
    for (job, stats) in &plain {
        let ext = Timed::new(job.build_extension());
        let mut sys =
            System::with_sink(job.system_config(), job.traces(), ext, Counting::default());
        let traced = sys.run();
        for h in 0..6 {
            calls[h] += sys.extension().calls[h];
            hook_ns[h] += sys.extension().ns[h];
        }
        let sink = sys.into_sink();
        for (total, n) in [
            (&mut c.sink.bus_grants, sink.bus_grants),
            (&mut c.sink.txn_starts, sink.txn_starts),
            (&mut c.sink.mesi_transitions, sink.mesi_transitions),
            (&mut c.sink.mem_fills, sink.mem_fills),
            (&mut c.sink.shu_encrypts, sink.shu_encrypts),
            (&mut c.sink.shu_verifies, sink.shu_verifies),
        ] {
            *total += n;
        }
        c.l1_hits += traced.l1_hits;
        c.l1_misses += traced.l1_misses;
        c.l2_hits += traced.l2_hits;
        c.l2_misses += traced.l2_misses;
        if traced == *stats {
            report.ok();
        } else {
            report.fail(format!(
                "traced stats differ from untraced for {}",
                crate::expected::label(job)
            ));
        }
        if ctx.expected.get(job).is_some() {
            ctx.expected.check(report, job, stats);
        }
    }
    let traced_wall = all.elapsed();
    report.notes.push(format!(
        "instrumented re-execution of {} jobs: traced stats bit-identical to untraced in every job checked",
        plain.len()
    ));
    report.set(
        "bench.tracing_overhead",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        "ratio",
    );
    for (name, n) in [
        ("sim.bus_grants", c.sink.bus_grants),
        ("sim.txn_starts", c.sink.txn_starts),
        ("sim.mesi_transitions", c.sink.mesi_transitions),
        ("sim.mem_fills", c.sink.mem_fills),
        ("sim.shu_encrypts", c.sink.shu_encrypts),
        ("sim.shu_verifies", c.sink.shu_verifies),
    ] {
        report.set(name, n as f64, "count");
    }
    for (h, hook) in HOOKS.iter().enumerate() {
        report.set(&format!("ext.{hook}.calls"), calls[h] as f64, "count");
        report.set(&format!("ext.{hook}.ns"), hook_ns[h] as f64, "ns");
    }
    c.hook_ns = hook_ns.iter().sum();
    c
}

/// Checkpoint cost of the workload's largest job, restored at the
/// midpoint and finished; the restored run must reproduce its stats.
fn snapshot_round_trip(report: &mut Report, jobs: &[JobSpec]) {
    let Some(job) = jobs
        .iter()
        .max_by_key(|j| (j.cores, j.ops_per_core, j.mode.cost_weight()))
    else {
        return;
    };
    let full = job.run();
    let mid = full.total_cycles / 2;
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut bytes = 0;
    for _ in 0..3 {
        let mut sys = job.build_system();
        sys.run_until(mid);
        let t = Instant::now();
        let snap = Snapshot::capture(&sys, mid);
        times[0].push(ms(t.elapsed()));
        let t = Instant::now();
        let text = snap.encode();
        times[1].push(ms(t.elapsed()));
        bytes = text.len();
        let t = Instant::now();
        let decoded = Snapshot::decode(&text);
        times[2].push(ms(t.elapsed()));
        let Ok(decoded) = decoded else {
            report.fail(format!(
                "snapshot of {} does not decode",
                crate::expected::label(job)
            ));
            continue;
        };
        let t = Instant::now();
        let mut restored = decoded.restore(job.build_extension());
        times[3].push(ms(t.elapsed()));
        if restored.finish() == full {
            report.ok();
        } else {
            report.fail(format!(
                "restored run of {} diverged",
                crate::expected::label(job)
            ));
        }
    }
    report.set("snapshot.bytes", bytes as f64, "bytes");
    for (name, t) in ["capture", "encode", "decode", "restore"]
        .iter()
        .zip(&times)
    {
        if !t.is_empty() {
            report.set(&format!("snapshot.{name}_ms"), median(t), "ms");
        }
    }
}

/// Operations per core of the figure slice.
const SLICE_OPS: usize = 500;

/// Prices one simulated event per processor count and per security
/// mode on a fixed slice of the figure grid, and a ring sink against
/// the null sink on the same jobs.
fn figure_slice(report: &mut Report) {
    // ns and events per (mode, cores, workload).
    let mut null_ns = vec![[[0f64; 2]; 3]; 6];
    let mut events = vec![[[0u64; 2]; 3]; 6];
    let (mut ring_total, mut null_total, mut fold_total) = (0f64, 0f64, Duration::ZERO);
    for (m, mode) in modes().into_iter().enumerate() {
        for (p, &cores) in CORES.iter().enumerate() {
            for (w, workload) in [Workload::Fft, Workload::Ocean].into_iter().enumerate() {
                let job = JobSpec::new(workload, cores, 1 << 20)
                    .with_mode(mode)
                    .with_ops(SLICE_OPS)
                    .with_seed(crate::figure::SEEDS[0]);
                let mut sys = job.build_system();
                let t = Instant::now();
                sys.run();
                null_ns[m][p][w] = t.elapsed().as_nanos() as f64;
                events[m][p][w] = sys.events_processed();
                let mut sys = job.build_system_with_sink(RingSink::new());
                let t = Instant::now();
                sys.run();
                ring_total += t.elapsed().as_nanos() as f64;
                null_total += null_ns[m][p][w];
                let sink = sys.into_sink();
                let t = Instant::now();
                black_box(fold(sink.events(), TRACE_BUCKET_CYCLES));
                fold_total += t.elapsed();
            }
        }
    }
    report.set("trace.ring_slowdown", ring_total / null_total, "ratio");
    report.set("trace.fold_ms", ms(fold_total), "ms");
    for (p, cores) in CORES.iter().enumerate() {
        let ns: f64 = null_ns[0][p].iter().sum();
        let ev: u64 = events[0][p].iter().sum();
        report.set(&format!("sim.ns_per_event.p{cores}"), ns / ev as f64, "ns");
    }
    for (m, name) in MODES.iter().enumerate() {
        let ns: f64 = null_ns[m].iter().flatten().sum();
        let ev: u64 = events[m].iter().flatten().sum();
        report.set(&format!("ext.{name}.ns_per_event"), ns / ev as f64, "ns");
        if m > 0 {
            let base: f64 = null_ns[0].iter().flatten().sum();
            report.set(
                &format!("ext.{name}.overhead_ns_per_event"),
                (ns - base) / ev as f64,
                "ns",
            );
        }
    }
}

/// Cold fill, cache open and all-hit re-run of 48 tiny jobs, for
/// workloads that run no cache themselves.
fn harness_probe(ctx: &Ctx, report: &mut Report) {
    let dir = ctx.tmp.join("probe-harness");
    let harness = Harness::new(
        HarnessConfig::hermetic()
            .with_workers(2)
            .with_cache_dir(dir.join("cache"))
            .with_records_dir(dir.join("records")),
    );
    let mut sweep = SweepSpec::new("probe");
    sweep.jobs = crate::churn::pool().into_iter().take(48).collect();
    let t = Instant::now();
    let cold = harness.run(&sweep);
    let cold_wall = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let opened = ResultCache::open(&dir.join("cache"));
    let open_ms = ms(t.elapsed());
    let t = Instant::now();
    let hit = harness.run(&sweep);
    let hit_wall = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    match (cold, opened, hit) {
        (Ok(cold), Ok(_), Ok(hit)) if hit.cached == sweep.len() => {
            for rec in cold.records.iter().chain(&hit.records) {
                ctx.expected.check(report, &rec.spec, &rec.stats);
            }
            let busy: u64 = cold.records.iter().map(|r| r.wall_micros).sum();
            let overhead =
                (cold_wall * 1e6 * cold.workers as f64 - busy as f64) / cold.executed.max(1) as f64;
            report.set_default("harness.cold_overhead_us_per_job", overhead, "us");
            report.set_default("harness.cache_open_ms", open_ms, "ms");
            report.set_default(
                "harness.hit_us_per_job",
                hit_wall * 1e6 / hit.cached as f64,
                "us",
            );
        }
        _ => report.fail("harness probe failed"),
    }
}

/// Ping round trips and queueing wait of a hermetic loopback server,
/// for workloads that serve nothing themselves.
fn serve_probe(ctx: &Ctx, report: &mut Report) {
    let server = match Server::start(ServerConfig::loopback()) {
        Ok(s) => s,
        Err(e) => return report.fail(format!("serve probe: {e}")),
    };
    let client = Client::new(server.addr().to_string());
    let pings: Vec<f64> = (0..200)
        .filter_map(|_| {
            let t = Instant::now();
            client.ping().ok().map(|()| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    let mut waits = Vec::new();
    for k in 0..6 {
        let s = serve::sweep(ctx.seed, k);
        let t = Instant::now();
        let got = serve::sweep_request(&client, &s);
        let latency = ms(t.elapsed());
        match (got, serve::oracle(&s)) {
            (Ok((_, lines)), Ok(o)) if lines == o.lines => {
                report.ok();
                waits.push(latency - o.wall_ms);
            }
            _ => report.fail(format!("serve probe sweep {k} failed or differs")),
        }
    }
    server.shutdown();
    if !pings.is_empty() {
        report.set_default("serve.ping_rtt_us", median(&pings), "us");
    }
    if !waits.is_empty() {
        report.set_default("serve.wait_ms", median(&waits), "ms");
    }
}

/// Prints Σ count × component cost beside each layer's measured busy
/// time, with the unexplained residual.
fn predictions(report: &mut Report, c: &Counts) {
    let get = |r: &Report, name: &str| r.metrics.get(name).map_or(0.0, |m| m.0);
    let sim_pred = c.l1_hits as f64 * get(report, "sim.cache_probe_hit_ns.w2")
        + c.l1_misses as f64 * get(report, "sim.cache_probe_miss_ns.w2")
        + c.l2_hits as f64 * get(report, "sim.cache_probe_hit_ns.w4")
        + c.l2_misses as f64 * get(report, "sim.cache_probe_miss_ns.w4")
        + c.sink.bus_grants as f64 * get(report, "sim.arbiter_grant_ns.p16");
    let sim_meas = c.run_ns - c.hook_ns as f64;
    // A secured 64-byte line is four AES blocks.
    let ext_pred = (c.sink.shu_encrypts + c.sink.shu_verifies) as f64
        * 4.0
        * get(report, "crypto.aes128_block_ns");
    let ext_meas = c.hook_ns as f64;
    let harness_pred = get(report, "harness.cache_key_us") * 1e3;
    let harness_meas = get(report, "harness.cold_overhead_us_per_job") * 1e3;
    for (layer, pred, meas, what) in [
        (
            "sim",
            sim_pred,
            sim_meas,
            "cache probes + arbiter grants vs run time minus hook time",
        ),
        (
            "ext",
            ext_pred,
            ext_meas,
            "SHU events x 4 AES blocks vs timed hook time",
        ),
        (
            "harness",
            harness_pred,
            harness_meas,
            "cache key per job vs cold overhead per job",
        ),
    ] {
        report.notes.push(format!(
            "predicted-vs-measured {layer}: predicted {:.3} ms, measured {:.3} ms, residual {:.3} ms ({:.0}% unexplained) [{what}]",
            pred / 1e6,
            meas / 1e6,
            (meas - pred) / 1e6,
            if meas > 0.0 { (meas - pred) / meas * 100.0 } else { 0.0 }
        ));
    }
}
