//! Cluster-tier integration tests: a coordinator running each job of a
//! sweep on real `senss-serve worker` child processes (spawned from the
//! built binary via `CARGO_BIN_EXE_senss-serve`).
//!
//! The acceptance bar is byte-identity: a sweep spread across ≥2
//! workers must produce exactly the JSONL a local [`Harness`] run
//! produces — including after a worker is killed mid-sweep and its job
//! is retried on a respawned process. The coordinator's own harness
//! owns the cache and the cycle budget. A worker is a filter on its
//! pipes: it answers bad lines and panicking jobs with error lines,
//! keeps serving, and exits when its coordinator goes away. Plus the
//! event-loop capacity bar: ≥512 idle connections served concurrently.

use senss_harness::json::{self, Value};
use senss_harness::{
    encode_spec, Harness, HarnessConfig, JobError, JobSpec, SecurityMode, SweepSpec, TraceSpec,
};
use senss_serve::protocol::{parse_result_line, ErrorClass, Response};
use senss_serve::{Client, ClusterConfig, Coordinator, Metrics, Server, ServerConfig, SweepState};
use senss_workloads::Workload;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The compiled `senss-serve` binary, used as the worker program.
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_senss-serve");

fn cluster_sweep(name: &str, seed: u64) -> SweepSpec {
    let mut sweep = SweepSpec::new(name);
    sweep.grid(
        &[Workload::Fft, Workload::Lu],
        &[2],
        &[1 << 20],
        &[SecurityMode::Baseline, SecurityMode::senss()],
        400,
        seed,
    );
    sweep
}

fn direct_result_lines(sweep: &SweepSpec) -> Vec<String> {
    let result = Harness::new(HarnessConfig::hermetic())
        .run(sweep)
        .expect("direct run");
    assert!(result.is_complete());
    result
        .records
        .iter()
        .map(senss_serve::protocol::result_line)
        .collect()
}

fn cluster_config(stall_ms: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(2, WORKER_BIN)
        .with_worker_arg("--quiet")
        .with_worker_timeout(Duration::from_secs(120));
    if stall_ms > 0 {
        cfg = cfg
            .with_worker_arg("--stall-ms")
            .with_worker_arg(stall_ms.to_string());
    }
    cfg
}

fn wait_done(client: &Client, id: u64, deadline: Duration) {
    let start = Instant::now();
    loop {
        let info = client.status(id).expect("status");
        match info.state {
            SweepState::Done => return,
            SweepState::Failed => panic!("sweep {id} failed: {}", info.message),
            _ => {
                assert!(
                    start.elapsed() < deadline,
                    "sweep {id} not done within {deadline:?}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn metric(server: &Server, key: &str) -> u64 {
    server
        .metrics()
        .snapshot()
        .get(key)
        .and_then(json::Value::as_u64)
        .unwrap_or_else(|| panic!("metric {key} missing from snapshot"))
}

#[test]
fn sharded_sweep_is_byte_identical_to_a_local_run() {
    let cfg = ServerConfig::loopback().with_cluster(cluster_config(0));
    let server = Server::start(cfg).expect("coordinator start");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(120));

    let sweep = cluster_sweep("sharded", 7);
    let (id, jobs) = client.submit(&sweep).expect("submit");
    assert_eq!(jobs, sweep.len() as u64);
    wait_done(&client, id, Duration::from_secs(120));

    let via_cluster = client.stream_raw(id).expect("stream");
    assert_eq!(via_cluster, direct_result_lines(&sweep));

    // Every job was dispatched once, and both workers ran some.
    assert_eq!(metric(&server, "shards_dispatched"), sweep.len() as u64);
    assert_eq!(metric(&server, "shard_retries"), 0);
    assert!(metric(&server, "worker_0_jobs") >= 1);
    assert!(metric(&server, "worker_1_jobs") >= 1);
    assert_eq!(
        metric(&server, "worker_0_jobs") + metric(&server, "worker_1_jobs"),
        sweep.len() as u64
    );
    server.shutdown();
}

#[test]
fn backend_modes_cross_the_wire_byte_identically() {
    // senss-backends modes ride the same NDJSON wire format: workers
    // decode `servas:m8`-style tags into the right extension, and the
    // merged results match a local run byte for byte.
    let cfg = ServerConfig::loopback().with_cluster(cluster_config(0));
    let server = Server::start(cfg).expect("coordinator start");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(120));

    let mut sweep = SweepSpec::new("backends-wire");
    sweep.grid(
        &[Workload::Fft],
        &[2],
        &[1 << 20],
        &[
            SecurityMode::servas(),
            SecurityMode::sealer(),
            SecurityMode::scattered(),
        ],
        300,
        3,
    );
    let (id, jobs) = client.submit(&sweep).expect("submit");
    assert_eq!(jobs, 3);
    wait_done(&client, id, Duration::from_secs(120));
    let via_cluster = client.stream_raw(id).expect("stream");
    assert_eq!(via_cluster, direct_result_lines(&sweep));
    server.shutdown();
}

#[test]
fn killed_worker_mid_sweep_retries_the_shard_byte_identically() {
    // Each job stalls 300 ms on the worker, making "mid-sweep" a wide,
    // reliable window for the kill.
    let cfg = ServerConfig::loopback().with_cluster(cluster_config(300));
    let server = Server::start(cfg).expect("coordinator start");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(120));

    let sweep = cluster_sweep("fault", 11);
    let (id, _) = client.submit(&sweep).expect("submit");

    // Open a progressive stream before the kill: retried lines must
    // flow into it exactly as if nothing had happened.
    let streamer = client.clone();
    let stream_thread = std::thread::spawn(move || streamer.stream_raw(id).expect("stream"));

    std::thread::sleep(Duration::from_millis(100));
    server.coordinator().expect("cluster mode").kill_worker(0);

    wait_done(&client, id, Duration::from_secs(120));
    let expected = direct_result_lines(&sweep);
    assert_eq!(client.stream_raw(id).expect("stream"), expected);
    assert_eq!(stream_thread.join().expect("stream thread"), expected);

    assert!(
        metric(&server, "shard_retries") >= 1,
        "kill must cost a retry"
    );
    assert!(metric(&server, "workers_respawned") >= 1);
    assert_eq!(metric(&server, "shards_dispatched"), sweep.len() as u64);
    server.shutdown();
}

#[test]
fn the_coordinator_owns_the_result_cache() {
    let dir = std::env::temp_dir().join(format!("senss-cluster-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig::loopback()
        .with_harness(HarnessConfig::hermetic().with_cache_dir(&dir))
        .with_cluster(cluster_config(0));
    let server = Server::start(cfg).expect("coordinator start");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(120));

    let sweep = cluster_sweep("owned", 5);
    let jobs = sweep.len() as u64;
    let (id, _) = client.submit(&sweep).expect("first submit");
    let first = client.stream_raw(id).expect("first stream");
    assert_eq!(metric(&server, "shards_dispatched"), jobs);

    // The second submit is served from the coordinator's cache: no job
    // reaches a worker, and not a byte of the result stream changes.
    let (id, _) = client.submit(&sweep).expect("second submit");
    let second = client.stream_raw(id).expect("second stream");
    assert_eq!(second, first);
    assert_eq!(first, direct_result_lines(&sweep));
    assert_eq!(metric(&server, "shards_dispatched"), jobs);
    assert_eq!(metric(&server, "jobs_cached"), jobs);
    server.shutdown();

    // One writer: the coordinator's cache holds one line per job.
    let cache = std::fs::read_to_string(dir.join(senss_harness::cache::CACHE_FILE))
        .expect("coordinator cache file");
    assert_eq!(cache.lines().count() as u64, jobs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_coordinator_applies_its_cycle_budget() {
    let cfg = ServerConfig::loopback()
        .with_harness(HarnessConfig::hermetic().with_cycle_budget(1))
        .with_cluster(cluster_config(0));
    let server = Server::start(cfg).expect("coordinator start");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(120));

    let sweep = cluster_sweep("budget", 3);
    let (id, _) = client.submit(&sweep).expect("submit");
    assert!(client.stream_raw(id).expect("stream").is_empty());
    let info = client.status(id).expect("status");
    assert_eq!(info.state, SweepState::Done);
    assert_eq!(info.failures, sweep.len() as u64);
    assert_eq!(metric(&server, "jobs_failed"), sweep.len() as u64);
    server.shutdown();
}

/// A job the simulator cannot build: 3 MiB is not a power-of-two L2.
/// `decode_spec` refuses it, and a harness fails it without running it.
fn bad_l2_job() -> JobSpec {
    JobSpec::new(Workload::Fft, 2, 3 << 20).with_ops(100)
}

/// A job that gets a cache key but panics when it runs: the
/// false-sharing micro-trace is a 2-core scenario.
fn bad_trace_job() -> JobSpec {
    JobSpec::new(TraceSpec::FalseSharing, 4, 1 << 20).with_ops(100)
}

fn spec_line(job: &JobSpec) -> String {
    Value::Obj(encode_spec(job)).encode()
}

/// A worker process driven directly through its pipes.
fn spawn_worker() -> (Child, ChildStdin, impl FnMut() -> String) {
    let mut child = Command::new(WORKER_BIN)
        .args(["worker", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    let stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let next_line = move || {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("worker reply");
        line.trim_end().to_string()
    };
    (child, stdin, next_line)
}

fn error_frame(line: &str) -> (ErrorClass, String) {
    match Response::decode(line) {
        Ok(Response::Error { class, message, .. }) => (class, message),
        other => panic!("expected an error frame, got {other:?} from {line:?}"),
    }
}

#[test]
fn a_worker_exits_when_its_stdin_closes() {
    let (mut child, mut stdin, mut next_line) = spawn_worker();
    assert_eq!(next_line(), senss_serve::worker::hello());

    let job = cluster_sweep("one", 9).jobs[0];
    writeln!(stdin, "{}", spec_line(&job)).unwrap();
    let reply = parse_result_line(&next_line()).expect("result line");
    assert_eq!(reply.spec, job);
    assert_eq!(reply.stats, job.run());

    // The coordinator holding the other end is gone.
    drop(stdin);
    let start = Instant::now();
    while child.try_wait().expect("try_wait").is_none() {
        if start.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("worker outlived its stdin by 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_worker_answers_bad_lines_and_panics_and_keeps_serving() {
    let (mut child, mut stdin, mut next_line) = spawn_worker();
    assert_eq!(next_line(), senss_serve::worker::hello());

    writeln!(stdin, "{{\"trace\":\"fft\"").unwrap();
    assert_eq!(error_frame(&next_line()).0, ErrorClass::Malformed);

    writeln!(stdin, "{}", spec_line(&bad_l2_job())).unwrap();
    assert_eq!(error_frame(&next_line()).0, ErrorClass::Malformed);

    writeln!(stdin, "{}", spec_line(&bad_trace_job())).unwrap();
    let (class, message) = error_frame(&next_line());
    assert_eq!(class, ErrorClass::Internal);
    assert!(message.contains("2-core scenario"), "{message}");

    writeln!(
        stdin,
        "{}",
        "x".repeat(senss_serve::worker::MAX_JOB_LINE + 1)
    )
    .unwrap();
    assert_eq!(error_frame(&next_line()).0, ErrorClass::Malformed);

    let job = cluster_sweep("after", 2).jobs[1];
    writeln!(stdin, "{}", spec_line(&job)).unwrap();
    assert_eq!(
        parse_result_line(&next_line()).expect("result line").stats,
        job.run()
    );

    drop(stdin);
    assert!(child.wait().expect("worker exit").success());
}

#[test]
fn a_job_that_panics_on_a_worker_fails_alone_with_its_message() {
    let metrics = Arc::new(Metrics::with_workers(2));
    let coordinator = Coordinator::start(cluster_config(0), Arc::clone(&metrics), true)
        .expect("coordinator start");
    let mut sweep = cluster_sweep("panics", 4);
    let bad = bad_trace_job();
    sweep.push(bad);
    let result = Harness::new(HarnessConfig::hermetic().with_workers(2))
        .run_with(&sweep, |job| coordinator.run_job(job))
        .expect("sweep");

    assert_eq!(result.records.len(), sweep.len() - 1);
    assert_eq!(result.failures.len(), 1);
    assert_eq!(result.failures[0].spec, bad);
    // A panic is the job's fault, not the worker's: nothing is retried.
    assert_eq!(metrics.shard_retries.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.workers_respawned.load(Ordering::Relaxed), 0);
    let local = Harness::new(HarnessConfig::hermetic())
        .run(&SweepSpec {
            name: String::new(),
            jobs: vec![bad],
        })
        .expect("local run");
    let JobError::Panicked(want) = &local.failures[0].error else {
        panic!(
            "local failure is not a panic: {:?}",
            local.failures[0].error
        );
    };
    match &result.failures[0].error {
        JobError::Panicked(got) => assert!(got.contains(want.as_str()), "{got:?} lacks {want:?}"),
        other => panic!("expected a panic, got {other:?}"),
    }
    let lines: Vec<String> = result
        .records
        .iter()
        .map(senss_serve::protocol::result_line)
        .collect();
    let mut good = sweep.clone();
    good.jobs.pop();
    assert_eq!(lines, direct_result_lines(&good));
}

#[test]
fn a_program_that_is_not_a_worker_fails_the_start() {
    let cfg = ServerConfig::loopback().with_cluster(ClusterConfig::new(1, "true"));
    let err = Server::start(cfg).expect_err("`true` prints no hello line");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
}

#[test]
fn hundreds_of_idle_connections_are_served_concurrently() {
    let mut cfg = ServerConfig::loopback();
    // Idle reclaim must not race the test itself.
    cfg.read_timeout = Duration::from_secs(60);
    let server = Server::start(cfg).expect("server start");
    let addr = server.addr();

    const IDLE: usize = 512;
    let mut idle: Vec<TcpStream> = (0..IDLE)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();

    // With all of them parked, a working client still gets full service.
    let client = Client::new(addr.to_string()).with_timeout(Duration::from_secs(60));
    let sweep = cluster_sweep("busy", 13);
    let (id, _) = client.submit(&sweep).expect("submit");
    wait_done(&client, id, Duration::from_secs(60));
    assert_eq!(
        client.stream_raw(id).expect("stream"),
        direct_result_lines(&sweep)
    );

    assert!(
        metric(&server, "connections_open") >= IDLE as u64,
        "all idle connections should still be open"
    );

    // And every parked connection is still live: each one answers a
    // ping on the shared event loop.
    for (i, conn) in idle.iter_mut().enumerate() {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        writeln!(conn, r#"{{"v":1,"type":"ping"}}"#).unwrap_or_else(|e| panic!("write {i}: {e}"));
        let mut line = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("read {i}: {e}"));
        assert!(line.contains(r#""type":"pong""#), "conn {i} got: {line}");
    }
    server.shutdown();
}
