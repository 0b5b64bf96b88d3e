//! Loopback integration tests: the acceptance criteria of the serving
//! subsystem.
//!
//! * ≥8 concurrent clients drive full submit→status→results cycles and
//!   every byte matches a direct [`Harness`] run of the same spec;
//! * a full queue rejects with the retriable `overloaded` error instead
//!   of hanging, and the server keeps serving;
//! * malformed frames get structured error replies without killing the
//!   connection or the process;
//! * the metrics snapshot reflects the traffic;
//! * shutdown drains the queue before exiting.

use senss_harness::{Harness, HarnessConfig, JobSpec, SecurityMode, SweepSpec};
use senss_serve::protocol::{self, Request, Response};
use senss_serve::{Client, ClientError, ErrorClass, Server, ServerConfig, SweepState};
use senss_sim::Stats;
use senss_workloads::Workload;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_sweep(name: &str, seed: u64) -> SweepSpec {
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
    result.records.iter().map(protocol::result_line).collect()
}

#[test]
fn concurrent_clients_get_byte_identical_results() {
    let server = Server::start(ServerConfig::loopback()).unwrap();
    let addr = server.addr().to_string();

    const CLIENTS: usize = 8;
    let mut threads = Vec::new();
    for i in 0..CLIENTS {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            // Distinct seeds so every client's sweep (and result bytes)
            // differ; identical bytes across clients would mask mixups.
            let sweep = small_sweep(&format!("conc-{i}"), 100 + i as u64);
            let client = Client::new(&addr).with_timeout(Duration::from_secs(30));
            let (id, jobs) = client.submit(&sweep).expect("submit");
            assert_eq!(jobs, sweep.len() as u64);
            // Full cycle: poll status until done, then stream results.
            loop {
                let info = client.status(id).expect("status");
                assert_eq!(info.jobs, sweep.len() as u64);
                match info.state {
                    SweepState::Done => break,
                    SweepState::Failed => panic!("sweep failed: {}", info.message),
                    _ => std::thread::sleep(Duration::from_millis(20)),
                }
            }
            let remote = client.results_raw(id).expect("results");
            (sweep, remote)
        }));
    }
    for t in threads {
        let (sweep, remote) = t.join().expect("client thread");
        assert_eq!(
            remote,
            direct_result_lines(&sweep),
            "served results must be byte-identical to a direct harness run"
        );
    }

    let m = server.metrics().snapshot();
    let get = |k: &str| m.get(k).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(get("sweeps_completed"), CLIENTS as u64);
    assert_eq!(get("jobs_executed"), (CLIENTS * 4) as u64);
    assert!(get("requests_total") >= (CLIENTS * 3) as u64);
    assert_eq!(get("queue_depth"), 0);
    server.shutdown();
}

#[test]
fn parsed_results_match_direct_stats() {
    let server = Server::start(ServerConfig::loopback()).unwrap();
    let client = Client::new(server.addr().to_string());
    let sweep = small_sweep("parsed", 7);
    let results = client.run(&sweep).expect("run");
    let direct = Harness::new(HarnessConfig::hermetic()).run(&sweep).unwrap();
    assert_eq!(results.len(), direct.records.len());
    for (got, want) in results.iter().zip(&direct.records) {
        assert_eq!(got.spec, want.spec);
        assert_eq!(got.key, want.key);
        assert_eq!(got.stats, want.stats);
    }
    server.shutdown();
}

#[test]
fn overloaded_queue_rejects_retriably_and_keeps_serving() {
    // A runner that blocks until released keeps the executor busy on
    // the first sweep, so the queue fills deterministically.
    let release = Arc::new(AtomicBool::new(false));
    let runner_release = Arc::clone(&release);
    let cfg = ServerConfig::loopback()
        .with_queue_capacity(1)
        .with_runner(Arc::new(move |_spec: &JobSpec| {
            while !runner_release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Stats {
                total_cycles: 1,
                ..Stats::default()
            }
        }));
    let server = Server::start(cfg).unwrap();
    let client = Client::new(server.addr().to_string()).with_retry(0, Duration::from_millis(1));

    let one_job = |name: &str| {
        let mut s = SweepSpec::new(name);
        s.push(JobSpec::new(Workload::Fft, 2, 1 << 20).with_ops(100));
        s
    };
    // First sweep: picked up by the executor (blocked in the runner).
    let (running_id, _) = client.submit(&one_job("running")).expect("first submit");
    // Wait until it leaves the queue so capacity accounting is exact.
    loop {
        if client.status(running_id).unwrap().state == SweepState::Running {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Second sweep: fills the queue (capacity 1).
    let (queued_id, _) = client.submit(&one_job("queued")).expect("second submit");
    // Third sweep: must be rejected retriably — not block, not hang.
    match client.submit_once(&one_job("rejected")) {
        Err(ClientError::Server {
            class: ErrorClass::Overloaded,
            retriable: true,
            ..
        }) => {}
        other => panic!("expected retriable overloaded, got {other:?}"),
    }
    // The server keeps serving after shedding load.
    client.ping().expect("ping after overload");
    let m = client.metrics().expect("metrics after overload");
    assert_eq!(m.get("errors_overloaded").unwrap().as_u64(), Some(1));
    assert_eq!(m.get("queue_depth").unwrap().as_u64(), Some(1));
    assert_eq!(m.get("queue_depth_max").unwrap().as_u64(), Some(1));

    // Release the runner; both accepted sweeps must finish.
    release.store(true, Ordering::SeqCst);
    for id in [running_id, queued_id] {
        loop {
            match client.status(id).unwrap().state {
                SweepState::Done => break,
                SweepState::Failed => panic!("sweep {id} failed"),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
    server.shutdown();
}

#[test]
fn malformed_frames_get_structured_errors_and_connection_survives() {
    let server = Server::start(ServerConfig::loopback()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut exchange = |line: &str| -> Response {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::decode(reply.trim()).expect("parseable reply")
    };

    // Garbage, wrong shape, unknown type, wrong version, nesting deep
    // enough to overflow a recursive parser's stack: each answered with
    // a structured error on the SAME connection.
    let deep = "[".repeat(200_000);
    for (frame, class) in [
        ("this is not json", ErrorClass::Malformed),
        ("{\"v\":1}", ErrorClass::Malformed),
        ("{\"v\":1,\"type\":\"frobnicate\"}", ErrorClass::Malformed),
        (
            "{\"v\":99,\"type\":\"ping\"}",
            ErrorClass::UnsupportedVersion,
        ),
        (
            "{\"v\":1,\"type\":\"submit\",\"jobs\":[{\"trace\":\"nope\"}]}",
            ErrorClass::Malformed,
        ),
        (deep.as_str(), ErrorClass::Malformed),
    ] {
        match exchange(frame) {
            Response::Error {
                class: got,
                retriable,
                ..
            } => {
                assert_eq!(got, class, "frame {frame:?}");
                assert!(!retriable);
            }
            other => panic!("expected error for {frame:?}, got {other:?}"),
        }
    }

    // The connection still works for a valid request afterwards.
    match exchange(&Request::Ping.encode()) {
        Response::Pong => {}
        other => panic!("expected pong, got {other:?}"),
    }
    drop(writer);
    drop(reader);

    // And the process still serves other clients.
    let client = Client::new(server.addr().to_string());
    client.ping().expect("server survived malformed frames");
    let m = client.metrics().unwrap();
    assert_eq!(m.get("errors_malformed").unwrap().as_u64(), Some(5));
    assert_eq!(
        m.get("errors_unsupported_version").unwrap().as_u64(),
        Some(1)
    );
    server.shutdown();
}

#[test]
fn sweep_names_that_leave_the_records_directory_are_malformed() {
    // The server writes `<records_dir>/<name>.jsonl`; an absolute or
    // parent-relative name would replace or climb out of that directory.
    let server = Server::start(ServerConfig::loopback()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut exchange = |line: &str| -> Response {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::decode(reply.trim()).expect("parseable reply")
    };
    for name in ["/tmp/escape", "../../escape", "a/b"] {
        let mut sweep = small_sweep("", 1);
        sweep.name = name.to_string();
        let frame = Request::Submit { sweep }.encode();
        match exchange(&frame) {
            Response::Error {
                class, retriable, ..
            } => {
                assert_eq!(class, ErrorClass::Malformed, "name {name:?}");
                assert!(!retriable);
            }
            other => panic!("expected malformed for {name:?}, got {other:?}"),
        }
    }
    match exchange(&Request::Ping.encode()) {
        Response::Pong => {}
        other => panic!("expected pong, got {other:?}"),
    }
    let m = server.metrics().snapshot();
    assert_eq!(m.get("sweeps_submitted").and_then(|v| v.as_u64()), Some(0));
    server.shutdown();
}

#[test]
fn a_bogus_results_count_is_a_protocol_error_not_an_allocation() {
    // A peer that promises u64::MAX result lines and then hangs up must
    // not make the client preallocate for them.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut request = String::new();
        reader.read_line(&mut request).unwrap();
        let mut writer = stream;
        writeln!(
            writer,
            "{{\"type\":\"results\",\"id\":0,\"count\":18446744073709551615}}"
        )
        .unwrap();
    });
    let client = Client::new(addr.to_string());
    match client.results_raw(0) {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    peer.join().unwrap();
}

#[test]
fn unknown_ids_and_unfinished_sweeps_are_classified() {
    let server = Server::start(ServerConfig::loopback()).unwrap();
    let client = Client::new(server.addr().to_string());
    match client.status(12345) {
        Err(ClientError::Server {
            class: ErrorClass::NotFound,
            retriable: false,
            ..
        }) => {}
        other => panic!("expected not_found, got {other:?}"),
    }
    match client.results(12345) {
        Err(ClientError::Server {
            class: ErrorClass::NotFound,
            ..
        }) => {}
        other => panic!("expected not_found, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn trace_requests_derive_metrics_and_classify_errors() {
    let server = Server::start(ServerConfig::loopback()).unwrap();
    let client = Client::new(server.addr().to_string());

    // Unknown sweep id.
    match client.trace(999, 0) {
        Err(ClientError::Server {
            class: ErrorClass::NotFound,
            retriable: false,
            ..
        }) => {}
        other => panic!("expected not_found for unknown id, got {other:?}"),
    }

    let sweep = small_sweep("traced", 21);
    let (id, _) = client.submit(&sweep).expect("submit");
    loop {
        match client.status(id).expect("status").state {
            SweepState::Done => break,
            SweepState::Failed => panic!("sweep failed"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let results = client.results(id).expect("results");

    // The derived metrics carry the schema tag and tie out against the
    // stats the server already returned for the same job.
    let derived = client.trace(id, 0).expect("trace");
    assert_eq!(
        derived.get("schema").and_then(|v| v.as_str()),
        Some("senss.trace.derived.v1")
    );
    assert_eq!(
        derived.get("bus_busy_cycles").and_then(|v| v.as_u64()),
        Some(results[0].stats.bus_busy_cycles),
        "traced re-run must reproduce the recorded bus occupancy"
    );
    assert!(
        derived
            .get("total_transactions")
            .and_then(|v| v.as_u64())
            .unwrap()
            > 0
    );
    assert!(derived.get("txns").is_some());

    // Index past the end of the sweep.
    match client.trace(id, sweep.len() as u64) {
        Err(ClientError::Server {
            class: ErrorClass::NotFound,
            ..
        }) => {}
        other => panic!("expected not_found for bad index, got {other:?}"),
    }

    let m = client.metrics().unwrap();
    assert_eq!(m.get("requests_trace").unwrap().as_u64(), Some(3));
    server.shutdown();
}

#[test]
fn repeat_traces_are_byte_identical() {
    let server = Server::start(ServerConfig::loopback()).unwrap();
    let client = Client::new(server.addr().to_string());
    let mut sweep = SweepSpec::new("retraced");
    sweep.push(
        JobSpec::new(Workload::Fft, 2, 1 << 20)
            .with_ops(400)
            .with_mode(SecurityMode::senss()),
    );
    let (id, _) = client.submit(&sweep).expect("submit");
    loop {
        match client.status(id).expect("status").state {
            SweepState::Done => break,
            SweepState::Failed => panic!("sweep failed"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    // Every trace re-simulates the job from cycle 0; determinism makes
    // the responses indistinguishable.
    let first = client.trace(id, 0).expect("first trace");
    let second = client.trace(id, 0).expect("second trace");
    assert_eq!(
        second.encode(),
        first.encode(),
        "a repeat trace must be byte-identical to the first"
    );
    let third = client.trace(id, 0).expect("third trace");
    assert_eq!(third.encode(), first.encode());
    server.shutdown();
}

#[test]
fn corrupt_cache_lines_surface_in_metrics() {
    // Pre-damage the result cache: the harness must skip the corrupt
    // lines (re-executing those jobs) and the server must surface the
    // skip count through the metrics response.
    let dir =
        std::env::temp_dir().join(format!("senss-serve-corrupt-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("cache.jsonl"),
        "not json at all\n{\"key\":\"half\n{\"key\":\"x\",\"stats\":{\"total_cycles\":1.5}}\n",
    )
    .unwrap();
    let cfg = ServerConfig::loopback().with_harness(
        HarnessConfig::hermetic()
            .with_workers(2)
            .with_cache_dir(&dir),
    );
    let server = Server::start(cfg).unwrap();
    let client = Client::new(server.addr().to_string());
    // Two different sweeps: the cache is read once, so its corrupt
    // lines are counted once, not once per sweep.
    for (name, seed) in [("damaged-cache", 11), ("damaged-cache-2", 12)] {
        client.run(&small_sweep(name, seed)).expect("run");
    }

    let m = client.metrics().unwrap();
    assert_eq!(
        m.get("cache_lines_skipped").and_then(|v| v.as_u64()),
        Some(3),
        "all three corrupt lines must be reported, once"
    );
    assert_eq!(m.get("sweeps_completed").and_then(|v| v.as_u64()), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
    server.shutdown();
}

#[test]
fn trace_of_an_unfinished_sweep_is_retriably_not_ready() {
    // A runner that blocks until released pins the sweep in Running, so
    // the trace request deterministically observes an unfinished sweep.
    let release = Arc::new(AtomicBool::new(false));
    let runner_release = Arc::clone(&release);
    let cfg = ServerConfig::loopback().with_runner(Arc::new(move |_spec: &JobSpec| {
        while !runner_release.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        Stats::default()
    }));
    let server = Server::start(cfg).unwrap();
    let client = Client::new(server.addr().to_string());
    let mut sweep = SweepSpec::new("pinned");
    sweep.push(JobSpec::new(Workload::Fft, 2, 1 << 20).with_ops(100));
    let (id, _) = client.submit(&sweep).expect("submit");
    match client.trace(id, 0) {
        Err(ClientError::Server {
            class: ErrorClass::NotReady,
            retriable: true,
            ..
        }) => {}
        other => panic!("expected retriable not_ready, got {other:?}"),
    }
    release.store(true, Ordering::SeqCst);
    server.shutdown();
}

#[test]
fn metrics_reflect_traffic_including_cache_hits() {
    // A cache-enabled harness in a temp dir: resubmitting the same
    // sweep must be served from the cache, visible in the metrics.
    let dir = std::env::temp_dir().join(format!("senss-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig::loopback().with_harness(
        HarnessConfig::hermetic()
            .with_workers(2)
            .with_cache_dir(&dir),
    );
    let server = Server::start(cfg).unwrap();
    let client = Client::new(server.addr().to_string());
    let sweep = small_sweep("cachehit", 3);

    let first = client.run(&sweep).expect("first");
    let second = client.run(&sweep).expect("second");
    assert_eq!(first, second, "cache-served results must be identical");

    let m = client.metrics().unwrap();
    let get = |k: &str| m.get(k).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(get("sweeps_submitted"), 2);
    assert_eq!(get("sweeps_completed"), 2);
    assert_eq!(get("jobs_executed"), 4, "first submission executes");
    assert_eq!(get("jobs_cached"), 4, "second submission is cache-served");
    // `run` waits by streaming: no status polls, no results fetch.
    assert_eq!(get("requests_submit"), 2);
    assert_eq!(get("requests_stream"), 2);
    assert_eq!(get("requests_status"), 0);
    assert_eq!(get("requests_results"), 0);
    assert!(get("connections_total") > 0);
    let lat = m.get("latency_micros").unwrap();
    // The in-flight metrics request is counted in requests_total but
    // its latency lands only after this snapshot is written, hence -1.
    assert!(
        lat.get("count").unwrap().as_u64().unwrap() >= get("requests_total") - 1,
        "every dispatched request is observed in the latency histogram"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_queued_sweeps_before_exit() {
    let server = Server::start(ServerConfig::loopback()).unwrap();
    let metrics = server.metrics_handle();
    let client = Client::new(server.addr().to_string());
    let (_, jobs) = client.submit(&small_sweep("drain", 11)).expect("submit");
    assert_eq!(jobs, 4);
    client.shutdown().expect("shutdown ack");
    // Join returns only after the drain, so by now the queued sweep
    // must have run to completion (the registry outlives the sockets).
    server.join();
    assert_eq!(
        metrics
            .sweeps_completed
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "drain-then-exit must finish the queued sweep"
    );
    assert_eq!(
        metrics
            .queue_depth
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
}

#[test]
fn submits_after_shutdown_are_refused() {
    let server = Server::start(ServerConfig::loopback()).unwrap();
    let addr = server.addr();
    let client = Client::new(addr.to_string());
    client.shutdown().expect("shutdown ack");
    // A submit racing the drain either gets the shutting_down error or
    // can no longer connect — both are acceptable refusals; what must
    // never happen is acceptance.
    match client.submit_once(&small_sweep("late", 1)) {
        Err(ClientError::Server {
            class: ErrorClass::ShuttingDown,
            ..
        }) => {}
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        Ok(other) => panic!("late submit must be refused, got {other:?}"),
        Err(e) => panic!("unexpected error {e}"),
    }
    server.join();
}

#[test]
fn stream_attached_mid_run_is_byte_identical_to_results() {
    // Slow every job down so the stream demonstrably attaches before
    // the sweep finishes; the wrapped runner leaves result bytes
    // untouched.
    let cfg = ServerConfig::loopback().with_runner(Arc::new(|job: &JobSpec| {
        std::thread::sleep(Duration::from_millis(50));
        job.run()
    }));
    let server = Server::start(cfg).unwrap();
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));

    let sweep = small_sweep("streamed", 17);
    let (id, _) = client.submit(&sweep).expect("submit");
    let info = client.status(id).expect("status");
    assert!(
        matches!(info.state, SweepState::Queued | SweepState::Running),
        "stream must attach before completion, but sweep is {:?}",
        info.state
    );
    // Blocks until the server's end trailer, receiving each line as its
    // job completes.
    let streamed = client.stream_raw(id).expect("stream");

    assert_eq!(streamed, direct_result_lines(&sweep));
    assert_eq!(streamed, client.results_raw(id).expect("results"));
    let snapshot = client.metrics().expect("metrics");
    assert_eq!(
        snapshot
            .get("requests_stream")
            .and_then(senss_harness::json::Value::as_u64),
        Some(1)
    );
    server.shutdown();
}

#[test]
fn connections_beyond_the_cap_are_shed_with_overloaded() {
    let cfg = ServerConfig::loopback().with_max_conns(2);
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // Fill the two slots and prove they are registered (served a ping).
    let mut held = Vec::new();
    for i in 0..2 {
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut writer = BufWriter::new(conn.try_clone().unwrap());
        writeln!(writer, r#"{{"v":1,"type":"ping"}}"#).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("pong"), "conn {i} got: {line}");
        held.push(conn);
    }

    // The third is shed with a structured, retriable overloaded error —
    // not a silent reset.
    let extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(extra.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::decode(line.trim()) {
        Ok(Response::Error {
            class: ErrorClass::Overloaded,
            retriable: true,
            ..
        }) => {}
        other => panic!("expected an overloaded shed frame, got {other:?} ({line:?})"),
    }

    // The held connections keep working; freeing one admits new peers.
    drop(held.pop());
    let client = Client::new(addr.to_string()).with_timeout(Duration::from_secs(10));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match client.ping() {
            Ok(()) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("freed slot never became usable: {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn completions_wake_the_event_loop_at_once() {
    // Every reply here waits on another thread: a stream on the
    // executor's lines, a trace on a trace thread. A loop that noticed
    // them only on a timer would add up to one period to each of these
    // thirty round trips.
    let cfg = ServerConfig::loopback().with_runner(Arc::new(|_: &JobSpec| Stats {
        total_cycles: 1,
        ..Stats::default()
    }));
    let server = Server::start(cfg).unwrap();
    let client = Client::new(server.addr().to_string());
    let job = JobSpec::new(Workload::Fft, 2, 1 << 20).with_ops(100);
    let median = |mut v: Vec<Duration>| {
        v.sort();
        v[v.len() / 2]
    };
    let mut id = 0;
    let mut round_trips = Vec::new();
    for seed in 0..20 {
        let mut sweep = SweepSpec::new(&format!("wake-{seed}"));
        sweep.push(job.with_seed(seed));
        let started = Instant::now();
        id = client.submit(&sweep).expect("submit").0;
        assert_eq!(client.stream_raw(id).expect("stream").len(), 1);
        round_trips.push(started.elapsed());
    }
    let mut traces = Vec::new();
    for _ in 0..10 {
        let started = Instant::now();
        client.trace(id, 0).expect("trace");
        traces.push(started.elapsed());
    }
    // Medians, so a test run in parallel with heavier ones can lose a
    // few round trips to the scheduler without failing.
    let (round_trip, trace) = (median(round_trips), median(traces));
    assert!(
        round_trip < Duration::from_millis(10) && trace < Duration::from_millis(10),
        "median submit+stream {round_trip:?}, median trace {trace:?}"
    );
    server.shutdown();
}

#[test]
fn idle_connections_are_reclaimed_at_their_deadline() {
    // With nothing else happening, only the idle deadline can end the
    // loop's wait; a `poll` left without a timeout would hold the
    // connection open forever.
    let mut cfg = ServerConfig::loopback();
    cfg.read_timeout = Duration::from_millis(300);
    let server = Server::start(cfg).unwrap();
    let started = Instant::now();
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut byte = [0u8; 1];
    assert_eq!(idle.read(&mut byte).unwrap(), 0, "expected EOF");
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(250) && waited < Duration::from_secs(3),
        "idle connection closed after {waited:?}"
    );
    let deadline = Instant::now() + Duration::from_secs(1);
    while server.metrics().connections_open.load(Ordering::Relaxed) != 0 {
        assert!(
            Instant::now() < deadline,
            "connections_open never fell to 0"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}

#[test]
fn streams_past_the_write_high_water_mark_finish_and_pipeline() {
    // Loopback takes a whole high-water mark (256 KiB) of output in one
    // write, so no socket event follows it: the loop itself must carry
    // on with the rest of the stream, its `end` trailer and the frames
    // pipelined behind it.
    const JOBS: u64 = 600;
    let cfg = ServerConfig::loopback().with_runner(Arc::new(|_: &JobSpec| Stats {
        total_cycles: 1,
        core_ops: vec![u64::MAX; 64],
        ..Stats::default()
    }));
    let server = Server::start(cfg).unwrap();
    let mut sweep = SweepSpec::new("high-water");
    let job = JobSpec::new(Workload::Fft, 2, 1 << 20).with_ops(100);
    for seed in 0..JOBS {
        sweep.push(job.with_seed(seed));
    }
    let client = Client::new(server.addr().to_string());
    let id = client.submit(&sweep).expect("submit").0;
    let streamed = client.stream_raw(id).expect("stream");
    assert_eq!(streamed.len() as u64, JOBS);
    let bytes: usize = streamed.iter().map(|l| l.len() + 1).sum();
    assert!(bytes > 2 * 256 * 1024, "only {bytes} bytes of results");

    // Two reads of the finished sweep and a ping, in one write.
    let conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let frames = [
        Request::Stream { id }.encode(),
        Request::Results { id }.encode(),
        Request::Ping.encode(),
    ];
    (&conn)
        .write_all(format!("{}\n", frames.join("\n")).as_bytes())
        .unwrap();
    let mut reader = BufReader::new(conn);
    let mut next = || {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("reply before the timeout");
        line.trim_end().to_string()
    };
    for stream in [true, false] {
        let header = Response::decode(&next());
        let expected = if stream {
            matches!(header, Ok(Response::StreamHeader { jobs: JOBS, .. }))
        } else {
            matches!(header, Ok(Response::ResultsHeader { count: JOBS, .. }))
        };
        assert!(expected, "unexpected header {header:?}");
        for line in &streamed {
            assert_eq!(&next(), line);
        }
        assert!(matches!(
            Response::decode(&next()),
            Ok(Response::End { count: JOBS, .. })
        ));
    }
    assert!(matches!(Response::decode(&next()), Ok(Response::Pong)));
    server.shutdown();
}
