//! The versioned newline-delimited JSON wire format.
//!
//! Every frame is one JSON object on one line. Requests carry a `"v"`
//! protocol-version field and a `"type"` discriminator; responses carry
//! `"type"` alone (the version is negotiated per request, not per
//! connection, so a single socket can outlive a protocol bump).
//!
//! Frame inventory:
//!
//! | direction | `type` | meaning |
//! |---|---|---|
//! | → | `submit` | enqueue a [`SweepSpec`] for execution |
//! | → | `status` | query a submitted sweep's state |
//! | → | `stream` | stream a sweep's results progressively, while it runs |
//! | → | `trace` | derive trace metrics for one job of a finished sweep |
//! | → | `metrics` | snapshot the server's metrics registry |
//! | → | `ping` | liveness probe |
//! | → | `shutdown` | drain the job queue, then exit |
//! | ← | `submitted`, `status`, `stream`, `record`…, `end`, `trace`, `metrics`, `pong`, `shutting_down` | success frames |
//! | ← | `error` | structured failure (`class`, `retriable`, `message`) |
//!
//! A `stream` reply is the only multi-line exchange: a header frame,
//! then [`result_line`] frames, then one `end` frame. It accepts a
//! sweep in any live state and ships each record line as the job
//! completes, **in index order** (line for index `i` is held until
//! every line below `i` has shipped, so the concatenation is always a
//! prefix of the final JSONL); on a finished sweep it ships every line
//! at once. Result lines
//! are **deterministic**: they carry the job's identity
//! ([`encode_spec`] fields + cache key) and its full [`Stats`], and
//! deliberately omit wall time, worker id and cache
//! provenance — so the bytes a client receives are identical to a
//! local [`Harness`](senss_harness::Harness) run of the same spec.
//!
//! A cluster worker ([`crate::worker`]) speaks a subset on its pipes:
//! [`encode_spec`] lines in, [`result_line`] or `error` frames out.
//!
//! See `docs/serving.md` for the prose reference.

use senss_harness::json::{self, Value};
use senss_harness::record::{decode_stats, encode_stats};
use senss_harness::{decode_spec, encode_spec, JobSpec, RunRecord, SweepSpec};
use senss_sim::Stats;

/// The wire-format version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Longest sweep name a `submit` may carry, in bytes. The name becomes
/// a file name (`<name>.jsonl` under the records directory), and this
/// leaves room for the extension under any file-system name limit.
const MAX_SWEEP_NAME: usize = 100;

/// Whether `name` may name a sweep: empty (no run-record file), or
/// `[A-Za-z0-9._-]` not starting with `.` and at most
/// [`MAX_SWEEP_NAME`] bytes. A name is joined onto the records
/// directory, so anything that could leave it (`/`, `\`, `..`, an
/// absolute path) is refused.
fn valid_sweep_name(name: &str) -> bool {
    name.len() <= MAX_SWEEP_NAME
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Classes of structured server-side failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// The frame was not parseable as a known request.
    Malformed,
    /// The request named a protocol version this server does not speak.
    UnsupportedVersion,
    /// The job queue is full; retry with backoff.
    Overloaded,
    /// The referenced sweep id is unknown.
    NotFound,
    /// The sweep exists but has not finished yet; `stream` waits for it.
    NotReady,
    /// The server is draining and no longer accepts new work.
    ShuttingDown,
    /// The sweep executed but failed server-side (e.g. cache I/O).
    Internal,
}

impl ErrorClass {
    /// All classes, for metrics enumeration.
    pub const ALL: [ErrorClass; 7] = [
        ErrorClass::Malformed,
        ErrorClass::UnsupportedVersion,
        ErrorClass::Overloaded,
        ErrorClass::NotFound,
        ErrorClass::NotReady,
        ErrorClass::ShuttingDown,
        ErrorClass::Internal,
    ];

    /// Canonical wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorClass::Malformed => "malformed",
            ErrorClass::UnsupportedVersion => "unsupported_version",
            ErrorClass::Overloaded => "overloaded",
            ErrorClass::NotFound => "not_found",
            ErrorClass::NotReady => "not_ready",
            ErrorClass::ShuttingDown => "shutting_down",
            ErrorClass::Internal => "internal",
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: &str) -> Option<ErrorClass> {
        ErrorClass::ALL.into_iter().find(|c| c.tag() == tag)
    }

    /// Whether a later retry of the same request could succeed.
    /// `overloaded` and `not_ready` are transient by construction;
    /// everything else reflects the request or the server's fate.
    pub fn retriable(self) -> bool {
        matches!(self, ErrorClass::Overloaded | ErrorClass::NotReady)
    }
}

/// Lifecycle state of a submitted sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepState {
    /// Accepted, waiting in the bounded job queue.
    Queued,
    /// Currently executing on the harness.
    Running,
    /// Finished; results are streamable.
    Done,
    /// Executed but failed server-side; see the status message.
    Failed,
}

impl SweepState {
    /// Canonical wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            SweepState::Queued => "queued",
            SweepState::Running => "running",
            SweepState::Done => "done",
            SweepState::Failed => "failed",
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: &str) -> Option<SweepState> {
        [
            SweepState::Queued,
            SweepState::Running,
            SweepState::Done,
            SweepState::Failed,
        ]
        .into_iter()
        .find(|s| s.tag() == tag)
    }
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a sweep.
    Submit {
        /// The sweep to run.
        sweep: SweepSpec,
    },
    /// Query a sweep's state.
    Status {
        /// Server-assigned sweep id.
        id: u64,
    },
    /// Stream a sweep's results progressively: record lines ship in
    /// index order as jobs complete, without waiting for the sweep.
    Stream {
        /// Server-assigned sweep id.
        id: u64,
    },
    /// Derive trace metrics for one job of a finished sweep. The server
    /// re-runs the (deterministic) job with a trace sink and folds the
    /// event stream; the sweep's cached stats are untouched.
    Trace {
        /// Server-assigned sweep id.
        id: u64,
        /// Job index within the sweep.
        index: u64,
    },
    /// Snapshot the metrics registry.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Drain the queue, then exit.
    Shutdown,
}

impl Request {
    /// The wire tag, also the per-request-type metrics label.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::Stream { .. } => "stream",
            Request::Trace { .. } => "trace",
            Request::Metrics => "metrics",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }

    /// Serializes the request as one frame (no trailing newline).
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("v".to_string(), Value::UInt(PROTOCOL_VERSION)),
            ("type".to_string(), Value::Str(self.kind().to_string())),
        ];
        match self {
            Request::Submit { sweep } => {
                fields.push(("name".to_string(), Value::Str(sweep.name.clone())));
                fields.push((
                    "jobs".to_string(),
                    Value::Arr(
                        sweep
                            .jobs
                            .iter()
                            .map(|j| Value::Obj(encode_spec(j)))
                            .collect(),
                    ),
                ));
            }
            Request::Status { id } | Request::Stream { id } => {
                fields.push(("id".to_string(), Value::UInt(*id)));
            }
            Request::Trace { id, index } => {
                fields.push(("id".to_string(), Value::UInt(*id)));
                fields.push(("index".to_string(), Value::UInt(*index)));
            }
            Request::Metrics | Request::Ping | Request::Shutdown => {}
        }
        Value::Obj(fields).encode()
    }

    /// Parses one request frame. The error pair is ready to ship back
    /// as an [`Response::Error`].
    pub fn decode(line: &str) -> Result<Request, (ErrorClass, String)> {
        let v =
            json::parse(line).map_err(|e| (ErrorClass::Malformed, format!("bad frame: {e}")))?;
        let version = v.get("v").and_then(Value::as_u64);
        if version != Some(PROTOCOL_VERSION) {
            return Err((
                ErrorClass::UnsupportedVersion,
                format!(
                    "protocol version {} required, got {}",
                    PROTOCOL_VERSION,
                    version.map_or("none".to_string(), |n| n.to_string())
                ),
            ));
        }
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| (ErrorClass::Malformed, "missing request type".to_string()))?;
        let id = || {
            v.get("id")
                .and_then(Value::as_u64)
                .ok_or_else(|| (ErrorClass::Malformed, "missing sweep id".to_string()))
        };
        match kind {
            "submit" => {
                let name = v
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                if !valid_sweep_name(&name) {
                    return Err((
                        ErrorClass::Malformed,
                        format!(
                            "sweep name must be [A-Za-z0-9._-], not start with '.', \
                             and have at most {MAX_SWEEP_NAME} bytes"
                        ),
                    ));
                }
                let jobs = v
                    .get("jobs")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| (ErrorClass::Malformed, "missing jobs array".to_string()))?;
                let jobs: Vec<JobSpec> = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, j)| {
                        decode_spec(j).ok_or((
                            ErrorClass::Malformed,
                            format!("job {i} is not a valid job spec"),
                        ))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Request::Submit {
                    sweep: SweepSpec { name, jobs },
                })
            }
            "status" => Ok(Request::Status { id: id()? }),
            "stream" => Ok(Request::Stream { id: id()? }),
            "trace" => Ok(Request::Trace {
                id: id()?,
                index: v
                    .get("index")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| (ErrorClass::Malformed, "missing job index".to_string()))?,
            }),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err((
                ErrorClass::Malformed,
                format!("unknown request type {other:?}"),
            )),
        }
    }
}

/// A sweep's status as reported by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusInfo {
    /// Server-assigned sweep id.
    pub id: u64,
    /// Lifecycle state.
    pub state: SweepState,
    /// Total jobs in the sweep.
    pub jobs: u64,
    /// Jobs executed this run (0 until done).
    pub executed: u64,
    /// Jobs served from the result cache (0 until done).
    pub cached: u64,
    /// Jobs that failed permanently (0 until done).
    pub failures: u64,
    /// Failure detail for [`SweepState::Failed`], else empty.
    pub message: String,
}

/// One deterministic per-job result, as carried by a result line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Position of the job in its sweep.
    pub index: u64,
    /// Content-addressed cache key.
    pub key: String,
    /// The job that ran.
    pub spec: JobSpec,
    /// Full simulation statistics.
    pub stats: Stats,
}

/// A server→client frame (excluding streamed result lines, which are
/// produced by [`result_line`] and parsed by [`parse_result_line`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A sweep was accepted.
    Submitted {
        /// Server-assigned sweep id.
        id: u64,
        /// Jobs accepted.
        jobs: u64,
    },
    /// Status of a submitted sweep.
    Status(StatusInfo),
    /// Header preceding a progressive result stream: record lines
    /// follow as jobs complete (in index order), then one `end` frame
    /// whose `count` is the lines actually shipped (jobs that failed
    /// permanently produce no line, so `count ≤ jobs`).
    StreamHeader {
        /// The sweep the stream belongs to.
        id: u64,
        /// Total jobs in the sweep (upper bound on record lines).
        jobs: u64,
    },
    /// Terminator after the streamed result lines.
    End {
        /// The sweep the results belong to.
        id: u64,
        /// Result lines streamed.
        count: u64,
    },
    /// Derived trace metrics for one job (the
    /// `senss.trace.derived.v1` object produced by
    /// `senss_trace::DerivedMetrics::to_json`).
    Trace {
        /// The sweep the job belongs to.
        id: u64,
        /// Job index within the sweep.
        index: u64,
        /// The derived-metrics object.
        derived: Value,
    },
    /// A metrics snapshot (counter name → value object).
    Metrics(Value),
    /// Liveness reply.
    Pong,
    /// Shutdown acknowledged; the server is draining.
    ShuttingDown,
    /// Structured failure.
    Error {
        /// Failure class.
        class: ErrorClass,
        /// Whether retrying later could succeed.
        retriable: bool,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// A structured error with the class's canonical retriability.
    pub fn error(class: ErrorClass, message: impl Into<String>) -> Response {
        Response::Error {
            class,
            retriable: class.retriable(),
            message: message.into(),
        }
    }

    /// Serializes the response as one frame (no trailing newline).
    pub fn encode(&self) -> String {
        let obj = |kind: &str, rest: Vec<(String, Value)>| {
            let mut fields = vec![("type".to_string(), Value::Str(kind.to_string()))];
            fields.extend(rest);
            Value::Obj(fields).encode()
        };
        match self {
            Response::Submitted { id, jobs } => obj(
                "submitted",
                vec![
                    ("id".to_string(), Value::UInt(*id)),
                    ("jobs".to_string(), Value::UInt(*jobs)),
                ],
            ),
            Response::Status(s) => obj(
                "status",
                vec![
                    ("id".to_string(), Value::UInt(s.id)),
                    ("state".to_string(), Value::Str(s.state.tag().to_string())),
                    ("jobs".to_string(), Value::UInt(s.jobs)),
                    ("executed".to_string(), Value::UInt(s.executed)),
                    ("cached".to_string(), Value::UInt(s.cached)),
                    ("failures".to_string(), Value::UInt(s.failures)),
                    ("message".to_string(), Value::Str(s.message.clone())),
                ],
            ),
            Response::StreamHeader { id, jobs } => obj(
                "stream",
                vec![
                    ("id".to_string(), Value::UInt(*id)),
                    ("jobs".to_string(), Value::UInt(*jobs)),
                ],
            ),
            Response::End { id, count } => obj(
                "end",
                vec![
                    ("id".to_string(), Value::UInt(*id)),
                    ("count".to_string(), Value::UInt(*count)),
                ],
            ),
            Response::Trace { id, index, derived } => obj(
                "trace",
                vec![
                    ("id".to_string(), Value::UInt(*id)),
                    ("index".to_string(), Value::UInt(*index)),
                    ("derived".to_string(), derived.clone()),
                ],
            ),
            Response::Metrics(snapshot) => {
                obj("metrics", vec![("counters".to_string(), snapshot.clone())])
            }
            Response::Pong => obj("pong", vec![]),
            Response::ShuttingDown => obj("shutting_down", vec![]),
            Response::Error {
                class,
                retriable,
                message,
            } => obj(
                "error",
                vec![
                    ("class".to_string(), Value::Str(class.tag().to_string())),
                    ("retriable".to_string(), Value::Bool(*retriable)),
                    ("message".to_string(), Value::Str(message.clone())),
                ],
            ),
        }
    }

    /// Parses one response frame.
    pub fn decode(line: &str) -> Result<Response, String> {
        let v = json::parse(line).map_err(|e| format!("bad response frame: {e}"))?;
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("missing response type")?;
        let uint = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing field {key:?} in {kind} response"))
        };
        let string = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing field {key:?} in {kind} response"))
        };
        match kind {
            "submitted" => Ok(Response::Submitted {
                id: uint("id")?,
                jobs: uint("jobs")?,
            }),
            "status" => Ok(Response::Status(StatusInfo {
                id: uint("id")?,
                state: SweepState::from_tag(&string("state")?).ok_or("unknown sweep state")?,
                jobs: uint("jobs")?,
                executed: uint("executed")?,
                cached: uint("cached")?,
                failures: uint("failures")?,
                message: string("message")?,
            })),
            "stream" => Ok(Response::StreamHeader {
                id: uint("id")?,
                jobs: uint("jobs")?,
            }),
            "end" => Ok(Response::End {
                id: uint("id")?,
                count: uint("count")?,
            }),
            "trace" => Ok(Response::Trace {
                id: uint("id")?,
                index: uint("index")?,
                derived: v.get("derived").cloned().ok_or("missing derived")?,
            }),
            "metrics" => Ok(Response::Metrics(
                v.get("counters").cloned().ok_or("missing counters")?,
            )),
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error {
                class: ErrorClass::from_tag(&string("class")?).ok_or("unknown error class")?,
                retriable: matches!(v.get("retriable"), Some(Value::Bool(true))),
                message: string("message")?,
            }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

/// Renders one streamed result line for `rec`.
///
/// Deterministic by construction: only the job's identity and its
/// [`Stats`] appear, never wall time, worker id, attempt count or cache
/// provenance — so a sweep's result lines are byte-identical whether it
/// ran remotely, locally, single-threaded, or from a warm cache.
pub fn result_line(rec: &RunRecord) -> String {
    let mut fields = vec![
        ("type".to_string(), Value::Str("record".to_string())),
        ("index".to_string(), Value::UInt(rec.index as u64)),
        ("key".to_string(), Value::Str(rec.key.clone())),
    ];
    fields.extend(encode_spec(&rec.spec));
    fields.push(("stats".to_string(), encode_stats(&rec.stats)));
    Value::Obj(fields).encode()
}

/// Parses one streamed result line.
pub fn parse_result_line(line: &str) -> Result<JobResult, String> {
    let v = json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
    if v.get("type").and_then(Value::as_str) != Some("record") {
        return Err("not a record line".to_string());
    }
    Ok(JobResult {
        index: v
            .get("index")
            .and_then(Value::as_u64)
            .ok_or("missing index")?,
        key: v
            .get("key")
            .and_then(Value::as_str)
            .ok_or("missing key")?
            .to_string(),
        spec: decode_spec(&v).ok_or("bad job spec in record line")?,
        stats: v
            .get("stats")
            .and_then(decode_stats)
            .ok_or("bad stats in record line")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use senss_harness::SecurityMode;
    use senss_workloads::Workload;

    fn sample_sweep() -> SweepSpec {
        let mut sweep = SweepSpec::new("wire-test");
        sweep.grid(
            &[Workload::Fft, Workload::Ocean],
            &[2],
            &[1 << 20],
            &[SecurityMode::Baseline, SecurityMode::senss()],
            500,
            7,
        );
        sweep
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                sweep: sample_sweep(),
            },
            Request::Status { id: 3 },
            Request::Stream { id: u64::MAX },
            Request::Trace { id: 7, index: 2 },
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn sweep_names_stay_inside_the_records_directory() {
        let longest = "n".repeat(MAX_SWEEP_NAME);
        for ok in [
            "",
            "cli",
            "figure-cold",
            "serve-3",
            "x.s0",
            "fig06",
            "hw_overhead",
            longest.as_str(),
        ] {
            assert!(valid_sweep_name(ok), "{ok:?} must pass");
            let mut sweep = sample_sweep();
            sweep.name = ok.to_string();
            let req = Request::Submit { sweep };
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
        let too_long = "n".repeat(MAX_SWEEP_NAME + 1);
        for bad in [
            "../a",
            "..",
            "/a",
            "a/b",
            "a\\b",
            ".x",
            "a\0b",
            "a b",
            too_long.as_str(),
        ] {
            assert!(!valid_sweep_name(bad), "{bad:?} must be refused");
            let mut sweep = sample_sweep();
            sweep.name = bad.to_string();
            let err = Request::decode(&Request::Submit { sweep }.encode()).unwrap_err();
            assert_eq!(err.0, ErrorClass::Malformed, "{bad:?}");
            assert!(err.1.contains("sweep name"), "{}", err.1);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Submitted { id: 1, jobs: 4 },
            Response::Status(StatusInfo {
                id: 1,
                state: SweepState::Running,
                jobs: 4,
                executed: 0,
                cached: 0,
                failures: 0,
                message: String::new(),
            }),
            Response::StreamHeader { id: 1, jobs: 4 },
            Response::End { id: 1, count: 4 },
            Response::Trace {
                id: 1,
                index: 0,
                derived: Value::Obj(vec![("bus_busy_cycles".to_string(), Value::UInt(42))]),
            },
            Response::Metrics(Value::Obj(vec![(
                "requests_total".to_string(),
                Value::UInt(9),
            )])),
            Response::Pong,
            Response::ShuttingDown,
            Response::error(ErrorClass::Overloaded, "queue full (32 sweeps)"),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }
    }

    #[test]
    fn overloaded_is_retriable_on_the_wire() {
        match Response::error(ErrorClass::Overloaded, "busy") {
            Response::Error { retriable, .. } => assert!(retriable),
            _ => unreachable!(),
        }
        assert!(!ErrorClass::Malformed.retriable());
        assert!(ErrorClass::NotReady.retriable());
        assert!(!ErrorClass::ShuttingDown.retriable());
    }

    #[test]
    fn malformed_frames_are_classified() {
        for line in [
            "",
            "not json",
            "{}",
            "{\"v\":1}",
            "{\"v\":2,\"type\":\"ping\"}",
        ] {
            let err = Request::decode(line).unwrap_err();
            assert!(
                matches!(
                    err.0,
                    ErrorClass::Malformed | ErrorClass::UnsupportedVersion
                ),
                "{line:?} → {err:?}"
            );
        }
        let err = Request::decode("{\"v\":1,\"type\":\"submit\",\"jobs\":[{}]}").unwrap_err();
        assert_eq!(err.0, ErrorClass::Malformed);
    }

    #[test]
    fn result_lines_round_trip_and_are_deterministic() {
        let spec = senss_harness::JobSpec::new(Workload::Lu, 2, 1 << 20).with_ops(300);
        let stats = Stats {
            total_cycles: 99,
            core_ops: vec![150, 150],
            ..Stats::default()
        };
        let mk = |wall, worker, cached| RunRecord {
            index: 5,
            spec,
            key: spec.cache_key(),
            stats: stats.clone(),
            wall_micros: wall,
            worker,
            cached,
        };
        // Nondeterministic execution metadata must not leak into the line.
        let a = result_line(&mk(10, Some(0), false));
        let b = result_line(&mk(9999, None, true));
        assert_eq!(a, b);
        let parsed = parse_result_line(&a).unwrap();
        assert_eq!(parsed.index, 5);
        assert_eq!(parsed.spec, spec);
        assert_eq!(parsed.stats, stats);
    }
}
