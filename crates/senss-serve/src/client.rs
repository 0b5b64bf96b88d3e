//! A small blocking client for the serve protocol.
//!
//! One TCP connection per call keeps the client trivially thread-safe
//! and immune to server-side idle timeouts; the loopback integration
//! tests drive many of these concurrently. [`Client::run`] is the
//! high-level path: submit with bounded retry on `overloaded`, then
//! `stream` the result lines as the jobs finish. Waiting for results is
//! always a `stream`; no call polls `status` in a loop.

use crate::protocol::{parse_result_line, ErrorClass, JobResult, Request, Response, StatusInfo};
use senss_harness::json::Value;
use senss_harness::SweepSpec;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Read timeout for waiting on a `stream`: its lines arrive as jobs
/// finish, and one sweep can run far longer than any round trip.
pub const STREAM_TIMEOUT: Duration = Duration::from_secs(24 * 60 * 60);

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent something the client cannot interpret.
    Protocol(String),
    /// The server replied with a structured error frame.
    Server {
        /// Failure class.
        class: ErrorClass,
        /// Whether the server says a retry could succeed.
        retriable: bool,
        /// Server-provided detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server {
                class,
                retriable,
                message,
            } => write!(
                f,
                "server error [{}{}]: {message}",
                class.tag(),
                if *retriable { ", retriable" } else { "" }
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
    /// Extra attempts after the first on a retriable `overloaded`
    /// rejection.
    retries: u32,
    backoff: Duration,
}

impl Client {
    /// A client for `addr` with 30 s I/O timeouts and 3 retries at
    /// 100 ms starting backoff.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
            retries: 3,
            backoff: Duration::from_millis(100),
        }
    }

    /// Sets the per-call I/O timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Sets retry count and starting backoff for retriable rejections.
    pub fn with_retry(mut self, retries: u32, backoff: Duration) -> Client {
        self.retries = retries;
        self.backoff = backoff;
        self
    }

    fn connect(&self) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), ClientError> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok((BufReader::new(stream.try_clone()?), BufWriter::new(stream)))
    }

    fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Response, ClientError> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection mid-exchange".to_string(),
            ));
        }
        decode(line.trim())
    }

    /// Sends one request and reads the first response frame.
    fn call(&self, request: &Request) -> Result<(BufReader<TcpStream>, Response), ClientError> {
        let (mut reader, mut writer) = self.connect()?;
        writeln!(writer, "{}", request.encode())?;
        writer.flush()?;
        let response = Self::read_response(&mut reader)?;
        Ok((reader, response))
    }

    /// Submits a sweep; no retry. Returns `(id, jobs accepted)`.
    pub fn submit_once(&self, sweep: &SweepSpec) -> Result<(u64, u64), ClientError> {
        let sweep = sweep.clone();
        match self.call(&Request::Submit { sweep })? {
            (_, Response::Submitted { id, jobs }) => Ok((id, jobs)),
            (_, other) => Err(unexpected("submitted", &other)),
        }
    }

    /// Submits a sweep, backing off and retrying (up to the configured
    /// retry budget) when the server sheds load with a retriable
    /// `overloaded` error.
    pub fn submit(&self, sweep: &SweepSpec) -> Result<(u64, u64), ClientError> {
        let mut backoff = self.backoff;
        let mut attempt = 0;
        loop {
            match self.submit_once(sweep) {
                Err(ClientError::Server {
                    class: ErrorClass::Overloaded,
                    retriable: true,
                    ..
                }) if attempt < self.retries => {
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                other => return other,
            }
        }
    }

    /// Queries a sweep's status.
    pub fn status(&self, id: u64) -> Result<StatusInfo, ClientError> {
        match self.call(&Request::Status { id })? {
            (_, Response::Status(info)) => Ok(info),
            (_, other) => Err(unexpected("status", &other)),
        }
    }

    /// Streams a finished sweep's raw result lines (exactly the bytes
    /// the server sent, minus newlines).
    pub fn results_raw(&self, id: u64) -> Result<Vec<String>, ClientError> {
        let (mut reader, header) = self.call(&Request::Results { id })?;
        let count = match header {
            Response::ResultsHeader { count, .. } => count,
            other => return Err(unexpected("results", &other)),
        };
        // `count` comes from the peer: grow as lines arrive instead of
        // trusting it for an allocation.
        let mut lines = Vec::new();
        for _ in 0..count {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Protocol(
                    "result stream ended before the promised count".to_string(),
                ));
            }
            lines.push(line.trim_end_matches(['\r', '\n']).to_string());
        }
        match Self::read_response(&mut reader)? {
            Response::End { count: n, .. } if n == count => Ok(lines),
            other => Err(unexpected("end", &other)),
        }
    }

    /// Streams a sweep's result lines progressively, invoking
    /// `on_line` for each record line as the server ships it — in index
    /// order, while the sweep is still running. Blocks until the
    /// server's `end` trailer; returns the number of lines delivered.
    ///
    /// Unlike [`results`](Client::results), the sweep may be queued or
    /// running when the stream is opened; the connection then waits on
    /// job completions, so size the client timeout to the sweep, not to
    /// one round-trip.
    pub fn stream_with(&self, id: u64, mut on_line: impl FnMut(&str)) -> Result<u64, ClientError> {
        let (mut reader, header) = self.call(&Request::Stream { id })?;
        match header {
            Response::StreamHeader { .. } => {}
            other => return Err(unexpected("stream", &other)),
        }
        let mut delivered = 0u64;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Protocol(
                    "stream ended without an end frame".to_string(),
                ));
            }
            let line = line.trim_end_matches(['\r', '\n']);
            let kind = senss_harness::json::parse(line)
                .ok()
                .and_then(|v| v.get("type").and_then(|t| t.as_str().map(String::from)));
            if kind.as_deref() == Some("record") {
                delivered += 1;
                on_line(line);
                continue;
            }
            return match decode(line)? {
                Response::End { count, .. } if count == delivered => Ok(delivered),
                Response::End { count, .. } => Err(ClientError::Protocol(format!(
                    "stream end frame promised {count} lines but {delivered} arrived"
                ))),
                other => Err(unexpected("end", &other)),
            };
        }
    }

    /// Streams a sweep's result lines progressively and collects them.
    pub fn stream_raw(&self, id: u64) -> Result<Vec<String>, ClientError> {
        let mut lines = Vec::new();
        self.stream_with(id, |l| lines.push(l.to_string()))?;
        Ok(lines)
    }

    /// Waits for a sweep in any live state and parses its results:
    /// [`stream_raw`](Client::stream_raw) under [`STREAM_TIMEOUT`].
    pub fn stream(&self, id: u64) -> Result<Vec<JobResult>, ClientError> {
        parse_lines(&self.clone().with_timeout(STREAM_TIMEOUT).stream_raw(id)?)
    }

    /// Streams and parses a finished sweep's results.
    pub fn results(&self, id: u64) -> Result<Vec<JobResult>, ClientError> {
        parse_lines(&self.results_raw(id)?)
    }

    /// Derives trace metrics for one job of a finished sweep. Returns
    /// the server's `senss.trace.derived.v1` object.
    pub fn trace(&self, id: u64, index: u64) -> Result<Value, ClientError> {
        match self.call(&Request::Trace { id, index })? {
            (_, Response::Trace { derived, .. }) => Ok(derived),
            (_, other) => Err(unexpected("trace", &other)),
        }
    }

    /// Snapshots the server's metrics registry.
    pub fn metrics(&self) -> Result<Value, ClientError> {
        match self.call(&Request::Metrics)? {
            (_, Response::Metrics(snapshot)) => Ok(snapshot),
            (_, other) => Err(unexpected("metrics", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            (_, Response::Pong) => Ok(()),
            (_, other) => Err(unexpected("pong", &other)),
        }
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            (_, Response::ShuttingDown) => Ok(()),
            (_, other) => Err(unexpected("shutting_down", &other)),
        }
    }

    /// Submit → [`stream`](Client::stream), the full cycle. A sweep that
    /// fails on the server is an `internal` [`ClientError::Server`].
    pub fn run(&self, sweep: &SweepSpec) -> Result<Vec<JobResult>, ClientError> {
        let (id, _) = self.submit(sweep)?;
        self.stream(id)
    }
}

/// Decodes one response frame; an `error` frame becomes
/// [`ClientError::Server`].
fn decode(line: &str) -> Result<Response, ClientError> {
    match Response::decode(line) {
        Ok(Response::Error {
            class,
            retriable,
            message,
        }) => Err(ClientError::Server {
            class,
            retriable,
            message,
        }),
        Ok(r) => Ok(r),
        Err(m) => Err(ClientError::Protocol(m)),
    }
}

fn parse_lines(lines: &[String]) -> Result<Vec<JobResult>, ClientError> {
    lines
        .iter()
        .map(|l| parse_result_line(l).map_err(ClientError::Protocol))
        .collect()
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected a {wanted} frame, got: {}", got.encode()))
}
