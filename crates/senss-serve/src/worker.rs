//! The cluster worker: a job filter on its pipes.
//!
//! A worker (`senss-serve worker`, a coordinator's child process) writes
//! the [`hello`] line, then answers each [`encode_spec`] line on its
//! stdin with one line on its stdout, in order, until stdin ends: the
//! job's [`result_line`], or an `error` frame — `malformed` for a line
//! that is no job spec or is over [`MAX_JOB_LINE`] bytes, `internal`
//! with the panic message for a job that panicked. A bad line costs
//! only its own reply. A worker holds no cache and writes no records,
//! so the coordinator can replace it at any time, and its stdin is the
//! coordinator's pipe, so it exits when its coordinator does.
//!
//! [`WorkerProc`] is the coordinator's side of one worker process.

use crate::protocol::{parse_result_line, result_line, ErrorClass, Response, PROTOCOL_VERSION};
use crate::server::lock_recover;
use crate::sys::{self, PollFd};
use senss_harness::executor::panic_message;
use senss_harness::json::{self, Value};
use senss_harness::{decode_spec, encode_spec, JobSpec, RunRecord};
use senss_sim::Stats;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::fd::AsRawFd;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest job line a worker reads, in bytes; a job spec is a few
/// hundred.
pub const MAX_JOB_LINE: usize = 64 * 1024;

/// Longest reply line a coordinator reads, in bytes; a result line
/// carries one job's [`Stats`], a few KiB even at 64 cores.
const MAX_REPLY_LINE: usize = 1 << 20;

/// A worker's first line, naming the protocol version, so that a
/// coordinator refuses a stale or foreign binary at start.
pub fn hello() -> String {
    format!("senss-serve worker v{PROTOCOL_VERSION}")
}

/// Runs the worker filter on `input` and `output` until `input` ends.
/// Each job first sleeps `stall`: a fault-injection aid that stretches
/// its wall time without touching its result.
///
/// # Errors
///
/// Only when `input` or `output` fails; a bad job line is answered.
pub fn serve_jobs(
    mut input: impl BufRead,
    mut output: impl Write,
    stall: Duration,
) -> io::Result<()> {
    writeln!(output, "{}", hello())?;
    output.flush()?;
    let mut line = Vec::new();
    loop {
        line.clear();
        if (&mut input)
            .take(MAX_JOB_LINE as u64 + 1)
            .read_until(b'\n', &mut line)?
            == 0
        {
            return Ok(());
        }
        let reply = if line.len() > MAX_JOB_LINE && !line.ends_with(b"\n") {
            input.skip_until(b'\n')?;
            Response::error(
                ErrorClass::Malformed,
                format!("job line exceeds {MAX_JOB_LINE} bytes"),
            )
            .encode()
        } else {
            answer(&line, stall)
        };
        writeln!(output, "{reply}")?;
        output.flush()?;
    }
}

/// The reply to one job line.
fn answer(line: &[u8], stall: Duration) -> String {
    let spec = std::str::from_utf8(line)
        .ok()
        .and_then(|text| json::parse(text.trim()).ok())
        .and_then(|v| decode_spec(&v));
    let Some(spec) = spec else {
        return Response::error(ErrorClass::Malformed, "not a job spec line").encode();
    };
    std::thread::sleep(stall);
    match std::panic::catch_unwind(|| spec.run()) {
        Ok(stats) => result_line(&RunRecord {
            index: 0,
            spec,
            key: spec.cache_key(),
            stats,
            wall_micros: 0,
            worker: None,
            cached: false,
        }),
        Err(payload) => {
            Response::error(ErrorClass::Internal, panic_message(payload.as_ref())).encode()
        }
    }
}

/// A supervised worker process and its two pipes. Dropping the handle
/// kills the process, so a coordinator that goes away leaks no
/// simulator processes.
#[derive(Debug)]
pub struct WorkerProc {
    /// Locked apart from the pipes, so that [`kill`](WorkerProc::kill)
    /// works while a job waits on its reply.
    child: Mutex<Child>,
    pipes: Mutex<(ChildStdin, BufReader<ChildStdout>)>,
}

impl WorkerProc {
    /// Spawns `program worker <extra_args>` and waits up to `timeout`
    /// for its [`hello`] line. Worker stderr is inherited.
    pub fn spawn(
        program: &str,
        extra_args: &[String],
        timeout: Duration,
    ) -> io::Result<WorkerProc> {
        let mut child = Command::new(program)
            .arg("worker")
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        // From here on, an early return drops, and so kills, the child.
        let proc_ = WorkerProc {
            child: Mutex::new(child),
            pipes: Mutex::new((stdin, stdout)),
        };
        let greeting = read_line(&mut lock_recover(&proc_.pipes).1, Instant::now() + timeout)?;
        if greeting != hello() {
            return Err(io::Error::other(format!(
                "worker greeted {greeting:?}, not {:?}",
                hello()
            )));
        }
        Ok(proc_)
    }

    /// Sends `job` and waits up to `timeout` for the reply: its stats,
    /// or the error the worker reported for it (a panic message).
    ///
    /// # Errors
    ///
    /// A pipe failure, a timeout, or a reply that is neither the job's
    /// result line nor an error frame: the worker is unusable.
    pub fn run(&self, job: &JobSpec, timeout: Duration) -> io::Result<Result<Stats, String>> {
        let deadline = Instant::now() + timeout;
        let (stdin, stdout) = &mut *lock_recover(&self.pipes);
        stdin.write_all(format!("{}\n", Value::Obj(encode_spec(job)).encode()).as_bytes())?;
        let reply = read_line(stdout, deadline)?;
        match parse_result_line(&reply) {
            Ok(result) if result.spec == *job => Ok(Ok(result.stats)),
            _ => match Response::decode(&reply) {
                Ok(Response::Error { message, .. }) => Ok(Err(message)),
                _ => Err(io::Error::other(format!("unexpected reply {reply:?}"))),
            },
        }
    }

    /// Kills and reaps the process; a worker that already died is just
    /// reaped.
    pub fn kill(&self) {
        let mut child = lock_recover(&self.child);
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Reads one line from a worker's stdout, waiting until `deadline` at
/// most; the newline is stripped.
fn read_line(stdout: &mut BufReader<ChildStdout>, deadline: Instant) -> io::Result<String> {
    let mut line = Vec::new();
    while !line.ends_with(b"\n") {
        while stdout.buffer().is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "worker did not reply in time",
                ));
            }
            let mut fds = [PollFd::new(stdout.get_ref().as_raw_fd(), sys::POLLIN)];
            let ms = i32::try_from(left.as_millis() + 1).unwrap_or(i32::MAX);
            if sys::poll_fds(&mut fds, ms)? > 0 {
                break;
            }
        }
        let buf = stdout.fill_buf()?;
        if buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "worker closed its stdout",
            ));
        }
        let n = buf
            .iter()
            .position(|&b| b == b'\n')
            .map_or(buf.len(), |end| end + 1);
        line.extend_from_slice(&buf[..n]);
        stdout.consume(n);
        if line.len() > MAX_REPLY_LINE {
            return Err(io::Error::other(format!(
                "worker reply exceeds {MAX_REPLY_LINE} bytes"
            )));
        }
    }
    line.pop();
    String::from_utf8(line).map_err(io::Error::other)
}
