//! Worker-process plumbing for the cluster tier.
//!
//! A worker is just another `senss-serve` process run with the
//! `worker` subcommand: it binds an ephemeral loopback port, prints
//! the bound address as its first stdout line (the readiness
//! handshake), and then speaks the ordinary NDJSON protocol. The
//! coordinator spawns one per slot, talks to it with the plain
//! [`Client`](crate::Client), and kills/respawns it on any error —
//! workers are hermetic and hold no state, so replacing one is always
//! safe.
//!
//! A worker's stdin is a pipe from its coordinator, which never writes
//! to it. The worker drains and exits when it reads end-of-file, so it
//! cannot outlive a coordinator that was killed before it could kill
//! its workers.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdin, Command, Stdio};

/// A supervised worker process: the child handle, the write end of its
/// stdin, and the address it reported on startup. Dropping the handle
/// kills the process — a coordinator that goes away must not leak
/// simulator processes — and the stdin pipe closes with the
/// coordinator process however that ends.
#[derive(Debug)]
pub struct WorkerProc {
    child: Child,
    _stdin: ChildStdin,
    addr: String,
}

impl WorkerProc {
    /// Spawns `program worker --addr 127.0.0.1:0 <extra_args>` and
    /// waits for the readiness line carrying the bound address.
    ///
    /// Worker stderr is inherited (workers are started `--quiet` by
    /// default via `extra_args`, so a quiet cluster stays quiet);
    /// stdout is consumed by the handshake.
    pub fn spawn(program: &str, extra_args: &[String]) -> std::io::Result<WorkerProc> {
        let mut child = Command::new(program)
            .arg("worker")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let addr = match read_ready_line(stdout) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        Ok(WorkerProc {
            child,
            _stdin: stdin,
            addr,
        })
    }

    /// The address the worker reported listening on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Kills and reaps the process. Idempotent: a worker that already
    /// died is just reaped.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Reads the handshake line (`<ip>:<port>`) from a worker's stdout.
fn read_ready_line(stdout: impl Read) -> std::io::Result<String> {
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let addr = line.trim();
    if addr.is_empty() || addr.parse::<std::net::SocketAddr>().is_err() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("worker did not report a bound address (got {addr:?})"),
        ));
    }
    Ok(addr.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_line_must_be_a_socket_address() {
        assert_eq!(
            read_ready_line("127.0.0.1:4765\n".as_bytes()).unwrap(),
            "127.0.0.1:4765"
        );
        assert!(read_ready_line("".as_bytes()).is_err());
        assert!(read_ready_line("oops\n".as_bytes()).is_err());
    }
}
