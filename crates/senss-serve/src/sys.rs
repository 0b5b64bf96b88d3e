//! Minimal `poll(2)` binding — the one place the crate touches FFI.
//!
//! The workspace is dependency-free, so instead of pulling in `libc`
//! or `mio` this module declares the single syscall wrapper the event
//! loop needs. The `unsafe` surface is exactly one call: handing a
//! `#[repr(C)]` slice to `poll`, whose contract (the kernel writes
//! only `revents` within the passed length) is upheld by construction.
//! Everything else in the crate stays `#![deny(unsafe_code)]`-clean.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_ulong};
use std::io;
use std::os::fd::RawFd;

/// There is data to read.
pub const POLLIN: i16 = 0x001;
/// Writing will not block.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// The fd is not open (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` set, layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Kernel-reported events, valid after `poll` returns.
    pub revents: i16,
}

impl PollFd {
    /// A watch on `fd` for `events`, with `revents` cleared.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any of `mask`'s bits were reported.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether the kernel flagged the fd as errored, hung up or invalid.
    pub fn failed(&self) -> bool {
        self.ready(POLLERR | POLLHUP | POLLNVAL)
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits up to `timeout_ms` for readiness on `fds`, returning how many
/// entries have non-zero `revents`. A signal interruption (`EINTR`) is
/// reported as zero ready fds rather than an error — the event loop
/// just goes round again. `timeout_ms` of -1 waits without a limit.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively-borrowed slice of
    // `#[repr(C)]` pollfd-layout structs, and the length passed is its
    // real length; the kernel writes only the `revents` fields.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poll_reports_readability_and_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // Nothing pending: a zero-timeout poll returns no ready fds.
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        assert!(!fds[0].ready(POLLIN));

        // A connecting client makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        assert_eq!(poll_fds(&mut fds, 1_000).unwrap(), 1);
        assert!(fds[0].ready(POLLIN));

        // And bytes in flight make the accepted socket readable.
        let (server_side, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(server_side.as_raw_fd(), POLLIN | POLLOUT)];
        assert_eq!(poll_fds(&mut fds, 1_000).unwrap(), 1);
        assert!(fds[0].ready(POLLIN));
        assert!(fds[0].ready(POLLOUT));
    }
}
