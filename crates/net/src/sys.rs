//! The one system call std does not wrap: `ppoll(2)`, a shard loop's one
//! park point, on its inbox's wake socket and, on the network loop, the
//! listener and every connection at once, and the point where a writer
//! thread waits while a connection's send buffer is full (`host.rs`).

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// One entry of a poll set, `struct pollfd`: a descriptor waited on for
/// reading or for writing (a hang-up or an error counts either way).
#[repr(C)]
pub(crate) struct PollFd(c_int, c_short, c_short);

impl PollFd {
    pub(crate) fn readable(fd: &impl AsRawFd) -> Self {
        PollFd(fd.as_raw_fd(), 1 /* POLLIN */, 0)
    }

    pub(crate) fn writable(fd: &impl AsRawFd) -> Self {
        PollFd(fd.as_raw_fd(), 4 /* POLLOUT */, 0)
    }

    /// Whether the last [`ppoll`] found the descriptor ready.
    pub(crate) fn ready(&self) -> bool {
        self.2 != 0
    }
}

/// Waits until a descriptor of `fds` is ready or `timeout` passes
/// (`None`: no limit). A wait a signal interrupts returns early.
pub(crate) fn ppoll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    let n = {
        use std::ffi::{c_long, c_ulong, c_void};
        extern "C" {
            fn ppoll(fds: *mut PollFd, n: c_ulong, t: *const c_long, mask: *const c_void) -> c_int;
        }
        let secs = |t: Duration| c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX);
        let t = timeout.map(|t| [secs(t), t.subsec_nanos() as c_long]);
        let t = t.as_ref().map_or(std::ptr::null(), |t| t.as_ptr());
        // SAFETY: `ppoll` writes only the `revents` of the `fds.len()`
        // live entries of `fds`, reads the timeout only when it is not
        // null (it then points at `t`, a `struct timespec`'s two `long`s
        // alive for the call), and leaves the signal mask alone, as
        // `mask` is null.
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, t, std::ptr::null()) }
    };
    // Plain `poll` counts milliseconds: rounded up, a deadline is not
    // woken for early and spun on.
    #[cfg(not(target_os = "linux"))]
    let n = {
        use std::ffi::c_uint;
        extern "C" {
            fn poll(fds: *mut PollFd, n: c_uint, timeout_ms: c_int) -> c_int;
        }
        let ms = |t: Duration| c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        // SAFETY: `poll` writes only the `revents` of the `fds.len()`
        // live entries of `fds`.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, timeout.map_or(-1, ms)) }
    };
    let failed = (n < 0).then(io::Error::last_os_error);
    failed.filter(|e| e.kind() != io::ErrorKind::Interrupted).map_or(Ok(()), Err)
}
