//! The two system calls std does not wrap. `send(2)` with
//! `MSG_DONTWAIT | MSG_NOSIGNAL` never blocks and never raises `SIGPIPE`:
//! a shard loop writes a frame to an idle peer with it instead of waking
//! the peer's writer thread. `ppoll(2)` is a shard loop's one park point,
//! on its inbox's wake socket and, on the network loop, the listener and
//! every connection at once (`host.rs`).

use std::ffi::{c_int, c_short};
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Writes what the socket's send buffer takes of `buf` now: `Ok(n)`
/// bytes, `n ≥ 1`, or an error, `WouldBlock` when the buffer is full.
#[cfg(target_os = "linux")]
pub(crate) fn send_nonblocking(s: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    use std::ffi::c_void;
    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_NOSIGNAL: c_int = 0x4000;
    extern "C" {
        fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
    }
    let flags = MSG_DONTWAIT | MSG_NOSIGNAL;
    // SAFETY: `s` keeps its descriptor open for the call, and `send`
    // only reads `buf.len()` bytes from `buf`, a live borrowed slice.
    let n = unsafe { send(s.as_raw_fd(), buf.as_ptr().cast(), buf.len(), flags) };
    usize::try_from(n).map_err(|_| io::Error::last_os_error())
}

/// Off Linux nothing is written here: every frame goes to the writer.
#[cfg(not(target_os = "linux"))]
pub(crate) fn send_nonblocking(_: &TcpStream, _: &[u8]) -> io::Result<usize> {
    Err(io::ErrorKind::WouldBlock.into())
}

/// One entry of a poll set, `struct pollfd`: a descriptor waited on for
/// reading (a hang-up or an error counts).
#[repr(C)]
pub(crate) struct PollFd(c_int, c_short, c_short);

impl PollFd {
    pub(crate) fn readable(fd: &impl AsRawFd) -> Self {
        PollFd(fd.as_raw_fd(), 1 /* POLLIN */, 0)
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
