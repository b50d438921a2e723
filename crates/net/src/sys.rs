//! The one system call std does not wrap: `send(2)` with
//! `MSG_DONTWAIT | MSG_NOSIGNAL`, a socket write that never blocks and
//! never raises `SIGPIPE`. A shard loop writes a frame to an idle peer
//! with it instead of waking the peer's writer thread (`host.rs`).

use std::io;
use std::net::TcpStream;

/// Writes what the socket's send buffer takes of `buf` now: `Ok(n)`
/// bytes, `n ≥ 1`, or an error, `WouldBlock` when the buffer is full.
#[cfg(target_os = "linux")]
pub(crate) fn send_nonblocking(s: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;
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
