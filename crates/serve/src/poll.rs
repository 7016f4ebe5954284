//! Readiness polling for the connection event loop.
//!
//! On Linux this is a thin safe wrapper over raw `epoll` syscalls
//! (declared directly — the container links no external crates, and the
//! suite already hand-rolls its context switches). Connections are
//! registered edge-agnostic with `EPOLLONESHOT`: one readiness event is
//! delivered, the connection migrates to a worker, and the worker re-arms
//! it after writing the response — so a socket is never owned by two
//! threads at once.
//!
//! Other targets fall back to a thread-per-connection server (see
//! `server.rs`), which needs no poller.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::RawFd;

#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x1;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;

unsafe extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// One delivered readiness event: the token registered with the fd. A
/// peer that hung up is reported as readable; the read then sees EOF.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ready {
    /// The token passed at registration (the connection fd).
    pub token: u64,
}

/// A safe epoll handle.
#[derive(Debug)]
pub(crate) struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A new epoll instance.
    pub(crate) fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(0) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, oneshot: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP | if oneshot { EPOLLONESHOT } else { 0 },
            data: token,
        };
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` for one read-readiness delivery carrying `token`.
    pub(crate) fn add_oneshot(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, true)
    }

    /// Re-arm an fd previously registered with [`Poller::add_oneshot`].
    pub(crate) fn rearm(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, true)
    }

    /// Register a permanently-armed fd (the wake channel).
    pub(crate) fn add_level(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, false)
    }

    /// Block up to `timeout_ms` (`-1` = forever) and append delivered
    /// events to `out`. Returns the number delivered.
    pub(crate) fn wait(&self, out: &mut Vec<Ready>, timeout_ms: i32) -> io::Result<usize> {
        const MAX: usize = 256;
        let mut events: [EpollEvent; MAX] = unsafe { std::mem::zeroed() };
        let n = unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), MAX as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in events.iter().take(n as usize) {
            let data = ev.data;
            out.push(Ready { token: data });
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;

    #[test]
    fn oneshot_delivers_once_until_rearmed() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        poller.add_oneshot(b.as_raw_fd(), 7).unwrap();

        let mut out = Vec::new();
        assert_eq!(poller.wait(&mut out, 0).unwrap(), 0, "nothing readable yet");

        a.write_all(b"x").unwrap();
        poller.wait(&mut out, 1000).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 7);

        // One-shot: armed state is consumed even though data remains.
        out.clear();
        assert_eq!(poller.wait(&mut out, 0).unwrap(), 0);

        poller.rearm(b.as_raw_fd(), 7).unwrap();
        poller.wait(&mut out, 1000).unwrap();
        assert_eq!(out.len(), 1, "re-armed fd delivers again");

        drop(a);
        poller.rearm(b.as_raw_fd(), 7).unwrap();
        out.clear();
        poller.wait(&mut out, 1000).unwrap();
        assert_eq!(out.len(), 1, "peer close reported as readable");
    }
}
