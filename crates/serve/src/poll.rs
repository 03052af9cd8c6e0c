//! A minimal readiness-polling shim over `epoll(7)` (Linux) or `poll(2)`
//! (other Unixes) — the kernel interface behind the event-loop frontend,
//! with no runtime dependency.
//!
//! The workspace is offline (no mio, no tokio), so the syscalls are
//! declared directly against the C runtime that `std` already links, in
//! the same confined-unsafe style as `photonn_math::simd`: this module is
//! the only `unsafe` surface in the crate, every call site is a thin
//! wrapper that checks the return value, and nothing here touches pointers
//! that outlive the call.
//!
//! The surface is deliberately tiny:
//!
//! * [`Poller`] — register/modify/deregister interest in a file
//!   descriptor under a caller-chosen `u64` token, and [`Poller::wait`]
//!   for readiness events. Level-triggered on both backends, so a handler
//!   that does not drain a socket is re-notified rather than wedged.
//! * [`Waker`] — a self-pipe (a `UnixStream` pair, no syscalls of its
//!   own) that other threads use to interrupt a blocked
//!   [`Poller::wait`]; the dispatcher shards ring it when completed
//!   batches are ready to fan back out.
//! * [`raise_nofile_limit`] — lifts `RLIMIT_NOFILE` toward its hard cap
//!   so a 10k-connection saturation run does not die on the default soft
//!   limit.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Readiness interest for a registered descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — a connection with queued output.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable (includes peer hang-up and error conditions, so a read
    /// is always attempted and observes the failure directly).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// A readiness poller over the platform's level-triggered polling
/// facility. One event-loop thread owns it; registration methods take
/// `&mut self` to make that single-threaded ownership explicit.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Creates a poller.
    ///
    /// # Errors
    ///
    /// Returns the OS error when the polling facility cannot be created.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::new()?,
        })
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Returns the OS error (e.g. on a duplicate registration).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Changes the interest of an already-registered descriptor.
    ///
    /// # Errors
    ///
    /// Returns the OS error (e.g. when `fd` was never registered).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Removes a descriptor from the interest set. Safe to call on a
    /// descriptor about to be closed (closing also deregisters, but doing
    /// it explicitly keeps the fallback backend's bookkeeping exact).
    ///
    /// # Errors
    ///
    /// Returns the OS error.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Blocks until at least one registered descriptor is ready or the
    /// timeout elapses, appending events to `events` (cleared first).
    /// `None` blocks indefinitely. Spurious wakeups with zero events are
    /// normal; interrupted waits (`EINTR`) return empty rather than erroring.
    ///
    /// # Errors
    ///
    /// Returns the OS error from the underlying wait.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.backend.wait(events, timeout)
    }
}

/// Converts an `Option<Duration>` into the millisecond timeout convention
/// shared by `epoll_wait` and `poll`: `-1` blocks, `0` polls.
/// Sub-millisecond waits round up to 1 ms so a 100 µs request never
/// busy-spins.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => i32::try_from(
            d.as_millis()
                .max(u128::from(d.subsec_nanos() % 1_000_000 != 0)),
        )
        .unwrap_or(i32::MAX),
    }
}

// ---------------------------------------------------------------- epoll

#[cfg(target_os = "linux")]
use epoll_backend::Backend;

#[cfg(target_os = "linux")]
mod epoll_backend {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`; packed on x86-64 only, matching the kernel ABI
    /// (and libc's definition) on every Linux architecture.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    pub struct Backend {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            // SAFETY: epoll_create1 takes no pointers; the fd is checked
            // and owned (closed in Drop).
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Backend {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it before
            // returning. DEL ignores the event pointer.
            check(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let cap = self.buf.len() as i32;
            // SAFETY: the buffer pointer/length pair is valid for the
            // whole call and `n` is bounded by `cap`.
            let n =
                unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), cap, timeout_ms(timeout)) };
            let n = match check(n) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            // A full buffer means more events may be pending; grow so a
            // 10k-connection stampede is drained in O(1) wait calls.
            if n == self.buf.len() {
                self.buf
                    .resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            // SAFETY: closing an owned fd exactly once.
            unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------- poll(2)

#[cfg(not(target_os = "linux"))]
use poll_backend::Backend;

#[cfg(not(target_os = "linux"))]
mod poll_backend {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        // `nfds_t` is `u32` on the BSD-derived platforms this fallback
        // targets (the Linux build uses epoll above).
        fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.readable {
            m |= POLLIN;
        }
        if interest.writable {
            m |= POLLOUT;
        }
        m
    }

    /// O(n)-per-wait fallback: a flat interest list re-submitted to
    /// `poll(2)` each time. Fine for the non-Linux development case; the
    /// production target is the epoll backend.
    pub struct Backend {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            Ok(Backend {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        fn position(&self, fd: RawFd) -> Option<usize> {
            self.fds.iter().position(|p| p.fd == fd)
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.position(fd).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.fds.push(PollFd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let at = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[at].events = mask(interest);
            self.tokens[at] = token;
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let at = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(at);
            self.tokens.swap_remove(at);
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            if self.fds.is_empty() {
                if let Some(d) = timeout {
                    std::thread::sleep(d);
                }
                return Ok(());
            }
            // SAFETY: the slice pointer/length pair is valid for the call.
            let n = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as u32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                let bits = p.revents;
                if bits == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

// ----------------------------------------------------------------- waker

/// A cross-thread wakeup for a parked [`Poller::wait`].
///
/// Built on a connected `UnixStream` pair (std-only, no extra syscall
/// declarations): [`WakeHandle::wake`] writes one byte to the far end, which
/// makes the near end — registered with the poller — readable. Cloneable
/// and safe to ring from any thread; coalesces naturally (a full pipe
/// means a wake is already pending, which is exactly the semantics
/// needed).
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    /// Creates a waker pair.
    ///
    /// # Errors
    ///
    /// Returns the OS error when the socket pair cannot be created.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The descriptor to register (readable) with the poller.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// A send-only handle for other threads.
    ///
    /// # Errors
    ///
    /// Returns the OS error when the descriptor cannot be duplicated.
    pub fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle {
            tx: self.tx.try_clone()?,
        })
    }

    /// Drains pending wake bytes so level-triggered polling stops
    /// reporting the waker readable.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// The sending half of a [`Waker`], cloneable into any thread.
pub struct WakeHandle {
    tx: std::os::unix::net::UnixStream,
}

impl WakeHandle {
    /// Interrupts the poller. A full pipe (`WouldBlock`) means a wake is
    /// already pending and is treated as success.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl Clone for WakeHandle {
    fn clone(&self) -> Self {
        WakeHandle {
            tx: self.tx.try_clone().expect("clone waker stream"),
        }
    }
}

// --------------------------------------------------------------- rlimits

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// `RLIMIT_NOFILE` on Linux and the BSDs (macOS included).
const RLIMIT_NOFILE: i32 = if cfg!(target_os = "linux") { 7 } else { 8 };

/// Raises the soft open-file limit to `min(want, hard limit)` and returns
/// the resulting soft limit. A saturation bench driving 10k+ sockets from
/// one process calls this first; failure to raise is reported, not fatal,
/// so callers can degrade to fewer connections loudly.
///
/// # Errors
///
/// Returns the OS error when the limit cannot be read or raised.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: out-pointer valid for the call; checked return.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.cur >= want {
        return Ok(lim.cur);
    }
    let target = want.min(lim.max);
    let new = RLimit {
        cur: target,
        max: lim.max,
    };
    // SAFETY: in-pointer valid for the call; checked return.
    if unsafe { setrlimit(RLIMIT_NOFILE, &new) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_accept_read_write_readiness() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        // Nothing connected yet: a short wait returns no listener event.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7));

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "pending connection must make the listener readable: {events:?}"
        );

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .register(server_side.as_raw_fd(), 9, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && e.writable),
            "fresh socket must be writable: {events:?}"
        );

        // Data from the client makes the server side readable.
        poller
            .modify(server_side.as_raw_fd(), 9, Interest::READ)
            .unwrap();
        client.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && e.readable),
            "pending byte must make the socket readable: {events:?}"
        );
        let mut buf = [0u8; 8];
        assert_eq!((&server_side).read(&mut buf).unwrap(), 1);

        poller.deregister(server_side.as_raw_fd()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
        // Deregistered fds produce no further events.
        client.write_all(b"y").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            events.is_empty(),
            "deregistered fd still reported: {events:?}"
        );
    }

    #[test]
    fn waker_interrupts_a_blocked_wait_and_drains() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 1, Interest::READ).unwrap();
        let handle = waker.handle().unwrap();
        let ringer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            handle.wake();
        });
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wake did not interrupt the wait"
        );
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        ringer.join().unwrap();

        // Drained, the waker stops reporting readable.
        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained waker still readable");
    }

    #[test]
    fn repeated_wakes_coalesce() {
        let waker = Waker::new().unwrap();
        let handle = waker.handle().unwrap();
        // Far more wakes than the pipe buffer holds: all must be absorbed
        // without blocking the caller.
        for _ in 0..100_000 {
            handle.wake();
        }
        waker.drain();
    }

    #[test]
    fn nofile_limit_is_reported() {
        let now = raise_nofile_limit(64).unwrap();
        assert!(now >= 64);
    }
}
