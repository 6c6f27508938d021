//! Readiness polling: `epoll(7)` on Linux and portable `poll(2)` on other
//! unix, picked by the platform at compile time, plus the self-pipe waker
//! the event loop uses to interrupt a blocked wait from worker threads.
//!
//! Both backends answer to one readiness contract, the test at the bottom
//! of this file, which runs the same body against each. On Linux the
//! `poll(2)` backend is compiled for that test only.
//!
//! The crate stays std-only: the handful of libc entry points used here
//! are declared directly (std already links the platform libc), no
//! external crate is added. Everything is `#[cfg(unix)]`; a non-unix
//! build gets a stub whose constructors return
//! [`std::io::ErrorKind::Unsupported`].

#[cfg(unix)]
pub use sys::{raise_nofile_limit, wake_pair, WakeReader, Waker};
#[cfg(not(unix))]
pub use sys_stub::{raise_nofile_limit, wake_pair, Poller, WakeReader, Waker};

/// The readiness set the event loop runs on.
#[cfg(target_os = "linux")]
pub use sys::Epoll as Poller;
/// The readiness set the event loop runs on.
#[cfg(all(unix, not(target_os = "linux")))]
pub use sys::PollSet as Poller;

#[cfg(not(unix))]
type RawFd = i32;

/// What readiness a registration wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes (or EOF/hangup) to read.
    pub readable: bool,
    /// Wake when the fd can accept more bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness event out of `Poller::wait`. An event that is neither
/// readable nor a hangup is write readiness: the loop flushes whatever a
/// connection has buffered on any of its events.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// Bytes (or EOF) are readable.
    pub readable: bool,
    /// Peer hangup / error; the owner should read to completion and close.
    pub hangup: bool,
}

#[cfg(unix)]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    extern "C" {
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    }

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: c_int = 0x800;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: c_int = 0x4;

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn timeout_ms(timeout: Option<Duration>) -> c_int {
        match timeout {
            // Round up so a 1ns request does not spin at timeout 0.
            Some(d) => d.as_millis().clamp(1, c_int::MAX as u128) as c_int,
            None => -1,
        }
    }

    /// A wait's return count: `EINTR` is a wait with no events.
    fn wait_result(n: c_int) -> io::Result<usize> {
        match cvt(n) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    #[cfg(any(test, not(target_os = "linux")))]
    pub use portable::PollSet;

    #[cfg(any(test, not(target_os = "linux")))]
    mod portable {
        use super::*;
        use std::os::raw::c_ulong;

        #[repr(C)]
        struct PollFd {
            fd: c_int,
            events: i16,
            revents: i16,
        }

        const POLLIN: i16 = 0x001;
        const POLLOUT: i16 = 0x004;
        const POLLERR: i16 = 0x008;
        const POLLHUP: i16 = 0x010;
        const POLLNVAL: i16 = 0x020;

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        }

        /// Portable `poll(2)` backend: the registration list is mirrored in
        /// a `Vec` and rebuilt into a `pollfd` array per wait (O(n) per
        /// wakeup, fine into the tens of thousands of fds this server
        /// targets).
        pub struct PollSet {
            regs: Vec<(RawFd, usize, Interest)>,
            scratch: Vec<PollFd>,
        }

        impl PollSet {
            /// An empty registration list; never fails.
            pub fn new() -> io::Result<PollSet> {
                Ok(PollSet {
                    regs: Vec::new(),
                    scratch: Vec::new(),
                })
            }

            fn position(&self, fd: RawFd) -> io::Result<usize> {
                self.regs
                    .iter()
                    .position(|(f, _, _)| *f == fd)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }

            /// Add `fd` to the readiness set.
            pub fn register(
                &mut self,
                fd: RawFd,
                token: usize,
                interest: Interest,
            ) -> io::Result<()> {
                if self.position(fd).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                self.regs.push((fd, token, interest));
                Ok(())
            }

            /// Change an existing registration's interest.
            pub fn modify(
                &mut self,
                fd: RawFd,
                token: usize,
                interest: Interest,
            ) -> io::Result<()> {
                let i = self.position(fd)?;
                self.regs[i] = (fd, token, interest);
                Ok(())
            }

            /// Remove `fd` from the readiness set.
            pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                let i = self.position(fd)?;
                self.regs.swap_remove(i);
                Ok(())
            }

            /// Block until at least one fd is ready or `timeout` elapses,
            /// filling `events`. `EINTR` returns cleanly with zero events.
            pub fn wait(
                &mut self,
                events: &mut Vec<Event>,
                timeout: Option<Duration>,
            ) -> io::Result<()> {
                events.clear();
                self.scratch.clear();
                for &(fd, _, interest) in &self.regs {
                    let mut ev = 0i16;
                    if interest.readable {
                        ev |= POLLIN;
                    }
                    if interest.writable {
                        ev |= POLLOUT;
                    }
                    self.scratch.push(PollFd {
                        fd,
                        events: ev,
                        revents: 0,
                    });
                }
                // SAFETY: `scratch` holds `scratch.len()` initialized
                // `pollfd`s; the kernel writes only their `revents`.
                let n = unsafe {
                    poll(
                        self.scratch.as_mut_ptr(),
                        self.scratch.len() as c_ulong,
                        timeout_ms(timeout),
                    )
                };
                if wait_result(n)? == 0 {
                    return Ok(());
                }
                for (pfd, &(_, token, _)) in self.scratch.iter().zip(&self.regs) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    events.push(Event {
                        token,
                        readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                        hangup: pfd.revents & (POLLHUP | POLLERR | POLLNVAL) != 0,
                    });
                }
                Ok(())
            }
        }
    }

    #[cfg(target_os = "linux")]
    pub use linux::Epoll;

    #[cfg(target_os = "linux")]
    mod linux {
        use super::*;

        // On x86-64 the kernel ABI packs epoll_event; other architectures
        // use natural alignment (mirrors libc's definition).
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        struct EpollEvent {
            events: u32,
            data: u64,
        }

        const EPOLL_CLOEXEC: c_int = 0x80000;
        const EPOLL_CTL_ADD: c_int = 1;
        const EPOLL_CTL_DEL: c_int = 2;
        const EPOLL_CTL_MOD: c_int = 3;
        const EPOLLIN: u32 = 0x001;
        const EPOLLOUT: u32 = 0x004;
        const EPOLLERR: u32 = 0x008;
        const EPOLLHUP: u32 = 0x010;
        const EPOLLRDHUP: u32 = 0x2000;

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }

        /// Linux `epoll(7)` backend: O(ready) wakeups independent of the
        /// registered-set size.
        pub struct Epoll {
            epfd: RawFd,
            scratch: Vec<EpollEvent>,
        }

        impl Epoll {
            /// A fresh epoll instance.
            pub fn new() -> io::Result<Epoll> {
                let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
                Ok(Epoll {
                    epfd,
                    scratch: Vec::new(),
                })
            }

            fn ctl(
                &self,
                op: c_int,
                fd: RawFd,
                token: usize,
                interest: Interest,
            ) -> io::Result<()> {
                let mut ev = EpollEvent {
                    events: {
                        let mut bits = EPOLLRDHUP;
                        if interest.readable {
                            bits |= EPOLLIN;
                        }
                        if interest.writable {
                            bits |= EPOLLOUT;
                        }
                        bits
                    },
                    data: token as u64,
                };
                cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
            }

            /// Add `fd` to the readiness set.
            pub fn register(
                &mut self,
                fd: RawFd,
                token: usize,
                interest: Interest,
            ) -> io::Result<()> {
                self.ctl(EPOLL_CTL_ADD, fd, token, interest)
            }

            /// Change an existing registration's interest.
            pub fn modify(
                &mut self,
                fd: RawFd,
                token: usize,
                interest: Interest,
            ) -> io::Result<()> {
                self.ctl(EPOLL_CTL_MOD, fd, token, interest)
            }

            /// Remove `fd` from the readiness set.
            pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                let mut ev = EpollEvent { events: 0, data: 0 };
                cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
            }

            /// Block until at least one fd is ready or `timeout` elapses,
            /// filling `events`. `EINTR` returns cleanly with zero events.
            pub fn wait(
                &mut self,
                events: &mut Vec<Event>,
                timeout: Option<Duration>,
            ) -> io::Result<()> {
                events.clear();
                self.scratch.clear();
                self.scratch.reserve(1024);
                // SAFETY: `reserve(1024)` above leaves room for the at most
                // 1024 events the kernel writes.
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.scratch.as_mut_ptr(),
                        1024,
                        timeout_ms(timeout),
                    )
                };
                let n = wait_result(n)?;
                // SAFETY: the kernel initialized the first `n` entries.
                unsafe { self.scratch.set_len(n) };
                for e in &self.scratch {
                    let bits = e.events;
                    events.push(Event {
                        token: e.data as usize,
                        readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                        hangup: bits & (EPOLLHUP | EPOLLERR) != 0,
                    });
                }
                Ok(())
            }
        }

        impl Drop for Epoll {
            fn drop(&mut self) {
                unsafe { close(self.epfd) };
            }
        }
    }

    fn set_nonblocking(fd: RawFd) -> io::Result<()> {
        let flags = cvt(unsafe { fcntl(fd, F_GETFL, 0) })?;
        cvt(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) }).map(|_| ())
    }

    /// The write end of the self-pipe; lives in the server's shared state
    /// so worker threads (and `ServerHandle::shutdown`) can interrupt a
    /// blocked `Poller::wait`.
    pub struct Waker {
        fd: RawFd,
    }

    // SAFETY-adjacent note: a RawFd is just an integer; writes to a pipe
    // are atomic per POSIX for <= PIPE_BUF bytes.
    unsafe impl Send for Waker {}
    unsafe impl Sync for Waker {}

    impl Waker {
        /// Make the next (or current) `Poller::wait` return promptly. A
        /// full pipe means a wakeup is already pending — success either way.
        pub fn wake(&self) {
            let byte = 1u8;
            unsafe { write(self.fd, &byte, 1) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// The read end of the self-pipe, registered in the poller.
    pub struct WakeReader {
        fd: RawFd,
    }

    impl WakeReader {
        /// The fd to register for read interest.
        pub fn fd(&self) -> RawFd {
            self.fd
        }

        /// Consume all pending wakeup bytes.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                let n = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
                if n <= 0 {
                    break;
                }
            }
        }
    }

    impl Drop for WakeReader {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// A nonblocking self-pipe pair.
    pub fn wake_pair() -> io::Result<(Waker, WakeReader)> {
        let mut fds = [0 as c_int; 2];
        cvt(unsafe { pipe(fds.as_mut_ptr()) })?;
        let (r, w) = (fds[0], fds[1]);
        for fd in [r, w] {
            if let Err(e) = set_nonblocking(fd) {
                unsafe {
                    close(r);
                    close(w);
                }
                return Err(e);
            }
        }
        Ok((Waker { fd: w }, WakeReader { fd: r }))
    }

    /// Raise the process's soft `RLIMIT_NOFILE` to its hard limit so a
    /// high-connection deployment is not capped at the shell default.
    /// Returns the resulting soft limit (best effort; `None` off Linux or
    /// on failure).
    pub fn raise_nofile_limit() -> Option<u64> {
        #[cfg(target_os = "linux")]
        {
            #[repr(C)]
            struct RLimit {
                cur: u64,
                max: u64,
            }
            extern "C" {
                fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
                fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
            }
            const RLIMIT_NOFILE: c_int = 7;
            let mut lim = RLimit { cur: 0, max: 0 };
            if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
                return None;
            }
            if lim.cur < lim.max {
                let want = RLimit {
                    cur: lim.max,
                    max: lim.max,
                };
                if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
                    return Some(lim.max);
                }
            }
            Some(lim.cur)
        }
        #[cfg(not(target_os = "linux"))]
        {
            None
        }
    }
}

#[cfg(not(unix))]
mod sys_stub {
    use super::Event;
    use std::io;
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "event-driven server core requires a unix poll(2)/epoll(7) backend",
        )
    }

    /// Uninhabited off unix: [`Poller::new`] always fails.
    pub enum Poller {}

    impl Poller {
        /// Always [`io::ErrorKind::Unsupported`] off unix.
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }

        /// Unreachable: no `Poller` exists off unix.
        pub fn wait(&mut self, _: &mut Vec<Event>, _: Option<Duration>) -> io::Result<()> {
            match *self {}
        }
    }

    /// Stub waker for platforms without the unix backend.
    pub struct Waker;

    impl Waker {
        /// No-op on unsupported platforms.
        pub fn wake(&self) {}
    }

    /// Stub wake reader for platforms without the unix backend.
    pub struct WakeReader;

    impl WakeReader {
        /// Always an invalid fd.
        pub fn fd(&self) -> super::RawFd {
            -1
        }

        /// No-op on unsupported platforms.
        pub fn drain(&self) {}
    }

    /// Always [`io::ErrorKind::Unsupported`] off unix.
    pub fn wake_pair() -> io::Result<(Waker, WakeReader)> {
        Err(unsupported())
    }

    /// No rlimit handling off Linux.
    pub fn raise_nofile_limit() -> Option<u64> {
        None
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    /// A connected loopback pair: the client end, and the accepted end in
    /// nonblocking mode, as the event loop holds its sockets.
    fn tcp_pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        (client, server)
    }

    const NONE: [(usize, bool, bool); 0] = [];

    /// One readiness contract, one test per backend: the event loop relies
    /// on exactly these answers from whichever backend the platform picks.
    macro_rules! readiness_contract {
        ($($(#[$cfg:meta])* $test:ident: $backend:ty,)*) => {$(
            $(#[$cfg])*
            #[test]
            fn $test() {
                let mut p = <$backend>::new().expect("backend");
                // `(token, readable, hangup)` of each event of one wait.
                let wait = |p: &mut $backend, ms: u64| {
                    let mut events = Vec::new();
                    p.wait(&mut events, Some(Duration::from_millis(ms))).expect("wait");
                    events
                        .iter()
                        .map(|e| (e.token, e.readable, e.hangup))
                        .collect::<Vec<_>>()
                };
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
                let (mut a1, mut b1) = tcp_pair(&listener);
                let (mut a2, b2) = tcp_pair(&listener);
                let (fd1, fd2) = (b1.as_raw_fd(), b2.as_raw_fd());
                p.register(fd1, 1, Interest::READ).expect("register 1");
                p.register(fd2, 2, Interest::READ).expect("register 2");

                // Idle: the wait times out with no event.
                let t0 = Instant::now();
                assert_eq!(wait(&mut p, 30), NONE);
                assert!(t0.elapsed() < Duration::from_secs(5), "the timeout did not return");

                // Peer bytes: readable, under the registered token, and
                // again on the next wait while they stay unread.
                a1.write_all(b"ping").unwrap();
                assert_eq!(wait(&mut p, 1000), [(1, true, false)]);
                assert_eq!(wait(&mut p, 1000), [(1, true, false)], "not level-triggered");
                let mut buf = [0u8; 16];
                assert_eq!(b1.read(&mut buf).unwrap(), 4);
                assert_eq!(wait(&mut p, 30), NONE);

                // Write-only interest: an event that is write readiness,
                // not readable although bytes are pending.
                a1.write_all(b"x").unwrap();
                let write_only = Interest { readable: false, writable: true };
                p.modify(fd1, 1, write_only).expect("modify");
                assert_eq!(wait(&mut p, 1000), [(1, false, false)]);

                // Peer FIN: readable, and the read after the pending byte
                // returns 0.
                p.modify(fd1, 1, Interest::READ).expect("modify back");
                drop(a1);
                assert_eq!(wait(&mut p, 1000), [(1, true, false)]);
                assert_eq!(b1.read(&mut buf).unwrap(), 1);
                assert_eq!(b1.read(&mut buf).unwrap(), 0, "EOF after the FIN");

                // Deregistered: no event although bytes are pending.
                p.deregister(fd1).expect("deregister 1");
                a2.write_all(b"zz").unwrap();
                assert_eq!(wait(&mut p, 1000), [(2, true, false)]);
                p.deregister(fd2).expect("deregister 2");
                assert_eq!(wait(&mut p, 30), NONE);

                // Double registration, and a change to an unknown fd, fail.
                p.register(fd2, 2, Interest::READ).expect("re-register");
                assert!(p.register(fd2, 2, Interest::READ).is_err(), "double register");
                assert!(p.modify(fd1, 1, Interest::READ).is_err(), "modify unknown fd");
                assert!(p.deregister(fd1).is_err(), "deregister unknown fd");
                p.deregister(fd2).expect("deregister 2 again");

                // The waker: its fd turns readable, and `drain` clears it.
                let (waker, reader) = wake_pair().expect("self-pipe");
                p.register(reader.fd(), 9, Interest::READ).expect("register waker");
                assert_eq!(wait(&mut p, 30), NONE);
                waker.wake();
                waker.wake();
                assert_eq!(wait(&mut p, 1000), [(9, true, false)]);
                reader.drain();
                assert_eq!(wait(&mut p, 30), NONE);
            }
        )*};
    }

    readiness_contract! {
        #[cfg(target_os = "linux")]
        epoll_meets_the_readiness_contract: sys::Epoll,
        poll_meets_the_readiness_contract: sys::PollSet,
    }
}
