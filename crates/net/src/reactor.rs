//! A minimal readiness reactor — the mio-sized subset feral-net needs,
//! hand-rolled so vendor/ stays free of async runtimes.
//!
//! One [`Poller`] belongs to exactly one worker thread (`&mut self`
//! everywhere, no shared state, no locks). On Linux it is a thin wrapper
//! over `epoll` in level-triggered mode; elsewhere on Unix it falls back
//! to `poll(2)` over the registered set. Level-triggered readiness keeps
//! the event-loop logic simple: a socket with unread bytes or pending
//! output keeps reporting ready, so no readiness transition can be lost.
//!
//! Cross-thread wakeups are *not* the poller's job: the worker pairs it
//! with a [`Waker`] (a nonblocking `UnixStream` pair whose read end is
//! registered like any other connection), so flush completions and
//! new-connection handoffs interrupt `wait` by writing one byte.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or peer-closed — a read will observe EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;

    // x86-64 is the one Linux ABI where epoll_event is packed; other
    // architectures lay it out naturally
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    // The libc the Rust standard library already links against; no
    // external crate needed for four syscall wrappers.
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Level-triggered epoll instance (Linux).
    pub struct Poller {
        epfd: RawFd,
        scratch: Vec<EpollEvent>,
    }

    fn interest(readable: bool, writable: bool) -> u32 {
        let mut ev = EPOLLRDHUP;
        if readable {
            ev |= EPOLLIN;
        }
        if writable {
            ev |= EPOLLOUT;
        }
        ev
    }

    impl Poller {
        /// A fresh epoll instance.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes a flags word and returns a new
            // fd or -1; no pointers are involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                scratch: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live, properly laid-out epoll_event for
            // the duration of the call; the kernel copies it out.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Start watching `fd`, reporting readiness under `token`.
        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest(readable, writable), token)
        }

        /// Change the interest set for an already-registered `fd`.
        pub fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest(readable, writable), token)
        }

        /// Stop watching `fd`.
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Block up to `timeout_ms` for readiness, appending events to
        /// `out`. EINTR is retried internally.
        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
            let n = loop {
                // SAFETY: `scratch` is a live buffer of `len` properly
                // initialized epoll_events; the kernel writes at most
                // `len` entries into it.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.scratch.as_mut_ptr(),
                        self.scratch.len() as i32,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.scratch[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    // errors and hangups surface as readable so the next
                    // read observes EOF/ECONNRESET and the loop reaps the
                    // connection through its normal close path
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd is a valid fd owned by this Poller and closed
            // exactly once, here.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Portable `poll(2)` fallback: the registered set is rebuilt into a
    /// pollfd array on every wait. O(n) per wakeup, which is fine for
    /// the non-Linux dev boxes this path exists for.
    pub struct Poller {
        registered: Vec<(RawFd, u64, bool, bool)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Vec::new(),
            })
        }

        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.registered.push((fd, token, readable, writable));
            Ok(())
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            match self.registered.iter_mut().find(|(f, ..)| *f == fd) {
                Some(slot) => {
                    *slot = (fd, token, readable, writable);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.retain(|(f, ..)| *f != fd);
            Ok(())
        }

        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .registered
                .iter()
                .map(|&(fd, _, readable, writable)| PollFd {
                    fd,
                    events: if readable { POLLIN } else { 0 } | if writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let n = loop {
                // SAFETY: `fds` is a live array of fds.len() pollfds; the
                // kernel reads events and writes revents in place.
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if rc >= 0 {
                    break rc;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n > 0 {
                for (pfd, &(_, token, ..)) in fds.iter().zip(&self.registered) {
                    if pfd.revents != 0 {
                        out.push(Event {
                            token,
                            readable: pfd.revents & !POLLOUT != 0,
                            writable: pfd.revents & POLLOUT != 0,
                        });
                    }
                }
            }
            Ok(())
        }
    }
}

pub use sys::Poller;

/// Cross-thread wakeup channel for a [`Poller`]: the read half is
/// registered under a reserved token; any thread holding a clone of the
/// write half interrupts `wait` by writing a byte. Wakeups coalesce —
/// the loop drains the pipe and treats it as "check your queues".
pub struct Waker {
    reader: UnixStream,
    writer: Arc<UnixStream>,
}

impl Waker {
    /// A fresh waker pair, both ends nonblocking.
    pub fn new() -> io::Result<Waker> {
        let (reader, writer) = UnixStream::pair()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        Ok(Waker {
            reader,
            writer: Arc::new(writer),
        })
    }

    /// The fd to register with the poller (readable interest).
    pub fn poll_fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// A handle other threads use to wake the loop.
    pub fn handle(&self) -> WakeHandle {
        WakeHandle {
            writer: self.writer.clone(),
        }
    }

    /// Drain coalesced wakeups (called by the loop when the waker token
    /// reports readable).
    pub fn drain(&mut self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        // a short read emptied the pipe — no second read to be told so;
        // a byte written from now on reports readable again
        while matches!(self.reader.read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

/// The write half of a [`Waker`]. Clones share one descriptor, so
/// handing a handle to another thread or closure is not a system call.
#[derive(Clone)]
pub struct WakeHandle {
    writer: Arc<UnixStream>,
}

impl WakeHandle {
    /// Wake the owning loop. A full pipe means a wakeup is already
    /// pending, which is just as good — the error is ignored.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.writer).write(&[1u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_readable_after_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 7, true, false).unwrap();

        let mut events = Vec::new();
        poller.wait(0, &mut events).unwrap();
        assert!(events.is_empty(), "no data yet: {events:?}");

        client.write_all(b"hi").unwrap();
        let mut events = Vec::new();
        poller.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        poller.deregister(server.as_raw_fd()).unwrap();
        let mut events = Vec::new();
        poller.wait(0, &mut events).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn poller_reports_writable_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 1, false, true).unwrap();
        let mut events = Vec::new();
        poller.wait(1000, &mut events).unwrap();
        // an idle socket's send buffer has room
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        // switch to read interest: no longer writable-reported
        poller.modify(server.as_raw_fd(), 1, true, false).unwrap();
        let mut events = Vec::new();
        poller.wait(0, &mut events).unwrap();
        assert!(!events.iter().any(|e| e.writable));
    }

    #[test]
    fn waker_interrupts_wait() {
        let mut waker = Waker::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(waker.poll_fd(), 0, true, false).unwrap();
        let handle = waker.handle();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            handle.wake();
            handle.wake(); // coalesces
        });
        let mut events = Vec::new();
        poller.wait(5000, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        // both bytes are in the pipe before the one drain
        t.join().unwrap();
        waker.drain();
        // drained: an immediate wait reports nothing
        let mut events = Vec::new();
        poller.wait(0, &mut events).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn peer_close_reports_readable_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 3, true, false).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF observed");
    }
}
