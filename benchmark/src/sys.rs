//! The few things the standard library has no call for: a poll with a
//! sub-millisecond timeout, the timer slack that bounds how late such a
//! poll wakes, process-wide CPU time and context switches, and the
//! kernel's own per-process counters under `/proc/self`.
//!
//! Linux only, like the epoll reactor the server under test runs on.

use std::os::fd::RawFd;
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux: two timevals, then
/// fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_longs: [i64; 14],
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: i32 = 29;
const RUSAGE_SELF: i32 = 0;
/// Positions of `ru_nvcsw` / `ru_nivcsw` among the fourteen longs.
const RU_NVCSW: usize = 12;
const RU_NIVCSW: usize = 13;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Nanoseconds since the process-wide epoch every span is stamped
/// against (first call wins; `main` calls it first thing).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a [`wait_fd`] call found.
#[derive(Clone, Copy, Default)]
pub struct Ready {
    /// Bytes (or EOF, or an error) are waiting to be read.
    pub readable: bool,
    /// The socket accepts more output.
    pub writable: bool,
}

/// Block until `fd` is readable (or writable, when `want_write`), or
/// until `timeout_ns` passes.
pub fn wait_fd(fd: RawFd, want_write: bool, timeout_ns: u64) -> Ready {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `pfd` and `ts` are live, correctly laid-out values for the
    // whole call, nfds matches the one entry passed, and a null signal
    // mask is documented to mean "leave the mask alone".
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc <= 0 {
        // timeout, or EINTR: the caller loops on its own clock either way
        return Ready::default();
    }
    Ready {
        // POLLERR/POLLHUP surface through the next read
        readable: pfd.revents & !POLLOUT != 0,
        writable: pfd.revents & POLLOUT != 0,
    }
}

/// Ask for 1 µs timer slack on the calling thread (the default 50 µs
/// would add that much to every paced send). Best effort.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and touches only the calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000u64);
    }
}

/// Process-wide resource usage so far.
#[derive(Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU time of every thread, microseconds.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches of every thread.
    pub ctx_switches: u64,
    /// `read`- and `write`-family system calls (`/proc/self/io`).
    pub rw_syscalls: u64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` of the layout
        // the kernel fills in; RUSAGE_SELF needs no other argument.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        let (cpu_us, ctx_switches) = if rc == 0 {
            let tv = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
            (
                tv(&ru.ru_utime) + tv(&ru.ru_stime),
                (ru.ru_longs[RU_NVCSW] + ru.ru_longs[RU_NIVCSW]) as u64,
            )
        } else {
            (0, 0)
        };
        let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let rw_syscalls = proc_field(&io, "syscr:") + proc_field(&io, "syscw:");
        Usage {
            cpu_us,
            ctx_switches,
            rw_syscalls,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us - earlier.cpu_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            rw_syscalls: self.rw_syscalls - earlier.rw_syscalls,
        }
    }
}

/// Peak resident set so far (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    proc_field(&status, "VmHWM:") as f64 / 1024.0
}

/// The first integer after `key` in a `/proc` "key: value" listing.
fn proc_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_field_reads_both_listing_styles() {
        assert_eq!(
            proc_field("VmPeak:\t 10 kB\nVmHWM:\t  2048 kB\n", "VmHWM:"),
            2048
        );
        assert_eq!(proc_field("rchar: 1\nsyscr: 77\nsyscw: 5\n", "syscr:"), 77);
        assert_eq!(proc_field("syscr: 77\n", "missing:"), 0);
    }

    #[test]
    fn usage_and_clock_move_forward() {
        let (t0, u0) = (now_ns(), Usage::now());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let (t1, u1) = (now_ns(), Usage::now());
        assert!(t1 > t0);
        assert!(u1.since(&u0).cpu_us > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
