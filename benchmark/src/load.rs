//! The load generator: one thread per connection (or per in-process
//! caller), each both sending and receiving, so the generator never
//! runs more than [`crate::gen::NPROC`] threads.
//!
//! Wire phases drive one nonblocking socket from one thread: it sleeps
//! in `ppoll` until the next request is due or a reply arrives. In an
//! open-loop phase a request's clock starts when it was *due*, so a
//! stall is charged to every request it delayed.

use crate::gen::{self, Spec, ThreadPlan};
use crate::sys::{now_ns, wait_fd};
use feral_net::wire;
use feral_server::{Response, Service};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;

/// How long a phase waits for replies that never come before counting
/// them lost.
const LOST_AFTER_NS: u64 = 10_000_000_000;

/// What became of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No reply arrived.
    Lost,
    /// The reply the request should get (`Invalid` for a taken e-mail
    /// is one).
    Correct,
    /// Shed by the server's backpressure (`Overloaded`).
    Shed,
    /// An error reply.
    Error,
    /// A reply of the wrong kind or with the wrong content.
    Wrong,
}

/// Everything one generator thread recorded in one phase, indexed like
/// the thread's specs.
pub struct Log {
    /// When each request was due (open loop) or its slot came free.
    pub due: Vec<u64>,
    /// Just before the write (or call) that issued it; 0 = not stamped.
    pub sent: Vec<u64>,
    /// When its reply was decoded (or the call returned); 0 = none.
    pub recv: Vec<u64>,
    /// What came back.
    pub outcome: Vec<Outcome>,
    /// `(index, id)` of every `Created` reply.
    pub created: Vec<(u32, i64)>,
    /// Requests in flight on the connection right after each send.
    pub outstanding: Vec<u16>,
    /// Up to `keep_replies` replies, for the codec ledger.
    pub replies: Vec<Response>,
    keep_replies: usize,
}

impl Log {
    /// An empty log for `n` requests that keeps the first
    /// `keep_replies` replies.
    pub fn new(n: usize, keep_replies: usize) -> Log {
        Log {
            due: vec![0; n],
            sent: vec![0; n],
            recv: vec![0; n],
            outcome: vec![Outcome::Lost; n],
            created: Vec::new(),
            outstanding: vec![0; n],
            replies: Vec::new(),
            keep_replies,
        }
    }

    fn reply(&mut self, i: usize, spec: &Spec, response: Response, seed: u64, at: u64) {
        self.recv[i] = at;
        self.outcome[i] = judge(spec, &response, seed);
        if let Response::Created(id) = response {
            self.created.push((i as u32, id));
        }
        if self.replies.len() < self.keep_replies {
            self.replies.push(response);
        }
    }
}

/// Check a reply against the request it answers.
pub fn judge(spec: &Spec, response: &Response, seed: u64) -> Outcome {
    match (spec, response) {
        (_, Response::Overloaded) => Outcome::Shed,
        (_, Response::Error(_)) => Outcome::Error,
        (Spec::Get { id }, Response::Found(record)) => {
            let want = gen::preload_email(seed, *id as u64 - 1);
            let got = record.get("email");
            let same_row = record.id() == Some(*id);
            if same_row && got.as_text().and_then(gen::email_key) == Some(want) {
                Outcome::Correct
            } else {
                Outcome::Wrong
            }
        }
        (Spec::Post { .. }, Response::Created(_) | Response::Invalid(_)) => Outcome::Correct,
        (Spec::Template { .. }, Response::Ok) => Outcome::Correct,
        _ => Outcome::Wrong,
    }
}

/// One nonblocking client connection.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off, then go nonblocking.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbuf: Vec::with_capacity(64 * 1024),
            outbuf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Write queued output until it is gone or the socket is full.
    fn flush(&mut self) -> std::io::Result<()> {
        let mut written = 0;
        while written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.outbuf.drain(..written);
        Ok(())
    }

    /// Sleep until a reply can be read (or queued output written), at
    /// most `timeout_ns`; then write and read whatever is possible.
    fn pump(&mut self, timeout_ns: u64) -> std::io::Result<()> {
        let ready = wait_fd(self.stream.as_raw_fd(), !self.outbuf.is_empty(), timeout_ns);
        if ready.writable {
            self.flush()?;
        }
        if !ready.readable {
            return Ok(());
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete reply, decoded.
    fn next_reply(&mut self) -> std::io::Result<Option<(u64, Response)>> {
        let bad = |e: wire::WireError| std::io::Error::new(ErrorKind::InvalidData, e.to_string());
        match wire::take_frame(&mut self.inbuf).map_err(bad)? {
            Some(payload) => wire::decode_response(&payload).map(Some).map_err(bad),
            None => Ok(None),
        }
    }
}

/// Most requests an open loop lets one connection have in flight: a
/// generator that wakes late from a stall would otherwise send its whole
/// backlog at once, past the server's per-connection cap of 64, and be
/// shed. A held request is still timed from when it was due.
pub const OPEN_LOOP_WINDOW: usize = 48;

/// Drive one thread's share of a wire phase over `conn`. `start_ns` is
/// the phase's common start; `depth` is `None` for an open loop (the
/// plan's schedule decides when to send) or the number of requests to
/// keep in flight. Replies that never arrive stay [`Outcome::Lost`].
pub fn run_wire(
    conn: &mut Conn,
    plan: &ThreadPlan,
    depth: Option<usize>,
    start_ns: u64,
    seed: u64,
    log: &mut Log,
) -> std::io::Result<()> {
    let n = plan.specs.len();
    let (mut next, mut done) = (0usize, 0usize);
    let mut last_progress = now_ns();
    while done < n {
        let now = now_ns();
        // what may be sent now
        let sendable = |next: usize, done: usize| match depth {
            Some(depth) => next - done < depth,
            None => start_ns + plan.due_ns[next] <= now && next - done < OPEN_LOOP_WINDOW,
        };
        let first = next;
        while next < n && sendable(next, done) {
            let seq = plan.base_seq + next as u64;
            let frame = wire::encode_request(seq, &gen::request(&plan.specs[next], seq))
                .expect("generated requests carry no closure");
            conn.outbuf.extend_from_slice(&frame);
            log.due[next] = match depth {
                Some(_) => now,
                None => start_ns + plan.due_ns[next],
            };
            next += 1;
            log.outstanding[next - 1] = (next - done) as u16;
        }
        if next > first {
            let stamp = now_ns();
            log.sent[first..next].fill(stamp);
            conn.flush()?;
        }
        let timeout_ns = match depth {
            None if next < n && next - done < OPEN_LOOP_WINDOW => {
                (start_ns + plan.due_ns[next]).saturating_sub(now_ns())
            }
            _ => 100_000_000,
        };
        conn.pump(timeout_ns)?;
        while let Some((seq, response)) = conn.next_reply()? {
            let i = seq.wrapping_sub(plan.base_seq) as usize;
            if i >= n || log.recv[i] != 0 {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("reply for a request never sent or already answered: {seq}"),
                ));
            }
            log.reply(i, &plan.specs[i], response, seed, now_ns());
            done += 1;
            last_progress = now_ns();
        }
        if now_ns() - last_progress > LOST_AFTER_NS && next - done > 0 {
            break;
        }
    }
    Ok(())
}

/// Drive one in-process caller: `plan`'s requests back to back through
/// `service`. Every `sample_every`-th call is timed (1 = all of them).
pub fn run_inproc(
    service: &dyn Service,
    plan: &ThreadPlan,
    sample_every: usize,
    seed: u64,
    log: &mut Log,
) {
    for (i, spec) in plan.specs.iter().enumerate() {
        let seq = plan.base_seq + i as u64;
        let timed = i % sample_every == 0;
        let due = if timed { now_ns() } else { 0 };
        let request = gen::request(spec, seq);
        let sent = if timed { now_ns() } else { 0 };
        let response = service.call(request);
        let recv = if timed { now_ns() } else { 0 };
        log.due[i] = due;
        log.sent[i] = sent;
        log.reply(i, spec, response, seed, recv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_orm::OrmError;

    #[test]
    fn judge_accepts_only_the_reply_a_request_should_get() {
        let post = Spec::Post { email: 1 };
        assert_eq!(judge(&post, &Response::Created(5), 0), Outcome::Correct);
        assert_eq!(
            judge(&post, &Response::Invalid(vec!["taken".into()]), 0),
            Outcome::Correct
        );
        assert_eq!(judge(&post, &Response::Overloaded, 0), Outcome::Shed);
        assert_eq!(judge(&post, &Response::NotFound, 0), Outcome::Wrong);
        assert_eq!(
            judge(&post, &Response::Error(OrmError::Config("x".into())), 0),
            Outcome::Error
        );
        let get = Spec::Get { id: 3 };
        assert_eq!(judge(&get, &Response::NotFound, 0), Outcome::Wrong);
        assert_eq!(judge(&get, &Response::Created(3), 0), Outcome::Wrong);
        let template = Spec::Template {
            template: 0,
            key: 1,
        };
        assert_eq!(judge(&template, &Response::Ok, 0), Outcome::Correct);
        assert_eq!(judge(&template, &Response::Destroyed, 0), Outcome::Wrong);
    }
}
