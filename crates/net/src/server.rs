//! The networked frontend: an accept thread and one pool of workers,
//! each of which owns its sockets and runs the requests it reads, in
//! front of any [`Service`].
//!
//! ## Thread model
//!
//! * **1 accept thread** — blocking `accept`, admission-bounded: past
//!   `max_conns` live connections it refuses (closes) new sockets
//!   instead of queueing them. Admitted connections are handed
//!   round-robin to the workers.
//! * **P workers** (`feral-net-worker-N`, `P` = `executors`) — the
//!   paper's pool of single-threaded application servers that share
//!   nothing but the database. A worker owns a [`Poller`] and its
//!   connections outright (no shared connection state, no locks). It
//!   reads a socket, decodes each request and runs [`Service::call`] **on
//!   the spot**, encodes the reply straight into the connection's output
//!   buffer, and writes each touched connection once, at the end of the
//!   turn. A request never changes threads, so a reply that waits for
//!   nothing costs no lock, no `futex` and no waker byte.
//! * **1 flusher** (`feral-net-flush`) — the only thread that sleeps in
//!   an fsync (below).
//!
//! ## Replies leave from the flush completion
//!
//! A worker never sleeps through an fsync. It runs `Service::call`
//! inside [`feral_db::defer_durable`], so a durable commit made anywhere
//! below — behind someone else's `Service` decorator, inside the ORM —
//! comes back as a [`feral_db::PendingCommit`] instead of blocking. The
//! worker encodes the reply and hands it to that commit's callback: the
//! frame is sent when the group-commit flush covering the record
//! completes (ack ⇒ durable and visible), or replaced by an `Error`
//! frame if the flush fails. Parking a commit when no flush is in flight
//! makes the parker the flush leader; the worker declines — the engine
//! hands the duty back as a [`feral_db::FlushLead`], and the worker
//! passes it to the flusher through a one-slot hand-off (a database has
//! at most one lead at a time) **the moment it is returned**: a later
//! request of the same read may wait on a row lock the parked commit
//! holds until its flush completes, so a lead kept to the end of the
//! read would be waited for by the thread that holds it. The flusher
//! writes batch after batch while the workers keep executing, so one
//! fsync covers every request that committed during the previous one. A
//! request with no durable commit (reads, WAL off) completes at once.
//!
//! ## The one cross-thread path
//!
//! Flush completions (and sockets from the accept thread) reach a worker
//! through its inbox — a mutex over the completions and handed-over
//! sockets waiting for it — and one `wake_pending` flag. A sender pushes
//! under the inbox lock, then swaps the flag to `true` and writes the
//! waker byte only if it was `false`: the first completion after the
//! worker last looked pays the `write`, the rest of the batch — the
//! fourteen tails one fsync completes, say — pay an uncontended lock
//! each.
//!
//! The worker's side of the inbox protocol is ordered *drain the waker,
//! clear the flag, then take the inbox*. Take a completion pushed at any
//! moment. If its sender found the flag `false`, it wrote a byte after
//! the drain that preceded the clear, so the next `wait` returns at once.
//! If it found the flag `true`, its push — which came before its swap —
//! is ordered before the worker's next clear by the flag's modification
//! order, and the worker takes the inbox lock only after that clear, so
//! the take sees the push. (Clearing *after* the take would let a push
//! land between the two, find `true`, write nothing, and wait for the
//! 100 ms poll timeout; `tests/coalescing.rs` fails on that mutation.)
//! The timeout survives as a backstop, and a timed-out turn takes the
//! inbox too.
//!
//! [`ServerMetrics`] reports the budget as counts: `reply_writes`,
//! `wakes` and `socket_reads`, to be read against `served`.
//!
//! ## Backpressure rules (the overload contract)
//!
//! 1. **Bounded accept** — more than `max_conns` live connections:
//!    refused at the door, counted in `refused_conns`.
//! 2. **Per-connection replies owed** — `inflight` replies of one
//!    connection not yet written to its socket (parked on a flush, or
//!    buffered behind a client that does not read): the next request is
//!    answered [`Response::Overloaded`] without running, counted in
//!    `shed_inflight`.
//! 3. **Bounded parking** — `queue` replies parked on a flush across the
//!    whole server (a request decoded and not yet answered is, now,
//!    exactly that): the next request is answered
//!    [`Response::Overloaded`] without running, counted in `shed_queue`.
//!    Workers check the count without a lock, so it can overshoot by one
//!    request per worker.
//!
//! Load-shed responses are generated before any application code runs —
//! no database work, nothing to undo — which is what makes
//! [`Response::Overloaded`] unconditionally safe to retry. What the
//! rules do not bound is a slow [`Service::call`]: it stalls every
//! connection of the worker that runs it, and no other — exactly what a
//! slow request does to a Unicorn worker.
//!
//! A parked reply whose connection died before its flush completed is
//! discarded and counted in `dropped_replies` (the commit stands):
//! exactly the paper's dubious-ack window, observable instead of silent.
//! The count stays exact through shutdown: a reply still in a worker's
//! inbox when the worker exits, or sent after, is a dropped reply.

use crate::reactor::{Event, Poller, WakeHandle, Waker};
use crate::wire;
use feral_db::{FlushLead, PendingCommit};
use feral_orm::OrmError;
use feral_server::{Response, Service};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Poller token reserved for the worker's waker.
const WAKER_TOKEN: u64 = 0;

/// Most bytes one socket read takes. A read that fills it is followed by
/// another; a shorter one emptied the socket.
const READ_CHUNK: usize = 16 * 1024;

/// Server shape knobs. The defaults are what `benchmark/` and the tests
/// run; `loadbench` sets its own.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker count: the threads that own sockets and run
    /// `Service::call`, so also the bound on concurrent calls — not on
    /// commits awaiting a flush: those are parked on the flush, not on a
    /// worker.
    pub executors: usize,
    /// Live-connection admission bound.
    pub max_conns: usize,
    /// Server-wide bound on replies parked on a flush.
    pub queue: usize,
    /// Per-connection bound on replies not yet written.
    pub inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            executors: 4,
            max_conns: 1024,
            queue: 1024,
            inflight: 64,
        }
    }
}

/// Monotonic counters, updated with relaxed ordering (sums, not
/// synchronization).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections admitted.
    pub accepted: AtomicU64,
    /// Connections refused at the admission bound.
    pub refused_conns: AtomicU64,
    /// Responses written back (includes sheds). Added once per worker
    /// turn, before the turn's replies are written.
    pub served: AtomicU64,
    /// Requests shed at the server-wide parked-reply bound.
    pub shed_queue: AtomicU64,
    /// Requests shed at the per-connection unwritten-reply bound.
    pub shed_inflight: AtomicU64,
    /// Parked replies whose connection died before the flush completed.
    pub dropped_replies: AtomicU64,
    /// Connections dropped for protocol violations (bad frame/payload).
    pub protocol_errors: AtomicU64,
    /// `write` calls made on client sockets to send replies.
    pub reply_writes: AtomicU64,
    /// Waker bytes written to interrupt a worker's `wait`.
    pub wakes: AtomicU64,
    /// `read` calls made on client sockets.
    pub socket_reads: AtomicU64,
}

impl ServerMetrics {
    /// Total requests shed under overload (both shed layers).
    pub fn total_shed(&self) -> u64 {
        self.shed_queue.load(Ordering::Relaxed) + self.shed_inflight.load(Ordering::Relaxed)
    }
}

/// A reply that left from a flush completion, on its way to the worker
/// that owns its connection.
struct Completion {
    conn: u64,
    frame: Vec<u8>,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Replies parked on a flush.
    parked: usize,
    /// Replies in `outbuf` (sheds apart); zero again once it is written
    /// out. With `parked`, what rule 2 bounds.
    buffered: usize,
    write_interest: bool,
    /// Listed in the turn's dirty set: flushed when the turn ends.
    dirty: bool,
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// threads; tests and binaries should shut down explicitly.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    ports: Arc<Ports>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    flusher_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the thread complement, and start serving `service`.
    pub fn start(service: Arc<dyn Service>, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let active_conns = Arc::new(AtomicUsize::new(0));

        // one port per worker: its inbox, and the waker that makes the
        // inbox visible to it
        let wakers = (0..config.executors.max(1))
            .map(|_| Waker::new())
            .collect::<std::io::Result<Vec<Waker>>>()?;
        let ports = Arc::new(Ports {
            workers: wakers
                .iter()
                .map(|waker| WorkerPort {
                    inbox: Mutex::new(Inbox::default()),
                    wake_pending: AtomicBool::new(false),
                    waker: waker.handle(),
                })
                .collect(),
            metrics: metrics.clone(),
            parked: AtomicUsize::new(0),
            flusher: Flusher::default(),
        });

        let mut worker_handles = Vec::new();
        for (worker_id, waker) in wakers.into_iter().enumerate() {
            let ctx = WorkerCtx {
                worker_id,
                waker,
                service: service.clone(),
                ports: ports.clone(),
                metrics: metrics.clone(),
                shutdown: shutdown.clone(),
                active_conns: active_conns.clone(),
                inflight_cap: config.inflight.max(1),
                parked_cap: config.queue.max(1),
                chunk: vec![0u8; READ_CHUNK],
            };
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("feral-net-worker-{worker_id}"))
                    .spawn(move || worker(ctx))?,
            );
        }
        let flusher_handle = {
            let ports = ports.clone();
            std::thread::Builder::new()
                .name("feral-net-flush".into())
                .spawn(move || ports.flusher.run())?
        };
        let accept_handle = {
            let ports = ports.clone();
            let shutdown = shutdown.clone();
            let max_conns = config.max_conns.max(1);
            std::thread::Builder::new()
                .name("feral-net-accept".into())
                .spawn(move || accept_loop(listener, ports, shutdown, active_conns, max_conns))?
        };

        Ok(Server {
            local_addr,
            shutdown,
            ports,
            accept_handle: Some(accept_handle),
            worker_handles,
            flusher_handle: Some(flusher_handle),
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.ports.metrics
    }

    /// Stop accepting, close every connection, and join all threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // unblock the accept thread with a throwaway connection
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for port in &self.ports.workers {
            port.waker.wake();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // no worker is left to hand a lead over; the flusher finishes the
        // one it has, then observes close
        self.ports.flusher.close();
        if let Some(h) = self.flusher_handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    ports: Arc<Ports>,
    shutdown: Arc<AtomicBool>,
    active_conns: Arc<AtomicUsize>,
    max_conns: usize,
) {
    let metrics = &ports.metrics;
    // conn ids are poller tokens; 0 is the waker's
    let mut next_conn: u64 = 1;
    let mut rr = 0usize;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if active_conns.load(Ordering::Relaxed) >= max_conns {
            // bounded accept: refuse instead of queueing — the client
            // sees a clean close before any request is read
            metrics.refused_conns.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        active_conns.fetch_add(1, Ordering::Relaxed);
        metrics.accepted.fetch_add(1, Ordering::Relaxed);
        let id = next_conn;
        next_conn += 1;
        if !ports.post(rr, |inbox| inbox.sockets.push((id, stream))) {
            // the worker is gone and the socket with it
            active_conns.fetch_sub(1, Ordering::Relaxed);
        }
        rr = (rr + 1) % ports.workers.len();
    }
}

/// What other threads have left for one worker since it last looked.
#[derive(Default)]
struct Inbox {
    completions: Vec<Completion>,
    sockets: Vec<(u64, TcpStream)>,
    /// The worker has exited; nothing posted from now on will be seen.
    closed: bool,
}

/// One worker as its senders see it.
// racer:terminal net::WorkerPort::inbox
struct WorkerPort {
    inbox: Mutex<Inbox>,
    /// `true` from the first post after the worker last looked until the
    /// worker clears it: while it is set, a waker byte is in the pipe or
    /// about to be, and no sender writes another (module docs).
    // racer:publication net::WorkerPort::wake_pending
    wake_pending: AtomicBool,
    waker: WakeHandle,
}

/// What the server's threads share: the way to every worker — from the
/// accept thread or a flush completion — and the way to the flusher.
/// Shared by `Arc`: building a reply's callback clones one pointer and
/// makes no system call.
struct Ports {
    workers: Vec<WorkerPort>,
    metrics: Arc<ServerMetrics>,
    /// Replies parked on a flush, server-wide: what rule 3 bounds.
    parked: AtomicUsize,
    flusher: Flusher,
}

impl Ports {
    /// Put something in a worker's inbox, then make sure the worker will
    /// look: the waker byte is written on the flag's `false → true` edge
    /// only. `false` (and `put` not run) when the worker has exited.
    fn post(&self, worker_id: usize, put: impl FnOnce(&mut Inbox)) -> bool {
        let port = &self.workers[worker_id];
        {
            let mut inbox = port.inbox.lock();
            if inbox.closed {
                return false;
            }
            put(&mut inbox);
        }
        // AcqRel: acquires the worker's Release clear (so the byte below
        // is written after the drain that preceded it) and orders this
        // swap after the push above for the worker's next clear-then-take
        if !port.wake_pending.swap(true, Ordering::AcqRel) {
            self.metrics.wakes.fetch_add(1, Ordering::Relaxed);
            port.waker.wake();
        }
        true
    }

    /// Route a parked reply, its flush complete, to the worker that owns
    /// its connection.
    fn reply(&self, worker_id: usize, conn: u64, frame: Vec<u8>) {
        self.parked.fetch_sub(1, Ordering::Relaxed);
        if !self.post(worker_id, |inbox| {
            inbox.completions.push(Completion { conn, frame })
        }) {
            self.metrics.dropped_replies.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The hand-off to the `feral-net-flush` thread: one slot, because a
/// database has one flush lead at a time.
// racer:terminal net::Flusher::slot
#[derive(Default)]
struct Flusher {
    slot: Mutex<FlushSlot>,
    handed: Condvar,
}

#[derive(Default)]
struct FlushSlot {
    lead: Option<FlushLead>,
    /// The server is shutting down: the flusher leaves once the slot is
    /// empty.
    closed: bool,
}

impl Flusher {
    /// Give `lead` to the flusher thread. A lead that finds the slot
    /// taken (the service spans a second database) or the flusher gone is
    /// run here, as by any caller that parks a commit and keeps the lead.
    fn hand(&self, lead: FlushLead) {
        let mut slot = self.slot.lock();
        if slot.closed || slot.lead.is_some() {
            drop(slot);
            return lead.run();
        }
        slot.lead = Some(lead);
        drop(slot);
        self.handed.notify_one();
    }

    /// The flusher thread: run each lead handed over, outside the slot's
    /// lock, until closed.
    fn run(&self) {
        let mut slot = self.slot.lock();
        loop {
            if let Some(lead) = slot.lead.take() {
                drop(slot);
                lead.run();
                slot = self.slot.lock();
            } else if slot.closed {
                return;
            } else {
                self.handed.wait(&mut slot);
            }
        }
    }

    fn close(&self) {
        self.slot.lock().closed = true;
        self.handed.notify_one();
    }
}

struct WorkerCtx {
    worker_id: usize,
    waker: Waker,
    service: Arc<dyn Service>,
    ports: Arc<Ports>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
    active_conns: Arc<AtomicUsize>,
    inflight_cap: usize,
    parked_cap: usize,
    /// Socket-read scratch, zeroed once.
    chunk: Vec<u8>,
}

impl WorkerCtx {
    /// The reply of a request whose commit awaits its flush: `frame`
    /// leaves from the flush completion, on whichever thread that is, and
    /// comes back through this worker's inbox.
    fn park(&self, conn: u64, request_id: u64, frame: Vec<u8>, pending: PendingCommit) {
        self.ports.parked.fetch_add(1, Ordering::Relaxed);
        let (ports, worker_id) = (self.ports.clone(), self.worker_id);
        let lead = pending.on_complete(move |durable| {
            let frame = match durable {
                Ok(()) => frame,
                Err(e) => wire::encode_response(request_id, &Response::Error(OrmError::Db(e))),
            };
            ports.reply(worker_id, conn, frame);
        });
        // at once (module docs): the read's next request may need a lock
        // this commit holds until the flush completes
        if let Some(lead) = lead {
            self.ports.flusher.hand(lead);
        }
    }
}

/// What one worker turn accumulates and settles once, at its end.
#[derive(Default)]
struct Turn {
    /// Replies appended to output buffers (sheds included).
    served: u64,
    /// Connections with output to write.
    dirty: Vec<u64>,
}

impl Turn {
    fn mark(&mut self, token: u64, conn: &mut Conn) {
        if !conn.dirty {
            conn.dirty = true;
            self.dirty.push(token);
        }
    }
}

fn worker(mut ctx: WorkerCtx) {
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    if poller
        .register(ctx.waker.poll_fd(), WAKER_TOKEN, true, false)
        .is_err()
    {
        return;
    }
    let ports = ctx.ports.clone();
    let port = &ports.workers[ctx.worker_id];
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut turn = Turn::default();
    // the worker's side of the inbox swap: the vectors trade places with
    // the shared ones, so both keep their capacity
    let mut completions: Vec<Completion> = Vec::new();
    let mut sockets: Vec<(u64, TcpStream)> = Vec::new();

    loop {
        events.clear();
        if poller.wait(100, &mut events).is_err() {
            break;
        }
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }

        // 1. the inbox — drain, clear, *then* take (module docs) — before
        // the sockets, so a completed reply stops counting against its
        // connection before the turn's requests are admitted. A timed-out
        // turn looks too: the backstop for a wake-up lost to a bug costs
        // a lock every 100 ms of silence.
        let woken = events.iter().any(|ev| ev.token == WAKER_TOKEN);
        if woken || events.is_empty() {
            if woken {
                ctx.waker.drain();
            }
            // Release: pairs with the senders' AcqRel swap
            port.wake_pending.store(false, Ordering::Release);
            {
                let mut inbox = port.inbox.lock();
                std::mem::swap(&mut inbox.completions, &mut completions);
                std::mem::swap(&mut inbox.sockets, &mut sockets);
            }
            for (id, stream) in sockets.drain(..) {
                if poller.register(stream.as_raw_fd(), id, true, false).is_ok() {
                    conns.insert(
                        id,
                        Conn {
                            stream,
                            inbuf: Vec::new(),
                            outbuf: Vec::new(),
                            parked: 0,
                            buffered: 0,
                            write_interest: false,
                            dirty: false,
                        },
                    );
                } else {
                    ctx.active_conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
            let mut dropped = 0u64;
            for done in completions.drain(..) {
                match conns.get_mut(&done.conn) {
                    Some(conn) => {
                        conn.parked -= 1;
                        conn.buffered += 1;
                        conn.outbuf.extend_from_slice(&done.frame);
                        turn.served += 1;
                        turn.mark(done.conn, conn);
                    }
                    // the connection died while its commit awaited the
                    // flush: the paper's dubious-ack window, made countable
                    None => dropped += 1,
                }
            }
            if dropped > 0 {
                ctx.metrics
                    .dropped_replies
                    .fetch_add(dropped, Ordering::Relaxed);
            }
        }

        // 2. socket readiness: decode and run what arrived
        for ev in events.iter().copied() {
            if ev.token == WAKER_TOKEN {
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            if ev.readable && read_ready(&mut ctx, &mut turn, ev.token, conn) {
                if conn.dirty {
                    // replies the turn already counted as served still go out
                    flush(&mut poller, &ctx.metrics, ev.token, conn);
                }
                let _ = poller.deregister(conn.stream.as_raw_fd());
                conns.remove(&ev.token);
                ctx.active_conns.fetch_sub(1, Ordering::Relaxed);
            } else if ev.writable {
                turn.mark(ev.token, conn);
            }
        }

        // 3. one count and one write per touched connection
        if turn.served > 0 {
            ctx.metrics.served.fetch_add(turn.served, Ordering::Relaxed);
            turn.served = 0;
        }
        for token in turn.dirty.drain(..) {
            if let Some(conn) = conns.get_mut(&token) {
                conn.dirty = false;
                flush(&mut poller, &ctx.metrics, token, conn);
            }
        }
    }

    // teardown: every owned connection closes, and so does the inbox —
    // what is in it now, and whatever a flush completion still sends, is
    // a dropped reply
    let mut inbox = port.inbox.lock();
    inbox.closed = true;
    ctx.metrics
        .dropped_replies
        .fetch_add(inbox.completions.len() as u64, Ordering::Relaxed);
    ctx.active_conns
        .fetch_sub(conns.len() + inbox.sockets.len(), Ordering::Relaxed);
    inbox.completions.clear();
    inbox.sockets.clear();
}

/// Read what the socket holds, decode every complete frame and run its
/// request to completion. Returns `true` when the connection is finished
/// (EOF, error, protocol violation).
fn read_ready(ctx: &mut WorkerCtx, turn: &mut Turn, conn_id: u64, conn: &mut Conn) -> bool {
    loop {
        ctx.metrics.socket_reads.fetch_add(1, Ordering::Relaxed);
        match conn.stream.read(&mut ctx.chunk) {
            Ok(0) => return true,
            Ok(n) => {
                conn.inbuf.extend_from_slice(&ctx.chunk[..n]);
                // a short read emptied the socket: a second one would
                // only fetch EAGAIN, and level-triggered readiness
                // reports anything that arrives from now on
                if n < ctx.chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }

    // walk the buffer with a cursor; the consumed prefix is drained once
    let mut dead = false;
    let mut at = 0usize;
    loop {
        let rest = &conn.inbuf[at..];
        let decoded = wire::frame_at(rest).and_then(|frame| match frame {
            Some((payload, used)) => {
                at += used;
                wire::decode_request(&rest[payload]).map(Some)
            }
            None => Ok(None),
        });
        let (request_id, request) = match decoded {
            Ok(Some(r)) => r,
            Ok(None) => break,
            Err(_) => {
                // what was decoded before the bad frame has run
                ctx.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                dead = true;
                break;
            }
        };
        // backpressure rules 2 and 3
        let refused = if conn.parked + conn.buffered >= ctx.inflight_cap {
            Some(&ctx.metrics.shed_inflight)
        } else if ctx.ports.parked.load(Ordering::Relaxed) >= ctx.parked_cap {
            Some(&ctx.metrics.shed_queue)
        } else {
            None
        };
        if let Some(shed) = refused {
            shed.fetch_add(1, Ordering::Relaxed);
            turn.served += 1;
            wire::encode_response_into(&mut conn.outbuf, request_id, &Response::Overloaded);
            continue;
        }
        let (response, pending) = feral_db::defer_durable(|| ctx.service.call(request));
        match pending {
            None => {
                turn.served += 1;
                conn.buffered += 1;
                wire::encode_response_into(&mut conn.outbuf, request_id, &response);
            }
            Some(pending) => {
                conn.parked += 1;
                let frame = wire::encode_response(request_id, &response);
                ctx.park(conn_id, request_id, frame, pending);
            }
        }
    }
    conn.inbuf.drain(..at);
    if !dead && !conn.outbuf.is_empty() {
        turn.mark(conn_id, conn);
    }
    dead
}

/// Write as much pending output as the socket accepts, keeping write
/// interest registered exactly while output is pending.
fn flush(poller: &mut Poller, metrics: &ServerMetrics, token: u64, conn: &mut Conn) {
    let mut written = 0usize;
    while written < conn.outbuf.len() {
        metrics.reply_writes.fetch_add(1, Ordering::Relaxed);
        match conn.stream.write(&conn.outbuf[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    if written > 0 {
        conn.outbuf.drain(..written);
    }
    let want_write = !conn.outbuf.is_empty();
    if !want_write {
        conn.buffered = 0;
    }
    if want_write != conn.write_interest {
        let fd = conn.stream.as_raw_fd();
        if poller.modify(fd, token, true, want_write).is_ok() {
            conn.write_interest = want_write;
        }
    }
}
