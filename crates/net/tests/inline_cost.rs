//! What a reply that waits for nothing costs the wire tier: a `GET` with
//! the WAL off is read, run and answered by one worker, so it crosses no
//! thread boundary — no inbox lock, no waker byte — shares its socket
//! read and its socket write with the rest of its batch, and allocates
//! nothing for its reply, which is encoded straight into the connection's
//! output buffer.
//!
//! Before the pools were merged the same `GET` was carried to an executor
//! and back: a `Job` pushed on the dispatch queue, a reply encoded into a
//! payload `Vec` and copied into a frame `Vec`, a completion pushed on
//! the loop's inbox, and a waker byte per batch of completions (`wakes` ≈
//! 0.13 per request at 2×16 in flight). The wire tier's own allocations
//! per `GET` were three — the decoded model name and the two reply
//! vectors; one is left.

#[path = "../../core/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::{allocations, allocations_of};
use feral_db::{Config, Database, Datum};
use feral_net::wire;
use feral_net::{Server, ServerConfig};
use feral_orm::{App, ModelDef};
use feral_server::{PooledService, Request, Response, Service};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts, on whichever thread calls it (the server's one worker), the
/// allocations made inside the wrapped call and the thread's total from
/// the first call to the end of the last.
struct Probe {
    inner: PooledService,
    calls: AtomicU64,
    inside: AtomicU64,
    first_at: AtomicU64,
    last_at: AtomicU64,
}

impl Service for Probe {
    fn call(&self, request: Request) -> Response {
        if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
            self.first_at.store(allocations(), Ordering::Relaxed);
        }
        let mut response = Response::NotFound;
        let inside = allocations_of(|| response = self.inner.call(request));
        self.inside.fetch_add(inside, Ordering::Relaxed);
        self.last_at.store(allocations(), Ordering::Relaxed);
        response
    }
}

#[test]
fn an_inline_reply_makes_no_hand_off_and_allocates_no_frame() {
    const USERS: i64 = 8;
    const DEPTH: u64 = 16;
    const ROUNDS: u64 = 500;
    const SENT: u64 = DEPTH * ROUNDS;
    let app = App::new(Database::open(Config::default()).unwrap());
    app.define(ModelDef::build("User").string("email").finish())
        .unwrap();
    let inner = PooledService::new(app, 1);
    for n in 0..USERS {
        let signup = Request::builder("User")
            .attr("email", Datum::text(format!("u{n}@example.com")))
            .create();
        assert!(matches!(inner.call(signup), Response::Created(_)));
    }
    let probe = Arc::new(Probe {
        inner,
        calls: AtomicU64::new(0),
        inside: AtomicU64::new(0),
        first_at: AtomicU64::new(0),
        last_at: AtomicU64::new(0),
    });
    let server = Server::start(
        probe.clone(),
        ServerConfig {
            executors: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let m = server.metrics();
    // the accept thread's hand-over of the socket is the last wake there is
    let deadline = Instant::now() + Duration::from_secs(10);
    while m.wakes.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "the connection never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    let wakes_before = m.wakes.load(Ordering::Relaxed);

    // sixteen pipelined GETs to a write, each batch answered before the next
    let (mut inbuf, mut chunk) = (Vec::new(), [0u8; 8192]);
    for round in 0..ROUNDS {
        let batch: Vec<u8> = (round * DEPTH..(round + 1) * DEPTH)
            .flat_map(|id| {
                let get = Request::builder("User").get(1 + (id as i64) % USERS);
                wire::encode_request(id, &get).unwrap()
            })
            .collect();
        conn.write_all(&batch).unwrap();
        let mut answered = 0;
        while answered < DEPTH {
            let got = conn.read(&mut chunk).unwrap();
            assert!(got > 0, "server closed early");
            inbuf.extend_from_slice(&chunk[..got]);
            while let Some(payload) = wire::take_frame(&mut inbuf).unwrap() {
                let (_, response) = wire::decode_response(&payload).unwrap();
                assert!(matches!(response, Response::Found(_)), "{response:?}");
                answered += 1;
            }
        }
    }

    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    assert_eq!(load(&m.served), SENT);
    assert_eq!(
        load(&m.wakes) - wakes_before,
        0,
        "an inline reply wakes nobody"
    );
    for (name, calls) in [
        ("reply_writes", load(&m.reply_writes)),
        ("socket_reads", load(&m.socket_reads)),
    ] {
        assert!(calls * 2 < SENT, "{name} = {calls} for {SENT} replies");
    }
    assert_eq!(m.total_shed() + load(&m.dropped_replies), 0);

    // the wire tier's own allocations, from the first call to the last:
    // one per request — the model name `decode_request` owns — and the
    // buffers' growth, which sixteen-deep batches settle within a few
    let spanned = load(&probe.last_at) - load(&probe.first_at);
    let own = spanned - load(&probe.inside);
    assert!(
        own <= (SENT - 1) + 16,
        "{own} allocations outside Service::call for {SENT} GETs"
    );
    server.shutdown();
}
