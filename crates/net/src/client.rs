//! Client side of the wire protocol.
//!
//! [`NetClient`] is the blocking, pooled frontend: it implements
//! [`Service`], so everything written against the transport-agnostic
//! trait (benches, tests, the retry helper) runs unchanged over TCP.
//! One call checks a connection out of the pool, writes one frame,
//! blocks for the matching reply, and returns the connection.
//!
//! An open-loop load generator should *not* use this type — pacing
//! arrivals through a blocking call-per-connection would reintroduce
//! coordinated omission. `benchmark/src/load.rs` drives a raw
//! nonblocking `TcpStream` per thread and starts each request's clock
//! when it was due instead.

use crate::wire;
use feral_orm::OrmError;
use feral_server::{Request, Response, Service};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct PooledConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

/// A blocking client holding a bounded pool of connections to one
/// feral-net server.
pub struct NetClient {
    addr: SocketAddr,
    pool: Mutex<Vec<PooledConn>>,
    pool_cap: usize,
    next_id: AtomicU64,
    read_timeout: Duration,
}

impl NetClient {
    /// Connect a client that retains at most `pool_cap` idle
    /// connections. Connections are opened lazily, one per concurrent
    /// in-flight call.
    pub fn connect(addr: SocketAddr, pool_cap: usize) -> std::io::Result<NetClient> {
        let client = NetClient {
            addr,
            pool: Mutex::new(Vec::with_capacity(pool_cap)),
            pool_cap: pool_cap.max(1),
            next_id: AtomicU64::new(1),
            read_timeout: Duration::from_secs(30),
        };
        // prove the address is live before handing the client out
        let conn = client.open()?;
        client.pool.lock().push(conn);
        Ok(client)
    }

    /// Lower the blocking-read timeout (tests).
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.read_timeout = timeout;
    }

    fn open(&self) -> std::io::Result<PooledConn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        Ok(PooledConn {
            stream,
            inbuf: Vec::new(),
        })
    }

    fn exchange(
        &self,
        conn: &mut PooledConn,
        frame: &[u8],
        want_id: u64,
    ) -> Result<Response, String> {
        conn.stream
            .write_all(frame)
            .map_err(|e| format!("send failed: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(payload) =
                wire::take_frame(&mut conn.inbuf).map_err(|e| format!("bad frame: {e}"))?
            {
                let (id, response) =
                    wire::decode_response(&payload).map_err(|e| format!("bad response: {e}"))?;
                if id == want_id {
                    return Ok(response);
                }
                // a stale reply from a previous timed-out call on this
                // connection; skip it and keep reading
                continue;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("recv failed: {e}")),
            }
        }
    }
}

impl Service for NetClient {
    fn call(&self, request: Request) -> Response {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = match wire::encode_request(id, &request) {
            Ok(f) => f,
            Err(e) => return Response::Error(OrmError::Config(format!("net: {e}"))),
        };
        let mut conn = match self.pool.lock().pop() {
            Some(c) => c,
            None => match self.open() {
                Ok(c) => c,
                Err(e) => {
                    return Response::Error(OrmError::Config(format!("net: connect failed: {e}")))
                }
            },
        };
        match self.exchange(&mut conn, &frame, id) {
            Ok(response) => {
                let mut pool = self.pool.lock();
                if pool.len() < self.pool_cap {
                    pool.push(conn);
                }
                response
            }
            // the connection is in an unknown state: discard it (the
            // request may or may not have committed — a dubious ack, so
            // the error is deliberately NOT retryable)
            Err(msg) => Response::Error(OrmError::Config(format!("net: {msg}"))),
        }
    }
}

/// Issue `make_request` through `service`, retrying shed and
/// concurrency-aborted responses up to `attempts` times with a short
/// linear backoff. Returns the final response (retryable or not).
pub fn call_with_retry(
    service: &dyn Service,
    mut make_request: impl FnMut() -> Request,
    attempts: usize,
) -> Response {
    let mut last = service.call(make_request());
    for round in 1..attempts.max(1) {
        if !last.retryable() {
            return last;
        }
        std::thread::sleep(Duration::from_micros(50 * round as u64));
        last = service.call(make_request());
    }
    last
}
