//! feral-net: the wire tier of the feral stack.
//!
//! Everything below this crate is transport-agnostic: application code
//! talks to a [`Service`] (`feral_server::Service`) and never learns
//! whether the implementation is the in-process [`PooledService`] or a
//! TCP connection. This crate supplies the TCP half:
//!
//! - [`wire`] — a versioned, length-prefixed binary codec for
//!   [`Request`]/[`Response`] that preserves error *class* across the
//!   boundary, so `Response::retryable()` answers identically on both
//!   sides of the socket.
//! - [`reactor`] — a hand-rolled edge-of-kernel poller (epoll on Linux,
//!   `poll(2)` elsewhere) plus a pipe-based [`reactor::Waker`]; no
//!   external async runtime.
//! - [`server`] — one pool of workers behind a bounded accept gate, each
//!   owning its sockets and running the requests it reads where it read
//!   them, with two explicit backpressure layers (a server-wide bound on
//!   replies parked on a WAL flush and a per-connection cap on replies
//!   not yet written) that shed load with a retryable
//!   [`Response::Overloaded`] instead of queueing without bound.
//! - [`client`] — a blocking pooled [`client::NetClient`] that itself
//!   implements [`Service`], and a [`client::call_with_retry`] helper.
//! - [`planner`] — the certified five-template planner workload shared
//!   with `commitbench`, plus [`planner::PlannedService`] serving it
//!   through `db.txn().planned(...)`.
//!
//! Load is driven from outside the crate: `benchmark/` serves
//! [`planner::PlannedService`] and the ORM through [`Server`] and times
//! each request from when it was due.
//!
//! [`Service`]: feral_server::Service
//! [`PooledService`]: feral_server::PooledService
//! [`Request`]: feral_server::Request
//! [`Response`]: feral_server::Response
//! [`Response::Overloaded`]: feral_server::Response::Overloaded
//! [`Response::retryable()`]: feral_server::Response::retryable

#![warn(missing_docs)]

pub mod client;
pub mod planner;
pub mod reactor;
pub mod server;
pub mod wire;

pub use client::{call_with_retry, NetClient};
pub use planner::PlannedService;
pub use server::{Server, ServerConfig, ServerMetrics};
