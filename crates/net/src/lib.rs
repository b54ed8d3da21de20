//! feral-net: the wire tier of the feral stack.
//!
//! Everything below this crate is transport-agnostic: application code
//! talks to a [`Service`] (`feral_server::Service`) and never learns
//! whether the implementation is an in-process [`Deployment`], a pooled
//! session, or a TCP connection. This crate supplies the TCP half:
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
//! - [`load`] — an open-loop load generator (pre-drawn exponential
//!   arrival schedules, uniform or scrambled-Zipfian session/key skew)
//!   that measures latency from *scheduled* arrival, immune to
//!   coordinated omission.
//! - [`planner`] — the certified five-template planner workload shared
//!   with `commitbench`, plus [`planner::PlannedService`] serving it
//!   through `db.txn().planned(...)`.
//! - [`report`] — `BENCH_load.json` rendering, the validator behind
//!   `checkreport --load`, and Prometheus text for the load grid.
//!
//! [`Service`]: feral_server::Service
//! [`Deployment`]: feral_server::Deployment
//! [`Request`]: feral_server::Request
//! [`Response`]: feral_server::Response
//! [`Response::Overloaded`]: feral_server::Response::Overloaded
//! [`Response::retryable()`]: feral_server::Response::retryable

#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod planner;
pub mod reactor;
pub mod report;
pub mod server;
pub mod wire;

pub use client::{call_with_retry, NetClient};
pub use load::{Dist, LoadConfig, LoadOutcome};
pub use planner::PlannedService;
pub use report::{render_load_json, validate_load_report, AblationRow, GridRow, LoadSummary};
pub use server::{Server, ServerConfig, ServerMetrics};
