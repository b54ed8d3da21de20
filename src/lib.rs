//! # feral
//!
//! Facade crate for the Rust reproduction of *Feral Concurrency Control:
//! An Empirical Investigation of Modern Application Integrity* (Bailis et
//! al., SIGMOD 2015). Re-exports every subsystem crate under one roof so
//! examples and downstream users need a single dependency.

pub use feral_corpus as corpus;
pub use feral_db as db;
pub use feral_iconfluence as iconfluence;
pub use feral_orm as orm;
pub use feral_server as server;
pub use feral_sql as sql;
pub use feral_workloads as workloads;
