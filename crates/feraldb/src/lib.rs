//! # feral-db
//!
//! An in-memory, multi-versioned relational storage engine built as the
//! database substrate for reproducing *Feral Concurrency Control: An
//! Empirical Investigation of Modern Application Integrity* (Bailis et al.,
//! SIGMOD 2015).
//!
//! The engine implements exactly the semantics the paper's analysis turns
//! on:
//!
//! * **Four isolation levels** — Read Committed (statement-level
//!   snapshots, the PostgreSQL default the experiments run under),
//!   Repeatable Read (transaction-level snapshot, a model of InnoDB's
//!   default), Snapshot Isolation (first-updater-wins), and Serializable
//!   (snapshot isolation plus backward read-set validation).
//! * **Predicate reads without predicate locks** below Serializable: the
//!   `SELECT ... LIMIT 1` probes that Rails validations issue take no
//!   locks, which is the root cause of every anomaly quantified in the
//!   paper's Section 5.
//! * **In-database constraints** — unique indexes and foreign keys whose
//!   checks run under key locks held to commit, making them race-free; the
//!   counterpart the paper recommends over feral enforcement.
//! * A **`pg_ssi_bug` compatibility mode** reproducing PostgreSQL bug
//!   #11732 (paper footnote 8): predicate reads not served by an index are
//!   not validated, so "serializable" can still admit duplicates.
//!
//! ## Example
//!
//! ```
//! use feral_db::{Database, Config, IsolationLevel, TableSchema, ColumnDef,
//!                DataType, Datum, Predicate};
//!
//! let db = Database::in_memory();
//! db.create_table(TableSchema::new(
//!     "users",
//!     vec![ColumnDef::new("name", DataType::Text).not_null()],
//! )).unwrap();
//!
//! let mut tx = db.txn().isolation(IsolationLevel::ReadCommitted).begin();
//! tx.insert_pairs("users", &[("name", Datum::text("peter"))]).unwrap();
//! tx.commit().unwrap();
//!
//! let mut tx = db.txn().begin();
//! let rows = tx.scan("users", &Predicate::eq(1, "peter")).unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

#![warn(missing_docs)]

pub(crate) mod commit;
pub mod db;
pub mod error;
pub(crate) mod footprint;
pub(crate) mod hash;
pub mod heap;
pub mod index;
pub mod lock;
pub mod predicate;
pub mod schema;
pub mod stats;
pub(crate) mod tail;
pub mod txn;
pub mod value;
pub mod wal;

pub use db::{
    Config, ConflictKind, Database, IsolationLevel, IsolationPlan, TableHandle, TxnOptions,
};
pub use error::{DbError, DbResult};
pub use feral_audit::{AuditMode, AuditSnapshot};
pub use heap::RowId;
pub use lock::{LockKey, LockMode};
pub use predicate::{CmpOp, Predicate};
pub use schema::{ColumnDef, ForeignKey, IndexDef, OnDelete, TableId, TableSchema};
pub use stats::{thread_slot, Stats, StatsSnapshot, StatsStripe};
pub use tail::{defer_durable, FlushLead, PendingCommit};
pub use txn::{RowRef, Savepoint, TableRef, Transaction};
pub use value::{DataType, Datum, Row, Text, Tuple};
pub use wal::{WalRecord, WalWrite};
