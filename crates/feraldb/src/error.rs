//! Error types for the storage engine.

use std::fmt;

/// Every way a database operation can fail.
///
/// The engine is deliberately explicit about *why* a transaction could not
/// proceed, because the experiments in the paper hinge on distinguishing
/// integrity violations detected by the database (e.g.
/// [`DbError::UniqueViolation`]) from violations that silently corrupt data
/// when enforcement is left to the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name exists.
    NoSuchTable(String),
    /// No column with this name exists in the referenced table.
    NoSuchColumn(String),
    /// An index with this name already exists.
    IndexExists(String),
    /// No index with this name exists.
    NoSuchIndex(String),
    /// The tuple's arity or a datum's type does not match the table schema.
    TypeMismatch {
        /// Column whose declared type was violated.
        column: String,
        /// Human-readable description of what was expected.
        expected: String,
        /// What was actually supplied.
        got: String,
    },
    /// A NOT NULL column received a NULL datum.
    NullViolation(String),
    /// An in-database unique constraint rejected a write.
    UniqueViolation {
        /// Name of the violated index.
        index: String,
        /// Rendering of the duplicated key.
        key: String,
    },
    /// An in-database foreign-key constraint rejected a write.
    ForeignKeyViolation {
        /// Name of the violated constraint.
        constraint: String,
        /// Explanation (missing parent, dependent children, ...).
        detail: String,
    },
    /// A lock could not be acquired before the configured timeout elapsed.
    /// The engine treats this as a deadlock-resolution abort.
    LockTimeout {
        /// Rendering of the lock that could not be acquired.
        lock: String,
    },
    /// First-updater-wins write-write conflict under Snapshot Isolation /
    /// Repeatable Read: the row version this transaction tried to update was
    /// replaced by a concurrent committed transaction.
    WriteConflict,
    /// Backward-validation failure under Serializable isolation: a concurrent
    /// committed transaction wrote data this transaction read.
    SerializationFailure {
        /// Explanation of the conflict edge that caused the abort.
        detail: String,
    },
    /// The transaction was already committed or rolled back.
    TxnClosed,
    /// The row targeted by an update/delete no longer exists.
    NoSuchRow,
    /// The table's `id` sequence has handed out `i64::MAX`: an insert
    /// that leaves `id` NULL cannot be given one.
    SequenceExhausted(String),
    /// Catch-all for internal invariant violations. Seeing this is a bug.
    Internal(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::TableExists(t) => write!(f, "table {t:?} already exists"),
            DbError::NoSuchTable(t) => write!(f, "no such table {t:?}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column {c:?}"),
            DbError::IndexExists(i) => write!(f, "index {i:?} already exists"),
            DbError::NoSuchIndex(i) => write!(f, "no such index {i:?}"),
            DbError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch on {column:?}: expected {expected}, got {got}"
            ),
            DbError::NullViolation(c) => write!(f, "null value in NOT NULL column {c:?}"),
            DbError::UniqueViolation { index, key } => {
                write!(f, "duplicate key {key} violates unique index {index:?}")
            }
            DbError::ForeignKeyViolation { constraint, detail } => {
                write!(
                    f,
                    "foreign key constraint {constraint:?} violated: {detail}"
                )
            }
            DbError::LockTimeout { lock } => {
                write!(f, "lock timeout waiting for {lock} (deadlock resolution)")
            }
            DbError::WriteConflict => {
                write!(f, "could not serialize access due to concurrent update")
            }
            DbError::SerializationFailure { detail } => {
                write!(
                    f,
                    "could not serialize access due to read/write dependencies: {detail}"
                )
            }
            DbError::TxnClosed => write!(f, "transaction is already closed"),
            DbError::NoSuchRow => write!(f, "row does not exist"),
            DbError::SequenceExhausted(t) => write!(f, "the id sequence of {t:?} is exhausted"),
            DbError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Convenient result alias used across the engine.
pub type DbResult<T> = Result<T, DbError>;

impl DbError {
    /// Whether the error indicates a transient concurrency abort that the
    /// caller may retry (as opposed to a semantic error that will recur).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DbError::LockTimeout { .. }
                | DbError::WriteConflict
                | DbError::SerializationFailure { .. }
        )
    }

    /// Whether the error is an integrity-constraint rejection coming from the
    /// database itself (the "in-database counterpart" of a feral validation).
    pub fn is_constraint_violation(&self) -> bool {
        matches!(
            self,
            DbError::UniqueViolation { .. }
                | DbError::ForeignKeyViolation { .. }
                | DbError::NullViolation(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DbError::UniqueViolation {
            index: "index_users_on_key".into(),
            key: "(1)".into(),
        };
        let s = e.to_string();
        assert!(s.contains("index_users_on_key"));
        assert!(s.contains("duplicate"));
    }

    #[test]
    fn retryable_classification() {
        assert!(DbError::WriteConflict.is_retryable());
        assert!(DbError::LockTimeout { lock: "x".into() }.is_retryable());
        assert!(DbError::SerializationFailure { detail: "d".into() }.is_retryable());
        assert!(!DbError::NoSuchTable("t".into()).is_retryable());
        assert!(!DbError::UniqueViolation {
            index: "i".into(),
            key: "k".into()
        }
        .is_retryable());
    }

    #[test]
    fn constraint_classification() {
        assert!(DbError::NullViolation("c".into()).is_constraint_violation());
        assert!(DbError::ForeignKeyViolation {
            constraint: "fk".into(),
            detail: "d".into()
        }
        .is_constraint_violation());
        assert!(!DbError::WriteConflict.is_constraint_violation());
    }
}
