//! Table schemas, catalogs, and constraint metadata.

use crate::error::{DbError, DbResult};
use crate::value::{DataType, Datum, Tuple};

/// Index of a table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Index of a column within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub u32);

/// Index of a (secondary or unique) index in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// A column definition.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name (unique within the table).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Whether NULL is rejected by the database itself.
    pub not_null: bool,
    /// Default value used when an insert omits the column.
    pub default: Option<Datum>,
}

impl ColumnDef {
    /// A nullable column with no default.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            not_null: false,
            default: None,
        }
    }

    /// Builder: mark the column NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    /// Builder: set a default value.
    pub fn default(mut self, d: Datum) -> Self {
        self.default = Some(d);
        self
    }
}

/// What an in-database foreign key does when the parent row is deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnDelete {
    /// Reject the delete if any child references the parent.
    Restrict,
    /// Delete referencing children transitively, inside the same transaction.
    Cascade,
    /// Set the referencing column(s) to NULL.
    SetNull,
}

/// An in-database foreign-key constraint (paper §5.4 "constraint declared
/// within the database"). Declared via [`crate::Database::add_foreign_key`].
#[derive(Debug, Clone)]
pub struct ForeignKey {
    /// Constraint name.
    pub name: String,
    /// Referencing (child) table.
    pub child_table: TableId,
    /// Referencing column(s).
    pub child_cols: Vec<usize>,
    /// Referenced (parent) table.
    pub parent_table: TableId,
    /// Referenced column(s); must be backed by a unique index.
    pub parent_cols: Vec<usize>,
    /// Delete behaviour.
    pub on_delete: OnDelete,
}

/// Metadata for an index. The index *data* lives in
/// [`crate::index::IndexData`]; this is the catalog entry.
#[derive(Debug, Clone)]
pub struct IndexDef {
    /// Index name (unique across the database, Rails-style
    /// `index_users_on_key`).
    pub name: String,
    /// Indexed table.
    pub table: TableId,
    /// Indexed column positions, in key order.
    pub cols: Vec<usize>,
    /// Whether the database enforces uniqueness of non-NULL keys.
    pub unique: bool,
}

/// A table schema: named, typed columns. Column 0 is always the
/// integer primary key `id` (every ActiveRecord table has one).
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Column definitions; `columns[0]` is the `id` primary key.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Create a schema. An `id INT NOT NULL` primary-key column is prepended
    /// automatically unless the caller already named column 0 `id`.
    pub fn new(name: impl Into<String>, mut columns: Vec<ColumnDef>) -> Self {
        if columns.first().map(|c| c.name.as_str()) != Some("id") {
            columns.insert(0, ColumnDef::new("id", DataType::Int).not_null());
        }
        TableSchema {
            name: name.into(),
            columns,
        }
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> DbResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| DbError::NoSuchColumn(format!("{}.{}", self.name, name)))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validate a full tuple against the schema: arity, types, NOT NULL.
    pub fn check_tuple(&self, tuple: &[Datum]) -> DbResult<()> {
        if tuple.len() != self.columns.len() {
            return Err(DbError::TypeMismatch {
                column: format!("{}(*)", self.name),
                expected: format!("{} columns", self.columns.len()),
                got: format!("{} values", tuple.len()),
            });
        }
        for (col, val) in self.columns.iter().zip(tuple.iter()) {
            match val.data_type() {
                None => {
                    if col.not_null {
                        return Err(DbError::NullViolation(format!(
                            "{}.{}",
                            self.name, col.name
                        )));
                    }
                }
                Some(t) => {
                    let compatible = t == col.ty
                        || (t == DataType::Int && col.ty == DataType::Float)
                        || (t == DataType::Int && col.ty == DataType::Timestamp);
                    if !compatible {
                        return Err(DbError::TypeMismatch {
                            column: format!("{}.{}", self.name, col.name),
                            expected: col.ty.to_string(),
                            got: t.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Build a full tuple from `(column name, datum)` pairs, filling
    /// remaining columns with their default or NULL. The `id` column (0)
    /// must be supplied by the storage layer and is left NULL here.
    pub fn tuple_from_pairs(&self, pairs: &[(&str, Datum)]) -> DbResult<Tuple> {
        let mut t: Tuple = self
            .columns
            .iter()
            .map(|c| c.default.clone().unwrap_or(Datum::Null))
            .collect();
        for (name, value) in pairs {
            let i = self.column_index(name)?;
            t[i] = value.clone();
        }
        Ok(t)
    }
}

/// Position-independent description of one table's catalog state.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Table id.
    pub id: TableId,
    /// Schema.
    pub schema: TableSchema,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users() -> TableSchema {
        TableSchema::new(
            "users",
            vec![
                ColumnDef::new("name", DataType::Text).not_null(),
                ColumnDef::new("age", DataType::Int),
                ColumnDef::new("score", DataType::Float).default(Datum::Float(0.0)),
            ],
        )
    }

    #[test]
    fn id_column_is_prepended() {
        let s = users();
        assert_eq!(s.columns[0].name, "id");
        assert!(s.columns[0].not_null);
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn id_column_is_not_duplicated() {
        let s = TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int)]);
        assert_eq!(s.arity(), 1);
    }

    #[test]
    fn column_index_lookup() {
        let s = users();
        assert_eq!(s.column_index("age").unwrap(), 2);
        assert!(matches!(
            s.column_index("nope"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn check_tuple_rejects_arity_and_type_errors() {
        let s = users();
        assert!(s.check_tuple(&[Datum::Int(1)]).is_err());
        let bad_type = vec![
            Datum::Int(1),
            Datum::Int(42), // name should be Text
            Datum::Null,
            Datum::Float(1.0),
        ];
        assert!(matches!(
            s.check_tuple(&bad_type),
            Err(DbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn check_tuple_enforces_not_null() {
        let s = users();
        let t = vec![Datum::Int(1), Datum::Null, Datum::Null, Datum::Float(0.0)];
        assert!(matches!(s.check_tuple(&t), Err(DbError::NullViolation(_))));
    }

    #[test]
    fn int_widens_to_float() {
        let s = users();
        let t = vec![
            Datum::Int(1),
            Datum::text("a"),
            Datum::Null,
            Datum::Int(3), // score column is FLOAT; Int is accepted
        ];
        assert!(s.check_tuple(&t).is_ok());
    }

    #[test]
    fn tuple_from_pairs_uses_defaults() {
        let s = users();
        let t = s.tuple_from_pairs(&[("name", Datum::text("bo"))]).unwrap();
        assert_eq!(t[1], Datum::text("bo"));
        assert!(t[2].is_null());
        assert_eq!(t[3], Datum::Float(0.0));
    }
}
