//! Record instances: a stored row plus what the application changed.
//!
//! A [`Record`] read from the database *is* the row the heap handed out —
//! the same [`Row`] every other reader of that version holds — with
//! an overlay on top: the column values the application assigned since,
//! and its virtual attributes (`password_confirmation`, …). Reads fall
//! through the overlay to the row; [`Record::set`]/[`Record::assign`]
//! write the overlay only, so the shared row is never touched and a
//! `find` copies nothing. [`Record::to_tuple`] is the merge, in the
//! model's column layout ([`crate::ModelDef::columns`]).

use crate::errors::Errors;
use crate::model::ModelDef;
use feral_db::{Datum, Row, Tuple};
use std::sync::Arc;

/// What an attribute nobody set reads as.
static NULL: Datum = Datum::Null;

/// One model instance — "an object that wraps a row in a database table,
/// encapsulates the database access, and adds domain logic" (Fowler, quoted
/// in the paper's §2.1).
#[derive(Debug, Clone)]
pub struct Record {
    /// The model this record instantiates.
    pub model: Arc<ModelDef>,
    /// The stored row, shared with the heap; `None` until one was read.
    row: Option<Row>,
    /// Column values assigned over the row, by column position (`None`:
    /// falls through). Empty until the first column assignment.
    assigned: Vec<Option<Datum>>,
    /// Attributes that are not columns; never part of the tuple.
    virtuals: Vec<(String, Datum)>,
    persisted: bool,
    destroyed: bool,
    /// Validation errors from the last save attempt.
    pub errors: Errors,
}

impl Record {
    /// A new, unpersisted record with all attributes NULL.
    pub fn new(model: Arc<ModelDef>) -> Self {
        Record {
            model,
            row: None,
            assigned: Vec::new(),
            virtuals: Vec::new(),
            persisted: false,
            destroyed: false,
            errors: Errors::new(),
        }
    }

    /// Materialize a record over a stored row, sharing it.
    pub fn from_row(model: Arc<ModelDef>, row: Row) -> Self {
        Record {
            row: Some(row),
            persisted: true,
            ..Record::new(model)
        }
    }

    /// Materialize a record from a stored tuple the caller keeps (copies
    /// it; prefer [`Record::from_row`] when the row is already shared).
    pub fn from_tuple(model: Arc<ModelDef>, tuple: &[Datum]) -> Self {
        Record::from_row(model, Row::from(tuple))
    }

    /// Serialize to the backing table's column order: assigned values
    /// over the stored row, NULL where neither has one.
    pub fn to_tuple(&self) -> Tuple {
        (0..self.model.columns().len())
            .map(|col| self.at(col).clone())
            .collect()
    }

    /// The value of the column at position `col` of
    /// [`crate::ModelDef::columns`], borrowed (NULL if unset or out of
    /// range).
    pub fn at(&self, col: usize) -> &Datum {
        if let Some(Some(value)) = self.assigned.get(col) {
            return value;
        }
        self.row
            .as_deref()
            .and_then(|row| row.get(col))
            .unwrap_or(&NULL)
    }

    /// An attribute, borrowed (NULL if unset). Virtual attributes (e.g.
    /// `password_confirmation`) are supported: any name can be set.
    pub fn attr(&self, name: &str) -> &Datum {
        match self.model.column_index(name) {
            Some(col) => self.at(col),
            None => self
                .virtuals
                .iter()
                .find(|(n, _)| n == name)
                .map_or(&NULL, |(_, value)| value),
        }
    }

    /// An attribute, owned: [`Record::attr`] cloned.
    pub fn get(&self, name: &str) -> Datum {
        self.attr(name).clone()
    }

    /// Set an attribute. The stored row is shared and stays as it was
    /// read; the value lands in this record's overlay.
    pub fn set(&mut self, name: impl AsRef<str>, value: impl Into<Datum>) -> &mut Self {
        let (name, value) = (name.as_ref(), value.into());
        match self.model.column_index(name) {
            Some(col) => {
                if self.assigned.is_empty() {
                    self.assigned.resize(self.model.columns().len(), None);
                }
                self.assigned[col] = Some(value);
            }
            None => match self.virtuals.iter_mut().find(|(n, _)| n == name) {
                Some((_, slot)) => *slot = value,
                None => self.virtuals.push((name.to_string(), value)),
            },
        }
        self
    }

    /// Set several attributes at once.
    pub fn assign(&mut self, pairs: &[(&str, Datum)]) -> &mut Self {
        for (k, v) in pairs {
            self.set(k, v.clone());
        }
        self
    }

    /// The primary key, if assigned.
    pub fn id(&self) -> Option<i64> {
        self.at(0).as_int()
    }

    /// Whether this record is backed by a database row.
    pub fn is_persisted(&self) -> bool {
        self.persisted
    }

    /// Whether `destroy` succeeded on this record.
    pub fn is_destroyed(&self) -> bool {
        self.destroyed
    }

    /// Whether the last validation pass found no errors.
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }

    /// Mark persisted (used by the persistence layer after insert).
    pub(crate) fn mark_persisted(&mut self) {
        self.persisted = true;
    }

    /// Mark destroyed.
    pub(crate) fn mark_destroyed(&mut self) {
        self.destroyed = true;
        self.persisted = false;
    }

    /// Overwrite every column from a freshly read row (reload / lock):
    /// the record shares `row` and drops its column assignments; virtual
    /// attributes stay.
    pub(crate) fn refresh_from(&mut self, row: Row) {
        self.row = Some(row);
        self.assigned.clear();
        self.persisted = true;
    }

    /// Text rendering for diagnostics.
    pub fn describe(&self) -> String {
        let mut out = format!("#<{}", self.model.name);
        for (col, (name, _)) in self.model.columns().iter().enumerate() {
            out.push_str(&format!(" {name}: {}", self.at(col)));
        }
        out.push('>');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelDef;

    fn model() -> Arc<ModelDef> {
        Arc::new(
            ModelDef::build("User")
                .string("name")
                .integer("age")
                .without_timestamps()
                .finish(),
        )
    }

    #[test]
    fn new_record_is_blank_and_unpersisted() {
        let r = Record::new(model());
        assert!(!r.is_persisted());
        assert!(r.get("name").is_null());
        assert_eq!(r.id(), None);
        assert_eq!(r.to_tuple(), vec![Datum::Null; 3]);
    }

    #[test]
    fn tuple_roundtrip() {
        let m = model();
        let mut r = Record::new(m.clone());
        r.set("name", "peter").set("age", 30i64);
        let t = r.to_tuple();
        assert_eq!(t.len(), 3); // id, name, age
        let r2 = Record::from_tuple(m, &t);
        assert!(r2.is_persisted());
        assert_eq!(r2.get("name"), Datum::text("peter"));
        assert_eq!(r2.get("age"), Datum::Int(30));
    }

    #[test]
    fn virtual_attributes_are_settable() {
        let mut r = Record::new(model());
        r.set("password_confirmation", "secret");
        assert_eq!(r.get("password_confirmation"), Datum::text("secret"));
        r.set("password_confirmation", "other");
        assert_eq!(r.attr("password_confirmation"), &Datum::text("other"));
        // and do not leak into the tuple
        assert_eq!(r.to_tuple().len(), 3);
    }

    #[test]
    fn assign_many() {
        let mut r = Record::new(model());
        r.assign(&[("name", Datum::text("a")), ("age", Datum::Int(1))]);
        assert_eq!(r.get("age"), Datum::Int(1));
    }

    #[test]
    fn assignments_overlay_a_shared_row_without_touching_it() {
        let row = Row::from([Datum::Int(7), Datum::text("ada"), Datum::Int(36)]);
        let mut r = Record::from_row(model(), row.clone());
        assert_eq!(Arc::strong_count(&row), 2, "the record shares the row");
        assert_eq!(r.at(1), &Datum::text("ada"));
        r.set("age", 37i64);
        assert_eq!(r.at(2), &Datum::Int(37));
        assert_eq!(row[2], Datum::Int(36), "the stored image is untouched");
        assert_eq!(
            r.to_tuple(),
            vec![Datum::Int(7), Datum::text("ada"), Datum::Int(37)]
        );
        // a clone is independent of the original
        let mut c = r.clone();
        c.set("name", "grace");
        assert_eq!(r.get("name"), Datum::text("ada"));
        assert_eq!(c.get("name"), Datum::text("grace"));
        // a refresh drops the column overlay and keeps virtual attributes
        c.set("note", "virtual");
        c.refresh_from(row.clone());
        assert_eq!(c.to_tuple(), *row);
        assert_eq!(c.get("note"), Datum::text("virtual"));
        // positions past the layout read as NULL
        assert!(r.at(99).is_null());
    }

    #[test]
    fn describe_contains_fields() {
        let mut r = Record::new(model());
        r.set("name", "x");
        let d = r.describe();
        assert!(d.contains("#<User"));
        assert!(d.contains("name: 'x'"));
        assert!(d.ends_with('>'));
    }
}
