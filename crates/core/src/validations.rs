//! Validator execution — the feral concurrency control under study.
//!
//! Every validator runs inside the save's database transaction, exactly as
//! Rails has done since its first public commit (paper §3.1). The DB-touching
//! validators (`uniqueness`, association `presence`, `associated`, and
//! UDFs that query) issue plain `SELECT` probes with **no predicate
//! locks**, which is why they are unsafe below Serializable isolation.

use crate::app::conds_to_pred;
use crate::errors::{Errors, OrmError, OrmResult};
use crate::model::{AssocKind, ModelDef, Numericality, QueryCtx, Validator};
use crate::pattern;
use crate::record::Record;
use crate::session::Models;
use feral_db::{Datum, Predicate, Transaction};
use std::sync::Arc;

/// Maximum `validates_associated` recursion depth (cycles in association
/// graphs are common; Rails breaks them via an in-memory visited set, we
/// bound depth).
const MAX_ASSOCIATED_DEPTH: usize = 4;

/// `QueryCtx` implementation handing user-defined validators the same
/// transaction the save runs in, and the session's resolved models.
pub(crate) struct TxnQueryCtx<'a> {
    pub(crate) models: &'a mut Models,
    pub(crate) tx: &'a mut Transaction,
}

impl QueryCtx for TxnQueryCtx<'_> {
    fn count_where(&mut self, model: &str, conds: &[(String, Datum)]) -> OrmResult<usize> {
        let m = self.models.resolve(model)?;
        let pred = conds_to_pred(&m.def, conds)?;
        Ok(self.tx.count(&m.table, &pred)?)
    }

    fn fetch_where(&mut self, model: &str, conds: &[(String, Datum)]) -> OrmResult<Vec<Record>> {
        let m = self.models.resolve(model)?;
        let pred = conds_to_pred(&m.def, conds)?;
        let rows = self.tx.scan(&m.table, &pred)?;
        Ok(rows
            .into_iter()
            .map(|(_, row)| Record::from_row(m.def.clone(), row))
            .collect())
    }
}

/// Stable trace fingerprint of a datum: text hashes its raw bytes, any
/// other type hashes its display form. Must agree between the probe
/// (here), the save-write event, and the provenance lookup in the
/// bench layer, which hashes the key *string* it inserted.
pub(crate) fn datum_fingerprint(d: &Datum) -> u64 {
    match d {
        Datum::Text(s) => feral_trace::fnv64(s.as_bytes()),
        other => feral_trace::fnv64(other.to_string().as_bytes()),
    }
}

/// Count one feral probe of `value` in `table`. Its trace arguments are
/// computed only while tracing is on: fingerprinting an integer key
/// allocates its decimal string.
fn note_probe(tx: &Transaction, value: &Datum, table: &str) {
    let (key, table) = if feral_trace::enabled() {
        (
            datum_fingerprint(value),
            feral_trace::fnv64(table.as_bytes()),
        )
    } else {
        (0, 0)
    };
    tx.note_validation_probe(key, table);
}

/// Whether a datum counts as "blank" for `validates_presence_of`.
pub(crate) fn blank(d: &Datum) -> bool {
    match d {
        Datum::Null => true,
        Datum::Text(s) => s.trim().is_empty(),
        _ => false,
    }
}

fn numeric_of(d: &Datum) -> Option<f64> {
    match d {
        Datum::Int(i) => Some(*i as f64),
        Datum::Float(f) => Some(*f),
        Datum::Text(s) => s.trim().parse::<f64>().ok(),
        _ => None,
    }
}

fn is_integer(d: &Datum) -> bool {
    match d {
        Datum::Int(_) => true,
        Datum::Float(f) => f.fract() == 0.0,
        Datum::Text(s) => s.trim().parse::<i64>().is_ok(),
        _ => false,
    }
}

/// Run every validator declared on `record`'s model, inside `tx`.
/// Returns the accumulated errors (empty ⇒ valid).
pub(crate) fn validate_record(
    models: &mut Models,
    tx: &mut Transaction,
    record: &Record,
    depth: usize,
) -> OrmResult<Errors> {
    let mut errors = Errors::new();
    let model = &record.model;
    for v in &model.validators {
        run_validator(models, tx, record, model, v, depth, &mut errors)?;
    }
    Ok(errors)
}

fn run_validator(
    models: &mut Models,
    tx: &mut Transaction,
    record: &Record,
    model: &Arc<ModelDef>,
    v: &Validator,
    depth: usize,
    errors: &mut Errors,
) -> OrmResult<()> {
    match v {
        Validator::Presence { field } => {
            // presence of an association probes the database (App. B.2)
            if let Some(assoc) = model.association(field) {
                if assoc.kind == AssocKind::BelongsTo {
                    let fk_value = record.attr(&assoc.foreign_key);
                    // a NULL fk is blank without probing; otherwise the
                    // feral SELECT decides
                    if fk_value.is_null()
                        || !associated_row_exists(models, tx, &assoc.target, fk_value)?
                    {
                        errors.add(field.clone(), "can't be blank");
                    }
                    return Ok(());
                }
            }
            if blank(record.attr(field)) {
                errors.add(field.clone(), "can't be blank");
            }
        }
        Validator::Uniqueness {
            field,
            scope,
            case_sensitive,
        } => {
            run_uniqueness(models, tx, record, field, scope, *case_sensitive, errors)?;
        }
        Validator::Length {
            field,
            min,
            max,
            allow_nil,
        } => {
            let value = record.attr(field);
            if value.is_null() {
                if !*allow_nil {
                    if let Some(m) = min {
                        errors.add(
                            field.clone(),
                            format!("is too short (minimum is {m} characters)"),
                        );
                    }
                }
                return Ok(());
            }
            let len = match value {
                Datum::Text(s) => s.chars().count(),
                other => other.to_string().len(),
            };
            if let Some(m) = min {
                if len < *m {
                    errors.add(
                        field.clone(),
                        format!("is too short (minimum is {m} characters)"),
                    );
                }
            }
            if let Some(m) = max {
                if len > *m {
                    errors.add(
                        field.clone(),
                        format!("is too long (maximum is {m} characters)"),
                    );
                }
            }
        }
        Validator::Inclusion { field, within } => {
            let value = record.attr(field);
            if !within.iter().any(|w| w.sql_eq(value) == Some(true)) {
                errors.add(field.clone(), "is not included in the list");
            }
        }
        Validator::Exclusion { field, from } => {
            let value = record.attr(field);
            if from.iter().any(|w| w.sql_eq(value) == Some(true)) {
                errors.add(field.clone(), "is reserved");
            }
        }
        Validator::NumericalityOf { field, opts } => {
            run_numericality(record, field, opts, errors);
        }
        Validator::Format {
            field,
            with,
            allow_nil,
        } => {
            let value = record.attr(field);
            if value.is_null() && *allow_nil {
                return Ok(());
            }
            let matches = value.as_text().map(|s| with.is_match(s)).unwrap_or(false);
            if !matches {
                errors.add(field.clone(), "is invalid");
            }
        }
        Validator::Email { field } => {
            let value = record.attr(field);
            let ok = value
                .as_text()
                .map(|s| pattern::email_pattern().is_match(s))
                .unwrap_or(false);
            if !ok {
                errors.add(
                    field.clone(),
                    "does not appear to be a valid e-mail address",
                );
            }
        }
        Validator::Confirmation { field } => {
            let confirmation = record.attr(&format!("{field}_confirmation"));
            if !confirmation.is_null() && confirmation.sql_eq(record.attr(field)) != Some(true) {
                errors.add(
                    format!("{field}_confirmation"),
                    format!("doesn't match {field}"),
                );
            }
        }
        Validator::Acceptance { field } => {
            let value = record.attr(field);
            let accepted = matches!(value, Datum::Bool(true))
                || value.as_text().is_some_and(|s| s == "1" || s == "true")
                || value.as_int().is_some_and(|i| i == 1);
            if !accepted {
                errors.add(field.clone(), "must be accepted");
            }
        }
        Validator::Associated { assoc } => {
            run_associated(models, tx, record, model, assoc, depth, errors)?;
        }
        Validator::AttachmentContentType { field, allowed } => {
            let value = record.attr(&format!("{field}_content_type"));
            let ok = value
                .as_text()
                .map(|s| allowed.iter().any(|a| a == s))
                .unwrap_or(false);
            if !ok {
                errors.add(field.clone(), "is invalid (content type)");
            }
        }
        Validator::AttachmentSize { field, max_bytes } => {
            let value = record.attr(&format!("{field}_file_size"));
            match value.as_int() {
                Some(sz) if sz <= *max_bytes => {}
                _ => errors.add(
                    field.clone(),
                    format!("must be less than {max_bytes} bytes"),
                ),
            }
        }
        Validator::Custom { f, .. } => {
            let mut ctx = TxnQueryCtx { models, tx };
            f(record, &mut ctx, errors);
        }
    }
    Ok(())
}

/// The feral uniqueness probe (paper Appendix B.1): a plain `SELECT ...
/// LIMIT 1` on the validated column (plus scope), excluding the record's
/// own row when persisted. Runs at whatever isolation the enclosing
/// transaction has — no predicate lock is taken, which is the defect the
/// paper quantifies.
fn run_uniqueness(
    models: &mut Models,
    tx: &mut Transaction,
    record: &Record,
    field: &str,
    scope: &[String],
    case_sensitive: bool,
    errors: &mut Errors,
) -> OrmResult<()> {
    let model = &record.model;
    let value = record.attr(field);
    let col = model
        .column_index(field)
        .ok_or_else(|| OrmError::Config(format!("{} has no column {field}", model.name)))?;
    note_probe(tx, value, &model.table);
    let table = &models.resolve(&model.name)?.table;

    let taken = if case_sensitive || !matches!(value, Datum::Text(_)) {
        let mut conds: Vec<(&str, Datum)> = vec![(field, value.clone())];
        for s in scope {
            conds.push((s, record.get(s)));
        }
        let pred = conds_to_pred(model, &conds)?;
        let rows = tx.scan(table, &pred)?;
        rows.iter()
            .any(|(_, t)| record.id().is_none() || t[0].as_int() != record.id())
    } else {
        // case-insensitive: Rails generates LOWER(col) = LOWER(?), which is
        // a sequential scan unless a functional index exists — model it as
        // a full scan with client-side comparison
        let needle = value.as_text().unwrap_or("").to_lowercase();
        let rows = tx.scan(table, &Predicate::True)?;
        rows.iter().any(|(_, t)| {
            let same_scope = scope.iter().all(|s| {
                let sc = model.column_index(s).unwrap_or(usize::MAX);
                t.get(sc)
                    .map(|d| {
                        d.sql_eq(record.attr(s)) == Some(true)
                            || (d.is_null() && record.attr(s).is_null())
                    })
                    .unwrap_or(false)
            });
            same_scope
                && t.get(col)
                    .and_then(|d| d.as_text())
                    .is_some_and(|s| s.to_lowercase() == needle)
                && (record.id().is_none() || t[0].as_int() != record.id())
        })
    };
    if taken {
        errors.add(field.to_string(), "has already been taken");
    }
    Ok(())
}

fn run_numericality(record: &Record, field: &str, opts: &Numericality, errors: &mut Errors) {
    let value = record.attr(field);
    if value.is_null() {
        if !opts.allow_nil {
            errors.add(field.to_string(), "is not a number");
        }
        return;
    }
    let Some(n) = numeric_of(value) else {
        errors.add(field.to_string(), "is not a number");
        return;
    };
    if opts.only_integer && !is_integer(value) {
        errors.add(field.to_string(), "must be an integer");
        return;
    }
    if let Some(g) = opts.gt {
        if n <= g {
            errors.add(field.to_string(), format!("must be greater than {g}"));
        }
    }
    if let Some(g) = opts.ge {
        if n < g {
            errors.add(
                field.to_string(),
                format!("must be greater than or equal to {g}"),
            );
        }
    }
    if let Some(l) = opts.lt {
        if n >= l {
            errors.add(field.to_string(), format!("must be less than {l}"));
        }
    }
    if let Some(l) = opts.le {
        if n > l {
            errors.add(
                field.to_string(),
                format!("must be less than or equal to {l}"),
            );
        }
    }
}

/// `SELECT 1 FROM target WHERE id = fk LIMIT 1` — the association probe.
fn associated_row_exists(
    models: &mut Models,
    tx: &mut Transaction,
    target_model: &str,
    fk_value: &Datum,
) -> OrmResult<bool> {
    let target = &models.resolve(target_model)?.table;
    note_probe(tx, fk_value, target.name());
    let pred = Predicate::eq(0, fk_value.clone());
    Ok(!tx.scan(target, &pred)?.is_empty())
}

/// `validates_associated`: load associated records and run their own
/// validation passes (bounded recursion).
fn run_associated(
    models: &mut Models,
    tx: &mut Transaction,
    record: &Record,
    model: &Arc<ModelDef>,
    assoc_name: &str,
    depth: usize,
    errors: &mut Errors,
) -> OrmResult<()> {
    if depth >= MAX_ASSOCIATED_DEPTH {
        return Ok(());
    }
    let Some(assoc) = model.association(assoc_name) else {
        return Err(OrmError::Config(format!(
            "{} has no association {assoc_name}",
            model.name
        )));
    };
    let target = models.resolve(&assoc.target)?;
    let associated: Vec<Record> = match assoc.kind {
        AssocKind::BelongsTo => {
            let fk_value = record.attr(&assoc.foreign_key);
            if fk_value.is_null() {
                return Ok(());
            }
            let rows = tx.scan(&target.table, &Predicate::eq(0, fk_value.clone()))?;
            if rows.is_empty() {
                errors.add(assoc_name.to_string(), "is invalid");
                return Ok(());
            }
            rows.into_iter()
                .map(|(_, row)| Record::from_row(target.def.clone(), row))
                .collect()
        }
        AssocKind::HasOne | AssocKind::HasMany => {
            let Some(id) = record.id() else {
                return Ok(()); // unsaved owner has no persisted children
            };
            let col = target.def.column_index(&assoc.foreign_key).ok_or_else(|| {
                OrmError::Config(format!(
                    "{} has no column {}",
                    target.def.name, assoc.foreign_key
                ))
            })?;
            tx.scan(&target.table, &Predicate::eq(col, id))?
                .into_iter()
                .map(|(_, row)| Record::from_row(target.def.clone(), row))
                .collect()
        }
    };
    for child in associated {
        let child_errors = validate_record(models, tx, &child, depth + 1)?;
        if !child_errors.is_empty() {
            errors.add(assoc_name.to_string(), "is invalid");
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blankness() {
        assert!(blank(&Datum::Null));
        assert!(blank(&Datum::text("")));
        assert!(blank(&Datum::text("   ")));
        assert!(!blank(&Datum::text("x")));
        assert!(!blank(&Datum::Int(0)));
        assert!(!blank(&Datum::Bool(false)));
    }

    #[test]
    fn numeric_extraction() {
        assert_eq!(numeric_of(&Datum::Int(3)), Some(3.0));
        assert_eq!(numeric_of(&Datum::Float(2.5)), Some(2.5));
        assert_eq!(numeric_of(&Datum::text("42")), Some(42.0));
        assert_eq!(numeric_of(&Datum::text("4.5 ")), Some(4.5));
        assert_eq!(numeric_of(&Datum::text("abc")), None);
        assert!(is_integer(&Datum::Int(1)));
        assert!(is_integer(&Datum::Float(2.0)));
        assert!(!is_integer(&Datum::Float(2.5)));
        assert!(is_integer(&Datum::text("7")));
        assert!(!is_integer(&Datum::text("7.5")));
    }
}
