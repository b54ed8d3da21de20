//! Sessions: one worker's database connection and the ActiveRecord
//! persistence operations (`save`, `create`, `destroy`, finders, locking,
//! `Model.transaction` blocks).

use crate::app::{conds_to_pred, App};
use crate::errors::{OrmError, OrmResult};
use crate::model::{AssocKind, CallbackKind, Dependent, ModelDef, Validator};
use crate::record::Record;
use crate::validations::{datum_fingerprint, validate_record, TxnQueryCtx};
use feral_db::{Datum, IsolationLevel, Predicate, RowRef, Transaction, Tuple};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Microseconds since the epoch — what `created_at`/`updated_at` store.
fn now_micros() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as i64)
        .unwrap_or(0)
}

/// One worker's connection to the database.
///
/// Each HTTP request in a Rails deployment is served by exactly one worker
/// holding one connection; concurrency across requests exists *only* at
/// the database (paper §2.2). A `Session` is therefore the unit that
/// [`crate::App`]-level experiments hand to each worker thread.
pub struct Session {
    app: App,
    isolation: IsolationLevel,
    current: Option<Transaction>,
    /// Definitions this session has resolved, valid while the app's
    /// definition generation is `models_generation`: naming a model takes
    /// no lock on the shared registry.
    models: Vec<Arc<ModelDef>>,
    models_generation: u64,
}

impl Session {
    pub(crate) fn new(app: App, isolation: IsolationLevel) -> Self {
        Session {
            app,
            isolation,
            current: None,
            models: Vec::new(),
            models_generation: 0,
        }
    }

    /// Look up a model by class name, through the session-local cache.
    fn model(&mut self, name: &str) -> OrmResult<Arc<ModelDef>> {
        let generation = self.app.models_generation();
        if generation != self.models_generation {
            self.models.clear();
            self.models_generation = generation;
        }
        if let Some(def) = self.models.iter().find(|def| def.name == name) {
            return Ok(def.clone());
        }
        let def = self.app.model(name)?;
        self.models.push(def.clone());
        Ok(def)
    }

    /// The owning application.
    pub fn app(&self) -> &App {
        &self.app
    }

    /// This session's isolation level for new transactions.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Change the isolation level used by subsequent transactions.
    pub fn set_isolation(&mut self, isolation: IsolationLevel) {
        self.isolation = isolation;
    }

    /// Run `f` in the enclosing transaction if one is open, else in a
    /// fresh auto-committed transaction (Rails wraps every save this way).
    fn with_txn<T>(
        &mut self,
        f: impl FnOnce(&App, &mut Transaction) -> OrmResult<T>,
    ) -> OrmResult<T> {
        let app = &self.app;
        if let Some(tx) = self.current.as_mut() {
            return f(app, tx);
        }
        let mut tx = app.db().txn().isolation(self.isolation).begin();
        match f(app, &mut tx) {
            Ok(v) => {
                tx.commit()?;
                Ok(v)
            }
            Err(e) => {
                tx.rollback();
                Err(e)
            }
        }
    }

    /// `Model.transaction do ... end`: run `f` inside one database
    /// transaction; nested calls join the open transaction (Rails'
    /// default savepoint-less nesting).
    pub fn transaction<T>(&mut self, f: impl FnOnce(&mut Session) -> OrmResult<T>) -> OrmResult<T> {
        if self.current.is_some() {
            return f(self);
        }
        self.current = Some(self.app.db().txn().isolation(self.isolation).begin());
        let result = f(self);
        let tx = self.current.take();
        match (result, tx) {
            (Ok(v), Some(mut tx)) => {
                tx.commit()?;
                Ok(v)
            }
            (Err(e), Some(mut tx)) => {
                tx.rollback();
                Err(e)
            }
            (r, None) => r,
        }
    }

    /// `Model.transaction(requires_new: true)`: when an outer transaction
    /// is open, run `f` under a savepoint so its failure rolls back only
    /// the inner work; otherwise behaves like [`Session::transaction`].
    pub fn transaction_requires_new<T>(
        &mut self,
        f: impl FnOnce(&mut Session) -> OrmResult<T>,
    ) -> OrmResult<T> {
        if self.current.is_none() {
            return self.transaction(f);
        }
        let sp = self.current.as_mut().expect("checked above").savepoint();
        match f(self) {
            Ok(v) => Ok(v),
            Err(e) => {
                if let Some(tx) = self.current.as_mut() {
                    let _ = tx.rollback_to(sp);
                }
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// `record.save`: validate then write, inside one transaction.
    /// Returns `Ok(false)` (with `record.errors` populated) when a
    /// validation fails — Rails' non-bang semantics.
    pub fn save(&mut self, record: &mut Record) -> OrmResult<bool> {
        let delay = self.app.validation_write_delay();
        let was_new = !record.is_persisted();
        run_callbacks(record, CallbackKind::BeforeValidation);
        let save_span = feral_trace::start_phase(feral_trace::Phase::Save);
        let result = self.with_txn(|app, tx| {
            let validate_span = feral_trace::start_phase(feral_trace::Phase::Validate);
            let errors = validate_record(app, tx, record, 0)?;
            validate_span.finish(tx.id());
            if !errors.is_empty() {
                return Ok(Some(errors));
            }
            run_callbacks(record, CallbackKind::BeforeSave);
            feral_trace::record(
                feral_trace::EventKind::Site(feral_hooks::Site::OrmValidateWriteGap),
                tx.id(),
                0,
                0,
            );
            if feral_hooks::active() {
                // under a deterministic scheduler the validate→write race
                // window is a yield point, not a wall-clock sleep: the
                // scheduler decides who runs inside the gap
                feral_hooks::yield_point(feral_hooks::Site::OrmValidateWriteGap);
            } else if !delay.is_zero() {
                // models the controller/VM/network latency between the
                // validation SELECTs and the write in a real deployment
                std::thread::sleep(delay);
            }
            let write_span = feral_trace::start_phase(feral_trace::Phase::Write);
            write_record(app, tx, record)?;
            trace_save_writes(tx, record);
            write_span.finish(tx.id());
            if was_new {
                maintain_counter_caches(app, tx, record, 1)?;
                run_callbacks(record, CallbackKind::AfterCreate);
            }
            run_callbacks(record, CallbackKind::AfterSave);
            Ok(None)
        })?;
        save_span.finish(0);
        match result {
            Some(errors) => {
                record.errors = errors;
                Ok(false)
            }
            None => {
                record.errors.clear();
                Ok(true)
            }
        }
    }

    /// `record.save!`: like [`Session::save`] but an invalid record is an
    /// `ActiveRecord::RecordInvalid` error.
    pub fn save_strict(&mut self, record: &mut Record) -> OrmResult<()> {
        if self.save(record)? {
            Ok(())
        } else {
            Err(OrmError::RecordInvalid(record.errors.clone()))
        }
    }

    /// `Model.create(attrs)`: build, save (non-bang), return the record
    /// (check `is_persisted`/`errors` for the outcome).
    pub fn create(&mut self, model: &str, attrs: &[(&str, Datum)]) -> OrmResult<Record> {
        let mut record = Record::new(self.model(model)?);
        record.assign(attrs);
        self.save(&mut record)?;
        Ok(record)
    }

    /// `Model.create!(attrs)`.
    pub fn create_strict(&mut self, model: &str, attrs: &[(&str, Datum)]) -> OrmResult<Record> {
        let mut record = Record::new(self.model(model)?);
        record.assign(attrs);
        self.save_strict(&mut record)?;
        Ok(record)
    }

    /// `record.update(attrs)`: assign then save.
    pub fn update_attributes(
        &mut self,
        record: &mut Record,
        attrs: &[(&str, Datum)],
    ) -> OrmResult<bool> {
        record.assign(attrs);
        self.save(record)
    }

    /// `record.destroy`: run dependent-association logic **ferally** (in
    /// application code, per paper §5.3/Appendix C.4), then delete the row,
    /// all inside one transaction.
    pub fn destroy(&mut self, record: &mut Record) -> OrmResult<()> {
        let model = record.model.clone();
        let Some(id) = record.id() else {
            return Err(OrmError::Config("cannot destroy an unsaved record".into()));
        };
        run_callbacks(record, CallbackKind::BeforeDestroy);
        self.with_txn(|app, tx| {
            let mut visited = HashSet::new();
            destroy_in_txn(app, tx, &model, id, &mut visited)?;
            run_callbacks(record, CallbackKind::AfterDestroy);
            Ok(())
        })?;
        record.mark_destroyed();
        Ok(())
    }

    /// `record.delete`: bare row delete, **no** dependent callbacks.
    pub fn delete(&mut self, record: &mut Record) -> OrmResult<()> {
        let model = record.model.clone();
        let Some(id) = record.id() else {
            return Err(OrmError::Config("cannot delete an unsaved record".into()));
        };
        self.with_txn(|_, tx| {
            let rows = tx.scan(&model.table, &Predicate::eq(0, id))?;
            for (rref, _) in rows {
                tx.delete(&model.table, rref)?;
            }
            Ok(())
        })?;
        record.mark_destroyed();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Finders
    // ------------------------------------------------------------------

    /// `Model.find(id)` — `RecordNotFound` on a miss.
    pub fn find(&mut self, model: &str, id: i64) -> OrmResult<Record> {
        self.find_by(model, &[("id", Datum::Int(id))])?
            .ok_or_else(|| OrmError::RecordNotFound(format!("{model} with id={id}")))
    }

    /// `Model.find_by(attrs)` — `None` on a miss.
    pub fn find_by(&mut self, model: &str, conds: &[(&str, Datum)]) -> OrmResult<Option<Record>> {
        Ok(self.where_(model, conds)?.into_iter().next())
    }

    /// `Model.find_or_create_by(attrs)` — the classic racy Rails idiom:
    /// a `SELECT` probe followed by a create when nothing matched. Like
    /// Rails, this is **"prone to race conditions"** (its own docs):
    /// concurrent callers can both miss and both create. Pair with an
    /// in-database unique index and retry on
    /// [`feral_db::DbError::UniqueViolation`] for safety.
    pub fn find_or_create_by(&mut self, model: &str, conds: &[(&str, Datum)]) -> OrmResult<Record> {
        if let Some(existing) = self.find_by(model, conds)? {
            return Ok(existing);
        }
        self.create(model, conds)
    }

    /// `Model.where(attrs)` — all matching records.
    pub fn where_(&mut self, model: &str, conds: &[(&str, Datum)]) -> OrmResult<Vec<Record>> {
        let def = self.model(model)?;
        let rows = self.with_txn(|_, tx| {
            let pred = conds_to_pred(&def, conds)?;
            Ok(tx.scan(&def.table, &pred)?)
        })?;
        // `repeat_n` moves its item into the last pair: a point read
        // hands its one record the handle it resolved, cloning nothing
        Ok(std::iter::repeat_n(def, rows.len())
            .zip(rows)
            .map(|(def, (_, row))| Record::from_row(def, row))
            .collect())
    }

    /// `Model.all`.
    pub fn all(&mut self, model: &str) -> OrmResult<Vec<Record>> {
        self.where_(model, &[])
    }

    /// `Model.where(conds).order(field).limit(n)` — ordered, bounded
    /// queries. Pass `descending: true` for `.order(field: :desc)`.
    pub fn where_order_limit(
        &mut self,
        model: &str,
        conds: &[(&str, Datum)],
        order_field: &str,
        descending: bool,
        limit: Option<usize>,
    ) -> OrmResult<Vec<Record>> {
        let def = self.model(model)?;
        let col = def
            .column_index(order_field)
            .ok_or_else(|| OrmError::Config(format!("{model} has no column {order_field}")))?;
        let mut rows = self.where_(model, conds)?;
        rows.sort_by(|a, b| {
            let ord = a.at(col).cmp(b.at(col));
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
        if let Some(n) = limit {
            rows.truncate(n);
        }
        Ok(rows)
    }

    /// `Model.where(conds).pluck(field)` — one datum per matching row.
    pub fn pluck(
        &mut self,
        model: &str,
        conds: &[(&str, Datum)],
        field: &str,
    ) -> OrmResult<Vec<Datum>> {
        let rows = self.where_(model, conds)?;
        Ok(rows.iter().map(|r| r.get(field)).collect())
    }

    /// `Model.where(conds).update_all(sets)` — direct bulk UPDATE,
    /// **skipping validations and callbacks** (the Rails footgun: stale
    /// counter caches, unvalidated data). Returns rows affected.
    pub fn update_all(
        &mut self,
        model: &str,
        conds: &[(&str, Datum)],
        sets: &[(&str, Datum)],
    ) -> OrmResult<usize> {
        let def = self.model(model)?;
        let owned_sets: Vec<(usize, Datum)> = sets
            .iter()
            .map(|(k, v)| {
                def.column_index(k)
                    .map(|i| (i, v.clone()))
                    .ok_or_else(|| OrmError::Config(format!("{model} has no column {k}")))
            })
            .collect::<OrmResult<_>>()?;
        self.with_txn(|_, tx| {
            let pred = conds_to_pred(&def, conds)?;
            let rows = tx.scan(&def.table, &pred)?;
            let n = rows.len();
            for (rref, tuple) in rows {
                let mut new = (*tuple).clone();
                for (i, v) in &owned_sets {
                    new[*i] = v.clone();
                }
                tx.update(&def.table, rref, new)?;
            }
            Ok(n)
        })
    }

    /// `Model.where(conds).delete_all` — direct bulk DELETE, skipping
    /// callbacks and dependent-association logic. Returns rows deleted.
    pub fn delete_all(&mut self, model: &str, conds: &[(&str, Datum)]) -> OrmResult<usize> {
        let def = self.model(model)?;
        self.with_txn(|_, tx| {
            let pred = conds_to_pred(&def, conds)?;
            Ok(tx.delete_where(&def.table, &pred)?)
        })
    }

    /// `Model.count`.
    pub fn count(&mut self, model: &str) -> OrmResult<usize> {
        let def = self.model(model)?;
        self.with_txn(|_, tx| Ok(tx.count(&def.table, &Predicate::True)?))
    }

    /// Load the records on the "many" side of `record.assoc`.
    pub fn associated(&mut self, record: &Record, assoc_name: &str) -> OrmResult<Vec<Record>> {
        let model = record.model.clone();
        let assoc = model
            .association(assoc_name)
            .ok_or_else(|| {
                OrmError::Config(format!("{} has no association {assoc_name}", model.name))
            })?
            .clone();
        match assoc.kind {
            AssocKind::BelongsTo => {
                let fk = record.get(&assoc.foreign_key);
                if fk.is_null() {
                    return Ok(vec![]);
                }
                self.where_(&assoc.target, &[("id", fk)])
            }
            AssocKind::HasOne | AssocKind::HasMany => {
                if let Some(through_name) = &assoc.through {
                    // has_many :through — join via the intermediate
                    let through = model
                        .association(through_name)
                        .ok_or_else(|| {
                            OrmError::Config(format!(
                                "{} has no association {through_name}",
                                model.name
                            ))
                        })?
                        .clone();
                    let intermediates = self.associated(record, &through.name)?;
                    let mut out = Vec::new();
                    for im in intermediates {
                        // the intermediate belongs_to the final target
                        let target_assoc = im
                            .model
                            .associations
                            .iter()
                            .find(|a| a.kind == AssocKind::BelongsTo && a.target == assoc.target)
                            .cloned();
                        if let Some(ta) = target_assoc {
                            out.extend(self.associated(&im, &ta.name)?);
                        }
                    }
                    return Ok(out);
                }
                let Some(id) = record.id() else {
                    return Ok(vec![]);
                };
                self.where_(
                    &assoc.target,
                    &[(assoc.foreign_key.as_str(), Datum::Int(id))],
                )
            }
        }
    }

    /// `record.reload`.
    pub fn reload(&mut self, record: &mut Record) -> OrmResult<()> {
        let model = record.model.clone();
        let Some(id) = record.id() else {
            return Err(OrmError::Config("cannot reload an unsaved record".into()));
        };
        let fresh = self.find(&model.name, id)?;
        record.refresh_from(Arc::new(fresh.to_tuple()));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Locking
    // ------------------------------------------------------------------

    /// `record.lock!`: pessimistic `SELECT ... FOR UPDATE` on the record's
    /// row, refreshing the in-memory attributes. Meaningful inside a
    /// [`Session::transaction`] block, where the lock is held to commit.
    pub fn lock(&mut self, record: &mut Record) -> OrmResult<()> {
        let model = record.model.clone();
        let Some(id) = record.id() else {
            return Err(OrmError::Config("cannot lock an unsaved record".into()));
        };
        let row: Arc<Tuple> = self.with_txn(|_, tx| {
            let rows = tx.select_for_update(&model.table, &Predicate::eq(0, id))?;
            rows.into_iter()
                .next()
                .map(|(_, row)| row)
                .ok_or_else(|| OrmError::RecordNotFound(format!("{} with id={id}", model.name)))
        })?;
        record.refresh_from(row);
        Ok(())
    }

    /// Run a custom read inside this session's transaction context — used
    /// by controller-style code that needs raw queries.
    pub fn query<T>(
        &mut self,
        f: impl FnOnce(&mut dyn crate::model::QueryCtx) -> OrmResult<T>,
    ) -> OrmResult<T> {
        self.with_txn(|app, tx| {
            let mut ctx = TxnQueryCtx { app, tx };
            f(&mut ctx)
        })
    }
}

/// Locate the committed row for `id`.
fn locate(tx: &mut Transaction, model: &ModelDef, id: i64) -> OrmResult<Option<RowRef>> {
    let rows = tx.scan(&model.table, &Predicate::eq(0, id))?;
    Ok(rows.into_iter().next().map(|(rref, _)| rref))
}

/// Insert or update `record` (validations already passed).
fn write_record(app: &App, tx: &mut Transaction, record: &mut Record) -> OrmResult<()> {
    let model = record.model.clone();
    let now = now_micros();
    if !record.is_persisted() {
        if model.timestamps {
            record.set("created_at", Datum::Timestamp(now));
            record.set("updated_at", Datum::Timestamp(now));
        }
        if model.lock_version && record.attr("lock_version").is_null() {
            record.set("lock_version", 0i64);
        }
        let rref = tx.insert(&model.table, record.to_tuple())?;
        let table_id = app.db().table_id(&model.table)?;
        if let Some(tuple) = tx.read_ref(table_id, rref) {
            record.set("id", tuple[0].clone());
        }
        record.mark_persisted();
        return Ok(());
    }
    let id = record
        .id()
        .ok_or_else(|| OrmError::Config("persisted record without id".into()))?;
    if model.lock_version {
        // Rails issues `UPDATE ... WHERE id = ? AND lock_version = ?` and
        // raises StaleObjectError when no row matches. The atomic
        // conditional update is modelled as a locked re-read + compare.
        let rows = tx.select_for_update(&model.table, &Predicate::eq(0, id))?;
        let Some((rref, current)) = rows.into_iter().next() else {
            return Err(OrmError::StaleObject(format!(
                "attempted to update a stale (deleted) {}",
                model.name
            )));
        };
        let lv_col = model
            .column_index("lock_version")
            .ok_or_else(|| OrmError::Config("lock_version column missing".into()))?;
        let mine = record.attr("lock_version").as_int().unwrap_or(0);
        let theirs = current[lv_col].as_int().unwrap_or(0);
        if mine != theirs {
            return Err(OrmError::StaleObject(format!(
                "attempted to update a stale {} (lock_version {mine} != {theirs})",
                model.name
            )));
        }
        record.set("lock_version", mine + 1);
        if model.timestamps {
            record.set("updated_at", Datum::Timestamp(now));
        }
        tx.update(&model.table, rref, record.to_tuple())?;
        return Ok(());
    }
    let Some(rref) = locate(tx, &model, id)? else {
        return Err(OrmError::RecordNotFound(format!(
            "{} with id={id} (row vanished before update)",
            model.name
        )));
    };
    if model.timestamps {
        record.set("updated_at", Datum::Timestamp(now));
    }
    tx.update(&model.table, rref, record.to_tuple())?;
    Ok(())
}

/// Emit one [`feral_trace::EventKind::SaveWrite`] per uniqueness-validated
/// field: the provenance analyzer pairs these with the corresponding
/// validation probes to name racing saves of the same key.
fn trace_save_writes(tx: &Transaction, record: &Record) {
    if !feral_trace::enabled() {
        return;
    }
    let model = &record.model;
    let table_hash = feral_trace::fnv64(model.table.as_bytes());
    for v in &model.validators {
        if let Validator::Uniqueness { field, .. } = v {
            feral_trace::record(
                feral_trace::EventKind::SaveWrite,
                tx.id(),
                datum_fingerprint(record.attr(field)),
                table_hash,
            );
        }
    }
}

/// Run the callbacks of `kind` declared on the record's model.
fn run_callbacks(record: &mut Record, kind: CallbackKind) {
    if record.model.callbacks.is_empty() {
        return;
    }
    let model = record.model.clone();
    for (k, _, f) in &model.callbacks {
        if *k == kind {
            f(record);
        }
    }
}

/// Maintain `counter_cache` columns on the parents of `record`'s
/// `belongs_to` associations: the Rails-faithful atomic
/// `UPDATE parents SET <children>_count = <children>_count + delta`.
fn maintain_counter_caches(
    app: &App,
    tx: &mut Transaction,
    record: &Record,
    delta: i64,
) -> OrmResult<()> {
    let model = record.model.clone();
    for assoc in &model.associations {
        if assoc.kind != AssocKind::BelongsTo || !assoc.counter_cache {
            continue;
        }
        let fk = record.get(&assoc.foreign_key);
        if fk.is_null() {
            continue;
        }
        let parent = app.model(&assoc.target)?;
        let counter_col_name = format!("{}_count", model.table);
        let col = parent.column_index(&counter_col_name).ok_or_else(|| {
            OrmError::Config(format!(
                "{} must declare an integer {counter_col_name} column for counter_cache",
                parent.name
            ))
        })?;
        let rows = tx.scan(&parent.table, &Predicate::eq(0, fk))?;
        for (rref, _) in rows {
            tx.update_with(&parent.table, rref, |current| {
                let mut new = current.clone();
                let v = new[col].as_int().unwrap_or(0);
                new[col] = Datum::Int(v + delta);
                new
            })?;
        }
    }
    Ok(())
}

/// The feral cascading destroy (paper §5.3): find children with a plain
/// snapshot `SELECT`, destroy them at the application level, then delete
/// the owner. Children inserted concurrently after the `SELECT` are
/// silently missed — the source of Figure 4/5's orphans.
fn destroy_in_txn(
    app: &App,
    tx: &mut Transaction,
    model: &Arc<ModelDef>,
    id: i64,
    visited: &mut HashSet<(String, i64)>,
) -> OrmResult<()> {
    if !visited.insert((model.table.clone(), id)) {
        return Ok(()); // association cycle
    }
    feral_trace::record(
        feral_trace::EventKind::DestroyCascade,
        tx.id(),
        feral_trace::fnv64(id.to_string().as_bytes()),
        feral_trace::fnv64(model.table.as_bytes()),
    );
    for assoc in &model.associations {
        if assoc.through.is_some() {
            continue;
        }
        let Some(dependent) = assoc.dependent else {
            continue;
        };
        if assoc.kind == AssocKind::BelongsTo {
            continue;
        }
        let target = app.target_of(assoc)?;
        let col = target.column_index(&assoc.foreign_key).ok_or_else(|| {
            OrmError::Config(format!(
                "{} has no column {}",
                target.name, assoc.foreign_key
            ))
        })?;
        let children = tx.scan(&target.table, &Predicate::eq(col, id))?;
        match dependent {
            Dependent::Restrict => {
                if !children.is_empty() {
                    return Err(OrmError::RecordNotDestroyed(format!(
                        "cannot delete {} {id}: {} dependent {}",
                        model.name,
                        children.len(),
                        assoc.name
                    )));
                }
            }
            Dependent::DeleteAll => {
                for (rref, _) in children {
                    tx.delete(&target.table, rref)?;
                }
            }
            Dependent::Nullify => {
                for (rref, tuple) in children {
                    let mut new = (*tuple).clone();
                    new[col] = Datum::Null;
                    tx.update(&target.table, rref, new)?;
                }
            }
            Dependent::Destroy => {
                for (_, tuple) in children {
                    let child_id = tuple[0]
                        .as_int()
                        .ok_or_else(|| OrmError::Config("child row without integer id".into()))?;
                    destroy_in_txn(app, tx, &target, child_id, visited)?;
                }
            }
        }
    }
    let rows = tx.scan(&model.table, &Predicate::eq(0, id))?;
    for (rref, tuple) in rows {
        tx.delete(&model.table, rref)?;
        // destroy runs each record's counter-cache bookkeeping (delete,
        // by contrast, skips it — which is how Rails counters drift)
        let rec = Record::from_row(model.clone(), tuple);
        maintain_counter_caches(app, tx, &rec, -1)?;
    }
    Ok(())
}
