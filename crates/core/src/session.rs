//! Sessions: one worker's database connection and the ActiveRecord
//! persistence operations (`save`, `create`, `destroy`, finders, locking,
//! `Model.transaction` blocks).

use crate::app::{conds_to_pred, App};
use crate::errors::{OrmError, OrmResult};
use crate::model::{AssocKind, CallbackKind, Dependent, ModelDef, Validator};
use crate::record::Record;
use crate::validations::{datum_fingerprint, validate_record, TxnQueryCtx};
use feral_db::{
    Database, Datum, IsolationLevel, Predicate, Row, RowRef, TableHandle, TableId, Transaction,
};
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

/// A model as a session resolved it: a copy of its definition that the
/// session owns, and its table's handle.
pub(crate) struct Resolved {
    /// The session's copy of the registered definition. The records a
    /// request builds count their references to it on a line no other
    /// session writes.
    pub(crate) def: Arc<ModelDef>,
    /// The model's table: statements through it take no catalog latch.
    pub(crate) table: TableHandle,
}

/// The models a session has resolved, and the application it resolves
/// them in: valid while the registry's definition generation is
/// `generation`, each table handle while the catalog epoch it was
/// resolved at is current. Naming a model takes no lock on the shared
/// registry and no catalog latch unless one of them changed. The cache
/// lives in the session, not in a thread-local, so it keeps nothing
/// alive past the session.
pub(crate) struct Models {
    pub(crate) app: App,
    resolved: Vec<Resolved>,
    generation: u64,
}

impl Models {
    fn new(app: App) -> Self {
        Models {
            app,
            resolved: Vec::new(),
            generation: 0,
        }
    }

    /// `name`'s definition and table handle, revalidated.
    pub(crate) fn resolve(&mut self, name: &str) -> OrmResult<&Resolved> {
        let generation = self.app.models_generation();
        if generation != self.generation {
            self.resolved.clear();
            self.generation = generation;
        }
        let slot = match self.resolved.iter().position(|r| r.def.name == name) {
            Some(slot) => slot,
            None => {
                let def = Arc::new(ModelDef::clone(&*self.app.model(name)?));
                let table = self.app.db().table(&def.table)?;
                self.resolved.push(Resolved { def, table });
                self.resolved.len() - 1
            }
        };
        let r = &mut self.resolved[slot];
        if !r.table.is_current(self.app.db()) {
            r.table = self.app.db().table(&r.def.table)?;
        }
        Ok(r)
    }
}

/// One worker's connection to the database.
///
/// Each HTTP request in a Rails deployment is served by exactly one worker
/// holding one connection; concurrency across requests exists *only* at
/// the database (paper §2.2). A `Session` is therefore the unit that
/// [`crate::App`]-level experiments hand to each worker thread.
pub struct Session {
    models: Models,
    isolation: IsolationLevel,
    current: Option<Transaction>,
    /// The database handle this session lends each transaction it opens
    /// and takes back from it when it finishes; `None` while lent, and
    /// after a panic lost it with its transaction (the next transaction
    /// clones the application's).
    db: Option<Database>,
}

impl Session {
    pub(crate) fn new(app: App, isolation: IsolationLevel) -> Self {
        Session {
            models: Models::new(app),
            isolation,
            current: None,
            db: None,
        }
    }

    /// Look up a model by class name: the session's copy of it.
    fn model(&mut self, name: &str) -> OrmResult<Arc<ModelDef>> {
        Ok(self.models.resolve(name)?.def.clone())
    }

    /// Open a transaction on the handle this session owns.
    fn begin(&mut self) -> Transaction {
        let db = self
            .db
            .take()
            .unwrap_or_else(|| self.models.app.db().clone());
        db.into_txn().isolation(self.isolation).begin()
    }

    /// Commit (`Ok`) or roll back (`Err`) `tx`, and take the handle back.
    fn finish<T>(&mut self, mut tx: Transaction, result: OrmResult<T>) -> OrmResult<T> {
        let result = match result {
            Ok(v) => tx.commit().map(|()| v).map_err(OrmError::from),
            Err(e) => Err(e),
        };
        self.db = Some(tx.into_database());
        result
    }

    /// The owning application.
    pub fn app(&self) -> &App {
        &self.models.app
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
        f: impl FnOnce(&mut Models, &mut Transaction) -> OrmResult<T>,
    ) -> OrmResult<T> {
        if let Some(tx) = self.current.as_mut() {
            return f(&mut self.models, tx);
        }
        let mut tx = self.begin();
        let result = f(&mut self.models, &mut tx);
        self.finish(tx, result)
    }

    /// `Model.transaction do ... end`: run `f` inside one database
    /// transaction; nested calls join the open transaction (Rails'
    /// default savepoint-less nesting).
    pub fn transaction<T>(&mut self, f: impl FnOnce(&mut Session) -> OrmResult<T>) -> OrmResult<T> {
        if self.current.is_some() {
            return f(self);
        }
        self.current = Some(self.begin());
        // a panic in `f` must not leave the block's transaction open in
        // `current`, for later calls to join: it is rolled back and its
        // handle dropped with it
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        let tx = self.current.take();
        match (result, tx) {
            (Ok(result), Some(tx)) => self.finish(tx, result),
            (Ok(result), None) => result,
            (Err(panic), tx) => {
                drop(tx);
                std::panic::resume_unwind(panic)
            }
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
        let delay = self.models.app.validation_write_delay();
        let was_new = !record.is_persisted();
        run_callbacks(record, CallbackKind::BeforeValidation);
        let save_span = feral_trace::start_phase(feral_trace::Phase::Save);
        let result = self.with_txn(|models, tx| {
            let validate_span = feral_trace::start_phase(feral_trace::Phase::Validate);
            let errors = validate_record(models, tx, record, 0)?;
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
            write_record(models, tx, record)?;
            trace_save_writes(tx, record);
            write_span.finish(tx.id());
            if was_new {
                maintain_counter_caches(models, tx, record, 1)?;
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
        self.with_txn(|models, tx| {
            let mut visited = HashSet::new();
            destroy_in_txn(models, tx, &model, id, &mut visited)?;
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
        self.with_txn(|models, tx| {
            let table = &models.resolve(&model.name)?.table;
            let rows = tx.scan(table, &Predicate::eq(0, id))?;
            for (rref, _) in rows {
                tx.delete(table, rref)?;
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
        let (def, rows) = self.with_txn(|models, tx| {
            let m = models.resolve(model)?;
            let pred = conds_to_pred(&m.def, conds)?;
            Ok((m.def.clone(), tx.scan(&m.table, &pred)?))
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
        self.with_txn(|models, tx| {
            let table = &models.resolve(model)?.table;
            let pred = conds_to_pred(&def, conds)?;
            let rows = tx.scan(table, &pred)?;
            let n = rows.len();
            for (rref, tuple) in rows {
                let mut new = tuple.to_vec();
                for (i, v) in &owned_sets {
                    new[*i] = v.clone();
                }
                tx.update(table, rref, new)?;
            }
            Ok(n)
        })
    }

    /// `Model.where(conds).delete_all` — direct bulk DELETE, skipping
    /// callbacks and dependent-association logic. Returns rows deleted.
    pub fn delete_all(&mut self, model: &str, conds: &[(&str, Datum)]) -> OrmResult<usize> {
        self.with_txn(|models, tx| {
            let m = models.resolve(model)?;
            let pred = conds_to_pred(&m.def, conds)?;
            Ok(tx.delete_where(&m.table, &pred)?)
        })
    }

    /// `Model.count`.
    pub fn count(&mut self, model: &str) -> OrmResult<usize> {
        self.with_txn(|models, tx| Ok(tx.count(&models.resolve(model)?.table, &Predicate::True)?))
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
        record.refresh_from(Row::from(fresh.to_tuple()));
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
        let row: Row = self.with_txn(|models, tx| {
            let table = &models.resolve(&model.name)?.table;
            let rows = tx.select_for_update(table, &Predicate::eq(0, id))?;
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
        self.with_txn(|models, tx| {
            let mut ctx = TxnQueryCtx { models, tx };
            f(&mut ctx)
        })
    }
}

/// Locate the committed row for `id`.
fn locate(tx: &mut Transaction, table: &TableHandle, id: i64) -> OrmResult<Option<RowRef>> {
    let rows = tx.scan(table, &Predicate::eq(0, id))?;
    Ok(rows.into_iter().next().map(|(rref, _)| rref))
}

/// Insert or update `record` (validations already passed).
fn write_record(models: &mut Models, tx: &mut Transaction, record: &mut Record) -> OrmResult<()> {
    let model = record.model.clone();
    let table = &models.resolve(&model.name)?.table;
    let now = now_micros();
    if !record.is_persisted() {
        if model.timestamps {
            record.set("created_at", Datum::Timestamp(now));
            record.set("updated_at", Datum::Timestamp(now));
        }
        if model.lock_version && record.attr("lock_version").is_null() {
            record.set("lock_version", 0i64);
        }
        let rref = tx.insert(table, record.to_tuple())?;
        if let Some(tuple) = tx.read_ref(table.id(), rref) {
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
        let rows = tx.select_for_update(table, &Predicate::eq(0, id))?;
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
        tx.update(table, rref, record.to_tuple())?;
        return Ok(());
    }
    let Some(rref) = locate(tx, table, id)? else {
        return Err(OrmError::RecordNotFound(format!(
            "{} with id={id} (row vanished before update)",
            model.name
        )));
    };
    if model.timestamps {
        record.set("updated_at", Datum::Timestamp(now));
    }
    tx.update(table, rref, record.to_tuple())?;
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
    models: &mut Models,
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
        let parent = models.resolve(&assoc.target)?;
        let counter_col_name = format!("{}_count", model.table);
        let col = parent.def.column_index(&counter_col_name).ok_or_else(|| {
            OrmError::Config(format!(
                "{} must declare an integer {counter_col_name} column for counter_cache",
                parent.def.name
            ))
        })?;
        let rows = tx.scan(&parent.table, &Predicate::eq(0, fk))?;
        for (rref, _) in rows {
            tx.update_with(&parent.table, rref, |current| {
                let mut new = current.to_vec();
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
    models: &mut Models,
    tx: &mut Transaction,
    model: &Arc<ModelDef>,
    id: i64,
    visited: &mut HashSet<(TableId, i64)>,
) -> OrmResult<()> {
    let owner = models.resolve(&model.name)?.table.clone();
    if !visited.insert((owner.id(), id)) {
        return Ok(()); // association cycle
    }
    if feral_trace::enabled() {
        feral_trace::record(
            feral_trace::EventKind::DestroyCascade,
            tx.id(),
            feral_trace::fnv64(id.to_string().as_bytes()),
            feral_trace::fnv64(model.table.as_bytes()),
        );
    }
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
        let resolved = models.resolve(&assoc.target)?;
        let (target, table) = (resolved.def.clone(), resolved.table.clone());
        let col = target.column_index(&assoc.foreign_key).ok_or_else(|| {
            OrmError::Config(format!(
                "{} has no column {}",
                target.name, assoc.foreign_key
            ))
        })?;
        let children = tx.scan(&table, &Predicate::eq(col, id))?;
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
                    tx.delete(&table, rref)?;
                }
            }
            Dependent::Nullify => {
                for (rref, tuple) in children {
                    let mut new = tuple.to_vec();
                    new[col] = Datum::Null;
                    tx.update(&table, rref, new)?;
                }
            }
            Dependent::Destroy => {
                for (_, tuple) in children {
                    let child_id = tuple[0]
                        .as_int()
                        .ok_or_else(|| OrmError::Config("child row without integer id".into()))?;
                    destroy_in_txn(models, tx, &target, child_id, visited)?;
                }
            }
        }
    }
    let rows = tx.scan(&owner, &Predicate::eq(0, id))?;
    for (rref, tuple) in rows {
        tx.delete(&owner, rref)?;
        // destroy runs each record's counter-cache bookkeeping (delete,
        // by contrast, skips it — which is how Rails counters drift)
        let rec = Record::from_row(model.clone(), tuple);
        maintain_counter_caches(models, tx, &rec, -1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_db::{DbError, OnDelete};

    fn app() -> App {
        let app = App::in_memory();
        app.define(ModelDef::build("Department").string("name").finish())
            .unwrap();
        app.define(
            ModelDef::build("User")
                .string("email")
                .belongs_to("department")
                .finish(),
        )
        .unwrap();
        app.add_index("User", &["email"], true).unwrap();
        app
    }

    fn user(email: &str, department: i64) -> [(&str, Datum); 2] {
        [
            ("email", Datum::text(email)),
            ("department_id", Datum::Int(department)),
        ]
    }

    /// The session has the handle back after every way a statement's
    /// transaction ends: a read, an accepted write, a write the database
    /// refuses, a `transaction` block that fails. A panic inside a
    /// session closure — `query`'s or a `transaction` block's — drops the
    /// transaction and that handle with it; the next call clones a new
    /// one.
    #[test]
    fn the_session_takes_its_handle_back_and_a_panic_loses_only_that_one() {
        let app = app();
        let mut s = app.session();
        assert!(s.db.is_none(), "cloned on first use");
        let dept = s.create_strict("Department", &[("name", Datum::text("eng"))]);
        let dept = dept.unwrap().id().unwrap();
        assert!(s.db.is_some());
        s.create_strict("User", &user("a@example.com", dept))
            .unwrap();
        s.find("User", 1).unwrap();
        assert!(s.db.is_some());
        let refused = s.create("User", &user("a@example.com", dept));
        assert!(matches!(
            refused,
            Err(OrmError::Db(DbError::UniqueViolation { .. }))
        ));
        assert!(s.db.is_some());
        let failed: OrmResult<()> = s.transaction(|s| {
            s.create_strict("User", &user("b@example.com", dept))?;
            Err(OrmError::Config("roll it back".into()))
        });
        assert!(failed.is_err());
        assert!(s.db.is_some() && s.current.is_none());
        assert_eq!(s.count("User").unwrap(), 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.query(|_| -> OrmResult<()> { panic!("a controller bug") })
        }));
        assert!(panicked.is_err());
        assert!(s.db.is_none(), "lost with its transaction");
        assert_eq!(
            s.find("User", 1).unwrap().get("email"),
            Datum::text("a@example.com")
        );
        assert!(s.db.is_some());
        // a panic in a `transaction` block rolls the block back, and the
        // next call runs in a transaction of its own
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.transaction(|s| -> OrmResult<()> {
                s.create_strict("User", &user("c@example.com", dept))?;
                panic!("a controller bug")
            })
        }));
        assert!(panicked.is_err());
        assert!(s.db.is_none() && s.current.is_none());
        s.create_strict("User", &user("d@example.com", dept))
            .unwrap();
        assert_eq!(app.session().count("User").unwrap(), 2);
        assert_eq!(app.db().stats().snapshot().aborts, 4);
    }

    /// A foreign key added after the session resolved the child's table
    /// bumps the catalog epoch: the session's handle goes stale, and the
    /// orphan insert it would have let through is refused. (The key itself
    /// is refused while an orphan it would cover is committed.)
    #[test]
    fn a_session_sees_a_foreign_key_added_after_it_resolved_the_child() {
        let app = app();
        let mut s = app.session();
        let dept = s.create_strict("Department", &[("name", Datum::text("eng"))]);
        let dept = dept.unwrap().id().unwrap();
        s.create_strict("User", &user("a@example.com", dept))
            .unwrap();
        s.create_strict("User", &user("orphan@example.com", 99))
            .unwrap();
        assert!(app
            .add_foreign_key("User", "department", OnDelete::Restrict)
            .is_err());
        let orphans = [("department_id", Datum::Int(99))];
        assert_eq!(s.delete_all("User", &orphans).unwrap(), 1);
        app.add_foreign_key("User", "department", OnDelete::Restrict)
            .unwrap();
        assert!(matches!(
            s.create("User", &user("b@example.com", 99)),
            Err(OrmError::Db(DbError::ForeignKeyViolation { .. }))
        ));
        s.create_strict("User", &user("c@example.com", dept))
            .unwrap();
    }
}
