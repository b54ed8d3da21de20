//! The application object: a model registry bound to a database.

use crate::errors::{OrmError, OrmResult};
use crate::model::{Association, ModelDef};
use crate::record::Record;
use crate::session::Session;
use feral_db::{ColumnDef, Database, Datum, IsolationLevel, OnDelete, Predicate, TableSchema};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running application: the set of defined models plus the shared
/// database handle. Cloning is cheap; all clones share state (like Rails
/// worker processes sharing one database).
#[derive(Clone)]
pub struct App {
    pub(crate) inner: Arc<AppInner>,
}

pub(crate) struct AppInner {
    pub(crate) db: Database,
    pub(crate) models: RwLock<HashMap<String, Arc<ModelDef>>>,
    /// Bumped (under the `models` write lock) by every registration. A
    /// [`Session`] caches the definitions it resolved and revalidates the
    /// cache against this, so a request takes no lock to name its model.
    pub(crate) models_generation: AtomicU64,
    /// Artificial delay, in nanoseconds, injected between a save's
    /// validation pass and its write, modelling controller/VM/network
    /// latency between the SQL statements of a production deployment.
    /// Widens the race window the paper's experiments exercise; zero by
    /// default.
    pub(crate) validation_write_delay_nanos: AtomicU64,
}

impl App {
    /// Create an application over `db`.
    pub fn new(db: Database) -> App {
        App {
            inner: Arc::new(AppInner {
                db,
                models: RwLock::new(HashMap::new()),
                models_generation: AtomicU64::new(0),
                validation_write_delay_nanos: AtomicU64::new(0),
            }),
        }
    }

    /// Create an application over a fresh in-memory database (Read
    /// Committed default, like PostgreSQL).
    pub fn in_memory() -> App {
        App::new(Database::in_memory())
    }

    /// The shared database handle.
    pub fn db(&self) -> &Database {
        &self.inner.db
    }

    /// Configure the validate→write delay (see `AppInner` docs).
    pub fn set_validation_write_delay(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.inner
            .validation_write_delay_nanos
            .store(nanos, Ordering::Relaxed);
    }

    pub(crate) fn validation_write_delay(&self) -> Duration {
        Duration::from_nanos(
            self.inner
                .validation_write_delay_nanos
                .load(Ordering::Relaxed),
        )
    }

    /// Add `def` to the registry under its write lock and publish a new
    /// definition generation.
    fn register(
        &self,
        models: &mut HashMap<String, Arc<ModelDef>>,
        def: &Arc<ModelDef>,
    ) -> OrmResult<()> {
        if models.contains_key(&def.name) {
            return Err(OrmError::Config(format!(
                "model {} already defined",
                def.name
            )));
        }
        models.insert(def.name.clone(), def.clone());
        self.inner.models_generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Register a model and create its backing table (the analogue of
    /// running the model's creation migration).
    pub fn define(&self, def: ModelDef) -> OrmResult<Arc<ModelDef>> {
        let def = Arc::new(def);
        self.register(&mut self.inner.models.write(), &def)?;
        let columns: Vec<ColumnDef> = def
            .columns()
            .iter()
            .map(|(name, ty)| ColumnDef::new(name.clone(), *ty))
            .collect();
        self.inner
            .db
            .create_table(TableSchema::new(def.table.clone(), columns))?;
        Ok(def)
    }

    /// Register a model against an existing (e.g. WAL-recovered) table,
    /// creating the table only when it is missing — the reopen path for
    /// durable applications.
    pub fn define_or_attach(&self, def: ModelDef) -> OrmResult<Arc<ModelDef>> {
        if self.inner.db.table_id(&def.table).is_ok() {
            let def = Arc::new(def);
            let mut models = self.inner.models.write();
            // sanity-check the recovered schema against the definition
            let info = self.inner.db.table_info(&def.table)?;
            for (name, _) in def.columns() {
                if info.schema.column_index(name).is_err() {
                    return Err(OrmError::Config(format!(
                        "recovered table {} lacks column {name} declared by model {}",
                        def.table, def.name
                    )));
                }
            }
            self.register(&mut models, &def)?;
            return Ok(def);
        }
        self.define(def)
    }

    /// Look up a model by class name.
    pub fn model(&self, name: &str) -> OrmResult<Arc<ModelDef>> {
        self.inner
            .models
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| OrmError::Config(format!("unknown model {name}")))
    }

    /// All registered models (registration order not guaranteed).
    pub fn models(&self) -> Vec<Arc<ModelDef>> {
        self.inner.models.read().values().cloned().collect()
    }

    /// Instantiate a new, blank record of `model`.
    pub fn new_record(&self, model: &str) -> OrmResult<Record> {
        Ok(Record::new(self.model(model)?))
    }

    /// The registry's definition generation (see `AppInner`).
    pub(crate) fn models_generation(&self) -> u64 {
        self.inner.models_generation.load(Ordering::Acquire)
    }

    /// Open a session (one worker's connection) at the database's default
    /// isolation level.
    pub fn session(&self) -> Session {
        Session::new(self.clone(), self.inner.db.default_isolation())
    }

    /// Open a session at an explicit isolation level.
    pub fn session_with(&self, isolation: IsolationLevel) -> Session {
        Session::new(self.clone(), isolation)
    }

    // --- migrations ---------------------------------------------------
    //
    // Deliberately separate from model definitions: as the paper observes
    // (§5.2 footnote 10), Rails schema changes like unique indexes live in
    // migrations, apart from the domain model.

    /// Migration: add an index on `model.field`, optionally `unique: true`
    /// — the in-database fix for feral uniqueness validations.
    pub fn add_index(&self, model: &str, fields: &[&str], unique: bool) -> OrmResult<()> {
        let def = self.model(model)?;
        self.inner.db.create_index(&def.table, fields, unique)?;
        Ok(())
    }

    /// Migration: add an in-database foreign key backing a `belongs_to`
    /// association (what the `foreigner`/`schema_plus` gems provide).
    pub fn add_foreign_key(
        &self,
        child_model: &str,
        association: &str,
        on_delete: OnDelete,
    ) -> OrmResult<()> {
        let child = self.model(child_model)?;
        let assoc = child
            .association(association)
            .ok_or_else(|| {
                OrmError::Config(format!("{child_model} has no association {association}"))
            })?
            .clone();
        let parent = self.model(&assoc.target)?;
        self.inner.db.add_foreign_key(
            &child.table,
            &assoc.foreign_key,
            &parent.table,
            on_delete,
        )?;
        Ok(())
    }

    // --- helpers shared by the persistence/validation layers -----------

    /// Resolve an association target model.
    pub(crate) fn target_of(&self, assoc: &Association) -> OrmResult<Arc<ModelDef>> {
        self.model(&assoc.target)
    }
}

/// Build an engine predicate for `(attribute, value)` equalities on
/// `model` (NULL values become `IS NULL` tests, as Rails generates). The
/// conditions are borrowed as the caller holds them; no conditions match
/// every row.
pub(crate) fn conds_to_pred(
    model: &ModelDef,
    conds: &[(impl AsRef<str>, Datum)],
) -> OrmResult<Predicate> {
    let mut pred: Option<Predicate> = None;
    for (field, value) in conds {
        let field = field.as_ref();
        let col = model
            .column_index(field)
            .ok_or_else(|| OrmError::Config(format!("{} has no column {field}", model.name)))?;
        let clause = if value.is_null() {
            Predicate::IsNull(col)
        } else {
            Predicate::eq(col, value.clone())
        };
        pred = Some(match pred {
            Some(p) => p.and(clause),
            None => clause,
        });
    }
    Ok(pred.unwrap_or(Predicate::True))
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.inner.models.read().keys().cloned().collect();
        f.debug_struct("App").field("models", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelDef;

    #[test]
    fn define_creates_table_with_bookkeeping_columns() {
        let app = App::in_memory();
        app.define(ModelDef::build("User").string("name").finish())
            .unwrap();
        let info = app.db().table_info("users").unwrap();
        let names: Vec<&str> = info
            .schema
            .columns
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["id", "name", "created_at", "updated_at"]);
    }

    #[test]
    fn duplicate_model_rejected() {
        let app = App::in_memory();
        app.define(ModelDef::build("User").finish()).unwrap();
        assert!(matches!(
            app.define(ModelDef::build("User").finish()),
            Err(OrmError::Config(_))
        ));
    }

    #[test]
    fn unknown_model_is_config_error() {
        let app = App::in_memory();
        assert!(matches!(app.model("Ghost"), Err(OrmError::Config(_))));
        assert!(matches!(app.new_record("Ghost"), Err(OrmError::Config(_))));
    }

    #[test]
    fn add_index_migration() {
        let app = App::in_memory();
        app.define(ModelDef::build("User").string("name").finish())
            .unwrap();
        app.add_index("User", &["name"], true).unwrap();
    }

    #[test]
    fn add_foreign_key_requires_association() {
        let app = App::in_memory();
        app.define(ModelDef::build("Department").string("name").finish())
            .unwrap();
        app.define(ModelDef::build("User").belongs_to("department").finish())
            .unwrap();
        app.add_foreign_key("User", "department", OnDelete::Cascade)
            .unwrap();
        assert_eq!(app.db().foreign_key_count(), 1);
        assert!(matches!(
            app.add_foreign_key("User", "nope", OnDelete::Cascade),
            Err(OrmError::Config(_))
        ));
    }
}
