//! Model definitions: attributes, validations, associations.
//!
//! A [`ModelDef`] is the runtime equivalent of an ActiveRecord class body:
//! the attribute list plus the `validates_*`, `belongs_to` / `has_many`
//! declarations. Models are defined with the fluent [`ModelBuilder`] and
//! registered with [`crate::App::define`], which creates the backing table
//! (one table per model, Fowler's Active Record pattern).
//!
//! The backing table's column layout — `id`, the declared attributes, then
//! the bookkeeping columns — is fixed once, by [`ModelBuilder::finish`].
//! Every request resolves attribute names against it (a finder's
//! conditions, a record's reads, the wire encoding of a reply), so
//! [`ModelDef::columns`] lends it out and [`ModelDef::column_index`]
//! searches it in place; [`ModelDef::column_order`] is the owned copy for
//! the few callers that want one.

use crate::errors::{Errors, OrmResult};
use crate::inflect;
use crate::pattern::Pattern;
use crate::record::Record;
use feral_db::{DataType, Datum};
use std::sync::Arc;

/// What happens to associated records when the owner is destroyed —
/// enforced *ferally*, in application code, exactly as Rails does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dependent {
    /// Instantiate each child and call `destroy` on it (runs the child's
    /// own dependent logic).
    Destroy,
    /// Issue a bare `DELETE` for the children (no callbacks).
    DeleteAll,
    /// Set the children's foreign key to NULL.
    Nullify,
    /// Refuse to destroy the owner while children exist.
    Restrict,
}

/// Association cardinality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocKind {
    /// `belongs_to :dept` — this model holds the foreign key.
    BelongsTo,
    /// `has_one :profile` — the target holds the foreign key.
    HasOne,
    /// `has_many :users` — the target holds the foreign key.
    HasMany,
}

/// A declared association ("a connection between two Active Record
/// models"). Declaring one produces the foreign-key field but — as the
/// paper stresses — **no** database constraint.
#[derive(Debug, Clone)]
pub struct Association {
    /// Association name (`:department`).
    pub name: String,
    /// Cardinality.
    pub kind: AssocKind,
    /// Target model class name (`"Department"`).
    pub target: String,
    /// Foreign-key column (`department_id`) — on this model for
    /// `belongs_to`, on the target for `has_one`/`has_many`.
    pub foreign_key: String,
    /// Dependent behaviour on destroy (has_one/has_many only).
    pub dependent: Option<Dependent>,
    /// `:through` intermediate association name, if any.
    pub through: Option<String>,
    /// `counter_cache: true` on a `belongs_to`: the parent maintains a
    /// denormalized `<child_table>_count` column, updated in the child's
    /// save/destroy transaction.
    pub counter_cache: bool,
}

/// Options for `validates_numericality_of`.
#[derive(Debug, Clone, Default)]
pub struct Numericality {
    /// Require an integer value.
    pub only_integer: bool,
    /// `greater_than`.
    pub gt: Option<f64>,
    /// `greater_than_or_equal_to`.
    pub ge: Option<f64>,
    /// `less_than`.
    pub lt: Option<f64>,
    /// `less_than_or_equal_to`.
    pub le: Option<f64>,
    /// Skip the check when the value is NULL.
    pub allow_nil: bool,
}

impl Numericality {
    /// Plain "must be a number".
    pub fn number() -> Self {
        Numericality::default()
    }
    /// Builder: integers only.
    pub fn only_integer(mut self) -> Self {
        self.only_integer = true;
        self
    }
    /// Builder: `greater_than`.
    pub fn greater_than(mut self, v: f64) -> Self {
        self.gt = Some(v);
        self
    }
    /// Builder: `greater_than_or_equal_to`.
    pub fn greater_than_or_equal_to(mut self, v: f64) -> Self {
        self.ge = Some(v);
        self
    }
    /// Builder: `less_than`.
    pub fn less_than(mut self, v: f64) -> Self {
        self.lt = Some(v);
        self
    }
    /// Builder: `less_than_or_equal_to`.
    pub fn less_than_or_equal_to(mut self, v: f64) -> Self {
        self.le = Some(v);
        self
    }
    /// Builder: allow NULL.
    pub fn allow_nil(mut self) -> Self {
        self.allow_nil = true;
        self
    }
}

/// Database access available to user-defined validators (the 1.71% of
/// validations in the corpus that are UDFs — §4.3). Runs inside the same
/// transaction as the save, so UDF reads are exactly as (un)protected as
/// built-in validation probes.
pub trait QueryCtx {
    /// Count rows of `model` matching all `(attribute, value)` equalities.
    fn count_where(&mut self, model: &str, conds: &[(String, Datum)]) -> OrmResult<usize>;
    /// Fetch records of `model` matching all equalities.
    fn fetch_where(&mut self, model: &str, conds: &[(String, Datum)]) -> OrmResult<Vec<Record>>;
    /// Whether any row matches.
    fn exists_where(&mut self, model: &str, conds: &[(String, Datum)]) -> OrmResult<bool> {
        Ok(self.count_where(model, conds)? > 0)
    }
}

/// Signature of a user-defined validator.
pub type CustomFn = Arc<dyn Fn(&Record, &mut dyn QueryCtx, &mut Errors) + Send + Sync>;

/// Lifecycle hook points (a subset of Rails' callback chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallbackKind {
    /// Runs before the validation pass (normalization).
    BeforeValidation,
    /// Runs after validations pass, before the write.
    BeforeSave,
    /// Runs after a successful insert, inside the transaction.
    AfterCreate,
    /// Runs after any successful save, inside the transaction.
    AfterSave,
    /// Runs before the row delete in `destroy`.
    BeforeDestroy,
    /// Runs after the row delete in `destroy`, inside the transaction.
    AfterDestroy,
}

/// Signature of a lifecycle callback.
pub type CallbackFn = Arc<dyn Fn(&mut Record) + Send + Sync>;

/// A declared validation — one entry in Rails' `validates_*` vocabulary.
/// The ten most common built-ins from the paper's Table 1 are all here.
#[derive(Clone)]
pub enum Validator {
    /// `validates_presence_of`: non-blank attribute, or — when the field
    /// names a `belongs_to` association — a `SELECT`-probe that the
    /// associated record exists (paper Appendix B.2).
    Presence {
        /// Attribute or association name.
        field: String,
    },
    /// `validates_uniqueness_of`: the feral `SELECT ... LIMIT 1` probe of
    /// paper Appendix B.1. **Not** I-confluent; the subject of Figure 2/3.
    Uniqueness {
        /// Validated attribute.
        field: String,
        /// `scope:` attributes that refine the uniqueness domain.
        scope: Vec<String>,
        /// Rails defaults to case-sensitive comparison.
        case_sensitive: bool,
    },
    /// `validates_length_of`.
    Length {
        /// Validated attribute.
        field: String,
        /// Minimum length, if any.
        min: Option<usize>,
        /// Maximum length, if any.
        max: Option<usize>,
        /// Skip on NULL.
        allow_nil: bool,
    },
    /// `validates_inclusion_of`.
    Inclusion {
        /// Validated attribute.
        field: String,
        /// Allowed values.
        within: Vec<Datum>,
    },
    /// `validates_exclusion_of`.
    Exclusion {
        /// Validated attribute.
        field: String,
        /// Reserved values.
        from: Vec<Datum>,
    },
    /// `validates_numericality_of`.
    NumericalityOf {
        /// Validated attribute.
        field: String,
        /// Constraints.
        opts: Numericality,
    },
    /// `validates_format_of`.
    Format {
        /// Validated attribute.
        field: String,
        /// Compiled pattern.
        with: Pattern,
        /// Skip on NULL.
        allow_nil: bool,
    },
    /// `validates_email` (gem-provided in the corpus).
    Email {
        /// Validated attribute.
        field: String,
    },
    /// `validates_confirmation_of`: `field_confirmation` virtual attribute
    /// must match `field` when supplied.
    Confirmation {
        /// Validated attribute.
        field: String,
    },
    /// `validates_acceptance_of` (terms-of-service checkboxes).
    Acceptance {
        /// Validated attribute.
        field: String,
    },
    /// `validates_associated`: associated records must themselves be valid
    /// (and, for `belongs_to`, present in the database).
    Associated {
        /// Association name.
        assoc: String,
    },
    /// Paperclip's `validates_attachment_content_type`.
    AttachmentContentType {
        /// Attachment name; checks `<field>_content_type`.
        field: String,
        /// Allowed MIME types.
        allowed: Vec<String>,
    },
    /// Paperclip's `validates_attachment_size`; checks `<field>_file_size`.
    AttachmentSize {
        /// Attachment name.
        field: String,
        /// Maximum size in bytes.
        max_bytes: i64,
    },
    /// A user-defined validator (`validates_each` / custom class).
    Custom {
        /// Diagnostic name.
        name: String,
        /// The validation body.
        f: CustomFn,
    },
}

impl std::fmt::Debug for Validator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind_name())
    }
}

impl Validator {
    /// The `validates_*` identifier this validator corresponds to (matches
    /// the paper's Table 1 naming).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Validator::Presence { .. } => "validates_presence_of",
            Validator::Uniqueness { .. } => "validates_uniqueness_of",
            Validator::Length { .. } => "validates_length_of",
            Validator::Inclusion { .. } => "validates_inclusion_of",
            Validator::Exclusion { .. } => "validates_exclusion_of",
            Validator::NumericalityOf { .. } => "validates_numericality_of",
            Validator::Format { .. } => "validates_format_of",
            Validator::Email { .. } => "validates_email",
            Validator::Confirmation { .. } => "validates_confirmation_of",
            Validator::Acceptance { .. } => "validates_acceptance_of",
            Validator::Associated { .. } => "validates_associated",
            Validator::AttachmentContentType { .. } => "validates_attachment_content_type",
            Validator::AttachmentSize { .. } => "validates_attachment_size",
            Validator::Custom { .. } => "custom",
        }
    }
}

/// A fully built model definition.
#[derive(Clone)]
pub struct ModelDef {
    /// Class name (`"User"`).
    pub name: String,
    /// Backing table name (`"users"`).
    pub table: String,
    /// Declared attributes in order (excluding `id` and bookkeeping
    /// columns).
    pub attributes: Vec<(String, DataType)>,
    /// Declared validations, run in order on save.
    pub validators: Vec<Validator>,
    /// Declared associations.
    pub associations: Vec<Association>,
    /// Whether a `lock_version` column (optimistic locking) is present.
    pub lock_version: bool,
    /// Whether `created_at`/`updated_at` are maintained.
    pub timestamps: bool,
    /// Lifecycle callbacks, run in declaration order per hook point.
    pub callbacks: Vec<(CallbackKind, String, CallbackFn)>,
    /// The backing table's column layout, fixed by [`ModelBuilder::finish`].
    columns: Vec<(String, DataType)>,
}

impl ModelDef {
    /// Start building a model.
    pub fn build(name: impl Into<String>) -> ModelBuilder {
        let name = name.into();
        ModelBuilder {
            def: ModelDef {
                table: inflect::table_name(&name),
                name,
                attributes: Vec::new(),
                validators: Vec::new(),
                associations: Vec::new(),
                lock_version: false,
                timestamps: true,
                callbacks: Vec::new(),
                columns: Vec::new(),
            },
        }
    }

    /// Full column layout of the backing table, borrowed: `id`, declared
    /// attributes, then `lock_version` and timestamp columns when enabled.
    pub fn columns(&self) -> &[(String, DataType)] {
        &self.columns
    }

    /// An owned copy of [`ModelDef::columns`].
    pub fn column_order(&self) -> Vec<(String, DataType)> {
        self.columns.clone()
    }

    /// Position of `column` in [`ModelDef::columns`].
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == column)
    }

    /// Whether `name` is a declared attribute (or bookkeeping column).
    pub fn has_column(&self, name: &str) -> bool {
        self.column_index(name).is_some()
    }

    /// Find an association by name.
    pub fn association(&self, name: &str) -> Option<&Association> {
        self.associations.iter().find(|a| a.name == name)
    }

    /// The `belongs_to` association whose foreign key is `fk`, if any.
    pub fn belongs_to_with_fk(&self, fk: &str) -> Option<&Association> {
        self.associations
            .iter()
            .find(|a| a.kind == AssocKind::BelongsTo && a.foreign_key == fk)
    }

    /// Count validators of each kind (used by the survey pipeline).
    pub fn validator_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for v in &self.validators {
            let k = v.kind_name();
            match counts.iter_mut().find(|(n, _)| *n == k) {
                Some((_, c)) => *c += 1,
                None => counts.push((k, 1)),
            }
        }
        counts
    }
}

impl std::fmt::Debug for ModelDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelDef")
            .field("name", &self.name)
            .field("table", &self.table)
            .field("attributes", &self.attributes)
            .field("validators", &self.validators)
            .field("associations", &self.associations)
            .field("callbacks", &self.callbacks.len())
            .finish()
    }
}

/// Fluent builder mirroring a Rails class body.
pub struct ModelBuilder {
    def: ModelDef,
}

impl ModelBuilder {
    /// Override the derived table name.
    pub fn table(mut self, table: impl Into<String>) -> Self {
        self.def.table = table.into();
        self
    }

    /// Declare an attribute (a typed column).
    pub fn attribute(mut self, name: impl Into<String>, ty: DataType) -> Self {
        self.def.attributes.push((name.into(), ty));
        self
    }

    /// Shorthand for a text attribute.
    pub fn string(self, name: impl Into<String>) -> Self {
        self.attribute(name, DataType::Text)
    }

    /// Shorthand for an integer attribute.
    pub fn integer(self, name: impl Into<String>) -> Self {
        self.attribute(name, DataType::Int)
    }

    /// Shorthand for a float attribute.
    pub fn float(self, name: impl Into<String>) -> Self {
        self.attribute(name, DataType::Float)
    }

    /// Shorthand for a boolean attribute.
    pub fn boolean(self, name: impl Into<String>) -> Self {
        self.attribute(name, DataType::Bool)
    }

    /// Disable `created_at`/`updated_at` maintenance.
    pub fn without_timestamps(mut self) -> Self {
        self.def.timestamps = false;
        self
    }

    /// Enable optimistic locking (`lock_version` column).
    pub fn with_lock_version(mut self) -> Self {
        self.def.lock_version = true;
        self
    }

    // --- validations -------------------------------------------------

    /// `validates_presence_of :field` (or an association name).
    pub fn validates_presence_of(mut self, field: impl Into<String>) -> Self {
        self.def.validators.push(Validator::Presence {
            field: field.into(),
        });
        self
    }

    /// `validates_uniqueness_of :field`.
    pub fn validates_uniqueness_of(mut self, field: impl Into<String>) -> Self {
        self.def.validators.push(Validator::Uniqueness {
            field: field.into(),
            scope: Vec::new(),
            case_sensitive: true,
        });
        self
    }

    /// `validates_uniqueness_of :field, scope: [...]`.
    pub fn validates_uniqueness_of_scoped(
        mut self,
        field: impl Into<String>,
        scope: &[&str],
    ) -> Self {
        self.def.validators.push(Validator::Uniqueness {
            field: field.into(),
            scope: scope.iter().map(|s| s.to_string()).collect(),
            case_sensitive: true,
        });
        self
    }

    /// `validates_uniqueness_of :field, case_sensitive: false`.
    pub fn validates_uniqueness_of_ci(mut self, field: impl Into<String>) -> Self {
        self.def.validators.push(Validator::Uniqueness {
            field: field.into(),
            scope: Vec::new(),
            case_sensitive: false,
        });
        self
    }

    /// `validates_length_of :field, minimum:, maximum:`.
    pub fn validates_length_of(
        mut self,
        field: impl Into<String>,
        min: Option<usize>,
        max: Option<usize>,
    ) -> Self {
        self.def.validators.push(Validator::Length {
            field: field.into(),
            min,
            max,
            allow_nil: false,
        });
        self
    }

    /// `validates_inclusion_of :field, in: [...]`.
    pub fn validates_inclusion_of(mut self, field: impl Into<String>, within: Vec<Datum>) -> Self {
        self.def.validators.push(Validator::Inclusion {
            field: field.into(),
            within,
        });
        self
    }

    /// `validates_exclusion_of :field, in: [...]`.
    pub fn validates_exclusion_of(mut self, field: impl Into<String>, from: Vec<Datum>) -> Self {
        self.def.validators.push(Validator::Exclusion {
            field: field.into(),
            from,
        });
        self
    }

    /// `validates_numericality_of :field, ...`.
    pub fn validates_numericality_of(
        mut self,
        field: impl Into<String>,
        opts: Numericality,
    ) -> Self {
        self.def.validators.push(Validator::NumericalityOf {
            field: field.into(),
            opts,
        });
        self
    }

    /// `validates_format_of :field, with: /pattern/`.
    ///
    /// # Panics
    /// On an invalid pattern — the analogue of Ruby raising at class-load.
    pub fn validates_format_of(mut self, field: impl Into<String>, pattern: &str) -> Self {
        let compiled =
            Pattern::compile(pattern).unwrap_or_else(|e| panic!("validates_format_of: {e}"));
        self.def.validators.push(Validator::Format {
            field: field.into(),
            with: compiled,
            allow_nil: false,
        });
        self
    }

    /// `validates_email :field`.
    pub fn validates_email(mut self, field: impl Into<String>) -> Self {
        self.def.validators.push(Validator::Email {
            field: field.into(),
        });
        self
    }

    /// `validates_confirmation_of :field`.
    pub fn validates_confirmation_of(mut self, field: impl Into<String>) -> Self {
        self.def.validators.push(Validator::Confirmation {
            field: field.into(),
        });
        self
    }

    /// `validates_acceptance_of :field`.
    pub fn validates_acceptance_of(mut self, field: impl Into<String>) -> Self {
        self.def.validators.push(Validator::Acceptance {
            field: field.into(),
        });
        self
    }

    /// `validates_associated :assoc`.
    pub fn validates_associated(mut self, assoc: impl Into<String>) -> Self {
        self.def.validators.push(Validator::Associated {
            assoc: assoc.into(),
        });
        self
    }

    /// Paperclip `validates_attachment_content_type`.
    pub fn validates_attachment_content_type(
        mut self,
        field: impl Into<String>,
        allowed: &[&str],
    ) -> Self {
        self.def.validators.push(Validator::AttachmentContentType {
            field: field.into(),
            allowed: allowed.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Paperclip `validates_attachment_size` (`less_than: max_bytes`).
    pub fn validates_attachment_size(mut self, field: impl Into<String>, max_bytes: i64) -> Self {
        self.def.validators.push(Validator::AttachmentSize {
            field: field.into(),
            max_bytes,
        });
        self
    }

    /// A user-defined validator (`validates_each` / custom class).
    pub fn validates_with(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&Record, &mut dyn QueryCtx, &mut Errors) + Send + Sync + 'static,
    ) -> Self {
        self.def.validators.push(Validator::Custom {
            name: name.into(),
            f: Arc::new(f),
        });
        self
    }

    // --- callbacks -----------------------------------------------------

    /// Register a lifecycle callback.
    pub fn callback(
        mut self,
        kind: CallbackKind,
        name: impl Into<String>,
        f: impl Fn(&mut Record) + Send + Sync + 'static,
    ) -> Self {
        self.def.callbacks.push((kind, name.into(), Arc::new(f)));
        self
    }

    /// `before_validation :name` — normalize attributes before checks.
    pub fn before_validation(
        self,
        name: impl Into<String>,
        f: impl Fn(&mut Record) + Send + Sync + 'static,
    ) -> Self {
        self.callback(CallbackKind::BeforeValidation, name, f)
    }

    /// `before_save :name`.
    pub fn before_save(
        self,
        name: impl Into<String>,
        f: impl Fn(&mut Record) + Send + Sync + 'static,
    ) -> Self {
        self.callback(CallbackKind::BeforeSave, name, f)
    }

    /// `after_create :name`.
    pub fn after_create(
        self,
        name: impl Into<String>,
        f: impl Fn(&mut Record) + Send + Sync + 'static,
    ) -> Self {
        self.callback(CallbackKind::AfterCreate, name, f)
    }

    /// `after_save :name`.
    pub fn after_save(
        self,
        name: impl Into<String>,
        f: impl Fn(&mut Record) + Send + Sync + 'static,
    ) -> Self {
        self.callback(CallbackKind::AfterSave, name, f)
    }

    /// `before_destroy :name`.
    pub fn before_destroy(
        self,
        name: impl Into<String>,
        f: impl Fn(&mut Record) + Send + Sync + 'static,
    ) -> Self {
        self.callback(CallbackKind::BeforeDestroy, name, f)
    }

    /// `after_destroy :name`.
    pub fn after_destroy(
        self,
        name: impl Into<String>,
        f: impl Fn(&mut Record) + Send + Sync + 'static,
    ) -> Self {
        self.callback(CallbackKind::AfterDestroy, name, f)
    }

    // --- associations ------------------------------------------------

    /// `belongs_to :assoc` — adds the `<assoc>_id` foreign-key attribute
    /// if not already declared. The target model is camelized from the
    /// association name.
    pub fn belongs_to(self, assoc: impl Into<String>) -> Self {
        let assoc = assoc.into();
        let target = inflect::camelize(&assoc);
        self.belongs_to_model(assoc, target)
    }

    /// `belongs_to :assoc, class_name: "Target"`.
    pub fn belongs_to_model(mut self, assoc: impl Into<String>, target: impl Into<String>) -> Self {
        let assoc = assoc.into();
        let fk = inflect::foreign_key(&assoc);
        if !self.def.attributes.iter().any(|(n, _)| *n == fk) {
            self.def.attributes.push((fk.clone(), DataType::Int));
        }
        self.def.associations.push(Association {
            name: assoc,
            kind: AssocKind::BelongsTo,
            target: target.into(),
            foreign_key: fk,
            dependent: None,
            through: None,
            counter_cache: false,
        });
        self
    }

    /// `belongs_to :assoc, counter_cache: true` — the parent model must
    /// declare an integer `<this_table>_count` column; it is maintained
    /// atomically inside each child save/destroy transaction (Rails emits
    /// `UPDATE parents SET c = c + 1`). Note the Rails caveat this
    /// reproduction preserves: `delete` (no callbacks) and raw SQL bypass
    /// the counter, so it can drift — a feral denormalization.
    pub fn belongs_to_counted(mut self, assoc: impl Into<String>) -> Self {
        let assoc = assoc.into();
        let target = inflect::camelize(&assoc);
        let fk = inflect::foreign_key(&assoc);
        if !self.def.attributes.iter().any(|(n, _)| *n == fk) {
            self.def.attributes.push((fk.clone(), DataType::Int));
        }
        self.def.associations.push(Association {
            name: assoc,
            kind: AssocKind::BelongsTo,
            target,
            foreign_key: fk,
            dependent: None,
            through: None,
            counter_cache: true,
        });
        self
    }

    /// `has_many :assocs` (target camelized+singularized from the name).
    pub fn has_many(self, assoc: impl Into<String>) -> Self {
        self.has_many_dependent_opt(assoc, None)
    }

    /// `has_many :assocs, dependent: ...`.
    pub fn has_many_dependent(self, assoc: impl Into<String>, dependent: Dependent) -> Self {
        self.has_many_dependent_opt(assoc, Some(dependent))
    }

    fn has_many_dependent_opt(
        mut self,
        assoc: impl Into<String>,
        dependent: Option<Dependent>,
    ) -> Self {
        let assoc = assoc.into();
        let target = inflect::camelize(&inflect::singularize(&assoc));
        let fk = inflect::foreign_key(&inflect::underscore(&self.def.name));
        self.def.associations.push(Association {
            name: assoc,
            kind: AssocKind::HasMany,
            target,
            foreign_key: fk,
            dependent,
            through: None,
            counter_cache: false,
        });
        self
    }

    /// `has_many :assocs, through: :other`.
    pub fn has_many_through(
        mut self,
        assoc: impl Into<String>,
        through: impl Into<String>,
    ) -> Self {
        let assoc = assoc.into();
        let target = inflect::camelize(&inflect::singularize(&assoc));
        self.def.associations.push(Association {
            name: assoc,
            kind: AssocKind::HasMany,
            target,
            foreign_key: String::new(),
            dependent: None,
            through: Some(through.into()),
            counter_cache: false,
        });
        self
    }

    /// `has_one :assoc, dependent: ...`.
    pub fn has_one(mut self, assoc: impl Into<String>, dependent: Option<Dependent>) -> Self {
        let assoc = assoc.into();
        let target = inflect::camelize(&assoc);
        let fk = inflect::foreign_key(&inflect::underscore(&self.def.name));
        self.def.associations.push(Association {
            name: assoc,
            kind: AssocKind::HasOne,
            target,
            foreign_key: fk,
            dependent,
            through: None,
            counter_cache: false,
        });
        self
    }

    /// Finish building: fixes the column layout the model's records,
    /// finders and wire encoding all index into.
    pub fn finish(mut self) -> ModelDef {
        let def = &mut self.def;
        def.columns = vec![("id".to_string(), DataType::Int)];
        def.columns.extend(def.attributes.iter().cloned());
        if def.lock_version {
            def.columns
                .push(("lock_version".to_string(), DataType::Int));
        }
        if def.timestamps {
            def.columns
                .push(("created_at".to_string(), DataType::Timestamp));
            def.columns
                .push(("updated_at".to_string(), DataType::Timestamp));
        }
        self.def
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_rails_shaped_model() {
        let m = ModelDef::build("User")
            .string("name")
            .integer("age")
            .validates_presence_of("name")
            .validates_uniqueness_of("name")
            .belongs_to("department")
            .finish();
        assert_eq!(m.table, "users");
        // belongs_to added the fk attribute
        assert!(m.attributes.iter().any(|(n, _)| n == "department_id"));
        assert_eq!(m.validators.len(), 2);
        let a = m.association("department").unwrap();
        assert_eq!(a.kind, AssocKind::BelongsTo);
        assert_eq!(a.target, "Department");
        assert_eq!(a.foreign_key, "department_id");
    }

    #[test]
    fn column_order_includes_bookkeeping() {
        let m = ModelDef::build("Item")
            .string("sku")
            .with_lock_version()
            .finish();
        let cols: Vec<String> = m.column_order().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            cols,
            vec!["id", "sku", "lock_version", "created_at", "updated_at"]
        );
        assert_eq!(m.columns(), m.column_order().as_slice());
        assert_eq!(m.column_index("sku"), Some(1));
        assert!(m.has_column("updated_at"));
    }

    #[test]
    fn without_timestamps() {
        let m = ModelDef::build("Kv")
            .string("k")
            .without_timestamps()
            .finish();
        let cols: Vec<String> = m.column_order().into_iter().map(|(n, _)| n).collect();
        assert_eq!(cols, vec!["id", "k"]);
    }

    #[test]
    fn has_many_derives_target_and_fk() {
        let m = ModelDef::build("Department")
            .string("name")
            .has_many_dependent("users", Dependent::Destroy)
            .finish();
        let a = m.association("users").unwrap();
        assert_eq!(a.kind, AssocKind::HasMany);
        assert_eq!(a.target, "User");
        assert_eq!(a.foreign_key, "department_id");
        assert_eq!(a.dependent, Some(Dependent::Destroy));
    }

    #[test]
    fn validator_counts_group_by_kind() {
        let m = ModelDef::build("M")
            .string("a")
            .string("b")
            .validates_presence_of("a")
            .validates_presence_of("b")
            .validates_uniqueness_of("a")
            .finish();
        let counts = m.validator_counts();
        assert!(counts.contains(&("validates_presence_of", 2)));
        assert!(counts.contains(&("validates_uniqueness_of", 1)));
    }

    #[test]
    fn belongs_to_with_fk_lookup() {
        let m = ModelDef::build("User").belongs_to("department").finish();
        assert!(m.belongs_to_with_fk("department_id").is_some());
        assert!(m.belongs_to_with_fk("other_id").is_none());
    }
}
