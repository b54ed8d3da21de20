//! Canonical anomaly scenarios from the paper, packaged as [`Trial`]s so
//! the integration tests, the `feral-sim` CLI, and the bench crate can
//! explore the same workloads.
//!
//! Each trial builds a fresh application, races a small number of
//! sessions through the ORM exactly as the Appendix C experiment apps do,
//! and installs the matching anomaly oracle as its check — the oracle
//! *fires* (returns `Err`) when the integrity violation is present.

use crate::explore::Trial;
use crate::oracles;
use feral_db::{AuditMode, Config, Database, Datum, IsolationLevel, OnDelete};
use feral_orm::{App, Dependent, ModelDef, OrmError};

/// How the uniqueness/association invariant is enforced, mirroring the
/// bench crate's experiment matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// Feral validation only (`validates_uniqueness_of` /
    /// `validates_presence_of` + `dependent: :destroy`).
    Feral,
    /// Feral validation plus the in-database constraint (unique index /
    /// foreign key).
    Database,
}

/// Which canonical scenario a [`ScenarioSpec`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// §5.2: concurrent same-key inserts through `validates_uniqueness_of`.
    Uniqueness,
    /// §5.3/§5.4: cascade destroy racing dependent inserts.
    Orphans,
    /// §4.4: unguarded `lock_version`-style read-modify-write — two
    /// sessions each read a counter and write back `read + 1` inside one
    /// transaction; a lost update leaves the counter short.
    LostUpdate,
    /// §5.3 insert-only control: two sessions concurrently
    /// presence-check the same parent and insert children — no
    /// destroyer, so the referential invariant is I-confluent and every
    /// schedule must be orphan-free.
    SiblingInserts,
}

impl ScenarioKind {
    /// CLI spelling (`uniqueness` / `orphans` / `lost-update` /
    /// `sibling-inserts`).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Uniqueness => "uniqueness",
            ScenarioKind::Orphans => "orphans",
            ScenarioKind::LostUpdate => "lost-update",
            ScenarioKind::SiblingInserts => "sibling-inserts",
        }
    }

    /// Parse the CLI spelling.
    pub fn parse(s: &str) -> Option<ScenarioKind> {
        match s {
            "uniqueness" => Some(ScenarioKind::Uniqueness),
            "orphans" => Some(ScenarioKind::Orphans),
            "lost-update" => Some(ScenarioKind::LostUpdate),
            "sibling-inserts" => Some(ScenarioKind::SiblingInserts),
            _ => None,
        }
    }
}

/// A fully-specified scenario configuration — everything needed to
/// rebuild a [`Trial`] bit-identically. Shared between the `feral-sim`
/// CLI and every witness search ([`ScenarioSpec::find_witness`]), so a
/// witness found by feral-sdg, feral-plan, feral-lint or table1 replays
/// verbatim under the CLI ([`crate::Witness::replay_command`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Scenario family.
    pub kind: ScenarioKind,
    /// Isolation of the racing sessions: one level, or one per template
    /// slot.
    pub levels: SessionLevels,
    /// Feral-only or feral + database constraint.
    pub guard: Guard,
    /// Concurrent writers (uniqueness) / inserters racing the destroyer
    /// (orphans).
    pub workers: usize,
}

impl ScenarioSpec {
    /// Build a fresh runnable trial for this configuration.
    pub fn build(&self) -> Trial {
        self.build_audited(AuditMode::Off).1
    }

    /// [`ScenarioSpec::build`] over a database with the runtime DSG
    /// auditor enabled at `mode`, also handing back the application so
    /// the caller can read `app.db().audit_snapshot()` after the run —
    /// the differential gate comparing the online auditor's verdict
    /// against the DPOR sweep verdict is built on this.
    pub fn build_audited(&self, mode: AuditMode) -> (App, Trial) {
        let (levels, guard, workers) = (self.levels, self.guard, self.workers);
        match self.kind {
            ScenarioKind::Uniqueness => uniqueness_core(levels, guard, workers, mode),
            ScenarioKind::Orphans => orphan_core(levels, guard, workers, mode),
            ScenarioKind::LostUpdate => lost_update_core(levels, guard, workers, mode),
            ScenarioKind::SiblingInserts => sibling_insert_core(levels, guard, workers, mode),
        }
    }

    /// Compact `scenario/isolation/guard` label for reports; a per-slot
    /// spec reads `scenario/L0+L1/guard`.
    pub fn label(&self) -> String {
        let levels = match self.levels {
            SessionLevels::Uniform(l) => format!("{l:?}"),
            SessionLevels::PerSlot([a, b]) => format!("{a:?}+{b:?}"),
        };
        format!(
            "{}/{levels}/{}",
            self.kind.name(),
            match self.guard {
                Guard::Feral => "feral",
                Guard::Database => "db-constraint",
            }
        )
    }

    /// Tables on the scenario's critical dependency cycle — the
    /// directed-search bias for [`crate::explore_dpor`]. Matches what a
    /// feral-sdg realizable-cycle report names for the same template
    /// pair.
    pub fn direction_hint(&self) -> crate::DirectionHint {
        crate::DirectionHint::for_tables(match self.kind {
            ScenarioKind::Uniqueness => vec!["key_values"],
            ScenarioKind::Orphans | ScenarioKind::SiblingInserts => {
                vec!["departments", "users"]
            }
            ScenarioKind::LostUpdate => vec!["accounts"],
        })
    }

    /// Plain DPOR over this scenario. The conflict relation runs at the
    /// weakest session level, which only adds dependence edges for the
    /// stronger slot of a per-slot spec (sound).
    pub fn dpor_config(&self, max_runs: usize) -> crate::DporConfig {
        crate::DporConfig::new(max_runs, self.levels.weakest())
    }

    /// The command-line flags naming this configuration:
    /// `--scenario … --isolation|--levels … --guard … --workers …`.
    pub fn flags(&self) -> String {
        format!(
            "--scenario {} {} {} --guard {} --workers {}",
            self.kind.name(),
            match self.levels {
                SessionLevels::Uniform(_) => "--isolation",
                SessionLevels::PerSlot(_) => "--levels",
            },
            self.levels.flag_value(),
            match self.guard {
                Guard::Feral => "feral",
                Guard::Database => "database",
            },
            self.workers
        )
    }

    /// The `feral-sim replay` invocation reproducing the schedule chosen
    /// by `seed` (preferred) or an explicit choice list.
    pub fn replay_command(&self, seed: Option<u64>, choices: &[usize]) -> String {
        let schedule = match seed {
            Some(s) => format!("--seed {s}"),
            None => {
                let list: Vec<String> = choices.iter().map(usize::to_string).collect();
                format!("--choices {}", list.join(","))
            }
        };
        format!("feral-sim replay {} {schedule}", self.flags())
    }
}

/// How trial sessions pick their isolation: one uniform level for every
/// worker, or per-template-slot levels (the feral-plan mixed case). The
/// database default only matters for the single-threaded setup sessions;
/// every racing worker sets its level explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionLevels {
    /// Every session at one level (`--isolation`).
    Uniform(IsolationLevel),
    /// `levels[i]` is the level of slot `i` of the scenario's template
    /// pair, in `PairKind::templates()` order (`--levels a,b`): for
    /// orphans slot 0 is the presence-checking inserter and slot 1 the
    /// cascade destroyer; for the symmetric scenarios worker `k` takes
    /// `levels[min(k, 1)]`. Spelled per slot even when both agree.
    PerSlot([IsolationLevel; 2]),
}

impl SessionLevels {
    fn db_default(self) -> IsolationLevel {
        match self {
            SessionLevels::Uniform(l) => l,
            SessionLevels::PerSlot(_) => IsolationLevel::ReadCommitted,
        }
    }

    /// Level of template slot `i` (clamped to the pair).
    fn slot(self, i: usize) -> IsolationLevel {
        match self {
            SessionLevels::Uniform(l) => l,
            SessionLevels::PerSlot(levels) => levels[i.min(1)],
        }
    }

    /// The weakest level any session runs at.
    pub fn weakest(self) -> IsolationLevel {
        match self {
            SessionLevels::Uniform(l) => l,
            SessionLevels::PerSlot([a, b]) => std::cmp::min_by_key(a, b, |l| *l as u8),
        }
    }

    /// The value of the `--isolation` / `--levels` flag:
    /// `read-committed`, or `read-committed,serializable` per slot.
    pub fn flag_value(self) -> String {
        match self {
            SessionLevels::Uniform(l) => feral_cli::isolation_flag(l),
            SessionLevels::PerSlot([a, b]) => format!(
                "{},{}",
                feral_cli::isolation_flag(a),
                feral_cli::isolation_flag(b)
            ),
        }
    }
}

fn db_at(isolation: IsolationLevel, audit: AuditMode) -> Database {
    Database::new(Config {
        default_isolation: isolation,
        audit_mode: audit,
        // Inline draining keeps audit reports a pure function of the
        // schedule — a background drainer thread would race the
        // deterministic scheduler.
        audit_background: false,
        ..Config::default()
    })
}

/// Swallow the error outcomes a Rails controller treats as "request
/// failed, move on": retryable engine errors, constraint rejections, and
/// validation failures. Anything else is a scenario bug worth a panic.
fn tolerate(result: Result<feral_orm::Record, OrmError>) {
    match result {
        Ok(_) => {}
        Err(e) if e.is_retryable() => {}
        Err(OrmError::Db(d)) if d.is_constraint_violation() => {}
        Err(OrmError::RecordInvalid(_)) | Err(OrmError::RecordNotFound(_)) => {}
        Err(e) => panic!("unexpected error in scenario worker: {e}"),
    }
}

/// §5.2 uniqueness scenario: `writers` concurrent sessions each create a
/// `KeyValue` with the *same* key through `validates_uniqueness_of`. The
/// oracle fires when more than one row holds the key.
pub fn uniqueness_trial(isolation: IsolationLevel, guard: Guard, writers: usize) -> Trial {
    uniqueness_trial_app(isolation, guard, writers).1
}

/// [`uniqueness_trial`], also handing back the application so callers can
/// inspect row counts after the run (the property tests do).
pub fn uniqueness_trial_app(
    isolation: IsolationLevel,
    guard: Guard,
    writers: usize,
) -> (App, Trial) {
    uniqueness_core(
        SessionLevels::Uniform(isolation),
        guard,
        writers,
        AuditMode::Off,
    )
}

fn uniqueness_core(
    levels: SessionLevels,
    guard: Guard,
    writers: usize,
    audit: AuditMode,
) -> (App, Trial) {
    let app = App::new(db_at(levels.db_default(), audit));
    app.define(
        ModelDef::build("KeyValue")
            .string("key")
            .string("value")
            .validates_presence_of("key")
            .validates_uniqueness_of("key")
            .finish(),
    )
    .unwrap();
    if guard == Guard::Database {
        app.add_index("KeyValue", &["key"], true).unwrap();
    }
    let workers = (0..writers)
        .map(|k| {
            let app = app.clone();
            let level = levels.slot(k);
            Box::new(move || {
                let mut s = app.session_with(level);
                tolerate(s.create(
                    "KeyValue",
                    &[("key", Datum::text("dup")), ("value", Datum::text("v"))],
                ));
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let check_app = app.clone();
    let trial = Trial {
        workers,
        check: Box::new(move || {
            let dups = oracles::duplicate_keys(check_app.db(), "key_values", "key");
            if dups.is_empty() {
                Ok(())
            } else {
                Err(format!("duplicate uniqueness keys: {dups:?}"))
            }
        }),
    };
    (app, trial)
}

/// §5.3/§5.4 association scenario: one session ferally cascade-destroys a
/// department (`has_many :users, dependent: :destroy`) while `inserters`
/// sessions concurrently create users in it (validating department
/// presence). The oracle fires when a surviving user references the dead
/// department.
pub fn orphan_trial(isolation: IsolationLevel, guard: Guard, inserters: usize) -> Trial {
    orphan_trial_app(isolation, guard, inserters).1
}

/// [`orphan_trial`], also handing back the application for post-run
/// inspection.
pub fn orphan_trial_app(isolation: IsolationLevel, guard: Guard, inserters: usize) -> (App, Trial) {
    orphan_core(
        SessionLevels::Uniform(isolation),
        guard,
        inserters,
        AuditMode::Off,
    )
}

fn orphan_core(
    levels: SessionLevels,
    guard: Guard,
    inserters: usize,
    audit: AuditMode,
) -> (App, Trial) {
    let app = App::new(db_at(levels.db_default(), audit));
    app.define(
        ModelDef::build("Department")
            .string("name")
            .has_many_dependent("users", Dependent::Destroy)
            .finish(),
    )
    .unwrap();
    app.define(
        ModelDef::build("User")
            .belongs_to("department")
            .validates_presence_of("department")
            .finish(),
    )
    .unwrap();
    if guard == Guard::Database {
        app.add_foreign_key("User", "department", OnDelete::Cascade)
            .unwrap();
    }
    let dept_id = {
        let mut s = app.session();
        s.create_strict("Department", &[("name", Datum::text("eng"))])
            .unwrap()
            .id()
            .unwrap()
    };
    let mut workers: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(inserters + 1);
    {
        let app = app.clone();
        // the destroyer is template slot 1 (cascade-destroy) of the pair
        let level = levels.slot(1);
        workers.push(Box::new(move || {
            let mut s = app.session_with(level);
            match s.find("Department", dept_id) {
                Ok(mut dept) => match s.destroy(&mut dept) {
                    Ok(()) => {}
                    Err(e) if e.is_retryable() => {}
                    Err(e) => panic!("unexpected destroy error: {e}"),
                },
                Err(OrmError::RecordNotFound(_)) => {}
                Err(e) if e.is_retryable() => {}
                Err(e) => panic!("unexpected find error: {e}"),
            }
        }));
    }
    for _ in 0..inserters {
        let app = app.clone();
        // inserters are template slot 0 (assoc-check-insert)
        let level = levels.slot(0);
        workers.push(Box::new(move || {
            let mut s = app.session_with(level);
            tolerate(s.create("User", &[("department_id", Datum::Int(dept_id))]));
        }));
    }
    let check_app = app.clone();
    let trial = Trial {
        workers,
        check: Box::new(move || {
            let orphans =
                oracles::orphaned_rows(check_app.db(), "users", "department_id", "departments");
            if orphans.is_empty() {
                Ok(())
            } else {
                Err(format!("orphaned user rows (ids): {orphans:?}"))
            }
        }),
    };
    (app, trial)
}

/// §4.4 lost-update scenario: `updaters` sessions each run one
/// transaction that reads an account's counter and writes back
/// `read + 1` — the unguarded read-modify-write an *inert* optimistic
/// lock degenerates to (the `lock_version` column is missing, so the
/// stale-object check silently never runs). The oracle fires when the
/// counter ends up short of the acknowledged increments.
///
/// [`Guard::Database`] takes a pessimistic row lock (`SELECT ... FOR
/// UPDATE`) before the read, serializing the RMWs at any isolation.
fn lost_update_core(
    levels: SessionLevels,
    guard: Guard,
    updaters: usize,
    audit: AuditMode,
) -> (App, Trial) {
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    let app = App::new(db_at(levels.db_default(), audit));
    app.define(
        ModelDef::build("Account")
            .string("name")
            .integer("balance")
            .finish(),
    )
    .unwrap();
    let account_id = {
        let mut s = app.session();
        s.create_strict(
            "Account",
            &[("name", Datum::text("hits")), ("balance", Datum::Int(0))],
        )
        .unwrap()
        .id()
        .unwrap()
    };
    let acked = Arc::new(AtomicI64::new(0));
    let workers = (0..updaters)
        .map(|k| {
            let app = app.clone();
            let acked = acked.clone();
            let level = levels.slot(k);
            Box::new(move || {
                let mut s = app.session_with(level);
                let result = s.transaction(|s| {
                    let mut account = s.find("Account", account_id)?;
                    if guard == Guard::Database {
                        s.lock(&mut account)?;
                    }
                    let read = account.get("balance").as_int().unwrap_or(0);
                    s.update_attributes(&mut account, &[("balance", Datum::Int(read + 1))])?;
                    Ok(())
                });
                match result {
                    Ok(()) => {
                        acked.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) if e.is_retryable() => {}
                    Err(OrmError::RecordNotFound(_)) => {}
                    Err(e) => panic!("unexpected error in lost-update worker: {e}"),
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let check_app = app.clone();
    let check_acked = acked.clone();
    let trial = Trial {
        workers,
        check: Box::new(move || {
            let expected = check_acked.load(Ordering::SeqCst);
            let lost = oracles::lost_updates(check_app.db(), "accounts", "balance", expected);
            if lost == 0 {
                Ok(())
            } else {
                Err(format!(
                    "lost updates: {lost} of {expected} acknowledged increments missing"
                ))
            }
        }),
    };
    (app, trial)
}

/// Insert-only association scenario: `inserters` sessions concurrently
/// presence-check the same department and create users in it. Nobody
/// deletes, so the referential invariant is I-confluent (§4.2) and the
/// orphan oracle must stay silent on *every* schedule, at every
/// isolation level — the SAFE control row of the `feral-sdg` matrix.
fn sibling_insert_core(
    levels: SessionLevels,
    guard: Guard,
    inserters: usize,
    audit: AuditMode,
) -> (App, Trial) {
    let app = App::new(db_at(levels.db_default(), audit));
    app.define(
        ModelDef::build("Department")
            .string("name")
            .has_many_dependent("users", Dependent::Destroy)
            .finish(),
    )
    .unwrap();
    app.define(
        ModelDef::build("User")
            .belongs_to("department")
            .validates_presence_of("department")
            .finish(),
    )
    .unwrap();
    if guard == Guard::Database {
        app.add_foreign_key("User", "department", OnDelete::Cascade)
            .unwrap();
    }
    let dept_id = {
        let mut s = app.session();
        s.create_strict("Department", &[("name", Datum::text("eng"))])
            .unwrap()
            .id()
            .unwrap()
    };
    let workers = (0..inserters)
        .map(|k| {
            let app = app.clone();
            let level = levels.slot(k);
            Box::new(move || {
                let mut s = app.session_with(level);
                tolerate(s.create("User", &[("department_id", Datum::Int(dept_id))]));
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let check_app = app.clone();
    let trial = Trial {
        workers,
        check: Box::new(move || {
            let orphans =
                oracles::orphaned_rows(check_app.db(), "users", "department_id", "departments");
            if orphans.is_empty() {
                Ok(())
            } else {
                Err(format!("orphaned user rows (ids): {orphans:?}"))
            }
        }),
    };
    (app, trial)
}
