//! The certified planner workload — five transaction templates over a
//! six-table schema — shared by the served ablation
//! (`tests/served_ablation.rs`), the per-template cost pins
//! (`tests/planner_templates.rs`) and `benchmark/`'s
//! `inproc_planner_hot` workload.
//!
//! Every caller must run the *same* workload or their numbers do not
//! compare, so the template bodies live here exactly once, as the `*_at`
//! methods of [`PlannedService`], which name their tables through
//! handles resolved when the service is built.
//!
//! [`PlannedService`] adapts the templates to the transport-agnostic
//! [`Service`] trait: an [`Op::Template`] request names a template and
//! carries a workload key; everything else is a config error. This is
//! the `db.txn().planned(...)` pipeline fronted by the wire — the
//! planner's weakest-safe isolation assignments enforced per template,
//! per request, on a shared [`Database`].
//!
//! The assignments are data: [`CERTIFIED_LEVELS`] is a const table, and
//! [`certified_plan`] only builds an [`IsolationPlan`] from it, so a
//! server, a test or a benchmark round sets up without running isolation
//! inference. The analysis runs where the analyzers are tested:
//! `tests/plan_conformance.rs` re-derives every row with
//! `feral_plan::infer_pair_levels` and `feral_iconfluence::coordination_free`
//! and fails naming the template whose level differs.

use feral_db::{
    AuditMode, ColumnDef, Config, DataType, Database, Datum, DbError, IsolationLevel,
    IsolationPlan, Predicate, TableHandle, TableSchema,
};
use feral_orm::OrmError;
use feral_server::{Op, Request, Response, Service};
use feral_workloads::WeightedChoice;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Transaction retry budget per template instance.
pub const RETRIES: usize = 64;
/// Department slots the hire/disband templates contend over.
pub const DEPTS: usize = 64;
/// Posts the comment template references (never destroyed).
pub const POSTS: i64 = 16;
/// Shared accounts the deposit template read-modify-writes.
pub const ACCOUNTS: i64 = 48;
/// Distinct signup emails (drives uniqueness-probe contention).
pub const EMAILS: i64 = 96;

/// `uniqueness-probe-insert:signups.email`.
pub const T_SIGNUP: &str = "uniqueness-probe-insert:signups.email";
/// `assoc-check-insert:users.department_id`.
pub const T_HIRE: &str = "assoc-check-insert:users.department_id";
/// `cascade-destroy:users.department_id`.
pub const T_DISBAND: &str = "cascade-destroy:users.department_id";
/// `lock-version-rmw:accounts.lock_version`.
pub const T_DEPOSIT: &str = "lock-version-rmw:accounts.lock_version";
/// `assoc-check-insert:comments.post_id`.
pub const T_COMMENT: &str = "assoc-check-insert:comments.post_id";
/// The five templates, keyed the way feral-plan keys template
/// instances: `{class}:{table}.{column}`.
pub const TEMPLATES: [&str; 5] = [T_SIGNUP, T_HIRE, T_DISBAND, T_DEPOSIT, T_COMMENT];
/// signup / hire / disband / deposit / comment draw weights.
pub const WEIGHTS: [u32; 5] = [3, 3, 1, 2, 7];

/// `(table, column)` of every equality probe the templates issue; each
/// gets a non-unique index in [`seeded_database`].
pub const PROBED_COLUMNS: [(&str, &str); 5] = [
    ("signups", "email"),
    ("users", "department_id"),
    ("departments", "did"),
    ("accounts", "aid"),
    ("posts", "pid"),
];

/// The certified assignment, one row per template: what the fixed-point
/// inference (`feral_plan::infer_pair_levels`) assigns each template's
/// pair slot, with the insert-only comment template on the
/// read-committed fast path that `feral_iconfluence::coordination_free`
/// admits (comments only reference posts, and the workload never
/// destroys a post).
pub const CERTIFIED_LEVELS: [(&str, IsolationLevel); 5] = [
    (T_SIGNUP, IsolationLevel::Serializable),
    (T_HIRE, IsolationLevel::Serializable),
    (T_DISBAND, IsolationLevel::Serializable),
    (T_DEPOSIT, IsolationLevel::Snapshot),
    (T_COMMENT, IsolationLevel::ReadCommitted),
];

/// The plan the planner configuration runs under: [`CERTIFIED_LEVELS`]
/// over a serializable default. It runs no inference.
pub fn certified_plan() -> IsolationPlan {
    let mut plan = IsolationPlan::new(IsolationLevel::Serializable);
    for (template, level) in CERTIFIED_LEVELS {
        plan.assign(template, level);
    }
    plan
}

/// Open a database at `audit_mode` with the workload's six tables
/// created and seeded (departments, posts, zero-balance accounts), and a
/// non-unique index on every column a template probes — what a Rails
/// `add_reference` migration gives an association, and the shape of the
/// feral uniqueness probe: the index makes the probe cheap, not safe.
pub fn seeded_database(audit_mode: AuditMode) -> Database {
    let db = Database::open(Config {
        default_isolation: IsolationLevel::Serializable,
        audit_mode,
        ..Config::default()
    })
    .unwrap();
    let tables: [(&str, Vec<ColumnDef>); 6] = [
        ("departments", vec![ColumnDef::new("did", DataType::Int)]),
        ("signups", vec![ColumnDef::new("email", DataType::Text)]),
        (
            "users",
            vec![
                ColumnDef::new("email", DataType::Text),
                ColumnDef::new("department_id", DataType::Int),
            ],
        ),
        ("posts", vec![ColumnDef::new("pid", DataType::Int)]),
        ("comments", vec![ColumnDef::new("post_id", DataType::Int)]),
        (
            "accounts",
            vec![
                ColumnDef::new("aid", DataType::Int),
                ColumnDef::new("balance", DataType::Int),
                ColumnDef::new("lock_version", DataType::Int),
            ],
        ),
    ];
    for (name, cols) in tables {
        db.create_table(TableSchema::new(name, cols)).unwrap();
    }
    for (table, probed) in PROBED_COLUMNS {
        db.create_index(table, &[probed], false).unwrap();
    }
    db.txn()
        .run(|tx| {
            for d in 0..DEPTS as i64 {
                tx.insert_pairs("departments", &[("did", Datum::Int(d))])?;
            }
            for p in 0..POSTS {
                tx.insert_pairs("posts", &[("pid", Datum::Int(p))])?;
            }
            for a in 0..ACCOUNTS {
                tx.insert_pairs(
                    "accounts",
                    &[
                        ("aid", Datum::Int(a)),
                        ("balance", Datum::Int(0)),
                        ("lock_version", Datum::Int(0)),
                    ],
                )?;
            }
            Ok(())
        })
        .unwrap();
    db
}

/// End-of-run audit counters, one per feral anomaly family.
#[derive(Clone, Copy)]
pub struct Anomalies {
    /// Duplicate signup emails admitted.
    pub duplicate_signups: u64,
    /// Users referencing a destroyed department.
    pub orphaned_users: u64,
    /// Comments referencing a missing post (must stay 0 — posts are
    /// never destroyed).
    pub orphaned_comments: u64,
    /// Acked deposits missing from the final balance sum.
    pub lost_deposits: u64,
}

impl Anomalies {
    /// Sum across families.
    pub fn total(self) -> u64 {
        self.duplicate_signups + self.orphaned_users + self.orphaned_comments + self.lost_deposits
    }

    /// One-line human rendering.
    pub fn describe(self) -> String {
        format!(
            "{} dup / {} orphan-user / {} orphan-comment / {} lost",
            self.duplicate_signups, self.orphaned_users, self.orphaned_comments, self.lost_deposits
        )
    }
}

/// Post-run integrity audit over the quiesced database.
pub fn audit(db: &Database, acked_deposits: u64) -> Anomalies {
    let mut tx = db.txn().begin();
    let mut emails: Vec<String> = tx
        .scan("signups", &Predicate::True)
        .unwrap()
        .iter()
        .filter_map(|(_, t)| t[1].as_text().map(str::to_string))
        .collect();
    emails.sort();
    let duplicate_signups = emails.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    let live: std::collections::HashSet<i64> = tx
        .scan("departments", &Predicate::True)
        .unwrap()
        .iter()
        .filter_map(|(_, t)| t[1].as_int())
        .collect();
    let orphaned_users = tx
        .scan("users", &Predicate::True)
        .unwrap()
        .iter()
        .filter(|(_, t)| !live.contains(&t[2].as_int().unwrap_or(-1)))
        .count() as u64;
    let posts: std::collections::HashSet<i64> = tx
        .scan("posts", &Predicate::True)
        .unwrap()
        .iter()
        .filter_map(|(_, t)| t[1].as_int())
        .collect();
    let orphaned_comments = tx
        .scan("comments", &Predicate::True)
        .unwrap()
        .iter()
        .filter(|(_, t)| !posts.contains(&t[1].as_int().unwrap_or(-1)))
        .count() as u64;
    let balance: i64 = tx
        .scan("accounts", &Predicate::True)
        .unwrap()
        .iter()
        .filter_map(|(_, t)| t[2].as_int())
        .sum();
    tx.rollback();
    Anomalies {
        duplicate_signups,
        orphaned_users,
        orphaned_comments,
        lost_deposits: (acked_deposits as i64 - balance).max(0) as u64,
    }
}

/// Shared mutable workload state: the live department per slot, the
/// next fresh department id, and the count of acknowledged deposits
/// (the lost-update baseline).
struct WorkloadState {
    /// Live department id per contention slot.
    slots: Vec<AtomicI64>,
    /// Next fresh department id for disband replacements.
    next_dept: AtomicI64,
    /// Deposits acknowledged to callers.
    acked_deposits: AtomicU64,
}

impl WorkloadState {
    /// State matching [`seeded_database`]'s seed rows.
    fn new() -> WorkloadState {
        WorkloadState {
            slots: (0..DEPTS as i64).map(AtomicI64::new).collect(),
            next_dept: AtomicI64::new(DEPTS as i64),
            acked_deposits: AtomicU64::new(0),
        }
    }
}

/// The workload's six tables, resolved once: a template names its tables
/// through these handles, so its statements take no catalog latch and
/// hash no name.
struct Tables {
    departments: TableHandle,
    signups: TableHandle,
    users: TableHandle,
    posts: TableHandle,
    comments: TableHandle,
    accounts: TableHandle,
}

impl Tables {
    fn resolve(db: &Database) -> Tables {
        let table = |name| {
            db.table(name)
                .expect("a PlannedService serves a seeded_database")
        };
        Tables {
            departments: table("departments"),
            signups: table("signups"),
            users: table("users"),
            posts: table("posts"),
            comments: table("comments"),
            accounts: table("accounts"),
        }
    }
}

/// A template-aware [`Service`]: [`Op::Template`] requests execute the
/// named template through `db.txn().planned(plan, template)`, with the
/// operand derived from the request key (`key % domain`). Everything
/// else — model CRUD, customs — is a config error: this frontend serves
/// the planner workload, not an ORM.
///
/// Each template is one `*_at` method that takes its operand (email
/// slot, department slot, account, post) explicitly — what a wire
/// frontend derives from the request key.
pub struct PlannedService {
    db: Database,
    plan: IsolationPlan,
    state: WorkloadState,
    tables: Tables,
}

impl PlannedService {
    /// Serve `db` under `plan` with fresh workload state (matching a
    /// freshly [`seeded_database`]).
    ///
    /// # Panics
    ///
    /// If `db` lacks one of [`seeded_database`]'s tables.
    pub fn new(db: Database, plan: IsolationPlan) -> PlannedService {
        PlannedService {
            tables: Tables::resolve(&db),
            db,
            plan,
            state: WorkloadState::new(),
        }
    }

    /// The underlying database (post-run audits).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Deposits acknowledged so far (lost-update baseline).
    pub fn acked_deposits(&self) -> u64 {
        self.state.acked_deposits.load(Ordering::SeqCst)
    }

    /// Run the integrity audit against the current state.
    pub fn integrity_audit(&self) -> Anomalies {
        audit(&self.db, self.acked_deposits())
    }

    /// Uniqueness probe-insert at an explicit email slot: scan for the
    /// email, insert when absent.
    pub fn signup_at(&self, email_slot: i64) -> Result<(), DbError> {
        let signups = &self.tables.signups;
        let email = format!("user{email_slot}@example.com");
        let txn = self.db.txn().planned(&self.plan, T_SIGNUP);
        txn.retries(RETRIES).run(|tx| {
            let dup = tx.scan(signups, &Predicate::eq(1, email.as_str()))?;
            // widen the probe/insert race window
            std::thread::yield_now();
            if dup.is_empty() {
                tx.insert_pairs(signups, &[("email", Datum::text(email.as_str()))])?;
            }
            Ok(())
        })
    }

    /// Association check-insert against an explicit department slot:
    /// verify the department exists, then insert a user referencing it.
    pub fn hire_at(&self, slot: usize) -> Result<(), DbError> {
        let Tables {
            departments, users, ..
        } = &self.tables;
        let dept = self.state.slots[slot].load(Ordering::SeqCst);
        let txn = self.db.txn().planned(&self.plan, T_HIRE);
        txn.retries(RETRIES).run(|tx| {
            let parent = tx.scan(departments, &Predicate::eq(1, dept))?;
            std::thread::yield_now();
            if !parent.is_empty() {
                tx.insert_pairs(
                    users,
                    &[
                        ("email", Datum::text("hire")),
                        ("department_id", Datum::Int(dept)),
                    ],
                )?;
            }
            Ok(())
        })
    }

    /// Cascade destroy at an explicit slot: delete a department's users,
    /// the department itself, and replace it with a fresh one (so hires
    /// never run dry).
    pub fn disband_at(&self, slot: usize) -> Result<(), DbError> {
        let Tables {
            departments, users, ..
        } = &self.tables;
        let old = self.state.slots[slot].load(Ordering::SeqCst);
        let fresh = self.state.next_dept.fetch_add(1, Ordering::SeqCst);
        let txn = self.db.txn().planned(&self.plan, T_DISBAND);
        let result = txn.retries(RETRIES).run(|tx| {
            tx.delete_where(users, &Predicate::eq(2, old))?;
            tx.delete_where(departments, &Predicate::eq(1, old))?;
            tx.insert_pairs(departments, &[("did", Datum::Int(fresh))])?;
            Ok(())
        });
        if result.is_ok() {
            self.state.slots[slot].store(fresh, Ordering::SeqCst);
        }
        result
    }

    /// `lock_version` read-modify-write on an explicit shared account.
    pub fn deposit_at(&self, account: i64) -> Result<(), DbError> {
        let accounts = &self.tables.accounts;
        let txn = self.db.txn().planned(&self.plan, T_DEPOSIT);
        let result = txn.retries(RETRIES).run(|tx| {
            let rows = tx.scan(accounts, &Predicate::eq(1, account))?;
            let (rref, tuple) = (rows[0].0, rows[0].1.to_vec());
            let balance = tuple[2].as_int().unwrap_or(0);
            let version = tuple[3].as_int().unwrap_or(0);
            std::thread::yield_now();
            let mut next = tuple;
            next[2] = Datum::Int(balance + 1);
            next[3] = Datum::Int(version + 1);
            tx.update(accounts, rref, next)
        });
        if result.is_ok() {
            self.state.acked_deposits.fetch_add(1, Ordering::SeqCst);
        }
        result
    }

    /// Insert-only presence check at an explicit post: posts are never
    /// destroyed, so this template is the plan's read-committed fast path.
    pub fn comment_at(&self, post: i64) -> Result<(), DbError> {
        let Tables {
            posts, comments, ..
        } = &self.tables;
        let txn = self.db.txn().planned(&self.plan, T_COMMENT);
        txn.retries(RETRIES).run(|tx| {
            let parent = tx.scan(posts, &Predicate::eq(1, post))?;
            if !parent.is_empty() {
                tx.insert_pairs(comments, &[("post_id", Datum::Int(post))])?;
            }
            Ok(())
        })
    }
}

impl Service for PlannedService {
    fn call(&self, request: Request) -> Response {
        let Op::Template { name, key } = &request.op else {
            return Response::Error(OrmError::Config(
                "planner frontend serves template requests only".into(),
            ));
        };
        let result = match name.as_str() {
            T_SIGNUP => self.signup_at((key % EMAILS as u64) as i64),
            T_HIRE => self.hire_at((key % DEPTS as u64) as usize),
            T_DISBAND => self.disband_at((key % DEPTS as u64) as usize),
            T_DEPOSIT => self.deposit_at((key % ACCOUNTS as u64) as i64),
            T_COMMENT => self.comment_at((key % POSTS as u64) as i64),
            other => {
                return Response::Error(OrmError::Config(format!("unknown template `{other}`")))
            }
        };
        match result {
            Ok(()) => Response::Ok,
            Err(e) => Response::Error(OrmError::Db(e)),
        }
    }
}

/// Draw a weighted template mix: `(template, key)` pairs with the
/// bench's weights, keys uniform over each template's operand domain.
pub struct TemplateMix {
    choice: WeightedChoice,
    rng: StdRng,
}

impl TemplateMix {
    /// A seeded mix stream.
    pub fn new(seed: u64) -> TemplateMix {
        TemplateMix {
            choice: WeightedChoice::new(&WEIGHTS, seed ^ 0xC0FFEE),
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15)),
        }
    }

    /// Next `(template, key)` instance.
    pub fn draw(&mut self) -> (&'static str, u64) {
        let template = TEMPLATES[self.choice.draw()];
        (template, self.rng.random::<u64>() >> 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certified_plan_assigns_every_template() {
        let plan = certified_plan();
        for t in TEMPLATES {
            assert!(plan.assigned(t), "{t} fell through to the default level");
        }
        assert_eq!(plan.len(), TEMPLATES.len());
    }

    #[test]
    fn planned_service_serves_templates_and_audits_clean() {
        let db = seeded_database(AuditMode::Off);
        let svc = PlannedService::new(db, certified_plan());
        let mut mix = TemplateMix::new(42);
        let mut ok = 0;
        for _ in 0..200 {
            let (template, key) = mix.draw();
            if svc.call(Request::template(template, key)).succeeded() {
                ok += 1;
            }
        }
        assert!(ok > 150, "most template instances commit, got {ok}");
        let anomalies = svc.integrity_audit();
        assert_eq!(anomalies.total(), 0, "{}", anomalies.describe());
    }

    #[test]
    fn non_template_requests_are_config_errors() {
        let db = seeded_database(AuditMode::Off);
        let svc = PlannedService::new(db, certified_plan());
        let r = svc.call(Request::builder("Widget").create());
        assert!(matches!(r, Response::Error(OrmError::Config(_))));
        let r = svc.call(Request::template("nope:a.b", 0));
        assert!(matches!(r, Response::Error(OrmError::Config(_))));
    }
}
