//! The certified planner workload — five transaction templates over a
//! six-table schema — shared by `commitbench planner`/`commitbench
//! audit` (in-process) and the feral-net wire ablation (end-to-end).
//!
//! The in-process bench and the networked bench must measure the *same*
//! workload or the ablation comparison is meaningless, so the template
//! bodies live here exactly once. Each template has two entry points:
//! the `*_at` form takes the drawn operand (email slot, department
//! slot, account, post) explicitly — this is what a wire frontend calls
//! with operands derived from the request key — and the rng form draws
//! one operand then delegates, preserving the bench's historical rng
//! stream byte-for-byte.
//!
//! [`PlannedService`] adapts the templates to the transport-agnostic
//! [`Service`] trait: an [`Op::Template`] request names a template and
//! carries a workload key; everything else is a config error. This is
//! the `db.txn().planned(...)` pipeline fronted by the wire — the
//! planner's weakest-safe isolation assignments enforced per template,
//! per request, on a shared [`Database`].

use feral_db::{
    AuditMode, ColumnDef, Config, DataType, Database, Datum, DbError, IsolationLevel,
    IsolationPlan, Predicate, TableSchema,
};
use feral_iconfluence::{coordination_free, OperationMix};
use feral_orm::OrmError;
use feral_plan::infer_pair_levels;
use feral_sdg::matrix::PairKind;
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

/// The plan the planner configuration runs under: each template at the
/// level the fixed-point inference assigns its pair slot, with the
/// insert-only comment template on the read-committed fast path.
pub fn certified_plan() -> IsolationPlan {
    let mut plan = IsolationPlan::new(IsolationLevel::Serializable);
    let (uniq, _) = infer_pair_levels(PairKind::Uniqueness);
    let (orph, _) = infer_pair_levels(PairKind::Orphans);
    let (rmw, _) = infer_pair_levels(PairKind::LockRmw);
    let (sib, _) = infer_pair_levels(PairKind::SiblingInserts);
    plan.assign(T_SIGNUP, uniq[0]);
    plan.assign(T_HIRE, orph[0]);
    plan.assign(T_DISBAND, orph[1]);
    plan.assign(T_DEPOSIT, rmw[0]);
    // comments only reference posts, and the workload never destroys a
    // post: presence under an insert-only mix is I-confluent, so the
    // comment template may run coordination-free
    assert!(coordination_free(
        "validates_presence_of",
        OperationMix::InsertionsOnly
    ));
    plan.assign(T_COMMENT, sib[0]);
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

/// Shared mutable workload state: the live department per slot, the
/// next fresh department id, and the count of acknowledged deposits
/// (the lost-update baseline).
pub struct WorkloadState {
    /// Live department id per contention slot.
    pub slots: Vec<AtomicI64>,
    /// Next fresh department id for disband replacements.
    pub next_dept: AtomicI64,
    /// Deposits acknowledged to callers.
    pub acked_deposits: AtomicU64,
}

impl WorkloadState {
    /// State matching [`seeded_database`]'s seed rows.
    pub fn new() -> WorkloadState {
        WorkloadState {
            slots: (0..DEPTS as i64).map(AtomicI64::new).collect(),
            next_dept: AtomicI64::new(DEPTS as i64),
            acked_deposits: AtomicU64::new(0),
        }
    }
}

impl Default for WorkloadState {
    fn default() -> Self {
        WorkloadState::new()
    }
}

/// Uniqueness probe-insert at an explicit email slot: scan for the
/// email, insert when absent.
pub fn signup_at(db: &Database, plan: &IsolationPlan, email_slot: i64) -> Result<(), DbError> {
    let email = format!("user{email_slot}@example.com");
    db.txn().planned(plan, T_SIGNUP).retries(RETRIES).run(|tx| {
        let dup = tx.scan("signups", &Predicate::eq(1, email.as_str()))?;
        // widen the probe/insert race window
        std::thread::yield_now();
        if dup.is_empty() {
            tx.insert_pairs("signups", &[("email", Datum::text(email.as_str()))])?;
        }
        Ok(())
    })
}

/// Rng form — one draw, then [`signup_at`] (bench stream unchanged).
pub fn signup(db: &Database, plan: &IsolationPlan, rng: &mut StdRng) -> bool {
    signup_at(db, plan, rng.random_range(0..EMAILS)).is_ok()
}

/// Association check-insert against an explicit department slot:
/// verify the department exists, then insert a user referencing it.
pub fn hire_at(
    db: &Database,
    plan: &IsolationPlan,
    state: &WorkloadState,
    slot: usize,
) -> Result<(), DbError> {
    let dept = state.slots[slot].load(Ordering::SeqCst);
    db.txn().planned(plan, T_HIRE).retries(RETRIES).run(|tx| {
        let parent = tx.scan("departments", &Predicate::eq(1, dept))?;
        std::thread::yield_now();
        if !parent.is_empty() {
            tx.insert_pairs(
                "users",
                &[
                    ("email", Datum::text("hire")),
                    ("department_id", Datum::Int(dept)),
                ],
            )?;
        }
        Ok(())
    })
}

/// Rng form of [`hire_at`].
pub fn hire(db: &Database, plan: &IsolationPlan, state: &WorkloadState, rng: &mut StdRng) -> bool {
    let slot = rng.random_range(0..DEPTS);
    hire_at(db, plan, state, slot).is_ok()
}

/// Cascade destroy at an explicit slot: delete a department's users,
/// the department itself, and replace it with a fresh one (so hires
/// never run dry).
pub fn disband_at(
    db: &Database,
    plan: &IsolationPlan,
    state: &WorkloadState,
    slot: usize,
) -> Result<(), DbError> {
    let old = state.slots[slot].load(Ordering::SeqCst);
    let fresh = state.next_dept.fetch_add(1, Ordering::SeqCst);
    let result = db
        .txn()
        .planned(plan, T_DISBAND)
        .retries(RETRIES)
        .run(|tx| {
            tx.delete_where("users", &Predicate::eq(2, old))?;
            tx.delete_where("departments", &Predicate::eq(1, old))?;
            tx.insert_pairs("departments", &[("did", Datum::Int(fresh))])?;
            Ok(())
        });
    if result.is_ok() {
        state.slots[slot].store(fresh, Ordering::SeqCst);
    }
    result
}

/// Rng form of [`disband_at`].
pub fn disband(
    db: &Database,
    plan: &IsolationPlan,
    state: &WorkloadState,
    rng: &mut StdRng,
) -> bool {
    let slot = rng.random_range(0..DEPTS);
    disband_at(db, plan, state, slot).is_ok()
}

/// `lock_version` read-modify-write on an explicit shared account.
pub fn deposit_at(
    db: &Database,
    plan: &IsolationPlan,
    state: &WorkloadState,
    account: i64,
) -> Result<(), DbError> {
    let result = db
        .txn()
        .planned(plan, T_DEPOSIT)
        .retries(RETRIES)
        .run(|tx| {
            let rows = tx.scan("accounts", &Predicate::eq(1, account))?;
            let (rref, tuple) = (rows[0].0, (*rows[0].1).clone());
            let balance = tuple[2].as_int().unwrap_or(0);
            let version = tuple[3].as_int().unwrap_or(0);
            std::thread::yield_now();
            let mut next = tuple;
            next[2] = Datum::Int(balance + 1);
            next[3] = Datum::Int(version + 1);
            tx.update("accounts", rref, next)
        });
    if result.is_ok() {
        state.acked_deposits.fetch_add(1, Ordering::SeqCst);
    }
    result
}

/// Rng form of [`deposit_at`].
pub fn deposit(
    db: &Database,
    plan: &IsolationPlan,
    state: &WorkloadState,
    rng: &mut StdRng,
) -> bool {
    let account = rng.random_range(0..ACCOUNTS);
    deposit_at(db, plan, state, account).is_ok()
}

/// Insert-only presence check at an explicit post: posts are never
/// destroyed, so this template is the plan's read-committed fast path.
pub fn comment_at(db: &Database, plan: &IsolationPlan, post: i64) -> Result<(), DbError> {
    db.txn()
        .planned(plan, T_COMMENT)
        .retries(RETRIES)
        .run(|tx| {
            let parent = tx.scan("posts", &Predicate::eq(1, post))?;
            if !parent.is_empty() {
                tx.insert_pairs("comments", &[("post_id", Datum::Int(post))])?;
            }
            Ok(())
        })
}

/// Rng form of [`comment_at`].
pub fn comment(db: &Database, plan: &IsolationPlan, rng: &mut StdRng) -> bool {
    comment_at(db, plan, rng.random_range(0..POSTS)).is_ok()
}

/// End-of-run audit counters, one per feral anomaly family.
#[derive(Default, Clone, Copy)]
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

    /// Accumulate another run's counters.
    pub fn add(&mut self, other: Anomalies) {
        self.duplicate_signups += other.duplicate_signups;
        self.orphaned_users += other.orphaned_users;
        self.orphaned_comments += other.orphaned_comments;
        self.lost_deposits += other.lost_deposits;
    }

    /// One-line human rendering.
    pub fn describe(self) -> String {
        format!(
            "{} dup / {} orphan-user / {} orphan-comment / {} lost",
            self.duplicate_signups, self.orphaned_users, self.orphaned_comments, self.lost_deposits
        )
    }

    /// JSON object rendering.
    pub fn json(self) -> String {
        format!(
            "{{\"duplicate_signups\": {}, \"orphaned_users\": {}, \
             \"orphaned_comments\": {}, \"lost_deposits\": {}}}",
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

/// Workers per in-process timed run.
pub const WORKERS: usize = 8;

/// Outcome of one in-process timed run.
pub struct RunOutcome {
    /// Committed-transaction throughput, txns/second.
    pub tput: f64,
    /// Committed transaction count.
    pub committed: u64,
    /// Post-run integrity audit counters.
    pub anomalies: Anomalies,
    /// Runtime DSG auditor snapshot, when the run was audited.
    pub audit: Option<feral_db::AuditSnapshot>,
    /// Engine counters of the timed phase (seeding and the integrity
    /// audit excluded): `index_probes == scans` while every template's
    /// probe is index-backed.
    pub stats: feral_db::StatsSnapshot,
}

/// One timed execution of the workload under `plan`: 8 workers each
/// draw `ops` template instances from the weighted mix, with the
/// runtime DSG auditor capturing at `audit_mode`. The integrity audit
/// runs after the clock stops.
pub fn timed_run(plan: &IsolationPlan, ops: usize, seed: u64, audit_mode: AuditMode) -> RunOutcome {
    let db = seeded_database(audit_mode);
    let state = WorkloadState::new();
    let committed = AtomicU64::new(0);
    let seeded = db.stats().snapshot();
    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let db = db.clone();
            let (state, committed) = (&state, &committed);
            s.spawn(move || {
                let mut choice =
                    WeightedChoice::new(&WEIGHTS, seed ^ (w as u64).wrapping_mul(0x9E3779B9));
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(w as u64));
                for _ in 0..ops {
                    let ok = match choice.draw() {
                        0 => signup(&db, plan, &mut rng),
                        1 => hire(&db, plan, state, &mut rng),
                        2 => disband(&db, plan, state, &mut rng),
                        3 => deposit(&db, plan, state, &mut rng),
                        _ => comment(&db, plan, &mut rng),
                    };
                    if ok {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let committed = committed.load(Ordering::Relaxed);
    RunOutcome {
        stats: db.stats().snapshot().diff(&seeded),
        tput: committed as f64 / elapsed,
        committed,
        anomalies: audit(&db, state.acked_deposits.load(Ordering::SeqCst)),
        audit: db.audit_snapshot(),
    }
}

/// A template-aware [`Service`]: [`Op::Template`] requests execute the
/// named template through `db.txn().planned(plan, template)`, with the
/// operand derived from the request key (`key % domain`). Everything
/// else — model CRUD, customs — is a config error: this frontend serves
/// the planner workload, not an ORM.
pub struct PlannedService {
    db: Database,
    plan: IsolationPlan,
    state: WorkloadState,
}

impl PlannedService {
    /// Serve `db` under `plan` with fresh workload state (matching a
    /// freshly [`seeded_database`]).
    pub fn new(db: Database, plan: IsolationPlan) -> PlannedService {
        PlannedService {
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
}

impl Service for PlannedService {
    fn call(&self, request: Request) -> Response {
        let Op::Template { name, key } = &request.op else {
            return Response::Error(OrmError::Config(
                "planner frontend serves template requests only".into(),
            ));
        };
        let result = match name.as_str() {
            T_SIGNUP => signup_at(&self.db, &self.plan, (key % EMAILS as u64) as i64),
            T_HIRE => hire_at(
                &self.db,
                &self.plan,
                &self.state,
                (key % DEPTS as u64) as usize,
            ),
            T_DISBAND => disband_at(
                &self.db,
                &self.plan,
                &self.state,
                (key % DEPTS as u64) as usize,
            ),
            T_DEPOSIT => deposit_at(
                &self.db,
                &self.plan,
                &self.state,
                (key % ACCOUNTS as u64) as i64,
            ),
            T_COMMENT => comment_at(&self.db, &self.plan, (key % POSTS as u64) as i64),
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
