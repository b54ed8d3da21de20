//! What a transaction's reads leave behind, pinned per isolation level.
//!
//! One fixed transaction — an index probe, a full scan, a
//! `select_for_update`, a unique-checked insert and a foreign-key child
//! insert — runs at Read Committed, Snapshot and Serializable under a
//! recording schedule hook and the full auditor. The test pins the
//! table-grain accesses a partial-order-reduction explorer sees at every
//! step, and, for a two-transaction read-write conflict whose one side
//! reads through `select_for_update`, the auditor's edges and cycles and
//! whether Serializable aborts it. SSI validation, the auditor and the
//! explorer all read the transaction's read record; this test is what
//! says that each of them still sees what it saw.

use feral_db::{
    AuditMode, ColumnDef, Config, DataType, Database, Datum, IsolationLevel, OnDelete, Predicate,
    TableSchema,
};
use feral_hooks::{Access, ScheduleHook, Site, WaitKind, WaitOutcome};
use std::sync::{Arc, Mutex};

const TABLES: [&str; 4] = ["accounts", "parents", "members", "children"];

/// Records every yield point as the start of a step and every table or
/// clock access as part of the step it happens in. Never parks.
#[derive(Default)]
struct Recorder {
    steps: Mutex<Vec<(Site, Vec<String>)>>,
}

impl ScheduleHook for Recorder {
    fn yield_point(&self, _: usize, site: Site) {
        self.steps.lock().unwrap().push((site, Vec::new()));
    }
    fn wait(&self, _: usize, _: WaitKind) -> WaitOutcome {
        WaitOutcome::Proceed
    }
    fn progress(&self) {}
    fn worker_finished(&self, _: usize) {}
    fn note_access(&self, _: usize, access: Access) {
        let name = match access.space {
            "table" => TABLES
                .into_iter()
                .find(|t| feral_hooks::fnv64(t.as_bytes()) == access.what)
                .expect("a table of this test"),
            "clock" => "clock",
            _ => return,
        };
        let mut steps = self.steps.lock().unwrap();
        let step = steps.last_mut().expect("an access inside a step");
        step.1.push(format!("{name}:{}", access.mode.name()));
    }
}

fn database(iso: IsolationLevel) -> Database {
    let db = Database::new(Config {
        default_isolation: iso,
        audit_mode: AuditMode::Full,
        ..Config::default()
    });
    let text = |name: &str| ColumnDef::new(name, DataType::Text);
    let int = |name: &str| ColumnDef::new(name, DataType::Int);
    db.create_table(TableSchema::new(
        "accounts",
        vec![text("owner"), int("balance")],
    ))
    .unwrap();
    db.create_index("accounts", &["owner"], false).unwrap();
    db.create_table(TableSchema::new("parents", vec![text("name")]))
        .unwrap();
    db.create_table(TableSchema::new("members", vec![text("email")]))
        .unwrap();
    db.create_index("members", &["email"], true).unwrap();
    db.create_table(TableSchema::new("children", vec![int("parent_id")]))
        .unwrap();
    db.add_foreign_key("children", "parent_id", "parents", OnDelete::Restrict)
        .unwrap();
    db.txn()
        .run(|tx| {
            for owner in ["alice", "bob"] {
                tx.insert_pairs(
                    "accounts",
                    &[("owner", Datum::text(owner)), ("balance", Datum::Int(10))],
                )?;
            }
            tx.insert_pairs("parents", &[("name", Datum::text("p"))])?;
            Ok(())
        })
        .unwrap();
    db
}

/// The fixed transaction, every step under the recording hook; returns
/// the steps with the accesses each made.
fn fixed_transaction_steps(iso: IsolationLevel) -> Vec<String> {
    let db = database(iso);
    let recorder = Arc::new(Recorder::default());
    let worker = feral_hooks::Registration::new(recorder.clone(), 0).activate();
    let mut tx = db.txn().isolation(iso).begin();
    let probed = tx.scan("accounts", &Predicate::eq(1, "alice")).unwrap();
    assert_eq!(probed.len(), 1);
    assert_eq!(tx.scan("parents", &Predicate::True).unwrap().len(), 1);
    let locked = tx
        .select_for_update("accounts", &Predicate::eq(1, "bob"))
        .unwrap();
    assert_eq!(locked.len(), 1);
    tx.insert_pairs("members", &[("email", Datum::text("m@example.com"))])
        .unwrap();
    tx.insert_pairs("children", &[("parent_id", Datum::Int(1))])
        .unwrap();
    tx.commit().unwrap();
    drop(worker);
    let steps = recorder.steps.lock().unwrap();
    steps
        .iter()
        .map(|(site, accesses)| format!("{} [{}]", site.name(), accesses.join(" ")))
        .collect()
}

/// T1 reads alice's account through `select_for_update` and T2 reads
/// bob's through a plain probe; T1 then writes bob's account and commits,
/// and T2 writes alice's. Each overwrites what the other read. Returns
/// T2's commit outcome and the auditor's edge and cycle counts.
fn read_write_conflict(iso: IsolationLevel) -> (bool, u64, u64) {
    let db = database(iso);
    let mut t1 = db.txn().isolation(iso).begin();
    let mut t2 = db.txn().isolation(iso).begin();
    let alice = Predicate::eq(1, "alice");
    let bob = Predicate::eq(1, "bob");
    let (alice_row, alice_image) = t1
        .select_for_update("accounts", &alice)
        .unwrap()
        .pop()
        .unwrap();
    let (bob_row, bob_image) = t2.scan("accounts", &bob).unwrap().pop().unwrap();
    let mut paid = bob_image.to_vec();
    paid[2] = Datum::Int(0);
    t1.update("accounts", bob_row, paid).unwrap();
    t1.commit().unwrap();
    let mut paid = alice_image.to_vec();
    paid[2] = Datum::Int(0);
    t2.update("accounts", alice_row, paid).unwrap();
    let committed = t2.commit().is_ok();
    let snap = db.audit_snapshot().expect("auditing is on");
    (committed, snap.edges, snap.cycles)
}

#[test]
fn each_step_shows_the_explorer_the_tables_it_touches() {
    let expected = |probe: &str, commit_reads: &str| {
        vec![
            "start []".to_string(),
            format!("begin [{}]", if probe == "r" { "" } else { "clock:r" }),
            format!("scan [accounts:{probe}]"),
            format!("scan [parents:{probe}]"),
            "select_for_update [accounts:r]".to_string(),
            "write [members:r members:r]".to_string(),
            "write [children:r parents:r]".to_string(),
            format!("commit [{commit_reads}members:w children:w clock:incr]"),
        ]
    };
    assert_eq!(
        fixed_transaction_steps(IsolationLevel::ReadCommitted),
        expected("r", "")
    );
    assert_eq!(
        fixed_transaction_steps(IsolationLevel::Snapshot),
        expected("sr", "")
    );
    assert_eq!(
        fixed_transaction_steps(IsolationLevel::Serializable),
        expected("sr", "accounts:r parents:r ")
    );
}

/// The conflict through the locking read is a cycle the auditor sees at
/// Read Committed and Snapshot (dropping T1's `select_for_update` read
/// from the record loses the T1 → T2 anti-dependency, and the cycle with
/// it). Serializable aborts T2, whose probe of bob's account T1
/// overwrote; what is left of the graph is T1's dependencies on the rows
/// the set-up wrote.
#[test]
fn a_conflict_through_a_locking_read_is_audited_and_aborted_at_serializable() {
    assert_eq!(
        read_write_conflict(IsolationLevel::ReadCommitted),
        (true, 6, 1)
    );
    assert_eq!(read_write_conflict(IsolationLevel::Snapshot), (true, 6, 1));
    assert_eq!(
        read_write_conflict(IsolationLevel::Serializable),
        (false, 2, 0)
    );
}
