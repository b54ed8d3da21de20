//! A guided tour of the paper's anomalies and their fixes: duplicate
//! usernames under feral uniqueness validation, orphaned rows under feral
//! cascading deletes, how isolation levels and in-database constraints
//! change the outcome, and how Section 7's routing picks the constraint.
//!
//! Run with: `cargo run --release --example anomaly_tour`

use feral::db::{Config, Database, Datum, IsolationLevel};
use feral::iconfluence::{coordination_free, OperationMix};
use feral::orm::{App, Dependent, ModelDef};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

fn forum_app(iso: IsolationLevel, pg_ssi_bug: bool) -> App {
    let app = App::new(Database::new(Config {
        default_isolation: iso,
        pg_ssi_bug,
        ..Config::default()
    }));
    app.define(
        ModelDef::build("Member")
            .string("username")
            .validates_presence_of("username")
            .validates_uniqueness_of("username")
            .finish(),
    )
    .unwrap();
    app.set_validation_write_delay(Duration::from_micros(500));
    app
}

/// Race `threads` signups for the same username, `rounds` times; return
/// the number of duplicate rows left behind.
fn race_signups(app: &App, threads: usize, rounds: usize) -> usize {
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for _ in 0..threads {
        let app = app.clone();
        let b = barrier.clone();
        handles.push(thread::spawn(move || {
            for r in 0..rounds {
                b.wait();
                let mut s = app.session();
                let _ = s.create("Member", &[("username", Datum::text(format!("user{r}")))]);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut s = app.session();
    s.count("Member").unwrap().saturating_sub(rounds)
}

fn main() {
    let threads = 8;
    let rounds = 40;
    println!("=== Part 1: duplicate usernames (paper §5.1-5.2) ===\n");

    for (label, iso, bug) in [
        (
            "Read Committed (PostgreSQL default)",
            IsolationLevel::ReadCommitted,
            false,
        ),
        (
            "Repeatable Read (MySQL default)",
            IsolationLevel::RepeatableRead,
            false,
        ),
        (
            "Snapshot ('serializable' in Oracle 12c)",
            IsolationLevel::Snapshot,
            false,
        ),
        ("Serializable", IsolationLevel::Serializable, false),
        (
            "'Serializable' with PG bug #11732",
            IsolationLevel::Serializable,
            true,
        ),
    ] {
        let app = forum_app(iso, bug);
        let dups = race_signups(&app, threads, rounds);
        println!("  {label:45} -> {dups:3} duplicate usernames");
    }

    println!("\n  fix 1 — the migration the paper applied (unique index):");
    let app = forum_app(IsolationLevel::ReadCommitted, false);
    app.add_index("Member", &["username"], true).unwrap();
    println!(
        "  Read Committed + in-database unique index     -> {:3} duplicate usernames",
        race_signups(&app, threads, rounds)
    );

    println!("\n  fix 2 — Section 7's routing: pay for coordination only where the");
    println!("  invariant is not I-confluent. The model checker's verdict is what");
    println!("  selects fix 1's index:");
    let free = coordination_free("validates_uniqueness_of", OperationMix::WithDeletions);
    println!(
        "  validates_uniqueness_of                       -> {}",
        if free {
            "coordination-free: keep the feral validation"
        } else {
            "not I-confluent: back it with the unique index"
        }
    );

    println!("\n=== Part 2: orphaned rows under feral cascades (paper §5.3-5.4) ===\n");
    let app = App::in_memory();
    app.define(
        ModelDef::build("Department")
            .string("name")
            .has_many_dependent("employees", Dependent::Destroy)
            .finish(),
    )
    .unwrap();
    app.define(
        ModelDef::build("Employee")
            .belongs_to("department")
            .validates_presence_of("department")
            .finish(),
    )
    .unwrap();
    app.set_validation_write_delay(Duration::from_micros(500));

    let mut orphans = 0usize;
    let rounds = 30;
    for r in 0..rounds {
        let mut s = app.session();
        let dept = s
            .create_strict("Department", &[("name", Datum::text(format!("d{r}")))])
            .unwrap();
        let dept_id = dept.id().unwrap();
        let barrier = Arc::new(Barrier::new(9));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let app = app.clone();
            let b = barrier.clone();
            handles.push(thread::spawn(move || {
                b.wait();
                let mut s = app.session();
                let _ = s.create("Employee", &[("department_id", Datum::Int(dept_id))]);
            }));
        }
        {
            let app = app.clone();
            let b = barrier.clone();
            handles.push(thread::spawn(move || {
                b.wait();
                // land the destroy while inserts are between their
                // validation SELECT and their write
                thread::sleep(Duration::from_micros(250));
                let mut s = app.session();
                if let Ok(mut d) = s.find("Department", dept_id) {
                    let _ = s.destroy(&mut d);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut s = app.session();
        orphans += s
            .where_("Employee", &[("department_id", Datum::Int(dept_id))])
            .unwrap()
            .len();
    }
    println!(
        "  {rounds} rounds of destroy-vs-insert races left {orphans} orphaned employee(s)\n\
     \n  the feral `dependent: :destroy` cascade SELECTs the children it can\n\
       see and misses concurrent inserts; an in-database FOREIGN KEY (see\n\
       `cargo run -p feral-bench -- fig4`) admits zero."
    );
}
