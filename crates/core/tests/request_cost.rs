//! Per-request cost, in the unit the ROADMAP asks for: heap allocations
//! per `Session::find` and per accepted `Session::create`, counted by a
//! `GlobalAlloc` wrapper on the calling thread. A find needs 2 — `scan`'s
//! result and the record vector — since index keys are built in place (3
//! before, 35 on the copying read path); an accepted create needs 11.2
//! since a commit builds no write summary unless the auditor samples it
//! (13.2 before; 13.4 once a row image became one allocation that keeps
//! its short strings in place; 19.4 before that, when an `Arc<Vec>` image
//! boxed every string; 30.4
//! before keys, single postings and the newest row version moved into the
//! index and heap slots, 40 before the write-path diet, 93 before the
//! zero-copy records). The bounds are the measured counts, so an encoded
//! key, a posting set, a copy, a cloned lock key or a string that leaves
//! its place creeps back and trips them.

mod counting_alloc;

use counting_alloc::allocations_of;
use feral_db::Datum;
use feral_orm::{App, Dependent, ModelDef};

/// The benchmark's `User`: the feral pair over a non-unique index.
fn app_with_users(rows: i64) -> App {
    users_on(App::in_memory(), rows)
}

/// [`app_with_users`] on `app`'s database.
fn users_on(app: App, rows: i64) -> App {
    app.define(
        ModelDef::build("User")
            .string("email")
            .string("name")
            .string("bio")
            .validates_presence_of("email")
            .validates_uniqueness_of("email")
            .finish(),
    )
    .unwrap();
    app.add_index("User", &["email"], false).unwrap();
    let mut s = app.session();
    for i in 0..rows {
        s.create_strict("User", &user_attrs(&format!("u{i}@example.com")))
            .unwrap();
    }
    app
}

fn user_attrs(email: &str) -> [(&'static str, Datum); 3] {
    [
        ("email", Datum::text(email)),
        ("name", Datum::text("Some Name")),
        ("bio", Datum::text("a few words about this user")),
    ]
}

#[test]
fn find_allocates_at_most_twice() {
    let app = app_with_users(64);
    let mut s = app.session();
    // the first call fills the session's model cache and the stripes
    s.find("User", 1).unwrap();
    const CALLS: u64 = 50;
    let allocations = allocations_of(|| {
        for i in 0..CALLS {
            let user = s.find("User", 1 + (i as i64 * 7) % 64).unwrap();
            assert!(user.is_persisted());
        }
    });
    let per_find = allocations as f64 / CALLS as f64;
    assert!(per_find <= 2.0, "{per_find} allocations per Session::find");
}

/// Allocations per accepted `Session::create` of a fresh email into a
/// `rows`-user `app`, over 50 creates after one warm-up create.
fn allocations_per_create(app: &App) -> f64 {
    let mut s = app.session();
    s.create_strict("User", &user_attrs("warm@example.com"))
        .unwrap();
    const CALLS: u64 = 50;
    let emails: Vec<String> = (0..CALLS).map(|i| format!("new{i}@example.com")).collect();
    let attrs: Vec<_> = emails.iter().map(|e| user_attrs(e)).collect();
    let allocations = allocations_of(|| {
        for attrs in &attrs {
            let user = s.create("User", attrs).unwrap();
            assert!(user.is_persisted(), "{:?}", user.errors);
        }
    });
    allocations as f64 / CALLS as f64
}

#[test]
fn an_accepted_create_allocates_at_most_twelve_times() {
    let per_create = allocations_per_create(&app_with_users(64));
    assert!(
        per_create <= 12.0,
        "{per_create} allocations per accepted Session::create"
    );
}

/// With a WAL bound (unsynced: the count is the commit's, not the
/// disk's) a create also builds its commit record: 20.18 allocations,
/// 21.18 when every logged write copied its table's name, so the bound
/// of 21 trips if the copy comes back.
#[test]
fn an_accepted_create_with_a_wal_allocates_at_most_twenty_one_times() {
    let dir = std::env::temp_dir().join(format!("feral-request-cost-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("logged_create.wal");
    let _ = std::fs::remove_file(&path);
    let db = feral_db::Database::open(feral_db::Config {
        wal_path: Some(path.clone()),
        ..feral_db::Config::default()
    })
    .unwrap();
    let per_create = allocations_per_create(&users_on(App::new(db), 64));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        per_create <= 21.0,
        "{per_create} allocations per accepted, logged Session::create"
    );
}

/// Allocations of one `insert_pairs` at each of `at..at + 10` inserts into
/// a transaction: the cheapest of the ten, so a buffer that happens to
/// grow at one of them does not count.
fn cheapest_insert(tx: &mut feral_db::Transaction, at: &mut i64) -> u64 {
    (0..10)
        .map(|_| {
            *at += 1;
            let email = Datum::text(format!("bulk{at}@example.com"));
            allocations_of(|| {
                tx.insert_pairs("users", &[("email", email.clone())])
                    .unwrap();
            })
        })
        .min()
        .unwrap()
}

/// The pending-write set is keyed: what an insert costs does not depend
/// on how many writes its transaction already buffers. (With the unique
/// primary-key check walking the pending writes, the 5 000th insert
/// encoded 5 000 keys — one allocation each.)
#[test]
fn the_five_thousandth_insert_of_a_transaction_costs_what_the_tenth_does() {
    let app = app_with_users(0);
    let mut tx = app.db().txn().begin();
    let mut at = 0;
    while at < 10 {
        cheapest_insert(&mut tx, &mut at);
    }
    let early = cheapest_insert(&mut tx, &mut at);
    while at < 5_000 {
        cheapest_insert(&mut tx, &mut at);
    }
    let late = cheapest_insert(&mut tx, &mut at);
    assert_eq!(late, early, "allocations of insert 5 000 vs insert 10");
    tx.commit().unwrap();
    assert_eq!(app.db().count_rows("users").unwrap() as i64, at);
}

/// A team whose `players` are destroyed with it, and `team_sizes` teams
/// of that many players each.
fn app_with_teams(team_sizes: &[i64]) -> (App, Vec<feral_orm::Record>) {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Team")
            .string("name")
            .has_many_dependent("players", Dependent::Destroy)
            .finish(),
    )
    .unwrap();
    app.define(
        ModelDef::build("Player")
            .string("name")
            .belongs_to("team")
            .finish(),
    )
    .unwrap();
    let mut s = app.session();
    let mut teams = Vec::new();
    for &size in team_sizes {
        let team = s
            .create_strict("Team", &[("name", Datum::text("t"))])
            .unwrap();
        for _ in 0..size {
            s.create_strict(
                "Player",
                &[
                    ("name", Datum::text("p")),
                    ("team_id", Datum::Int(team.id().unwrap())),
                ],
            )
            .unwrap();
        }
        teams.push(team);
    }
    (app, teams)
}

/// With tracing off a cascade step computes no trace argument, and its
/// cycle guard copies no table name. The `DestroyCascade` event's
/// `id.to_string()` fingerprint cost one allocation per destroyed row
/// (3.5 allocations per cascaded player with it), and keying the visited
/// set by the table's name another (2.47); keyed by table id a player
/// costs 1.47, so the bound of 2 trips if either comes back.
#[test]
fn a_cascade_destroy_with_tracing_off_allocates_nothing_for_the_trace() {
    assert!(
        !feral_trace::enabled(),
        "this binary never turns tracing on"
    );
    let (app, mut teams) = app_with_teams(&[1, 8, 40]);
    let mut s = app.session();
    let mut destroy = |team: &mut feral_orm::Record| allocations_of(|| s.destroy(team).unwrap());
    // the first destroy fills the session's model cache
    destroy(&mut teams[0]);
    let small = destroy(&mut teams[1]);
    let large = destroy(&mut teams[2]);
    assert_eq!(s.count("Player").unwrap(), 0);
    let per_player = (large - small) as f64 / 32.0;
    assert!(
        per_player <= 2.0,
        "{per_player} allocations per cascaded player (budget 2)"
    );
}

/// A create whose `validates_presence_of` association probes the parent
/// by its integer key computes no trace argument with tracing off: the
/// probe's key fingerprint formatted the integer, 12.5 allocations per
/// create with it and 11.5 without — 9.4 since a commit builds no write
/// summary unless the auditor samples it — so the bound of 10 trips if it
/// comes back.
#[test]
fn an_association_probe_with_tracing_off_allocates_nothing_for_the_trace() {
    assert!(
        !feral_trace::enabled(),
        "this binary never turns tracing on"
    );
    let app = App::in_memory();
    app.define(ModelDef::build("Team").string("name").finish())
        .unwrap();
    app.define(
        ModelDef::build("Player")
            .string("name")
            .belongs_to("team")
            .validates_presence_of("team")
            .finish(),
    )
    .unwrap();
    let mut s = app.session();
    let team = s
        .create_strict("Team", &[("name", Datum::text("t"))])
        .unwrap();
    let player = [
        ("name", Datum::text("p")),
        ("team_id", Datum::Int(team.id().unwrap())),
    ];
    s.create_strict("Player", &player).unwrap();
    const CALLS: u64 = 50;
    let allocations = allocations_of(|| {
        for _ in 0..CALLS {
            let created = s.create("Player", &player).unwrap();
            assert!(created.is_persisted(), "{:?}", created.errors);
        }
    });
    let per_create = allocations as f64 / CALLS as f64;
    assert!(
        per_create <= 10.0,
        "{per_create} allocations per create with an association probe (budget 10)"
    );
}
