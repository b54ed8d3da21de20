//! Tests for the query/batch helpers: ordered+bounded finders, pluck,
//! and the callback-skipping `update_all`/`delete_all` footguns.

use feral_db::Datum;
use feral_orm::{App, Dependent, ModelDef};

fn app() -> App {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Song")
            .string("title")
            .integer("plays")
            .string("genre")
            .finish(),
    )
    .unwrap();
    app
}

fn seed(app: &App) {
    let mut s = app.session();
    for (t, p, g) in [
        ("alpha", 30i64, "rock"),
        ("beta", 10, "jazz"),
        ("gamma", 50, "rock"),
        ("delta", 20, "jazz"),
        ("epsilon", 40, "rock"),
    ] {
        s.create_strict(
            "Song",
            &[
                ("title", Datum::text(t)),
                ("plays", Datum::Int(p)),
                ("genre", Datum::text(g)),
            ],
        )
        .unwrap();
    }
}

#[test]
fn where_order_limit_sorts_and_bounds() {
    let app = app();
    seed(&app);
    let mut s = app.session();
    let top2 = s
        .where_order_limit(
            "Song",
            &[("genre", Datum::text("rock"))],
            "plays",
            true,
            Some(2),
        )
        .unwrap();
    assert_eq!(top2.len(), 2);
    assert_eq!(top2[0].get("title"), Datum::text("gamma")); // 50 plays
    assert_eq!(top2[1].get("title"), Datum::text("epsilon")); // 40 plays
                                                              // ascending, unbounded
    let asc = s
        .where_order_limit("Song", &[], "plays", false, None)
        .unwrap();
    let plays: Vec<i64> = asc
        .iter()
        .map(|r| r.get("plays").as_int().unwrap())
        .collect();
    assert_eq!(plays, vec![10, 20, 30, 40, 50]);
}

#[test]
fn where_order_limit_keeps_ties_stable_and_sorts_nulls_first() {
    let app = app();
    seed(&app);
    let mut s = app.session();
    // two ties on 30 plays (with "alpha") and a NULL, created in this order
    for (t, p) in [
        ("zeta", Datum::Int(30)),
        ("eta", Datum::Null),
        ("theta", Datum::Int(30)),
    ] {
        s.create_strict("Song", &[("title", Datum::text(t)), ("plays", p)])
            .unwrap();
    }
    let titles = |rows: &[feral_orm::Record]| -> Vec<String> {
        rows.iter()
            .map(|r| r.get("title").as_text().unwrap().to_string())
            .collect()
    };
    // ascending: NULL sorts first, ties keep scan (insertion) order
    let asc = s
        .where_order_limit("Song", &[], "plays", false, None)
        .unwrap();
    assert_eq!(
        titles(&asc),
        ["eta", "beta", "delta", "alpha", "zeta", "theta", "epsilon", "gamma"]
    );
    // descending reverses the keys, not the order within a tie
    let desc = s
        .where_order_limit("Song", &[], "plays", true, Some(6))
        .unwrap();
    assert_eq!(
        titles(&desc),
        ["gamma", "epsilon", "alpha", "zeta", "theta", "delta"]
    );
    // the comparison reads the stored rows in place: nothing was assigned
    assert!(asc.iter().all(|r| r.is_persisted()));
    assert!(s
        .where_order_limit("Song", &[], "no_such_column", false, None)
        .is_err());
}

#[test]
fn pluck_extracts_one_column() {
    let app = app();
    seed(&app);
    let mut s = app.session();
    let mut titles: Vec<String> = s
        .pluck("Song", &[("genre", Datum::text("jazz"))], "title")
        .unwrap()
        .into_iter()
        .map(|d| d.as_text().unwrap().to_string())
        .collect();
    titles.sort();
    assert_eq!(titles, vec!["beta", "delta"]);
}

#[test]
fn update_all_bulk_writes_without_validations() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Account")
            .string("name")
            .integer("balance")
            .validates_presence_of("name")
            .finish(),
    )
    .unwrap();
    let mut s = app.session();
    for i in 0..3 {
        s.create_strict(
            "Account",
            &[
                ("name", Datum::text(format!("a{i}"))),
                ("balance", Datum::Int(0)),
            ],
        )
        .unwrap();
    }
    // bulk update bypasses the presence validation entirely — setting
    // name to NULL succeeds (the Rails footgun, faithfully)
    let n = s
        .update_all(
            "Account",
            &[],
            &[("name", Datum::Null), ("balance", Datum::Int(100))],
        )
        .unwrap();
    assert_eq!(n, 3);
    let rows = s.all("Account").unwrap();
    assert!(rows.iter().all(|r| r.get("name").is_null()));
    assert!(rows.iter().all(|r| r.get("balance") == Datum::Int(100)));
}

#[test]
fn delete_all_skips_dependent_logic() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Board")
            .string("name")
            .has_many_dependent("cards", Dependent::Destroy)
            .finish(),
    )
    .unwrap();
    app.define(ModelDef::build("Card").belongs_to("board").finish())
        .unwrap();
    let mut s = app.session();
    let b = s
        .create_strict("Board", &[("name", Datum::text("b"))])
        .unwrap();
    s.create_strict("Card", &[("board_id", Datum::Int(b.id().unwrap()))])
        .unwrap();
    // delete_all on boards does NOT cascade — cards are orphaned
    let n = s.delete_all("Board", &[]).unwrap();
    assert_eq!(n, 1);
    assert_eq!(s.count("Card").unwrap(), 1, "delete_all must skip cascades");
}

#[test]
fn update_all_with_conditions() {
    let app = app();
    seed(&app);
    let mut s = app.session();
    let n = s
        .update_all(
            "Song",
            &[("genre", Datum::text("jazz"))],
            &[("plays", Datum::Int(0))],
        )
        .unwrap();
    assert_eq!(n, 2);
    let zeroed = s
        .pluck("Song", &[("plays", Datum::Int(0))], "genre")
        .unwrap();
    assert_eq!(zeroed.len(), 2);
    assert!(zeroed.iter().all(|g| g == &Datum::text("jazz")));
}
