//! End-to-end ORM lifecycle tests: save/create/update/destroy, finders,
//! associations, and locking.

use feral_db::{DataType, Datum};
use feral_orm::{App, Dependent, ModelDef, Numericality, OrmError};

fn blog_app() -> App {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Author")
            .string("name")
            .validates_presence_of("name")
            .has_many_dependent("posts", Dependent::Destroy)
            .finish(),
    )
    .unwrap();
    app.define(
        ModelDef::build("Post")
            .string("title")
            .integer("view_count")
            .belongs_to("author")
            .validates_presence_of("title")
            .validates_presence_of("author")
            .has_many_dependent("comments", Dependent::DeleteAll)
            .finish(),
    )
    .unwrap();
    app.define(
        ModelDef::build("Comment")
            .string("body")
            .belongs_to("post")
            .finish(),
    )
    .unwrap();
    app
}

#[test]
fn create_assigns_id_and_timestamps() {
    let app = blog_app();
    let mut s = app.session();
    let a = s
        .create_strict("Author", &[("name", Datum::text("peter"))])
        .unwrap();
    assert!(a.is_persisted());
    assert!(a.id().unwrap() >= 1);
    assert!(matches!(a.get("created_at"), Datum::Timestamp(_)));
    assert!(matches!(a.get("updated_at"), Datum::Timestamp(_)));
}

#[test]
fn save_false_on_invalid_and_errors_populated() {
    let app = blog_app();
    let mut s = app.session();
    let mut a = app.new_record("Author").unwrap();
    assert!(!s.save(&mut a).unwrap());
    assert!(!a.is_persisted());
    assert_eq!(a.errors.on("name"), vec!["can't be blank"]);
    // save! raises
    let err = s.save_strict(&mut a).unwrap_err();
    assert!(matches!(err, OrmError::RecordInvalid(_)));
}

#[test]
fn update_changes_row_and_bumps_updated_at() {
    let app = blog_app();
    let mut s = app.session();
    let mut a = s
        .create_strict("Author", &[("name", Datum::text("old"))])
        .unwrap();
    let created = a.get("created_at");
    std::thread::sleep(std::time::Duration::from_millis(2));
    s.update_attributes(&mut a, &[("name", Datum::text("new"))])
        .unwrap();
    let found = s.find("Author", a.id().unwrap()).unwrap();
    assert_eq!(found.get("name"), Datum::text("new"));
    assert_eq!(found.get("created_at"), created);
    assert_ne!(found.get("updated_at"), created);
}

#[test]
fn find_miss_is_record_not_found() {
    let app = blog_app();
    let mut s = app.session();
    assert!(matches!(
        s.find("Author", 999),
        Err(OrmError::RecordNotFound(_))
    ));
    assert!(s
        .find_by("Author", &[("name", Datum::text("x"))])
        .unwrap()
        .is_none());
}

#[test]
fn belongs_to_presence_validation_probes_database() {
    let app = blog_app();
    let mut s = app.session();
    // no author yet: validation fails ferally
    let p = s
        .create(
            "Post",
            &[("title", Datum::text("t")), ("author_id", Datum::Int(42))],
        )
        .unwrap();
    assert!(!p.is_persisted());
    assert_eq!(p.errors.on("author"), vec!["can't be blank"]);
    // with the author present it succeeds
    let a = s
        .create_strict("Author", &[("name", Datum::text("peter"))])
        .unwrap();
    let p = s
        .create_strict(
            "Post",
            &[
                ("title", Datum::text("t")),
                ("author_id", Datum::Int(a.id().unwrap())),
            ],
        )
        .unwrap();
    assert!(p.is_persisted());
}

#[test]
fn associated_loads_children_and_parent() {
    let app = blog_app();
    let mut s = app.session();
    let a = s
        .create_strict("Author", &[("name", Datum::text("peter"))])
        .unwrap();
    for i in 0..3 {
        s.create_strict(
            "Post",
            &[
                ("title", Datum::text(format!("p{i}"))),
                ("author_id", Datum::Int(a.id().unwrap())),
            ],
        )
        .unwrap();
    }
    let posts = s.associated(&a, "posts").unwrap();
    assert_eq!(posts.len(), 3);
    let parent = s.associated(&posts[0], "author").unwrap();
    assert_eq!(parent.len(), 1);
    assert_eq!(parent[0].get("name"), Datum::text("peter"));
}

#[test]
fn destroy_cascades_dependent_destroy_transitively() {
    let app = blog_app();
    let mut s = app.session();
    let mut a = s
        .create_strict("Author", &[("name", Datum::text("peter"))])
        .unwrap();
    let p = s
        .create_strict(
            "Post",
            &[
                ("title", Datum::text("t")),
                ("author_id", Datum::Int(a.id().unwrap())),
            ],
        )
        .unwrap();
    s.create_strict(
        "Comment",
        &[
            ("body", Datum::text("hi")),
            ("post_id", Datum::Int(p.id().unwrap())),
        ],
    )
    .unwrap();
    // author -> posts (destroy) -> comments (delete_all)
    s.destroy(&mut a).unwrap();
    assert!(a.is_destroyed());
    assert_eq!(s.count("Author").unwrap(), 0);
    assert_eq!(s.count("Post").unwrap(), 0);
    assert_eq!(s.count("Comment").unwrap(), 0);
}

#[test]
fn destroy_restrict_refuses_with_children() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Team")
            .string("name")
            .has_many_dependent("players", Dependent::Restrict)
            .finish(),
    )
    .unwrap();
    app.define(ModelDef::build("Player").belongs_to("team").finish())
        .unwrap();
    let mut s = app.session();
    let mut t = s
        .create_strict("Team", &[("name", Datum::text("a"))])
        .unwrap();
    s.create_strict("Player", &[("team_id", Datum::Int(t.id().unwrap()))])
        .unwrap();
    let err = s.destroy(&mut t).unwrap_err();
    assert!(matches!(err, OrmError::RecordNotDestroyed(_)));
    assert_eq!(s.count("Team").unwrap(), 1);
}

#[test]
fn destroy_nullify_keeps_children_with_null_fk() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Team")
            .string("name")
            .has_many_dependent("players", Dependent::Nullify)
            .finish(),
    )
    .unwrap();
    app.define(ModelDef::build("Player").belongs_to("team").finish())
        .unwrap();
    let mut s = app.session();
    let mut t = s
        .create_strict("Team", &[("name", Datum::text("a"))])
        .unwrap();
    s.create_strict("Player", &[("team_id", Datum::Int(t.id().unwrap()))])
        .unwrap();
    s.destroy(&mut t).unwrap();
    let players = s.all("Player").unwrap();
    assert_eq!(players.len(), 1);
    assert!(players[0].get("team_id").is_null());
}

#[test]
fn has_many_through_traverses_join_model() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Physician")
            .string("name")
            .has_many("appointments")
            .has_many_through("patients", "appointments")
            .finish(),
    )
    .unwrap();
    app.define(
        ModelDef::build("Appointment")
            .belongs_to("physician")
            .belongs_to("patient")
            .finish(),
    )
    .unwrap();
    app.define(ModelDef::build("Patient").string("name").finish())
        .unwrap();
    let mut s = app.session();
    let doc = s
        .create_strict("Physician", &[("name", Datum::text("dr"))])
        .unwrap();
    for n in ["alice", "bob"] {
        let pat = s
            .create_strict("Patient", &[("name", Datum::text(n))])
            .unwrap();
        s.create_strict(
            "Appointment",
            &[
                ("physician_id", Datum::Int(doc.id().unwrap())),
                ("patient_id", Datum::Int(pat.id().unwrap())),
            ],
        )
        .unwrap();
    }
    let patients = s.associated(&doc, "patients").unwrap();
    let mut names: Vec<String> = patients
        .iter()
        .map(|p| p.get("name").as_text().unwrap().to_string())
        .collect();
    names.sort();
    assert_eq!(names, vec!["alice", "bob"]);
}

#[test]
fn optimistic_locking_raises_stale_object() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Order")
            .string("state")
            .with_lock_version()
            .finish(),
    )
    .unwrap();
    let mut s1 = app.session();
    let mut s2 = app.session();
    let o = s1
        .create_strict("Order", &[("state", Datum::text("cart"))])
        .unwrap();
    let id = o.id().unwrap();
    // two controllers load the same order
    let mut copy1 = s1.find("Order", id).unwrap();
    let mut copy2 = s2.find("Order", id).unwrap();
    assert_eq!(copy1.get("lock_version"), Datum::Int(0));
    // first save wins, bumping lock_version
    s1.update_attributes(&mut copy1, &[("state", Datum::text("paid"))])
        .unwrap();
    // second save is stale
    let err = s2
        .update_attributes(&mut copy2, &[("state", Datum::text("cancelled"))])
        .unwrap_err();
    assert!(matches!(err, OrmError::StaleObject(_)));
    // state is the first writer's
    let fresh = s1.find("Order", id).unwrap();
    assert_eq!(fresh.get("state"), Datum::text("paid"));
    assert_eq!(fresh.get("lock_version"), Datum::Int(1));
}

#[test]
fn pessimistic_lock_serializes_read_modify_write() {
    let app = App::in_memory();
    app.define(ModelDef::build("Stock").integer("count_on_hand").finish())
        .unwrap();
    let mut s = app.session();
    let item = s
        .create_strict("Stock", &[("count_on_hand", Datum::Int(10))])
        .unwrap();
    let id = item.id().unwrap();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let app = app.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = app.session();
            s.transaction(|s| {
                // Spree's adjust_count_on_hand: lock, read, write
                let mut rec = s.find("Stock", id)?;
                s.lock(&mut rec)?;
                let v = rec.get("count_on_hand").as_int().unwrap();
                rec.set("count_on_hand", v - 1);
                s.save_strict(&mut rec)?;
                Ok(())
            })
            .unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let fresh = s.find("Stock", id).unwrap();
    assert_eq!(fresh.get("count_on_hand"), Datum::Int(6));
}

#[test]
fn transaction_block_rolls_back_on_error() {
    let app = blog_app();
    let mut s = app.session();
    let result: Result<(), OrmError> = s.transaction(|s| {
        s.create_strict("Author", &[("name", Datum::text("peter"))])?;
        Err(OrmError::Config("boom".into()))
    });
    assert!(result.is_err());
    assert_eq!(s.count("Author").unwrap(), 0);
}

#[test]
fn nested_transactions_join_the_outer_one() {
    let app = blog_app();
    let mut s = app.session();
    let result: Result<(), OrmError> = s.transaction(|s| {
        s.create_strict("Author", &[("name", Datum::text("a"))])?;
        s.transaction(|s| {
            s.create_strict("Author", &[("name", Datum::text("b"))])?;
            Ok(())
        })?;
        Err(OrmError::Config("rollback everything".into()))
    });
    assert!(result.is_err());
    // Rails default: nested block joined the outer txn, so both roll back
    assert_eq!(s.count("Author").unwrap(), 0);
}

#[test]
fn reload_refreshes_attributes() {
    let app = blog_app();
    let mut s1 = app.session();
    let mut s2 = app.session();
    let mut a = s1
        .create_strict("Author", &[("name", Datum::text("old"))])
        .unwrap();
    let mut other = s2.find("Author", a.id().unwrap()).unwrap();
    s2.update_attributes(&mut other, &[("name", Datum::text("new"))])
        .unwrap();
    assert_eq!(a.get("name"), Datum::text("old"));
    s1.reload(&mut a).unwrap();
    assert_eq!(a.get("name"), Datum::text("new"));
}

#[test]
fn assigning_to_a_read_record_never_touches_the_stored_row() {
    let app = blog_app();
    let mut s = app.session();
    let id = s
        .create_strict("Author", &[("name", Datum::text("ada"))])
        .unwrap()
        .id()
        .unwrap();
    let stored = |app: &App| {
        let mut tx = app.db().txn().begin();
        let (_, row) = tx.get_by_id("authors", id).unwrap().unwrap();
        row
    };
    let before = stored(&app);

    // the record shares the heap's row; an assignment lands in its overlay
    let mut a = s.find("Author", id).unwrap();
    a.assign(&[("name", Datum::text("grace"))]);
    a.set("nickname", "virtual");
    let mut merged = before.to_vec();
    merged[1] = Datum::text("grace");
    assert_eq!(a.to_tuple(), merged, "to_tuple is the overlay over the row");
    assert_eq!(a.get("nickname"), Datum::text("virtual"));
    assert_eq!(
        a.to_tuple().len(),
        a.model.columns().len(),
        "a virtual attribute is not a column"
    );

    // a second reader and the heap still see the stored image
    assert_eq!(
        s.find("Author", id).unwrap().get("name"),
        Datum::text("ada")
    );
    let after = stored(&app);
    assert!(std::sync::Arc::ptr_eq(&before, &after));
    assert_eq!(after[1], Datum::text("ada"));

    // a clone goes its own way
    let mut b = a.clone();
    b.set("name", "barbara");
    assert_eq!(a.get("name"), Datum::text("grace"));
    assert_eq!(b.get("name"), Datum::text("barbara"));

    // saving writes the merge as a new version; the old row is as it was
    assert!(s.save(&mut a).unwrap());
    assert_eq!(
        s.find("Author", id).unwrap().get("name"),
        Datum::text("grace")
    );
    assert_eq!(before[1], Datum::text("ada"));
}

#[test]
fn delete_skips_dependent_callbacks() {
    let app = blog_app();
    let mut s = app.session();
    let mut a = s
        .create_strict("Author", &[("name", Datum::text("p"))])
        .unwrap();
    s.create_strict(
        "Post",
        &[
            ("title", Datum::text("t")),
            ("author_id", Datum::Int(a.id().unwrap())),
        ],
    )
    .unwrap();
    s.delete(&mut a).unwrap();
    // bare delete orphaned the post — exactly why Rails distinguishes
    // destroy from delete
    assert_eq!(s.count("Author").unwrap(), 0);
    assert_eq!(s.count("Post").unwrap(), 1);
}

#[test]
fn numericality_and_inclusion_validators() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Product")
            .integer("stock")
            .string("status")
            .validates_numericality_of(
                "stock",
                Numericality::number().greater_than_or_equal_to(0.0),
            )
            .validates_inclusion_of(
                "status",
                vec![Datum::text("active"), Datum::text("retired")],
            )
            .finish(),
    )
    .unwrap();
    let mut s = app.session();
    let bad = s
        .create(
            "Product",
            &[("stock", Datum::Int(-1)), ("status", Datum::text("weird"))],
        )
        .unwrap();
    assert!(!bad.is_persisted());
    assert_eq!(bad.errors.len(), 2);
    let good = s
        .create(
            "Product",
            &[("stock", Datum::Int(0)), ("status", Datum::text("active"))],
        )
        .unwrap();
    assert!(good.is_persisted());
}

#[test]
fn format_email_length_confirmation_validators() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Account")
            .string("username")
            .string("email")
            .string("password")
            .attribute("zip", DataType::Text)
            .validates_length_of("username", Some(3), Some(12))
            .validates_email("email")
            .validates_confirmation_of("password")
            .validates_format_of("zip", r"^\d{5}$")
            .finish(),
    )
    .unwrap();
    let mut s = app.session();
    let mut r = app.new_record("Account").unwrap();
    r.set("username", "ab")
        .set("email", "nope")
        .set("password", "s3cret")
        .set("password_confirmation", "different")
        .set("zip", "9472");
    assert!(!s.save(&mut r).unwrap());
    assert_eq!(r.errors.len(), 4);
    r.set("username", "alice")
        .set("email", "alice@example.com")
        .set("password_confirmation", "s3cret")
        .set("zip", "94720");
    assert!(s.save(&mut r).unwrap());
}

#[test]
fn uniqueness_scope_and_case_insensitivity() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Tag")
            .string("name")
            .integer("site_id")
            .validates_uniqueness_of_scoped("name", &["site_id"])
            .finish(),
    )
    .unwrap();
    app.define(
        ModelDef::build("Handle")
            .string("nick")
            .validates_uniqueness_of_ci("nick")
            .finish(),
    )
    .unwrap();
    let mut s = app.session();
    s.create_strict(
        "Tag",
        &[("name", Datum::text("x")), ("site_id", Datum::Int(1))],
    )
    .unwrap();
    // same name, other site: allowed
    let ok = s
        .create(
            "Tag",
            &[("name", Datum::text("x")), ("site_id", Datum::Int(2))],
        )
        .unwrap();
    assert!(ok.is_persisted());
    // same name, same site: rejected
    let dup = s
        .create(
            "Tag",
            &[("name", Datum::text("x")), ("site_id", Datum::Int(1))],
        )
        .unwrap();
    assert!(!dup.is_persisted());
    // case-insensitive handle
    s.create_strict("Handle", &[("nick", Datum::text("Peter"))])
        .unwrap();
    let dup = s
        .create("Handle", &[("nick", Datum::text("pEtEr"))])
        .unwrap();
    assert!(!dup.is_persisted());
}

#[test]
fn uniqueness_excludes_own_row_on_update() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Slug")
            .string("value")
            .validates_uniqueness_of("value")
            .finish(),
    )
    .unwrap();
    let mut s = app.session();
    let mut r = s
        .create_strict("Slug", &[("value", Datum::text("home"))])
        .unwrap();
    // re-saving the same record must not collide with itself
    assert!(s.save(&mut r).unwrap());
    assert!(s
        .update_attributes(&mut r, &[("value", Datum::text("home"))])
        .unwrap());
}

#[test]
fn custom_validator_with_db_access() {
    // Spree's AvailabilityValidator shape: an order line is valid only if
    // inventory covers it (a DB-reading UDF — not I-confluent, §4.3).
    let app = App::in_memory();
    app.define(ModelDef::build("Inventory").integer("on_hand").finish())
        .unwrap();
    app.define(
        ModelDef::build("OrderLine")
            .integer("inventory_id")
            .integer("quantity")
            .validates_with("AvailabilityValidator", |rec, ctx, errors| {
                let inv_id = rec.get("inventory_id");
                let qty = rec.get("quantity").as_int().unwrap_or(0);
                match ctx.fetch_where("Inventory", &[("id".into(), inv_id)]) {
                    Ok(rows) if !rows.is_empty() => {
                        let on_hand = rows[0].get("on_hand").as_int().unwrap_or(0);
                        if on_hand < qty {
                            errors.add("quantity", "exceeds available inventory");
                        }
                    }
                    _ => errors.add("inventory_id", "does not exist"),
                }
            })
            .finish(),
    )
    .unwrap();
    let mut s = app.session();
    let inv = s
        .create_strict("Inventory", &[("on_hand", Datum::Int(5))])
        .unwrap();
    let ok = s
        .create(
            "OrderLine",
            &[
                ("inventory_id", Datum::Int(inv.id().unwrap())),
                ("quantity", Datum::Int(3)),
            ],
        )
        .unwrap();
    assert!(ok.is_persisted());
    let too_many = s
        .create(
            "OrderLine",
            &[
                ("inventory_id", Datum::Int(inv.id().unwrap())),
                ("quantity", Datum::Int(9)),
            ],
        )
        .unwrap();
    assert!(!too_many.is_persisted());
    assert_eq!(
        too_many.errors.on("quantity"),
        vec!["exceeds available inventory"]
    );
}

#[test]
fn validates_associated_checks_children_validity() {
    let app = App::in_memory();
    app.define(
        ModelDef::build("Invoice")
            .string("number")
            .has_many("line_items")
            .validates_associated("line_items")
            .finish(),
    )
    .unwrap();
    app.define(
        ModelDef::build("LineItem")
            .integer("amount")
            .belongs_to("invoice")
            .validates_numericality_of("amount", Numericality::number().greater_than(0.0))
            .finish(),
    )
    .unwrap();
    let mut s = app.session();
    let mut inv = s
        .create_strict("Invoice", &[("number", Datum::text("i-1"))])
        .unwrap();
    // insert an invalid child directly (bypassing its validations, as a
    // bulk import might)
    let item_model = app.model("LineItem").unwrap();
    let mut bad_item = feral_orm::Record::new(item_model);
    bad_item
        .set("amount", 0i64)
        .set("invoice_id", inv.id().unwrap());
    {
        // bare write through a raw engine transaction
        let mut tx = app.db().txn().begin();
        tx.insert("line_items", bad_item.to_tuple()).unwrap();
        tx.commit().unwrap();
    }
    // now re-saving the invoice fails validates_associated
    assert!(!s.save(&mut inv).unwrap());
    assert_eq!(inv.errors.on("line_items"), vec!["is invalid"]);
}
