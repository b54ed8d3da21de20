//! Runs the §7 ablation end to end at a small size: the database and
//! domesticated rows admit no duplicate, the routing coordinates one of
//! the three declared invariants, and that one is uniqueness, sent to
//! the database.

use std::process::Command;

#[test]
fn the_ablation_routes_only_uniqueness_to_the_database() {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-paper"))
        .args(["ablation", "--smoke"])
        .output()
        .expect("run feral-paper ablation");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let row = |strategy: &str| -> Vec<&str> {
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(strategy))
            .unwrap_or_else(|| panic!("no `{strategy}` row in:\n{stdout}"));
        line.split_whitespace().collect()
    };
    // the feral-only row's duplicates are the anomaly being measured
    row("feral-only");
    for strategy in ["always-database", "domesticated"] {
        assert_eq!(row(strategy)[1], "0", "{strategy} admits no duplicate");
    }
    assert_eq!(
        row("domesticated")[3..].join(" "),
        "1 of 3 invariants coordinated"
    );

    let plans: Vec<&str> = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("plan:"))
        .collect();
    assert_eq!(plans.len(), 3, "one routing line per invariant: {plans:?}");
    let to_database: Vec<&&str> = plans.iter().filter(|l| l.contains("-> database")).collect();
    assert_eq!(to_database.len(), 1, "{plans:?}");
    assert!(
        to_database[0].contains("validates_uniqueness_of"),
        "{plans:?}"
    );
}
