//! SARIF 2.1.0 shape test: parse the rendered log (with the trace
//! crate's JSON parser — no serde round-trip available offline) and
//! pin the contract downstream SARIF consumers rely on: a non-empty
//! driver `informationUri`, the full FERAL001–FERAL009 rule catalog
//! with repo-relative `helpUri`s, and every result pointing at a
//! declared rule.

use feral_lint::report::render_sarif;
use feral_lint::rules::RULES;
use feral_lint::{lint_corpus, LintOptions};
use feral_trace::json::{parse, Json};

fn rendered() -> Json {
    let run = lint_corpus(
        42,
        // shape only; witness content is golden.rs's job
        &LintOptions { witnesses: false },
    );
    parse(&render_sarif(&run)).expect("feral-lint must emit parseable SARIF")
}

#[test]
fn sarif_driver_and_rule_catalog_are_fully_described() {
    let sarif = rendered();
    assert_eq!(
        sarif.get("version").and_then(Json::as_str),
        Some("2.1.0"),
        "SARIF version pinned"
    );
    let runs = sarif
        .get("runs")
        .and_then(Json::as_arr)
        .expect("runs array");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name").and_then(Json::as_str),
        Some("feral-lint")
    );

    let info = driver
        .get("informationUri")
        .and_then(Json::as_str)
        .expect("informationUri present");
    assert!(
        info.starts_with("DESIGN.md#"),
        "informationUri must point into the design doc, got `{info}`"
    );

    let rules = driver.get("rules").and_then(Json::as_arr).expect("rules");
    let ids: Vec<&str> = rules
        .iter()
        .map(|r| r.get("id").and_then(Json::as_str).expect("rule id"))
        .collect();
    let expected: Vec<String> = (1..=9).map(|i| format!("FERAL{i:03}")).collect();
    assert_eq!(ids, expected, "rules array must match the catalog in order");
    assert_eq!(RULES.len(), 9, "catalog and SARIF must agree on size");

    for rule in rules {
        let id = rule.get("id").and_then(Json::as_str).unwrap();
        let help = rule
            .get("helpUri")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{id}: helpUri present"));
        assert!(
            help.starts_with("DESIGN.md#"),
            "{id}: helpUri must be a repo-relative design anchor, got `{help}`"
        );
        let short = rule
            .get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{id}: shortDescription.text present"));
        assert!(!short.is_empty());
    }
}

#[test]
fn every_sarif_result_points_at_a_declared_rule() {
    let sarif = rendered();
    let run = &sarif.get("runs").and_then(Json::as_arr).unwrap()[0];
    let declared: Vec<&str> = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| r.get("id").and_then(Json::as_str).unwrap())
        .collect();
    let results = run.get("results").and_then(Json::as_arr).expect("results");
    assert!(
        !results.is_empty(),
        "the seeded corpus must produce findings"
    );
    let mut seen_advice = false;
    for result in results {
        let rule_id = result
            .get("ruleId")
            .and_then(Json::as_str)
            .expect("result.ruleId");
        assert!(
            declared.contains(&rule_id),
            "result cites undeclared rule `{rule_id}`"
        );
        seen_advice |= matches!(rule_id, "FERAL006" | "FERAL007" | "FERAL008");
        let level = result.get("level").and_then(Json::as_str).expect("level");
        assert!(matches!(level, "warning" | "error"), "bad level `{level}`");
        let uri = result
            .get("locations")
            .and_then(Json::as_arr)
            .and_then(|l| l.first())
            .and_then(|l| l.get("physicalLocation"))
            .and_then(|l| l.get("artifactLocation"))
            .and_then(|l| l.get("uri"))
            .and_then(Json::as_str)
            .expect("physical location uri");
        assert!(!uri.is_empty());
    }
    assert!(
        seen_advice,
        "corpus results must include at least one FERAL006-008 advice finding"
    );
}
