//! Clean-tree regression: the analyzer must stay silent on the live
//! workspace, and the facts it extracts must include the load-bearing
//! shape of the trace ring — if extraction quietly regresses to seeing
//! nothing, "no findings" means nothing.

use feral_racer::Analysis;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/racer has a workspace root two levels up")
        .to_path_buf()
}

fn analysis() -> &'static Analysis {
    static ONCE: OnceLock<Analysis> = OnceLock::new();
    ONCE.get_or_init(|| feral_racer::analyze_root(&repo_root()).expect("scan"))
}

#[test]
fn live_tree_has_no_findings() {
    let a = analysis();
    assert!(
        a.findings.is_empty(),
        "live tree must be clean: {:#?}",
        a.findings
    );
}

#[test]
fn extraction_sees_the_trace_ring_seqlock() {
    let a = analysis();
    assert!(
        a.decls.publications.contains("trace::Ring::head"),
        "publication declaration not parsed"
    );
    assert_eq!(a.decls.seqlocks.len(), 1, "seqlock declaration not parsed");
    // The ring writer's atomics must be visible for FERALRS005 to have
    // ever had a chance of checking it.
    let push = a
        .facts
        .iter()
        .find(|f| f.key == "Ring::push" && f.file.contains("trace"))
        .expect("Ring::push facts");
    let version_stores = push
        .atomics
        .iter()
        .filter(|at| at.class == "trace::Slot::version" && at.is_store())
        .count();
    assert_eq!(version_stores, 2, "seqlock version bumps not extracted");
}

#[test]
fn every_rule_fires_on_its_seeded_fault_fixture() {
    let fixtures = repo_root().join("crates").join("racer").join("fixtures");
    let results = feral_racer::validate(&fixtures).expect("fixtures readable");
    assert_eq!(results.len(), feral_racer::rules::RULES.len());
    for r in &results {
        assert!(
            r.fired,
            "{} did not fire on {} — findings were {:#?}",
            r.rule, r.fixture, r.findings
        );
    }
}
