//! Clean-tree regression: the analyzer must stay silent on the live
//! workspace, and the facts it extracts must include the load-bearing
//! shapes of the commit pipeline and the trace ring — if extraction
//! quietly regresses to seeing nothing, "no findings" means nothing.

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
fn extraction_sees_the_commit_pipeline_discipline() {
    let a = analysis();
    let classes = a.class_counts();
    for class in [
        "feraldb::CommitPipeline::shards",
        "feraldb::CommitPipeline::group",
        "feraldb::CommitPipeline::publish_lock",
        "feraldb::DbInner::catalog",
    ] {
        assert!(classes.contains_key(class), "missing lock class {class}");
    }
    // The commit path holds shard latches across the group buffer: the
    // interprocedural edge the declared order is about.
    let edge = a.graph.edges.get(&(
        "feraldb::CommitPipeline::shards".to_string(),
        "feraldb::CommitPipeline::group".to_string(),
    ));
    assert!(
        edge.is_some_and(|m| m.blocking),
        "shards -> group blocking edge missing: extraction regressed"
    );
    // ...but not across the flush or the publish wait: a committer
    // drops its latches before `wait_durable` and `publish`, which is
    // what lets one fsync cover every committer on a table.
    for slow in [
        "feraldb::DbInner::wal",
        "feraldb::CommitPipeline::publish_lock",
    ] {
        let edge = (
            "feraldb::CommitPipeline::shards".to_string(),
            slow.to_string(),
        );
        assert!(
            !a.graph.edges.contains_key(&edge),
            "{slow} is acquired under a commit shard latch"
        );
    }
    // ...and the declared discipline is actually loaded from the tree.
    assert!(
        !a.decls.orders.is_empty(),
        "racer:order declarations not parsed"
    );
    assert!(
        a.decls.terminals.contains("feraldb::CommitPipeline::group"),
        "group terminal declaration not parsed"
    );
}

/// Commit tails are completed — locks released, the auditor fed, the
/// caller's callback run — by the flush leader and by whoever advances
/// the clock, with neither the group buffer nor the publish lock held:
/// both stay terminal. The absence only means something if extraction
/// sees that `complete` takes locks and that the flush loop and `publish`
/// reach it. A tail takes no shard latch any more: history is pruned by
/// the committer, under the latch it already holds.
#[test]
fn commit_tails_are_completed_under_no_pipeline_lock() {
    let a = analysis();
    let complete = &a.graph.reaches["CommitTail::complete"];
    for taken in ["feraldb::LockStripe::table", "feraldb::ActiveStripe::txns"] {
        assert!(complete.contains(taken), "complete no longer takes {taken}");
    }
    assert!(
        !complete.contains("feraldb::CommitPipeline::shards"),
        "a commit tail re-latches a shard its commit already released"
    );
    for caller in ["CommitPipeline::lead", "CommitPipeline::publish"] {
        assert!(
            a.graph.reaches[caller].contains("feraldb::LockStripe::table"),
            "{caller} no longer reaches CommitTail::complete"
        );
    }
    for terminal in [
        "feraldb::CommitPipeline::group",
        "feraldb::CommitPipeline::publish_lock",
        "feraldb::LockStripe::table",
    ] {
        assert!(a.decls.terminals.contains(terminal));
        let under: Vec<_> = a
            .graph
            .edges
            .keys()
            .filter(|(from, _)| from == terminal)
            .collect();
        assert!(under.is_empty(), "acquired under {terminal}: {under:?}");
    }
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
