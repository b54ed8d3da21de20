//! Schema tests for the `feral-sim` JSON exploration report: the
//! counters the DPOR work added (`schedules_explored`,
//! `schedules_pruned`, `pruned_exact`, `sleep_set_blocked`,
//! `redundant_runs`) must be present for every strategy, parse as the
//! right types, and satisfy the reduction's arithmetic.

use feral_db::IsolationLevel;
use feral_sim::report::ExplorationReport;
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec, SessionLevels};
use feral_sim::{explore_dpor, explore_systematic};
use feral_trace::json::Json;

fn spec(isolation: IsolationLevel) -> ScenarioSpec {
    ScenarioSpec {
        kind: ScenarioKind::Uniqueness,
        levels: SessionLevels::Uniform(isolation),
        guard: Guard::Feral,
        workers: 2,
    }
}

fn parse(report: &ExplorationReport) -> Json {
    feral_trace::json::parse(&report.to_json()).expect("report must be valid JSON")
}

#[test]
fn dpor_report_carries_the_search_counters() {
    let cfg = spec(IsolationLevel::Serializable);
    let config = cfg.dpor_config(200_000);
    let outcome = explore_dpor(|| cfg.build(), &config);
    let report = ExplorationReport::from_dpor(&cfg, config.strategy(), &outcome);
    let doc = parse(&report);

    assert_eq!(doc.get("tool").unwrap().as_str(), Some("feral-sim"));
    assert_eq!(
        doc.get("scenario").unwrap().as_str(),
        Some("uniqueness/Serializable/feral")
    );
    assert_eq!(doc.get("strategy").unwrap().as_str(), Some("dpor"));
    assert_eq!(*doc.get("complete").unwrap(), Json::Bool(true));
    assert_eq!(*doc.get("violation").unwrap(), Json::Null);

    let runs = doc.get("runs").unwrap().as_u64().unwrap();
    let explored = doc.get("schedules_explored").unwrap().as_u64().unwrap();
    let pruned = doc.get("schedules_pruned").unwrap().as_u64().unwrap();
    let redundant = doc.get("redundant_runs").unwrap().as_u64().unwrap();
    assert!(doc.get("sleep_set_blocked").unwrap().as_u64().is_some());
    assert_eq!(*doc.get("pruned_exact").unwrap(), Json::Bool(true));
    assert_eq!(explored, runs, "every executed run is an explored schedule");
    assert!(pruned > 0, "the reduction must prune on this cell");
    assert!(redundant < runs);

    // the safe serializable cell is exactly accounted: the distinct
    // classes plus their pruned members tile the full DFS space
    let dfs = explore_systematic(|| cfg.build(), 200_000);
    assert!(dfs.complete);
    assert_eq!(explored - redundant + pruned, dfs.runs as u64);
}

#[test]
fn violation_report_names_strategy_and_replays() {
    let cfg = spec(IsolationLevel::ReadCommitted);
    let config = cfg.dpor_config(200_000).directed(cfg.direction_hint());
    let outcome = explore_dpor(|| cfg.build(), &config);
    let report = ExplorationReport::from_dpor(&cfg, config.strategy(), &outcome);
    let doc = parse(&report);

    assert_eq!(doc.get("strategy").unwrap().as_str(), Some("directed-dpor"));
    assert_eq!(*doc.get("complete").unwrap(), Json::Bool(false));
    let v = doc.get("violation").unwrap();
    assert!(v
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("duplicate uniqueness keys"));
    assert_eq!(*v.get("seed").unwrap(), Json::Null);
    assert!(!v.get("choices").unwrap().as_arr().unwrap().is_empty());
    assert!(v
        .get("replay")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("feral-sim replay --scenario uniqueness"));
}

#[test]
fn dfs_report_uses_trivial_counters() {
    let cfg = spec(IsolationLevel::Serializable);
    let outcome = explore_systematic(|| cfg.build(), 200_000);
    let report = ExplorationReport::from_systematic(&cfg, &outcome);
    let doc = parse(&report);

    assert_eq!(doc.get("strategy").unwrap().as_str(), Some("dfs"));
    let runs = doc.get("runs").unwrap().as_u64().unwrap();
    assert_eq!(
        doc.get("schedules_explored").unwrap().as_u64().unwrap(),
        runs
    );
    assert_eq!(doc.get("schedules_pruned").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("redundant_runs").unwrap().as_u64(), Some(0));
}
