//! Plan-level guarantees:
//!
//! 1. (property) the inferred assignment is never weaker than any sdg
//!    UNSAFE uniform verdict for the same pair, is itself statically
//!    safe, and dominates its entire lower cone — every configuration
//!    pointwise at-or-below it (other than itself) is UNSAFE;
//! 2. (differential) every planned cell certifies: a complete silent
//!    DPOR sweep at the assigned levels, and for escalated cells a
//!    replaying witness at the next-weaker configuration;
//! 3. (agreement) FERAL009 and the planner mark exactly the same
//!    templates read-committed-safe, app by app, in the same order.

use feral_db::IsolationLevel;
use feral_lint::{lint_corpus, LintOptions};
use feral_plan::{build_plan, certify_cell, infer_pair_levels, rank};
use feral_sdg::{decide, decide_mixed, PairKind, LEVELS};
use feral_trace::json::parse;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inferred_assignment_is_safe_and_never_below_an_unsafe_uniform_verdict(
        pair_i in 0usize..4,
        level_i in 0usize..4,
    ) {
        let pair = PairKind::all()[pair_i];
        let level = LEVELS[level_i];
        let (levels, _) = infer_pair_levels(pair);
        prop_assert!(
            !decide_mixed(pair, levels).1.is_unsafe(),
            "{}: inferred {levels:?} must be safe",
            pair.name()
        );
        if decide(pair, level).verdict.is_unsafe() {
            prop_assert!(
                !(rank(levels[0]) <= rank(level) && rank(levels[1]) <= rank(level)),
                "{}: uniform {level} is UNSAFE but the plan assigns {levels:?}",
                pair.name()
            );
        }
    }

    #[test]
    fn inferred_assignment_dominates_its_lower_cone(
        pair_i in 0usize..4,
        a in 0usize..4,
        b in 0usize..4,
    ) {
        let pair = PairKind::all()[pair_i];
        let (levels, _) = infer_pair_levels(pair);
        let cand = [LEVELS[a], LEVELS[b]];
        let below = rank(cand[0]) <= rank(levels[0])
            && rank(cand[1]) <= rank(levels[1])
            && cand != levels;
        if below {
            prop_assert!(
                decide_mixed(pair, cand).1.is_unsafe(),
                "{}: {cand:?} is pointwise below the inferred {levels:?} yet safe — \
                 the plan over-coordinates",
                pair.name()
            );
        }
    }
}

/// Every planned cell must certify deterministically: the sweep at the
/// assigned levels is complete and silent, escalated cells carry a
/// witness and unescalated cells do not, and the whole artifact stays
/// parseable JSON.
#[test]
fn every_planned_cell_certifies_and_sweeps_clean() {
    let plan = build_plan(42);
    assert!(!plan.cells.is_empty());
    let mut certs = Vec::new();
    for cell in &plan.cells {
        let cert = certify_cell(cell, 500, 200_000)
            .unwrap_or_else(|msg| panic!("cell failed certification: {msg}"));
        assert!(cert.sweep.runs > 0, "{}: empty sweep", cell.key());
        assert_eq!(
            cert.witness.is_some(),
            cell.escalated(),
            "{}: witness iff escalated",
            cell.key()
        );
        if let Some(w) = &cert.witness {
            assert!(
                w.replay_command()
                    .starts_with("feral-sim replay --scenario "),
                "{}: replay command: {}",
                cell.key(),
                w.replay_command()
            );
            assert!(
                w.replay_command().contains("--levels "),
                "{}",
                w.replay_command()
            );
        }
        certs.push(cert);
    }
    let artifact = feral_plan::render_json(&plan, Some(&certs));
    let doc = parse(&artifact).expect("certified plan must be parseable JSON");
    assert_eq!(
        doc.get("cells")
            .and_then(feral_trace::json::Json::as_arr)
            .map(|c| c.len()),
        Some(plan.cells.len())
    );
}

/// FERAL009 is extraction-identical with the planner: in every corpus
/// app that opens transactions, the lint's advice findings and the
/// plan's read-committed assignments name the same templates in the
/// same order; transactionless apps get no advice.
#[test]
fn feral009_and_the_planner_agree_template_for_template() {
    let plan = build_plan(42);
    let run = lint_corpus(
        42,
        &LintOptions {
            witnesses: false,
            witness_seeds: 0,
        },
    );
    assert_eq!(plan.apps.len(), run.apps.len());
    let mut advised = 0usize;
    for (app_plan, report) in plan.apps.iter().zip(&run.apps) {
        assert_eq!(app_plan.app, report.app);
        let advice: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "FERAL009")
            .collect();
        if app_plan.transactions == 0 {
            assert!(
                advice.is_empty(),
                "{}: advice without transactions",
                report.app
            );
            continue;
        }
        let rc: Vec<_> = app_plan
            .assignments
            .iter()
            .filter(|a| a.level == IsolationLevel::ReadCommitted)
            .collect();
        assert_eq!(
            advice.len(),
            rc.len(),
            "{}: FERAL009 and plan disagree on the RC-safe census",
            report.app
        );
        for (finding, assignment) in advice.iter().zip(&rc) {
            assert!(
                finding.message.contains(&assignment.template.key()),
                "{}: finding `{}` vs assignment `{}`",
                report.app,
                finding.message,
                assignment.template.key()
            );
        }
        advised += advice.len();
    }
    assert!(advised > 0, "corpus must produce planner advice");
}
