//! The served plan is data: `planner::CERTIFIED_LEVELS` is what the
//! isolation analysis assigns the five templates, written down so that a
//! server builds its plan without running the analysis. This test runs it
//! instead — the fixed-point inference for each template's pair slot, and
//! the I-confluence check behind the comment template's fast path — and
//! fails naming every template whose served level differs.

use feral_db::IsolationLevel;
use feral_iconfluence::{coordination_free, OperationMix};
use feral_net::planner::{
    CERTIFIED_LEVELS, TEMPLATES, T_COMMENT, T_DEPOSIT, T_DISBAND, T_HIRE, T_SIGNUP,
};
use feral_plan::infer_pair_levels;
use feral_sdg::matrix::PairKind;

/// Which sdg template pair, and which slot of it, each template instantiates.
const DERIVATIONS: [(&str, PairKind, usize); 5] = [
    (T_SIGNUP, PairKind::Uniqueness, 0),
    (T_HIRE, PairKind::Orphans, 0),
    (T_DISBAND, PairKind::Orphans, 1),
    (T_DEPOSIT, PairKind::LockRmw, 0),
    // the insert-only control pair: a presence check under a mix that
    // never destroys a post
    (T_COMMENT, PairKind::SiblingInserts, 0),
];

fn derived_level(template: &str) -> IsolationLevel {
    let (_, pair, slot) = DERIVATIONS
        .iter()
        .find(|(t, _, _)| *t == template)
        .unwrap_or_else(|| panic!("{template} has no derivation"));
    infer_pair_levels(*pair).0[*slot]
}

#[test]
fn inference_reproduces_every_served_level() {
    let served: Vec<&str> = CERTIFIED_LEVELS.iter().map(|(t, _)| *t).collect();
    assert_eq!(served, TEMPLATES, "the table serves the five templates");
    let differing: Vec<String> = CERTIFIED_LEVELS
        .iter()
        .filter_map(|&(template, level)| {
            let derived = derived_level(template);
            (derived != level)
                .then(|| format!("{template}: served {level:?}, inference assigns {derived:?}"))
        })
        .collect();
    assert!(differing.is_empty(), "{}", differing.join("\n"));
}

#[test]
fn the_comment_template_is_coordination_free() {
    assert!(
        coordination_free("validates_presence_of", OperationMix::InsertionsOnly),
        "{T_COMMENT}: presence under an insert-only mix is no longer I-confluent"
    );
}
