//! The tentpole cross-validation: the static verdict matrix against
//! (a) exhaustive feral-sim schedule exploration, (b) witness replay,
//! (c) the invariant-confluence derivations, and (d) the checked-in
//! golden artifact.

use feral_db::IsolationLevel;
use feral_sdg::matrix::{
    build_matrix, iconfluence_agreement, validate_cell, Cell, CellEvidence, PairKind,
};
use feral_sdg::report::render_json;
use feral_sim::{run_with_choices, run_with_seed};

const SEEDS: u64 = 500;
const MAX_RUNS: usize = 200_000;

#[test]
fn matrix_shape_covers_four_pairs_at_four_levels() {
    let matrix = build_matrix();
    assert_eq!(matrix.len(), 16);
    for pair in PairKind::all() {
        assert_eq!(matrix.iter().filter(|c| c.pair == pair).count(), 4);
    }
}

#[test]
fn static_verdicts_match_exhaustive_schedule_exploration() {
    // every cell: UNSAFE must yield a witness schedule, SAFE must sweep
    // exhaustively with a silent oracle — the whole point of the crate
    for cell in build_matrix() {
        validate_cell(&cell, SEEDS, MAX_RUNS).unwrap_or_else(|msg| {
            panic!("static/dynamic disagreement: {msg}");
        });
    }
}

#[test]
fn every_unsafe_witness_replays_twice() {
    // determinism is the contract: the witness must fire on every
    // replay, not just the first
    for cell in build_matrix().into_iter().filter(|c| c.verdict.is_unsafe()) {
        let CellEvidence::Witness(w) = validate_cell(&cell, SEEDS, MAX_RUNS).unwrap() else {
            panic!("unsafe cell must yield a witness");
        };
        for attempt in 0..2 {
            let (_, verdict) = match w.seed {
                Some(seed) => run_with_seed(cell.scenario.build(), seed),
                None => run_with_choices(cell.scenario.build(), &w.choices),
            };
            assert!(
                verdict.is_err(),
                "{}/{} witness went silent on replay {attempt}: {}",
                cell.pair.name(),
                cell.isolation,
                w.replay_command()
            );
        }
    }
}

#[test]
fn matrix_agrees_with_iconfluence_for_every_pair() {
    let matrix = build_matrix();
    for pair in PairKind::all() {
        let row: Vec<Cell> = matrix.iter().filter(|c| c.pair == pair).cloned().collect();
        iconfluence_agreement(&row).unwrap_or_else(|msg| panic!("iconfluence disagreement: {msg}"));
    }
}

#[test]
fn serializable_column_is_entirely_safe() {
    // the coordination ceiling: with full coordination no feral check
    // is violable, matching the paper's framing of serializability as
    // the sufficient (if expensive) fix
    for cell in build_matrix() {
        if cell.isolation == IsolationLevel::Serializable {
            assert!(
                !cell.verdict.is_unsafe(),
                "{} unsafe at serializable",
                cell.pair.name()
            );
        }
    }
}

#[test]
fn golden_artifact_matches_the_checked_in_matrix() {
    // the golden is the --validate artifact: every cell carries its
    // witness or sweep receipt, so render with the same evidence the
    // binary attaches (defaults match SEEDS / MAX_RUNS)
    let matrix = build_matrix();
    let evidence: Vec<CellEvidence> = matrix
        .iter()
        .map(|cell| {
            validate_cell(cell, SEEDS, MAX_RUNS)
                .unwrap_or_else(|msg| panic!("cell failed validation: {msg}"))
        })
        .collect();
    let rendered = render_json(&matrix, Some(&evidence));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_sdg.golden.json"
    );
    let golden = std::fs::read_to_string(path).expect("results/BENCH_sdg.golden.json present");
    assert_eq!(
        rendered, golden,
        "verdict matrix drifted from results/BENCH_sdg.golden.json — regenerate with \
         `feral-sdg matrix --validate --json --out results/BENCH_sdg.golden.json` \
         and review the diff"
    );
}
