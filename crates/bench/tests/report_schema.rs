//! Run-report schema tests: the golden report checked into `results/`
//! must read back through `RunReport::from_json` (the reader
//! `feral-paper check` runs) and write back byte for byte, and it must
//! carry the acceptance evidence a fresh run does.

use feral_bench::report::RunReport;
use feral_db::StatsSnapshot;

const GOLDEN: &str = include_str!("../../../results/BENCH_table1.golden.json");

#[test]
fn golden_report_validates_against_the_schema() {
    let report = RunReport::from_json(GOLDEN).expect("golden report must read back");
    assert_eq!(report.to_json(), GOLDEN, "the writer reproduces the golden");
    assert_eq!(report.report, "table1");
    assert_eq!(report.cells.len(), 5, "one cell per grid entry");

    // the golden run carries the acceptance evidence: every cell
    // committed work and at least one weak cell explains a race with a
    // replayable witness
    let counters: Vec<&str> = StatsSnapshot::default()
        .fields()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let mut explained = 0;
    for cell in &report.cells {
        // the golden carries every counter the writer exports, no more
        let names: Vec<&str> = cell.stats.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names, counters,
            "regenerate the golden with `feral-paper table1 --smoke`"
        );
        let keys: Vec<&str> = cell.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(keys, ["request", "save", "validate", "write", "commit"]);
        for p in &cell.provenance {
            explained += 1;
            let witness = p
                .witness
                .as_ref()
                .expect("golden provenance carries a witness");
            assert!(witness
                .replay
                .starts_with("feral-sim replay --scenario uniqueness"));
        }
    }
    assert!(explained >= 1, "golden report explains at least one race");
}

#[test]
fn serializable_and_database_cells_are_clean_in_the_golden_run() {
    let report = RunReport::from_json(GOLDEN).unwrap();
    for cell in &report.cells {
        if cell.label == "serializable/feral" || cell.label == "read-committed/database" {
            assert_eq!(
                cell.duplicates, 0,
                "cell {} must admit no duplicates",
                cell.label
            );
        }
    }
}

#[test]
fn corrupting_the_golden_report_fails_validation() {
    // drop the version field: the reader must notice
    let broken = GOLDEN.replace("\"version\": 1,", "");
    assert!(RunReport::from_json(&broken).is_err());
    // corrupt a histogram count: the integrity check must notice
    let broken = GOLDEN.replacen("\"count\": ", "\"count\": 9", 1);
    assert!(RunReport::from_json(&broken).is_err());
    // drop the first engine counter from one cell: the gate names it
    let broken = GOLDEN.replacen("\"commits\": ", "\"commitz\": ", 1);
    let err = RunReport::from_json(&broken).unwrap_err();
    assert!(err.contains("missing counter 'commits'"), "{err}");
}
