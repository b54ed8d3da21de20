//! Run-report schema tests: the golden report checked into `results/`
//! must validate against the current schema, and a freshly generated
//! report must match the golden one structurally (same cells, same
//! counters, same histogram keys — values differ run to run).

use feral_db::StatsSnapshot;
use feral_trace::json::Json;
use feral_trace::report::validate_report;

const GOLDEN: &str = include_str!("../../../results/BENCH_table1.golden.json");

#[test]
fn golden_report_validates_against_the_schema() {
    let doc = validate_report(GOLDEN).expect("golden report must validate");
    assert_eq!(doc.get("report").unwrap().as_str(), Some("table1"));
    let cells = doc.get("cells").unwrap().as_arr().unwrap();
    assert_eq!(cells.len(), 5, "one cell per grid entry");

    // the golden run carries the acceptance evidence: every cell
    // committed work and at least one weak cell explains a race with a
    // replayable witness
    let counters: Vec<&str> = StatsSnapshot::default()
        .fields()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let mut explained = 0;
    for cell in cells {
        let stats = cell.get("stats").unwrap();
        assert!(stats.get("commits").unwrap().as_u64().unwrap() > 0);
        // the golden carries every counter the writer exports, no more
        let Json::Obj(exported) = stats else {
            panic!("stats is not an object");
        };
        let names: Vec<&str> = exported.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names, counters,
            "regenerate the golden with `feral-paper table1 --smoke`"
        );
        let Json::Obj(hists) = cell.get("histograms").unwrap() else {
            panic!("histograms is not an object");
        };
        let keys: Vec<&str> = hists.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["request", "save", "validate", "write", "commit"]);
        for p in cell.get("provenance").unwrap().as_arr().unwrap() {
            explained += 1;
            let witness = p.get("witness").unwrap();
            assert_ne!(*witness, Json::Null, "golden provenance carries a witness");
            assert!(witness
                .get("replay")
                .unwrap()
                .as_str()
                .unwrap()
                .starts_with("feral-sim replay --scenario uniqueness"));
        }
    }
    assert!(explained >= 1, "golden report explains at least one race");
}

#[test]
fn serializable_and_database_cells_are_clean_in_the_golden_run() {
    let doc = validate_report(GOLDEN).unwrap();
    for cell in doc.get("cells").unwrap().as_arr().unwrap() {
        let label = cell.get("label").unwrap().as_str().unwrap();
        let duplicates = cell.get("duplicates").unwrap().as_u64().unwrap();
        if label == "serializable/feral" || label == "read-committed/database" {
            assert_eq!(duplicates, 0, "cell {label} must admit no duplicates");
        }
    }
}

#[test]
fn corrupting_the_golden_report_fails_validation() {
    // drop the version field: schema must notice
    let broken = GOLDEN.replace("\"version\": 1,", "");
    assert!(validate_report(&broken).is_err());
    // corrupt a histogram count: integrity check must notice
    let broken = GOLDEN.replacen("\"count\": ", "\"count\": 9", 1);
    assert!(validate_report(&broken).is_err());
}
