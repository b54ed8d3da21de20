//! The trace-instrumented Table 1 grid, end to end — in a test binary of
//! its own. `run_trace_cells` turns the process-global trace flag on and
//! reads the process-global flight recorder and phase windows, so it
//! cannot share a process with tests that run the engine meanwhile: as a
//! `feral-bench` lib test it picked up their events and failed about one
//! parallel run in eight.

use feral_bench::trace_report::{run_trace_cells, CellShape, CELL_GRID};
use feral_trace as trace;

#[test]
fn smoke_grid_produces_a_valid_report_with_provenance() {
    let report = run_trace_cells(CellShape::smoke(), 2015, true);
    assert!(!trace::enabled(), "tracing restored to off");
    assert_eq!(report.cells.len(), CELL_GRID.len());
    let text = report.to_json();
    trace::report::validate_report(&text).expect("generated report validates");

    // every cell commits work and reports every engine counter
    for cell in &report.cells {
        let commits = cell
            .stats
            .iter()
            .find(|(n, _)| n == "commits")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(commits > 0, "cell {} committed nothing", cell.label);
        assert_eq!(cell.stats.len(), 21, "all engine counters exported");
    }

    // feral cells probe; the serializable/database cells stay clean
    let by_label = |l: &str| report.cells.iter().find(|c| c.label == l).unwrap();
    let rc_feral = by_label("read-committed/feral");
    assert!(rc_feral
        .stats
        .iter()
        .any(|(n, v)| n == "validation_probes" && *v > 0));
    assert_eq!(by_label("serializable/feral").duplicates, 0);
    assert_eq!(by_label("read-committed/database").duplicates, 0);

    // at least one weak-isolation cell explains a race with a witness
    let explained: Vec<_> = report.cells.iter().flat_map(|c| &c.provenance).collect();
    assert!(!explained.is_empty(), "no provenance record produced");
    for rec in &explained {
        assert_eq!(rec.anomaly, "duplicate-key");
        assert!(rec.racing.len() >= 2);
        let w = rec.witness.as_ref().expect("witness attached");
        assert!(w
            .replay
            .starts_with("feral-sim replay --scenario uniqueness"));
        assert!(!rec.flight.is_empty(), "flight tail attached");
    }
}
