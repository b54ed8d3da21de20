//! The table1 run report's gate: predicates over the typed
//! [`RunReport`] that [`RunReport::from_json`] builds. The reader
//! applies them after it has read a well-formed report, so `table1`
//! (on its own output) and `feral-paper check` (on a saved file) gate
//! the same way.

use crate::report::RunReport;
use feral_db::StatsSnapshot;

impl RunReport {
    /// Provenance records that carry a replayable witness.
    pub fn witnessed(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|c| &c.provenance)
            .filter(|p| p.witness.is_some())
            .count()
    }

    /// Every cell exports exactly the engine's counters and committed
    /// work, and at least one provenance record carries a witness.
    pub(crate) fn gate(&self) -> Result<(), String> {
        let counters = StatsSnapshot::default().fields();
        for cell in &self.cells {
            let label = &cell.label;
            for (name, _) in &counters {
                if !cell.stats.iter().any(|(n, _)| n == name) {
                    return Err(format!("cell '{label}': missing counter '{name}'"));
                }
            }
            if let Some((extra, _)) = cell
                .stats
                .iter()
                .find(|(n, _)| !counters.iter().any(|(c, _)| c == n))
            {
                return Err(format!("cell '{label}': unknown counter '{extra}'"));
            }
            if cell.stats.iter().any(|(n, v)| n == "commits" && *v == 0) {
                return Err(format!("cell '{label}': zero commits"));
            }
        }
        if self.witnessed() == 0 {
            return Err("no provenance record carries a replayable witness".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::report::tests::sample_report;
    use crate::report::RunReport;

    fn refusal(text: &str) -> String {
        RunReport::from_json(text).expect_err("the gate passed it")
    }

    #[test]
    fn well_formed_witnessed_report_passes() {
        let report = RunReport::from_json(&sample_report().to_json()).expect("gate passes");
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.witnessed(), 1);
    }

    #[test]
    fn invalid_json_is_a_gate_failure() {
        refusal("{not json");
        refusal("");
        // valid JSON, wrong schema
        let err = refusal("{\"tool\":\"other\"}");
        assert!(err.contains("missing key"), "{err}");
    }

    #[test]
    fn zero_commit_cell_fails_the_gate() {
        let mut report = sample_report();
        report.cells[0].stats[0].1 = 0;
        let err = refusal(&report.to_json());
        assert!(err.contains("zero commits"), "{err}");

        // a cell with no commits counter at all is equally fatal
        let mut report = sample_report();
        report.cells[0].stats.retain(|(n, _)| n != "commits");
        let err = refusal(&report.to_json());
        assert!(err.contains("missing counter 'commits'"), "{err}");
    }

    #[test]
    fn report_without_any_witness_fails_the_gate() {
        let mut report = sample_report();
        report.cells[0].provenance[0].witness = None;
        let err = refusal(&report.to_json());
        assert!(
            err.contains("no provenance record carries a replayable witness"),
            "{err}"
        );
    }
}
