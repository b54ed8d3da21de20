//! Machine-checkable certificates for plan cells.
//!
//! A certificate has up to three parts, all deterministic:
//!
//! 1. **static re-check** — the cell's gate is re-derived from
//!    `decide_mixed`, and for every slot above read committed the
//!    one-notch demotion is re-proved UNSAFE (per-slot minimality);
//! 2. **safety sweep** — a *complete* partial-order-reduced feral-sim
//!    sweep of the cell's scenario at the assigned per-slot levels, with
//!    a silent anomaly oracle ([`ScenarioSpec::sweep`]);
//! 3. **escalation witness** — for cells above read committed, a
//!    concrete schedule at the next-weaker configuration
//!    ([`PlanCell::demoted`]) on which the anomaly oracle fires, found
//!    and re-played byte-identically by [`ScenarioSpec::find_witness`]
//!    before being admitted.

use crate::infer::{demote, guard_str, CellGate, Plan, PlanCell};
use feral_cli::isolation_flag;
use feral_sdg::{decide_mixed, Verdict};
use feral_sim::scenarios::{ScenarioSpec, SessionLevels};
use feral_sim::{SweepEvidence, Witness};

/// The validated certificate of one cell.
#[derive(Debug, Clone)]
pub struct CellCert {
    /// Complete silent sweep at the assigned levels.
    pub sweep: SweepEvidence,
    /// Anomaly witness at the next-weaker configuration, for escalated
    /// cells.
    pub witness: Option<Witness>,
}

/// Certify one cell. Every failure mode returns a message naming the
/// cell and what broke; the caller decides whether to abort or collect.
pub fn certify_cell(cell: &PlanCell, seeds: u64, max_runs: usize) -> Result<CellCert, String> {
    let label = cell.key();

    // part 1: static re-check
    match cell.gate {
        CellGate::Static(reason) => {
            match decide_mixed(cell.pair, cell.levels).1 {
                Verdict::Safe { reason: got } if got == reason => {}
                Verdict::Safe { reason: got } => {
                    return Err(format!(
                        "{label}: gate drifted — plan says {}, decide_mixed says {}",
                        reason.name(),
                        got.name()
                    ));
                }
                Verdict::Unsafe { .. } => {
                    return Err(format!("{label}: assigned levels are statically UNSAFE"));
                }
            }
            for slot in 0..2 {
                let Some(weaker) = demote(cell.levels[slot]) else {
                    continue;
                };
                let mut cand = cell.levels;
                cand[slot] = weaker;
                if !decide_mixed(cell.pair, cand).1.is_unsafe() {
                    return Err(format!(
                        "{label}: not minimal — slot {slot} is also safe at {weaker}"
                    ));
                }
            }
        }
        CellGate::DatabaseGuard => {
            if cell.escalated() {
                return Err(format!(
                    "{label}: database-guarded cells must run at read committed"
                ));
            }
        }
    }

    // part 2: complete silent sweep at the assigned levels
    let spec = cell.scenario();
    let sweep = spec
        .sweep(max_runs)
        .map_err(|e| format!("{label}: predicted SAFE but {e}"))?;

    // part 3: escalation witness at the next-weaker configuration
    let witness = match cell.demoted() {
        None => None,
        Some(demoted) => {
            if !decide_mixed(cell.pair, demoted).1.is_unsafe() {
                return Err(format!(
                    "{label}: demoted configuration is statically safe — escalation unjustified"
                ));
            }
            let spec = ScenarioSpec {
                levels: SessionLevels::PerSlot(demoted),
                ..spec
            };
            Some(
                spec.find_witness(seeds, max_runs)
                    .map_err(|e| format!("{label}: at the demoted configuration, {e}"))?,
            )
        }
    };

    Ok(CellCert { sweep, witness })
}

/// Certify every cell of a plan, in cell order. Returns the
/// certificates, or every failure message.
pub fn certify_plan(
    plan: &Plan,
    seeds: u64,
    max_runs: usize,
) -> Result<Vec<CellCert>, Vec<String>> {
    let mut certs = Vec::with_capacity(plan.cells.len());
    let mut failures = Vec::new();
    for cell in &plan.cells {
        match certify_cell(cell, seeds, max_runs) {
            Ok(cert) => certs.push(cert),
            Err(msg) => failures.push(msg),
        }
    }
    if failures.is_empty() {
        Ok(certs)
    } else {
        Err(failures)
    }
}

/// Describe one cell for human-readable output:
/// `uniqueness/feral@serializable+serializable [read-set-validation-aborts]`.
pub fn describe_cell(cell: &PlanCell) -> String {
    let mut s = format!(
        "{}/{} @ {}+{} [{}]",
        cell.pair.name(),
        guard_str(cell.guard),
        isolation_flag(cell.levels[0]),
        isolation_flag(cell.levels[1]),
        cell.gate.name()
    );
    if let Some(d) = cell.demoted() {
        s.push_str(&format!(
            " (witness config {}+{})",
            isolation_flag(d[0]),
            isolation_flag(d[1])
        ));
    }
    s
}
