//! The verdict matrix: template pairs × isolation levels, with the
//! safety gates applied in engine order, plus dynamic (feral-sim) and
//! analytic (invariant-confluence) cross-validation.

use crate::cycles::{find_cycle, find_cycle_constrained};
use crate::graph::{build_graph, build_graph_mixed, DepGraph, Edge};
use crate::template::{
    assoc_check_insert, cascade_destroy, lock_version_rmw, uniqueness_probe_insert, TxnTemplate,
};
use feral_db::{ConflictKind, IsolationLevel};
use feral_iconfluence::{derive_safety, OperationMix, Safety};
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec, SessionLevels};
use feral_sim::{SweepEvidence, Witness};

/// The four canonical template pairs the matrix covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    /// Two uniqueness probe-then-insert transactions on the same key.
    Uniqueness,
    /// An association check-then-insert racing a cascading destroy.
    Orphans,
    /// Two unguarded `lock_version` read-modify-writes on one record.
    LockRmw,
    /// Two association check-then-inserts under the same parent — the
    /// insert-only control with no realizable cycle anywhere.
    SiblingInserts,
}

/// The isolation columns, weakest to strongest.
pub const LEVELS: [IsolationLevel; 4] = [
    IsolationLevel::ReadCommitted,
    IsolationLevel::RepeatableRead,
    IsolationLevel::Snapshot,
    IsolationLevel::Serializable,
];

impl PairKind {
    /// All pairs, matrix row order.
    pub fn all() -> [PairKind; 4] {
        [
            PairKind::Uniqueness,
            PairKind::Orphans,
            PairKind::LockRmw,
            PairKind::SiblingInserts,
        ]
    }

    /// Stable CLI/report spelling.
    pub fn name(self) -> &'static str {
        match self {
            PairKind::Uniqueness => "uniqueness",
            PairKind::Orphans => "orphans",
            PairKind::LockRmw => "lock-rmw",
            PairKind::SiblingInserts => "sibling-inserts",
        }
    }

    /// Parse the CLI spelling.
    pub fn parse(s: &str) -> Option<PairKind> {
        PairKind::all().into_iter().find(|p| p.name() == s)
    }

    /// The concurrent transaction templates of this pair.
    pub fn templates(self) -> Vec<TxnTemplate> {
        match self {
            PairKind::Uniqueness => vec![uniqueness_probe_insert(1), uniqueness_probe_insert(2)],
            PairKind::Orphans => vec![assoc_check_insert(1), cascade_destroy()],
            PairKind::LockRmw => vec![lock_version_rmw(1), lock_version_rmw(2)],
            PairKind::SiblingInserts => vec![assoc_check_insert(1), assoc_check_insert(2)],
        }
    }

    /// The runnable feral-sim scenario this pair predicts for — same
    /// templates, driven through the real ORM and engine.
    pub fn scenario(self, isolation: IsolationLevel) -> ScenarioSpec {
        let (kind, workers) = match self {
            PairKind::Uniqueness => (ScenarioKind::Uniqueness, 2),
            PairKind::Orphans => (ScenarioKind::Orphans, 1),
            PairKind::LockRmw => (ScenarioKind::LostUpdate, 2),
            PairKind::SiblingInserts => (ScenarioKind::SiblingInserts, 2),
        };
        ScenarioSpec {
            kind,
            levels: SessionLevels::Uniform(isolation),
            guard: Guard::Feral,
            workers,
        }
    }

    /// The invariant-confluence analog of this pair: the validator kind
    /// and operation mix whose Table 1 derivation the matrix row must
    /// agree with.
    pub fn iconfluence(self) -> (&'static str, OperationMix) {
        match self {
            PairKind::Uniqueness => ("validates_uniqueness_of", OperationMix::InsertionsOnly),
            PairKind::Orphans => ("validates_presence_of", OperationMix::WithDeletions),
            PairKind::LockRmw => ("optimistic_lock_version", OperationMix::InsertionsOnly),
            PairKind::SiblingInserts => ("validates_presence_of", OperationMix::InsertionsOnly),
        }
    }
}

/// Why a cell is safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeReason {
    /// The templates share no conflicting accesses at all.
    NoConflicts,
    /// Conflicts exist but admit no realizable cycle.
    Acyclic,
    /// A write/write overlap plus first-updater-wins aborts one side
    /// before any cycle can close.
    FirstUpdaterAborts,
    /// Commit-time read-set validation refuses the `rw` edges the cycle
    /// would need.
    ReadSetValidationAborts,
}

impl SafeReason {
    /// Stable report spelling.
    pub fn name(self) -> &'static str {
        match self {
            SafeReason::NoConflicts => "no-conflicts",
            SafeReason::Acyclic => "acyclic",
            SafeReason::FirstUpdaterAborts => "first-updater-aborts",
            SafeReason::ReadSetValidationAborts => "read-set-validation-aborts",
        }
    }
}

/// A cell's static verdict.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// A realizable critical cycle exists; the anomaly is reachable.
    Unsafe {
        /// The preferred realizable cycle.
        cycle: Vec<Edge>,
    },
    /// No realizable cycle; the invariant holds on every schedule.
    Safe {
        /// Which gate closed the cycle off.
        reason: SafeReason,
    },
}

impl Verdict {
    /// Whether this verdict predicts a reachable anomaly.
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe { .. })
    }
}

/// The invariant-confluence expectation attached to a matrix row.
#[derive(Debug, Clone, Copy)]
pub struct IconExpectation {
    /// Validator kind diffed against (`validates_uniqueness_of`).
    pub kind: &'static str,
    /// Operation mix of the derivation.
    pub mix: OperationMix,
    /// The checker-derived safety.
    pub safety: Safety,
}

/// One cell of the verdict matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Template pair (matrix row).
    pub pair: PairKind,
    /// Isolation level (matrix column).
    pub isolation: IsolationLevel,
    /// The dependency graph the verdict was decided on.
    pub graph: DepGraph,
    /// The static verdict.
    pub verdict: Verdict,
    /// The runnable scenario this cell predicts for.
    pub scenario: ScenarioSpec,
    /// The row's invariant-confluence expectation.
    pub iconfluence: IconExpectation,
}

/// Decide one cell: build the graph, then apply the engine's gates in
/// the order the engine applies them.
pub fn decide(pair: PairKind, isolation: IsolationLevel) -> Cell {
    let graph = build_graph(pair.templates(), isolation);
    let (kind, mix) = pair.iconfluence();
    let safety = derive_safety(kind, mix)
        .unwrap_or_else(|| panic!("{kind} must be checkable for the iconfluence diff"));

    let verdict = if !graph.ww_overlaps.is_empty()
        && !isolation.admits_concurrent(ConflictKind::WriteWrite)
    {
        // gate 1: first-updater-wins fires on the doubly-written row
        // before either transaction can commit the cycle
        Verdict::Safe {
            reason: SafeReason::FirstUpdaterAborts,
        }
    } else if let Some(cycle) = find_cycle(&graph) {
        // gate 2: a realizable critical cycle among admitted edges
        Verdict::Unsafe { cycle }
    } else if graph.rw_overlaps.is_empty() && graph.ww_overlaps.is_empty() {
        Verdict::Safe {
            reason: SafeReason::NoConflicts,
        }
    } else if isolation.validates_read_sets()
        && find_cycle(&build_graph(pair.templates(), IsolationLevel::Snapshot)).is_some()
    {
        // gate 3: the cycle exists in the counterfactual graph where rw
        // edges are admitted — read-set validation is what kills it
        Verdict::Safe {
            reason: SafeReason::ReadSetValidationAborts,
        }
    } else {
        Verdict::Safe {
            reason: SafeReason::Acyclic,
        }
    };

    Cell {
        pair,
        isolation,
        graph,
        verdict,
        scenario: pair.scenario(isolation),
        iconfluence: IconExpectation { kind, mix, safety },
    }
}

/// Decide one pair where template `i` of [`PairKind::templates`] runs at
/// `levels[i]` — the heterogeneous-isolation judgment feral-plan's
/// fixed-point inference escalates against.
///
/// The gates mirror [`decide`], generalised per template:
///
/// 1. a write/write overlap aborts one side before commit only when
///    *both* writers run under first-updater-wins — otherwise the
///    adversary schedules the non-validating writer second and both
///    commit;
/// 2. the cycle search runs over the mixed graph with commit-order
///    constraints ([`find_cycle_constrained`]): a validating reader's
///    `rw` edge must point forward in commit order, so cycles made
///    entirely of ordered edges are unrealizable;
/// 3. the read-set-validation attribution compares against the
///    counterfactual where every serializable template is demoted to
///    snapshot.
///
/// On a uniform assignment (`[l, l]`) the verdict agrees with
/// `decide(pair, l)` — pinned by a test below.
pub fn decide_mixed(pair: PairKind, levels: [IsolationLevel; 2]) -> (DepGraph, Verdict) {
    let graph = build_graph_mixed(pair.templates(), &levels);

    let fuw_gated = !graph.ww_overlaps.is_empty()
        && graph
            .ww_overlaps
            .iter()
            .all(|o| levels[o.a_txn].first_updater_wins() && levels[o.b_txn].first_updater_wins());
    let verdict = if fuw_gated {
        Verdict::Safe {
            reason: SafeReason::FirstUpdaterAborts,
        }
    } else if let Some(cycle) = find_cycle_constrained(&graph, &levels) {
        Verdict::Unsafe { cycle }
    } else if graph.rw_overlaps.is_empty() && graph.ww_overlaps.is_empty() {
        Verdict::Safe {
            reason: SafeReason::NoConflicts,
        }
    } else {
        // counterfactual: demote read-set validation to plain snapshot
        let demoted = levels.map(|l| match l {
            IsolationLevel::Serializable => IsolationLevel::Snapshot,
            other => other,
        });
        let counterfactual = build_graph_mixed(pair.templates(), &demoted);
        if levels.iter().any(|l| l.validates_read_sets())
            && find_cycle_constrained(&counterfactual, &demoted).is_some()
        {
            Verdict::Safe {
                reason: SafeReason::ReadSetValidationAborts,
            }
        } else {
            Verdict::Safe {
                reason: SafeReason::Acyclic,
            }
        }
    };
    (graph, verdict)
}

/// Build the full matrix: every pair at every level, row-major.
pub fn build_matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for pair in PairKind::all() {
        for level in LEVELS {
            cells.push(decide(pair, level));
        }
    }
    cells
}

/// Diff one pair's row against its invariant-confluence derivation.
///
/// I-confluence speaks to coordination-free execution: a
/// non-I-confluent invariant must be violable without coordination
/// (weakest level UNSAFE) yet enforceable with it (serializable SAFE);
/// an I-confluent invariant needs no coordination at any level.
pub fn iconfluence_agreement(row: &[Cell]) -> Result<(), String> {
    let pair = row[0].pair;
    let find = |level: IsolationLevel| {
        row.iter()
            .find(|c| c.isolation == level)
            .unwrap_or_else(|| panic!("{} row is missing {level}", pair.name()))
    };
    let rc = find(IsolationLevel::ReadCommitted);
    let ser = find(IsolationLevel::Serializable);
    match row[0].iconfluence.safety {
        Safety::NotIConfluent => {
            if !rc.verdict.is_unsafe() {
                return Err(format!(
                    "{}: not I-confluent but read committed is SAFE",
                    pair.name()
                ));
            }
            if ser.verdict.is_unsafe() {
                return Err(format!(
                    "{}: serializable is UNSAFE — coordination must suffice",
                    pair.name()
                ));
            }
        }
        Safety::IConfluent => {
            if let Some(cell) = row.iter().find(|c| c.verdict.is_unsafe()) {
                return Err(format!(
                    "{}: I-confluent but {} is UNSAFE",
                    pair.name(),
                    cell.isolation
                ));
            }
        }
    }
    Ok(())
}

/// Dynamic cross-validation of one cell.
#[derive(Debug, Clone)]
pub enum CellEvidence {
    /// UNSAFE: a replayed witness schedule.
    Witness(Witness),
    /// SAFE: a complete, silent exhaustive sweep.
    Sweep(SweepEvidence),
}

/// Cross-validate one cell against feral-sim.
///
/// UNSAFE cells must produce a witness schedule that fires again on
/// byte-identical replay ([`ScenarioSpec::find_witness`]). SAFE cells
/// must survive a *complete* partial-order-reduced sweep with a silent
/// oracle ([`ScenarioSpec::sweep`]; the DPOR sweep covers every
/// Mazurkiewicz class, which `dpor_equivalence.rs` proves
/// verdict-equivalent to full enumeration).
pub fn validate_cell(cell: &Cell, max_runs: usize) -> Result<CellEvidence, String> {
    let (predicted, evidence) = if cell.verdict.is_unsafe() {
        let witness = cell.scenario.find_witness(max_runs);
        ("UNSAFE", witness.map(CellEvidence::Witness))
    } else {
        (
            "SAFE",
            cell.scenario.sweep(max_runs).map(CellEvidence::Sweep),
        )
    };
    evidence.map_err(|e| {
        format!(
            "{}/{}: predicted {predicted} but {e}",
            cell.pair.name(),
            cell.isolation
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict_of(pair: PairKind, level: IsolationLevel) -> bool {
        decide(pair, level).verdict.is_unsafe()
    }

    #[test]
    fn matrix_matches_the_engine_semantics() {
        use IsolationLevel::*;
        // (pair, [RC, RR, SI, SER] unsafe?)
        let expected = [
            (PairKind::Uniqueness, [true, true, true, false]),
            (PairKind::Orphans, [true, true, true, false]),
            (PairKind::LockRmw, [true, true, false, false]),
            (PairKind::SiblingInserts, [false, false, false, false]),
        ];
        for (pair, row) in expected {
            for (level, want) in [ReadCommitted, RepeatableRead, Snapshot, Serializable]
                .into_iter()
                .zip(row)
            {
                assert_eq!(verdict_of(pair, level), want, "{} at {level}", pair.name());
            }
        }
    }

    #[test]
    fn safe_reasons_name_the_closing_gate() {
        let reason = |pair, level| match decide(pair, level).verdict {
            Verdict::Safe { reason } => reason,
            Verdict::Unsafe { .. } => panic!("expected safe"),
        };
        assert_eq!(
            reason(PairKind::LockRmw, IsolationLevel::Snapshot),
            SafeReason::FirstUpdaterAborts
        );
        assert_eq!(
            reason(PairKind::Uniqueness, IsolationLevel::Serializable),
            SafeReason::ReadSetValidationAborts
        );
        assert_eq!(
            reason(PairKind::SiblingInserts, IsolationLevel::ReadCommitted),
            SafeReason::NoConflicts
        );
    }

    #[test]
    fn mixed_verdicts_agree_with_uniform_on_the_diagonal() {
        for pair in PairKind::all() {
            for level in LEVELS {
                let (_, mixed) = decide_mixed(pair, [level, level]);
                assert_eq!(
                    mixed.is_unsafe(),
                    decide(pair, level).verdict.is_unsafe(),
                    "{} at uniform {level}",
                    pair.name()
                );
            }
        }
    }

    #[test]
    fn mixed_verdicts_capture_one_sided_validation() {
        use IsolationLevel::{ReadCommitted, RepeatableRead, Serializable, Snapshot};
        let is_unsafe = |pair, levels| decide_mixed(pair, levels).1.is_unsafe();

        // one validating probe cannot close off write skew alone: the
        // RC/SI side's rw edge stays unordered
        assert!(is_unsafe(PairKind::Uniqueness, [Snapshot, Serializable]));
        assert!(is_unsafe(
            PairKind::Uniqueness,
            [Serializable, ReadCommitted]
        ));
        // a serializable destroyer still orphans an RC checker's insert
        // when the destroyer commits first
        assert!(is_unsafe(PairKind::Orphans, [ReadCommitted, Serializable]));
        assert!(is_unsafe(PairKind::Orphans, [Serializable, Snapshot]));
        // lock-rmw: first-updater-wins must hold on BOTH writers
        assert!(is_unsafe(PairKind::LockRmw, [RepeatableRead, Snapshot]));
        assert!(is_unsafe(PairKind::LockRmw, [Serializable, ReadCommitted]));
        let (_, v) = decide_mixed(PairKind::LockRmw, [Snapshot, Serializable]);
        assert!(matches!(
            v,
            Verdict::Safe {
                reason: SafeReason::FirstUpdaterAborts
            }
        ));
        // the insert-only control is safe under any assignment
        for a in LEVELS {
            for b in LEVELS {
                assert!(!is_unsafe(PairKind::SiblingInserts, [a, b]));
            }
        }
    }

    #[test]
    fn every_row_agrees_with_its_iconfluence_derivation() {
        let matrix = build_matrix();
        for pair in PairKind::all() {
            let row: Vec<Cell> = matrix.iter().filter(|c| c.pair == pair).cloned().collect();
            iconfluence_agreement(&row).unwrap();
        }
    }
}
