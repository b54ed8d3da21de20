//! Fixed-point inference of the weakest safe isolation assignment, per
//! template pair and per application.

use feral_cli::isolation_flag;
use feral_db::{ConflictKind, IsolationLevel, IsolationPlan};
use feral_lint::graph::ModelGraph;
use feral_lint::templates::{
    extract_templates, rc_basis, RcBasis, TemplateClass, TemplateGuard, TemplateInstance,
};
use feral_sdg::{decide_mixed, edge_ordered, PairKind, SafeReason, Verdict, LEVELS};
use feral_sim::scenarios::{Guard, ScenarioSpec, SessionLevels};

/// Position of `l` in the weakest-to-strongest ladder.
pub fn rank(l: IsolationLevel) -> usize {
    LEVELS
        .iter()
        .position(|&x| x == l)
        .expect("every level is on the ladder")
}

/// One notch stronger, if any.
pub fn escalate(l: IsolationLevel) -> Option<IsolationLevel> {
    LEVELS.get(rank(l) + 1).copied()
}

/// One notch weaker, if any.
pub fn demote(l: IsolationLevel) -> Option<IsolationLevel> {
    rank(l).checked_sub(1).map(|i| LEVELS[i])
}

/// Infer the weakest safe per-slot isolation for one feral pair.
///
/// Start both slots at read committed. While the mixed verdict is
/// UNSAFE, the found cycle names its own repair: every realizable cycle
/// carries at least one unordered `rw` antidependency, and strengthening
/// that edge's *reader* is the only move that can order or refuse it —
/// escalate the highest-indexed such reader one notch (for the orphans
/// pair this prefers the destroyer, whose read-set validation is what
/// eventually refuses the checker's insert). Escalation is monotone, so
/// the loop terminates at all-serializable in the worst case. Once safe,
/// greedily demote any slot that stays safe until the assignment is a
/// local minimum — the certificate layer re-proves per-slot minimality
/// statically and dynamically.
pub fn infer_pair_levels(pair: PairKind) -> ([IsolationLevel; 2], SafeReason) {
    let mut levels = [IsolationLevel::ReadCommitted; 2];
    loop {
        match decide_mixed(pair, levels).1 {
            Verdict::Safe { .. } => break,
            Verdict::Unsafe { cycle } => {
                let slot = cycle
                    .iter()
                    .filter(|e| e.kind == ConflictKind::ReadWrite && !edge_ordered(e, &levels))
                    .map(|e| e.from)
                    .max()
                    .expect("a realizable cycle carries an unordered rw edge");
                levels[slot] =
                    escalate(levels[slot]).expect("serializable closes every feral cycle");
            }
        }
    }
    loop {
        let mut changed = false;
        for slot in 0..2 {
            while let Some(weaker) = demote(levels[slot]) {
                let mut cand = levels;
                cand[slot] = weaker;
                if matches!(decide_mixed(pair, cand).1, Verdict::Safe { .. }) {
                    levels = cand;
                    changed = true;
                } else {
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    match decide_mixed(pair, levels).1 {
        Verdict::Safe { reason } => (levels, reason),
        Verdict::Unsafe { .. } => unreachable!("loop exits only on a safe assignment"),
    }
}

/// What makes a plan cell safe at its assigned levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellGate {
    /// `decide_mixed` is SAFE at the assignment; the reason names the
    /// engine gate that closes the cycle.
    Static(SafeReason),
    /// A database constraint (unique index / foreign key / declared
    /// `lock_version` column) enforces the invariant below the isolation
    /// system entirely; the exhaustive sweep is the whole proof.
    DatabaseGuard,
}

impl CellGate {
    /// Stable report spelling.
    pub fn name(self) -> &'static str {
        match self {
            CellGate::Static(reason) => reason.name(),
            CellGate::DatabaseGuard => "database-guard",
        }
    }
}

/// One globally-deduplicated cell of the plan: a template pair, its
/// guard, and the inferred per-slot isolation assignment.
#[derive(Debug, Clone)]
pub struct PlanCell {
    /// Template pair.
    pub pair: PairKind,
    /// Feral or database-backed invariant enforcement.
    pub guard: Guard,
    /// Per-slot isolation (slot `i` = `pair.templates()[i]`).
    pub levels: [IsolationLevel; 2],
    /// Why the assignment is safe.
    pub gate: CellGate,
}

impl PlanCell {
    /// Whether any slot runs above read committed.
    pub fn escalated(&self) -> bool {
        self.levels
            .iter()
            .any(|&l| l != IsolationLevel::ReadCommitted)
    }

    /// The next-weaker configuration: the first slot above read
    /// committed, demoted one notch. Escalated cells must witness an
    /// anomaly here — that replay is the minimality half of the
    /// certificate.
    pub fn demoted(&self) -> Option<[IsolationLevel; 2]> {
        let slot = self
            .levels
            .iter()
            .position(|&l| l != IsolationLevel::ReadCommitted)?;
        let mut d = self.levels;
        d[slot] = demote(d[slot]).expect("slot above read committed has a weaker notch");
        Some(d)
    }

    /// The runnable feral-sim scenario this cell certifies against: the
    /// pair's scenario with each template slot at its assigned level.
    pub fn scenario(&self) -> ScenarioSpec {
        ScenarioSpec {
            levels: SessionLevels::PerSlot(self.levels),
            guard: self.guard,
            ..self.pair.scenario(self.levels[0])
        }
    }

    /// Stable cell key for reports and diffs:
    /// `uniqueness/feral@serializable+serializable`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}@{}+{}",
            self.pair.name(),
            guard_str(self.guard),
            isolation_flag(self.levels[0]),
            isolation_flag(self.levels[1]),
        )
    }
}

/// Stable guard spelling.
pub fn guard_str(g: Guard) -> &'static str {
    match g {
        Guard::Feral => "feral",
        Guard::Database => "database",
    }
}

/// Why one template assignment holds its level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Read committed via a static fast-path basis.
    Rc(RcBasis),
    /// The fixed-point inference assigned this template's pair slot.
    Inferred {
        /// Which slot of the cell's pair this template occupies.
        slot: usize,
    },
}

impl Basis {
    /// Stable report spelling.
    pub fn label(self) -> String {
        match self {
            Basis::Rc(basis) => basis.label().to_string(),
            Basis::Inferred { slot } => format!("inferred-slot-{slot}"),
        }
    }
}

/// One template's planned isolation level.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The extracted template instance.
    pub template: TemplateInstance,
    /// Assigned isolation level.
    pub level: IsolationLevel,
    /// Why.
    pub basis: Basis,
    /// Index into [`Plan::cells`] of the certifying cell, when one
    /// exists (a lone cascade destroyer conflicts with nothing, so no
    /// two-sided scenario certifies it — its basis is re-derived
    /// statically instead).
    pub cell: Option<usize>,
}

/// The plan for one application.
#[derive(Debug, Clone)]
pub struct AppPlan {
    /// Application name.
    pub app: String,
    /// Transaction-block uses across the application.
    pub transactions: usize,
    /// Per-template assignments, in template order.
    pub assignments: Vec<Assignment>,
}

impl AppPlan {
    /// Convert into the executor's [`IsolationPlan`]. Unknown templates
    /// fall back to serializable — the plan only ever *weakens*
    /// transactions it has certified.
    pub fn isolation_plan(&self) -> IsolationPlan {
        let mut plan = IsolationPlan::new(IsolationLevel::Serializable);
        for a in &self.assignments {
            plan.assign(a.template.key(), a.level);
        }
        plan
    }
}

/// The whole-corpus certified isolation plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Corpus synthesis seed.
    pub corpus_seed: u64,
    /// Per-application plans, in corpus order.
    pub apps: Vec<AppPlan>,
    /// Deduplicated cells, in first-encounter order.
    pub cells: Vec<PlanCell>,
}

impl Plan {
    /// Count assignments at `level` across every app.
    pub fn assignments_at(&self, level: IsolationLevel) -> usize {
        self.apps
            .iter()
            .flat_map(|a| &a.assignments)
            .filter(|a| a.level == level)
            .count()
    }
}

/// Interning table for [`PlanCell`]s, deduplicated by
/// (pair, guard, levels).
#[derive(Default)]
pub struct CellTable {
    cells: Vec<PlanCell>,
}

impl CellTable {
    fn intern(&mut self, cell: PlanCell) -> usize {
        if let Some(i) = self
            .cells
            .iter()
            .position(|c| c.pair == cell.pair && c.guard == cell.guard && c.levels == cell.levels)
        {
            return i;
        }
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// The interned cells, in first-encounter order.
    pub fn into_cells(self) -> Vec<PlanCell> {
        self.cells
    }
}

/// The sdg pair a template class instantiates when the fixed-point
/// inference must run, and which slot of that pair it occupies.
fn inferred_pair_slot(class: TemplateClass) -> (PairKind, usize) {
    match class {
        TemplateClass::UniquenessProbeInsert => (PairKind::Uniqueness, 0),
        TemplateClass::AssocCheckInsert => (PairKind::Orphans, 0),
        TemplateClass::CascadeDestroy => (PairKind::Orphans, 1),
        TemplateClass::LockVersionRmw => (PairKind::LockRmw, 0),
    }
}

/// The certifying cell for a read-committed fast-path basis.
fn rc_cell(inst: &TemplateInstance, basis: RcBasis, cells: &mut CellTable) -> Option<usize> {
    let rc2 = [IsolationLevel::ReadCommitted; 2];
    match basis {
        RcBasis::DatabaseGuard => {
            let pair = inferred_pair_slot(inst.class).0;
            Some(cells.intern(PlanCell {
                pair,
                guard: Guard::Database,
                levels: rc2,
                gate: CellGate::DatabaseGuard,
            }))
        }
        RcBasis::InsertOnlyIConfluent => {
            // two presence-checking inserters under one parent: the
            // sibling-inserts control pair, safe at read committed
            let reason = match decide_mixed(PairKind::SiblingInserts, rc2).1 {
                Verdict::Safe { reason } => reason,
                Verdict::Unsafe { .. } => unreachable!("sibling inserts are safe at any level"),
            };
            Some(cells.intern(PlanCell {
                pair: PairKind::SiblingInserts,
                guard: Guard::Feral,
                levels: rc2,
                gate: CellGate::Static(reason),
            }))
        }
        RcBasis::NoConflictingTemplate => None,
    }
}

/// Plan one resolved application graph, interning its cells.
pub fn plan_app(graph: &ModelGraph, cells: &mut CellTable) -> AppPlan {
    let templates = extract_templates(graph);
    let assignments = templates
        .iter()
        .map(|inst| match rc_basis(inst, &templates) {
            Some(basis) => Assignment {
                template: inst.clone(),
                level: IsolationLevel::ReadCommitted,
                basis: Basis::Rc(basis),
                cell: rc_cell(inst, basis, cells),
            },
            None => {
                debug_assert_eq!(inst.guard, TemplateGuard::Feral);
                let (pair, slot) = inferred_pair_slot(inst.class);
                let (levels, reason) = infer_pair_levels(pair);
                let cell = cells.intern(PlanCell {
                    pair,
                    guard: Guard::Feral,
                    levels,
                    gate: CellGate::Static(reason),
                });
                Assignment {
                    template: inst.clone(),
                    level: levels[slot],
                    basis: Basis::Inferred { slot },
                    cell: Some(cell),
                }
            }
        })
        .collect();
    AppPlan {
        app: graph.app.clone(),
        transactions: graph.transactions,
        assignments,
    }
}

/// Build the certified isolation plan for the synthesized corpus at
/// `seed`: extract every app's templates through the lint model graph,
/// run the fixed-point inference per pair, and dedupe the resulting
/// cells globally. Deterministic for a given seed.
pub fn build_plan(seed: u64) -> Plan {
    let corpus = feral_corpus::synthesize_corpus(seed);
    let mut cells = CellTable::default();
    let apps = corpus
        .iter()
        .map(|app| plan_app(&feral_lint::resolve_synthetic(app), &mut cells))
        .collect();
    Plan {
        corpus_seed: seed,
        apps,
        cells: cells.into_cells(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use IsolationLevel::*;

    #[test]
    fn inference_lands_on_the_verified_minimal_assignments() {
        let (levels, reason) = infer_pair_levels(PairKind::Uniqueness);
        assert_eq!(levels, [Serializable, Serializable]);
        assert_eq!(reason, SafeReason::ReadSetValidationAborts);

        let (levels, reason) = infer_pair_levels(PairKind::Orphans);
        assert_eq!(levels, [Serializable, Serializable]);
        assert_eq!(reason, SafeReason::ReadSetValidationAborts);

        let (levels, reason) = infer_pair_levels(PairKind::LockRmw);
        assert_eq!(levels, [Snapshot, Snapshot]);
        assert_eq!(reason, SafeReason::FirstUpdaterAborts);

        let (levels, reason) = infer_pair_levels(PairKind::SiblingInserts);
        assert_eq!(levels, [ReadCommitted, ReadCommitted]);
        assert_eq!(reason, SafeReason::NoConflicts);
    }

    #[test]
    fn inferred_assignments_are_per_slot_minimal() {
        for pair in PairKind::all() {
            let (levels, _) = infer_pair_levels(pair);
            for slot in 0..2 {
                if let Some(weaker) = demote(levels[slot]) {
                    let mut cand = levels;
                    cand[slot] = weaker;
                    assert!(
                        decide_mixed(pair, cand).1.is_unsafe(),
                        "{}: demoting slot {slot} to {weaker} must break safety",
                        pair.name()
                    );
                }
            }
        }
    }

    #[test]
    fn corpus_plan_is_deterministic_and_covers_every_template() {
        let a = build_plan(42);
        let b = build_plan(42);
        assert_eq!(a.apps.len(), 67);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.key(), cb.key());
        }
        for (pa, pb) in a.apps.iter().zip(&b.apps) {
            assert_eq!(pa.app, pb.app);
            assert_eq!(pa.assignments.len(), pb.assignments.len());
            for (aa, ab) in pa.assignments.iter().zip(&pb.assignments) {
                assert_eq!(aa.template.key(), ab.template.key());
                assert_eq!(aa.level, ab.level);
                assert_eq!(aa.basis, ab.basis);
                assert_eq!(aa.cell, ab.cell);
            }
        }
        // the corpus must exercise both directions: templates the plan
        // weakens to read committed and templates it escalates
        assert!(a.assignments_at(ReadCommitted) > 0, "no RC assignments");
        assert!(a.assignments_at(Serializable) > 0, "no escalations");
        // every assignment without a certifying cell is a lone destroyer
        for app in &a.apps {
            for asg in &app.assignments {
                if asg.cell.is_none() {
                    assert_eq!(asg.basis, Basis::Rc(RcBasis::NoConflictingTemplate));
                }
            }
        }
    }

    #[test]
    fn isolation_plan_conversion_defaults_to_serializable() {
        let plan = build_plan(42);
        let app = plan
            .apps
            .iter()
            .find(|a| !a.assignments.is_empty())
            .expect("corpus has templates");
        let iso = app.isolation_plan();
        assert_eq!(iso.default_level(), Serializable);
        assert_eq!(iso.len(), app.assignments.len());
        for a in &app.assignments {
            assert_eq!(iso.level_for(&a.template.key()), a.level);
        }
        assert_eq!(iso.level_for("not-a-template"), Serializable);
    }
}
