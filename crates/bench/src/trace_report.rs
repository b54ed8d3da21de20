//! Trace-instrumented Table 1 cells: the §5.2 uniqueness stress run
//! under every isolation level with `feral-trace` enabled, assembled
//! into the machine-readable run report (`BENCH_table1.json`).
//!
//! Each cell is one full deployment run: tracing is reset, the stress
//! loop executes, and the cell report captures the windowed engine
//! [`StatsSnapshot`](feral_db::StatsSnapshot) diff, per-phase latency
//! histograms, anomaly counts, and — for every duplicated key the
//! flight recorder can still explain — a provenance record naming the
//! racing transaction pair plus a replayable `feral-sim` witness.
//!
//! The witness is found with the same search the linter uses
//! (`crates/lint/src/witness.rs`): random seeds first, systematic
//! enumeration as the fallback. If a live run happens to produce no
//! duplicates at the weakest level, the witness schedule itself is
//! replayed with tracing on, so the report always carries at least one
//! explained race under weak isolation.

use crate::apps::{key_value_app, Enforcement, ExperimentEnv};
use feral_db::{Datum, IsolationLevel};
use feral_server::{Deployment, DeploymentConfig, Request};
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec};
use feral_sim::{explore_random, explore_systematic, run_with_choices, run_with_seed};
use feral_sql::SqlSession;
use feral_trace::{self as trace, CellReport, HistogramSnapshot, ProvenanceRecord, RunReport};
use std::collections::HashMap;

/// Flight-recorder window used for provenance analysis.
const FLIGHT_WINDOW: usize = 4096;

/// Rendered flight-tail lines attached to each provenance record.
const FLIGHT_TAIL: usize = 16;

/// Explained duplicates per cell (one per duplicated key, capped).
const PROVENANCE_CAP: usize = 3;

/// Shape of the per-cell stress loop (Figure 2 parameters).
#[derive(Debug, Clone, Copy)]
pub struct CellShape {
    /// Worker threads in the deployment.
    pub workers: usize,
    /// Rounds (one fresh key per round).
    pub rounds: usize,
    /// Concurrent same-key insertions per round.
    pub concurrent: usize,
}

impl CellShape {
    /// Small shape for the tier-1 smoke gate (single-core friendly).
    pub fn smoke() -> CellShape {
        CellShape {
            workers: 4,
            rounds: 6,
            concurrent: 8,
        }
    }

    /// Full shape for real report runs.
    pub fn full() -> CellShape {
        CellShape {
            workers: 8,
            rounds: 20,
            concurrent: 16,
        }
    }
}

/// The cell grid: feral enforcement at every isolation level, plus the
/// in-database fix (§5.2 footnote 10) at the weakest level.
pub const CELL_GRID: [(IsolationLevel, Enforcement); 5] = [
    (IsolationLevel::ReadCommitted, Enforcement::Feral),
    (IsolationLevel::RepeatableRead, Enforcement::Feral),
    (IsolationLevel::Snapshot, Enforcement::Feral),
    (IsolationLevel::Serializable, Enforcement::Feral),
    (IsolationLevel::ReadCommitted, Enforcement::Database),
];

fn isolation_flag(iso: IsolationLevel) -> String {
    iso.to_string().replace(' ', "-")
}

fn enforcement_flag(e: Enforcement) -> &'static str {
    match e {
        Enforcement::None => "none",
        Enforcement::Feral => "feral",
        Enforcement::Database => "database",
    }
}

/// The keys that ended up duplicated, with how many extra rows each
/// holds — the Appendix C.2 SQL, key values included.
pub fn duplicated_keys(app: &feral_orm::App) -> Vec<(String, u64)> {
    let mut sql = SqlSession::new(app.db().clone());
    sql.execute("SELECT key, COUNT(key) FROM key_values GROUP BY key HAVING COUNT(key) > 1")
        .expect("duplicate-key query")
        .rows()
        .iter()
        .map(|r| {
            let key = r[0].as_text().unwrap_or_default().to_string();
            let extra = (r[1].as_int().unwrap_or(1) - 1) as u64;
            (key, extra)
        })
        .collect()
}

/// A simulator witness plus everything needed to replay it in-process.
#[derive(Debug, Clone)]
pub struct SimWitness {
    /// Scenario configuration the schedule ran under.
    pub spec: ScenarioSpec,
    /// Seed of the violating schedule (random search).
    pub seed: Option<u64>,
    /// Branch choices (always replayable).
    pub choices: Vec<usize>,
    /// The pre-rendered witness attached to provenance records.
    pub witness: trace::Witness,
}

/// Search the simulator's schedule space for a replayable duplicate-key
/// witness at `isolation` — the lint witness search restricted to the
/// uniqueness scenario. Returns `None` only when no schedule violates
/// (Serializable, or a database constraint).
pub fn find_duplicate_witness(isolation: IsolationLevel) -> Option<SimWitness> {
    let spec = ScenarioSpec {
        kind: ScenarioKind::Uniqueness,
        isolation,
        guard: Guard::Feral,
        workers: 2,
    };
    let random = explore_random(|| spec.build(), 0..256);
    let violation = match random.violation {
        Some(v) => v,
        None => explore_systematic(|| spec.build(), 50_000).violation?,
    };
    let replay = spec.replay_command(violation.seed, &violation.choices);
    Some(SimWitness {
        spec,
        seed: violation.seed,
        choices: violation.choices.clone(),
        witness: trace::Witness {
            scenario: format!("{}/{}w", spec.label(), spec.workers),
            isolation: spec.isolation_flag(),
            guard: "feral".into(),
            workers: spec.workers,
            replay,
            message: violation.message,
        },
    })
}

type WitnessCache = HashMap<u8, Option<SimWitness>>;

fn witness_for(cache: &mut WitnessCache, iso: IsolationLevel) -> Option<SimWitness> {
    cache
        .entry(iso as u8)
        .or_insert_with(|| find_duplicate_witness(iso))
        .clone()
}

fn render_tail(events: &[trace::Event], n: usize) -> Vec<String> {
    let start = events.len().saturating_sub(n);
    events[start..].iter().map(|e| e.render()).collect()
}

/// Replay a witness schedule with tracing enabled and explain the race
/// it produces from the fresh flight-recorder dump. The simulated run
/// drives the same ORM stack a live deployment does, so the probe and
/// write events are real — just deterministically scheduled.
fn replayed_witness_provenance(sw: &SimWitness) -> Option<ProvenanceRecord> {
    let trial = sw.spec.build();
    match sw.seed {
        Some(seed) => {
            let _ = run_with_seed(trial, seed);
        }
        None => {
            let _ = run_with_choices(trial, &sw.choices);
        }
    }
    let flight = trace::flight_recorder(FLIGHT_WINDOW);
    // the sim's uniqueness scenario always races on the literal key "dup"
    let mut rec = trace::provenance::explain_duplicate(&flight, "key_values", "dup")?;
    rec.flight = render_tail(&flight, FLIGHT_TAIL);
    rec.witness = Some(sw.witness.clone());
    Some(rec)
}

/// Run one trace-instrumented cell: reset the trace window, run the
/// stress loop, and assemble the cell report.
pub fn run_cell(
    iso: IsolationLevel,
    enforcement: Enforcement,
    shape: CellShape,
    seed: u64,
    cache: &mut WitnessCache,
) -> CellReport {
    trace::reset();
    let env = ExperimentEnv {
        isolation: iso,
        ..ExperimentEnv::default()
    };
    let app = key_value_app(enforcement, &env);
    let before = app.db().stats().snapshot();
    let deployment = Deployment::start(
        app.clone(),
        DeploymentConfig {
            workers: shape.workers,
            request_jitter: env.jitter,
            seed,
        },
    );
    let mut rejected = 0u64;
    for round in 0..shape.rounds {
        let key = format!("key-{round}");
        let requests: Vec<Request> = (0..shape.concurrent)
            .map(|client| {
                Request::builder("KeyValue")
                    .session(client as u64)
                    .attr("key", Datum::text(&key))
                    .attr("value", Datum::text("v"))
                    .create()
            })
            .collect();
        for r in deployment.round(requests) {
            if !r.succeeded() {
                rejected += 1;
            }
        }
    }
    let metrics = deployment.metrics();
    deployment.shutdown();
    let mut s = app.session();
    let rows = s.count("KeyValue").unwrap() as u64;
    let dup_keys = duplicated_keys(&app);
    let duplicates: u64 = dup_keys.iter().map(|(_, extra)| extra).sum();
    let stats = app.db().stats().snapshot().diff(&before);

    // Request latency comes from the deployment's own histogram; the
    // engine-side phases come from the global windows (reset above —
    // cells run one at a time).
    let mut histograms: Vec<(String, HistogramSnapshot)> =
        vec![("request".into(), metrics.latency.clone())];
    for (phase, snap) in trace::phase_snapshots() {
        if phase != trace::Phase::Request {
            histograms.push((phase.name().into(), snap));
        }
    }

    let flight = trace::flight_recorder(FLIGHT_WINDOW);
    let mut provenance = Vec::new();
    for (key, _) in dup_keys.iter().take(PROVENANCE_CAP) {
        if let Some(mut rec) = trace::provenance::explain_duplicate(&flight, "key_values", key) {
            rec.flight = render_tail(&flight, FLIGHT_TAIL);
            rec.witness = witness_for(cache, iso).map(|sw| sw.witness);
            provenance.push(rec);
        }
    }
    // Deterministic fallback: the weakest feral cell must always ship an
    // explained race, even if the live run got lucky — replay the
    // simulator witness (tracing still on) and explain that schedule.
    if provenance.is_empty()
        && enforcement == Enforcement::Feral
        && iso == IsolationLevel::ReadCommitted
    {
        if let Some(rec) = witness_for(cache, iso).and_then(|sw| replayed_witness_provenance(&sw)) {
            provenance.push(rec);
        }
    }

    CellReport {
        label: format!("{}/{}", isolation_flag(iso), enforcement_flag(enforcement)),
        isolation: isolation_flag(iso),
        enforcement: enforcement_flag(enforcement).into(),
        workers: shape.workers,
        rounds: shape.rounds,
        concurrent: shape.concurrent,
        duplicates,
        rows,
        rejected,
        stats: stats
            .fields()
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect(),
        histograms,
        provenance,
    }
}

/// Run the full cell grid with tracing enabled and assemble the run
/// report. Tracing is restored to its prior state afterwards.
pub fn run_trace_cells(shape: CellShape, seed: u64, smoke: bool) -> RunReport {
    let was_enabled = trace::enabled();
    trace::set_enabled(true);
    let mut cache = WitnessCache::new();
    let cells = CELL_GRID
        .iter()
        .enumerate()
        .map(|(i, &(iso, enf))| run_cell(iso, enf, shape, seed.wrapping_add(i as u64), &mut cache))
        .collect();
    trace::set_enabled(was_enabled);
    RunReport {
        report: "table1".into(),
        smoke,
        seed,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_search_fires_at_weak_isolation_and_replays() {
        let sw = find_duplicate_witness(IsolationLevel::ReadCommitted).expect("witness");
        assert!(sw.witness.replay.contains("--isolation read-committed"));
        // replaying is deterministic: the same schedule violates again
        let trial = sw.spec.build();
        let (_, verdict) = match sw.seed {
            Some(seed) => run_with_seed(trial, seed),
            None => run_with_choices(trial, &sw.choices),
        };
        assert!(verdict.is_err(), "witness must replay its violation");
    }
}
