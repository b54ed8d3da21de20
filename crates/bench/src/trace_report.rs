//! Trace-instrumented Table 1 cells: the §5.2 uniqueness stress run
//! under every isolation level with `feral-trace` enabled, assembled
//! into the machine-readable run report (`BENCH_table1.json`).
//!
//! Each cell is one full stress run: tracing is reset, the stress
//! loop executes, and the cell report captures the windowed engine
//! [`StatsSnapshot`](feral_db::StatsSnapshot) diff, per-phase latency
//! histograms, anomaly counts, and — for every duplicated key the
//! flight recorder can still explain — a provenance record naming the
//! racing transaction pair plus a replayable `feral-sim` witness.
//!
//! The witness is found by the search every prediction in the
//! workspace shares ([`ScenarioSpec::find_witness`]: a directed DPOR
//! sweep, then a replay check). If a live run
//! happens to produce no duplicates at the weakest level, the witness
//! schedule itself is replayed with tracing on, so the report always
//! carries at least one explained race under weak isolation.

use crate::apps::{drive_rounds, key_value_app, Enforcement, ExperimentEnv};
use crate::uniqueness::{duplicated_keys, stress_rounds};
use feral_cli::isolation_flag;
use feral_db::IsolationLevel;
use feral_server::PooledService;
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec, SessionLevels};
use feral_sim::Witness;
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
    /// Client threads, and sessions in the pool they call: at most this
    /// many requests are in flight at once.
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

fn enforcement_flag(e: Enforcement) -> &'static str {
    match e {
        Enforcement::None => "none",
        Enforcement::Feral => "feral",
        Enforcement::Database => "database",
    }
}

type WitnessCache = HashMap<u8, Option<Witness>>;

/// The replayable duplicate-key witness at `isolation`, searched once
/// per level. `None` only when no schedule violates (Serializable).
fn witness_for(cache: &mut WitnessCache, isolation: IsolationLevel) -> Option<Witness> {
    cache
        .entry(isolation as u8)
        .or_insert_with(|| {
            let spec = ScenarioSpec {
                kind: ScenarioKind::Uniqueness,
                levels: SessionLevels::Uniform(isolation),
                guard: Guard::Feral,
                workers: 2,
            };
            spec.find_witness(50_000).ok()
        })
        .clone()
}

/// The witness as the provenance schema records it.
fn provenance_witness(w: &Witness) -> trace::Witness {
    trace::Witness {
        scenario: format!("{}/{}w", w.spec.label(), w.spec.workers),
        isolation: w.spec.levels.flag_value(),
        guard: "feral".into(),
        workers: w.spec.workers,
        replay: w.replay_command(),
        message: w.message.clone(),
    }
}

fn render_tail(events: &[trace::Event], n: usize) -> Vec<String> {
    let start = events.len().saturating_sub(n);
    events[start..].iter().map(|e| e.render()).collect()
}

/// Replay a witness schedule with tracing enabled and explain the race
/// it produces from the fresh flight-recorder dump. The simulated run
/// drives the same ORM stack a live deployment does, so the probe and
/// write events are real — just deterministically scheduled.
fn replayed_witness_provenance(w: &Witness) -> Option<ProvenanceRecord> {
    if !w.replays() {
        return None;
    }
    let flight = trace::flight_recorder(FLIGHT_WINDOW);
    // the sim's uniqueness scenario always races on the literal key "dup"
    let mut rec = trace::provenance::explain_duplicate(&flight, "key_values", "dup")?;
    rec.flight = render_tail(&flight, FLIGHT_TAIL);
    rec.witness = Some(provenance_witness(w));
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
    let svc = PooledService::new(app.clone(), shape.workers);
    let responses = drive_rounds(
        &svc,
        shape.workers,
        env.jitter,
        seed,
        stress_rounds(shape.rounds, shape.concurrent),
    );
    let rejected = responses
        .iter()
        .flatten()
        .filter(|r| !r.succeeded())
        .count() as u64;
    let mut s = app.session();
    let rows = s.count("KeyValue").unwrap() as u64;
    let dup_keys = duplicated_keys(&app);
    let duplicates: u64 = dup_keys.iter().map(|(_, extra)| extra).sum();
    let stats = app.db().stats().snapshot().diff(&before);

    // every phase comes from the global windows (reset above — cells run
    // one at a time)
    let histograms: Vec<(String, HistogramSnapshot)> = trace::phase_snapshots()
        .into_iter()
        .map(|(phase, snap)| (phase.name().into(), snap))
        .collect();

    let flight = trace::flight_recorder(FLIGHT_WINDOW);
    let mut provenance = Vec::new();
    for (key, _) in dup_keys.iter().take(PROVENANCE_CAP) {
        if let Some(mut rec) = trace::provenance::explain_duplicate(&flight, "key_values", key) {
            rec.flight = render_tail(&flight, FLIGHT_TAIL);
            rec.witness = witness_for(cache, iso).map(|w| provenance_witness(&w));
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
        if let Some(rec) = witness_for(cache, iso).and_then(|w| replayed_witness_provenance(&w)) {
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
        let w =
            witness_for(&mut WitnessCache::new(), IsolationLevel::ReadCommitted).expect("witness");
        assert!(w.replay_command().contains("--isolation read-committed"));
        // replaying is deterministic: the same schedule violates again
        assert!(w.replays(), "witness must replay its violation");
    }
}
