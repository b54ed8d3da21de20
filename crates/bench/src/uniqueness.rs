//! Uniqueness experiments (paper §5.2): the Figure 2 stress test and the
//! Figure 3 distribution workload.

use crate::apps::{drive_rounds, key_value_app, Enforcement, ExperimentEnv};
use feral_db::Datum;
use feral_orm::App;
use feral_server::{PooledService, Request, Response};
use feral_sql::SqlSession;
use feral_workloads::KeyChooser;

/// Result of one uniqueness run.
#[derive(Debug, Clone, Copy)]
pub struct UniquenessResult {
    /// Duplicate records: Σ over keys of (count − 1), i.e. the paper's
    /// `SELECT key, COUNT(key)-1 ... HAVING COUNT(key) > 1` total.
    pub duplicates: u64,
    /// Rows persisted in total.
    pub rows: u64,
    /// Requests that were rejected (validation failure or constraint).
    pub rejected: u64,
}

/// Count duplicates with the paper's Appendix C.2 SQL, run through the
/// SQL front-end for fidelity. Debug builds cross-check the SQL count
/// against the `feral-sim` duplicate-key oracle, so the harness and the
/// figures can never silently disagree on what a duplicate is.
pub fn count_duplicates(app: &feral_orm::App) -> u64 {
    let mut sql = SqlSession::new(app.db().clone());
    let rows = sql
        .execute("SELECT key, COUNT(key) FROM key_values GROUP BY key HAVING COUNT(key) > 1")
        .expect("duplicate-count query")
        .rows();
    let total: u64 = rows
        .iter()
        .map(|r| (r[1].as_int().unwrap_or(0) - 1) as u64)
        .sum();
    debug_assert_eq!(
        total,
        feral_sim::oracles::duplicate_count(app.db(), "key_values", "key") as u64,
        "SQL duplicate count disagrees with the sim oracle"
    );
    total
}

/// The Figure 2 request rounds: `rounds` rounds of `concurrent`
/// insertions of the *same* key, a fresh key per round.
pub fn stress_rounds(rounds: usize, concurrent: usize) -> Vec<Vec<Request>> {
    (0..rounds)
        .map(|round| {
            let key = format!("key-{round}");
            (0..concurrent)
                .map(|client| {
                    Request::builder("KeyValue")
                        .session(client as u64)
                        .attr("key", Datum::text(&key))
                        .attr("value", Datum::text("v"))
                        .create()
                })
                .collect()
        })
        .collect()
}

/// Figure 2 stress test: [`stress_rounds`] against a pool of `workers`
/// single-threaded workers.
pub fn uniqueness_stress(
    enforcement: Enforcement,
    env: &ExperimentEnv,
    workers: usize,
    rounds: usize,
    concurrent: usize,
    seed: u64,
) -> UniquenessResult {
    let app = key_value_app(enforcement, env);
    let svc = PooledService::new(app.clone(), workers);
    let responses = drive_rounds(
        &svc,
        workers,
        env.jitter,
        seed,
        stress_rounds(rounds, concurrent),
    );
    tally(&app, &responses)
}

/// Figure 3 workload: `clients` concurrent clients each issue `ops`
/// insertions with keys drawn from `chooser_for(client)`.
pub fn uniqueness_workload(
    enforcement: Enforcement,
    env: &ExperimentEnv,
    clients: usize,
    ops: usize,
    mut chooser_for: impl FnMut(usize) -> Box<dyn KeyChooser>,
    seed: u64,
) -> UniquenessResult {
    let app = key_value_app(enforcement, env);
    let svc = PooledService::new(app.clone(), clients);
    let mut streams: Vec<Box<dyn KeyChooser>> = (0..clients).map(&mut chooser_for).collect();
    let rounds = (0..ops)
        .map(|_| {
            streams
                .iter_mut()
                .enumerate()
                .map(|(client, s)| {
                    let key = format!("key-{}", s.next_key());
                    Request::builder("KeyValue")
                        .session(client as u64)
                        .attr("key", Datum::text(key))
                        .attr("value", Datum::text("v"))
                        .create()
                })
                .collect()
        })
        .collect();
    let responses = drive_rounds(&svc, clients, env.jitter, seed, rounds);
    tally(&app, &responses)
}

/// Rows, duplicates and rejected requests of a finished run.
pub fn tally(app: &App, responses: &[Vec<Response>]) -> UniquenessResult {
    let rejected = responses
        .iter()
        .flatten()
        .filter(|r| !r.succeeded())
        .count() as u64;
    UniquenessResult {
        duplicates: count_duplicates(app),
        rows: app.session().count("KeyValue").unwrap() as u64,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_workloads::Uniform;

    #[test]
    fn stress_without_validation_admits_every_duplicate() {
        let env = ExperimentEnv::default();
        let r = uniqueness_stress(Enforcement::None, &env, 4, 5, 8, 1);
        // 5 rounds × 8 concurrent − 5 keys = 35 duplicates, all admitted
        assert_eq!(r.rows, 40);
        assert_eq!(r.duplicates, 35);
        assert_eq!(r.rejected, 0);
    }

    #[test]
    fn stress_with_db_constraint_admits_no_duplicates() {
        let env = ExperimentEnv::default();
        let r = uniqueness_stress(Enforcement::Database, &env, 8, 5, 8, 2);
        assert_eq!(r.duplicates, 0);
        assert_eq!(r.rows, 5);
    }

    #[test]
    fn stress_with_feral_validation_bounds_duplicates() {
        let env = ExperimentEnv::default();
        let r = uniqueness_stress(Enforcement::Feral, &env, 4, 10, 8, 3);
        // validations bound each key's copies by the worker count
        assert!(r.rows >= 10);
        assert!(r.duplicates <= 10 * (4 - 1), "{r:?}");
    }

    #[test]
    fn workload_runs_and_counts() {
        let env = ExperimentEnv::default();
        let r = uniqueness_workload(
            Enforcement::Feral,
            &env,
            4,
            10,
            |c| Box::new(Uniform::new(16, c as u64)),
            9,
        );
        assert!(r.rows > 0);
        assert!(r.rows + r.rejected >= 40);
    }
}
