//! Acceptance: seeded random schedule search finds the paper's anomalies
//! and the printed seed replays them **byte-identically** — same trace,
//! same branch choices, same oracle message — across consecutive runs.

use feral_db::{Datum, IsolationLevel};
use feral_sim::scenarios::{orphan_trial, uniqueness_trial, Guard};
use feral_sim::{explore_random, run_with_seed, Trial};

/// Search seeds until the oracle fires, then replay the winning seed
/// twice and demand bit-for-bit agreement.
fn find_and_replay(mut factory: impl FnMut() -> Trial, what: &str) {
    let outcome = explore_random(&mut factory, 0..500);
    let v = outcome
        .violation
        .unwrap_or_else(|| panic!("{what}: no anomaly in {} seeded runs", outcome.runs));
    let seed = v.seed.expect("random mode records the seed");
    println!("{what}: anomaly `{}` — {}", v.message, v.replay_hint());

    let (r1, verdict1) = run_with_seed(factory(), seed);
    let (r2, verdict2) = run_with_seed(factory(), seed);
    assert_eq!(
        r1.trace_text(),
        v.run.trace_text(),
        "{what}: replay 1 diverged from the search run"
    );
    assert_eq!(
        r1.trace_text(),
        r2.trace_text(),
        "{what}: consecutive replays diverged"
    );
    assert_eq!(r1.choices(), r2.choices());
    let m1 = verdict1.expect_err("replay 1 must fire the oracle");
    let m2 = verdict2.expect_err("replay 2 must fire the oracle");
    assert_eq!(m1, v.message, "{what}: replayed anomaly differs");
    assert_eq!(m1, m2);
}

#[test]
fn duplicate_key_anomaly_replays_from_seed() {
    find_and_replay(
        || uniqueness_trial(IsolationLevel::ReadCommitted, Guard::Feral, 2),
        "duplicate-keys",
    );
}

#[test]
fn orphaned_row_anomaly_replays_from_seed() {
    find_and_replay(
        || orphan_trial(IsolationLevel::ReadCommitted, Guard::Feral, 1),
        "orphaned-rows",
    );
}

#[test]
fn three_writer_duplicate_search_replays_from_seed() {
    find_and_replay(
        || uniqueness_trial(IsolationLevel::ReadCommitted, Guard::Feral, 3),
        "duplicate-keys-3-writers",
    );
}

/// The full application stack — two clients each calling
/// `PooledService::call` with one create request — also runs under the
/// simulated scheduler: request handling becomes schedule branch points,
/// and anomalies found through the HTTP-ish front door replay from a seed
/// just the same.
fn deployment_trial() -> Trial {
    use feral_server::{PooledService, Request, Service};
    use std::sync::Arc;

    let app = {
        let db = feral_db::Database::new(feral_db::Config {
            default_isolation: IsolationLevel::ReadCommitted,
            ..feral_db::Config::default()
        });
        let app = feral_orm::App::new(db);
        app.define(
            feral_orm::ModelDef::build("KeyValue")
                .string("key")
                .string("value")
                .validates_uniqueness_of("key")
                .finish(),
        )
        .unwrap();
        app
    };
    let svc = Arc::new(PooledService::new(app.clone(), 2));
    let workers = [(1, "a"), (2, "b")]
        .into_iter()
        .map(|(session, value)| {
            let svc = svc.clone();
            Box::new(move || {
                let _ = svc.call(
                    Request::builder("KeyValue")
                        .session(session)
                        .attr("key", Datum::text("k"))
                        .attr("value", Datum::text(value))
                        .create(),
                );
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    Trial {
        workers,
        check: Box::new(move || {
            let dups = feral_sim::oracles::duplicate_keys(app.db(), "key_values", "key");
            if dups.is_empty() {
                Ok(())
            } else {
                Err(format!("duplicate keys through the service: {dups:?}"))
            }
        }),
    }
}

#[test]
fn deployment_round_anomaly_replays_from_seed() {
    find_and_replay(deployment_trial, "deployment-duplicate-keys");
}
