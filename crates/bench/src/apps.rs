//! The experimental applications of the paper's Appendix C, built with
//! `feral-orm`, and the round driver that issues their requests.

use feral_db::{Config, Database, IsolationLevel};
use feral_orm::{App, Dependent, ModelDef};
use feral_server::{Request, Response, Service};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Duration;

/// Enforcement configuration for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforcement {
    /// No validations at all (the paper's "without validation" series).
    None,
    /// Feral validations only (Rails defaults).
    Feral,
    /// Feral validations plus the in-database constraint (the migration
    /// fix: unique index / foreign key).
    Database,
}

impl Enforcement {
    /// Series label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Enforcement::None => "without-validation",
            Enforcement::Feral => "with-validation",
            Enforcement::Database => "with-db-constraint",
        }
    }
}

/// Database + client knobs shared by the experiments.
#[derive(Debug, Clone)]
pub struct ExperimentEnv {
    /// Isolation level of every session.
    pub isolation: IsolationLevel,
    /// Reproduce PostgreSQL bug #11732 under Serializable.
    pub pg_ssi_bug: bool,
    /// Validate→write delay modelling deployment latency.
    pub delay: Duration,
    /// Upper bound of the random delay each client sleeps before each
    /// request ([`drive_rounds`]), modelling HTTP proxying and VM
    /// scheduling spread in a real deployment.
    pub jitter: Duration,
}

impl Default for ExperimentEnv {
    fn default() -> Self {
        ExperimentEnv {
            isolation: IsolationLevel::ReadCommitted,
            pg_ssi_bug: false,
            delay: Duration::from_micros(300),
            jitter: Duration::from_millis(2),
        }
    }
}

fn database(env: &ExperimentEnv) -> Database {
    Database::new(Config {
        default_isolation: env.isolation,
        pg_ssi_bug: env.pg_ssi_bug,
        ..Config::default()
    })
}

/// Appendix C.1: the key/value application with an optional uniqueness
/// validation on `key` (`SimpleKeyValue` vs `ValidatedKeyValue`, modelled
/// as one model whose validations depend on `enforcement`).
pub fn key_value_app(enforcement: Enforcement, env: &ExperimentEnv) -> App {
    let app = App::new(database(env));
    let mut builder = ModelDef::build("KeyValue").string("key").string("value");
    if enforcement != Enforcement::None {
        builder = builder
            .validates_presence_of("key")
            .validates_uniqueness_of("key");
    }
    app.define(builder.finish()).unwrap();
    if enforcement == Enforcement::Database {
        // the migration of §5.2 footnote 10: a unique index, declared
        // separately from the model
        app.add_index("KeyValue", &["key"], true).unwrap();
    }
    app.set_validation_write_delay(env.delay);
    app
}

/// Appendix C.4: Users and Departments with a one-to-many association.
/// With `Enforcement::Feral`, the department `has_many :users, dependent:
/// :destroy` and users validate department presence; with
/// `Enforcement::Database` an in-database FK (cascade) is added.
pub fn users_departments_app(enforcement: Enforcement, env: &ExperimentEnv) -> App {
    let app = App::new(database(env));
    let mut dept = ModelDef::build("Department").string("name");
    let mut user = ModelDef::build("User").belongs_to("department");
    if enforcement != Enforcement::None {
        dept = dept.has_many_dependent("users", Dependent::Destroy);
        user = user.validates_presence_of("department");
    }
    app.define(dept.finish()).unwrap();
    app.define(user.finish()).unwrap();
    if enforcement == Enforcement::Database {
        app.add_foreign_key("User", "department", feral_db::OnDelete::Cascade)
            .unwrap();
    }
    app.set_validation_write_delay(env.delay);
    app
}

/// Issue `rounds` of requests through `svc` from `clients` threads, the
/// paper's "blocking in-between rounds to ensure that each round is, in
/// fact, a concurrent set of requests" (§5.2), and return each round's
/// responses in request order.
///
/// Thread `t` issues requests `t`, `t + clients`, … of every round, so at
/// most `clients` requests are in flight at once — the worker count of
/// the §5.1 bound. Before each request it sleeps a delay drawn up to
/// `jitter` from an RNG seeded `seed + t`. The threads are spawned once
/// per call, not per round, because the trace rings of exited threads
/// are what provenance reads.
pub fn drive_rounds(
    svc: &dyn Service,
    clients: usize,
    jitter: Duration,
    seed: u64,
    rounds: Vec<Vec<Request>>,
) -> Vec<Vec<Response>> {
    let clients = clients.max(1);
    let mut out: Vec<Vec<Option<Response>>> = rounds
        .iter()
        .map(|round| round.iter().map(|_| None).collect())
        .collect();
    let mut hands: Vec<Vec<Vec<(usize, Request)>>> = (0..clients).map(|_| Vec::new()).collect();
    for round in rounds {
        hands.iter_mut().for_each(|hand| hand.push(Vec::new()));
        for (i, request) in round.into_iter().enumerate() {
            hands[i % clients].last_mut().unwrap().push((i, request));
        }
    }
    let barrier = Barrier::new(clients);
    let answers: Vec<Vec<(usize, usize, Response)>> = std::thread::scope(|scope| {
        let threads: Vec<_> = hands
            .into_iter()
            .enumerate()
            .map(|(t, hand)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
                    let mut answers = Vec::new();
                    let mut panicked = None;
                    for (r, round) in hand.into_iter().enumerate() {
                        for (i, request) in round {
                            if !jitter.is_zero() {
                                let us = rng.random_range(0..=jitter.as_micros() as u64);
                                std::thread::sleep(Duration::from_micros(us));
                            }
                            let span = feral_trace::start_phase(feral_trace::Phase::Request);
                            // a panicking call must not strand the other
                            // threads at the barrier: re-raise it at the end
                            match catch_unwind(AssertUnwindSafe(|| svc.call(request))) {
                                Ok(response) => answers.push((r, i, response)),
                                Err(payload) => panicked = Some(payload),
                            }
                            span.finish(0);
                        }
                        barrier.wait();
                    }
                    if let Some(payload) = panicked {
                        resume_unwind(payload);
                    }
                    answers
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    for (r, i, response) in answers.into_iter().flatten() {
        out[r][i] = Some(response);
    }
    out.into_iter()
        .map(|round| round.into_iter().map(Option::unwrap).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_db::Datum;
    use feral_server::PooledService;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn round_returns_all_responses_in_order() {
        let svc = PooledService::new(App::in_memory(), 4);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let rounds: Vec<Vec<Request>> = (0..4)
            .map(|r| {
                (0..8)
                    .map(|i| {
                        let (in_flight, peak) = (in_flight.clone(), peak.clone());
                        Request::custom(move |_| {
                            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(1));
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                            Response::Created(r * 8 + i)
                        })
                    })
                    .collect()
            })
            .collect();
        let responses = drive_rounds(&svc, 4, Duration::ZERO, 7, rounds);
        let ids: Vec<i64> = responses
            .iter()
            .flatten()
            .map(|r| match r {
                Response::Created(id) => *id,
                other => panic!("expected Created, got {other:?}"),
            })
            .collect();
        assert_eq!(ids, (0..32).collect::<Vec<i64>>());
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=4).contains(&peak), "{peak} requests in flight");
    }

    #[test]
    #[should_panic(expected = "client thread panicked")]
    fn a_panicking_call_fails_the_run_instead_of_hanging_it() {
        let svc = PooledService::new(App::in_memory(), 2);
        let rounds = (0..2)
            .map(|r| {
                (0..2)
                    .map(|i| {
                        Request::custom(move |_| {
                            assert!((r, i) != (0, 0), "controller bug");
                            Response::Ok
                        })
                    })
                    .collect()
            })
            .collect();
        drive_rounds(&svc, 2, Duration::ZERO, 0, rounds);
    }

    #[test]
    fn key_value_variants() {
        let env = ExperimentEnv::default();
        let none = key_value_app(Enforcement::None, &env);
        let mut s = none.session();
        // duplicates allowed with no validation
        for _ in 0..2 {
            s.create_strict(
                "KeyValue",
                &[("key", Datum::text("k")), ("value", Datum::text("v"))],
            )
            .unwrap();
        }
        assert_eq!(s.count("KeyValue").unwrap(), 2);

        let feral = key_value_app(Enforcement::Feral, &env);
        let mut s = feral.session();
        s.create_strict(
            "KeyValue",
            &[("key", Datum::text("k")), ("value", Datum::text("v"))],
        )
        .unwrap();
        let dup = s
            .create(
                "KeyValue",
                &[("key", Datum::text("k")), ("value", Datum::text("v"))],
            )
            .unwrap();
        assert!(!dup.is_persisted());
    }

    #[test]
    fn users_departments_variants() {
        let env = ExperimentEnv::default();
        let app = users_departments_app(Enforcement::Feral, &env);
        let mut s = app.session();
        let d = s
            .create_strict("Department", &[("name", Datum::text("eng"))])
            .unwrap();
        s.create_strict("User", &[("department_id", Datum::Int(d.id().unwrap()))])
            .unwrap();
        // feral: user creation without department rejected
        let bad = s
            .create("User", &[("department_id", Datum::Int(999))])
            .unwrap();
        assert!(!bad.is_persisted());
        // db variant has a real FK
        let db = users_departments_app(Enforcement::Database, &env);
        assert_eq!(db.db().foreign_key_count(), 1);
    }
}
