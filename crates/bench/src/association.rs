//! Association experiments (paper §5.4): the Figure 4 stress test and the
//! Figure 5 contention-varying workload.

use crate::apps::{drive_rounds, users_departments_app, Enforcement, ExperimentEnv};
use feral_db::Datum;
use feral_orm::App;
use feral_server::{PooledService, Request, Response};
use feral_sql::SqlSession;
use feral_workloads::{MixDriver, OpKind};

/// Result of one association run.
#[derive(Debug, Clone, Copy)]
pub struct AssociationResult {
    /// Users whose department no longer exists (the paper's orphan
    /// count).
    pub orphans: u64,
    /// Users persisted in total.
    pub users: u64,
    /// Departments remaining.
    pub departments: u64,
}

/// Count orphans with the paper's Appendix C.5 LEFT OUTER JOIN query.
/// Debug builds cross-check the SQL count against the `feral-sim`
/// orphaned-row oracle.
pub fn count_orphans(app: &App) -> u64 {
    let mut sql = SqlSession::new(app.db().clone());
    let rows = sql
        .execute(
            "SELECT department_id, COUNT(*) FROM users AS U \
             LEFT OUTER JOIN departments AS D ON U.department_id = D.id \
             WHERE D.id IS NULL GROUP BY department_id HAVING COUNT(*) > 0",
        )
        .expect("orphan-count query")
        .rows();
    let total: u64 = rows.iter().map(|r| r[1].as_int().unwrap_or(0) as u64).sum();
    debug_assert_eq!(
        total,
        feral_sim::oracles::orphan_count(app.db(), "users", "department_id", "departments") as u64,
        "SQL orphan count disagrees with the sim oracle"
    );
    total
}

/// Figure 4 stress test (Appendix C.5): create `rounds` departments; for
/// each, concurrently issue one department delete plus `inserters` user
/// creations into it, against `workers` workers.
pub fn association_stress(
    enforcement: Enforcement,
    env: &ExperimentEnv,
    workers: usize,
    rounds: usize,
    inserters: usize,
    seed: u64,
) -> AssociationResult {
    let app = users_departments_app(enforcement, env);
    // initialize departments up front, as the appendix does
    let mut dept_ids = Vec::with_capacity(rounds);
    {
        let mut s = app.session();
        for i in 0..rounds {
            let d = s
                .create_strict("Department", &[("name", Datum::text(format!("d{i}")))])
                .unwrap();
            dept_ids.push(d.id().unwrap());
        }
    }
    let rounds = dept_ids
        .iter()
        .map(|&dept| {
            let mut requests: Vec<Request> = Vec::with_capacity(inserters + 1);
            requests.push(Request::builder("Department").destroy(dept));
            for client in 0..inserters {
                requests.push(
                    Request::builder("User")
                        .session(client as u64 + 1)
                        .attr("department_id", Datum::Int(dept))
                        .create(),
                );
            }
            requests
        })
        .collect();
    let svc = PooledService::new(app.clone(), workers);
    drive_rounds(&svc, workers, env.jitter, seed, rounds);
    summarize(&app)
}

/// Figure 5 workload (Appendix C.6): initialize `departments`
/// departments; `clients` clients concurrently issue `ops` operations
/// each at a 10:1 create-user : delete-department ratio over random
/// departments.
pub fn association_workload(
    enforcement: Enforcement,
    env: &ExperimentEnv,
    clients: usize,
    ops: usize,
    departments: u64,
    seed: u64,
) -> AssociationResult {
    let app = users_departments_app(enforcement, env);
    let mut dept_ids = Vec::with_capacity(departments as usize);
    {
        let mut s = app.session();
        for i in 0..departments {
            let d = s
                .create_strict("Department", &[("name", Datum::text(format!("d{i}")))])
                .unwrap();
            dept_ids.push(d.id().unwrap());
        }
    }
    let mut streams: Vec<MixDriver> = (0..clients)
        .map(|c| {
            MixDriver::new(
                Box::new(feral_workloads::Uniform::new(departments, seed + c as u64)),
                &[(OpKind::Create, 10), (OpKind::Delete, 1)],
                seed ^ (c as u64) << 8,
            )
        })
        .collect();
    let rounds = (0..ops)
        .map(|_| {
            streams
                .iter_mut()
                .enumerate()
                .map(|(client, s)| {
                    let op = s.next_op();
                    let dept = dept_ids[op.key as usize];
                    match op.kind {
                        OpKind::Delete => Request::builder("Department")
                            .session(client as u64)
                            .destroy(dept),
                        _ => Request::builder("User")
                            .session(client as u64)
                            .attr("department_id", Datum::Int(dept))
                            .create(),
                    }
                })
                .collect()
        })
        .collect();
    let svc = PooledService::new(app.clone(), clients);
    for r in drive_rounds(&svc, clients, env.jitter, seed, rounds)
        .iter()
        .flatten()
    {
        // deletions of already-deleted departments and rejected user
        // creations are expected outcomes, not errors
        debug_assert!(
            !matches!(r, Response::Error(ref e) if !e.is_retryable()
            && !matches!(e, feral_orm::OrmError::Db(d) if d.is_constraint_violation())),
            "unexpected response: {r:?}"
        );
    }
    summarize(&app)
}

fn summarize(app: &App) -> AssociationResult {
    let mut s = app.session();
    AssociationResult {
        orphans: count_orphans(app),
        users: s.count("User").unwrap() as u64,
        departments: s.count("Department").unwrap() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_without_constraints_orphans_everything() {
        let env = ExperimentEnv::default();
        let r = association_stress(Enforcement::None, &env, 4, 5, 8, 1);
        // every user creation succeeded and every department died
        assert_eq!(r.departments, 0);
        assert_eq!(r.users, 40);
        assert_eq!(r.orphans, 40);
    }

    #[test]
    fn stress_with_db_fk_leaves_no_orphans() {
        let env = ExperimentEnv::default();
        let r = association_stress(Enforcement::Database, &env, 8, 5, 8, 2);
        assert_eq!(r.orphans, 0);
        assert_eq!(r.departments, 0);
    }

    #[test]
    fn workload_runs_and_reports() {
        let env = ExperimentEnv::default();
        let r = association_workload(Enforcement::Feral, &env, 4, 10, 5, 3);
        assert!(r.users + r.departments > 0);
    }
}
