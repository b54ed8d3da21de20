//! The system under test, assembled through its public API only, with
//! `ServerConfig::default()` and `feral_db::Config::default()` except
//! the fields a workload states: a later change to a default is
//! measured, not masked.

use crate::gen::{self, Mix};
use crate::span::{CallTable, TracedService};
use feral_db::{AuditMode, Config, Database, Datum};
use feral_net::planner::{certified_plan, seeded_database, PlannedService};
use feral_net::{Server, ServerConfig};
use feral_orm::{App, ModelDef};
use feral_server::{PooledService, Service};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How the generator reaches the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Over TCP on loopback, through `feral_net::Server`.
    Wire,
    /// `Service::call` straight from the generator's threads.
    InProc,
}

/// One workload: what it sends, how, against what, and the two frozen
/// rates that size its phases.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Socket or direct call.
    pub transport: Transport,
    /// Request mix.
    pub mix: Mix,
    /// Bind a synced WAL (`wal_path` set, `wal_sync = true`)?
    pub durable: bool,
    /// Rows preloaded before the first request.
    pub preload: u64,
    /// Open-loop rate of the paced phase, requests/s: half the seed
    /// commit's median `sat_rps`, two significant figures, frozen.
    pub paced_rps: u64,
    /// Fresh copies of the system the timed seconds are spread over; the
    /// metrics are medians over the rounds.
    pub rounds: usize,
    /// Requests per second of `--seconds` the closed-loop phases issue:
    /// the seed commit's `sat_rps`, rounded, so a timed phase lasts
    /// about as long as asked there. Frozen, so the work is the same on
    /// every commit.
    pub sized_rps: u64,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_signup_durable",
        transport: Transport::Wire,
        mix: Mix::Signup,
        durable: true,
        preload: 50_000,
        paced_rps: 1_600,
        rounds: 1,
        sized_rps: 6_500,
    },
    Workload {
        name: "wire_read_mostly",
        transport: Transport::Wire,
        mix: Mix::ReadMostly { rows: 100_000 },
        durable: false,
        preload: 100_000,
        paced_rps: 30_000,
        rounds: 1,
        sized_rps: 120_000,
    },
    Workload {
        name: "inproc_read_mostly",
        transport: Transport::InProc,
        mix: Mix::ReadMostly { rows: 100_000 },
        durable: false,
        preload: 100_000,
        paced_rps: 0,
        rounds: 1,
        sized_rps: 370_000,
    },
    Workload {
        name: "inproc_planner_hot",
        transport: Transport::InProc,
        mix: Mix::Planner,
        durable: false,
        preload: 0,
        paced_rps: 0,
        rounds: 8,
        sized_rps: 65_000,
    },
];

/// The `User` model of the ORM workloads: the paper's feral pair,
/// presence and uniqueness, over a *non-unique* index.
pub fn user_model() -> ModelDef {
    ModelDef::build("User")
        .string("email")
        .string("name")
        .string("bio")
        .validates_presence_of("email")
        .validates_uniqueness_of("email")
        .finish()
}

/// The engine configuration a workload runs under.
pub fn db_config(workload: &Workload, wal_path: Option<&Path>) -> Config {
    match workload.mix {
        // `seeded_database` states its own: serializable default, 8 shards
        Mix::Planner => Config {
            default_isolation: feral_db::IsolationLevel::Serializable,
            ..Config::default()
        },
        _ => Config {
            wal_path: wal_path.map(Path::to_path_buf),
            wal_sync: wal_path.is_some(),
            ..Config::default()
        },
    }
}

/// A running system under test.
pub struct Stack {
    /// The engine.
    pub db: Database,
    /// The ORM application (ORM workloads).
    pub app: Option<App>,
    /// The planner frontend (planner workload).
    pub planner: Option<Arc<PlannedService>>,
    /// What the generator or the server calls: the service itself, or
    /// the benchmark's traced wrapper around it.
    pub service: Arc<dyn Service>,
    /// The wire tier, when the workload crosses it.
    pub server: Option<Server>,
    /// The bound WAL, when durable.
    pub wal_path: Option<PathBuf>,
}

impl Stack {
    /// Schema, preload, service, server: everything before the first
    /// request. `calls` wraps the service in a [`TracedService`].
    pub fn build(
        workload: &Workload,
        seed: u64,
        rows: u64,
        calls: Option<Arc<CallTable>>,
        wal_path: Option<PathBuf>,
    ) -> Result<Stack, String> {
        let executors = ServerConfig::default().executors;
        let (db, app, planner, inner): (_, _, _, Arc<dyn Service>) = match workload.mix {
            Mix::Planner => {
                let db = seeded_database(AuditMode::Off);
                let svc = Arc::new(PlannedService::new(db.clone(), certified_plan()));
                (db, None, Some(svc.clone()), svc)
            }
            _ => {
                if let Some(path) = &wal_path {
                    let _ = std::fs::remove_file(path);
                }
                let db = Database::open(db_config(workload, wal_path.as_deref()))
                    .map_err(|e| format!("open database: {e}"))?;
                let app = App::new(db.clone());
                app.define(user_model()).map_err(|e| e.to_string())?;
                app.add_index("User", &["email"], false)
                    .map_err(|e| e.to_string())?;
                preload_users(&db, seed, rows)?;
                let svc = Arc::new(PooledService::new(app.clone(), executors));
                (db, Some(app), None, svc)
            }
        };
        let service: Arc<dyn Service> = match calls {
            Some(calls) => Arc::new(TracedService::new(inner, calls)),
            None => inner,
        };
        let server = match workload.transport {
            Transport::Wire => Some(
                Server::start(service.clone(), ServerConfig::default())
                    .map_err(|e| format!("start server: {e}"))?,
            ),
            Transport::InProc => None,
        };
        Ok(Stack {
            db,
            app,
            planner,
            service,
            server,
            wal_path,
        })
    }

    /// A small in-process ORM stack of `rows` users: where a workload
    /// has no ORM in its path, the ORM's own costs are taken on this.
    pub fn scratch_orm(seed: u64, rows: u64) -> Result<Stack, String> {
        let orm = WORKLOADS
            .iter()
            .find(|w| w.transport == Transport::InProc && w.mix != Mix::Planner)
            .expect("an in-process ORM workload is defined");
        Stack::build(orm, seed, rows, None, None)
    }

    /// Stop the server (if any) and drop every handle on the database.
    /// Returns the WAL path for a durable stack.
    pub fn shutdown(self) -> Option<PathBuf> {
        if let Some(server) = self.server {
            server.shutdown();
        }
        self.wal_path
    }
}

/// Rows one preload transaction inserts. One transaction for the whole
/// table is quadratic in this engine: every insert checks the unique
/// primary key against each of the transaction's own pending writes
/// (50k rows take 35 s, 200k would take ten minutes).
const PRELOAD_BATCH: u64 = 1_000;

/// `rows` users, straight through the engine (the ORM would validate
/// each against the rest). Row `r` gets id `r + 1` and the e-mail
/// [`gen::preload_email`] names.
fn preload_users(db: &Database, seed: u64, rows: u64) -> Result<(), String> {
    // a fixed instant, so two runs build byte-identical tables
    let stamp = Datum::Timestamp(1_420_070_400_000_000);
    for from in (0..rows).step_by(PRELOAD_BATCH as usize) {
        db.txn()
            .run(|tx| {
                for row in from..(from + PRELOAD_BATCH).min(rows) {
                    let [email, name, bio] = gen::user_attrs(gen::preload_email(seed, row));
                    tx.insert_pairs(
                        "users",
                        &[
                            email,
                            name,
                            bio,
                            ("created_at", stamp.clone()),
                            ("updated_at", stamp.clone()),
                        ],
                    )?;
                }
                Ok(())
            })
            .map_err(|e| format!("preload: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_server::{Request, Response};

    #[test]
    fn preloaded_rows_answer_under_the_generated_email() {
        let stack = Stack::build(&WORKLOADS[2], 5, 300, None, None).unwrap();
        assert_eq!(stack.db.count_rows("users").unwrap(), 300);
        let Response::Found(rec) = stack.service.call(Request::builder("User").get(300)) else {
            panic!("preloaded id must be found")
        };
        let want = gen::email_of(gen::preload_email(5, 299));
        assert_eq!(rec.get("email").as_text(), Some(want.as_str()));
        // a taken address is rejected ferally, a free one is created
        let taken = gen::request(
            &gen::Spec::Post {
                email: gen::preload_email(5, 0),
            },
            1,
        );
        assert!(matches!(stack.service.call(taken), Response::Invalid(_)));
        stack.shutdown();
    }

    #[test]
    fn planner_stack_has_no_orm_and_the_planner_config_matches_the_seeded_one() {
        let stack = Stack::build(&WORKLOADS[3], 1, 0, None, None).unwrap();
        assert!(stack.app.is_none() && stack.planner.is_some());
        assert_eq!(
            stack.db.default_isolation(),
            db_config(&WORKLOADS[3], None).default_isolation
        );
        assert_eq!(
            stack.db.commit_shards(),
            db_config(&WORKLOADS[3], None).commit_shards
        );
        stack.shutdown();
    }
}
