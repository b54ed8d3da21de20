//! The planner-vs-all-serializable ablation served live: the certified
//! five-template workload runs through `Server` and `NetClient` with the
//! runtime auditor attached, under the certified per-template plan (once
//! sampled, once auditing every transaction) and with every template at
//! SERIALIZABLE. Every run must come out clean — the plan coordinates
//! only where an invariant needs it, so dropping the rest of the
//! coordination costs no integrity.
//!
//! Per configuration the run must complete work, answer every call as
//! ok, shed or error with none lost, end with a zero integrity audit
//! and zero observed dependency cycles, and export an audit snapshot
//! that passes the audit schema.

use feral_audit::validate_audit_json;
use feral_db::{AuditMode, IsolationLevel, IsolationPlan};
use feral_net::planner::{certified_plan, seeded_database, PlannedService, TemplateMix};
use feral_net::{NetClient, Server, ServerConfig};
use feral_orm::OrmError;
use feral_server::{Request, Response, Service};
use std::sync::Arc;
use std::time::Duration;

/// Client threads, each driving its own template stream.
const THREADS: u64 = 4;
/// Calls per client thread.
const CALLS: u64 = 500;

/// How the calls of one run were answered.
#[derive(Debug, Default)]
struct Tally {
    ok: u64,
    shed: u64,
    errors: u64,
    /// Calls whose reply never arrived (`NetClient` reports a transport
    /// failure as a `net:`-prefixed config error).
    lost: u64,
}

impl Tally {
    fn count(&mut self, response: &Response) {
        match response {
            Response::Overloaded => self.shed += 1,
            Response::Error(OrmError::Config(msg)) if msg.starts_with("net:") => self.lost += 1,
            Response::Error(_) | Response::Invalid(_) => self.errors += 1,
            _ => self.ok += 1,
        }
    }
}

/// Serve the planner workload under `plan` with the auditor at
/// `audit_mode`, drive it over the wire, and enforce every ablation gate.
fn serve_and_gate(config: &str, plan: IsolationPlan, audit_mode: AuditMode) {
    let service = Arc::new(PlannedService::new(seeded_database(audit_mode), plan));
    let server = Server::start(service.clone(), ServerConfig::default()).expect("start server");
    let mut client =
        NetClient::connect(server.local_addr(), THREADS as usize).expect("connect client");
    client.set_read_timeout(Duration::from_secs(10));

    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let client = &client;
        let runs: Vec<_> = (0..THREADS)
            .map(|thread| {
                scope.spawn(move || {
                    let mut mix = TemplateMix::new(0xAB1A_7E00 + thread);
                    (0..CALLS)
                        .map(|call| {
                            let (template, key) = mix.draw();
                            let session = thread * CALLS + call;
                            client.call(Request::template(template, key).with_session(session))
                        })
                        .collect::<Vec<Response>>()
                })
            })
            .collect();
        for run in runs {
            for response in run.join().expect("client thread") {
                tally.count(&response);
            }
        }
    });
    drop(client);
    server.shutdown();

    assert!(tally.ok > 0, "{config}: no call completed: {tally:?}");
    assert_eq!(
        tally.ok + tally.shed + tally.errors,
        THREADS * CALLS,
        "{config}: calls lost or unaccounted for: {tally:?}"
    );

    let anomalies = service.integrity_audit();
    assert_eq!(
        anomalies.total(),
        0,
        "{config}: integrity anomalies: {}",
        anomalies.describe()
    );
    let snapshot = service
        .db()
        .audit_snapshot()
        .unwrap_or_else(|| panic!("{config}: the auditor left no snapshot"));
    assert_eq!(
        snapshot.cycles, 0,
        "{config}: the runtime auditor observed dependency cycles"
    );
    if let Err(e) = validate_audit_json(&snapshot.to_json()) {
        panic!("{config}: audit snapshot fails its schema: {e}");
    }
}

#[test]
fn the_certified_plan_serves_clean() {
    serve_and_gate("planner", certified_plan(), AuditMode::Sampled(16));
    serve_and_gate("planner, fully audited", certified_plan(), AuditMode::Full);
}

#[test]
fn all_serializable_serves_clean() {
    serve_and_gate(
        "all-serializable",
        IsolationPlan::new(IsolationLevel::Serializable),
        AuditMode::Sampled(16),
    );
}
