//! The Figure 2 stress shape served live: `key_value_app` behind
//! `feral_net::Server` over a `PooledService`, driven through `NetClient`
//! by the same round driver the in-process figures use. The wire must
//! change no count: the exact figures of the in-process unit tests hold.

use feral_bench::apps::{drive_rounds, key_value_app, Enforcement, ExperimentEnv};
use feral_bench::uniqueness::{stress_rounds, tally, UniquenessResult};
use feral_net::{NetClient, Server, ServerConfig};
use feral_server::PooledService;
use std::sync::Arc;
use std::time::Duration;

/// Clients, and sessions in the served pool.
const CLIENTS: usize = 4;

/// Serve the app of `enforcement` and run 5 rounds × 8 concurrent
/// same-key inserts through the socket.
fn served_stress(enforcement: Enforcement, seed: u64) -> UniquenessResult {
    let env = ExperimentEnv::default();
    let app = key_value_app(enforcement, &env);
    let server = Server::start(
        Arc::new(PooledService::new(app.clone(), CLIENTS)),
        ServerConfig::default(),
    )
    .expect("start server");
    let mut client = NetClient::connect(server.local_addr(), CLIENTS).expect("connect client");
    client.set_read_timeout(Duration::from_secs(10));
    let responses = drive_rounds(&client, CLIENTS, env.jitter, seed, stress_rounds(5, 8));
    drop(client);
    server.shutdown();
    tally(&app, &responses)
}

#[test]
fn served_stress_without_validation_admits_every_duplicate() {
    let r = served_stress(Enforcement::None, 1);
    assert_eq!(r.rows, 40);
    assert_eq!(r.duplicates, 35);
    assert_eq!(r.rejected, 0);
}

#[test]
fn served_stress_with_db_constraint_admits_no_duplicates() {
    let r = served_stress(Enforcement::Database, 2);
    assert_eq!(r.duplicates, 0);
    assert_eq!(r.rows, 5);
}
