//! feral-net — the wire frontend over the certified planner workload.
//!
//! ```text
//! feral-net serve [--addr A] [--executors P] [--queue Q] ...   # run a server
//! ```
//!
//! Load is driven from outside: `benchmark/` (the repository's one load
//! harness) serves the same `PlannedService` through `Server`.

use feral_cli::{die, render_help, Args};
use feral_db::AuditMode;
use feral_net::planner::{certified_plan, seeded_database, PlannedService};
use feral_net::{Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;

const TOOL: &str = "feral-net";

/// Every flag `serve` reads; any other is a usage error.
const FLAGS: &[&str] = &[
    "addr",
    "executors",
    "max-conns",
    "queue",
    "inflight",
    "sample",
];

fn help() -> String {
    render_help(
        TOOL,
        "binary wire protocol server over the certified planner workload",
        "  feral-net serve [--addr HOST:PORT] [--executors P] [--max-conns M] [--queue Q]\n\
         \x20                 [--inflight K] [--sample N]\n",
        "  --addr HOST:PORT  bind address (default 127.0.0.1:0, printed once bound)\n\
         \x20 --executors P     workers: each owns its sockets and runs its requests (default 4)\n\
         \x20 --max-conns M     live-connection admission bound (default 1024)\n\
         \x20 --queue Q         bound on replies parked on a WAL flush, server-wide (default 1024)\n\
         \x20 --inflight K      per-connection bound on replies not yet written (default 64)\n\
         \x20 --sample N        the runtime auditor audits 1 transaction in N (default 64)\n",
        FLAGS,
    )
}

fn serve(args: &Args) -> ExitCode {
    let config = ServerConfig {
        addr: args.get_str("addr").unwrap_or("127.0.0.1:0").to_string(),
        executors: args.get_usize("executors", 4),
        max_conns: args.get_usize("max-conns", 1024),
        queue: args.get_usize("queue", 1024),
        inflight: args.get_usize("inflight", 64),
    };
    let db = seeded_database(AuditMode::Sampled(args.get_u64("sample", 64) as u32));
    let service = Arc::new(PlannedService::new(db, certified_plan()));
    let server = match Server::start(service, config) {
        Ok(s) => s,
        Err(e) => die(TOOL, &format!("cannot start server: {e}")),
    };
    eprintln!(
        "{TOOL}: serving the certified planner workload on {}",
        server.local_addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    match argv.first().map(String::as_str) {
        Some("serve") => serve(&Args::parse(TOOL, argv[1..].iter().cloned(), FLAGS)),
        Some(other) if !other.starts_with("--") => {
            die(TOOL, &format!("unknown subcommand `{other}`"))
        }
        _ => {
            print!("{}", help());
            ExitCode::from(feral_cli::EXIT_USAGE)
        }
    }
}
