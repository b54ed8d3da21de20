//! One run of one workload: generate, set up, warm up, time the phases,
//! check the outputs, and print every metric by name.

use crate::gen::{self, Mix, Pace, Phase, PhaseShape, Spec, NPROC};
use crate::layers;
use crate::load::{self, Conn, Log, Outcome};
use crate::report::Report;
use crate::span::{self, CallTable, RequestSpans};
use crate::stack::{db_config, Stack, Transport, Workload};
use crate::stats::{median, quantile, window_rates, windowed_percentile, Sorted};
use crate::sys::{now_ns, peak_rss_mb, tighten_timer_slack, Usage};
use feral_db::{Predicate, StatsSnapshot};
use feral_net::ServerConfig;
use feral_server::Response;
use feral_trace::{HistogramSnapshot, Phase as TracePhase};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Untimed closed-loop seconds before the first timed request (spread
/// over the rounds of a workload that has several).
const WARMUP_S: f64 = 2.0;
/// Requests each connection keeps in flight in a closed-loop wire phase:
/// below the server's default per-connection cap of 64, so nothing is
/// shed by construction.
const DEPTH: usize = 16;
/// Fewest set-ups per run; `setup_s` is their median. A set-up that
/// takes milliseconds is repeated until [`SETUP_BUDGET_S`] is spent (at
/// most [`MAX_SETUPS`] times), so its median is as steady as a slow one's.
const SETUPS: usize = 3;
const MAX_SETUPS: usize = 32;
const SETUP_BUDGET_S: f64 = 0.5;
/// Equal-count windows a timed phase is cut into. `sat_rps` is the upper
/// quartile of the windows' rates and a latency percentile the lower
/// quartile of the windows' percentiles: a neighbour's burst on a shared
/// box only ever slows a window down, so the better windows are the
/// undisturbed ones. The whole phase's figure is printed beside each.
const WINDOWS: usize = 40;
/// Fewest latency samples in a window: ten beyond its p99.
const WINDOW_SAMPLES: usize = 1_000;
/// An untraced in-process caller times every this-many-th call.
const SAMPLE_EVERY: usize = 8;
/// Rows of the scratch ORM table a workload without an ORM is given.
const SCRATCH_ROWS: u64 = 2_000;
/// Replies each thread keeps per traced phase for the codec ledger.
const KEEP_REPLIES: usize = 50_000;
/// A paced phase measured the scheduler, not the server, when the
/// generator's own median lateness passes this share of the median
/// latency. (A thread wake-up costs ~25 us on this box and the generator
/// pays one per send, so the p99 the issue first proposed — 10 % of
/// `lat_p50_us` — cannot be met even at an idle 5k requests/s; the
/// median is also the statistic one neighbour's stall does not move.)
const LATE_GATE: f64 = 0.5;

/// What to run.
pub struct Opts {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the request stream.
    pub seed: u64,
    /// Timed seconds: split evenly over a wire workload's paced and
    /// saturation phases, all of an in-process workload's one phase.
    pub seconds: f64,
    /// Traced run (per-layer ledger) instead of an end-to-end one.
    pub trace: bool,
    /// Tiny counts: schema and output checks only.
    pub smoke: bool,
    /// Where the WAL, the scratch log and the trace file go.
    pub out_dir: PathBuf,
}

/// What a run found.
pub struct Verdict {
    /// Every output check passed.
    pub correct: bool,
    /// The paced phase measured the server, not the generator.
    pub valid: bool,
    /// Timed requests sent.
    pub attempted: u64,
    /// Of those: shed + error + lost + wrong answer.
    pub failed: u64,
    /// Every metric, by name.
    pub report: Report,
}

/// One phase, as it ran.
struct Executed<'a> {
    phase: &'a Phase,
    logs: Vec<Log>,
    start_ns: u64,
    /// Calls each stamp stands for: an untraced in-process caller stamps
    /// one call in [`SAMPLE_EVERY`].
    stamp_weight: f64,
    usage: Usage,
    stats: StatsSnapshot,
    wal_bytes: u64,
    hists: Vec<(TracePhase, HistogramSnapshot)>,
}

impl Executed<'_> {
    fn count(&self, outcome: Outcome) -> u64 {
        self.logs
            .iter()
            .flat_map(|l| &l.outcome)
            .filter(|o| **o == outcome)
            .count() as u64
    }

    /// One value per correct, stamped request.
    fn stamped<T>(&self, f: impl Fn(&Log, usize) -> T) -> Vec<T> {
        let mut out = Vec::new();
        for log in &self.logs {
            for i in 0..log.recv.len() {
                if log.outcome[i] == Outcome::Correct && log.recv[i] != 0 {
                    out.push(f(log, i));
                }
            }
        }
        out
    }

    /// Latency of every correct, stamped request, ns, in the order the
    /// requests were due: from the due instant in an open loop (a stall
    /// is charged to every request it delayed), from the send otherwise.
    fn latencies(&self) -> Vec<u64> {
        let from_due = matches!(self.phase.pace, Pace::Open { .. });
        let mut timed = self.stamped(|log, i| {
            let from = if from_due { log.due[i] } else { log.sent[i] };
            (from, log.recv[i] - from)
        });
        timed.sort_unstable();
        timed.into_iter().map(|(_, latency)| latency).collect()
    }

    /// `(p50, p99)` of the caller's latency, us, each the lower quartile
    /// over the phase's windows, and the smallest window's sample count.
    fn latency_percentiles(&self) -> (f64, f64, usize) {
        let latency = self.latencies();
        let windows = (latency.len() / WINDOW_SAMPLES).clamp(1, WINDOWS);
        let (p50, per_window) = windowed_percentile(&latency, windows, 0.5);
        let (p99, _) = windowed_percentile(&latency, windows, 0.99);
        (
            p50.unwrap_or(0.0) / 1e3,
            p99.unwrap_or(0.0) / 1e3,
            per_window,
        )
    }

    /// Correct replies per second: the upper-quartile window's, and the
    /// whole phase's.
    fn rates(&self) -> (f64, f64) {
        let mut times = self.stamped(|log, i| log.recv[i]);
        times.sort_unstable();
        let windows = window_rates(&times, self.start_ns, WINDOWS, self.stamp_weight);
        let end = times.last().copied().unwrap_or(self.start_ns + 1);
        let whole = self.count(Outcome::Correct) as f64 / ((end - self.start_ns) as f64 / 1e9);
        (quantile(&windows, 0.75), whole)
    }

    /// Process CPU (user + system, generator included) per correct
    /// reply, us.
    fn cpu_us_per_req(&self) -> f64 {
        self.usage.cpu_us as f64 / self.count(Outcome::Correct).max(1) as f64
    }
}

/// Median of one figure out of each item.
fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Median over rounds of one figure per phase.
fn over_rounds(phases: &[&Executed], f: impl Fn(&Executed) -> f64) -> f64 {
    median_by(phases, |e| f(e))
}

/// Run `opts.workload` once.
pub fn run(opts: &Opts) -> Result<Verdict, String> {
    let w = opts.workload;
    let rows = if opts.smoke {
        w.preload.min(2_000)
    } else {
        w.preload
    };
    let mix = match w.mix {
        Mix::ReadMostly { .. } => Mix::ReadMostly { rows },
        other => other,
    };
    let rounds = if opts.smoke {
        w.rounds.min(2)
    } else {
        w.rounds
    };
    let phases = gen::plan(mix, opts.seed, &shapes(opts, rounds));
    let requests: usize = phases.iter().map(Phase::len).sum();
    print_header(opts, &phases);

    let calls = opts.trace.then(|| Arc::new(CallTable::new(requests)));
    let wal_path = w.durable.then(|| {
        opts.out_dir
            .join(format!("wal_{}_{}.log", w.name, std::process::id()))
    });
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("{:?}: {e}", opts.out_dir))?;

    // ---- per round: set up a fresh system, warm it up, time its phases
    let mut setup_s = Vec::new();
    let mut executed = Vec::new();
    let mut anomalies = 0u64;
    let mut created: Vec<(i64, u64)> = Vec::new();
    let mut live: Option<Stack> = None;
    for round in 0..rounds {
        // a one-round workload repeats its set-up for a steady median and
        // uses the last; a many-round one has a set-up per round already
        let mut conns = Vec::new();
        let mut built = 0;
        loop {
            if let Some(stack) = live.take() {
                drop(std::mem::take(&mut conns));
                stack.shutdown();
            }
            // the first set-up starts where the process did
            let from = if setup_s.is_empty() { 0 } else { now_ns() };
            let stack = Stack::build(w, opts.seed, rows, calls.clone(), wal_path.clone())?;
            if let Some(server) = &stack.server {
                for _ in 0..NPROC {
                    let conn = Conn::connect(server.local_addr());
                    conns.push(conn.map_err(|e| format!("connect: {e}"))?);
                }
            }
            setup_s.push((now_ns() - from) as f64 / 1e9);
            live = Some(stack);
            built += 1;
            let spent: f64 = setup_s.iter().sum();
            let enough = built >= SETUPS && (spent >= SETUP_BUDGET_S || built >= MAX_SETUPS);
            if rounds > 1 || opts.smoke || enough {
                break;
            }
        }
        let stack = live.as_ref().expect("a set-up just ran");
        for phase in phases.iter().filter(|p| p.round == round) {
            let ran = execute(stack, &mut conns, calls.as_deref(), phase, opts)?;
            created.extend(created_rows(&ran));
            executed.push(ran);
        }
        // the paper's claim, checked on every copy of the planner database
        if let Some(planner) = &stack.planner {
            let found = planner.integrity_audit();
            if found.total() != 0 {
                println!("round {round}: integrity anomalies: {}", found.describe());
            }
            anomalies += found.total();
        }
    }
    let rss = peak_rss_mb();
    let stack = live.expect("every workload has a round");
    let named = |name: &str| -> Vec<&Executed> {
        executed.iter().filter(|e| e.phase.name == name).collect()
    };
    let timed: Vec<&Executed> = executed
        .iter()
        .filter(|e| e.phase.name != "warmup")
        .collect();

    // ---- accounting: sent == correct + failed, nothing unaccounted
    let attempted: u64 = timed.iter().map(|e| e.phase.len() as u64).sum();
    let tally = |o: Outcome| timed.iter().map(|e| e.count(o)).sum::<u64>();
    let (correct_replies, shed, errors, lost, wrong) = (
        tally(Outcome::Correct),
        tally(Outcome::Shed),
        tally(Outcome::Error),
        tally(Outcome::Lost),
        tally(Outcome::Wrong),
    );
    let failed = shed + errors + lost + wrong;
    let mut problems: Vec<String> = Vec::new();
    if attempted != correct_replies + failed {
        problems.push(format!(
            "{attempted} sent but {correct_replies} correct + {failed} failed"
        ));
    }
    if wrong > 0 {
        problems.push(format!("{wrong} replies of the wrong kind or content"));
    }
    println!("ops_attempted {attempted}");
    println!("ops_failed {failed} (shed {shed}, error {errors}, lost {lost}, wrong {wrong})");

    // ---- end-to-end metrics (printed by a traced run too, reported
    // only from an untraced one)
    let mut report = Report::default();
    let sat = named("saturation");
    let paced = named("paced");
    let lat_phases = if paced.is_empty() { &sat } else { &paced };
    report.set_sampled("setup_s", median(&setup_s), setup_s.len());
    let rates: Vec<(f64, f64)> = sat.iter().map(|e| e.rates()).collect();
    report.set("sat_rps", median_by(&rates, |r| r.0));
    report.note("sat_rps_whole_phase", median_by(&rates, |r| r.1), "1/s");
    report.note(
        "cpu_us_per_req",
        over_rounds(&sat, |e| e.cpu_us_per_req()),
        "us",
    );
    report.set("peak_rss_mb", rss);
    let sat_failed: u64 = sat
        .iter()
        .map(|e| e.phase.len() as u64 - e.count(Outcome::Correct))
        .sum();
    report.note("saturation_ops_failed", sat_failed as f64, "count");
    // the caller's latency: printed by every run, listed with the layers
    let percentiles: Vec<_> = lat_phases.iter().map(|e| e.latency_percentiles()).collect();
    let lat_p50 = median_by(&percentiles, |p| p.0);
    let whole = Sorted::new(lat_phases.iter().flat_map(|e| e.latencies()).collect());
    println!(
        "latency of the {} phase, {} samples, {} or more to a window:",
        lat_phases[0].phase.name,
        whole.len(),
        percentiles[0].2
    );
    report.note("lat_p50_us", lat_p50, "us");
    report.note("lat_p99_us", median_by(&percentiles, |p| p.1), "us");
    report.note("lat_p99_us_whole_phase", whole.percentile_us(0.99), "us");
    report.note("lat_p999_us_whole_phase", whole.percentile_us(0.999), "us");

    // ---- validity: did the paced phase measure the server?
    let mut valid = true;
    if let (Some(paced), false) = (paced.first(), opts.smoke) {
        let late = Sorted::new(paced_lateness(paced));
        let late_p50 = late.percentile_us(0.5);
        report.note("paced_late_p50_us", late_p50, "us");
        report.note("paced_late_p99_us", late.percentile_us(0.99), "us");
        if late_p50 > LATE_GATE * lat_p50 {
            valid = false;
            println!(
                "INVALID: the generator's median lateness {late_p50:.1} us exceeds {:.0} % of \
                 lat_p50_us {lat_p50:.1}",
                LATE_GATE * 100.0
            );
        }
        for (t, log) in paced.logs.iter().enumerate() {
            // in flight after a send: the median over the middle tenth of
            // the sends against the median over the last tenth
            let n = log.outstanding.len();
            let mid = median_of(&log.outstanding[n * 45 / 100..n * 55 / 100]);
            let end = median_of(&log.outstanding[n * 9 / 10..]);
            println!(
                "paced in flight, connection {t}: {mid} around the midpoint, {end} at the end"
            );
            if end > mid + DEPTH as f64 {
                valid = false;
                println!("INVALID: the backlog grew through the paced phase");
            }
        }
    }

    // ---- output checks against the live database
    if anomalies != 0 {
        problems.push(format!(
            "{anomalies} integrity anomalies under the certified plan"
        ));
    }
    if stack.app.is_some() {
        let have = stack.db.count_rows("users").map_err(|e| e.to_string())? as u64;
        if have != rows + created.len() as u64 {
            problems.push(format!(
                "users holds {have} rows, expected {rows} preloaded + {} created",
                created.len()
            ));
        }
    }
    if w.durable && failed > 0 {
        problems.push("a durable signup got a reply other than Created or Invalid".into());
    }

    // ---- the layer ledger (traced run)
    let mut trace_phases: Vec<(&str, Vec<RequestSpans>)> = Vec::new();
    if let Some(calls) = &calls {
        for e in timed.iter().filter(|e| e.phase.traced) {
            trace_phases.push((e.phase.name, spans_of(e, calls)));
        }
        report.set("planner.anomalies", anomalies as f64);
        ledger(&mut report, opts, &stack, rows, &timed, &trace_phases)?;
    }

    // ---- durability: every acknowledged signup survives a restart
    // from the log alone
    let log_records = stack.db.stats().snapshot().wal_appends;
    if let Some(path) = stack.shutdown() {
        let (recovery_ms, db) = layers::timed_recovery(&path)?;
        if opts.trace {
            report.set("wal.recovery_ms", recovery_ms);
            report.set("wal.replayed_records", log_records as f64);
        }
        let missing = db
            .txn()
            .run(|tx| {
                let mut missing = 0u64;
                for (id, email) in &created {
                    let found = tx.get_by_id("users", *id)?;
                    let same = found.is_some_and(|(_, t)| {
                        t[1].as_text().and_then(gen::email_key) == Some(*email)
                    });
                    missing += u64::from(!same);
                }
                Ok(missing)
            })
            .map_err(|e| e.to_string())?;
        println!(
            "durability: {} acknowledged signups, {missing} missing after recovery from the log",
            created.len()
        );
        if missing > 0 {
            problems.push(format!("{missing} acknowledged signups lost by recovery"));
        }
        drop(db);
        let _ = std::fs::remove_file(&path);
    }

    if opts.trace {
        let path = opts.out_dir.join(format!("trace_{}.json", w.name));
        let header = vec![
            ("seed".to_string(), opts.seed.to_string()),
            (
                "workload_hash".to_string(),
                format!("{:016x}", gen::workload_hash(&phases)),
            ),
        ];
        span::write_trace(&path, w.name, &header, &trace_phases)
            .map_err(|e| format!("write {path:?}: {e}"))?;
        println!("trace: {}", path.display());
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    Ok(Verdict {
        correct: problems.is_empty(),
        valid,
        attempted,
        failed,
        report,
    })
}

/// The phases of a run and how many requests each issues: a fixed
/// number, sized from the workload's frozen rates, so the work done is
/// the same on every commit.
fn shapes(opts: &Opts, rounds: usize) -> Vec<PhaseShape> {
    let w = opts.workload;
    let wire = w.transport == Transport::Wire;
    let closed = Pace::Closed {
        depth: if wire { DEPTH } else { 1 },
    };
    let count = |rps: u64, seconds: f64| ((rps as f64 * seconds) as usize).max(NPROC);
    let (warm, paced, sat) = if opts.smoke {
        (200, 400, 1_000)
    } else {
        // a wire workload splits its seconds over its two loops
        let each = if wire {
            opts.seconds / 2.0
        } else {
            opts.seconds
        };
        (
            count(w.sized_rps, WARMUP_S),
            count(w.paced_rps, each),
            count(w.sized_rps, each),
        )
    };
    let mut shapes = Vec::new();
    for round in 0..rounds {
        let mut push = |name, pace, traced, requests: usize| {
            shapes.push(PhaseShape {
                name,
                round,
                pace,
                traced,
                requests: requests.max(NPROC),
            })
        };
        push("warmup", closed, false, warm / rounds);
        if wire {
            let rps = if opts.smoke {
                2_000.0
            } else {
                w.paced_rps as f64
            };
            push("paced", Pace::Open { rps }, opts.trace, paced / rounds);
        }
        // a traced run spends half its saturation untraced, so the two
        // halves' rates give the tracing overhead: the halves of its one
        // round, or every other round when there are several
        match (opts.trace, rounds) {
            (false, _) => push("saturation", closed, false, sat / rounds),
            (true, 1) => {
                push("saturation", closed, false, sat / 2);
                push("saturation_traced", closed, true, sat / 2);
            }
            (true, _) if round % 2 == 0 => push("saturation", closed, false, sat / rounds),
            (true, _) => push("saturation_traced", closed, true, sat / rounds),
        }
    }
    shapes
}

fn print_header(opts: &Opts, phases: &[Phase]) {
    let w = opts.workload;
    let tool = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    println!("workload: {}", w.name);
    println!(
        "seed: {}  seconds: {}  trace: {}  smoke: {}",
        opts.seed, opts.seconds, opts.trace, opts.smoke
    );
    println!(
        "nproc: {NPROC} generator threads, one connection or caller each; cores: {}",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    println!("commit: {}", tool("git", &["rev-parse", "--short", "HEAD"]));
    println!("rustc: {}", tool("rustc", &["-V"]));
    println!(
        "paced_rps: {}  sized_rps: {}  preload: {}  rounds: {}",
        w.paced_rps, w.sized_rps, w.preload, w.rounds
    );
    if w.transport == Transport::Wire {
        println!("server_config: {:?}", ServerConfig::default());
    }
    println!(
        "db_config: {:?}",
        db_config(w, w.durable.then_some("<out>/wal.log".as_ref()))
    );
    for p in phases.iter().filter(|p| p.round == 0) {
        println!(
            "phase: {} {:?} requests={} traced={}",
            p.name,
            p.pace,
            p.len(),
            p.traced
        );
    }
    println!("workload_hash: {:016x}", gen::workload_hash(phases));
}

/// Run one phase: both generator threads start together, a few
/// milliseconds after they are spawned.
fn execute<'a>(
    stack: &Stack,
    conns: &mut [Conn],
    calls: Option<&CallTable>,
    phase: &'a Phase,
    opts: &Opts,
) -> Result<Executed<'a>, String> {
    if let Some(calls) = calls {
        calls.set_recording(phase.traced);
    }
    feral_trace::reset();
    feral_trace::set_enabled(phase.traced);
    let wal_len = || {
        stack
            .wal_path
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len())
    };
    let (stats0, wal0, usage0) = (stack.db.stats().snapshot(), wal_len(), Usage::now());
    let start_ns = now_ns() + 5_000_000;
    let keep = if phase.traced { KEEP_REPLIES } else { 0 };
    let sample_every = if phase.traced || !conns.is_empty() {
        1
    } else {
        SAMPLE_EVERY
    };
    let seed = opts.seed;
    let service = &*stack.service;
    let mut conns = conns.iter_mut();
    let results: Vec<Result<Log, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = phase
            .threads
            .iter()
            .map(|plan| {
                let conn = conns.next();
                scope.spawn(move || {
                    tighten_timer_slack();
                    let mut log = Log::new(plan.specs.len(), keep);
                    std::thread::sleep(Duration::from_nanos(start_ns.saturating_sub(now_ns())));
                    match conn {
                        Some(conn) => {
                            let depth = match phase.pace {
                                Pace::Open { .. } => None,
                                Pace::Closed { depth } => Some(depth),
                            };
                            load::run_wire(conn, plan, depth, start_ns, seed, &mut log)
                                .map_err(|e| format!("{}: connection failed: {e}", phase.name))?;
                        }
                        None => load::run_inproc(service, plan, sample_every, seed, &mut log),
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let usage = Usage::now().since(&usage0);
    feral_trace::set_enabled(false);
    if let Some(calls) = calls {
        calls.set_recording(false);
    }
    Ok(Executed {
        phase,
        logs: results.into_iter().collect::<Result<_, _>>()?,
        start_ns,
        stamp_weight: sample_every as f64,
        usage,
        stats: stack.db.stats().snapshot().diff(&stats0),
        wal_bytes: wal_len() - wal0,
        hists: feral_trace::phase_snapshots(),
    })
}

/// How late each paced request left, ns after it was due.
fn paced_lateness(paced: &Executed) -> Vec<u64> {
    let mut late = Vec::new();
    for log in &paced.logs {
        for i in 0..log.sent.len() {
            if log.sent[i] != 0 {
                late.push(log.sent[i] - log.due[i]);
            }
        }
    }
    late
}

/// `(id, e-mail key)` of every `Created` reply of a phase.
fn created_rows(e: &Executed) -> Vec<(i64, u64)> {
    let mut out = Vec::new();
    for (log, plan) in e.logs.iter().zip(&e.phase.threads) {
        for (i, id) in &log.created {
            if let Spec::Post { email } = plan.specs[*i as usize] {
                out.push((*id, email));
            }
        }
    }
    out
}

/// The span tree of every answered request of a traced phase.
fn spans_of(e: &Executed, calls: &CallTable) -> Vec<RequestSpans> {
    let mut out = Vec::new();
    for (log, plan) in e.logs.iter().zip(&e.phase.threads) {
        for i in 0..log.recv.len() {
            let seq = plan.base_seq + i as u64;
            if let (true, Some((call_start, call_end))) = (log.recv[i] != 0, calls.get(seq)) {
                out.push(RequestSpans {
                    seq,
                    due: log.due[i],
                    sent: log.sent[i],
                    call_start,
                    call_end,
                    recv: log.recv[i],
                });
            }
        }
    }
    out
}

/// Rows of `users` beyond the first under each e-mail: the paper's
/// anomaly count (`GROUP BY email HAVING COUNT(*) > 1`). Reported,
/// never gated — feral uniqueness under Read Committed admits them.
fn duplicate_rows(stack: &Stack) -> Result<u64, String> {
    let rows = stack
        .db
        .txn()
        .run(|tx| tx.scan("users", &Predicate::True))
        .map_err(|e| e.to_string())?;
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for (_, tuple) in &rows {
        if let Some(key) = tuple[1].as_text().and_then(gen::email_key) {
            *seen.entry(key).or_default() += 1;
        }
    }
    Ok(seen.values().map(|n| n - 1).sum())
}

/// Print the per-layer metrics of a traced run. `stack` is the last
/// round's; counters are summed and histograms merged over the rounds.
fn ledger(
    report: &mut Report,
    opts: &Opts,
    stack: &Stack,
    rows: u64,
    timed: &[&Executed],
    trace_phases: &[(&str, Vec<RequestSpans>)],
) -> Result<(), String> {
    let w = opts.workload;
    let named = |name: &str| -> Vec<&Executed> {
        timed
            .iter()
            .copied()
            .filter(|e| e.phase.name == name)
            .collect()
    };
    let (sat, traced_sat, paced) = (
        named("saturation"),
        named("saturation_traced"),
        named("paced"),
    );
    // spans come from the phase the caller's latency is taken from
    let span_phases = if paced.is_empty() {
        &traced_sat
    } else {
        &paced
    };
    let span_name = span_phases[0].phase.name;

    // loadgen: the generator's own clocks
    let late = Sorted::new(span_phases.iter().flat_map(|e| paced_lateness(e)).collect());
    report.set("loadgen.late_p99_us", late.percentile_us(0.99));
    let percentiles: Vec<_> = span_phases
        .iter()
        .map(|e| e.latency_percentiles())
        .collect();
    report.set_sampled(
        "loadgen.lat_p50_us",
        median_by(&percentiles, |p| p.0),
        percentiles[0].2,
    );
    report.set("loadgen.lat_p99_us", median_by(&percentiles, |p| p.1));
    let whole = Sorted::new(span_phases.iter().flat_map(|e| e.latencies()).collect());
    report.set("loadgen.lat_p999_us", whole.percentile_us(0.999));

    // net, service: span arithmetic
    let spans: Vec<&RequestSpans> = trace_phases
        .iter()
        .filter(|(name, _)| *name == span_name)
        .flat_map(|(_, s)| s)
        .collect();
    let child = |k: usize| {
        Sorted::new(
            spans
                .iter()
                .map(|r| r.children()[k])
                .map(|(s, e)| e.saturating_sub(s))
                .collect(),
        )
    };
    let (inbound, call, outbound) = (child(1), child(2), child(3));
    report.set_sampled(
        "net.inbound_p50_us",
        inbound.percentile_us(0.5),
        inbound.len(),
    );
    report.set("net.inbound_p99_us", inbound.percentile_us(0.99));
    report.set("net.outbound_p50_us", outbound.percentile_us(0.5));
    report.set("net.outbound_p99_us", outbound.percentile_us(0.99));
    report.set_sampled("service.call_p50_us", call.percentile_us(0.5), call.len());
    report.set("service.call_p99_us", call.percentile_us(0.99));
    let untiled = trace_phases
        .iter()
        .flat_map(|(_, s)| s)
        .filter(|r| !r.ordered() || r.untiled_ns().abs() > 1_000)
        .count();
    report.set("trace.untiled_requests", untiled as f64);

    if let Some(server) = &stack.server {
        let m = server.metrics();
        for (name, counter) in [
            ("server.served", &m.served),
            ("server.shed_queue", &m.shed_queue),
            ("server.shed_inflight", &m.shed_inflight),
            ("server.dropped_replies", &m.dropped_replies),
            ("server.protocol_errors", &m.protocol_errors),
        ] {
            report.set(name, counter.load(Ordering::Relaxed) as f64);
        }
    }

    // proc, db, commit, wal: counter diffs over the traced saturation
    let sum = |f: &dyn Fn(&Executed) -> u64| traced_sat.iter().map(|e| f(e)).sum::<u64>();
    let replies = sum(&|e| e.count(Outcome::Correct)).max(1);
    report.set(
        "proc.cpu_us_per_req",
        over_rounds(&traced_sat, |e| e.cpu_us_per_req()),
    );
    report.set(
        "proc.rw_syscalls_per_req",
        ratio(sum(&|e| e.usage.rw_syscalls), replies),
    );
    report.set(
        "proc.ctx_switches_per_req",
        ratio(sum(&|e| e.usage.ctx_switches), replies),
    );
    let scans = sum(&|e| e.stats.scans);
    report.set("db.scans_per_req", ratio(scans, replies));
    report.set(
        "db.index_probe_ratio",
        ratio(sum(&|e| e.stats.index_probes), scans),
    );
    let hist = |p: TracePhase| {
        traced_sat
            .iter()
            .flat_map(|e| &e.hists)
            .filter(|(q, _)| *q == p)
            .fold(HistogramSnapshot::empty(), |all, (_, h)| all.merge(h))
    };
    let q_us = layers::hist_quantile_us;
    let commit = hist(TracePhase::Commit);
    let (commits, aborts) = (sum(&|e| e.stats.commits), sum(&|e| e.stats.aborts));
    report.set("commit.p50_us", q_us(&commit, 0.5));
    report.set("commit.p99_us", q_us(&commit, 0.99));
    report.set("commit.commits", commits as f64);
    report.set("commit.aborts", aborts as f64);
    report.set("commit.abort_ratio", ratio(aborts, commits + aborts));
    report.set(
        "commit.serialization_failures",
        sum(&|e| e.stats.serialization_failures) as f64,
    );
    report.set(
        "commit.write_conflicts",
        sum(&|e| e.stats.write_conflicts) as f64,
    );
    report.set(
        "commit.lock_timeouts",
        sum(&|e| e.stats.lock_timeouts) as f64,
    );
    report.set(
        "commit.shard_conflicts",
        sum(&|e| e.stats.commit_shard_conflicts) as f64,
    );
    report.set(
        "plan.failsafe_escalations",
        sum(&|e| e.stats.plan_failsafe_escalations) as f64,
    );
    let (appends, flushes) = (sum(&|e| e.stats.wal_appends), sum(&|e| e.stats.wal_flushes));
    report.set("wal.appends", appends as f64);
    report.set("wal.flushes", flushes as f64);
    report.set("wal.records_per_flush", ratio(appends, flushes));
    report.set(
        "wal.bytes_per_commit",
        ratio(sum(&|e| e.wal_bytes), appends),
    );

    // trace: what recording cost
    let traced_rps = over_rounds(&traced_sat, |e| e.rates().0);
    let plain_rps = over_rounds(&sat, |e| e.rates().0);
    report.set(
        "trace.overhead_frac",
        1.0 - traced_rps / plain_rps.max(1e-9),
    );

    // direct timings over the traced saturation's own requests and the
    // replies the traced phases kept
    let last = traced_sat.last().expect("a traced run traces a saturation");
    let specs: Vec<Spec> = last
        .phase
        .threads
        .iter()
        .flat_map(|t| t.specs.iter().copied())
        .collect();
    let replies: Vec<&Response> = timed
        .iter()
        .flat_map(|e| e.logs.iter().flat_map(|l| &l.replies))
        .collect();
    println!(
        "direct timings over {} requests and {} replies",
        specs.len(),
        replies.len()
    );
    for (name, value) in layers::wire_ledger(&specs, &replies) {
        report.set(name, value);
    }
    for (name, value) in layers::db_ledger(&stack.db, &specs, opts.seed, rows) {
        report.set(name, value);
    }
    let orm_phases = |hist: &dyn Fn(TracePhase) -> HistogramSnapshot, report: &mut Report| {
        let save = hist(TracePhase::Save);
        report.set_sampled("orm.save_p50_us", q_us(&save, 0.5), save.count as usize);
        report.set("orm.save_p99_us", q_us(&save, 0.99));
        report.set(
            "orm.validate_p50_us",
            q_us(&hist(TracePhase::Validate), 0.5),
        );
        report.set("orm.write_p50_us", q_us(&hist(TracePhase::Write), 0.5));
    };
    if let Some(app) = &stack.app {
        orm_phases(&hist, report);
        // over the traced saturation: probes per POST; over the timed
        // run: POSTs answered Invalid
        let posts = |e: &Executed, only_correct: bool| -> u64 {
            let mut n = 0;
            for (log, plan) in e.logs.iter().zip(&e.phase.threads) {
                for (i, spec) in plan.specs.iter().enumerate() {
                    let counts = !only_correct || log.outcome[i] == Outcome::Correct;
                    n += u64::from(matches!(spec, Spec::Post { .. }) && counts);
                }
            }
            n
        };
        report.set(
            "orm.probes_per_create",
            ratio(
                sum(&|e| e.stats.validation_probes),
                sum(&|e| posts(e, false)),
            ),
        );
        let answered: u64 = timed.iter().map(|e| posts(e, true)).sum();
        let created: u64 = timed.iter().map(|e| created_rows(e).len() as u64).sum();
        report.set("orm.invalid_rejects", (answered - created) as f64);
        report.set("orm.duplicate_rows", duplicate_rows(stack)? as f64);
        for (name, value) in layers::orm_ledger(app, &specs, rows, w.durable) {
            report.set(name, value);
        }
    } else {
        // no ORM in this workload's path: the ORM's own costs are taken
        // on a scratch table, as the WAL's are on a scratch log
        let scratch = Stack::scratch_orm(opts.seed, SCRATCH_ROWS)?;
        let app = scratch.app.as_ref().expect("an ORM stack");
        feral_trace::reset();
        feral_trace::set_enabled(true);
        let timings = layers::orm_ledger(app, &specs, SCRATCH_ROWS, false);
        feral_trace::set_enabled(false);
        let snapshots = feral_trace::phase_snapshots();
        let scratch_hist = |p: TracePhase| {
            let found = snapshots.iter().find(|(q, _)| *q == p);
            found.map_or_else(HistogramSnapshot::empty, |(_, h)| h.clone())
        };
        orm_phases(&scratch_hist, report);
        for (name, value) in timings {
            report.set(name, value);
        }
        scratch.shutdown();
    }
    let scratch = opts
        .out_dir
        .join(format!("wal_probe_{}.log", std::process::id()));
    let probe = layers::wal_probe(&scratch)?;
    report.set("wal.append_sync_us", probe.append_sync_us);
    if !w.durable {
        // no log of its own: recovery is timed on the probe's
        report.set("wal.recovery_ms", probe.recovery_ms);
        report.set("wal.replayed_records", probe.replayed_records as f64);
    }
    Ok(())
}

fn median_of(counts: &[u16]) -> f64 {
    median(&counts.iter().map(|c| f64::from(*c)).collect::<Vec<_>>())
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};
    use crate::stack::WORKLOADS;

    fn smoke(workload: &'static Workload, trace: bool, out_dir: &std::path::Path) -> Verdict {
        let opts = Opts {
            workload,
            seed: 3,
            seconds: 1.0,
            trace,
            smoke: true,
            out_dir: out_dir.to_path_buf(),
        };
        run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name))
    }

    /// `--smoke`: tiny counts, schema and output checks only — what a
    /// later issue can wire into `tier1.sh`.
    #[test]
    fn smoke_runs_check_out_on_all_four_workloads_traced_and_not() {
        let dir = std::env::temp_dir().join(format!("feral-benchmark-run-{}", std::process::id()));
        let started = std::time::Instant::now();
        for w in &WORKLOADS {
            let v = smoke(w, false, &dir);
            assert!(v.correct && v.valid, "{}", w.name);
            assert_eq!(v.failed, 0, "{}", w.name);
            assert!(v.attempted >= 1_000, "{}", w.name);
            for (name, _) in END_TO_END {
                assert!(
                    v.report.get(name).is_some_and(|x| x > 0.0),
                    "{} {name}",
                    w.name
                );
            }
        }
        assert!(
            started.elapsed().as_secs_f64() < 5.0,
            "four smoke runs took {:?}",
            started.elapsed()
        );
        for w in [&WORKLOADS[0], &WORKLOADS[3]] {
            let v = smoke(w, true, &dir);
            assert!(v.correct, "{}", w.name);
            assert_eq!(v.report.get("trace.untiled_requests"), Some(0.0));
            assert!(v.report.get("service.call_p50_us").unwrap() > 0.0);
            for (name, _) in PER_LAYER {
                // every layer metric is printed unless the workload lacks the layer
                let lacks = (name.starts_with("orm.") || name.starts_with("server."))
                    && w.name == "inproc_planner_hot";
                assert!(v.report.get(name).is_some() || lacks, "{} {name}", w.name);
            }
            let trace = dir.join(format!("trace_{}.json", w.name));
            let text = std::fs::read_to_string(&trace).unwrap();
            assert!(feral_trace::json::parse(&text).is_ok(), "{trace:?}");
        }
        assert!(
            !dir.join(format!(
                "wal_wire_signup_durable_{}.log",
                std::process::id()
            ))
            .exists(),
            "the run removes its own log"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
