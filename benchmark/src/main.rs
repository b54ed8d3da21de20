//! `feral-benchmark`: one socket-to-WAL benchmark for the feral stack.
//!
//! ```text
//! feral-benchmark [run] --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke]
//! feral-benchmark all    [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke]
//! feral-benchmark verify [--seconds <s>] [--out <baseline.json>]
//! ```
//!
//! `run` prints every metric by name with its unit and ends with the
//! one-line JSON result; it exits non-zero when an output check fails
//! or the paced phase measured the generator instead of the server.
//! See `README.md` beside this package for the workloads and the ledger.

mod gen;
mod layers;
mod load;
mod report;
mod run;
mod span;
mod stack;
mod stats;
mod sys;

use feral_trace::json::{parse, Json};
use report::{result_line, END_TO_END, PER_LAYER};
use stack::WORKLOADS;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: feral-benchmark [run|all|verify] [--workload <name>] [--seed <n>] \
[--seconds <s>] [--trace [0|1]] [--smoke] [--out <file>]";

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked");
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            // `--trace` alone means on; the driver passes 0 or 1
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
fn default_seconds() -> f64 {
    benchmark_json()
        .and_then(|spec| spec.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(16.0)
}

fn benchmark_json() -> Option<Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).ok()?).ok()
}

fn main() -> ExitCode {
    sys::now_ns(); // the epoch every span is stamped against: process start
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "run" => run_one(&args),
        "all" => run_all(&args),
        "verify" => verify(&args),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("feral-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_one(args: &Args) -> Result<bool, String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("run needs --workload <name>")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })?;
    let opts = run::Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or_else(default_seconds),
        trace: args.trace,
        smoke: args.smoke,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let verdict = run::run(&opts)?;
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_line(
            verdict.correct,
            verdict.attempted.max(1),
            verdict.failed,
            &verdict.report.metrics_json(list)
        )
    );
    Ok(verdict.correct && verdict.valid)
}

/// One child run's result line, parsed.
struct ChildResult {
    ok: bool,
    metrics: Vec<(String, f64)>,
}

/// Run one workload in a process of its own (peak RSS is per process)
/// and wait for it.
fn spawn_run(args: &Args, workload: &str, seed: u64, quiet: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !quiet {
        print!("{text}");
    }
    let last = text.lines().last().unwrap_or_default();
    let parsed = parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
        return Err(format!("{workload}: result line has no metrics"));
    };
    Ok(ChildResult {
        ok: out.status.success(),
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        println!("==== {} ====", w.name);
        ok &= spawn_run(args, w.name, args.seed, false)?.ok;
    }
    println!("==== all: {} ====", if ok { "OK" } else { "FAILED" });
    Ok(ok)
}

/// Two back-to-back sets of five runs per workload, each run on its own
/// seed: per metric, each set's median and quartiles, the spread
/// (IQR ÷ median), and whether the second median is worse than the
/// first by more than the metric's bound in `BENCHMARK.json`.
fn verify(args: &Args) -> Result<bool, String> {
    const RUNS: u64 = 5;
    let spec = benchmark_json().ok_or("BENCHMARK.json not found beside the package")?;
    let bounds: Vec<(String, bool, f64)> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "higher",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut sets: Vec<Vec<ChildResult>> = Vec::new();
        for set in 0..2u64 {
            let mut runs = Vec::new();
            for r in 0..RUNS {
                let seed = 1 + set * RUNS + r;
                let result = spawn_run(args, w.name, seed, true)?;
                eprintln!(
                    "{} set {set} seed {seed}: {}",
                    w.name,
                    if result.ok { "ok" } else { "FAILED" }
                );
                ok &= result.ok;
                runs.push(result);
            }
            sets.push(runs);
        }
        for (name, higher_better, bound) in &bounds {
            let values = |set: &[ChildResult]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse = if *higher_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let both: Vec<f64> = a.iter().chain(&b).copied().collect();
            let (q1, q3) = stats::quartiles(&both);
            let spread = stats::spread(&both);
            let pass = worse <= *bound && (name == "setup_s" || spread <= *bound);
            ok &= pass;
            println!(
                "{:<22} {:<16} median {:>12.4} | {:>12.4}  worse by {:>7.2} %  spread {:>6.2} %  \
                 bound {:>4.0} %  {}",
                w.name,
                name,
                ma,
                mb,
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "OUT OF BOUND" }
            );
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{name}\", \"median\": {}, \"q1\": {q1}, \
                 \"q3\": {q3}, \"spread\": {spread}, \"set_medians\": [{ma}, {mb}], \"runs\": {}}}",
                w.name,
                stats::median(&both),
                both.len()
            ));
        }
    }
    if let Some(path) = &args.out {
        let text = format!(
            "{{\n  \"seconds\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            args.seconds.unwrap_or_else(default_seconds),
            rows.join(",\n")
        );
        std::fs::write(path, text).map_err(|e| format!("{path:?}: {e}"))?;
    }
    println!("==== verify: {} ====", if ok { "OK" } else { "FAILED" });
    Ok(ok)
}
