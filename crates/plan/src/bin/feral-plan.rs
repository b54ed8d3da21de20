//! `feral-plan` — certified weakest-safe-isolation plans from the
//! command line.
//!
//! ```text
//! feral-plan infer [--seed 42] [--json | --dot] [--out PATH]
//!     Extract the corpus's transaction templates, run the fixed-point
//!     inference, and print the plan (text, JSON artifact, or Graphviz
//!     dot).
//!
//! feral-plan certify [--seed 42] [--max-runs N]
//!         [--out PATH] [--validate GOLDEN]
//!     Re-derive the plan and validate every cell's certificate: static
//!     gate + per-slot minimality, a complete silent DPOR sweep at the
//!     assigned levels, and (for escalated cells) a replaying anomaly
//!     witness at the next-weaker configuration, found by a directed
//!     DPOR sweep of at most --max-runs schedules. Emits the certified
//!     JSON artifact. With --validate, additionally compare it
//!     byte-for-byte against a checked-in golden file — any drift exits
//!     non-zero.
//!
//! feral-plan diff A.json B.json
//!     Compare two plan artifacts: changed cells and changed
//!     per-template assignments. Exits 1 when they differ.
//! ```

use feral_cli::Args;
use feral_plan::{build_plan, certify_plan, render_dot, render_json, render_text};
use feral_trace::json::{parse, Json};
use std::process::ExitCode;

const TOOL: &str = "feral-plan";

/// Every flag `infer` and `certify` read; any other is a usage error.
const FLAGS: &[&str] = &["seed", "json", "dot", "out", "max-runs", "validate"];

fn die(msg: &str) -> ! {
    feral_cli::die(TOOL, msg)
}

fn help() -> String {
    feral_cli::render_help(
        TOOL,
        "certified weakest-safe-isolation plans",
        "  feral-plan infer [--seed 42] [--dot]\n\
         \x20 feral-plan certify [--seed 42] [--max-runs N]\n\
         \x20     [--validate GOLDEN]\n\
         \x20 feral-plan diff A.json B.json\n",
        "  --seed U64        corpus synthesis seed (default 42)\n\
         \x20 --max-runs N      schedule budget per certified cell\n\
         \x20 --dot             Graphviz output for `infer`\n\
         \x20 --validate GOLDEN byte-diff the certified artifact against GOLDEN\n",
    )
}

fn cmd_infer(args: &Args) -> ExitCode {
    let plan = build_plan(args.get_u64("seed", 42));
    let rendered = if args.has("json") {
        render_json(&plan, None)
    } else if args.has("dot") {
        render_dot(&plan)
    } else {
        render_text(&plan)
    };
    feral_cli::write_out(TOOL, args.get_str("out"), &rendered);
    ExitCode::SUCCESS
}

fn cmd_certify(args: &Args) -> ExitCode {
    let plan = build_plan(args.get_u64("seed", 42));
    let max_runs = args.get_usize("max-runs", 200_000);
    let certs = match certify_plan(&plan, max_runs) {
        Ok(certs) => certs,
        Err(failures) => {
            for msg in &failures {
                eprintln!("{TOOL}: certification FAILED: {msg}");
            }
            eprintln!("{TOOL}: {} certification failure(s)", failures.len());
            return ExitCode::from(feral_cli::EXIT_DEVIATION);
        }
    };
    let rendered = render_json(&plan, Some(&certs));
    if let Some(golden) = args.get_str("validate") {
        let want = std::fs::read_to_string(golden)
            .unwrap_or_else(|e| die(&format!("cannot read golden `{golden}`: {e}")));
        if want != rendered {
            eprintln!(
                "{TOOL}: certified plan drifted from golden `{golden}` — regenerate it with \
                 `feral-plan certify --out {golden}` and review the diff"
            );
            return ExitCode::from(feral_cli::EXIT_DEVIATION);
        }
        eprintln!(
            "{TOOL}: validated {} cells ({} escalated witnesses) against `{golden}`",
            plan.cells.len(),
            certs.iter().filter(|c| c.witness.is_some()).count()
        );
    }
    feral_cli::write_out(TOOL, args.get_str("out"), &rendered);
    ExitCode::SUCCESS
}

/// Flatten a plan artifact into comparable (key, value) lines:
/// one per cell and one per app/template assignment.
fn flatten(doc: &Json, path: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| die(&format!("`{path}` has no cells array")));
    for cell in cells {
        let key = format!(
            "cell {}/{}",
            cell.get("pair").and_then(Json::as_str).unwrap_or("?"),
            cell.get("guard").and_then(Json::as_str).unwrap_or("?"),
        );
        let levels = cell
            .get("levels")
            .and_then(Json::as_arr)
            .map(|ls| {
                ls.iter()
                    .filter_map(Json::as_str)
                    .collect::<Vec<_>>()
                    .join("+")
            })
            .unwrap_or_default();
        let gate = cell.get("gate").and_then(Json::as_str).unwrap_or("?");
        out.push((key, format!("{levels} [{gate}]")));
    }
    let apps = doc
        .get("apps")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| die(&format!("`{path}` has no apps array")));
    for app in apps {
        let name = app.get("app").and_then(Json::as_str).unwrap_or("?");
        for a in app.get("assignments").and_then(Json::as_arr).unwrap_or(&[]) {
            let key = format!(
                "{name} {}",
                a.get("template").and_then(Json::as_str).unwrap_or("?")
            );
            let value = format!(
                "{} ({})",
                a.get("level").and_then(Json::as_str).unwrap_or("?"),
                a.get("basis").and_then(Json::as_str).unwrap_or("?"),
            );
            out.push((key, value));
        }
    }
    out
}

fn cmd_diff(paths: &[String]) -> ExitCode {
    let [a_path, b_path] = paths else {
        die("usage: feral-plan diff A.json B.json")
    };
    let load = |path: &str| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read `{path}`: {e}")));
        parse(&text).unwrap_or_else(|e| die(&format!("`{path}` is not valid JSON: {e}")))
    };
    let a = flatten(&load(a_path), a_path);
    let b = flatten(&load(b_path), b_path);
    let a_map: std::collections::BTreeMap<_, _> = a.iter().cloned().collect();
    let b_map: std::collections::BTreeMap<_, _> = b.iter().cloned().collect();
    let mut differences = 0;
    for (key, va) in &a_map {
        match b_map.get(key) {
            None => {
                println!("- {key}: {va}");
                differences += 1;
            }
            Some(vb) if vb != va => {
                println!("~ {key}: {va} -> {vb}");
                differences += 1;
            }
            Some(_) => {}
        }
    }
    for (key, vb) in &b_map {
        if !a_map.contains_key(key) {
            println!("+ {key}: {vb}");
            differences += 1;
        }
    }
    if differences == 0 {
        println!("plans agree: {} entries", a_map.len());
        ExitCode::SUCCESS
    } else {
        println!("{differences} difference(s)");
        ExitCode::from(feral_cli::EXIT_DEVIATION)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(command) = argv.first() else {
        die("usage: feral-plan <infer|certify|diff> [flags] (--help for details)")
    };
    match command.as_str() {
        "infer" => cmd_infer(&Args::parse(TOOL, argv[1..].iter().cloned(), FLAGS)),
        "certify" => cmd_certify(&Args::parse(TOOL, argv[1..].iter().cloned(), FLAGS)),
        "diff" => cmd_diff(&argv[1..]),
        other => die(&format!("unknown command `{other}`")),
    }
}
