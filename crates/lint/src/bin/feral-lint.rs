//! `feral-lint` CLI: run the semantic safety analyzer over the
//! synthesized 67-application corpus and print a human report, JSON, or
//! SARIF 2.1.0.
//!
//! ```text
//! feral-lint report [--seed 42] [--apps N] [--app NAME]
//!                   [--no-witness]
//! feral-lint json   [...same flags] [--out PATH]
//! feral-lint sarif  [...same flags] [--out PATH]
//! ```

use feral_cli::EXIT_USAGE;
use feral_lint::{lint_apps, report, LintOptions};
use std::process::ExitCode;

const TOOL: &str = "feral-lint";

/// Every flag the subcommands read; any other is a usage error.
const FLAGS: &[&str] = &["seed", "apps", "app", "no-witness", "smoke", "json", "out"];

fn help() -> String {
    feral_cli::render_help(
        TOOL,
        "semantic safety analyzer over the synthesized Table 2 corpus",
        "  feral-lint report [--seed 42] [--apps N] [--app NAME]\n\
         \x20     [--no-witness]\n\
         \x20 feral-lint json  [...same flags] [--out PATH]\n\
         \x20 feral-lint sarif [...same flags] [--out PATH]\n",
        "  --seed U64            corpus synthesis seed (default 42)\n\
         \x20 --apps N              lint only the first N applications\n\
         \x20 --app NAME            lint only the named application (e.g. spree)\n\
         \x20 --no-witness          skip feral-sim witness search (directed DPOR)\n",
        FLAGS,
    )
}

struct Args {
    mode: String,
    seed: u64,
    apps: Option<usize>,
    app: Option<String>,
    out: Option<String>,
    opts: LintOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing subcommand")?;
    if !matches!(mode.as_str(), "report" | "json" | "sarif") {
        return Err(format!("unknown subcommand `{mode}`"));
    }
    let flags = feral_cli::Args::parse(TOOL, argv, FLAGS);
    let mut opts = LintOptions::default();
    // --smoke: the fast CI shape — a corpus slice, no witness search
    if flags.has("smoke") {
        opts.witnesses = false;
    }
    if flags.has("no-witness") {
        opts.witnesses = false;
    }
    Ok(Args {
        mode: if flags.has("json") && mode == "report" {
            "json".to_string()
        } else {
            mode
        },
        seed: flags.get_u64("seed", 42),
        apps: flags
            .get_str("apps")
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("--apps: {e}"))
                    .unwrap_or_else(|e| feral_cli::die(TOOL, &e))
            })
            .or(if flags.has("smoke") { Some(8) } else { None }),
        app: flags.get_str("app").map(String::from),
        out: flags.get_str("out").map(String::from),
        opts,
    })
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|a| a == "--help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{TOOL}: {e}\n\n{}", help());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut corpus = feral_corpus::synthesize_corpus(args.seed);
    if let Some(name) = &args.app {
        corpus.retain(|a| a.stats.name.eq_ignore_ascii_case(name));
        if corpus.is_empty() {
            eprintln!("{TOOL}: no corpus application named `{name}`");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    if let Some(n) = args.apps {
        corpus.truncate(n);
    }
    let run = lint_apps(&corpus, &args.opts);
    let rendered = match args.mode.as_str() {
        "report" => report::render_report(&run),
        "json" => report::render_json(&run),
        _ => report::render_sarif(&run),
    };
    feral_cli::write_out(TOOL, args.out.as_deref(), &rendered);
    ExitCode::SUCCESS
}
