//! Stand-alone artifact checker: `checkreport <report.json>` gates a
//! `BENCH_table1.json` artifact via [`feral_bench::checkgate`] — parse,
//! schema-validate, and enforce the smoke-gate invariants from the
//! outside, independent of the writer's self-validation. The logic (and
//! its failure-path tests) lives in the library; this wrapper only maps
//! results onto exit codes. Any `--flag` is a usage error
//! (`feral_cli::EXIT_USAGE`), so a retired mode (`--load`, `--audit`)
//! cannot quietly gate its file as a table1 report.

use feral_bench::checkgate::check_report_file;

const USAGE: &str = "usage: checkreport <report.json>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        feral_cli::die("checkreport", &format!("unknown flag `{flag}`\n{USAGE}"));
    }
    let Some(path) = args.first() else {
        feral_cli::die("checkreport", USAGE);
    };
    match check_report_file(path) {
        Ok(s) => println!(
            "checkreport: {path} OK ({} cells, {} witnessed provenance records)",
            s.cells, s.witnessed
        ),
        Err(msg) => {
            eprintln!("checkreport: {msg}");
            std::process::exit(feral_cli::EXIT_DEVIATION.into());
        }
    }
}
