//! Stand-alone artifact checker: `checkreport <report.json>` gates a
//! `BENCH_table1.json` artifact and `checkreport --audit <bench.json>`
//! gates a `BENCH_audit.json` artifact, both via
//! [`feral_bench::checkgate`] — parse, schema-validate, and enforce the
//! smoke-gate invariants from the outside, independent of the writer's
//! self-validation. The logic (and its failure-path tests) lives in the
//! library; this wrapper only maps results onto exit codes. Any other
//! `--flag` is a usage error, so a retired mode cannot quietly gate its
//! file as a table1 report.

use feral_bench::checkgate::{check_audit_bench_file, check_report_file};

const USAGE: &str = "checkreport: usage: checkreport [--audit] <report.json>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && *a != "--audit") {
        eprintln!("checkreport: unknown flag `{flag}`\n{USAGE}");
        std::process::exit(1);
    }
    let audit = args.iter().any(|a| a == "--audit");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("{USAGE}");
        std::process::exit(1);
    };
    let outcome = if audit {
        check_audit_bench_file(path).map(|s| {
            format!(
                "{path} OK ({} auditor configs, sampled {:.3}x off)",
                s.configs, s.sampled_vs_off
            )
        })
    } else {
        check_report_file(path).map(|s| {
            format!(
                "{path} OK ({} cells, {} witnessed provenance records)",
                s.cells, s.witnessed
            )
        })
    };
    match outcome {
        Ok(msg) => println!("checkreport: {msg}"),
        Err(msg) => {
            eprintln!("checkreport: {msg}");
            std::process::exit(1);
        }
    }
}
