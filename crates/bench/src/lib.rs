//! # feral-bench
//!
//! The experiment harness behind `feral-paper`, the one binary that
//! regenerates the paper's results, one subcommand each (run with
//! `cargo run --release -p feral-bench -- <command>`; sizes are the
//! default, `--full` for the paper's and `--smoke` for CI).
//!
//! | Command | Regenerates |
//! |---|---|
//! | `table1` | Table 1 (validator usage + I-confluence verdicts) and the `BENCH_table1.json` run report |
//! | `table2` | Table 2 (per-app survey + aggregates) |
//! | `fig1` | Figure 1 (per-app mechanism-usage series) |
//! | `fig2` | Figure 2 (uniqueness stress) |
//! | `fig3` | Figure 3 (uniqueness workload across distributions) |
//! | `fig4` | Figure 4 (association stress) |
//! | `fig5` | Figure 5 (association workload vs #departments) |
//! | `fig6` | Figure 6 (longitudinal mechanism history) |
//! | `fig7` | Figure 7 (authorship CDFs) |
//! | `frameworks` | Section 6 (cross-framework survey, executed) |
//! | `ablation` | Section 7 (feral vs in-DB vs domesticated) |
//! | `check` | gates a `table1` run report from the outside ([`checkgate`]) |

#![warn(missing_docs)]

pub mod apps;
pub mod association;
pub mod checkgate;
pub mod trace_report;
pub mod uniqueness;

/// Mean and (population) standard deviation of a sample, as the paper
/// plots "the average and standard deviation of three runs per
/// experiment".
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Print an aligned table: a header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", render(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", render(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
