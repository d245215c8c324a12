//! Regenerate every figure of the paper's evaluation in one run.
//!
//! Equivalent to running `fig04` … `fig13` in sequence; writes all CSVs to
//! `bench_results/` (override with `BENCH_RESULTS_DIR`).

#![forbid(unsafe_code)]

use std::process::Command;

fn main() {
    let figures = [
        "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
    ];
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("target dir");
    let mut failed = Vec::new();
    for fig in figures {
        println!("──────────────────────────────────────────────");
        println!("running {fig} …");
        let status = Command::new(dir.join(fig))
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {fig}: {e}"));
        if !status.success() {
            failed.push(fig);
        }
    }
    println!("──────────────────────────────────────────────");
    if failed.is_empty() {
        println!("all figures regenerated; CSVs in bench_results/");
    } else {
        eprintln!("FAILED figures: {failed:?}");
        std::process::exit(1);
    }
}
