//! Fig 5: per-request latency vs number of clients, WL1.
//!
//! Expected shape: irrevocable above revocable (extra view-modifying
//! transaction); TLC brings irrevocable close to revocable; the baseline's
//! latency soars with client count.

#![forbid(unsafe_code)]

use ledgerview_bench::methods::Method;
use ledgerview_bench::report::{results_dir, FigureTable};
use ledgerview_bench::timed::TimedRun;

fn main() {
    let clients_sweep = [4usize, 8, 16, 24, 32, 48, 64, 80, 96];
    let mut table = FigureTable::new(
        "fig05",
        "Per-request latency vs number of clients (WL1)",
        "clients",
    );
    for method in Method::ALL {
        for &clients in &clients_sweep {
            let mut run = TimedRun::paper_default(method, clients);
            if method == Method::Baseline2pc {
                run.views_per_tx = run.total_views;
            }
            let report = run.execute();
            table.push(
                clients as f64,
                method.label(),
                vec![
                    ("latency_ms", report.latency_mean_ms),
                    ("p50_ms", report.latency_p50_ms),
                    ("p95_ms", report.latency_p95_ms),
                ],
            );
        }
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
