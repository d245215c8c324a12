//! Fig 4: throughput (committed requests/s) vs number of clients, WL1.
//!
//! Series: the four view methods, irrevocable+TLC, and the 2PC baseline.
//! Expected shape (paper §6.3): revocable and TLC peak around 800 TPS and
//! stabilise past 48 clients; plain irrevocable lands near 150 TPS; the
//! baseline stays under ~70 TPS with a peak around 24 clients.

#![forbid(unsafe_code)]

use ledgerview_bench::methods::Method;
use ledgerview_bench::report::{metrics_out_arg, results_dir, write_metrics, FigureTable};
use ledgerview_bench::timed::TimedRun;

fn main() {
    let clients_sweep = [4usize, 8, 16, 24, 32, 48, 64, 80, 96];
    // `--metrics-out`: share one registry across the whole sweep so the
    // snapshot aggregates queue delays and request latency over every
    // method and client count.
    let metrics = metrics_out_arg().map(|p| (p, fabric_sim::Telemetry::wall_clock()));
    let mut table = FigureTable::new("fig04", "Throughput vs number of clients (WL1)", "clients");
    for method in Method::ALL {
        for &clients in &clients_sweep {
            let mut run = TimedRun::paper_default(method, clients);
            if method == Method::Baseline2pc {
                run.views_per_tx = run.total_views;
            }
            if let Some((_, telemetry)) = &metrics {
                run.network.telemetry = Some(telemetry.clone());
            }
            let report = run.execute();
            table.push(
                clients as f64,
                method.label(),
                vec![
                    ("tps", report.tps),
                    ("completed", report.completed_requests as f64),
                    ("failed", report.failed_requests as f64),
                ],
            );
        }
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
    if let Some((metrics_path, telemetry)) = &metrics {
        write_metrics(telemetry, metrics_path).expect("write metrics");
        eprintln!("wrote {}", metrics_path.display());
    }
}
