//! Fig 7: effect of spatial distribution — single GCP region vs the
//! three-region deployment.
//!
//! Expected shape: latency effect small for the view methods but large for
//! the baseline; throughput drops 20–30% for the view methods and >40%
//! for the baseline when going multi-region.

#![forbid(unsafe_code)]

use fabric_sim::network::NetworkConfig;
use ledgerview_bench::methods::Method;
use ledgerview_bench::report::{results_dir, FigureTable};
use ledgerview_bench::timed::TimedRun;

fn main() {
    let mut table = FigureTable::new(
        "fig07",
        "Single-region vs multi-region deployment (16 clients, WL1)",
        "deployment",
    );
    for method in [
        Method::RevocableHash,
        Method::IrrevocableHash,
        Method::IrrevocableTlc,
        Method::Baseline2pc,
    ] {
        for (x, config) in [
            (0.0, NetworkConfig::paper_single_region()),
            (1.0, NetworkConfig::paper_multi_region()),
        ] {
            let mut run = TimedRun::paper_default(method, 16);
            if method == Method::Baseline2pc {
                run.views_per_tx = run.total_views;
            }
            run.network = config;
            let report = run.execute();
            let deployment = if x == 0.0 {
                "single-region"
            } else {
                "multi-region"
            };
            table.push(
                x,
                format!("{} / {}", method.label(), deployment),
                vec![("tps", report.tps), ("latency_ms", report.latency_mean_ms)],
            );
        }
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
