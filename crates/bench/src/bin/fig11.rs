//! Fig 11: scalability when **each transaction is in a single view** —
//! latency and throughput as the number of views grows from 1 to 100.
//!
//! Expected shape: nearly flat — latency stays around 2.5 s and throughput
//! between 600 and 900 TPS regardless of the number of views.

#![forbid(unsafe_code)]

use ledgerview_bench::methods::Method;
use ledgerview_bench::report::{results_dir, FigureTable};
use ledgerview_bench::timed::TimedRun;

fn main() {
    let views_sweep = [1usize, 5, 10, 25, 50, 75, 100];
    let mut table = FigureTable::new(
        "fig11",
        "Each tx in a SINGLE view: latency & throughput vs number of views",
        "views",
    );
    for method in [Method::RevocableHash, Method::RevocableEnc] {
        for &views in &views_sweep {
            let mut run = TimedRun::paper_default(method, 64);
            run.total_views = views;
            run.views_per_tx = 1; // each transaction in exactly one view
            let report = run.execute();
            table.push(
                views as f64,
                method.label(),
                vec![("tps", report.tps), ("latency_ms", report.latency_mean_ms)],
            );
        }
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
