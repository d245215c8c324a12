//! Fig 10: scalability when **each transaction is in all the views** —
//! latency and throughput as the number of views grows from 1 to 100.
//!
//! Expected shape: latency rises from ~2.5 s to ~17 s and throughput drops
//! from ~800 to ~80 TPS, because multi-view transactions carry larger
//! payloads (fewer transactions per block, more validation work). Results
//! are similar for the hash- and encryption-based methods.

#![forbid(unsafe_code)]

use ledgerview_bench::methods::Method;
use ledgerview_bench::report::{results_dir, FigureTable};
use ledgerview_bench::timed::TimedRun;

fn main() {
    let views_sweep = [1usize, 5, 10, 25, 50, 75, 100];
    let mut table = FigureTable::new(
        "fig10",
        "Each tx in ALL views: latency & throughput vs number of views",
        "views",
    );
    for method in [Method::RevocableHash, Method::RevocableEnc] {
        for &views in &views_sweep {
            let mut run = TimedRun::paper_default(method, 64);
            run.total_views = views;
            run.views_per_tx = views; // every transaction in every view
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
