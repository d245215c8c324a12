//! Fig 8: small workload WL1 (S/W, 7 nodes / 7 views) vs large workload
//! WL2 (L/W, 14 nodes / 14 views).
//!
//! Expected shape: the view methods barely change (views are contract
//! state, most operations are off-chain); the baseline degrades badly —
//! in the paper it times out entirely on WL2.

#![forbid(unsafe_code)]

use ledgerview_bench::methods::Method;
use ledgerview_bench::report::{results_dir, FigureTable};
use ledgerview_bench::timed::TimedRun;

fn main() {
    let mut table = FigureTable::new("fig08", "WL1 (S/W) vs WL2 (L/W), 32 clients", "workload");
    for method in Method::ALL {
        for (x, total_views, views_per_tx, label) in
            [(1.0, 7usize, 3usize, "S/W"), (2.0, 14, 4, "L/W")]
        {
            let mut run = TimedRun::paper_default(method, 32);
            run.total_views = total_views;
            run.views_per_tx = if method == Method::Baseline2pc {
                total_views
            } else {
                views_per_tx
            };
            let report = run.execute();
            table.push(
                x,
                format!("{} / {}", method.label(), label),
                vec![
                    ("tps", report.tps),
                    ("latency_ms", report.latency_mean_ms),
                    ("failed", report.failed_requests as f64),
                ],
            );
        }
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
