//! Fig 6: number of on-chain transactions vs number of application
//! requests (baseline with |V| = 10).
//!
//! Expected slopes: 1 for revocable and irrevocable+TLC, 2 for plain
//! irrevocable, 2·|V| (+2 coordinator records) for the baseline.

#![forbid(unsafe_code)]

use ledgerview_bench::methods::Method;
use ledgerview_bench::report::{results_dir, FigureTable};
use ledgerview_bench::timed::TimedRun;

fn main() {
    let request_sweep = [50usize, 100, 200, 400, 800];
    let mut table = FigureTable::new(
        "fig06",
        "On-chain transactions vs application requests (|V|=10 for baseline)",
        "requests",
    );
    for method in [
        Method::RevocableEnc,
        Method::IrrevocableEnc,
        Method::IrrevocableTlc,
        Method::Baseline2pc,
    ] {
        for &requests in &request_sweep {
            let mut run = TimedRun::paper_default(method, 8);
            run.total_views = 10;
            run.views_per_tx = if method == Method::Baseline2pc { 10 } else { 3 };
            run.batch_size = 25;
            run.batches = requests / (8 * 25);
            if run.batches == 0 {
                run.batches = 1;
                run.batch_size = requests / 8;
            }
            let report = run.execute();
            table.push(
                report.completed_requests as f64,
                method.label(),
                vec![
                    ("onchain_txs", report.onchain_txs as f64),
                    (
                        "txs_per_request",
                        report.onchain_txs as f64 / report.completed_requests.max(1) as f64,
                    ),
                ],
            );
        }
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
