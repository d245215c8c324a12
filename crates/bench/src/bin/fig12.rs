//! Fig 12: verification delay vs number of transactions in the view.
//!
//! Expected shape: both soundness and completeness verification grow
//! linearly; soundness is much more expensive because it requires one
//! ledger access per transaction, while completeness compares against the
//! TxListContract's maintained list; local computation is a minor share.

#![forbid(unsafe_code)]

use ledgerview_bench::functional::verification_timing;
use ledgerview_bench::report::{results_dir, FigureTable};

fn main() {
    let tx_sweep = [10usize, 25, 50, 100, 200, 400];
    let mut table = FigureTable::new(
        "fig12",
        "Verification delay vs number of transactions",
        "transactions",
    );
    for &n in &tx_sweep {
        let timing = verification_timing(n, 42);
        table.push(
            n as f64,
            "soundness",
            vec![
                ("total_ms", timing.soundness_ms),
                ("local_cpu_ms", timing.soundness_local_ms),
            ],
        );
        table.push(
            n as f64,
            "completeness",
            vec![
                ("total_ms", timing.completeness_ms),
                ("local_cpu_ms", timing.completeness_local_ms),
            ],
        );
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
