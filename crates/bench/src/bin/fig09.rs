//! Fig 9: storage overhead vs number of views after 40 supply-chain
//! requests (real serialized bytes from the functional layer).
//!
//! Expected shape: revocable flat and smallest; TLC below plain
//! irrevocable; irrevocable grows with views; the baseline is roughly an
//! order of magnitude above the view methods (payload duplicated per
//! view).

#![forbid(unsafe_code)]

use ledgerview_bench::functional::{storage_after_requests, StorageMethod};
use ledgerview_bench::report::{results_dir, FigureTable};

fn main() {
    let views_sweep = [1usize, 5, 10, 25, 50, 100];
    let requests = 40;
    let mut table = FigureTable::new(
        "fig09",
        "Storage overhead vs number of views (40 requests)",
        "views",
    );
    for method in [
        StorageMethod::Revocable,
        StorageMethod::IrrevocableTlc,
        StorageMethod::Irrevocable,
        StorageMethod::Baseline,
    ] {
        for &views in &views_sweep {
            let (bytes, txs) = storage_after_requests(method, views, requests, 42);
            table.push(
                views as f64,
                method.label(),
                vec![
                    ("storage_kib", bytes as f64 / 1024.0),
                    ("onchain_txs", txs as f64),
                ],
            );
        }
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
