//! Fig 13: comparison with Fabric's private data collections.
//!
//! Series: (1) a plain private data collection, (2) a revocable view built
//! on top of a private data collection (PDC storage + LedgerView's
//! soundness/completeness machinery), (3) LedgerView's revocable
//! hash-based view.
//!
//! Expected shape: only a slight performance decrease from PDC to the
//! views — and building the view on PDC does not beat the native hash
//! view.

#![forbid(unsafe_code)]

use fabric_sim::network::{RequestPlan, TxSpec};
use ledgerview_bench::methods::PayloadModel;
use ledgerview_bench::report::{results_dir, FigureTable};
use ledgerview_bench::timed::TimedRun;
use ledgerview_bench::Method;

fn main() {
    let clients_sweep = [8usize, 16, 32, 48, 64];
    let model = PayloadModel::default();
    let mut table = FigureTable::new(
        "fig13",
        "Private data collections vs revocable views",
        "clients",
    );

    // (1) Plain PDC: the public transaction carries only key hashes — a
    // smaller payload than a view transaction, no view bookkeeping.
    let pdc_plan = RequestPlan {
        phases: vec![vec![TxSpec {
            pipeline: 0,
            payload_bytes: model.invoke_tx_bytes - 64,
        }]],
    };
    // (2) Revocable view over PDC: PDC payload + the per-view markers the
    // soundness/completeness tests need.
    let view_on_pdc_plan = RequestPlan {
        phases: vec![vec![TxSpec {
            pipeline: 0,
            payload_bytes: model.invoke_tx_bytes + model.per_view_bytes * 3 + 48,
        }]],
    };

    for &clients in &clients_sweep {
        for (label, plan) in [
            ("private data collection", pdc_plan.clone()),
            ("revocable view on PDC", view_on_pdc_plan.clone()),
        ] {
            let mut run = TimedRun::paper_default(Method::RevocableHash, clients);
            let report = {
                // Replace the plan by building clients manually.
                use fabric_sim::network::{self, ClientPlan};
                use ledgerview_simnet::Region;
                let clients_plans: Vec<ClientPlan> = (0..clients)
                    .map(|i| ClientPlan {
                        region: if i % 2 == 0 {
                            Region::EUROPE_NORTH
                        } else {
                            Region::NA_NORTHEAST
                        },
                        batches: (0..run.batches)
                            .map(|_| vec![plan.clone(); run.batch_size])
                            .collect(),
                    })
                    .collect();
                network::run_simulation(run.network.clone(), 1, clients_plans, vec![])
            };
            run.batches = 4;
            table.push(
                clients as f64,
                label,
                vec![("tps", report.tps), ("latency_ms", report.latency_mean_ms)],
            );
        }
        // (3) The native revocable hash view.
        let report = TimedRun::paper_default(Method::RevocableHash, clients).execute();
        table.push(
            clients as f64,
            "revocable hash view",
            vec![("tps", report.tps), ("latency_ms", report.latency_mean_ms)],
        );
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
