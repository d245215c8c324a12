//! Ablation: the TxListContract's flush interval (§5.4).
//!
//! The paper batches TxListContract updates "every time interval, say 30
//! seconds". This ablation sweeps the flush interval and reports the
//! trade-off it controls: fewer on-chain flush transactions (and bytes)
//! versus a staler completeness horizon — completeness is only verifiable
//! "for the time of the latest update".

#![forbid(unsafe_code)]

use ledgerview_bench::methods::{self, Method, PayloadModel};
use ledgerview_bench::report::{results_dir, FigureTable};
use ledgerview_bench::timed::TimedRun;
use ledgerview_simnet::SimTime;

fn main() {
    let intervals_s = [1u64, 5, 15, 30, 60, 120];
    let mut table = FigureTable::new(
        "ablation_tlc_flush",
        "TxListContract flush interval: on-chain cost vs completeness staleness",
        "flush_interval_s",
    );
    for &interval in &intervals_s {
        let run = TimedRun::paper_default(Method::IrrevocableTlc, 32);
        let plan_txs = run.clients * run.batch_size * run.batches;
        let mut background = methods::background_for(
            Method::IrrevocableTlc,
            &PayloadModel::default(),
            (run.clients * run.batch_size) as f64 / 3.0,
        );
        for task in &mut background {
            task.interval = SimTime::from_secs(interval);
        }
        let report = {
            use fabric_sim::network::{self, ClientPlan};
            use ledgerview_simnet::Region;
            let plan = methods::request_plan(
                Method::IrrevocableTlc,
                &run.payload,
                run.views_per_tx,
                run.total_views,
            );
            let clients: Vec<ClientPlan> = (0..run.clients)
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
            network::run_simulation(run.network.clone(), 1, clients, background)
        };
        let flush_txs = report.onchain_txs.saturating_sub(plan_txs as u64);
        table.push(
            interval as f64,
            "irrevocable+TLC",
            vec![
                ("tps", report.tps),
                ("latency_ms", report.latency_mean_ms),
                ("flush_txs", flush_txs as f64),
                // The completeness horizon lags by up to one interval.
                ("max_staleness_s", interval as f64),
            ],
        );
    }
    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
