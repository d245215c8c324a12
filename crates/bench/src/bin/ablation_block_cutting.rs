//! Ablation: Fabric block-cutting parameters.
//!
//! The ≈2.5 s low-load latency floor in every figure comes from the batch
//! timeout; the saturation throughput comes from per-block and per-KB
//! validation costs interacting with the byte limit. This ablation sweeps
//! both knobs on the revocable workload to show each effect in isolation —
//! the calibration evidence behind DESIGN.md §3.1.

#![forbid(unsafe_code)]

use ledgerview_bench::report::{results_dir, FigureTable};
use ledgerview_bench::timed::TimedRun;
use ledgerview_bench::Method;
use ledgerview_simnet::SimTime;

fn main() {
    let mut table = FigureTable::new(
        "ablation_block_cutting",
        "Block cutting: batch timeout and byte limit",
        "param_value",
    );

    // Sweep the batch timeout at LOW load (4 clients): the latency floor
    // tracks the timeout almost 1:1.
    for timeout_ms in [250u64, 500, 1000, 2000, 4000] {
        let mut run = TimedRun::paper_default(Method::RevocableHash, 4);
        run.network.cutting.timeout = SimTime::from_millis(timeout_ms);
        let report = run.execute();
        table.push(
            timeout_ms as f64,
            "batch-timeout (4 clients)",
            vec![("latency_ms", report.latency_mean_ms), ("tps", report.tps)],
        );
    }

    // Sweep the byte limit at HIGH load (64 clients): smaller blocks pay
    // the per-block overhead more often and throughput falls.
    for kib in [64u64, 128, 256, 512, 1024] {
        let mut run = TimedRun::paper_default(Method::RevocableHash, 64);
        run.network.cutting.max_block_bytes = kib * 1024;
        let report = run.execute();
        table.push(
            kib as f64,
            "byte-limit-KiB (64 clients)",
            vec![("latency_ms", report.latency_mean_ms), ("tps", report.tps)],
        );
    }

    table.print();
    let path = table.write_csv(results_dir()).expect("write csv");
    eprintln!("wrote {}", path.display());
}
