//! `tpcc_sharded`: `ledgerview_workload::run` — a TPC-C-class deck over
//! warehouses pinned to shard channels, cross-shard 2PC through Raft, with
//! the consistency invariants swept as it runs; the traced run adds the
//! fault schedule (leader kill, peer crash/restart, partition/heal).
//! Signatures are off (the shard default); this is `shard`, `workload`,
//! `cluster` and the MVCC path. Open loop in virtual time.
//!
//! The interarrival gap keeps the offered rate below the deployment's
//! virtual capacity. At the crate default of 5 ms the backlog grows
//! without bound and MVCC re-drives go quadratic; that regime measures
//! the backlog, not the code, and is not benchmarked.

use std::time::Instant;

use ledgerview_gateway::keydist::mix64;
use ledgerview_simnet::SimTime;
use ledgerview_telemetry::Telemetry;
use ledgerview_workload::{TpccConfig, TpccReport};

use crate::harness::{dir_bytes, median, secs, Rep, Scratch, Stopwatch};
use crate::probes::{row, Row};

pub const WAREHOUSES: u64 = 8;
pub const SHARDS: usize = 2;
pub const INTERARRIVAL: SimTime = SimTime::from_millis(25);
/// Decks a timed run deals from its seed and averages over.
pub const DECKS: usize = 4;

/// Seed of the `k`-th deck of a run.
pub fn deck_seed(seed: u64, k: usize) -> u64 {
    mix64(seed ^ mix64(k as u64 + 1))
}

fn config(scratch: &Scratch, seed: u64, ops: usize, faults: bool) -> TpccConfig {
    let mut cfg = TpccConfig::new(scratch.path(), WAREHOUSES, SHARDS, seed);
    cfg.ops = ops;
    cfg.interarrival = INTERARRIVAL;
    cfg.faults = faults;
    cfg.views = false;
    cfg
}

/// Wall seconds of population alone: `run` with an empty deck.
pub fn population_s(seed: u64) -> f64 {
    let scratch = Scratch::new("tpcc-pop");
    let start = Instant::now();
    ledgerview_workload::run(&config(&scratch, seed, 0, false), &Telemetry::wall_clock())
        .expect("population run");
    secs(start.elapsed())
}

pub struct TpccRun {
    pub rep: Rep,
    pub report: TpccReport,
}

/// One repetition: populate, run the deck, check the gates. `run` is
/// opaque, so the measured wall time includes population; the set-up
/// metric reports population on its own.
///
/// With `faults` the leader kill, peer crash and partition happen inside
/// the window. Whether the killed leader's shard needs one election or two
/// depends on the seed's election jitter, and the second one costs ≈ 20 %
/// more re-drives and stored bytes: across seeds the fault cell is bimodal.
/// The timed repetitions therefore run fault-free (bit-identical to the
/// fault cell whenever re-election fits in one block interval), and the
/// traced run executes the fault cell and checks it.
pub fn run_rep(seed: u64, ops: usize, faults: bool) -> TpccRun {
    let scratch = Scratch::new("tpcc");
    let cfg = config(&scratch, seed, ops, faults);
    let watch = Stopwatch::start();
    let report =
        ledgerview_workload::run(&cfg, &Telemetry::wall_clock()).expect("tpcc run returns Ok");
    let (wall_s, cpu_us) = watch.stop();

    let (mut committed, mut aborted, mut shed) = (0, 0, 0);
    for (_, p) in &report.profiles {
        committed += p.committed;
        aborted += p.aborted;
        shed += p.shed;
    }
    assert_eq!(
        committed + aborted + shed,
        ops as u64,
        "every deck op has a fate"
    );
    if faults {
        assert!(
            report.elections > SHARDS as u64,
            "the fault schedule must force a re-election: {} elections",
            report.elections
        );
    }
    TpccRun {
        rep: Rep {
            setup_s: None,
            wall_s,
            cpu_us,
            attempted: ops as u64,
            valid: committed,
            stored_bytes: dir_bytes(scratch.path()),
            fingerprint: report.state_roots.join("+"),
        },
        report,
    }
}

// ---- traced run --------------------------------------------------------

/// `run` is opaque, so this workload's ledger is what its report counts:
/// wasted work (re-drives per op), the cross-shard share, elections, and
/// the virtual-time figures that guard "faster by changing the protocol".
pub fn trace(seed: u64, ops: usize) -> Vec<Row> {
    let population_ms: Vec<f64> = (0..3).map(|_| population_s(seed) * 1e3).collect();
    let run = run_rep(deck_seed(seed, 0), ops, true);
    let r = &run.report;
    let profile = |label: &str| {
        r.profiles
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, p)| p.clone())
            .unwrap_or_default()
    };
    let (new_order, payment) = (profile("new_order"), profile("payment"));
    let n = ops as u64;
    vec![
        row("shard.redrives_per_op", r.redrives as f64 / n as f64, n),
        row("shard.cross_shard_share", r.cross_fraction, run.rep.valid),
        row("shard.elections", r.elections as f64, 1),
        row("workload.tpmc", r.tpmc, r.new_order_committed),
        row("workload.virt_makespan_s", r.makespan_us as f64 / 1e6, 1),
        row(
            "workload.virt_p50_ms.new_order",
            new_order.p50_us as f64 / 1e3,
            new_order.committed,
        ),
        row(
            "workload.virt_p99_ms.new_order",
            new_order.p99_us as f64 / 1e3,
            new_order.committed,
        ),
        row(
            "workload.virt_p99_ms.payment",
            payment.p99_us as f64 / 1e3,
            payment.committed,
        ),
        row("workload.invariant_checks", r.invariant_checks as f64, 1),
        row(
            "workload.population_ms",
            median(&population_ms),
            population_ms.len() as u64,
        ),
    ]
}
