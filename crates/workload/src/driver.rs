//! The TPC-C-class scenario driver: populate, run the five-profile mix
//! through the sharded deployment's 2PC pipeline, sweep the
//! consistency invariants (also mid-run and under faults), and layer the
//! per-warehouse views on top.
//!
//! Everything downstream of the config is deterministic: the deck, the
//! parameters, the fault schedule, and the lock-step deployment are all
//! pure functions of `(seed, shape)`, so two runs of the same
//! [`TpccConfig`] produce bit-identical [`TpccReport`]s — the
//! differential test in `tests/workload_equivalence.rs` holds the harness
//! to exactly that.
//!
//! # Routing
//!
//! Warehouse `w`'s entire key range `wh~w{w}~…` is pinned to shard
//! `w mod shards`, so a transaction that touches one warehouse is a
//! single atomic transaction on one channel, and a transaction that
//! touches two warehouses on different shards runs the full 2PC protocol
//! (cross-warehouse Payment: home leg + customer leg; remote-item
//! NewOrder: home leg + one stock leg per remote `(warehouse, item)`).
//! Remote legs that happen to co-reside on the home shard collapse back
//! into the direct path — the router proves co-residency, the contract
//! exploits it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fabric_sim::chaincode::Chaincode;
use fabric_sim::statedb::VersionedState;
use ledgerview_cluster::Fault;
use ledgerview_shard::participant::Fenced;
use ledgerview_shard::{OpLeg, OpSpec, ShardConfig, ShardError, ShardedDeployment, TransferStatus};
use ledgerview_simnet::SimTime;
use ledgerview_telemetry::Telemetry;

use crate::contract::TpccContract;
use crate::invariants;
use crate::metrics::WorkloadMetrics;
use crate::mix::{deal, ParamGen, TxProfile};
use crate::schema::{warehouse_key, CUSTOMERS, DISTRICTS, ITEMS, TPCC_CC};
use crate::views::{ViewLayer, ViewsOutcome};

/// Shape of one TPC-C scenario run.
#[derive(Clone, Debug)]
pub struct TpccConfig {
    /// Number of warehouses (each pinned to shard `w mod shards`).
    pub warehouses: u64,
    /// Number of shard channels.
    pub shards: usize,
    /// Master seed for the deck, parameters, and the deployment.
    pub seed: u64,
    /// Root directory for the shards' persistent stores.
    pub storage_root: PathBuf,
    /// Measured transactions (the deck size; population is extra).
    pub ops: usize,
    /// Open-loop interarrival gap between scheduled transactions.
    pub interarrival: SimTime,
    /// Enable the per-warehouse LedgerView layer: audit-flush load during
    /// the run, payment mirroring and the access audit after it.
    pub views: bool,
    /// Enable the fault schedule (leader kill, peer crash/restart,
    /// partition/heal) inside the measurement window.
    pub faults: bool,
}

impl TpccConfig {
    /// A run with the default deck (600 transactions at 5 ms spacing),
    /// views and faults off.
    pub fn new(
        storage_root: impl Into<PathBuf>,
        warehouses: u64,
        shards: usize,
        seed: u64,
    ) -> TpccConfig {
        TpccConfig {
            warehouses: warehouses.max(1),
            shards: shards.max(1),
            seed,
            storage_root: storage_root.into(),
            ops: 600,
            interarrival: SimTime::from_millis(5),
            views: false,
            faults: false,
        }
    }
}

/// Per-profile outcome counters and latency percentiles (virtual time,
/// submission to terminal state).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileStats {
    /// Transactions dealt for this profile.
    pub submitted: u64,
    /// Reached `Committed`.
    pub committed: u64,
    /// Aborted by the protocol or left unfinished.
    pub aborted: u64,
    /// Always 0: the sharded deployment refuses no operation. Kept because
    /// `lvbench` reads it.
    pub shed: u64,
    /// Median commit latency, microseconds of virtual time.
    pub p50_us: u64,
    /// 99th-percentile commit latency.
    pub p99_us: u64,
}

/// The end-of-run report; bit-identical across reruns of the same config.
#[derive(Clone, Debug, PartialEq)]
pub struct TpccReport {
    /// Warehouses in the run.
    pub warehouses: u64,
    /// Shard channels in the run.
    pub shards: usize,
    /// The master seed.
    pub seed: u64,
    /// Per-profile stats, in [`TxProfile::ALL`] order, keyed by label.
    pub profiles: Vec<(&'static str, ProfileStats)>,
    /// Committed NewOrders (the tpmC numerator).
    pub new_order_committed: u64,
    /// NewOrder commits per minute of virtual time.
    pub tpmc: f64,
    /// Committed deck transactions that ran the cross-shard protocol.
    pub cross_committed: u64,
    /// Committed deck transactions that ran as one direct transaction.
    pub single_committed: u64,
    /// `cross_committed / (cross + single)`, 0 when nothing committed.
    pub cross_fraction: f64,
    /// Total MVCC re-drives across all deck transactions.
    pub redrives: u64,
    /// Virtual time from measurement start to quiescence, microseconds.
    pub makespan_us: u64,
    /// Population transactions that preceded the deck.
    pub population_ops: u64,
    /// Extra audit-flush transactions injected by the views layer.
    pub audit_ops: u64,
    /// Individual invariant checks evaluated (mid-run sweeps + final).
    pub invariant_checks: u64,
    /// Leader transitions summed over every shard's Raft group. Fault
    /// runs kill the shard-0 leader mid-window, so this exceeds the
    /// fault-free count (one initial election per shard) there.
    pub elections: u64,
    /// Canonical state root per shard, hex.
    pub state_roots: Vec<String>,
    /// View-layer audit, when `views` was on.
    pub views: Option<ViewsOutcome>,
}

fn next_id(n: &mut u64) -> String {
    let id = format!("op{n}");
    *n += 1;
    id
}

/// A single-warehouse transaction: routed by the warehouse key, executed
/// as one direct chaincode call (the leg's prepare is never used — one
/// key can only route to one shard).
fn direct_spec(id: String, w: u64, function: &str, args: Vec<String>) -> OpSpec {
    let args: Vec<Vec<u8>> = args.into_iter().map(String::into_bytes).collect();
    OpSpec {
        id,
        direct: (TPCC_CC.to_string(), function.to_string(), args.clone()),
        legs: vec![OpLeg {
            key: warehouse_key(w),
            chaincode: TPCC_CC.to_string(),
            prepare: function.to_string(),
            args,
        }],
    }
}

fn strs(parts: &[u64]) -> Vec<String> {
    parts.iter().map(u64::to_string).collect()
}

fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 - 1) * p / 100;
    sorted[rank as usize]
}

fn sweep_local(
    dep: &ShardedDeployment,
    cfg: &TpccConfig,
    metrics: &WorkloadMetrics,
) -> Result<u64, ShardError> {
    let t0 = Instant::now();
    let mut checks = 0;
    for w in 0..cfg.warehouses {
        let shard = w as usize % cfg.shards;
        checks += invariants::check_warehouse_local(dep.cluster(shard).canonical_state(), w)
            .map_err(|e| ShardError::Protocol(vec![format!("invariant: {e}")]))?;
    }
    metrics
        .invariant_check_us
        .observe(t0.elapsed().as_micros() as u64);
    Ok(checks)
}

/// Run one configured scenario end to end and return its report.
pub fn run(cfg: &TpccConfig, telemetry: &Telemetry) -> Result<TpccReport, ShardError> {
    let metrics = WorkloadMetrics::new(telemetry);
    let mut shard_cfg = ShardConfig::new(&cfg.storage_root, cfg.shards, cfg.seed);
    for w in 0..cfg.warehouses {
        shard_cfg
            .pins
            .push((format!("wh~w{w}~"), w as usize % cfg.shards));
    }
    shard_cfg.workloads.push((
        TPCC_CC.to_string(),
        Arc::new(|| Box::new(Fenced(TpccContract)) as Box<dyn Chaincode>),
    ));
    let mut dep = ShardedDeployment::new(shard_cfg)?;
    dep.set_telemetry(telemetry);

    // ---- population ----
    let mut n = 0u64;
    let mut at = SimTime::from_millis(10);
    let step = SimTime::from_millis(2);
    for w in 0..cfg.warehouses {
        dep.schedule_op(
            at,
            direct_spec(next_id(&mut n), w, "load_warehouse", strs(&[w, DISTRICTS])),
        );
        at += step;
        for d in 0..DISTRICTS {
            dep.schedule_op(
                at,
                direct_spec(
                    next_id(&mut n),
                    w,
                    "load_customers",
                    strs(&[w, d, CUSTOMERS]),
                ),
            );
            at += step;
        }
        dep.schedule_op(
            at,
            direct_spec(next_id(&mut n), w, "load_stock", strs(&[w, 0, ITEMS])),
        );
        at += step;
    }
    let population_ops = n;
    dep.run_until_converged(at + SimTime::from_secs(120))?;
    let unpopulated: Vec<String> = dep
        .op_records()
        .iter()
        .filter(|r| r.status != TransferStatus::Committed)
        .map(|r| format!("population {} ended {:?}", r.id, r.status))
        .collect();
    if !unpopulated.is_empty() {
        return Err(ShardError::Protocol(unpopulated));
    }

    // ---- the measured deck ----
    let start = dep.now();
    let deck = deal(cfg.seed, cfg.ops);
    let gen = ParamGen::new(cfg.warehouses);
    let mut deck_ops: Vec<(TxProfile, usize)> = Vec::with_capacity(cfg.ops);
    let mut audit_seq = vec![0u64; cfg.warehouses as usize];
    let mut audit_ops = 0u64;
    let mut payments_seen = 0u64;
    for (i, &profile) in deck.iter().enumerate() {
        let at = start + cfg.interarrival.scaled(i as u64);
        metrics.inc_submitted(profile);
        let id = next_id(&mut n);
        let spec = match profile {
            TxProfile::NewOrder => {
                let p = gen.new_order(cfg.seed, i as u64);
                let args = vec![
                    p.w.to_string(),
                    p.d.to_string(),
                    p.c.to_string(),
                    p.lines_wire(),
                    at.as_micros().to_string(),
                ];
                let mut legs = vec![OpLeg {
                    key: warehouse_key(p.w),
                    chaincode: TPCC_CC.to_string(),
                    prepare: "prepare_no_home".to_string(),
                    args: args.iter().map(|a| a.clone().into_bytes()).collect(),
                }];
                // One stock leg per remote (warehouse, item), quantities
                // aggregated so legs never collide on a pending key.
                let mut remote: Vec<(u64, u64, u64)> = Vec::new();
                for l in p.lines.iter().filter(|l| l.supply_w != p.w) {
                    match remote
                        .iter_mut()
                        .find(|(sw, i_, _)| *sw == l.supply_w && *i_ == l.item)
                    {
                        Some((_, _, q)) => *q += l.qty,
                        None => remote.push((l.supply_w, l.item, l.qty)),
                    }
                }
                for (sw, item, qty) in remote {
                    legs.push(OpLeg {
                        key: warehouse_key(sw),
                        chaincode: TPCC_CC.to_string(),
                        prepare: "prepare_stock".to_string(),
                        args: strs(&[sw, item, qty])
                            .into_iter()
                            .map(String::into_bytes)
                            .collect(),
                    });
                }
                OpSpec {
                    id,
                    direct: (
                        TPCC_CC.to_string(),
                        "new_order".to_string(),
                        args.into_iter().map(String::into_bytes).collect(),
                    ),
                    legs,
                }
            }
            TxProfile::Payment => {
                let p = gen.payment(cfg.seed, i as u64);
                OpSpec {
                    id,
                    direct: (
                        TPCC_CC.to_string(),
                        "payment".to_string(),
                        strs(&[p.w, p.d, p.cw, p.cd, p.c, p.amount])
                            .into_iter()
                            .map(String::into_bytes)
                            .collect(),
                    ),
                    legs: vec![
                        OpLeg {
                            key: warehouse_key(p.w),
                            chaincode: TPCC_CC.to_string(),
                            prepare: "prepare_pay_home".to_string(),
                            args: strs(&[p.w, p.d, p.amount])
                                .into_iter()
                                .map(String::into_bytes)
                                .collect(),
                        },
                        OpLeg {
                            key: warehouse_key(p.cw),
                            chaincode: TPCC_CC.to_string(),
                            prepare: "prepare_pay_cust".to_string(),
                            args: strs(&[p.cw, p.cd, p.c, p.amount])
                                .into_iter()
                                .map(String::into_bytes)
                                .collect(),
                        },
                    ],
                }
            }
            TxProfile::OrderStatus => {
                let (w, d, c) = gen.order_status(cfg.seed, i as u64);
                direct_spec(id, w, "order_status", strs(&[w, d, c]))
            }
            TxProfile::Delivery => {
                let (w, carrier) = gen.delivery(cfg.seed, i as u64);
                direct_spec(id, w, "delivery", strs(&[w, carrier, DISTRICTS]))
            }
            TxProfile::StockLevel => {
                let (w, d, threshold) = gen.stock_level(cfg.seed, i as u64);
                direct_spec(id, w, "stock_level", strs(&[w, d, threshold]))
            }
        };
        let idx = dep.schedule_op(at, spec);
        deck_ops.push((profile, idx));

        // The views layer costs throughput while it's on: every fourth
        // payment also flushes an audit row for its warehouse.
        if cfg.views && profile == TxProfile::Payment {
            payments_seen += 1;
            if payments_seen.is_multiple_of(4) {
                let p = gen.payment(cfg.seed, i as u64);
                let seq = audit_seq[p.w as usize];
                audit_seq[p.w as usize] += 1;
                dep.schedule_op(
                    at,
                    direct_spec(next_id(&mut n), p.w, "audit_flush", strs(&[p.w, seq])),
                );
                audit_ops += 1;
            }
        }
    }

    // ---- faults inside the measurement window ----
    let window = cfg.interarrival.scaled(cfg.ops as u64);
    let pct = |p: u64| start + SimTime::from_micros(window.as_micros() * p / 100);
    if cfg.faults {
        dep.schedule_leader_kill(0, pct(30));
        let s1 = 1.min(cfg.shards - 1);
        dep.schedule_fault(s1, pct(45), Fault::CrashPeer(1));
        dep.schedule_fault(s1, pct(65), Fault::RestartPeer(1));
        dep.schedule_fault(0, pct(75), Fault::Partition(vec![2]));
        dep.schedule_fault(0, pct(85), Fault::Heal);
    }

    // ---- run, sweeping the local invariants as we go ----
    let sweep_every = SimTime::from_millis(500);
    let mut next_sweep = start + sweep_every;
    let end = start + window;
    let mut invariant_checks = 0u64;
    while dep.now() < end {
        dep.run_until(next_sweep.min(end));
        if dep.now() >= next_sweep {
            invariant_checks += sweep_local(&dep, cfg, &metrics)?;
            next_sweep += sweep_every;
        }
    }
    let converged_at = dep.run_until_converged(end + SimTime::from_secs(600))?;
    dep.verify()?;

    // ---- final invariants: local per warehouse, then global ----
    invariant_checks += sweep_local(&dep, cfg, &metrics)?;
    let states: Vec<&dyn VersionedState> = (0..cfg.shards)
        .map(|s| dep.cluster(s).canonical_state())
        .collect();
    invariant_checks += invariants::check_global(&states)
        .map_err(|e| ShardError::Protocol(vec![format!("global invariant: {e}")]))?;

    // ---- per-profile stats ----
    let mut profiles = Vec::with_capacity(TxProfile::ALL.len());
    let mut cross_committed = 0u64;
    let mut single_committed = 0u64;
    let mut redrives = 0u64;
    for p in TxProfile::ALL {
        let mut stats = ProfileStats::default();
        let mut latencies = Vec::new();
        for &(profile, idx) in deck_ops.iter().filter(|(q, _)| *q == p) {
            let rec = dep.op(idx);
            redrives += rec.redrives;
            match rec.status {
                TransferStatus::Committed => {
                    stats.committed += 1;
                    metrics.inc_committed(profile);
                    latencies.push(rec.completed_us - rec.submitted_us);
                    if rec.cross {
                        cross_committed += 1;
                    } else {
                        single_committed += 1;
                    }
                }
                _ => {
                    stats.aborted += 1;
                    metrics.inc_aborted(profile);
                }
            }
            stats.submitted += 1;
        }
        latencies.sort_unstable();
        stats.p50_us = percentile(&latencies, 50);
        stats.p99_us = percentile(&latencies, 99);
        profiles.push((p.label(), stats));
    }
    let new_order_committed = profiles
        .iter()
        .find(|(l, _)| *l == "new_order")
        .map(|(_, s)| s.committed)
        .unwrap_or(0);
    let makespan_us = converged_at.as_micros() - start.as_micros();
    let tpmc = if makespan_us == 0 {
        0.0
    } else {
        new_order_committed as f64 / (makespan_us as f64 / 60_000_000.0)
    };
    let committed_total = cross_committed + single_committed;
    let cross_fraction = if committed_total == 0 {
        0.0
    } else {
        cross_committed as f64 / committed_total as f64
    };

    // ---- views layer: mirror committed payments, audit access ----
    let views = if cfg.views {
        let mut layer = ViewLayer::new(cfg.warehouses, cfg.seed);
        for (i, &(profile, idx)) in deck_ops.iter().enumerate() {
            if profile == TxProfile::Payment && dep.op(idx).status == TransferStatus::Committed {
                let p = gen.payment(cfg.seed, i as u64);
                layer.mirror_payment(p.cw, p.cd, p.c, p.w, p.amount);
            }
        }
        let out = layer.audit();
        metrics.view_queries_ok.add(out.owner_reads_ok);
        metrics
            .view_queries_denied
            .add(out.foreign_denials + out.revoked_denials);
        Some(out)
    } else {
        None
    };

    let elections: u64 = (0..cfg.shards)
        .map(|s| dep.cluster(s).report().elections)
        .sum();

    Ok(TpccReport {
        warehouses: cfg.warehouses,
        shards: cfg.shards,
        seed: cfg.seed,
        profiles,
        new_order_committed,
        tpmc,
        cross_committed,
        single_committed,
        cross_fraction,
        redrives,
        makespan_us,
        population_ops,
        audit_ops,
        invariant_checks,
        elections,
        state_roots: dep.state_roots().iter().map(|d| d.to_hex()).collect(),
        views,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_store::testdir::TestDir;

    fn small(dir: &TestDir, shards: usize, views: bool, faults: bool) -> TpccConfig {
        let mut cfg = TpccConfig::new(dir.path(), 4, shards, 0xC0FFEE);
        cfg.ops = 120;
        cfg.interarrival = SimTime::from_millis(8);
        cfg.views = views;
        cfg.faults = faults;
        cfg
    }

    #[test]
    fn two_shard_run_commits_the_mix_and_holds_invariants() {
        let dir = TestDir::new("workload_driver_2s");
        let telemetry = Telemetry::wall_clock();
        let report = run(&small(&dir, 2, false, false), &telemetry).unwrap();
        assert_eq!(report.population_ops, 4 * (2 + DISTRICTS));
        let total: u64 = report.profiles.iter().map(|(_, s)| s.submitted).sum();
        assert_eq!(total, 120);
        // The deck is exact: 120 ⇒ 54/51/5/5/5 by largest remainder.
        let get = |l: &str| {
            report
                .profiles
                .iter()
                .find(|(p, _)| *p == l)
                .map(|(_, s)| s.clone())
                .unwrap()
        };
        assert_eq!(get("payment").submitted, 51);
        assert_eq!(
            get("order_status").submitted + get("delivery").submitted,
            10
        );
        // Nearly everything commits in a fault-free run.
        let committed: u64 = report.profiles.iter().map(|(_, s)| s.committed).sum();
        assert!(committed * 10 >= total * 9, "committed {committed}/{total}");
        assert!(report.new_order_committed > 0 && report.tpmc > 0.0);
        // Cross-warehouse payments exist at 4 warehouses / 2 shards.
        assert!(report.cross_committed > 0, "expected some 2PC traffic");
        assert!(report.invariant_checks > 0);
    }

    #[test]
    fn views_layer_audits_cleanly_and_costs_extra_ops() {
        let dir = TestDir::new("workload_driver_views");
        let telemetry = Telemetry::wall_clock();
        let report = run(&small(&dir, 2, true, false), &telemetry).unwrap();
        assert!(report.audit_ops > 0, "views runs inject audit load");
        let v = report.views.expect("views outcome present");
        assert!(v.mirrored > 0 && v.owner_reads_ok == v.mirrored);
        assert_eq!(v.unauthorized_reads, 0);
        assert_eq!(v.foreign_denials, report.warehouses);
        assert_eq!(v.revoked_denials, report.warehouses);
    }

    #[test]
    fn faulted_run_still_converges_and_holds_invariants() {
        let dir = TestDir::new("workload_driver_faults");
        let telemetry = Telemetry::wall_clock();
        let report = run(&small(&dir, 2, false, true), &telemetry).unwrap();
        let committed: u64 = report.profiles.iter().map(|(_, s)| s.committed).sum();
        assert!(committed > 0, "faulted run still makes progress");
        assert!(report.invariant_checks > 0);
        // The leader kill really happened: shard 0 re-elected, so the
        // run records more leader transitions than the one-per-shard a
        // fault-free run pays at startup.
        assert!(
            report.elections > report.shards as u64,
            "no extra election: kill not applied ({} transitions)",
            report.elections
        );
    }
}
