//! Virtual-time goldens: the headline numbers of the replicated pipeline,
//! the sharded deployment, the TPC-C-class workload and peer bootstrap,
//! pinned as tests.
//!
//! Every run here is a pure function of `(config, seed)` on the virtual
//! clock — no code-speed change can move these numbers, only a change in
//! *behaviour* (submission order, cutting, routing, re-drives, admission).
//! So each test pins a row of the integers a headline derives from
//! (committed count, blocks, virtual window µs, re-drives) next to the
//! 2-decimal headline. A failure means behaviour moved: fix it, or re-pin
//! in a PR that says why. Wall-clock cost is `lvbench`'s business.

use std::collections::{BTreeMap, BTreeSet};

use ledgerview::cluster::{BootstrapMode, ClusterConfig, ClusterSim};
use ledgerview::prelude::*;
use ledgerview::shard::{ShardConfig, ShardedDeployment, TransferStatus};
use ledgerview::simnet::{Region, SimTime};
use ledgerview::store::testdir::TestDir;
use ledgerview::workload::{mix64, TpccConfig, TpccReport};

/// Every metric family a run populated must pass the in-repo exposition lint.
fn lint_metrics(telemetry: &Telemetry) {
    let text = telemetry.registry().prometheus_text();
    let issues = ledgerview::telemetry::promlint::lint_prometheus(&text);
    assert!(issues.is_empty(), "metric exposition lint: {issues:?}");
}

/// `count` per second of a `window_us` window, as the 2-decimal headline.
fn rate(count: u64, window_us: u64) -> String {
    format!("{:.2}", count as f64 * 1e6 / window_us as f64)
}

// ---- end-to-end pipeline: gateway → 3 Raft orderers → 3 peers ----------

/// 80 counter increments at 10 ms spacing over 16 keys, every transaction
/// traced; returns `(blocks, first submit → last peer commit µs, tps)`.
fn pipeline_run(reorder: bool) -> (u64, u64, String) {
    const TXS: u64 = 80;
    let dir = TestDir::new("golden-e2e");
    let mut cfg = ClusterConfig::new(dir.path(), 0xE2E_7B5);
    cfg.reorder.enabled = reorder;
    cfg.check_signatures = false;
    let telemetry = Telemetry::wall_clock();
    let mut sim = ClusterSim::new(cfg).expect("cluster builds");
    sim.set_telemetry(&telemetry);
    sim.schedule_counter_load(SimTime::from_millis(300), SimTime::from_millis(10), TXS, 16);
    sim.run_until_converged(SimTime::from_secs(600))
        .expect("cluster converges");
    sim.verify_convergence().expect("peers canonical");
    let report = sim.report();
    assert_eq!(report.txs, TXS, "every submission commits");

    // By trace id: (submit start, queue µs, replicate µs, per-peer commit (µs, end)).
    type Journey = (u64, u64, u64, Vec<(u64, u64)>);
    let mut journeys: BTreeMap<u64, Journey> = BTreeMap::new();
    for s in telemetry.tracer().recent() {
        let Some(trace) = s.trace_id else { continue };
        let j = journeys
            .entry(trace)
            .or_insert((u64::MAX, 0, 0, Vec::new()));
        match s.name.as_str() {
            "submit" => j.0 = j.0.min(s.start_us),
            "order.queue" => j.1 = s.dur_us,
            "order.replicate" => j.2 = s.dur_us,
            "peer.commit" => j.3.push((s.dur_us, s.start_us + s.dur_us)),
            _ => {}
        }
    }
    assert_eq!(journeys.len() as u64, TXS, "one linked journey per tx");
    let chrome = telemetry.tracer().chrome_trace_json();
    let lanes = ["\"process_name\"", "gateway", "orderer-0", "peer-2"];
    assert!(lanes.iter().all(|l| chrome.contains(l)), "per-node lanes");
    lint_metrics(&telemetry);
    let js = || journeys.values();
    assert!(
        js().all(|j| j.0 != u64::MAX && j.3.len() == 3),
        "submit + 3 peer commits"
    );
    // queue → replicate → commit tile a journey, so the phase means add up
    // to the end-to-end mean (10 % slack, as the bench allowed).
    let mean = |xs: Vec<u64>| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    let commits = || js().flat_map(|j| j.3.iter().map(move |c| (j, c.0)));
    let phases = mean(js().map(|j| j.1).collect())
        + mean(js().map(|j| j.2).collect())
        + mean(commits().map(|(_, dur)| dur).collect());
    let e2e = mean(commits().map(|(j, dur)| j.1 + j.2 + dur).collect());
    assert!((phases - e2e).abs() <= 0.10 * e2e, "{phases} vs {e2e}");

    let first = js().map(|j| j.0).min().unwrap();
    let last = js().flat_map(|j| j.3.iter().map(|c| c.1)).max().unwrap();
    (report.blocks, last - first, rate(TXS, last - first))
}

#[test]
fn pipeline_throughput() {
    // reorder ⇒ (blocks, window µs, tps).
    for (reorder, want) in [
        (false, (4, 1_040_750, "76.87")),
        (true, (7, 1_790_750, "44.67")),
    ] {
        let (blocks, window_us, tps) = pipeline_run(reorder);
        let at = format!("reorder={reorder}");
        assert_eq!((blocks, window_us, tps.as_str()), want, "{at}");
    }
}

// ---- sharded scale-out: 40 transfers per shard, 2PC across shards ------

const SHARD_SEED: u64 = 0x5CA1_E007;

/// Every shard (3 orderers, 2 peers) carries 40 transfers at 10 ms spacing
/// between its 16+ hash-placed accounts; every `1/cross_fraction`-th goes to
/// another shard and pays the full 2PC. Returns `(cross-shard transfers,
/// committed, re-drives, load start → convergence µs)`.
fn shard_run(shards: usize, cross_fraction: f64, t: Option<&Telemetry>) -> (u64, u64, u64, u64) {
    let load_start = SimTime::from_secs(1);
    let dir = TestDir::new("golden-shard");
    let seed = SHARD_SEED ^ ((shards as u64) << 32) ^ (cross_fraction * 100.0) as u64;
    let cfg = ShardConfig::new(dir.path(), shards, seed);
    let mut dep = ShardedDeployment::new(cfg).expect("deployment builds");
    if let Some(t) = t {
        dep.set_telemetry(t);
    }
    let mut buckets: Vec<Vec<String>> = vec![Vec::new(); shards];
    for j in 0.. {
        if buckets.iter().all(|b| b.len() >= 16) {
            break;
        }
        let name = format!("u{j}");
        buckets[dep.shard_of_account(&name)].push(name);
    }
    for name in buckets.iter().flatten() {
        dep.schedule_open(SimTime::from_millis(100), name, 1_000_000);
    }
    let cross_every = (cross_fraction > 0.0 && shards > 1).then(|| (1.0 / cross_fraction).round());
    let mut cross = 0;
    for k in 0..40u64 {
        let at = load_start + SimTime::from_millis(k * 10);
        for (s, bucket) in buckets.iter().enumerate() {
            let r = mix64(SHARD_SEED ^ (k << 16) ^ s as u64);
            let src = (r % bucket.len() as u64) as usize;
            let nth = k * shards as u64 + s as u64;
            let dst = if cross_every.is_some_and(|n| nth.is_multiple_of(n as u64)) {
                cross += 1;
                let hop = 1 + (mix64(r) % (shards as u64 - 1)) as usize;
                let other = &buckets[(s + hop) % shards];
                &other[(mix64(r ^ 1) % other.len() as u64) as usize]
            } else {
                let step = 1 + (mix64(r ^ 2) % (bucket.len() as u64 - 1)) as usize;
                &bucket[(src + step) % bucket.len()]
            };
            dep.schedule_transfer(at, &bucket[src], dst, 1 + r % 10);
        }
    }
    let converged_at = dep
        .run_until_converged(SimTime::from_secs(600))
        .expect("deployment converges");
    dep.verify().expect("atomicity + conservation audit");
    let report = dep.report();
    assert_eq!(report.aborted, 0, "none abort");
    let statuses = || report.transfers.iter().map(|t| &t.status);
    assert!(statuses().all(|s| *s == TransferStatus::Committed));
    let window_us = converged_at.as_micros() - load_start.as_micros();
    (cross, report.committed, report.redrives, window_us)
}

#[test]
fn shard_scale_out() {
    // shards ⇒ (committed, window µs, aggregate tps): the same at every
    // cross-shard fraction, since 2PC legs fit inside the block cadence.
    const BY_SHARDS: [(usize, (u64, u64, &str)); 4] = [
        (1, (40, 2_350_000, "17.02")),
        (2, (80, 2_850_000, "28.07")),
        (4, (160, 2_850_000, "56.14")),
        (8, (320, 2_850_000, "112.28")),
    ];
    // fraction ⇒ (cross-shard transfers, re-drives) at 1/2/4/8 shards.
    const BY_FRACTION: [(f64, [(u64, u64); 4]); 3] = [
        (0.00, [(0, 92), (0, 204), (0, 368), (0, 756)]),
        (0.01, [(0, 92), (1, 210), (2, 371), (4, 761)]),
        (0.10, [(0, 92), (8, 196), (16, 354), (32, 745)]),
    ];
    for (fraction, cells) in BY_FRACTION {
        for ((shards, want), want_2pc) in BY_SHARDS.into_iter().zip(cells) {
            let (cross, committed, redrives, window_us) = shard_run(shards, fraction, None);
            let at = format!("{shards} shards, cross {fraction}");
            assert_eq!((cross, redrives), want_2pc, "{at}");
            let tps = rate(committed, window_us);
            assert_eq!((committed, window_us, tps.as_str()), want, "{at}");
        }
    }
    // The scale-out headline: 8 shards over 1, from the rows just pinned.
    let [one, .., eight] = BY_SHARDS.map(|(_, (n, window_us, _))| n as f64 / window_us as f64);
    assert_eq!(format!("{:.2}", eight / one), "6.60");
}

#[test]
fn cross_shard_transfer_is_one_connected_trace() {
    let telemetry = Telemetry::wall_clock();
    shard_run(2, 0.10, Some(&telemetry));
    lint_metrics(&telemetry);
    let spans = telemetry.tracer().recent();
    // Some transfer carries all four 2PC phases and submits on both shards'
    // lanes under a single trace id.
    let finalized = spans.iter().filter(|s| s.name == "2pc.finalize");
    let connected = finalized.filter_map(|s| s.trace_id).any(|trace| {
        let journey = || spans.iter().filter(move |s| s.trace_id == Some(trace));
        let names: BTreeSet<&str> = journey().map(|s| s.name.as_str()).collect();
        let submits = journey().filter(|s| s.name == "submit");
        let lanes: BTreeSet<u64> = submits.map(|s| s.process).collect();
        let phases = ["2pc.begin", "2pc.prepare", "2pc.decide", "2pc.finalize"];
        phases.iter().all(|p| names.contains(p)) && lanes.len() >= 2
    });
    assert!(
        connected,
        "no intact cross-shard journey in the span buffer"
    );
}

// ---- TPC-C-class workload: 120-op deck, 5 ms interarrival --------------

fn tpcc_cell(warehouses: u64, shards: usize, views: bool, faults: bool) -> TpccReport {
    let dir = TestDir::new("golden-tpcc");
    let mut cfg = TpccConfig::new(dir.path(), warehouses, shards, 0x7CC_2026);
    cfg.ops = 120;
    cfg.interarrival = SimTime::from_millis(5);
    cfg.views = views;
    cfg.faults = faults;
    let telemetry = Telemetry::wall_clock();
    let r = ledgerview::workload::run(&cfg, &telemetry).expect("cell converges clean");
    lint_metrics(&telemetry);
    assert!(r.invariant_checks > 0, "invariants ran");
    assert_eq!(r.views.is_some(), views);
    if let Some(v) = &r.views {
        assert_eq!(v.unauthorized_reads, 0, "unauthorized view read");
        assert_eq!(v.owner_reads_ok, v.mirrored, "owner sees every row");
        // Each warehouse's view refuses its owner once revoked, and a
        // reader from another warehouse — when there is another one.
        assert_eq!(v.revoked_denials, warehouses, "revoked readers refused");
        let foreign = if warehouses == 1 { 0 } else { warehouses };
        assert_eq!(v.foreign_denials, foreign, "foreign readers refused");
    }
    r
}

#[test]
fn tpcc_grid() {
    // Per-shard state roots of the (4 wh, 2 sh) cells, views off then on:
    // every cross-shard 2PC leg's writes (keys, values, order), pinned.
    let roots_4wh_2sh = [
        [
            "dc0524c7cee5c43cb3e9bc255ada9b77887453649d2493deec4ec4b851c886a3",
            "a02577483b195a951a3fdfad11268ae71c85eb67a7bcb91b0a2a0995e46dae6c",
        ],
        [
            "d74544c2914538936e1aba0084640a734a51d0876c13d06dac2ff4206a84b67b",
            "7cfba3826da1cae69463604858468b9dd380ec56d6654516f17f0bc44cf4f368",
        ],
    ];
    // (warehouses, shards) ⇒ (tpmC, committed NewOrders, makespan µs,
    // re-drives, cross-shard committed, cross fraction).
    for (warehouses, shards, want) in [
        (1, 1, ("254.12", 54, 12_750_000, 1825, 0, "0.0000")),
        (4, 1, ("810.00", 54, 4_000_000, 451, 0, "0.0000")),
        (4, 2, ("810.00", 54, 4_000_000, 433, 4, "0.0333")),
    ] {
        for views in [false, true] {
            let at = format!("{warehouses}wh/{shards}sh views={views}");
            let plain = tpcc_cell(warehouses, shards, views, false);
            let (tpmc, cross) = (
                format!("{:.2}", plain.tpmc),
                format!("{:.4}", plain.cross_fraction),
            );
            let got = (
                tpmc.as_str(),
                plain.new_order_committed,
                plain.makespan_us,
                plain.redrives,
                plain.cross_committed,
                cross.as_str(),
            );
            assert_eq!(got, want, "{at}");
            if shards == 2 {
                assert_eq!(plain.state_roots, roots_4wh_2sh[views as usize], "{at}");
            }
            assert_eq!(plain.audit_ops > 0, views, "views add audit flushes: {at}");
            // A 3-node Raft group re-elects within one block interval, so at
            // this deck size the fault cell is its twin bit for bit — except
            // that it really took the leader kill.
            let faulted = tpcc_cell(warehouses, shards, views, true);
            assert!(faulted.elections > plain.elections, "no fault taken: {at}");
            let mut twin = faulted;
            twin.elections = plain.elections;
            assert_eq!(twin, plain, "{at}");
        }
    }
}

// ---- peer bootstrap: snapshot shipping vs full replay ------------------

#[test]
fn snapshot_bootstrap_beats_full_replay() {
    // height ⇒ replay (µs, bytes) and the speedup over the snapshot, which
    // is O(state): 4 120 bytes in 1 481 µs on the 4 MiB/s link at every
    // height and checkpoint cadence.
    for (height, want_replay, want_speedup) in [
        (32u64, (30_090, 125_160), "20.3"),
        (64, (59_082, 246_760), "39.9"),
        (128, (117_065, 489_960), "79.0"),
    ] {
        for checkpoint_every in [4, 16] {
            let at = format!("height {height}, checkpoint every {checkpoint_every}");
            let dir = TestDir::new("golden-catchup");
            let seed = 4242 ^ (height << 8) ^ checkpoint_every;
            let mut cfg = ClusterConfig::new(dir.path(), seed);
            cfg.peers = 1; // one donor; the joiners are the subject
            cfg.peer_regions = vec![Region::ASIA_SOUTHEAST]; // beside the orderers
            cfg.checkpoint_every = checkpoint_every;
            cfg.catchup_bandwidth_bytes_per_sec = 4 * 1024 * 1024;
            cfg.check_signatures = false;
            let mut sim = ClusterSim::new(cfg).expect("cluster builds");
            // ~5 transactions per 250 ms block, sized past the target height.
            let (start, every) = (SimTime::from_millis(300), SimTime::from_millis(50));
            sim.schedule_counter_load(start, every, height * 5 + 40, 8);
            while sim.blocks() < height {
                sim.run_for(SimTime::from_millis(250));
            }
            let join = sim.now() + SimTime::from_millis(1);
            let snap_peer = sim.schedule_bootstrap_peer(join, BootstrapMode::Snapshot);
            let replay_peer = sim.schedule_bootstrap_peer(join, BootstrapMode::FullReplay);
            sim.run_until_converged(SimTime::from_secs(600))
                .expect("cluster converges");
            sim.verify_convergence().expect("joiners canonical");
            let report = sim.report();
            let catchup = |peer| {
                let c = report.catchups.iter().find(|c| c.peer == peer);
                let c = c.expect("joiner produced a catch-up record");
                (c.duration.as_micros(), c.bytes)
            };
            let (snap, replay) = (catchup(snap_peer), catchup(replay_peer));
            assert_eq!((snap, replay), ((1_481, 4_120), want_replay), "{at}");
            let speedup = replay.0 as f64 / snap.0 as f64;
            assert_eq!(format!("{speedup:.1}"), want_speedup, "{at}");
            assert!(speedup >= 3.0 && replay.1 > snap.1, "{at}");
        }
    }
}
