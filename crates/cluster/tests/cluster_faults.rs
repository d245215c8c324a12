//! Deterministic fault-injection scenarios: the acceptance test for the
//! replication cluster. A fixed seed must reproduce the identical commit
//! history and bit-identical state roots across two full runs; a
//! different seed must still converge (with different content).

use std::path::{Path, PathBuf};

use fabric_sim::FabricError;
use fabric_store::testdir::TestDir;
use ledgerview_cluster::{
    BootstrapMode, ClusterConfig, ClusterError, ClusterReport, ClusterSim, Fault,
};
use ledgerview_gateway::ReorderConfig;
use ledgerview_simnet::SimTime;

const SECOND: SimTime = SimTime::from_secs(1);

/// The canonical failure drill: load the cluster, kill the Raft leader
/// mid-load, crash a peer and restart it, and bootstrap a fresh peer from
/// a shipped snapshot — then require convergence.
fn run_scenario(root: &std::path::Path, seed: u64) -> (ClusterReport, usize) {
    run_drill(root, seed, ReorderConfig::default(), 10)
}

/// The same drill with a configurable batch cutter and key-space width
/// (fewer keys ⇒ more intra-batch conflicts for the reorder stage).
fn run_drill(
    root: &std::path::Path,
    seed: u64,
    reorder: ReorderConfig,
    keys: u64,
) -> (ClusterReport, usize) {
    let mut config = ClusterConfig::new(root, seed);
    config.reorder = reorder;
    let mut sim = ClusterSim::new(config).expect("cluster builds");

    // 200 increments spread across the first four seconds.
    sim.schedule_counter_load(
        SimTime::from_millis(300),
        SimTime::from_millis(20),
        200,
        keys,
    );

    // Let an election settle, then kill whoever won.
    sim.run_until(SECOND);
    let leader = sim.current_leader().expect("a leader by t=1s");
    sim.schedule_fault(sim.now(), Fault::KillOrderer(leader));

    // Crash peer 1 mid-load; restart it two seconds later (recovers its
    // durable prefix, replays the delta).
    sim.schedule_fault(SimTime::from_millis(1_500), Fault::CrashPeer(1));
    sim.schedule_fault(SimTime::from_millis(3_500), Fault::RestartPeer(1));

    // A fresh fourth peer joins via snapshot shipping.
    let joined = sim.schedule_bootstrap_peer(SimTime::from_secs(5), BootstrapMode::Snapshot);

    sim.run_until_converged(SimTime::from_secs(60))
        .expect("cluster converges despite leader kill + peer crash");
    sim.verify_convergence().expect("all live peers canonical");
    sim.check_raft_log_matching().expect("log matching holds");
    (sim.report(), joined)
}

#[test]
fn same_seed_reproduces_bit_identical_history() {
    let dir_a = TestDir::new("cluster-rep-a");
    let dir_b = TestDir::new("cluster-rep-b");
    let (a, peer_a) = run_scenario(dir_a.path(), 42);
    let (b, peer_b) = run_scenario(dir_b.path(), 42);

    assert!(a.blocks > 0, "load must commit blocks");
    assert_eq!(peer_a, peer_b);
    assert_eq!(a.batch_history, b.batch_history, "same commit order");
    assert_eq!(a.canonical_roots, b.canonical_roots, "same roots");
    assert_eq!(a.peer_heights, b.peer_heights);
    assert_eq!(a.peer_roots, b.peer_roots);
    assert_eq!(a.elections, b.elections);
    assert_eq!(a.notleader_retries, b.notleader_retries);
    assert_eq!(a.resubmits, b.resubmits);
    assert_eq!(a.dup_batches, b.dup_batches);

    assert!(a.divergences.is_empty(), "no state-root divergence");
    assert!(a.election_violations.is_empty(), "election safety");
    assert_eq!(a.failed_batches, 0, "no batch dropped");
    assert_eq!(a.submit_errors, 0, "no endorsement failures");

    // The drill performs exactly two catch-ups: peer 1's restart replay
    // and the fresh peer's snapshot bootstrap.
    assert_eq!(
        a.catchups.len(),
        2,
        "restart replay + snapshot bootstrap; got {:?}",
        a.catchups
    );
    assert!(a
        .catchups
        .iter()
        .any(|c| c.peer == peer_a && c.mode == ledgerview_cluster::BootstrapMode::Snapshot));
    assert!(a
        .catchups
        .iter()
        .any(|c| c.peer == 1 && c.mode == ledgerview_cluster::BootstrapMode::FullReplay));
}

#[test]
fn reordering_enabled_drill_stays_bit_identical_across_failover() {
    // The same fault schedule — leader kill, peer crash + restart replay,
    // snapshot bootstrap — with the conflict-aware cutter switched on and
    // a narrow hot key space. Reordering decisions are made once, before
    // replication, so they must survive failover: two same-seed runs stay
    // bit-identical and every replica carries the canonical roots.
    let dir_a = TestDir::new("cluster-reorder-a");
    let dir_b = TestDir::new("cluster-reorder-b");
    let (a, peer_a) = run_drill(dir_a.path(), 42, ReorderConfig::enabled(), 3);
    let (b, peer_b) = run_drill(dir_b.path(), 42, ReorderConfig::enabled(), 3);

    assert!(a.blocks > 0, "load must commit blocks");
    assert_eq!(peer_a, peer_b);
    assert_eq!(a.batch_history, b.batch_history, "same commit order");
    assert_eq!(a.canonical_roots, b.canonical_roots, "same roots");
    assert_eq!(a.peer_heights, b.peer_heights);
    assert_eq!(a.peer_roots, b.peer_roots);
    assert_eq!(a.reorder_early_aborts, b.reorder_early_aborts);
    assert_eq!(a.reorder_deferrals, b.reorder_deferrals);
    assert_eq!(a.reorder_pairs, b.reorder_pairs);
    assert_eq!(a.reorder_cycles, b.reorder_cycles);

    assert!(a.divergences.is_empty(), "no state-root divergence");
    assert!(a.election_violations.is_empty(), "election safety");
    assert_eq!(a.failed_batches, 0, "no batch dropped");
    assert_eq!(a.submit_errors, 0, "re-endorsements must succeed");

    // 200 increments over 3 keys at a 250 ms batch interval: the cutter
    // must actually have had conflicts to untangle.
    assert!(
        a.reorder_deferrals + a.reorder_early_aborts > 0,
        "drill must exercise the reorder stage: {a:?}"
    );
    // Every peer ends on the canonical root even though blocks were
    // composed by the conflict-aware cutter.
    let tip = *a.canonical_roots.last().expect("blocks committed");
    for root in a.peer_roots.iter().flatten() {
        assert_eq!(*root, tip);
    }
}

#[test]
fn different_seed_converges_to_different_history() {
    let dir_a = TestDir::new("cluster-seed-a");
    let dir_b = TestDir::new("cluster-seed-b");
    let (a, _) = run_scenario(dir_a.path(), 42);
    let (b, _) = run_scenario(dir_b.path(), 1337);

    // Both runs are healthy...
    for r in [&a, &b] {
        assert!(r.blocks > 0);
        assert!(r.divergences.is_empty());
        assert!(r.election_violations.is_empty());
    }
    // ...but the histories differ: seeds drive tx ids, so roots diverge.
    assert_ne!(a.canonical_roots, b.canonical_roots, "seed changes content");
}

#[test]
fn partition_heal_converges() {
    let dir = TestDir::new("cluster-partition");
    let mut sim = ClusterSim::new(ClusterConfig::new(dir.path(), 7)).expect("cluster builds");
    sim.schedule_counter_load(SimTime::from_millis(300), SimTime::from_millis(25), 120, 8);

    // Isolate one orderer for two seconds; Raft keeps a quorum of 2/3.
    sim.schedule_fault(SimTime::from_millis(800), Fault::Partition(vec![0]));
    sim.schedule_fault(SimTime::from_millis(2_800), Fault::Heal);
    // And degrade a link for a while.
    sim.schedule_fault(
        SimTime::from_millis(3_000),
        Fault::SlowLink {
            from: 1,
            to: 2,
            factor: 20,
        },
    );
    sim.schedule_fault(SimTime::from_millis(4_000), Fault::Heal);

    sim.run_until_converged(SimTime::from_secs(60))
        .expect("partitioned minority cannot stop a 2/3 quorum");
    sim.verify_convergence()
        .expect("canonical roots everywhere");
    sim.check_raft_log_matching().expect("log matching holds");
    let report = sim.report();
    assert!(report.blocks > 0);
    assert!(report.election_violations.is_empty());
    assert!(report.divergences.is_empty());
}

#[test]
fn snapshot_bootstrap_without_donor_errors() {
    let dir = TestDir::new("cluster-nodonor");
    let mut cfg = ClusterConfig::new(dir.path(), 5);
    cfg.peers = 1;
    let mut sim = ClusterSim::new(cfg).expect("cluster builds");
    sim.schedule_counter_load(SimTime::from_millis(300), SimTime::from_millis(25), 20, 4);
    // Crash the only peer, then ask for a snapshot bootstrap: no donor.
    sim.schedule_fault(SimTime::from_secs(2), Fault::CrashPeer(0));
    sim.schedule_bootstrap_peer(SimTime::from_secs(3), BootstrapMode::Snapshot);
    let err = sim
        .run_until_converged(SimTime::from_secs(30))
        .expect_err("no live donor");
    assert!(matches!(err, ClusterError::NoDonor));
}

#[test]
fn snapshot_bootstrapped_peer_restarts_from_its_own_directory() {
    // Snapshot bootstrap installs into an LSM tree like every peer's, so
    // the joined peer's directory holds a manifest — no full-state
    // checkpoint file — and a restart reopens it like any other peer's.
    let dir = TestDir::new("cluster-lsm-snapshot-restart");
    let cfg = ClusterConfig::new(dir.path(), 42);
    let mut sim = ClusterSim::new(cfg).expect("cluster builds");
    sim.schedule_counter_load(SimTime::from_millis(300), SimTime::from_millis(20), 200, 10);
    let joined = sim.schedule_bootstrap_peer(SimTime::from_secs(2), BootstrapMode::Snapshot);
    sim.schedule_fault(SimTime::from_secs(3), Fault::CrashPeer(joined));
    sim.schedule_fault(SimTime::from_millis(3_500), Fault::RestartPeer(joined));

    sim.run_until_converged(SimTime::from_secs(60))
        .expect("the joined peer recovers its own directory");
    sim.verify_convergence().expect("all live peers canonical");
    let report = sim.report();
    let tip = *report.canonical_roots.last().expect("blocks committed");
    assert_eq!(report.peer_roots, vec![Some(tip); 4], "bit-identical roots");
    assert_eq!(report.peer_heights[joined], Some(report.blocks));

    let joined_dir = dir.path().join(format!("peer{joined}"));
    assert!(joined_dir.join("lsm").join("MANIFEST").is_file());
    assert!(!joined_dir.join("checkpoint.dat").exists());
}

#[test]
fn crash_during_snapshot_transfer_cancels_the_join() {
    // The joining peer crashes while its snapshot is in flight and is
    // never restarted: the install must not revive it, and no catch-up
    // is recorded for it.
    let dir = TestDir::new("cluster-crash-mid-join");
    let cfg = ClusterConfig::new(dir.path(), 42);
    let mut sim = ClusterSim::new(cfg).expect("cluster builds");
    sim.schedule_counter_load(SimTime::from_millis(300), SimTime::from_millis(20), 100, 10);
    let joined = sim.schedule_bootstrap_peer(SimTime::from_secs(2), BootstrapMode::Snapshot);
    assert_eq!(joined, 3);
    sim.schedule_fault(SimTime::from_millis(2_001), Fault::CrashPeer(joined));

    sim.run_until_converged(SimTime::from_secs(60))
        .expect("the other peers converge");
    sim.verify_convergence().expect("all live peers canonical");
    let report = sim.report();
    assert_eq!(
        report.peer_heights[joined], None,
        "the crashed peer stays down"
    );
    assert!(report.catchups.is_empty(), "{:?}", report.catchups);
}

/// The newest SSTable of an LSM directory (names are zero-padded sequence
/// numbers, so the greatest name is the newest table).
fn newest_table(lsm: &Path) -> PathBuf {
    std::fs::read_dir(lsm)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tbl"))
        .max()
        .expect("the peer flushed a table before crashing")
}

#[test]
fn tampered_checkpoint_on_restart_heals_through_a_snapshot_join() {
    // A checkpoint is an LSM flush: flip one bit of the crashed peer's
    // manifest, and in a second run of its newest table, as
    // `tests/storage_recovery.rs` does for a single chain. The restart
    // finds the directory corrupt, sets it aside and rebuilds the peer
    // from a donor's snapshot.
    for target in ["MANIFEST", "newest table"] {
        let dir = TestDir::new("cluster-tampered-restart");
        let mut cfg = ClusterConfig::new(dir.path(), 11);
        cfg.checkpoint_every = 2;
        let mut sim = ClusterSim::new(cfg).expect("cluster builds");
        sim.schedule_counter_load(SimTime::from_millis(300), SimTime::from_millis(20), 100, 10);
        sim.schedule_fault(SimTime::from_millis(1_500), Fault::CrashPeer(1));
        sim.run_until(SimTime::from_secs(2));

        let peer1 = dir.path().join("peer1");
        let path = match target {
            "MANIFEST" => peer1.join("lsm").join("MANIFEST"),
            _ => newest_table(&peer1.join("lsm")),
        };
        let mut bytes = std::fs::read(&path).expect("peer 1 checkpointed before crashing");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        sim.schedule_fault(SimTime::from_millis(2_500), Fault::RestartPeer(1));
        sim.run_until_converged(SimTime::from_secs(30))
            .unwrap_or_else(|e| panic!("{target}: the corrupt peer heals: {e}"));
        sim.verify_convergence().expect("all live peers canonical");
        let report = sim.report();
        let tip = *report.canonical_roots.last().expect("blocks committed");
        assert_eq!(report.peer_roots[1], Some(tip), "{target}: healed root");
        let modes: Vec<BootstrapMode> = report
            .catchups
            .iter()
            .filter(|c| c.peer == 1)
            .map(|c| c.mode)
            .collect();
        assert_eq!(
            modes,
            vec![BootstrapMode::Snapshot],
            "{target}: one snapshot heal"
        );
        let aside = dir.path().join("peer1.corrupt-0");
        let damaged = aside.join(path.strip_prefix(&peer1).unwrap());
        assert_eq!(
            std::fs::read(damaged).unwrap(),
            bytes,
            "{target}: kept aside"
        );
    }
}

#[test]
fn unreadable_directory_on_restart_is_an_io_error_not_a_heal() {
    // The OS refusing to open the directory says nothing about its bytes,
    // so the restart fails the cluster instead of rebuilding the peer.
    let dir = TestDir::new("cluster-io-restart");
    let mut sim = ClusterSim::new(ClusterConfig::new(dir.path(), 11)).expect("cluster builds");
    sim.schedule_counter_load(SimTime::from_millis(300), SimTime::from_millis(20), 50, 10);
    sim.schedule_fault(SimTime::from_millis(800), Fault::CrashPeer(1));
    sim.run_until(SimTime::from_secs(1));

    let peer1 = dir.path().join("peer1");
    std::fs::remove_dir_all(&peer1).unwrap();
    std::fs::write(&peer1, b"not a directory").unwrap();
    sim.schedule_fault(SimTime::from_millis(1_500), Fault::RestartPeer(1));
    let err = sim
        .run_until_converged(SimTime::from_secs(30))
        .expect_err("a directory the OS refuses cannot rejoin");
    assert!(
        matches!(&err, ClusterError::Fabric(FabricError::Io(_))),
        "expected an I/O error, got {err}"
    );
    assert!(sim.verify_convergence().is_err(), "the error is sticky");
    assert!(peer1.is_file(), "nothing was set aside");
    assert!(!dir.path().join("peer1.corrupt-0").exists());
}
