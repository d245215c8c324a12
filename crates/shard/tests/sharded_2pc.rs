//! Acceptance tests for the sharded deployment: cross-shard 2PC over
//! live replicated channels must be atomic, conservative, and
//! bit-for-bit deterministic — including under leader kills.

use fabric_store::testdir::TestDir;
use ledgerview_crosschain::read_balance;
use ledgerview_shard::{ShardConfig, ShardReport, ShardedDeployment, TransferStatus};
use ledgerview_simnet::SimTime;

const SECOND: SimTime = SimTime::from_secs(1);

/// A 2-shard config with explicit account pins so the test controls
/// exactly which transfers are local and which are cross-shard.
fn two_shard_config(root: &std::path::Path, seed: u64) -> ShardConfig {
    let mut cfg = ShardConfig::new(root, 2, seed);
    cfg.pins = vec![
        ("acct~alice".into(), 0),
        ("acct~bob".into(), 1),
        ("acct~carol".into(), 1),
    ];
    cfg
}

#[test]
fn cross_shard_transfer_commits_atomically() {
    let dir = TestDir::new("shard-2pc-commit");
    let mut dep = ShardedDeployment::new(two_shard_config(dir.path(), 11)).unwrap();
    assert_eq!(dep.shard_of_account("alice"), 0);
    assert_eq!(dep.shard_of_account("bob"), 1);

    dep.schedule_open(SimTime::from_millis(100), "alice", 1_000);
    dep.schedule_open(SimTime::from_millis(100), "bob", 100);
    dep.schedule_open(SimTime::from_millis(100), "carol", 50);

    // Cross-shard (alice: shard 0 → bob: shard 1), local (bob → carol on
    // shard 1), and a cross-shard abort (insufficient funds).
    let t_cross = dep.schedule_transfer(SimTime::from_secs(2), "alice", "bob", 250);
    let t_local = dep.schedule_transfer(SimTime::from_secs(2), "bob", "carol", 40);
    let t_poor = dep.schedule_transfer(SimTime::from_secs(3), "alice", "bob", 1_000_000);

    dep.run_until_converged(SimTime::from_secs(60)).unwrap();
    dep.verify().unwrap();

    let report = dep.report();
    assert_eq!(report.transfers[t_cross].status, TransferStatus::Committed);
    assert_eq!(report.transfers[t_local].status, TransferStatus::Committed);
    match &report.transfers[t_poor].status {
        TransferStatus::Aborted { reason } => {
            assert!(reason.contains("insufficient"), "reason: {reason}")
        }
        other => panic!("expected insufficient-funds abort, got {other:?}"),
    }
    assert_eq!(report.committed, 2);
    assert_eq!(report.aborted, 1);
    assert_eq!(report.opened_total, 1_150);

    // Exact balances on the committed tips.
    let s0 = dep_state_balance(&dep, 0, "alice");
    let s1_bob = dep_state_balance(&dep, 1, "bob");
    let s1_carol = dep_state_balance(&dep, 1, "carol");
    assert_eq!(s0, Some(750));
    assert_eq!(s1_bob, Some(310));
    assert_eq!(s1_carol, Some(90));
}

fn dep_state_balance(dep: &ShardedDeployment, shard: usize, acct: &str) -> Option<u64> {
    read_balance(dep.cluster(shard).canonical_state(), acct)
}

/// Kill both shards' Raft leaders while a mixed transfer load is in
/// flight: every admitted transfer must still terminate atomically and
/// conservation must hold.
#[test]
fn leader_kills_mid_2pc_preserve_atomicity() {
    let dir = TestDir::new("shard-2pc-kill");
    let mut dep = ShardedDeployment::new(two_shard_config(dir.path(), 23)).unwrap();

    dep.schedule_open(SimTime::from_millis(100), "alice", 10_000);
    dep.schedule_open(SimTime::from_millis(100), "bob", 10_000);
    dep.schedule_open(SimTime::from_millis(100), "carol", 10_000);

    for i in 0..20u64 {
        let at = SECOND + SimTime::from_millis(150 * i);
        if i % 3 == 0 {
            dep.schedule_transfer(at, "bob", "carol", 10 + i);
        } else if i % 3 == 1 {
            dep.schedule_transfer(at, "alice", "bob", 20 + i);
        } else {
            dep.schedule_transfer(at, "carol", "alice", 5 + i);
        }
    }
    // Leaders die while transfers are mid-protocol.
    dep.schedule_leader_kill(0, SECOND + SimTime::from_millis(400));
    dep.schedule_leader_kill(1, SECOND + SimTime::from_millis(900));

    dep.run_until_converged(SimTime::from_secs(120)).unwrap();
    dep.verify().unwrap();

    let report = dep.report();
    assert_eq!(
        report.committed + report.aborted,
        20,
        "every admitted transfer must terminate"
    );
    // Plenty of funds: everything commits.
    assert_eq!(report.committed, 20);
}

/// The determinism scenario: ten alternating cross-shard transfers
/// through a leader kill on shard 0. Returns the end-of-run report and
/// the virtual time the deployment converged at.
fn determinism_scenario(root: &std::path::Path, seed: u64) -> (ShardReport, SimTime) {
    let mut dep = ShardedDeployment::new(two_shard_config(root, seed)).unwrap();
    dep.schedule_open(SimTime::from_millis(100), "alice", 5_000);
    dep.schedule_open(SimTime::from_millis(100), "bob", 5_000);
    for i in 0..10u64 {
        let at = SECOND + SimTime::from_millis(200 * i);
        if i % 2 == 0 {
            dep.schedule_transfer(at, "alice", "bob", 100 + i);
        } else {
            dep.schedule_transfer(at, "bob", "alice", 50 + i);
        }
    }
    dep.schedule_leader_kill(0, SECOND + SimTime::from_millis(500));
    let converged = dep.run_until_converged(SimTime::from_secs(120)).unwrap();
    dep.verify().unwrap();
    (dep.report(), converged)
}

/// Same seed ⇒ bit-identical per-shard state roots and identical
/// transfer outcomes; a different seed still converges and verifies.
#[test]
fn same_seed_is_bit_identical() {
    let run = |root: &std::path::Path, seed: u64| {
        let (report, _) = determinism_scenario(root, seed);
        let statuses: Vec<TransferStatus> =
            report.transfers.iter().map(|t| t.status.clone()).collect();
        (report.state_roots, statuses)
    };

    let dir_a = TestDir::new("shard-det-a");
    let dir_b = TestDir::new("shard-det-b");
    let dir_c = TestDir::new("shard-det-c");
    let (roots_a, statuses_a) = run(dir_a.path(), 7);
    let (roots_b, statuses_b) = run(dir_b.path(), 7);
    assert_eq!(roots_a, roots_b, "same seed must be bit-identical");
    assert_eq!(statuses_a, statuses_b);

    let (roots_c, _) = run(dir_c.path(), 8);
    assert_ne!(roots_a, roots_c, "different seed must differ");
}

/// Golden values for the determinism scenario at seed 7, measured before
/// transfers moved onto the generic operation driver. Running the same
/// seed twice cannot catch a change that shifts both runs; these can: the
/// state roots cover every committed write on both shards, and the
/// re-drive counts cover the order in which legs were submitted. The
/// roots alone were re-measured when transfer legs moved behind the 2PC
/// fence (staged as `pend~<req>~debit|credit`, marked `fin~<req>`).
#[test]
fn seed_7_matches_golden_roots_and_redrives() {
    let dir = TestDir::new("shard-det-golden");
    let (report, converged) = determinism_scenario(dir.path(), 7);
    let roots: Vec<String> = report.state_roots.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        roots,
        [
            "0c40605a8d6c43bede1eda8fe0b41fce66b0efb952e5ab382587314c2247776d",
            "1fd5eeb0747b702969231150beee93dc6893aae8e67007bbaea3f55e5ef8a19b",
        ]
    );
    assert_eq!((report.committed, report.aborted), (10, 0));
    assert_eq!(report.redrives, 21);
    assert_eq!(report.total_txs, 83);
    assert_eq!(converged.as_micros(), 4_600_000);
    let per_transfer: Vec<u64> = report.transfers.iter().map(|t| t.redrives).collect();
    assert_eq!(per_transfer, [0, 1, 2, 4, 0, 4, 1, 6, 0, 3]);
}
