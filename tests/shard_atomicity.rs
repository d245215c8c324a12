//! Differential property tests for the sharded deployment: random mixes
//! of single- and cross-shard transfers under random fault schedules
//! (leader kills mid-prepare, peer crashes mid-decision, orderer
//! partitions) must
//!
//! * terminate every admitted transfer — committed or aborted, never
//!   wedged in flight,
//! * preserve conservation — Σ balances + Σ locks across all shards
//!   equals Σ opened, so no leg of a 2PC transfer is ever half-applied,
//! * leave no permanently prepared lock — every request reaches a
//!   terminal state on every shard it touched,
//! * and reproduce bit-identically — the same seed and schedule yield
//!   the same per-shard state roots and the same per-transfer outcomes.
//!
//! Plus one fixed scenario interleaving transfers with hand-built
//! transfer-shaped operations on the one 2PC driver they share.

use ledgerview::crosschain::contracts::TRANSFER_CC;
use ledgerview::crosschain::read_balance;
use ledgerview::shard::{OpLeg, OpSpec, ShardConfig, ShardedDeployment, TransferStatus};
use ledgerview::simnet::SimTime;
use ledgerview::store::testdir::TestDir;
use proptest::prelude::*;

const ACCOUNTS: usize = 8;
const OPEN_BALANCE: u64 = 500;

/// One scheduled transfer: accounts by index, amount, submission slot.
type Xfer = (usize, usize, u64, u64);

/// One shard's fault plan for the run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Plan {
    None,
    /// Kill the Raft leader at the slot (mid-prepare for transfers in
    /// flight around it).
    LeaderKill(u64),
    /// Crash a committing peer at the slot, restart it 2 s later
    /// (mid-decision: the shard keeps ordering while one replica is
    /// down).
    PeerCrashRestart(u64),
    /// Partition one orderer away at the slot, heal 2 s later.
    PartitionHeal(u64),
}

fn plan(kind: u8, slot: u64) -> Plan {
    match kind % 4 {
        0 => Plan::None,
        1 => Plan::LeaderKill(slot),
        2 => Plan::PeerCrashRestart(slot),
        _ => Plan::PartitionHeal(slot),
    }
}

struct Outcome {
    roots: Vec<String>,
    statuses: Vec<TransferStatus>,
    committed: u64,
    aborted: u64,
}

/// Run one full scenario: 2 shards, the given transfers and per-shard
/// fault plans, then converge and audit.
fn run(seed: u64, transfers: &[Xfer], plans: &[Plan; 2]) -> Outcome {
    let dir = TestDir::new("shard-atomicity");
    let mut dep =
        ShardedDeployment::new(ShardConfig::new(dir.path(), 2, seed)).expect("deployment builds");

    let accounts: Vec<String> = (0..ACCOUNTS).map(|i| format!("p{i}")).collect();
    for a in &accounts {
        dep.schedule_open(SimTime::from_millis(100), a, OPEN_BALANCE);
    }

    let at = |slot: u64| SimTime::from_millis(1_000 + 100 * slot);
    for (shard, p) in plans.iter().enumerate() {
        match *p {
            Plan::None => {}
            Plan::LeaderKill(slot) => dep.schedule_leader_kill(shard, at(slot)),
            Plan::PeerCrashRestart(slot) => {
                dep.schedule_fault(shard, at(slot), ledgerview::cluster::Fault::CrashPeer(1));
                dep.schedule_fault(
                    shard,
                    at(slot) + SimTime::from_secs(2),
                    ledgerview::cluster::Fault::RestartPeer(1),
                );
            }
            Plan::PartitionHeal(slot) => {
                dep.schedule_fault(
                    shard,
                    at(slot),
                    ledgerview::cluster::Fault::Partition(vec![2]),
                );
                dep.schedule_fault(
                    shard,
                    at(slot) + SimTime::from_secs(2),
                    ledgerview::cluster::Fault::Heal,
                );
            }
        }
    }

    let mut sorted: Vec<Xfer> = transfers.to_vec();
    sorted.sort_by_key(|&(_, _, _, slot)| slot);
    for &(src, dst, amount, slot) in &sorted {
        let dst = if dst == src {
            (dst + 1) % ACCOUNTS
        } else {
            dst
        };
        dep.schedule_transfer(at(slot), &accounts[src], &accounts[dst], amount);
    }

    dep.run_until_converged(SimTime::from_secs(300))
        .expect("deployment converges under the fault schedule");
    dep.verify()
        .expect("conservation, no stranded locks, per-shard convergence");

    let report = dep.report();
    assert!(
        report
            .transfers
            .iter()
            .all(|t| t.status != TransferStatus::InFlight),
        "no transfer may stay in flight after convergence"
    );
    Outcome {
        roots: dep.state_roots().iter().map(|d| d.to_string()).collect(),
        statuses: report.transfers.iter().map(|t| t.status.clone()).collect(),
        committed: report.committed,
        aborted: report.aborted,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: any transfer mix under any fault schedule
    /// terminates atomically, conserves money, strands no lock — and the
    /// whole run is a pure function of its seed.
    #[test]
    fn random_mixes_under_random_faults_stay_atomic_and_deterministic(
        transfers in proptest::collection::vec(
            (0usize..ACCOUNTS, 0usize..ACCOUNTS, 1u64..120, 0u64..20), 1..16),
        fault_a in (0u8..4, 0u64..18),
        fault_b in (0u8..4, 0u64..18),
        seed in 0u64..1000,
    ) {
        let plans = [plan(fault_a.0, fault_a.1), plan(fault_b.0, fault_b.1)];

        let first = run(seed, &transfers, &plans);
        prop_assert_eq!(
            first.committed + first.aborted,
            transfers.len() as u64,
            "every admitted transfer must reach a terminal outcome"
        );

        // Differential leg: the identical scenario in a fresh directory
        // must land on bit-identical per-shard state roots and the same
        // per-transfer outcomes.
        let second = run(seed, &transfers, &plans);
        prop_assert_eq!(&first.roots, &second.roots, "state roots must be bit-identical");
        prop_assert_eq!(&first.statuses, &second.statuses);
    }
}

/// A transfer written out by hand as the `OpSpec` that
/// `schedule_transfer` builds internally.
fn transfer_spec(id: String, src: &str, dst: &str, amount: u64) -> OpSpec {
    let amount_be = amount.to_be_bytes().to_vec();
    let leg = |acct: &str, prepare: &str| OpLeg {
        key: format!("acct~{acct}"),
        chaincode: TRANSFER_CC.to_string(),
        prepare: prepare.to_string(),
        args: vec![acct.as_bytes().to_vec(), amount_be.clone()],
    };
    OpSpec {
        id,
        direct: (
            TRANSFER_CC.to_string(),
            "transfer".to_string(),
            vec![
                src.as_bytes().to_vec(),
                dst.as_bytes().to_vec(),
                amount_be.clone(),
            ],
        ),
        legs: vec![leg(src, "prepare_debit"), leg(dst, "prepare_credit")],
    }
}

/// Transfers and generic operations run on one state machine and one
/// operation list. Interleave the two under a leader kill and check that
/// each public index still addresses its own kind, that the transfer
/// counters count transfers only, and that money is conserved.
#[test]
fn transfers_and_hand_built_ops_interleave_on_one_driver() {
    const OPEN: u64 = 10_000;
    let dir = TestDir::new("shard-interleave");
    let mut cfg = ShardConfig::new(dir.path(), 2, 31);
    cfg.pins = vec![
        ("acct~alice".into(), 0),
        ("acct~bob".into(), 1),
        ("acct~carol".into(), 1),
    ];
    let mut dep = ShardedDeployment::new(cfg).expect("deployment builds");
    let accounts = ["alice", "bob", "carol"];
    for acct in accounts {
        dep.schedule_open(SimTime::from_millis(100), acct, OPEN);
    }

    // alice→bob and carol→alice cross shards; bob→carol stays on shard 1.
    // Even slots are transfers, odd slots ops, so both kinds take every
    // route.
    let pairs = [(0usize, 1usize), (1, 2), (2, 0)];
    let mut transfers = Vec::new();
    let mut ops = Vec::new();
    let mut expected = [OPEN; 3];
    for i in 0..18u64 {
        let at = SimTime::from_millis(1_000 + 150 * i);
        let (src, dst) = pairs[i as usize % 3];
        let amount = 10 + i;
        expected[src] -= amount;
        expected[dst] += amount;
        if i % 2 == 0 {
            let idx = dep.schedule_transfer(at, accounts[src], accounts[dst], amount);
            transfers.push((idx, src, dst, amount));
        } else {
            let id = format!("op{}", ops.len());
            let spec = transfer_spec(id.clone(), accounts[src], accounts[dst], amount);
            ops.push((dep.schedule_op(at, spec), id));
        }
    }
    // One of each that cannot be funded: a cross-shard transfer (NO vote
    // on prepare) and a single-shard op (the direct transaction rejects).
    let late = SimTime::from_secs(4);
    let poor_transfer = dep.schedule_transfer(late, "alice", "bob", 1_000_000);
    let poor_op = dep.schedule_op(
        late,
        transfer_spec("op-poor".into(), "bob", "carol", 1_000_000),
    );
    dep.schedule_leader_kill(0, SimTime::from_millis(1_400));

    dep.run_until_converged(SimTime::from_secs(120))
        .expect("deployment converges through the leader kill");
    dep.verify()
        .expect("conservation, no stranded locks, per-shard convergence");

    let report = dep.report();
    assert_eq!(report.transfers.len(), transfers.len() + 1);
    for (k, &(idx, src, dst, amount)) in transfers.iter().enumerate() {
        let rec = &report.transfers[idx];
        assert_eq!(rec.id, format!("t{k}"));
        assert_eq!(
            (rec.src.as_str(), rec.dst.as_str(), rec.amount),
            (accounts[src], accounts[dst], amount)
        );
        assert_eq!(rec.src_shard, dep.shard_of_account(accounts[src]));
        assert_eq!(rec.dst_shard, dep.shard_of_account(accounts[dst]));
        assert_eq!(rec.status, TransferStatus::Committed, "{}", rec.id);
    }
    for (idx, id) in &ops {
        assert_eq!(&dep.op(*idx).id, id);
        assert_eq!(dep.op(*idx).status, TransferStatus::Committed, "{id}");
    }
    assert!(matches!(
        report.transfers[poor_transfer].status,
        TransferStatus::Aborted { .. }
    ));
    assert_eq!(dep.op(poor_op).id, "op-poor");
    assert!(matches!(
        dep.op(poor_op).status,
        TransferStatus::Aborted { .. }
    ));

    // The transfer counters never see the ops, committed or aborted.
    assert_eq!(report.committed, transfers.len() as u64);
    assert_eq!(report.aborted, 1);

    // Both kinds moved exactly the money they said they would.
    for (i, acct) in accounts.iter().enumerate() {
        let shard = dep.shard_of_account(acct);
        assert_eq!(
            read_balance(dep.cluster(shard).canonical_state(), acct),
            Some(expected[i]),
            "{acct}"
        );
    }
}
