//! Differential tests for the conflict-aware cutter: reordering must be a
//! pure scheduling optimisation. Final state digests and rolling state
//! roots match the unordered pipeline, every reordered block replays as a
//! serial schedule from genesis (the serializability witness), early
//! aborts fire exactly on transactions that would fail MVCC under *any*
//! intra-block order, and equal seeds reproduce bit-identical runs.
//!
//! The block-level properties run on the live cut path: the replication
//! cluster where its report and canonical state suffice, otherwise a
//! single-chain loop that cuts exactly as the cluster's cutter does.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ledgerview::cluster::{ClusterConfig, ClusterReport, ClusterSim, InvokeOutcome};
use ledgerview::crypto::sha256::Digest;
use ledgerview::fabric::chaincode::{ReadEntry, RwSet, WriteEntry};
use ledgerview::fabric::statedb::{StateDb, Version};
use ledgerview::fabric::validation::{
    state_root_from_block, validate_and_commit_block, TxValidation,
};
use ledgerview::gateway::counter_chain;
use ledgerview::gateway::reorder::{self, ReorderPlan};
use ledgerview::gateway::ReorderConfig;
use ledgerview::prelude::*;
use ledgerview::simnet::SimTime;
use ledgerview::store::testdir::TestDir;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A counter-chaincode call: `(function, args)`.
type Op = (&'static str, Vec<Vec<u8>>);

/// `incr key 1`: a read-modify-write on `key`.
fn incr(key: &str) -> Op {
    ("incr", vec![key.as_bytes().to_vec(), b"1".to_vec()])
}

/// `get key`: a read-only transaction on `key`.
fn get(key: &str) -> Op {
    ("get", vec![key.as_bytes().to_vec()])
}

/// `put key value`: a blind write (no read entry, never conflicts).
fn put(key: &str, value: &str) -> Op {
    (
        "put",
        vec![key.as_bytes().to_vec(), value.as_bytes().to_vec()],
    )
}

/// Commit `ops` on a 3-orderer / 3-peer cluster, one submission every
/// 10 ms, with the cut stage set to `reorder`. Panics unless every
/// submission commits valid and the peers converge; returns the report,
/// and every submission's outcome and the canonical state digest as one
/// fingerprint.
fn cluster_run(seed: u64, reorder: ReorderConfig, ops: &[Op]) -> (ClusterReport, String) {
    let dir = TestDir::new("reorder-equivalence");
    let mut cfg = ClusterConfig::new(dir.path(), seed);
    cfg.reorder = reorder;
    let mut sim = ClusterSim::new(cfg).expect("cluster builds");
    for (tag, (function, args)) in ops.iter().enumerate() {
        let at = SimTime::from_millis(300 + 10 * tag as u64);
        sim.schedule_call(at, "counter", function, args.clone(), tag as u64, None);
    }
    sim.run_until_converged(SimTime::from_secs(600))
        .expect("cluster converges");
    sim.verify_convergence().expect("peers canonical");
    let outcomes = sim.take_outcomes();
    assert_eq!(outcomes.len(), ops.len(), "every submission resolves");
    for (tag, outcome) in &outcomes {
        let valid = matches!(outcome, InvokeOutcome::Committed { valid } if valid.is_valid());
        assert!(valid, "submission {tag}: {outcome:?}");
    }
    let report = sim.report();
    assert_eq!(report.txs, ops.len() as u64, "no invalid transaction lands");
    let digest = sim.canonical_state().state_digest();
    (report, format!("{outcomes:?} {digest:?}"))
}

/// Transactions per block the cut loop offers fresh.
const BLOCK: usize = 4;

/// What a [`cut_loop`] run counted.
#[derive(Default)]
struct LoopStats {
    /// Operations committed valid.
    committed: u64,
    /// Transactions that reached validation and failed MVCC.
    conflicts: u64,
}

/// The live cut path on one chain, round by round as the cluster's
/// cutter runs it: cut the pending queue with [`reorder::cut`], commit
/// what the cut kept with `commit_ordered`, then re-endorse what the cut
/// pulled — and, as the sharded deployment does, every MVCC loser —
/// until every operation has committed. Up to [`BLOCK`] fresh `(client, op)`
/// arrivals endorse while each block is in flight, against the state
/// before it commits, as submissions keep arriving in the cluster during
/// Raft replication; that is what leaves reads stale at the next cut.
fn cut_loop(seed: u64, reorder: &ReorderConfig, ops: &[(usize, Op)]) -> (FabricChain, LoopStats) {
    let (mut chain, ids) = counter_chain(seed, 5, true);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    // Which client endorsed each pending transaction, to re-endorse as.
    let mut clients: HashMap<TxId, usize> = HashMap::new();
    let mut endorse = |chain: &mut FabricChain,
                       clients: &mut HashMap<TxId, usize>,
                       client: usize,
                       function: &str,
                       args| {
        let r = chain
            .invoke(&ids[client], "counter", function, args, &mut rng)
            .expect("endorses");
        clients.insert(r.tx_id, client);
    };
    let mut stats = LoopStats::default();
    let mut arrivals = ops.iter();
    for round in 1u64.. {
        assert!(round < 10_000, "the cut loop must drain");
        let cut = reorder::cut(&mut chain, reorder);
        for (client, (function, args)) in arrivals.by_ref().take(BLOCK) {
            endorse(&mut chain, &mut clients, *client, function, args.clone());
        }
        let outcomes = chain.commit_ordered(cut.kept.clone(), round * 1_000);
        let pulled = cut.early_aborted.into_iter().map(|(tx, _stale_key)| tx);
        let mut redrive: Vec<_> = pulled.chain(cut.deferred).collect();
        for (tx, outcome) in cut.kept.into_iter().zip(outcomes) {
            match outcome {
                TxValidation::Valid => stats.committed += 1,
                TxValidation::MvccConflict { .. } => {
                    stats.conflicts += 1;
                    redrive.push(tx);
                }
                other => panic!("counter transactions fail only MVCC: {other:?}"),
            }
        }
        for tx in redrive {
            let client = clients[&tx.tx_id];
            endorse(&mut chain, &mut clients, client, &tx.function, tx.args);
        }
        if chain.pending_count() == 0 {
            break;
        }
    }
    (chain, stats)
}

/// All committed key/value pairs (versions excluded: block composition
/// legitimately shifts them).
fn values(chain: &FabricChain) -> BTreeMap<String, Vec<u8>> {
    chain.state().prefix_scan("").into_iter().collect()
}

/// Replay every stored block from an empty state, exactly as crash
/// recovery does: per-block MVCC outcomes must reproduce the stored
/// validity flags, the rolling root chain must reproduce every header's
/// `state_root`, and the final full-state digest must match the live
/// chain. This is the serializability witness — the block order *is* a
/// serial schedule that produces the recorded outcomes.
fn assert_blocks_replay_serially(chain: &FabricChain) {
    let mut state = StateDb::new();
    let mut root = Digest::ZERO;
    for block in chain.store().iter() {
        let outcomes =
            validate_and_commit_block(&block.transactions, &mut state, block.header.number);
        let valid: Vec<bool> = outcomes.iter().map(|o| o.is_valid()).collect();
        assert_eq!(
            valid, block.validity,
            "serial replay outcomes diverge at block {}",
            block.header.number
        );
        root = state_root_from_block(&root, block);
        assert_eq!(
            root, block.header.state_root,
            "rolling root diverges at block {}",
            block.header.number
        );
    }
    assert_eq!(
        state.state_digest(),
        chain.state().state_digest(),
        "replayed state digest must match the live chain"
    );
}

/// With every key touched exactly once there are no dependencies, so the
/// conflict-aware cutter must reproduce the unordered pipeline *exactly*:
/// identical report (block count, per-block rolling roots, batch history,
/// peer heights and roots), outcomes and state digest, with the cutter's
/// counters all zero.
#[test]
fn conflict_free_workload_is_bit_identical() {
    let ops: Vec<Op> = (0..24).map(|i| incr(&format!("unique-{i}"))).collect();
    let (plain, plain_fingerprint) = cluster_run(7, ReorderConfig::default(), &ops);
    let (reordered, fingerprint) = cluster_run(7, ReorderConfig::enabled(), &ops);
    assert_eq!(format!("{plain:?}"), format!("{reordered:?}"));
    assert_eq!(plain_fingerprint, fingerprint);
    let r = &reordered;
    let counters = (r.reorder_pairs, r.reorder_cycles);
    assert_eq!(counters, (0, 0), "no dependencies, no inversions");
    assert_eq!(r.reorder_deferrals + r.reorder_early_aborts, 0);
}

/// Two runs from the same seed with reordering enabled must be
/// bit-identical end to end: block composition, roots, digests, and every
/// pipeline counter.
#[test]
fn same_seed_reordered_runs_are_bit_identical() {
    let ops: Vec<Op> = (0..40).map(|i| incr(&format!("hot-{}", i % 2))).collect();
    let (a, a_fingerprint) = cluster_run(11, ReorderConfig::enabled(), &ops);
    let (b, b_fingerprint) = cluster_run(11, ReorderConfig::enabled(), &ops);
    assert!(a.reorder_deferrals > 0, "hot keys must exercise deferral");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(a_fingerprint, b_fingerprint);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random contended workloads: the reordered cut path must commit
    /// everything *without a single MVCC conflict* (prevention, where the
    /// unordered path cures by re-driving) and still land on exactly the
    /// per-key values of the unordered run. Every reordered block must
    /// replay as a serial schedule.
    #[test]
    fn contended_workloads_commit_equivalent_state(
        ops in proptest::collection::vec((0usize..5, 0usize..3, 0u8..3), 1..40),
        seed in 0u64..300,
    ) {
        let ops: Vec<(usize, Op)> = ops
            .iter()
            .map(|&(client, rank, kind)| {
                let op = match kind {
                    // RMW and read-only share the `rmw-*` keyspace so
                    // readers race writers; blind puts write a constant
                    // per key so last-write-wins order is immaterial.
                    0 => incr(&format!("rmw-{rank}")),
                    1 => get(&format!("rmw-{rank}")),
                    _ => put(&format!("blind-{rank}"), &format!("v{rank}")),
                };
                (client, op)
            })
            .collect();

        let (plain, plain_stats) = cut_loop(seed, &ReorderConfig::default(), &ops);
        let (reordered, stats) = cut_loop(seed, &ReorderConfig::enabled(), &ops);

        // Same committed values, key for key.
        prop_assert_eq!(values(&plain), values(&reordered));
        prop_assert_eq!(plain_stats.committed, ops.len() as u64);

        // The unordered path may conflict and re-drive; the conflict-aware
        // cutter must never let a doomed transaction reach validation.
        prop_assert_eq!(stats.conflicts, 0, "reordering prevents MVCC conflicts");
        prop_assert_eq!(stats.committed, ops.len() as u64);

        // Every block the cutter composed is a serial schedule.
        assert_blocks_replay_serially(&reordered);
        for block in reordered.store().iter() {
            prop_assert!(
                block.validity.iter().all(|v| *v),
                "reordered blocks carry only valid transactions"
            );
        }
    }

    /// Early-abort soundness and completeness at the planning layer.
    /// Stage a batch whose older half was endorsed *before* a burst of
    /// direct commits bumped some key versions. The precheck verdicts the
    /// planner consumes must agree exactly with ground truth: a
    /// transaction is flagged iff replaying it alone against the committed
    /// pre-block state fails MVCC (doomed under every intra-block order —
    /// a stale read stays stale whatever runs first). Sound: nothing that
    /// would commit under the unordered path is pulled. Complete: every
    /// flagged transaction fails the unordered path (first *and* last).
    #[test]
    fn early_abort_matches_ground_truth_staleness(
        pre in proptest::collection::vec((0usize..4, 0u8..2), 1..8),
        commit_ranks in proptest::collection::vec(0usize..4, 1..4),
        post in proptest::collection::vec((0usize..4, 0u8..2), 0..8),
        seed in 0u64..200,
    ) {
        let (mut chain, ids) = counter_chain(seed, 1, true);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let key = |rank: usize| format!("k{rank}");
        let endorse = |chain: &mut FabricChain, rng: &mut StdRng, rank: usize, rmw: bool| {
            let args = if rmw {
                vec![key(rank).into_bytes(), b"1".to_vec()]
            } else {
                vec![key(rank).into_bytes()]
            };
            let f = if rmw { "incr" } else { "get" };
            chain.invoke(&ids[0], "counter", f, args, rng).expect("endorses");
        };

        // Half the batch endorsed against the old state...
        for &(rank, rmw) in &pre {
            endorse(&mut chain, &mut rng, rank, rmw == 1);
        }
        let mut batch = chain.take_pending();
        // ...then the world moves on underneath it...
        for &rank in &commit_ranks {
            chain
                .invoke_commit(
                    &ids[0],
                    "counter",
                    "incr",
                    vec![key(rank).into_bytes(), b"1".to_vec()],
                    &mut rng,
                )
                .expect("direct commit");
        }
        // ...and the younger half reads the new versions.
        for &(rank, rmw) in &post {
            endorse(&mut chain, &mut rng, rank, rmw == 1);
        }
        batch.extend(chain.take_pending());

        let doomed = chain.precheck(&batch);
        let pre_state = StateDb::materialize(chain.state());

        // Ground truth: solo replay against the committed pre-block state.
        for (i, tx) in batch.iter().enumerate() {
            let mut solo = pre_state.clone();
            let ok = validate_and_commit_block(std::slice::from_ref(tx), &mut solo, 999)[0]
                .is_valid();
            prop_assert_eq!(
                doomed[i].is_none(),
                ok,
                "precheck verdict for tx {} must equal solo-replay MVCC",
                i
            );
        }

        // Unordered path, original arrival order: soundness means every
        // transaction that commits there was *not* flagged; completeness
        // means every flagged transaction fails there too.
        let mut arrival = pre_state.clone();
        let outcomes = validate_and_commit_block(&batch, &mut arrival, 999);
        for (i, outcome) in outcomes.iter().enumerate() {
            if outcome.is_valid() {
                prop_assert!(doomed[i].is_none(), "sound: tx {} would commit", i);
            }
        }
        // A stale read is stale under any order; spot-check the reverse
        // order as a second witness.
        let reversed: Vec<_> = batch.iter().rev().cloned().collect();
        let mut rev_state = pre_state.clone();
        let rev = validate_and_commit_block(&reversed, &mut rev_state, 999);
        for (i, verdict) in doomed.iter().enumerate() {
            if verdict.is_some() {
                prop_assert!(!outcomes[i].is_valid(), "complete: tx {} doomed first-to-run", i);
                let j = batch.len() - 1 - i;
                prop_assert!(!rev[j].is_valid(), "complete: tx {} doomed last-to-run", i);
            }
        }

        // The planner pulls exactly the flagged set, and what it keeps is
        // serially valid against the pre-block state in scheduled order.
        let rwsets: Vec<&RwSet> = batch.iter().map(|t| &t.rwset).collect();
        let plan = reorder::plan(&rwsets, &doomed, &ReorderConfig::enabled(), |_| true);
        let pulled: BTreeSet<usize> = plan.early_aborts.iter().map(|(i, _)| *i).collect();
        let flagged: BTreeSet<usize> = doomed
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|_| i))
            .collect();
        prop_assert_eq!(pulled, flagged);

        let kept: Vec<_> = plan.order.iter().map(|&i| batch[i].clone()).collect();
        let mut kept_state = pre_state.clone();
        let kept_outcomes = validate_and_commit_block(&kept, &mut kept_state, 999);
        prop_assert!(
            kept_outcomes.iter().all(|o| o.is_valid()),
            "the planned schedule must be conflict-free: {:?}",
            kept_outcomes
        );
    }

    /// Adversarial dependency graphs: dense random read/write sets over a
    /// tiny keyspace maximise cycle density (write-write rings, RMW
    /// cliques, read-your-own-write chains all arise). The plan must be a
    /// deterministic exact partition of the batch, and the kept schedule
    /// must be serially valid — every reader scheduled before any writer
    /// of its keys.
    #[test]
    fn adversarial_cycle_density_plans_are_valid_partitions(
        txs in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..6, 0..3),
                proptest::collection::vec(0usize..6, 0..3),
            ),
            2..24,
        ),
    ) {
        let rwsets: Vec<RwSet> = txs
            .iter()
            .map(|(reads, writes)| RwSet {
                reads: reads
                    .iter()
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .map(|k| ReadEntry {
                        key: format!("k{k}"),
                        version: Some(Version::GENESIS),
                    })
                    .collect(),
                writes: writes
                    .iter()
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .map(|k| WriteEntry {
                        key: format!("k{k}"),
                        value: Some(vec![1]),
                    })
                    .collect(),
                private_writes: vec![],
            })
            .collect();
        let refs: Vec<&RwSet> = rwsets.iter().collect();
        let doomed = vec![None; refs.len()];

        let check = |plan: &ReorderPlan, defer_allowed: bool| {
            // Exact partition: kept ⊎ deferred = batch, no duplicates.
            let mut seen: Vec<usize> = plan.order.iter().chain(&plan.deferred).copied().collect();
            seen.sort_unstable();
            let all: Vec<usize> = (0..refs.len()).collect();
            assert_eq!(seen, all, "plan must partition the batch exactly");
            assert!(plan.early_aborts.is_empty(), "nothing is doomed here");
            if !defer_allowed {
                assert!(plan.deferred.is_empty(), "defer disabled keeps everything");
            }

            // Kept schedule validity: a read of GENESIS stays valid until
            // some scheduled writer bumps the key.
            if defer_allowed {
                let mut written: BTreeSet<&str> = BTreeSet::new();
                for &i in &plan.order {
                    for r in &rwsets[i].reads {
                        assert!(
                            !written.contains(r.key.as_str()),
                            "tx {i} reads {} after a write — schedule not serial-valid",
                            r.key
                        );
                    }
                    written.extend(rwsets[i].writes.iter().map(|w| w.key.as_str()));
                }
            }
        };

        let deferring = ReorderConfig::enabled();
        let a = reorder::plan(&refs, &doomed, &deferring, |_| true);
        let b = reorder::plan(&refs, &doomed, &deferring, |_| true);
        prop_assert_eq!(&a, &b, "equal inputs must produce equal plans");
        check(&a, true);

        // With no requeue budget the planner degrades to in-block MVCC:
        // every transaction stays, in some deterministic order.
        let f = reorder::plan(&refs, &doomed, &deferring, |_| false);
        check(&f, false);
    }
}
