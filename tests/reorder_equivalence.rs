//! Differential tests for the conflict-aware cutter: reordering must be a
//! pure scheduling optimisation. Final state digests and rolling state
//! roots match the unordered pipeline, every reordered block replays as a
//! serial schedule from genesis (the serializability witness), early
//! aborts fire exactly on transactions that would fail MVCC under *any*
//! intra-block order, and equal seeds reproduce bit-identical runs.

use ledgerview::crypto::sha256::Digest;
use ledgerview::fabric::chaincode::{ReadEntry, RwSet, WriteEntry};
use ledgerview::fabric::statedb::{StateDb, Version};
use ledgerview::fabric::validation::{state_root_from_block, validate_and_commit_block};
use ledgerview::gateway::driver::counter_chain;
use ledgerview::gateway::reorder::{self, ReorderPlan};
use ledgerview::gateway::{AdmissionConfig, Operation, Priority, ReorderConfig, SubmitResult};
use ledgerview::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// `incr key 1`: a read-modify-write on `key`.
fn incr(key: &str) -> Operation {
    Operation::new(
        "counter",
        "incr",
        vec![key.as_bytes().to_vec(), b"1".to_vec()],
    )
}

/// `get key`: a read-only transaction on `key`.
fn get(key: &str) -> Operation {
    Operation::new("counter", "get", vec![key.as_bytes().to_vec()])
}

/// `put key value`: a blind write (no read entry, never conflicts).
fn put(key: &str, value: &str) -> Operation {
    Operation::new(
        "counter",
        "put",
        vec![key.as_bytes().to_vec(), value.as_bytes().to_vec()],
    )
}

/// A gateway tuned so nothing is shed and every request can reach a
/// terminal commit; `reorder` selects the cutter under test. The requeue
/// budget is effectively unbounded so deferral never degrades to
/// force-scheduling (that mode is covered by the unit tests).
fn config(seed: u64, reorder: ReorderConfig) -> GatewayConfig {
    GatewayConfig {
        block_size: 4,
        block_timeout_us: 1_000,
        queue_capacity: 100_000,
        admission: AdmissionConfig {
            max_inflight_per_client: 100_000,
            ..AdmissionConfig::default()
        },
        retry: RetryPolicy {
            max_attempts: 200,
            base_backoff_us: 100,
            max_backoff_us: 2_000,
            ..RetryPolicy::default()
        },
        reorder: ReorderConfig {
            max_requeues: 100_000,
            ..reorder
        },
        seed,
        ..GatewayConfig::default()
    }
}

/// Run a workload to completion and hand back the gateway for inspection.
/// Panics unless every submission is accepted and reaches a terminal
/// completion.
fn run(seed: u64, reorder: ReorderConfig, ops: &[(u64, Operation)]) -> Gateway {
    let (chain, ids) = counter_chain(seed, 3, true);
    let mut gateway = Gateway::new(chain, ids, config(seed, reorder));
    for (client, op) in ops {
        let r = gateway.submit(0, *client, Priority::Normal, op.clone());
        assert!(matches!(r, SubmitResult::Accepted(_)), "nothing sheds");
    }
    gateway.drain(0);
    let completions = gateway.drain_completions();
    assert_eq!(completions.len(), ops.len(), "all accepted reach terminal");
    gateway
}

/// The per-block commit fingerprint that must be independent of timestamp
/// details: (tx ids in order, validity flags, rolling state root).
fn block_fingerprints(gateway: &Gateway) -> Vec<(Vec<String>, Vec<bool>, Digest)> {
    gateway
        .chain()
        .store()
        .iter()
        .map(|b| {
            (
                b.transactions.iter().map(|t| t.tx_id.to_string()).collect(),
                b.validity.clone(),
                b.header.state_root,
            )
        })
        .collect()
}

/// All committed key/value pairs (versions excluded: block composition
/// legitimately shifts them).
fn values(gateway: &Gateway) -> BTreeMap<String, Vec<u8>> {
    gateway
        .chain()
        .state()
        .prefix_scan("")
        .into_iter()
        .collect()
}

/// Replay every stored block from an empty state, exactly as crash
/// recovery does: per-block MVCC outcomes must reproduce the stored
/// validity flags, the rolling root chain must reproduce every header's
/// `state_root`, and the final full-state digest must match the live
/// chain. This is the serializability witness — the block order *is* a
/// serial schedule that produces the recorded outcomes.
fn assert_blocks_replay_serially(gateway: &Gateway) {
    let mut state = StateDb::new();
    let mut root = Digest::ZERO;
    for block in gateway.chain().store().iter() {
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
        gateway.chain().state().state_digest(),
        "replayed state digest must match the live chain"
    );
}

/// With every key touched exactly once there are no dependencies, so the
/// conflict-aware cutter must reproduce the unordered pipeline *exactly*:
/// identical block composition, rolling roots, and state digest.
#[test]
fn conflict_free_workload_is_bit_identical() {
    let ops: Vec<(u64, Operation)> = (0..24u64)
        .map(|i| (i % 5, incr(&format!("unique-{i}"))))
        .collect();
    let plain = run(7, ReorderConfig::default(), &ops);
    let reordered = run(7, ReorderConfig::enabled(), &ops);

    assert_eq!(block_fingerprints(&plain), block_fingerprints(&reordered));
    assert_eq!(
        plain.chain().state().state_digest(),
        reordered.chain().state().state_digest()
    );
    assert_eq!(plain.chain().state_root(), reordered.chain().state_root());
    let s = reordered.stats();
    assert_eq!(s.reordered_pairs, 0, "no dependencies, no inversions");
    assert_eq!(s.deferrals + s.early_aborts, 0);
}

/// Two runs from the same seed with reordering enabled must be
/// bit-identical end to end: block composition, roots, digests, and every
/// pipeline counter.
#[test]
fn same_seed_reordered_runs_are_bit_identical() {
    let ops: Vec<(u64, Operation)> = (0..40u64)
        .map(|i| (i % 6, incr(&format!("hot-{}", i % 2))))
        .collect();
    let a = run(11, ReorderConfig::enabled(), &ops);
    let b = run(11, ReorderConfig::enabled(), &ops);

    assert!(a.stats().deferrals > 0, "hot keys must exercise deferral");
    assert_eq!(block_fingerprints(&a), block_fingerprints(&b));
    assert_eq!(
        a.chain().state().state_digest(),
        b.chain().state().state_digest()
    );
    assert_eq!(a.stats(), b.stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random contended workloads: the reordered pipeline must commit
    /// everything *without a single MVCC conflict* (prevention, where the
    /// unordered pipeline cures by retrying) and still land on exactly
    /// the per-key values of the unordered run. Every reordered block
    /// must replay as a serial schedule.
    #[test]
    fn contended_workloads_commit_equivalent_state(
        ops in proptest::collection::vec((0u64..5, 0usize..3, 0u8..3), 1..40),
        seed in 0u64..300,
    ) {
        let ops: Vec<(u64, Operation)> = ops
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

        let plain = run(seed, ReorderConfig::default(), &ops);
        let reordered = run(seed, ReorderConfig::enabled(), &ops);

        // Same committed values, key for key.
        prop_assert_eq!(values(&plain), values(&reordered));

        // The unordered pipeline may conflict and retry; the conflict-aware
        // cutter must never let a doomed transaction reach validation.
        let s = reordered.stats();
        prop_assert_eq!(s.conflicts, 0, "reordering prevents MVCC conflicts");
        prop_assert_eq!(s.conflict_aborted, 0);
        prop_assert_eq!(s.committed, ops.len() as u64);

        // Every block the cutter composed is a serial schedule.
        assert_blocks_replay_serially(&reordered);
        for block in reordered.chain().store().iter() {
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
