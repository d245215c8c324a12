//! Conflict-aware ordering: the dependency-tracked planning stage the
//! block cutter runs *before* validation.
//!
//! Fabric's MVCC rule wastes work twice under contention: a transaction
//! whose read versions are already stale against committed state burns a
//! validation slot only to fail, and two transactions that conflict
//! *within* a block abort all but one of themselves even though a
//! different intra-block order (or a one-block deferral) would have
//! committed more of them. The lockless-isolation line of work (Meir et
//! al.) shows most of these conflicts are *predictable* from read/write
//! key sets alone. This module does that prediction at the cutter:
//!
//! 1. **Early abort** — a transaction with a read key whose committed
//!    version no longer matches its endorsed version fails MVCC under
//!    *every* intra-block order. It is pulled from the block before
//!    validation (sound *and* complete: exactly the transactions the
//!    pre-block [`precheck`](fabric_sim::FabricChain::precheck) flags).
//! 2. **Dependency graph** — over the remaining transactions, for every
//!    key `k`: each reader of `k` gets an edge to each writer of `k`
//!    (readers must precede writers, or the write invalidates the read),
//!    and consecutive writers of `k` get an edge in arrival order (so
//!    each key's final value is still the arrival-order last write —
//!    blind writes are never reordered against each other).
//! 3. **Topological schedule** — Kahn's algorithm with a min-heap on the
//!    original index: among schedulable transactions, the earliest
//!    arrival always goes first. An acyclic block therefore replays as a
//!    fully-valid serial schedule, and a conflict-free block reproduces
//!    the arrival order *bit-identically*.
//! 4. **Cycle breaking** — when no transaction is schedulable, the
//!    remaining subgraph contains a cycle (every remaining node has a
//!    remaining predecessor). The planner walks min-index predecessors
//!    from the smallest remaining index until a node repeats — a
//!    deterministic cycle — and *defers* the cycle's largest index that
//!    the caller lets defer (the latest arrival loses), pulling it from
//!    the block to re-endorse into the next one. If the caller lets no
//!    member of the cycle defer, the cycle's *smallest* index is
//!    force-scheduled instead and its violated predecessors simply take
//!    their chances with MVCC — the plan degrades to the unordered
//!    behaviour, never to a forced abort.
//!
//! Every step iterates deterministic structures (`BTreeMap` over keys,
//! index-ordered heaps), so the plan is a pure function of the pending
//! read/write sets, the doomed-flags, and the deferral answers: same
//! seed, same block composition.
//!
//! [`cut`] wraps the plan into the stage the replication cluster's
//! ordering service uses to turn its pending queue into a block, with the
//! stage on or off.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use fabric_sim::chaincode::RwSet;
use fabric_sim::ledger::Transaction;
use fabric_sim::FabricChain;

/// Configuration for the conflict-aware ordering stage. The default is
/// the stage switched off (the unordered baseline).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReorderConfig {
    /// Master switch. Off, the cutter commits pending transactions in
    /// arrival order (the unordered baseline). On, it pulls transactions
    /// whose endorsed read versions are already stale against committed
    /// state — doomed under every order — before they spend a validation
    /// slot, and pulls dependency-cycle victims from the block for
    /// re-endorsement into the next one.
    pub enabled: bool,
}

impl ReorderConfig {
    /// The stage switched on.
    pub fn enabled() -> ReorderConfig {
        ReorderConfig { enabled: true }
    }
}

/// What one planning pass did, for stats and telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Transaction pairs whose relative order the schedule inverted.
    pub reordered_pairs: u64,
    /// Dependency cycles broken (one per deferred or force-scheduled
    /// victim).
    pub cycles_broken: u64,
}

/// The cutter's plan for one block of pending transactions. Indices
/// refer to the input slice; `order`, `early_aborts` and `deferred`
/// partition it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReorderPlan {
    /// The transactions that stay in this block, in scheduled order.
    pub order: Vec<usize>,
    /// `(index, stale key)` for transactions doomed by committed state.
    pub early_aborts: Vec<(usize, String)>,
    /// Cycle victims pulled from this block to re-endorse into the next.
    pub deferred: Vec<usize>,
    /// Planning counters.
    pub stats: ReorderStats,
}

impl ReorderPlan {
    /// Apply the plan to the transactions it was computed over: those
    /// that stay in the block, in scheduled order; the early-aborted,
    /// each with its stale key; and the deferred — the latter two in the
    /// plan's own order, which is the order the cutter re-endorses in.
    ///
    /// # Panics
    /// Panics if `pending` is not the sequence the plan indexes.
    pub fn partition(
        self,
        pending: Vec<Transaction>,
    ) -> (
        Vec<Transaction>,
        Vec<(Transaction, String)>,
        Vec<Transaction>,
    ) {
        let mut slots: Vec<Option<Transaction>> = pending.into_iter().map(Some).collect();
        let mut pull = |i: usize| {
            slots[i]
                .take()
                .expect("a plan names each pending transaction exactly once")
        };
        let kept = self.order.into_iter().map(&mut pull).collect();
        let early_aborted = self
            .early_aborts
            .into_iter()
            .map(|(i, key)| (pull(i), key))
            .collect();
        let deferred = self.deferred.into_iter().map(&mut pull).collect();
        (kept, early_aborted, deferred)
    }
}

/// One pending queue split by [`cut`]: the block to commit and the
/// transactions pulled from it.
#[derive(Debug, Default)]
pub struct Cut {
    /// The transactions that make the block, in commit order.
    pub kept: Vec<Transaction>,
    /// Transactions doomed by committed state, each with its stale read
    /// key, in arrival order.
    pub early_aborted: Vec<(Transaction, String)>,
    /// Cycle victims pulled to re-endorse into a later block, in arrival
    /// order.
    pub deferred: Vec<Transaction>,
    /// Planning counters (zero with the stage off).
    pub stats: ReorderStats,
}

/// The cut stage: empty `chain`'s pending queue into one block.
///
/// With `config.enabled` off the block is the whole queue in arrival
/// order and nothing is pulled. On, the queue is prechecked against
/// `chain`'s committed state ([`FabricChain::precheck_pending`]), planned
/// ([`plan`], every cycle victim free to defer) and split
/// ([`ReorderPlan::partition`]). Either way the queue is left empty.
pub fn cut(chain: &mut FabricChain, config: &ReorderConfig) -> Cut {
    if !config.enabled {
        return Cut {
            kept: chain.take_pending(),
            ..Cut::default()
        };
    }
    let doomed = chain.precheck_pending();
    let plan = {
        let rwsets: Vec<&RwSet> = chain.pending().iter().map(|tx| &tx.rwset).collect();
        plan(&rwsets, &doomed, config, |_| true)
    };
    let stats = plan.stats;
    let (kept, early_aborted, deferred) = plan.partition(chain.take_pending());
    Cut {
        kept,
        early_aborted,
        deferred,
        stats,
    }
}

/// Plan one block over the pending transactions' read/write sets.
///
/// `doomed[i]` is the pre-block verdict for transaction `i`: the first
/// read key already stale against committed state, or `None` if all
/// reads are fresh (see [`FabricChain::precheck`]; pass all-`None` to
/// plan without early abort). `may_defer(i)` reports whether transaction
/// `i` may be deferred — consulted only for cycle victims; pass
/// `|_| false` to plan without deferral. The stage's `_config` holds no
/// knob the plan reads.
///
/// Deterministic: the plan is a pure function of the arguments.
///
/// [`FabricChain::precheck`]: fabric_sim::FabricChain::precheck
///
/// # Panics
/// Panics if `doomed.len() != rwsets.len()`.
pub fn plan(
    rwsets: &[&RwSet],
    doomed: &[Option<String>],
    _config: &ReorderConfig,
    mut may_defer: impl FnMut(usize) -> bool,
) -> ReorderPlan {
    assert_eq!(
        rwsets.len(),
        doomed.len(),
        "one doomed verdict per transaction"
    );
    let n = rwsets.len();
    let mut plan = ReorderPlan::default();
    // `removed[i]`: transaction i is out of the planning graph (early
    // aborted, deferred, or already scheduled).
    let mut removed = vec![false; n];

    for (i, verdict) in doomed.iter().enumerate() {
        if let Some(key) = verdict {
            plan.early_aborts.push((i, key.clone()));
            removed[i] = true;
        }
    }

    // Key → (reader indices, writer indices) among survivors, both
    // ascending. BTreeMap keeps key iteration deterministic.
    let mut by_key: BTreeMap<&str, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (i, rwset) in rwsets.iter().enumerate() {
        if removed[i] {
            continue;
        }
        for read in &rwset.reads {
            by_key.entry(&read.key).or_default().0.push(i);
        }
        for write in &rwset.writes {
            by_key.entry(&write.key).or_default().1.push(i);
        }
    }

    // Edges u → v: u must be scheduled before v.
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (readers, writers) in by_key.values() {
        // Readers precede writers: a reader scheduled after a writer of
        // its key would fail the MVCC version check. A transaction that
        // reads and writes the same key (an RMW) needs no self-edge —
        // Fabric checks reads before applying writes.
        for &r in readers {
            for &w in writers {
                if r != w {
                    out[r].push(w);
                }
            }
        }
        // Consecutive writers keep arrival order, pinning each key's
        // final value to the arrival-order last write.
        for pair in writers.windows(2) {
            if pair[0] != pair[1] {
                out[pair[0]].push(pair[1]);
            }
        }
    }
    for targets in &mut out {
        targets.sort_unstable();
        targets.dedup();
    }
    let mut in_deg = vec![0usize; n];
    let mut ins: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, targets) in out.iter().enumerate() {
        for &v in targets {
            in_deg[v] += 1;
            ins[v].push(u); // Ascending: u sweeps 0..n.
        }
    }

    let mut remaining = removed.iter().filter(|r| !**r).count();
    let mut ready: BinaryHeap<Reverse<usize>> = (0..n)
        .filter(|&i| !removed[i] && in_deg[i] == 0)
        .map(Reverse)
        .collect();
    // Drop u from the graph, releasing its successors.
    let release = |u: usize,
                   removed: &mut Vec<bool>,
                   in_deg: &mut Vec<usize>,
                   ready: &mut BinaryHeap<Reverse<usize>>,
                   remaining: &mut usize| {
        removed[u] = true;
        *remaining -= 1;
        for &v in &out[u] {
            if removed[v] {
                continue;
            }
            in_deg[v] -= 1;
            if in_deg[v] == 0 {
                ready.push(Reverse(v));
            }
        }
    };

    while remaining > 0 {
        if let Some(Reverse(u)) = ready.pop() {
            plan.order.push(u);
            release(u, &mut removed, &mut in_deg, &mut ready, &mut remaining);
            continue;
        }
        // Stuck: every remaining node has a remaining predecessor, so
        // the remaining subgraph contains a cycle. Walk min-index
        // predecessors from the smallest remaining node until one
        // repeats; the repeated suffix is a cycle.
        let start = (0..n)
            .find(|&i| !removed[i])
            .expect("remaining > 0 leaves a node");
        let mut pos: Vec<Option<usize>> = vec![None; n];
        let mut path: Vec<usize> = Vec::new();
        let mut cur = start;
        let cycle: &[usize] = loop {
            if let Some(first) = pos[cur] {
                break &path[first..];
            }
            pos[cur] = Some(path.len());
            path.push(cur);
            cur = *ins[cur]
                .iter()
                .find(|&&u| !removed[u])
                .expect("stuck node keeps a live predecessor");
        };
        plan.stats.cycles_broken += 1;
        // Defer the latest arrival in the cycle that may defer; with
        // none, force-schedule the earliest arrival (its violated
        // predecessors fall through to MVCC — the unordered behaviour).
        match cycle.iter().copied().filter(|&v| may_defer(v)).max() {
            Some(v) => {
                plan.deferred.push(v);
                release(v, &mut removed, &mut in_deg, &mut ready, &mut remaining);
            }
            None => {
                let m = *cycle.iter().min().expect("cycle is non-empty");
                plan.order.push(m);
                release(m, &mut removed, &mut in_deg, &mut ready, &mut remaining);
            }
        }
    }

    plan.deferred.sort_unstable();
    plan.stats.reordered_pairs = inversions(&plan.order);
    plan
}

/// Pairs scheduled against their arrival order.
fn inversions(order: &[usize]) -> u64 {
    let mut count = 0;
    for (a, &u) in order.iter().enumerate() {
        for &v in &order[a + 1..] {
            if u > v {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::counter_chain;
    use fabric_sim::chaincode::{ReadEntry, WriteEntry};
    use fabric_sim::Version;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An RwSet reading `reads` (each at the genesis version) and blindly
    /// writing `writes`.
    fn rw(reads: &[&str], writes: &[&str]) -> RwSet {
        RwSet {
            reads: reads
                .iter()
                .map(|k| ReadEntry {
                    key: (*k).into(),
                    version: Some(Version::GENESIS),
                })
                .collect(),
            writes: writes
                .iter()
                .map(|k| WriteEntry {
                    key: (*k).into(),
                    value: Some(b"v".to_vec()),
                })
                .collect(),
            private_writes: vec![],
        }
    }

    fn plan_all(rwsets: &[RwSet], config: &ReorderConfig) -> ReorderPlan {
        let refs: Vec<&RwSet> = rwsets.iter().collect();
        let doomed = vec![None; rwsets.len()];
        plan(&refs, &doomed, config, |_| true)
    }

    fn on() -> ReorderConfig {
        ReorderConfig::enabled()
    }

    #[test]
    fn conflict_free_block_keeps_arrival_order() {
        let sets = vec![rw(&["a"], &["a"]), rw(&["b"], &["b"]), rw(&[], &["c"])];
        let p = plan_all(&sets, &on());
        assert_eq!(p.order, vec![0, 1, 2]);
        assert!(p.early_aborts.is_empty() && p.deferred.is_empty());
        assert_eq!(p.stats, ReorderStats::default());
    }

    #[test]
    fn reader_is_scheduled_before_writer() {
        // Arrival order writer-then-reader of "a": the plan must invert
        // the pair so the reader's version check survives.
        let sets = vec![rw(&["x"], &["a"]), rw(&["a"], &["b"])];
        let p = plan_all(&sets, &on());
        assert_eq!(p.order, vec![1, 0]);
        assert_eq!(p.stats.reordered_pairs, 1);
        assert_eq!(p.stats.cycles_broken, 0);
    }

    #[test]
    fn blind_writes_keep_arrival_order() {
        // Two blind writes of "k": write-write edges pin the final value
        // to the arrival-order last writer, so no inversion may occur.
        let sets = vec![rw(&[], &["k"]), rw(&[], &["k"]), rw(&[], &["k"])];
        let p = plan_all(&sets, &on());
        assert_eq!(p.order, vec![0, 1, 2]);
    }

    #[test]
    fn rmw_clique_defers_all_but_the_earliest() {
        // Four increments of one hot key: mutually conflicting RMWs form
        // a complete cycle; only the earliest arrival can commit, and the
        // other three are deferred to later blocks (not aborted).
        let sets = vec![
            rw(&["hot"], &["hot"]),
            rw(&["hot"], &["hot"]),
            rw(&["hot"], &["hot"]),
            rw(&["hot"], &["hot"]),
        ];
        let p = plan_all(&sets, &on());
        assert_eq!(p.order, vec![0]);
        assert_eq!(p.deferred, vec![1, 2, 3]);
        assert_eq!(p.stats.cycles_broken, 3);
    }

    #[test]
    fn two_tx_write_write_cycle_breaks_deterministically() {
        // t0 reads a / writes b, t1 reads b / writes a: t0 → t1 (a's
        // reader precedes a's writer) and t1 → t0 — a write-write cycle
        // across two keys. The later arrival is deferred.
        let sets = vec![rw(&["a"], &["b"]), rw(&["b"], &["a"])];
        let p = plan_all(&sets, &on());
        assert_eq!(p.order, vec![0]);
        assert_eq!(p.deferred, vec![1]);
        assert_eq!(p.stats.cycles_broken, 1);
    }

    #[test]
    fn read_your_own_write_chain_is_no_self_conflict() {
        // A self-conflicting RMW (reads and writes its own key) is valid
        // alone in a block — no self-edge; a chain of them on one key
        // degenerates to the hot-key clique.
        let solo = vec![rw(&["k"], &["k"])];
        let p = plan_all(&solo, &on());
        assert_eq!(p.order, vec![0]);
        assert!(p.deferred.is_empty());

        let chain = vec![rw(&["k"], &["k"]), rw(&["k"], &["k"])];
        let p = plan_all(&chain, &on());
        assert_eq!(
            (p.order.as_slice(), p.deferred.as_slice()),
            (&[0][..], &[1][..])
        );
    }

    #[test]
    fn adversarial_ring_is_broken_deterministically() {
        // Maximum cycle density: tx i reads k_i and writes k_{i+1 mod n},
        // forming one n-cycle. Deferral peels victims until the ring is
        // acyclic; two runs agree exactly.
        let n = 7;
        let sets: Vec<RwSet> = (0..n)
            .map(|i| {
                let rk = format!("k{i}");
                let wk = format!("k{}", (i + 1) % n);
                rw(&[rk.as_str()], &[wk.as_str()])
            })
            .collect();
        let a = plan_all(&sets, &on());
        let b = plan_all(&sets, &on());
        assert_eq!(a, b, "planning must be deterministic");
        assert_eq!(
            a.order.len() + a.deferred.len(),
            n,
            "every tx is scheduled or deferred"
        );
        assert!(!a.deferred.is_empty(), "a ring cannot be acyclic");
        assert!(a.order.contains(&0), "the earliest arrival survives");
    }

    #[test]
    fn budget_exhaustion_degrades_to_in_block_mvcc() {
        // Same hot-key clique, but nothing may defer: the earliest
        // arrival is force-scheduled and the rest follow in arrival
        // order — exactly the unordered composition, so MVCC (not the
        // planner) decides their fate.
        let sets = [
            rw(&["hot"], &["hot"]),
            rw(&["hot"], &["hot"]),
            rw(&["hot"], &["hot"]),
        ];
        let refs: Vec<&RwSet> = sets.iter().collect();
        let doomed = vec![None; sets.len()];
        let p = plan(&refs, &doomed, &on(), |_| false);
        assert_eq!(p.order, vec![0, 1, 2]);
        assert!(p.deferred.is_empty());
        // Two forced breaks free the last node to schedule normally.
        assert_eq!(p.stats.cycles_broken, 2);
    }

    #[test]
    fn doomed_transactions_are_pulled_with_their_stale_key() {
        let sets = [rw(&["a"], &["a"]), rw(&["b"], &["b"])];
        let refs: Vec<&RwSet> = sets.iter().collect();
        let doomed = vec![None, Some("b".to_string())];
        let p = plan(&refs, &doomed, &on(), |_| true);
        assert_eq!(p.order, vec![0]);
        assert_eq!(p.early_aborts, vec![(1, "b".to_string())]);

        // All-`None` verdicts plan without early abort.
        let p = plan(&refs, &[None, None], &on(), |_| true);
        assert_eq!(p.order, vec![0, 1]);
        assert!(p.early_aborts.is_empty());
    }

    /// A counter chain with one `incr` of each key endorsed into its
    /// pending queue, in order, and then a commit of `keys[0]` landed
    /// behind the queue (endorsed on a same-seed twin): the first pending
    /// transaction's read is stale.
    fn queue_with_stale_head(keys: &[&str]) -> FabricChain {
        let incr = |key: &str| vec![key.as_bytes().to_vec(), b"1".to_vec()];
        let mut rng = StdRng::seed_from_u64(5);
        let (mut chain, ids) = counter_chain(11, 1, false);
        for key in keys {
            chain
                .invoke(&ids[0], "counter", "incr", incr(key), &mut rng)
                .unwrap();
        }
        let (mut twin, twin_ids) = counter_chain(11, 1, false);
        twin.invoke(&twin_ids[0], "counter", "incr", incr(keys[0]), &mut rng)
            .unwrap();
        let outcomes = chain.commit_ordered(twin.take_pending(), 1);
        assert!(outcomes.iter().all(|o| o.is_valid()), "{outcomes:?}");
        chain
    }

    #[test]
    fn disabled_cut_is_the_queue_in_arrival_order() {
        let mut chain = queue_with_stale_head(&["d", "hot", "hot", "free"]);
        let queue = chain.pending().to_vec();
        let cut = cut(&mut chain, &ReorderConfig::default());
        assert_eq!(cut.kept, queue, "the stale head is not pulled either");
        assert!(cut.early_aborted.is_empty() && cut.deferred.is_empty());
        assert_eq!(cut.stats, ReorderStats::default());
        assert_eq!(chain.pending_count(), 0);
    }

    #[test]
    fn enabled_cut_is_plan_then_partition() {
        // 0 reads a stale "d"; 1 and 2 increment "hot" (a two-cycle); 3 is
        // independent. The cycle defers its later arrival, 2.
        let mut chain = queue_with_stale_head(&["d", "hot", "hot", "free"]);
        let queue = chain.pending().to_vec();
        let doomed = chain.precheck_pending();
        let cut = cut(&mut chain, &on());
        assert_eq!(chain.pending_count(), 0);

        let rwsets: Vec<&RwSet> = queue.iter().map(|tx| &tx.rwset).collect();
        let expected = plan(&rwsets, &doomed, &on(), |_| true);
        assert_eq!(cut.stats, expected.stats);
        let (kept, early_aborted, deferred) = expected.partition(queue.clone());
        assert_eq!(
            (&cut.kept, &cut.early_aborted, &cut.deferred),
            (&kept, &early_aborted, &deferred)
        );

        assert_eq!(cut.kept, [queue[3].clone(), queue[1].clone()]);
        assert_eq!(cut.early_aborted, [(queue[0].clone(), "d".to_string())]);
        assert_eq!(cut.deferred, [queue[2].clone()]);
        let stats = ReorderStats {
            reordered_pairs: 1,
            cycles_broken: 1,
        };
        assert_eq!(cut.stats, stats);
    }

    #[test]
    fn inversion_count_is_exact() {
        assert_eq!(inversions(&[0, 1, 2]), 0);
        assert_eq!(inversions(&[2, 1, 0]), 3);
        assert_eq!(inversions(&[1, 0, 2]), 1);
        assert_eq!(inversions(&[]), 0);
    }
}
