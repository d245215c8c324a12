//! The deterministic multi-node harness: Raft ordering over simnet links,
//! leader-based block dissemination to durable peers, catch-up, and
//! scheduled fault injection — all on the virtual clock.
//!
//! # Determinism rules
//!
//! Everything observable is a pure function of [`ClusterConfig`] plus the
//! scheduled load/fault timeline:
//!
//! * All randomness (election jitter, tx ids, retry jitter) flows from
//!   seeded RNGs derived from `config.seed`.
//! * Every message, delivery, tick, and fault is an event on the
//!   [`Simulation`] queue; ties break by insertion order, which is itself
//!   deterministic.
//! * No wall-clock value ever reaches consensus state: block timestamps
//!   come from the ordered batch, not from any replica's local clock.
//!
//! Two runs with equal configs therefore produce bit-identical commit
//! histories and state roots — which is what makes every failure
//! scenario in `tests/` reproducible from its seed alone.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::identity::Identity;
use fabric_sim::ledger::{BlockStore, Transaction, TxId};
use fabric_sim::raft::{NodeId, Outgoing, RaftMsg, RaftNode};
use fabric_sim::statedb::VersionedState;
use fabric_sim::storage::ChainSnapshot;
use fabric_sim::validation::TxValidation;
use fabric_sim::{FabricChain, FabricError, LsmState, StorageConfig};
use ledgerview_crypto::rng::seeded;
use ledgerview_crypto::sha256::Digest;
use ledgerview_gateway::{reorder, CounterChaincode, RetryPolicy};
use ledgerview_simnet::{LatencyMatrix, Region, SimTime, Simulation};
use ledgerview_telemetry::{Telemetry, TraceContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::OrderedBatch;
use crate::fault::{BootstrapMode, ClusterError, Divergence, Fault};
use crate::metrics::ClusterMetrics;
use crate::ClusterConfig;

/// Chaincode every replica deploys (the counter workload).
const CHAINCODE: &str = "counter";

/// Backoff for re-routing a proposal after `NotLeader` (or a dead
/// orderer); `max_attempts` bounds one routing round.
const ROUTING: RetryPolicy = RetryPolicy::for_leader_routing();

/// How long a proposed batch may stay unobserved in the committed log
/// before the client re-proposes it (covers batches lost with a killed
/// leader).
const RESUBMIT_TIMEOUT: SimTime = SimTime::from_secs(2);

/// Stage tags fed to [`TraceContext::span_id`]: every node derives the
/// same span id for the same (trace, stage) pair without coordination, so
/// a peer can parent its commit span under the replicate span it never
/// saw recorded.
pub mod stage {
    /// Gateway-side submission/endorsement.
    pub const SUBMIT: u64 = 1;
    /// Waiting in the ordering service's pending queue until cut.
    pub const QUEUE: u64 = 2;
    /// Raft replication of the cut batch.
    pub const REPLICATE: u64 = 3;
    /// Per-peer validate+commit; add the peer index.
    pub const PEER_COMMIT_BASE: u64 = 0x100;
    /// A re-endorsement hop (early-abort/deferral); add the 1-based
    /// requeue ordinal so repeated pulls of one trace stay distinct.
    pub const REQUEUE_BASE: u64 = 0x1_0000;
}

type Sim = Simulation<World>;

struct Orderer {
    node: RaftNode,
    alive: bool,
    /// Invalidates stale tick events: each (re)schedule bumps the
    /// generation and a firing tick with an old generation is a no-op.
    tick_gen: u64,
    was_leader: bool,
}

struct Catchup {
    started: SimTime,
    target: u64,
    mode: BootstrapMode,
    bytes: u64,
    blocks: u64,
}

struct Peer {
    dir: PathBuf,
    region: Region,
    /// `None` while crashed (or while a snapshot is in flight).
    chain: Option<FabricChain>,
    /// Next global block index this peer will apply.
    next_apply: u64,
    /// Delivered-but-not-yet-applicable block indices (out-of-order
    /// arrivals buffered until the gap fills).
    ready: BTreeSet<u64>,
    catchup: Option<Catchup>,
    /// Invalidates a stale snapshot install: each snapshot join and each
    /// crash bumps the generation, and an install that arrives with an
    /// old generation is dropped.
    join_gen: u64,
}

impl Peer {
    /// Peer `p` of a cluster under `cfg`, not yet open: its directory
    /// (`<storage_root>/peer<p>`), its region, and nothing applied.
    fn new(cfg: &ClusterConfig, p: usize) -> Peer {
        Peer {
            dir: cfg.storage_root.join(format!("peer{p}")),
            region: cfg.peer_regions[p % cfg.peer_regions.len().max(1)],
            chain: None,
            next_apply: 0,
            ready: BTreeSet::new(),
            catchup: None,
            join_gen: 0,
        }
    }
}

/// What the canonical chain's block at one height does not record: its
/// batch's id, timestamp (peers commit with it), encoded length, commit
/// time and trace contexts.
struct CommittedBlock {
    batch_id: u64,
    timestamp_us: u64,
    bytes: u64,
    committed_at: SimTime,
    traces: Vec<TraceContext>,
}

/// One endorsed, not-yet-committed transaction, keyed by its *current*
/// tx id — a re-endorsed transaction gets a fresh id and the record
/// moves with it, so its trace and tag survive early-aborts, deferrals
/// and watchdog resubmits.
struct TxRecord {
    /// Root context (`parent_span == 0`), derived from the submission
    /// sequence number — always computed, even with telemetry detached,
    /// so batch wire bytes never depend on observation.
    ctx: TraceContext,
    /// Virtual time of the original submission (requeues don't reset it:
    /// queue time is measured from first submission to final cut).
    submitted_us: u64,
    /// Times this transaction has been pulled and re-endorsed.
    requeues: u64,
    /// The caller's tag ([`ClusterSim::schedule_call`]): the outcome
    /// reports under it when the transaction commits.
    tag: Option<u64>,
}

/// The fate of a tagged invocation scheduled via
/// [`ClusterSim::schedule_call`], reported through
/// [`ClusterSim::take_outcomes`].
///
/// "Acceptance is a promise": once endorsement succeeds the cluster's
/// watchdog and rerouting guarantee the transaction is eventually ordered
/// and committed (possibly as `Committed` with a failed validation), so
/// these two variants are exhaustive — there is no silent-drop outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvokeOutcome {
    /// Endorsement rejected the proposal (chaincode error / policy); the
    /// transaction never entered the ordering pipeline.
    EndorseFailed(String),
    /// The transaction was ordered and committed on the canonical chain
    /// with this validation result (writes applied only when
    /// `valid.is_valid()`).
    Committed {
        /// The commit-time validation outcome.
        valid: TxValidation,
    },
}

/// One completed peer catch-up (restart replay, join, or heal).
#[derive(Clone, Debug)]
pub struct CatchupRecord {
    /// The peer that caught up.
    pub peer: usize,
    /// Snapshot shipping or full replay.
    pub mode: BootstrapMode,
    /// Virtual time from start to reaching the catch-up target.
    pub duration: SimTime,
    /// Blocks replayed after the starting point.
    pub blocks: u64,
    /// Bytes shipped (snapshot payload plus replayed block bytes).
    pub bytes: u64,
}

/// End-of-run summary: heights, roots, detected faults, and counters.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Globally committed block count.
    pub blocks: u64,
    /// Transactions committed across all blocks.
    pub txs: u64,
    /// Canonical rolling state root after each block.
    pub canonical_roots: Vec<Digest>,
    /// Batch id of each committed block, in commit order.
    pub batch_history: Vec<u64>,
    /// Per-peer applied height (`None` = crashed).
    pub peer_heights: Vec<Option<u64>>,
    /// Per-peer rolling state root (`None` = crashed).
    pub peer_roots: Vec<Option<Digest>>,
    /// State-root divergences detected (empty on a healthy run).
    pub divergences: Vec<Divergence>,
    /// Election-safety violations observed (always empty unless Raft is
    /// broken; checked by the hardening tests).
    pub election_violations: Vec<String>,
    /// Leader transitions observed.
    pub elections: u64,
    /// Proposals re-routed after `NotLeader`/dead-orderer.
    pub notleader_retries: u64,
    /// Watchdog re-proposals of unacknowledged batches.
    pub resubmits: u64,
    /// Duplicate batch commits suppressed.
    pub dup_batches: u64,
    /// Batches dropped after exhausting routing attempts.
    pub failed_batches: u64,
    /// Endorsement-time submission errors.
    pub submit_errors: u64,
    /// Doomed transactions pulled from a batch by the conflict-aware
    /// cutter and re-endorsed (zero with reordering off).
    pub reorder_early_aborts: u64,
    /// Dependency-cycle victims deferred to a later batch.
    pub reorder_deferrals: u64,
    /// Transaction pairs batched in inverted (non-endorsement) order.
    pub reorder_pairs: u64,
    /// Intra-batch dependency cycles broken by the cutter.
    pub reorder_cycles: u64,
    /// Completed catch-ups.
    pub catchups: Vec<CatchupRecord>,
}

/// Region hosting every orderer (the paper co-locates all three).
const ORDERER_REGION: Region = Region::ASIA_SOUTHEAST;

struct World {
    cfg: ClusterConfig,
    /// One-way link latencies between regions: the paper's three GCP
    /// regions.
    latency: LatencyMatrix,
    orderers: Vec<Orderer>,
    peers: Vec<Peer>,
    /// The ordering-side endorsing chain: clients endorse against it, and
    /// it applies every ordered batch itself. Its block store is the
    /// canonical chain ([`World::canonical`]): the bodies peers replay and
    /// the state roots each peer is cross-checked against.
    endorser: FabricChain,
    client: Identity,
    submit_rng: StdRng,

    // Global ordered log (deduplicated Raft commits), one entry per block.
    raft_applied: u64,
    seen_batches: BTreeSet<u64>,
    blocks: Vec<CommittedBlock>,

    // Client submission pipeline; encoded batches not yet committed.
    next_batch_id: u64,
    inflight: BTreeMap<u64, Vec<u8>>,
    believed_leader: NodeId,

    // Causal tracing and tagged invocations (sharded deployments watch
    // their 2PC legs).
    submit_seq: u64,
    txs: BTreeMap<TxId, TxRecord>,
    outcomes: Vec<(u64, InvokeOutcome)>,

    // Link faults (orderer ↔ orderer).
    partition_group: Vec<u8>,
    slow: BTreeMap<(NodeId, NodeId), u64>,

    // Detection + counters.
    divergences: Vec<Divergence>,
    leaders_by_term: BTreeMap<u64, NodeId>,
    election_violations: Vec<String>,
    elections: u64,
    notleader_retries: u64,
    resubmits: u64,
    dup_batches: u64,
    failed_batches: u64,
    submit_errors: u64,
    reorder_early_aborts: u64,
    reorder_deferrals: u64,
    reorder_pairs: u64,
    reorder_cycles: u64,
    catchups: Vec<CatchupRecord>,
    /// The first error an event handler hit — a Raft entry that does not
    /// decode, a peer directory the OS refuses, a shipped snapshot that
    /// does not install, a bootstrap or heal with no live donor. Handlers
    /// cannot return it, so it waits here for `run_until_converged` /
    /// `verify_convergence` to surface.
    failed: Option<ClusterError>,

    /// Scheduled-but-unfired submissions/faults/bootstraps; convergence
    /// requires all of them to have fired.
    pending_actions: u64,

    metrics: Option<ClusterMetrics>,
}

impl World {
    fn deploy_workload(cfg: &ClusterConfig, chain: &mut FabricChain) {
        chain.deploy(
            CHAINCODE,
            Box::new(CounterChaincode),
            EndorsementPolicy::AnyOf(chain.org_ids()),
        );
        for (name, factory) in &cfg.workloads {
            chain.deploy(name, factory(), EndorsementPolicy::AnyOf(chain.org_ids()));
        }
    }

    fn fail(&mut self, e: impl Into<ClusterError>) {
        if self.failed.is_none() {
            self.failed = Some(e.into());
        }
    }

    /// The canonical chain, one block per committed height: every body a
    /// peer applies and every canonical state root is read from here.
    fn canonical(&self) -> &BlockStore {
        self.endorser.store()
    }

    // ---- links ------------------------------------------------------

    fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.orderers[a].alive
            && self.orderers[b].alive
            && self.partition_group[a] == self.partition_group[b]
    }

    /// One-way link latency from the ordering service to `region`.
    fn orderer_latency_to(&self, region: Region) -> SimTime {
        self.latency.latency(ORDERER_REGION, region)
    }

    fn orderer_link_delay(&self, from: NodeId, to: NodeId) -> SimTime {
        let base = self.orderer_latency_to(ORDERER_REGION);
        match self.slow.get(&(from, to)) {
            Some(&factor) => base.scaled(factor.max(1)),
            None => base,
        }
    }

    fn transfer_delay(&self, region: Region, bytes: u64) -> SimTime {
        let wire = self.orderer_latency_to(region);
        let bw = self.cfg.catchup_bandwidth_bytes_per_sec.max(1);
        wire + SimTime::from_micros(bytes.saturating_mul(1_000_000) / bw)
    }

    // ---- raft plumbing ----------------------------------------------

    fn dispatch(&mut self, sim: &mut Sim, from: NodeId, outs: Vec<Outgoing>) {
        for out in outs {
            if !self.link_up(from, out.to) {
                continue;
            }
            let delay = self.orderer_link_delay(from, out.to);
            let to = out.to;
            let msg = out.msg;
            sim.schedule_in(delay, move |w: &mut World, s| {
                w.on_raft_msg(from, to, msg, s);
            });
        }
    }

    fn on_raft_msg(&mut self, from: NodeId, to: NodeId, msg: RaftMsg, sim: &mut Sim) {
        if !self.orderers[to].alive {
            return;
        }
        let outs = self.orderers[to].node.handle(from, msg, sim.now());
        self.after_raft_activity(to, outs, sim);
    }

    /// Shared tail of every Raft interaction: observe role changes, send
    /// outgoing messages, surface newly committed entries, re-arm the
    /// node's timer.
    fn after_raft_activity(&mut self, o: NodeId, outs: Vec<Outgoing>, sim: &mut Sim) {
        self.observe_orderer(o);
        self.dispatch(sim, o, outs);
        self.drain_commits(o, sim);
        self.reschedule_tick(o, sim);
    }

    fn reschedule_tick(&mut self, o: NodeId, sim: &mut Sim) {
        if !self.orderers[o].alive {
            return;
        }
        self.orderers[o].tick_gen += 1;
        let gen = self.orderers[o].tick_gen;
        let at = self.orderers[o].node.next_deadline().max(sim.now());
        sim.schedule_at(at, move |w: &mut World, s| w.on_tick(o, gen, s));
    }

    fn on_tick(&mut self, o: NodeId, gen: u64, sim: &mut Sim) {
        if !self.orderers[o].alive || self.orderers[o].tick_gen != gen {
            return;
        }
        let outs = self.orderers[o].node.tick(sim.now());
        self.after_raft_activity(o, outs, sim);
    }

    /// Track leader transitions: election counters, the per-term safety
    /// check, and the client's leader hint.
    fn observe_orderer(&mut self, o: NodeId) {
        let is_leader = self.orderers[o].node.is_leader();
        let term = self.orderers[o].node.current_term();
        if is_leader && !self.orderers[o].was_leader {
            self.elections += 1;
            if let Some(m) = &self.metrics {
                m.elections.inc();
            }
            match self.leaders_by_term.get(&term) {
                None => {
                    self.leaders_by_term.insert(term, o);
                }
                Some(&prev) if prev != o => self
                    .election_violations
                    .push(format!("term {term}: leaders {prev} and {o}")),
                Some(_) => {}
            }
            self.believed_leader = o;
        }
        self.orderers[o].was_leader = is_leader;
    }

    /// Pull committed Raft entries into the global ordered log (exactly
    /// once across all orderers), apply them to the canonical chain, and
    /// disseminate the resulting block.
    fn drain_commits(&mut self, o: NodeId, sim: &mut Sim) {
        for (index, entry) in self.orderers[o].node.take_committed() {
            debug_assert!(
                index <= self.raft_applied + 1,
                "commit upcalls out of order"
            );
            if index <= self.raft_applied {
                continue; // Another orderer already surfaced this index.
            }
            self.raft_applied = index;
            let batch = match OrderedBatch::decode(&entry.data) {
                Ok(batch) => batch,
                Err(e) => {
                    self.fail(e);
                    continue;
                }
            };
            if !self.seen_batches.insert(batch.batch_id) {
                self.dup_batches += 1;
                if let Some(m) = &self.metrics {
                    m.dup_batches.inc();
                }
                continue; // Client re-proposal; every replica skips it.
            }
            self.inflight.remove(&batch.batch_id);
            let tx_ids: Vec<TxId> = batch.transactions.iter().map(|tx| tx.tx_id).collect();
            let validations = self
                .endorser
                .commit_ordered(batch.transactions, batch.timestamp_us);
            // The cutter never proposes an empty batch, so every batch is
            // one canonical block and `blocks` stays in step with the chain.
            debug_assert_eq!(self.endorser.height(), self.blocks.len() as u64 + 1);
            for (tx_id, valid) in tx_ids.iter().zip(validations) {
                if let Some(tag) = self.txs.remove(tx_id).and_then(|r| r.tag) {
                    self.outcomes
                        .push((tag, InvokeOutcome::Committed { valid }));
                }
            }
            // Batch dedup above guarantees exactly one replicate span per
            // transaction, even when the watchdog re-proposed the batch.
            if let Some(m) = &self.metrics {
                let tracer = m.telemetry.tracer();
                let lane = m.orderer_proc(o);
                let now_us = sim.now().as_micros();
                for ctx in &batch.traces {
                    tracer.record_linked(
                        "order.replicate",
                        batch.timestamp_us,
                        now_us,
                        lane,
                        "raft",
                        ctx.span_id(stage::REPLICATE),
                        *ctx,
                    );
                    m.trace_replicate_spans.inc();
                }
            }
            let block_num = self.blocks.len() as u64;
            self.blocks.push(CommittedBlock {
                batch_id: batch.batch_id,
                timestamp_us: batch.timestamp_us,
                bytes: entry.data.len() as u64,
                committed_at: sim.now(),
                traces: batch.traces,
            });
            self.disseminate(block_num, sim);
        }
    }

    /// Leader-based dissemination: schedule delivery of a freshly
    /// committed block to every reachable peer.
    fn disseminate(&mut self, block_num: u64, sim: &mut Sim) {
        for p in 0..self.peers.len() {
            if self.peers[p].chain.is_some() {
                let delay = self.orderer_latency_to(self.peers[p].region);
                sim.schedule_in(delay, move |w: &mut World, s| w.on_deliver(p, block_num, s));
            }
            if let Some(m) = &self.metrics {
                let applied = self.peers[p].next_apply;
                m.set_behind(p, self.canonical().height().saturating_sub(applied));
            }
        }
    }

    fn on_deliver(&mut self, p: usize, block_num: u64, sim: &mut Sim) {
        let peer = &mut self.peers[p];
        if peer.chain.is_none() || block_num < peer.next_apply {
            return;
        }
        peer.ready.insert(block_num);
        self.apply_ready(p, sim);
    }

    /// Apply every contiguously available block on peer `p`, cross-check
    /// roots, update lag metrics, and complete any catch-up in progress.
    fn apply_ready(&mut self, p: usize, sim: &mut Sim) {
        loop {
            let next = self.peers[p].next_apply;
            if !self.peers[p].ready.remove(&next) {
                break;
            }
            // Delivery is scheduled only for committed heights, to a peer
            // with a chain; a crash since clears `ready`.
            let Some(block) = self.canonical().block(next) else {
                break;
            };
            let (txs, expected) = (block.transactions.clone(), block.header.state_root);
            let Some(chain) = self.peers[p].chain.as_mut() else {
                break;
            };
            let meta = &self.blocks[next as usize];
            chain.commit_ordered(txs, meta.timestamp_us);
            let actual = chain.state_root();
            if let Some(m) = &self.metrics {
                let tracer = m.telemetry.tracer();
                let lane = m.peer_proc(p);
                let now_us = sim.now().as_micros();
                for ctx in &meta.traces {
                    // Parent under the replicate span this peer never saw
                    // recorded: span ids are trace-derived, so it computes
                    // the same id the ordering side used.
                    tracer.record_linked(
                        "peer.commit",
                        meta.committed_at.as_micros(),
                        now_us,
                        lane,
                        "commit",
                        ctx.span_id(stage::PEER_COMMIT_BASE + p as u64),
                        ctx.with_parent(ctx.span_id(stage::REPLICATE)),
                    );
                    m.trace_commit_spans.inc();
                }
            }
            if actual != expected {
                self.divergences.push(Divergence {
                    peer: p,
                    block: next,
                    expected,
                    actual,
                });
            }
            let peer = &mut self.peers[p];
            peer.next_apply = next + 1;
            if let Some(c) = &mut peer.catchup {
                c.blocks += 1;
                c.bytes += meta.bytes;
            }
            if let Some(m) = &self.metrics {
                m.set_lag_us(p, sim.now().saturating_sub(meta.committed_at).as_micros());
                m.set_behind(p, self.canonical().height().saturating_sub(next + 1));
            }
        }
        self.maybe_finish_catchup(p, sim);
    }

    fn maybe_finish_catchup(&mut self, p: usize, sim: &mut Sim) {
        let peer = &mut self.peers[p];
        let Some(c) = peer.catchup.take_if(|c| peer.next_apply >= c.target) else {
            return;
        };
        let duration = sim.now().saturating_sub(c.started);
        if let Some(m) = &self.metrics {
            let h = match c.mode {
                BootstrapMode::Snapshot => &m.catchup_snapshot_us,
                BootstrapMode::FullReplay => &m.catchup_replay_us,
            };
            h.observe(duration.as_micros());
        }
        self.catchups.push(CatchupRecord {
            peer: p,
            mode: c.mode,
            duration,
            blocks: c.blocks,
            bytes: c.bytes,
        });
    }

    /// A catch-up under `mode` starting now, to the current tip.
    fn catchup(&self, mode: BootstrapMode, sim: &Sim) -> Catchup {
        Catchup {
            started: sim.now(),
            target: self.canonical().height(),
            mode,
            bytes: 0,
            blocks: 0,
        }
    }

    /// The one way a peer comes back — restart, replay join and snapshot
    /// join alike: open peer `p`'s directory (installing `snapshot` into
    /// it first, when one is given) at the height it holds, stream the
    /// blocks `[height, tip)` to it as a bandwidth-limited replay from the
    /// ordering service's region, and finish the catch-up being recorded
    /// if nothing is left to replay. Returns the opened height.
    fn reopen(
        &mut self,
        p: usize,
        snapshot: Option<&ChainSnapshot>,
        sim: &mut Sim,
    ) -> Result<u64, ClusterError> {
        let cfg = &self.cfg;
        let names: Vec<&str> = cfg.org_names.iter().map(|s| s.as_str()).collect();
        let mut rng = seeded(cfg.identity_seed);
        let storage = StorageConfig::new(self.peers[p].dir.clone())
            .fsync(cfg.fsync)
            .checkpoint_every(cfg.checkpoint_every);
        let validation = cfg.validation.clone();
        let mut chain = match snapshot {
            Some(snapshot) => {
                let lsm = LsmState::default_config(&storage);
                FabricChain::from_snapshot(&names, &mut rng, storage, lsm, validation, snapshot)?
            }
            None => FabricChain::with_storage(&names, &mut rng, storage, validation)?,
        };
        Self::deploy_workload(cfg, &mut chain);
        let height = chain.height();
        let peer = &mut self.peers[p];
        peer.chain = Some(chain);
        peer.next_apply = height;
        peer.ready.clear();
        let mut cumulative = 0u64;
        for idx in height..self.blocks.len() as u64 {
            cumulative += self.blocks[idx as usize].bytes;
            let at = self.transfer_delay(self.peers[p].region, cumulative);
            sim.schedule_in(at, move |w: &mut World, s| w.on_deliver(p, idx, s));
        }
        self.maybe_finish_catchup(p, sim);
        Ok(height)
    }

    /// Join the chain-less peer `p`, recording the catch-up under `mode`:
    /// a full replay reopens its (empty) directory now; a snapshot join
    /// ships the live peer with the greatest applied height's snapshot
    /// (lowest index breaks ties) and reopens over it once it arrives.
    fn join(&mut self, p: usize, mode: BootstrapMode, sim: &mut Sim) {
        let mut catchup = self.catchup(mode, sim);
        if mode == BootstrapMode::FullReplay {
            self.peers[p].catchup = Some(catchup);
            if let Err(e) = self.reopen(p, None, sim) {
                self.fail(e);
            }
            return;
        }
        let donor = (0..self.peers.len())
            .filter(|&d| d != p)
            .filter_map(|d| Some((d, self.peers[d].chain.as_ref()?)))
            .max_by_key(|&(d, _)| (self.peers[d].next_apply, usize::MAX - d));
        let Some((_, donor)) = donor else {
            return self.fail(ClusterError::NoDonor);
        };
        let snapshot = donor.export_snapshot();
        catchup.bytes = snapshot.size_bytes() as u64;
        let delay = self.transfer_delay(self.peers[p].region, catchup.bytes);
        let peer = &mut self.peers[p];
        peer.catchup = Some(catchup);
        peer.join_gen += 1;
        let join_gen = peer.join_gen;
        sim.schedule_in(delay, move |w: &mut World, s| {
            // A crash since the join cancelled it.
            if w.peers[p].join_gen != join_gen {
                return;
            }
            if let Err(e) = w.reopen(p, Some(&snapshot), s) {
                w.fail(e);
            }
        });
    }

    /// Set peer `p`'s damaged directory aside as `peer<p>.corrupt-<n>`
    /// (the first free `n`) and rebuild the peer by a snapshot join.
    fn heal(&mut self, p: usize, sim: &mut Sim) {
        let dir = &self.peers[p].dir;
        let mut n = 0;
        while dir.with_extension(format!("corrupt-{n}")).exists() {
            n += 1;
        }
        match std::fs::rename(dir, dir.with_extension(format!("corrupt-{n}"))) {
            Ok(()) => self.join(p, BootstrapMode::Snapshot, sim),
            Err(e) => self.fail(FabricError::Io(format!("set {dir:?} aside: {e}"))),
        }
    }

    // ---- submissions -------------------------------------------------

    fn on_submit(
        &mut self,
        chaincode: String,
        function: String,
        args: Vec<Vec<u8>>,
        tag: Option<u64>,
        ctx_override: Option<TraceContext>,
        sim: &mut Sim,
    ) {
        self.pending_actions -= 1;
        // The trace context is derived unconditionally — wire bytes of
        // every batch are identical with telemetry attached or not. A
        // caller-supplied context (a 2PC leg riding its transfer's trace)
        // replaces the minted root but not the sequence increment, so the
        // ids of later submissions don't depend on who supplied contexts.
        let minted = TraceContext::root(self.cfg.seed, self.submit_seq);
        let ctx = ctx_override.unwrap_or(minted);
        self.submit_seq += 1;
        let now_us = sim.now().as_micros();
        let record = TxRecord {
            ctx,
            submitted_us: now_us,
            requeues: 0,
            tag,
        };
        if self.endorse(&chaincode, &function, args, record) {
            if let Some(m) = &self.metrics {
                m.telemetry.tracer().record_linked(
                    "submit",
                    now_us,
                    now_us,
                    m.gateway_proc,
                    "submit",
                    ctx.span_id(stage::SUBMIT),
                    ctx,
                );
                m.trace_submit_spans.inc();
            }
        }
    }

    /// The one endorse step under a submission and a re-endorsement:
    /// invoke on the ordering-side chain, which queues the transaction
    /// for the next cut, and file `record` under the new tx id. A rejected
    /// proposal counts as a submit error and reports `EndorseFailed`
    /// under the record's tag. Returns whether the proposal was endorsed.
    fn endorse(
        &mut self,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        record: TxRecord,
    ) -> bool {
        let result = self.endorser.invoke(
            &self.client,
            chaincode,
            function,
            args,
            &mut self.submit_rng,
        );
        match result {
            Ok(r) => {
                self.txs.insert(r.tx_id, record);
                true
            }
            Err(e) => {
                self.submit_errors += 1;
                if let Some(tag) = record.tag {
                    self.outcomes
                        .push((tag, InvokeOutcome::EndorseFailed(e.to_string())));
                }
                false
            }
        }
    }

    /// The ordering service's block cutter: cut the pending queue through
    /// [`reorder::cut`], re-endorse what it pulled, batch what it kept
    /// and propose the batch to the believed leader. Re-arms itself every
    /// `block_interval`.
    ///
    /// The cut happens once, before replication, so every replica applies
    /// the identical batch: ordering decisions made here survive leader
    /// failover by construction.
    fn on_cut(&mut self, sim: &mut Sim) {
        sim.schedule_in(self.cfg.block_interval, |w: &mut World, s| w.on_cut(s));
        if self.endorser.pending_count() == 0 {
            return;
        }
        let now_us = sim.now().as_micros();
        let cut = reorder::cut(&mut self.endorser, &self.cfg.reorder);
        self.reorder_pairs += cut.stats.reordered_pairs;
        self.reorder_cycles += cut.stats.cycles_broken;
        let (aborts, deferrals) = (cut.early_aborted.len() as u64, cut.deferred.len() as u64);
        self.reorder_early_aborts += aborts;
        self.reorder_deferrals += deferrals;
        if let Some(m) = &self.metrics {
            m.reorder_early_aborts.add(aborts);
            m.reorder_deferrals.add(deferrals);
        }
        let pulled = cut.early_aborted.into_iter().map(|(tx, _stale_key)| tx);
        for tx in pulled.chain(cut.deferred) {
            self.reinvoke(tx, now_us);
        }
        if cut.kept.is_empty() {
            // Every pending transaction was doomed and pulled for
            // re-endorsement; nothing to replicate this interval.
            return;
        }
        // Close out each kept transaction's queue stage and build the
        // wire contexts: downstream spans parent under the queue span.
        let traces: Vec<TraceContext> = cut
            .kept
            .iter()
            .map(|tx| {
                let (ctx, submitted_us) = self
                    .txs
                    .get(&tx.tx_id)
                    .map_or((TraceContext::root(self.cfg.seed, u64::MAX), now_us), |r| {
                        (r.ctx, r.submitted_us)
                    });
                let queue_span = ctx.span_id(stage::QUEUE);
                if let Some(m) = &self.metrics {
                    m.telemetry.tracer().record_linked(
                        "order.queue",
                        submitted_us,
                        now_us,
                        m.orderer_proc(self.believed_leader),
                        "cutter",
                        queue_span,
                        ctx.with_parent(ctx.span_id(stage::SUBMIT)),
                    );
                    m.trace_queue_spans.inc();
                }
                ctx.with_parent(queue_span)
            })
            .collect();
        let batch = OrderedBatch {
            batch_id: self.next_batch_id,
            timestamp_us: now_us,
            transactions: cut.kept,
            traces,
        };
        self.next_batch_id += 1;
        let batch_id = batch.batch_id;
        let encoded = batch.encode();
        self.inflight.insert(batch_id, encoded);
        if let Some(m) = &self.metrics {
            m.batches.inc();
        }
        self.route(batch_id, 1, sim);
        sim.schedule_in(RESUBMIT_TIMEOUT, move |w: &mut World, s| {
            w.on_resubmit_check(batch_id, s);
        });
    }

    /// Re-endorse a transaction the cut pulled: a fresh proposal (new tx
    /// id, current read versions) joins the pending queue for the next
    /// batch. Its record moves to the new id, so the trace and the tag
    /// carry over — re-endorsement is a hop within one journey, and the
    /// outcome reports under the original tag.
    fn reinvoke(&mut self, tx: Transaction, now_us: u64) {
        // Every pending transaction has a record (`endorse` files one);
        // the fallback only keeps a missing one from being dropped.
        let mut record = self.txs.remove(&tx.tx_id).unwrap_or(TxRecord {
            ctx: TraceContext::root(self.cfg.seed, u64::MAX),
            submitted_us: now_us,
            requeues: 0,
            tag: None,
        });
        record.requeues += 1;
        let (ctx, requeues) = (record.ctx, record.requeues);
        if self.endorse(&tx.chaincode, &tx.function, tx.args, record) {
            if let Some(m) = &self.metrics {
                m.telemetry.tracer().record_linked(
                    "order.requeue",
                    now_us,
                    now_us,
                    m.orderer_proc(self.believed_leader),
                    "cutter",
                    ctx.span_id(stage::REQUEUE_BASE + requeues),
                    ctx.with_parent(ctx.span_id(stage::SUBMIT)),
                );
                m.trace_requeues.inc();
            }
        }
    }

    /// Route a batch proposal toward the believed leader; attempt is the
    /// 1-based try count within this routing round.
    fn route(&mut self, batch_id: u64, attempt: u32, sim: &mut Sim) {
        if !self.inflight.contains_key(&batch_id) {
            return; // Committed while we were backing off.
        }
        if attempt > ROUTING.max_attempts {
            // Routing round exhausted — every orderer unreachable or
            // rejecting (e.g. mid-partition, mid-election). The batch
            // stays inflight: the resubmit watchdog opens a fresh routing
            // round after `RESUBMIT_TIMEOUT`, so an endorsed transaction
            // is never silently dropped ("acceptance is a promise") —
            // it outwaits the fault instead.
            self.failed_batches += 1;
            return;
        }
        let target = self.believed_leader;
        let delay = self.orderer_latency_to(ORDERER_REGION);
        sim.schedule_in(delay, move |w: &mut World, s| {
            w.on_proposal_arrive(batch_id, target, attempt, s);
        });
    }

    fn on_proposal_arrive(&mut self, batch_id: u64, target: NodeId, attempt: u32, sim: &mut Sim) {
        let Some(encoded) = self.inflight.get(&batch_id) else {
            return;
        };
        if self.orderers[target].alive {
            match self.orderers[target]
                .node
                .propose(encoded.clone(), sim.now())
            {
                Ok((_, outs)) => {
                    self.after_raft_activity(target, outs, sim);
                    return;
                }
                Err(_not_leader) => {}
            }
        }
        // NotLeader (or dead orderer): rotate the hint and re-route after
        // the deterministic leader-routing backoff.
        self.notleader_retries += 1;
        if let Some(m) = &self.metrics {
            m.notleader_retries.inc();
        }
        if self.believed_leader == target {
            self.believed_leader = (target + 1) % self.orderers.len();
        }
        let backoff = ROUTING.backoff_us(attempt, self.cfg.seed, batch_id);
        sim.schedule_in(SimTime::from_micros(backoff), move |w: &mut World, s| {
            w.route(batch_id, attempt + 1, s);
        });
    }

    /// Watchdog: a batch proposed to a leader that died (or was
    /// partitioned) before replicating is re-proposed; the batch id
    /// deduplicates any double commit.
    fn on_resubmit_check(&mut self, batch_id: u64, sim: &mut Sim) {
        if !self.inflight.contains_key(&batch_id) {
            return;
        }
        self.resubmits += 1;
        if let Some(m) = &self.metrics {
            m.resubmits.inc();
        }
        self.route(batch_id, 1, sim);
        sim.schedule_in(RESUBMIT_TIMEOUT, move |w: &mut World, s| {
            w.on_resubmit_check(batch_id, s);
        });
    }

    // ---- faults ------------------------------------------------------

    fn on_fault(&mut self, fault: Fault, sim: &mut Sim) {
        self.pending_actions -= 1;
        match fault {
            Fault::CrashPeer(p) => {
                let peer = &mut self.peers[p];
                peer.chain = None; // Drop closes the storage directory.
                peer.ready.clear();
                peer.catchup = None;
                peer.join_gen += 1;
            }
            Fault::RestartPeer(p) if self.peers[p].chain.is_none() => {
                match self.reopen(p, None, sim) {
                    // A restart behind the tip records its replay.
                    Ok(recovered) if recovered < self.canonical().height() => {
                        self.peers[p].catchup = Some(self.catchup(BootstrapMode::FullReplay, sim));
                    }
                    Ok(_) => {}
                    Err(ClusterError::Fabric(FabricError::Storage(_))) => self.heal(p, sim),
                    Err(e) => self.fail(e),
                }
            }
            Fault::RestartPeer(_) => {}
            Fault::KillOrderer(o) => {
                self.orderers[o].alive = false;
                self.orderers[o].tick_gen += 1;
                self.orderers[o].was_leader = false;
            }
            Fault::Partition(isolated) => {
                for g in self.partition_group.iter_mut() {
                    *g = 0;
                }
                for o in isolated {
                    if o < self.partition_group.len() {
                        self.partition_group[o] = 1;
                    }
                }
            }
            Fault::Heal => {
                for g in self.partition_group.iter_mut() {
                    *g = 0;
                }
                self.slow.clear();
            }
            Fault::SlowLink { from, to, factor } => {
                self.slow.insert((from, to), factor.max(1));
            }
        }
    }

    /// Bootstrap a freshly joined peer (slot `p`, already allocated).
    fn on_bootstrap(&mut self, p: usize, mode: BootstrapMode, sim: &mut Sim) {
        self.pending_actions -= 1;
        self.join(p, mode, sim);
    }

    // ---- convergence -------------------------------------------------

    fn converged(&self) -> bool {
        self.pending_actions == 0
            && self.inflight.is_empty()
            && self.endorser.pending_count() == 0
            && self.peers.iter().all(|p| match &p.chain {
                Some(_) => p.catchup.is_none() && p.next_apply == self.canonical().height(),
                // A chain-less peer still blocks convergence while a
                // shipped snapshot is in flight toward it.
                None => p.catchup.is_none(),
            })
    }

    fn report(&self) -> ClusterReport {
        ClusterReport {
            blocks: self.canonical().height(),
            txs: self.canonical().total_tx_count(),
            canonical_roots: self
                .canonical()
                .iter()
                .map(|b| b.header.state_root)
                .collect(),
            batch_history: self.blocks.iter().map(|b| b.batch_id).collect(),
            peer_heights: self
                .peers
                .iter()
                .map(|p| p.chain.as_ref().map(|c| c.height()))
                .collect(),
            peer_roots: self
                .peers
                .iter()
                .map(|p| p.chain.as_ref().map(|c| c.state_root()))
                .collect(),
            divergences: self.divergences.clone(),
            election_violations: self.election_violations.clone(),
            elections: self.elections,
            notleader_retries: self.notleader_retries,
            resubmits: self.resubmits,
            dup_batches: self.dup_batches,
            failed_batches: self.failed_batches,
            submit_errors: self.submit_errors,
            reorder_early_aborts: self.reorder_early_aborts,
            reorder_deferrals: self.reorder_deferrals,
            reorder_pairs: self.reorder_pairs,
            reorder_cycles: self.reorder_cycles,
            catchups: self.catchups.clone(),
        }
    }
}

/// The replication cluster simulation: build from a [`ClusterConfig`],
/// schedule load and faults at virtual times, run, and inspect the
/// report. See the crate docs for the architecture.
pub struct ClusterSim {
    sim: Sim,
    world: World,
}

impl ClusterSim {
    /// Build the cluster: N Raft orderers, M durable peers (each under
    /// `<storage_root>/peer<i>`), and the ordering-side endorsing chain.
    pub fn new(config: ClusterConfig) -> Result<ClusterSim, ClusterError> {
        std::fs::create_dir_all(&config.storage_root)
            .map_err(|e| FabricError::Io(format!("create {:?}: {e}", config.storage_root)))?;
        let names: Vec<&str> = config.org_names.iter().map(|s| s.as_str()).collect();
        let mut id_rng = seeded(config.identity_seed);
        let mut endorser = FabricChain::new(&names, &mut id_rng);
        endorser.set_check_signatures(config.check_signatures);
        World::deploy_workload(&config, &mut endorser);
        let client_org = endorser.org_ids()[0].clone();
        let client = endorser.enroll(&client_org, "cluster-client", &mut id_rng)?;

        let orderers = (0..config.orderers.max(1))
            .map(|id| {
                let peers: Vec<NodeId> = (0..config.orderers.max(1)).filter(|&p| p != id).collect();
                Orderer {
                    node: RaftNode::new(id, peers, config.raft.clone(), config.seed, SimTime::ZERO),
                    alive: true,
                    tick_gen: 0,
                    was_leader: false,
                }
            })
            .collect();

        let peers = (0..config.peers).map(|p| Peer::new(&config, p)).collect();
        let submit_rng = StdRng::seed_from_u64(config.seed ^ 0x5EED_C1AE_57E2_0001);
        let partition_group = vec![0u8; config.orderers.max(1)];
        let mut world = World {
            cfg: config,
            latency: LatencyMatrix::gcp_three_regions(),
            orderers,
            peers,
            endorser,
            client,
            submit_rng,
            raft_applied: 0,
            seen_batches: BTreeSet::new(),
            blocks: Vec::new(),
            next_batch_id: 0,
            inflight: BTreeMap::new(),
            believed_leader: 0,
            submit_seq: 0,
            txs: BTreeMap::new(),
            outcomes: Vec::new(),
            partition_group,
            slow: BTreeMap::new(),
            divergences: Vec::new(),
            leaders_by_term: BTreeMap::new(),
            election_violations: Vec::new(),
            elections: 0,
            notleader_retries: 0,
            resubmits: 0,
            dup_batches: 0,
            failed_batches: 0,
            submit_errors: 0,
            reorder_early_aborts: 0,
            reorder_deferrals: 0,
            reorder_pairs: 0,
            reorder_cycles: 0,
            catchups: Vec::new(),
            failed: None,
            pending_actions: 0,
            metrics: None,
        };

        let mut sim = Sim::new();
        for p in 0..world.peers.len() {
            world.reopen(p, None, &mut sim)?;
        }
        for o in 0..world.orderers.len() {
            world.reschedule_tick(o, &mut sim);
        }
        let interval = world.cfg.block_interval;
        sim.schedule_at(interval, |w: &mut World, s| w.on_cut(s));
        Ok(ClusterSim { sim, world })
    }

    /// Attach telemetry: `lv_cluster_*`/`lv_trace_*` counters, per-peer
    /// lag gauges, catch-up histograms, and causal span recording on one
    /// Perfetto process lane per node (`gateway`, `orderer-<k>`,
    /// `peer-<p>`). Observational only: span ids and trace contexts are
    /// derived from the config seed whether or not this is ever called,
    /// so attaching telemetry cannot perturb the committed history.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.world.metrics = Some(ClusterMetrics::new(
            telemetry,
            self.world.orderers.len(),
            self.world.peers.len(),
            &self.world.cfg.lane_prefix,
        ));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Globally committed block count.
    pub fn blocks(&self) -> u64 {
        self.world.canonical().height()
    }

    /// The live orderer currently believed leader by Raft itself: the
    /// highest-term live leader (ties to the lowest id). `None` during
    /// elections.
    pub fn current_leader(&self) -> Option<NodeId> {
        self.world
            .orderers
            .iter()
            .enumerate()
            .filter(|(_, o)| o.alive && o.node.is_leader())
            .max_by_key(|(id, o)| (o.node.current_term(), usize::MAX - id))
            .map(|(id, _)| id)
    }

    /// Schedule a chaincode invocation (endorsed at `at`, committed by a
    /// later batch) against the cluster's counter workload.
    pub fn schedule_invoke(&mut self, at: SimTime, function: &str, args: Vec<Vec<u8>>) {
        self.world.pending_actions += 1;
        let function = function.to_string();
        self.sim.schedule_at(at, move |w: &mut World, s| {
            w.on_submit(CHAINCODE.to_string(), function, args, None, None, s)
        });
    }

    /// Schedule a tagged invocation of any deployed chaincode. The fate
    /// of the transaction — endorse-rejected, or committed with its
    /// validation result — is reported under `tag` via
    /// [`ClusterSim::take_outcomes`] (tags survive re-endorsement hops
    /// exactly like trace contexts). A caller-supplied [`TraceContext`]
    /// replaces the minted per-submission root so externally coordinated
    /// protocols (cross-shard 2PC) can parent every leg under one trace.
    pub fn schedule_call(
        &mut self,
        at: SimTime,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        tag: u64,
        ctx: Option<TraceContext>,
    ) {
        self.world.pending_actions += 1;
        let chaincode = chaincode.to_string();
        let function = function.to_string();
        self.sim.schedule_at(at, move |w: &mut World, s| {
            w.on_submit(chaincode, function, args, Some(tag), ctx, s)
        });
    }

    /// Drain the outcomes of tagged invocations resolved since the last
    /// call, in resolution order.
    pub fn take_outcomes(&mut self) -> Vec<(u64, InvokeOutcome)> {
        std::mem::take(&mut self.world.outcomes)
    }

    /// Whether every scheduled action has fired, no batch is in flight,
    /// and every live peer has applied the full committed log (the
    /// predicate [`ClusterSim::run_until_converged`] polls).
    pub fn is_converged(&self) -> bool {
        self.world.converged()
    }

    /// Endorsed-but-not-yet-cut transactions in the ordering queue.
    pub fn pending_txs(&self) -> usize {
        self.world.endorser.pending_count()
    }

    /// The canonical (ordering-side) chain state — what 2PC coordinators
    /// read to recover replicated decision records after a failover.
    pub fn canonical_state(&self) -> &dyn VersionedState {
        self.world.endorser.state()
    }

    /// The canonical rolling state root at the committed tip.
    pub fn canonical_root(&self) -> Digest {
        self.world.endorser.state_root()
    }

    /// Convenience load: `count` counter increments starting at `start`,
    /// one every `every`, rotating over `keys` distinct keys.
    pub fn schedule_counter_load(&mut self, start: SimTime, every: SimTime, count: u64, keys: u64) {
        for i in 0..count {
            let at = start + every.scaled(i);
            let key = format!("k{}", i % keys.max(1));
            self.schedule_invoke(at, "incr", vec![key.into_bytes(), b"1".to_vec()]);
        }
    }

    /// Schedule a [`Fault`] at a virtual time.
    pub fn schedule_fault(&mut self, at: SimTime, fault: Fault) {
        self.world.pending_actions += 1;
        self.sim
            .schedule_at(at, move |w: &mut World, s| w.on_fault(fault, s));
    }

    /// Schedule a fresh peer to join at `at` via snapshot shipping or
    /// full replay; returns the new peer's index.
    pub fn schedule_bootstrap_peer(&mut self, at: SimTime, mode: BootstrapMode) -> usize {
        let p = self.world.peers.len();
        self.world.peers.push(Peer::new(&self.world.cfg, p));
        if let Some(m) = &mut self.world.metrics {
            m.ensure_peers(p + 1);
        }
        self.world.pending_actions += 1;
        self.sim
            .schedule_at(at, move |w: &mut World, s| w.on_bootstrap(p, mode, s));
        p
    }

    /// Run events up to (and including) virtual time `end`.
    pub fn run_until(&mut self, end: SimTime) {
        self.sim.run_until(&mut self.world, end);
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&mut self, d: SimTime) {
        let end = self.sim.now() + d;
        self.run_until(end);
    }

    /// Run until every scheduled action has fired, no batch is in flight,
    /// and every live peer has applied the full committed log — or until
    /// `deadline`. Returns the convergence time, or the first error an
    /// event handler recorded (undecodable Raft entry, a peer directory
    /// the OS refuses, failed snapshot install, no donor to join or heal
    /// from).
    pub fn run_until_converged(&mut self, deadline: SimTime) -> Result<SimTime, ClusterError> {
        let step = SimTime::from_millis(100);
        loop {
            if let Some(e) = &self.world.failed {
                return Err(e.clone());
            }
            if self.world.converged() {
                return Ok(self.sim.now());
            }
            if self.sim.now() >= deadline {
                return Err(ClusterError::NotConverged {
                    deadline,
                    blocks: self.blocks(),
                    peer_heights: self.report().peer_heights,
                });
            }
            let next = (self.sim.now() + step).min(deadline);
            self.sim.run_until(&mut self.world, next);
        }
    }

    /// The end-of-run summary.
    pub fn report(&self) -> ClusterReport {
        self.world.report()
    }

    /// Typed-fault check: every live peer must be at the committed tip
    /// with the canonical rolling state root, and neither a divergence nor
    /// an event-handler error may have been recorded mid-run.
    pub fn verify_convergence(&self) -> Result<(), ClusterError> {
        if let Some(e) = &self.world.failed {
            return Err(e.clone());
        }
        if !self.world.divergences.is_empty() {
            return Err(ClusterError::Diverged(self.world.divergences.clone()));
        }
        let tip = self.world.canonical().height();
        let canonical = self.world.canonical().tip().map(|b| b.header.state_root);
        let mut diverged = Vec::new();
        for (p, peer) in self.world.peers.iter().enumerate() {
            let Some(chain) = &peer.chain else { continue };
            if chain.height() != tip {
                return Err(ClusterError::NotConverged {
                    deadline: self.sim.now(),
                    blocks: tip,
                    peer_heights: self.report().peer_heights,
                });
            }
            if let Some(expected) = canonical {
                let actual = chain.state_root();
                if actual != expected {
                    diverged.push(Divergence {
                        peer: p,
                        block: tip.saturating_sub(1),
                        expected,
                        actual,
                    });
                }
            }
        }
        if diverged.is_empty() {
            Ok(())
        } else {
            Err(ClusterError::Diverged(diverged))
        }
    }

    /// Raft's Log Matching safety property across the whole ordering
    /// service (killed orderers included — their frozen logs are still
    /// bound by it): every pair of nodes must agree on the common prefix
    /// of their committed entries.
    pub fn check_raft_log_matching(&self) -> Result<(), String> {
        let logs: Vec<&[fabric_sim::raft::LogEntry]> = self
            .world
            .orderers
            .iter()
            .map(|o| o.node.committed_entries())
            .collect();
        for a in 0..logs.len() {
            for b in (a + 1)..logs.len() {
                let common = logs[a].len().min(logs[b].len());
                if logs[a][..common] != logs[b][..common] {
                    return Err(format!(
                        "orderers {a} and {b} disagree within their committed prefixes \
                         (lengths {} and {})",
                        logs[a].len(),
                        logs[b].len()
                    ));
                }
            }
        }
        Ok(())
    }
}
