//! The sharded deployment: S replication clusters in lock-step on one
//! virtual clock, a key-shard map in front, and one 2PC coordinator per
//! cross-shard operation, stepped over the live replicated channels.
//!
//! # One shared virtual clock
//!
//! Each shard is a full [`ClusterSim`] (its own Raft orderer group, its
//! own peer set, its own event queue). The deployment advances every
//! cluster to the same virtual-time boundary in fixed shard order, one
//! *slice* at a time; cross-shard coordination happens only at slice
//! boundaries, from committed state. Because each cluster is internally
//! deterministic and the inter-cluster schedule is a pure function of the
//! boundary sequence, the whole deployment is deterministic: same config
//! and seed ⇒ bit-identical per-shard histories and state roots.
//!
//! # 2PC over Raft
//!
//! What the deployment runs is an *operation* ([`OpSpec`]): a request
//! id, participant legs (routing key, chaincode, prepare function and
//! arguments), and one `direct` transaction, which runs alone, atomically
//! and at no 2PC cost, when every leg routes to one shard. Otherwise the
//! operation's `ledgerview_crosschain::coordinator::Coordinator` — the
//! one the cross-chain baseline also steps, which holds every protocol
//! rule — runs two-phase commit from the first leg's shard. The
//! deployment only routes its calls to shards, tags and traces them, and
//! reads the decision record back for it off the coordinating shard's
//! committed state. That record is replicated through Raft before any
//! finalize goes out: a decision only in memory could be lost with a
//! crashed leader, and a finalize re-driven after failover finds it.
//!
//! A transfer is the deployment's first client, not a second protocol:
//! [`ShardedDeployment::schedule_transfer`] builds the `OpSpec` a caller
//! could have written by hand — `prepare_debit` on the source account's
//! shard, `prepare_credit` on the destination's, `transfer` as the direct
//! transaction — and keeps only the fields [`TransferRecord`] reports.
//! Scenario crates (the TPC-C workload) hand their own specs to
//! [`ShardedDeployment::schedule_op`] and ride the same coordinator.
//!
//! Participant terminal states are idempotent (every participant
//! stages through `ledgerview_crosschain::participant::Fenced`), so
//! crash-replayed decisions and duplicate finalize legs are absorbed as
//! no-ops.
//!
//! Every scheduled operation is admitted: none is refused at the door,
//! and every leg is eventually ordered and committed by the per-shard
//! cluster's watchdog/rerouting machinery — under leader kills, peer
//! crashes, and partitions from the [`Fault`] schedule.

use std::path::PathBuf;
use std::sync::Arc;

use fabric_sim::chaincode::Chaincode;
use fabric_sim::validation::TxValidation;
use ledgerview_cluster::{
    ClusterConfig, ClusterError, ClusterReport, ClusterSim, Fault, InvokeOutcome,
};
use ledgerview_crosschain::contracts::{
    locked_total, read_coord_state, total_balances, CoordinatorContract, TransferContract,
    COORDINATOR_CC, TRANSFER_CC,
};
use ledgerview_crosschain::coordinator::{Call, Coordinator, Submit};
use ledgerview_crosschain::participant::{staged, Fenced, Staging};
use ledgerview_crypto::sha256::Digest;
use ledgerview_gateway::{Route, ShardMap};
use ledgerview_simnet::SimTime;
use ledgerview_telemetry::{Telemetry, TraceContext};

use crate::metrics::ShardMetrics;

/// Span stages for the 2PC phases, disjoint from the cluster pipeline's
/// (`ledgerview_cluster::cluster::stage`). Every per-shard leg submits
/// with a context parented under its phase span, so one cross-shard
/// operation renders as a single Perfetto trace spanning all shard lanes.
pub mod stage {
    /// Coordinator `begin` on the coordinating shard.
    pub const BEGIN: u64 = 0x2000;
    /// The prepare fan-out (every participant shard).
    pub const PREPARE: u64 = 0x2001;
    /// The replicated decision write.
    pub const DECIDE: u64 = 0x2002;
    /// The commit/abort fan-out.
    pub const FINALIZE: u64 = 0x2003;
    /// A single-shard operation's direct (non-2PC) transaction.
    pub const LOCAL: u64 = 0x2004;
}

/// Committing peers per shard channel. Orderers (3) and the block-cutter
/// period (250 ms) are [`ClusterConfig::new`]'s.
const PEERS_PER_SHARD: usize = 2;

/// Lock-step slice: how far each cluster advances before the orchestrator
/// looks at outcomes again. Smaller slices mean lower 2PC latency and more
/// orchestrator activity; determinism is unaffected.
const SLICE: SimTime = SimTime::from_millis(50);

/// Shape of a sharded deployment.
#[derive(Clone)]
pub struct ShardConfig {
    /// Number of shard channels.
    pub shards: usize,
    /// Master seed; each shard's cluster derives its own sub-seed.
    pub seed: u64,
    /// Root directory; shard `i` persists under `<root>/shard<i>`.
    pub storage_root: PathBuf,
    /// Explicit shard-map pins for composite namespaces, `(prefix,
    /// shard)`.
    pub pins: Vec<(String, usize)>,
    /// Extra chaincodes deployed on every replica of every shard (on top
    /// of the transfer and coordinator contracts), `(name, factory)`.
    /// Scenario crates use this to install their own participants — e.g.
    /// the TPC-C contract — without forking the deployment.
    pub workloads: Vec<(String, ledgerview_cluster::WorkloadFactory)>,
}

impl ShardConfig {
    /// A deployment of `shards` channels (3 orderers + 2 peers each)
    /// persisting under `storage_root`.
    pub fn new(storage_root: impl Into<PathBuf>, shards: usize, seed: u64) -> ShardConfig {
        ShardConfig {
            shards: shards.max(1),
            seed,
            storage_root: storage_root.into(),
            pins: Vec::new(),
            workloads: Vec::new(),
        }
    }

    /// The derived [`ClusterConfig`] for shard `i`.
    pub fn cluster_config(&self, shard: usize) -> ClusterConfig {
        let sub_seed = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1));
        let mut cfg = ClusterConfig::new(self.storage_root.join(format!("shard{shard}")), sub_seed);
        cfg.peers = PEERS_PER_SHARD;
        // Endorsers sign either way; the deployment measures pipeline
        // structure, not signature checks.
        cfg.check_signatures = false;
        cfg.lane_prefix = format!("shard{shard}/");
        let transfer: ledgerview_cluster::WorkloadFactory =
            Arc::new(|| Box::new(Fenced(TransferContract)) as Box<dyn Chaincode>);
        let coordinator: ledgerview_cluster::WorkloadFactory =
            Arc::new(|| Box::new(CoordinatorContract) as Box<dyn Chaincode>);
        cfg.workloads = vec![
            (TRANSFER_CC.to_string(), transfer),
            (COORDINATOR_CC.to_string(), coordinator),
        ];
        cfg.workloads.extend(self.workloads.iter().cloned());
        cfg
    }
}

/// Errors surfaced by a sharded deployment.
#[derive(Debug)]
pub enum ShardError {
    /// A shard's cluster failed (divergence, non-convergence, …).
    Cluster {
        /// The failing shard.
        shard: usize,
        /// The underlying cluster error.
        source: ClusterError,
    },
    /// The deployment did not reach quiescence by the deadline.
    NotConverged {
        /// The deadline that expired.
        deadline: SimTime,
        /// Operations (transfers included) still in flight.
        inflight: usize,
    },
    /// Global conservation was violated: Σ balances + Σ locks ≠ Σ opened.
    Conservation {
        /// What the opened accounts sum to.
        expected: u64,
        /// What the shards actually hold.
        actual: u64,
    },
    /// 2PC requests left permanently prepared locks after quiescence.
    LockedRequests(Vec<String>),
    /// Unexpected protocol outcomes (e.g. a begin that failed).
    Protocol(Vec<String>),
    /// A [`ShardConfig::pins`] entry names a shard the deployment lacks.
    PinOutOfRange {
        /// The pinned prefix.
        prefix: String,
        /// The shard it names.
        shard: usize,
        /// Shards in the deployment.
        shards: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Cluster { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            ShardError::NotConverged { deadline, inflight } => write!(
                f,
                "not converged by {deadline:?}: {inflight} operations in flight"
            ),
            ShardError::Conservation { expected, actual } => write!(
                f,
                "conservation violated: opened {expected}, shards hold {actual}"
            ),
            ShardError::LockedRequests(reqs) => {
                write!(f, "permanently locked requests: {reqs:?}")
            }
            ShardError::Protocol(errors) => write!(f, "protocol errors: {errors:?}"),
            ShardError::PinOutOfRange {
                prefix,
                shard,
                shards,
            } => write!(
                f,
                "pin {prefix:?} names shard {shard} of a {shards}-shard deployment"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Status of a scheduled transfer or operation: the coordinator's.
pub use ledgerview_crosschain::coordinator::Status as TransferStatus;

/// One scheduled transfer and its fate.
#[derive(Clone, Debug)]
pub struct TransferRecord {
    /// Request id (`t<ordinal>`), also the 2PC request key.
    pub id: String,
    /// Source account.
    pub src: String,
    /// Destination account.
    pub dst: String,
    /// Amount.
    pub amount: u64,
    /// Shard owning the source account.
    pub src_shard: usize,
    /// Shard owning the destination account.
    pub dst_shard: usize,
    /// Current status.
    pub status: TransferStatus,
    /// Times any leg of this transfer was re-driven.
    pub redrives: u64,
}

/// End-of-run summary of a sharded deployment.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Per-shard cluster reports, in shard order.
    pub shards: Vec<ClusterReport>,
    /// Every scheduled transfer with its outcome.
    pub transfers: Vec<TransferRecord>,
    /// Per-shard canonical state roots at the committed tip.
    pub state_roots: Vec<Digest>,
    /// Sum of all committed `open` amounts.
    pub opened_total: u64,
    /// Committed transfers.
    pub committed: u64,
    /// Aborted transfers.
    pub aborted: u64,
    /// Total leg re-drives across all operations, transfers included.
    pub redrives: u64,
    /// Transactions committed on every shard combined (all workloads).
    pub total_txs: u64,
}

/// One participant leg of a generic cross-shard operation: `key` routes
/// it to its shard, and [`ShardConfig::workloads`] deploys its chaincode.
pub use ledgerview_crosschain::coordinator::Leg as OpLeg;

/// An operation scheduled through the deployment's shard map and — when
/// its legs land on different shards — its 2PC coordinator. This is the
/// one thing the deployment runs: a transfer is an `OpSpec` built by
/// [`ShardedDeployment::schedule_transfer`], and scenario crates (e.g.
/// the TPC-C workload) describe their multi-shard transactions as an
/// `OpSpec` instead of forking the deployment.
#[derive(Clone, Debug)]
pub struct OpSpec {
    /// Unique request id; shares the coordinator namespace with transfers
    /// (`t<ordinal>`), so pick a disjoint scheme (e.g. `op<ordinal>`).
    pub id: String,
    /// `(chaincode, function, args)` submitted as one atomic transaction
    /// when every leg routes to the same shard.
    pub direct: (String, String, Vec<Vec<u8>>),
    /// Participant legs; the first leg's shard hosts the coordinator
    /// record.
    pub legs: Vec<OpLeg>,
}

/// One scheduled generic operation and its fate.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The spec's request id.
    pub id: String,
    /// Terminal status (shares [`TransferStatus`] semantics).
    pub status: TransferStatus,
    /// Whether the op ran the cross-shard protocol (vs one direct tx).
    pub cross: bool,
    /// Times any leg was re-driven after MVCC invalidation.
    pub redrives: u64,
    /// Virtual time the op was scheduled, microseconds.
    pub submitted_us: u64,
    /// Virtual time the op reached a terminal state (0 while in flight).
    pub completed_us: u64,
}

/// One operation: its record, its coordinator, and where its calls go.
struct Op {
    rec: OpRecord,
    ctx: TraceContext,
    coordinator: Coordinator,
    /// Shard of the direct transaction, or of the begin/decide record.
    home: usize,
    /// Shard of each leg.
    leg_shards: Vec<usize>,
    /// Span stage of the latest submission's phase, and when that phase's
    /// first call went out: its span and latency run from there to the
    /// outcome that completes it.
    stage: u64,
    stage_started_us: u64,
}

impl Op {
    fn shard(&self, call: Call) -> usize {
        match call {
            Call::Prepare(leg) | Call::Finalize(leg) => self.leg_shards[leg],
            Call::Direct | Call::Begin | Call::Decide => self.home,
        }
    }
}

/// The span of a call's phase: its name, its stage, and its parent's
/// stage (0: the root).
fn span(call: Call) -> (&'static str, u64, u64) {
    match call {
        Call::Direct => ("op.direct", stage::LOCAL, 0),
        Call::Begin => ("2pc.begin", stage::BEGIN, 0),
        Call::Prepare(_) => ("2pc.prepare", stage::PREPARE, stage::BEGIN),
        Call::Decide => ("2pc.decide", stage::DECIDE, stage::PREPARE),
        Call::Finalize(_) => ("2pc.finalize", stage::FINALIZE, stage::DECIDE),
    }
}

/// What is transfer-specific about a transfer: the fields
/// [`TransferRecord`] reports beyond the op's own record. Status and
/// re-drives live on the op it points at, and the two shards are its
/// legs' (source first).
struct TransferMeta {
    /// Index of the transfer's op in `ShardedDeployment::ops`.
    op: usize,
    src: String,
    dst: String,
    amount: u64,
}

#[derive(Clone, Copy, Debug)]
enum TagKind {
    Open { shard: usize, amount: u64 },
    Call { o: usize, call: Call },
}

/// The sharded multi-channel deployment. See the module docs for the
/// clock and protocol architecture.
pub struct ShardedDeployment {
    cfg: ShardConfig,
    clusters: Vec<ClusterSim>,
    map: ShardMap,
    now: SimTime,
    /// Every operation the deployment runs, transfers included.
    ops: Vec<Op>,
    /// One entry per `schedule_transfer` call, in call order.
    transfers: Vec<TransferMeta>,
    /// `ops` index of each `schedule_op` call, in call order.
    scheduled_ops: Vec<usize>,
    tags: std::collections::BTreeMap<u64, TagKind>,
    next_tag: u64,
    opened_total: u64,
    redrives: u64,
    /// Leader kills awaiting a visible leader on their shard.
    pending_kills: Vec<(SimTime, usize)>,
    errors: Vec<String>,
    metrics: Option<ShardMetrics>,
}

impl ShardedDeployment {
    /// Build the deployment: S clusters (each deploying the transfer and
    /// coordinator contracts on every replica) plus the shard map.
    pub fn new(cfg: ShardConfig) -> Result<ShardedDeployment, ShardError> {
        let mut map = ShardMap::new(cfg.shards);
        for (prefix, shard) in &cfg.pins {
            if *shard >= map.shards() {
                return Err(ShardError::PinOutOfRange {
                    prefix: prefix.clone(),
                    shard: *shard,
                    shards: map.shards(),
                });
            }
            map.pin_prefix(prefix, *shard);
        }
        let mut clusters = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let cluster = ClusterSim::new(cfg.cluster_config(s))
                .map_err(|source| ShardError::Cluster { shard: s, source })?;
            clusters.push(cluster);
        }
        Ok(ShardedDeployment {
            cfg,
            clusters,
            map,
            now: SimTime::ZERO,
            ops: Vec::new(),
            transfers: Vec::new(),
            scheduled_ops: Vec::new(),
            tags: std::collections::BTreeMap::new(),
            next_tag: 0,
            opened_total: 0,
            redrives: 0,
            pending_kills: Vec::new(),
            errors: Vec::new(),
            metrics: None,
        })
    }

    /// Attach telemetry: `lv_shard_*` families plus every shard
    /// cluster's `lv_cluster_*`/`lv_trace_*` on prefixed process lanes.
    /// Observational only.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        for cluster in &mut self.clusters {
            cluster.set_telemetry(telemetry);
        }
        self.metrics = Some(ShardMetrics::new(telemetry, self.cfg.shards));
    }

    /// Current virtual time (the last lock-step boundary reached).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shard channels.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Borrow one shard's cluster read-only (e.g. to inspect balances on
    /// its canonical committed state).
    pub fn cluster(&self, shard: usize) -> &ClusterSim {
        &self.clusters[shard]
    }

    /// The shard owning an account.
    pub fn shard_of_account(&self, acct: &str) -> usize {
        self.map.shard_for_key(&format!("acct~{acct}"))
    }

    fn mint_tag(&mut self, kind: TagKind) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.tags.insert(tag, kind);
        tag
    }

    /// Schedule `open(acct, amount)` on the account's owning shard.
    pub fn schedule_open(&mut self, at: SimTime, acct: &str, amount: u64) {
        let shard = self.shard_of_account(acct);
        let tag = self.mint_tag(TagKind::Open { shard, amount });
        let args = vec![acct.as_bytes().to_vec(), amount.to_be_bytes().to_vec()];
        self.clusters[shard].schedule_call(at, TRANSFER_CC, "open", args, tag, None);
    }

    /// Schedule a transfer. Routed by the two account keys: same shard ⇒
    /// a single atomic `transfer` transaction; different shards ⇒ the
    /// full 2PC protocol. Returns the transfer's index into
    /// [`ShardReport::transfers`]. `at` must not be before
    /// [`ShardedDeployment::now`].
    pub fn schedule_transfer(&mut self, at: SimTime, src: &str, dst: &str, amount: u64) -> usize {
        let ordinal = self.transfers.len() as u64;
        let amount_be = amount.to_be_bytes().to_vec();
        let leg = |acct: &str, prepare: &str| OpLeg {
            key: format!("acct~{acct}"),
            chaincode: TRANSFER_CC.to_string(),
            prepare: prepare.to_string(),
            args: vec![acct.as_bytes().to_vec(), amount_be.clone()],
        };
        let spec = OpSpec {
            id: format!("t{ordinal}"),
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
        };
        // Transfers keep their own root salt and ordinal: a transfer's
        // trace ids — which travel in every leg's wire bytes — must not
        // depend on how many `schedule_op` calls are interleaved with it.
        let ctx = TraceContext::root(self.cfg.seed ^ 0x7366_6572_5f32_7063, ordinal);
        let op = self.start_op(at, spec, ctx);
        self.transfers.push(TransferMeta {
            op,
            src: src.to_string(),
            dst: dst.to_string(),
            amount,
        });
        self.transfers.len() - 1
    }

    /// Schedule an operation. Routed by its legs' keys: all on one shard
    /// ⇒ the `direct` transaction runs atomically there; spread across
    /// shards ⇒ the full 2PC protocol over each leg's participant
    /// chaincode, coordinated from the first leg's shard. Returns the op's
    /// index (see [`ShardedDeployment::op`]). `at` must not be before
    /// [`ShardedDeployment::now`]; ops interleave freely with transfers.
    pub fn schedule_op(&mut self, at: SimTime, spec: OpSpec) -> usize {
        let ordinal = self.scheduled_ops.len() as u64;
        // A salt disjoint from the transfers', so op traces never collide
        // with transfer traces under the same seed.
        let ctx = TraceContext::root(self.cfg.seed ^ 0x6F70_5F32_7063_3031, ordinal);
        let op = self.start_op(at, spec, ctx);
        self.scheduled_ops.push(op);
        self.scheduled_ops.len() - 1
    }

    /// Route `spec`, submit its first transaction (the direct one, or the
    /// coordinator `begin`), and return its index in `ops`. Every phase
    /// span and every per-shard leg parents under `ctx`.
    fn start_op(&mut self, at: SimTime, spec: OpSpec, ctx: TraceContext) -> usize {
        let route = self.map.route(spec.legs.iter().map(|l| l.key.as_str()));
        let leg_shards: Vec<usize> = spec
            .legs
            .iter()
            .map(|l| self.map.shard_for_key(&l.key))
            .collect();
        let (cc, function, args) = spec.direct;
        let (cross, home, (coordinator, first)) = match route {
            Route::Single(shard) => (
                false,
                shard,
                Coordinator::direct(&spec.id, &cc, &function, args),
            ),
            Route::Cross(_) => (
                true,
                leg_shards[0],
                Coordinator::two_phase(&spec.id, spec.legs),
            ),
        };
        if let Some(m) = &self.metrics {
            if cross {
                m.transfers_cross.inc();
            } else {
                m.transfers_single.inc();
            }
        }
        self.ops.push(Op {
            rec: OpRecord {
                id: spec.id,
                status: TransferStatus::InFlight,
                cross,
                redrives: 0,
                submitted_us: at.as_micros(),
                completed_us: 0,
            },
            ctx,
            coordinator,
            home,
            leg_shards,
            stage: span(first.call).1,
            stage_started_us: at.as_micros(),
        });
        let o = self.ops.len() - 1;
        self.submit(o, at, first);
        o
    }

    /// Schedule one of `o`'s calls on its shard, its trace context
    /// parented under its phase's span.
    fn submit(&mut self, o: usize, at: SimTime, submit: Submit) {
        let op = &mut self.ops[o];
        let stage = span(submit.call).1;
        if op.stage != stage {
            op.stage = stage;
            op.stage_started_us = at.as_micros();
        }
        let shard = op.shard(submit.call);
        let leg_ctx = op.ctx.with_parent(op.ctx.span_id(stage));
        let tag = self.mint_tag(TagKind::Call {
            o,
            call: submit.call,
        });
        let (cc, function) = (&submit.chaincode, &submit.function);
        self.clusters[shard].schedule_call(at, cc, function, submit.args, tag, Some(leg_ctx));
    }

    /// One scheduled op's record.
    pub fn op(&self, idx: usize) -> &OpRecord {
        &self.ops[self.scheduled_ops[idx]].rec
    }

    /// Every scheduled op's record, in schedule order.
    pub fn op_records(&self) -> Vec<OpRecord> {
        self.scheduled_ops
            .iter()
            .map(|&o| self.ops[o].rec.clone())
            .collect()
    }

    /// Schedule a [`Fault`] on one shard's cluster.
    pub fn schedule_fault(&mut self, shard: usize, at: SimTime, fault: Fault) {
        self.clusters[shard].schedule_fault(at, fault);
    }

    /// Kill whichever orderer leads `shard`'s Raft group at (or shortly
    /// after) `at`: the leader is resolved at the first lock-step
    /// boundary past `at` where the group has one, then killed. The
    /// resolution is deterministic because leadership itself is.
    pub fn schedule_leader_kill(&mut self, shard: usize, at: SimTime) {
        self.pending_kills.push((at, shard));
    }

    /// Advance every shard cluster, in lock step, to `end`.
    pub fn run_until(&mut self, end: SimTime) {
        while self.now < end {
            let next = (self.now + SLICE).min(end);
            for cluster in &mut self.clusters {
                cluster.run_until(next);
            }
            self.now = next;
            self.advance();
        }
    }

    /// Run lock-step slices until every cluster is quiescent and every
    /// operation terminal, or fail at `deadline`.
    pub fn run_until_converged(&mut self, deadline: SimTime) -> Result<SimTime, ShardError> {
        loop {
            if self.converged() {
                return Ok(self.now);
            }
            if self.now >= deadline {
                return Err(ShardError::NotConverged {
                    deadline,
                    inflight: self.inflight().count(),
                });
            }
            let next = (self.now + SLICE).min(deadline);
            self.run_until(next);
        }
    }

    /// Every non-terminal operation, transfers included.
    fn inflight(&self) -> impl Iterator<Item = &Op> {
        self.ops
            .iter()
            .filter(|o| o.rec.status == TransferStatus::InFlight)
    }

    fn converged(&self) -> bool {
        self.pending_kills.is_empty()
            && self.inflight().next().is_none()
            && self.clusters.iter().all(|c| c.is_converged())
    }

    /// One orchestrator step at a lock-step boundary: resolve leader
    /// kills, drain every shard's outcomes in shard order into their
    /// operations' coordinators, sample queue depths.
    fn advance(&mut self) {
        let now = self.now;
        let mut kills = std::mem::take(&mut self.pending_kills);
        kills.retain(|&(at, shard)| {
            if now < at {
                return true;
            }
            match self.clusters[shard].current_leader() {
                Some(leader) => {
                    self.clusters[shard].schedule_fault(now, Fault::KillOrderer(leader));
                    false
                }
                // No stable leader this boundary (mid-election): retry.
                None => true,
            }
        });
        self.pending_kills = kills;

        for s in 0..self.clusters.len() {
            for (tag, outcome) in self.clusters[s].take_outcomes() {
                self.on_outcome(tag, outcome);
            }
        }
        if let Some(m) = &self.metrics {
            for (s, cluster) in self.clusters.iter().enumerate() {
                m.set_queue_depth(s, cluster.pending_txs() as u64);
            }
        }
    }

    /// Hand an outcome to its operation's coordinator, then carry out the
    /// step: re-drive counts, the completed phase's span, the next
    /// submissions, the terminal status and any anomaly.
    fn on_outcome(&mut self, tag: u64, outcome: InvokeOutcome) {
        let Some(kind) = self.tags.remove(&tag) else {
            self.errors.push(format!("unknown tag {tag}"));
            return;
        };
        let (o, call) = match kind {
            TagKind::Call { o, call } => (o, call),
            TagKind::Open { shard, amount } => {
                match outcome {
                    InvokeOutcome::Committed {
                        valid: TxValidation::Valid,
                    } => {
                        if let Some(m) = &self.metrics {
                            m.inc_txs(shard);
                        }
                        self.opened_total += amount;
                    }
                    other => self.errors.push(format!("open failed: {other:?}")),
                }
                return;
            }
        };
        let outcome = match outcome {
            InvokeOutcome::EndorseFailed(reason) => Err(reason),
            InvokeOutcome::Committed { valid } => Ok(valid),
        };
        if let (Some(m), Ok(TxValidation::Valid)) = (&self.metrics, &outcome) {
            m.inc_txs(self.ops[o].shard(call));
        }
        let op = &mut self.ops[o];
        let record = self.clusters[op.home].canonical_state();
        let step = op
            .coordinator
            .step(call, outcome, || read_coord_state(record, &op.rec.id));
        if step.redrive {
            op.rec.redrives += 1;
            self.redrives += 1;
            if let Some(m) = &self.metrics {
                m.redrives.inc();
            }
        }
        if let Some(call) = step.completed {
            self.record_span(o, call);
        }
        for submit in step.submit {
            self.submit(o, self.now, submit);
        }
        if let Some(status) = step.terminal {
            // Count the aborts a vote decided, not those an anomaly forced.
            if let (Some(m), TransferStatus::Aborted { reason }, None) =
                (&self.metrics, &status, &step.anomaly)
            {
                if reason.contains("insufficient") {
                    m.aborts_insufficient.inc();
                } else {
                    m.aborts_vote.inc();
                }
            }
            self.ops[o].rec.status = status;
            self.ops[o].rec.completed_us = self.now.as_micros();
        }
        self.errors.extend(step.anomaly);
    }

    /// Record the span of the phase `call` just completed for `o`, and
    /// the phase's latency.
    fn record_span(&self, o: usize, call: Call) {
        let Some(m) = &self.metrics else { return };
        let op = &self.ops[o];
        let (name, stage, parent) = span(call);
        let ctx = if parent == 0 {
            op.ctx
        } else {
            op.ctx.with_parent(op.ctx.span_id(parent))
        };
        let (start, end) = (op.stage_started_us, self.now.as_micros());
        m.telemetry.tracer().record_linked(
            name,
            start,
            end,
            m.coordinator_proc,
            "2pc",
            op.ctx.span_id(stage),
            ctx,
        );
        let latency = match call {
            Call::Prepare(_) => &m.phase_prepare_us,
            Call::Decide => &m.phase_decide_us,
            Call::Finalize(_) => &m.phase_finalize_us,
            Call::Direct | Call::Begin => return,
        };
        latency.observe(end.saturating_sub(start));
    }

    /// Per-shard canonical state roots at the committed tip. Bit-
    /// identical across same-seed runs.
    pub fn state_roots(&self) -> Vec<Digest> {
        self.clusters.iter().map(|c| c.canonical_root()).collect()
    }

    /// The end-of-run summary.
    pub fn report(&self) -> ShardReport {
        let shards: Vec<ClusterReport> = self.clusters.iter().map(|c| c.report()).collect();
        let transfers: Vec<TransferRecord> = self
            .transfers
            .iter()
            .map(|t| {
                let op = &self.ops[t.op];
                TransferRecord {
                    id: op.rec.id.clone(),
                    src: t.src.clone(),
                    dst: t.dst.clone(),
                    amount: t.amount,
                    src_shard: op.leg_shards[0],
                    dst_shard: op.leg_shards[1],
                    status: op.rec.status.clone(),
                    redrives: op.rec.redrives,
                }
            })
            .collect();
        let mut committed = 0;
        let mut aborted = 0;
        for t in &transfers {
            match t.status {
                TransferStatus::Committed => committed += 1,
                TransferStatus::Aborted { .. } => aborted += 1,
                TransferStatus::InFlight => {}
            }
        }
        ShardReport {
            total_txs: shards.iter().map(|r| r.txs).sum(),
            transfers,
            state_roots: self.state_roots(),
            opened_total: self.opened_total,
            committed,
            aborted,
            redrives: self.redrives,
            shards,
        }
    }

    /// Full safety audit after quiescence:
    ///
    /// 1. every shard cluster converged with matching peer roots,
    /// 2. no protocol errors,
    /// 3. **conservation** — Σ balances + Σ locks across all shards
    ///    equals Σ committed opens (no lost or duplicated money),
    /// 4. **no permanent locks** — every 2PC request reached a terminal
    ///    state on every shard it touched.
    pub fn verify(&self) -> Result<(), ShardError> {
        for (s, cluster) in self.clusters.iter().enumerate() {
            cluster
                .verify_convergence()
                .map_err(|source| ShardError::Cluster { shard: s, source })?;
        }
        if !self.errors.is_empty() {
            return Err(ShardError::Protocol(self.errors.clone()));
        }
        let mut held = 0u64;
        let mut locked_reqs = Vec::new();
        for cluster in &self.clusters {
            let state = cluster.canonical_state();
            held += total_balances(state) + locked_total(state);
            locked_reqs.extend(
                staged(state, TransferContract::NS)
                    .into_iter()
                    .map(|s| s.req),
            );
        }
        if !locked_reqs.is_empty() {
            return Err(ShardError::LockedRequests(locked_reqs));
        }
        if held != self.opened_total {
            return Err(ShardError::Conservation {
                expected: self.opened_total,
                actual: held,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_store::testdir::TestDir;

    #[test]
    fn pin_to_a_missing_shard_is_an_error() {
        let dir = TestDir::new("shard-bad-pin");
        let mut cfg = ShardConfig::new(dir.path(), 2, 7);
        cfg.pins.push(("acct~alice".into(), 2));
        let err = ShardedDeployment::new(cfg)
            .err()
            .expect("pin to shard 2 of 2");
        assert!(
            matches!(
                &err,
                ShardError::PinOutOfRange { prefix, shard: 2, shards: 2 } if prefix == "acct~alice"
            ),
            "{err}"
        );
    }
}
