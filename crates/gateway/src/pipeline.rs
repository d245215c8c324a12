//! The submission pipeline: admission → sharded bounded queues →
//! endorsement → block cutter → commit routing → retry.
//!
//! [`Gateway`] owns a [`FabricChain`] exclusively and turns its synchronous
//! `invoke` + `commit_ordered` surface into a served pipeline:
//!
//! * **Admission** ([`crate::admission`]) — a front-end screen of each
//!   operation's shape and size, a token bucket, per-client in-flight caps
//!   and priority-aware load shedding. Refused submissions are *shed*: the
//!   client learns synchronously and nothing is retained.
//! * **Sharded bounded queues** — accepted requests land in
//!   `client % shards` FIFO lanes with per-shard capacity, so one hot
//!   client population cannot starve the rest; lanes drain round-robin.
//!   A full lane is backpressure ([`ShedReason::QueueFull`]).
//! * **Endorsement** — requests are endorsed (`FabricChain::invoke`)
//!   when the pipeline has capacity, producing real read/write sets and
//!   signatures.
//! * **Block cutter** — blocks cut on **size** (pending reaches
//!   `block_size`) or **timeout** (oldest pending transaction waited
//!   `block_timeout_us`), whichever first. The cut is [`reorder::cut`],
//!   the stage the replication cluster's cutter shares: the pending queue
//!   in arrival order, or, with [`ReorderConfig`] on, a conflict-aware
//!   plan that pulls doomed transactions and cycle victims. The block
//!   commits through `FabricChain::commit_ordered` at the cut's commit
//!   instant.
//! * **Commit routing** — the gateway routes each transaction's outcome,
//!   as the commit returns it, back to the owning session.
//! * **Retry** ([`crate::retry`]) — MVCC-conflicted transactions are
//!   re-endorsed (fresh read versions) and resubmitted after exponential
//!   backoff with deterministic jitter; retries bypass admission (they
//!   were already accepted) and are **never dropped** — every accepted
//!   request reaches exactly one terminal [`Completion`].
//!
//! Time is externally driven (`pump(now_us)`), so the pipeline runs
//! identically against wall-clock microseconds or a virtual clock. With a
//! [`ServiceModel`] attached, endorsement and validation consume *virtual*
//! service time and the pipeline behaves as a single-server queue —
//! saturation curves become machine-independent and bit-reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use fabric_sim::validation::TxValidation;
use fabric_sim::{FabricChain, Identity, TxId};
use ledgerview_telemetry::{Counter, Gauge, Histogram, HistogramHandle, Telemetry, TraceContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::admission::{AdmissionConfig, Priority, ShedReason, TokenBucket};
use crate::reorder::{self, ReorderConfig};
use crate::retry::RetryPolicy;
use crate::session::{Session, SessionTable};

/// [`TraceContext::span_id`] stage tag for the admission-time root span.
const TRACE_STAGE_SUBMIT: u64 = 1;
/// Stage tag for the submit→terminal span (commit or typed abort).
const TRACE_STAGE_COMMIT: u64 = 4;

/// A chaincode invocation a client wants committed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Operation {
    /// Target chaincode name.
    pub chaincode: String,
    /// Function to invoke.
    pub function: String,
    /// Invocation arguments.
    pub args: Vec<Vec<u8>>,
}

impl Operation {
    /// Convenience constructor.
    pub fn new(
        chaincode: impl Into<String>,
        function: impl Into<String>,
        args: Vec<Vec<u8>>,
    ) -> Operation {
        Operation {
            chaincode: chaincode.into(),
            function: function.into(),
            args,
        }
    }
}

/// One client submission: the arguments of [`Gateway::submit`], as the
/// open-loop [`crate::driver`] generates them.
#[derive(Clone, Debug)]
pub struct Request {
    /// Virtual client id (sessions materialise per id on first touch).
    pub client: u64,
    /// Traffic class for load shedding.
    pub priority: Priority,
    /// The operation to commit.
    pub op: Operation,
}

/// Virtual service-time model for machine-independent runs.
///
/// With a model attached the pipeline is a single-server queue: each
/// endorsement occupies the server for `endorse_us` and each block cut for
/// `block_fixed_us + n · validate_us_per_tx`. Offered load beyond the
/// resulting capacity backs up the submit queues and is shed — the knee of
/// the saturation curve is a property of the model, not of the machine
/// running the experiment.
#[derive(Clone, Debug)]
pub struct ServiceModel {
    /// Server time consumed endorsing one transaction, in microseconds.
    pub endorse_us: u64,
    /// Per-transaction share of block validation/commit, in microseconds.
    pub validate_us_per_tx: u64,
    /// Fixed per-block cost (ordering, header, persistence), microseconds.
    pub block_fixed_us: u64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            endorse_us: 60,
            validate_us_per_tx: 12,
            block_fixed_us: 600,
        }
    }
}

impl ServiceModel {
    /// Theoretical saturation throughput for `block_size`-transaction
    /// blocks, in transactions per second.
    pub fn capacity_tps(&self, block_size: usize) -> f64 {
        let per_tx = self.endorse_us as f64
            + self.validate_us_per_tx as f64
            + self.block_fixed_us as f64 / block_size.max(1) as f64;
        1e6 / per_tx
    }
}

/// Gateway configuration.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Number of submit-queue shards (clients hash to `client % shards`).
    pub shards: usize,
    /// Total queued-request capacity, split evenly across shards.
    pub queue_capacity: usize,
    /// Cut a block when this many transactions are pending.
    pub block_size: usize,
    /// ... or when the oldest pending transaction has waited this long.
    pub block_timeout_us: u64,
    /// Admission control.
    pub admission: AdmissionConfig,
    /// MVCC-conflict retry policy.
    pub retry: RetryPolicy,
    /// Conflict-aware ordering at the cutter (see [`crate::reorder`]).
    /// Disabled by default: blocks commit in arrival order.
    pub reorder: ReorderConfig,
    /// Virtual service-time model (`None` = as fast as the hardware).
    pub service: Option<ServiceModel>,
    /// Seed for proposal nonces and retry jitter: equal seeds, equal runs.
    pub seed: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shards: 4,
            queue_capacity: 4096,
            block_size: 100,
            block_timeout_us: 5_000,
            admission: AdmissionConfig::default(),
            retry: RetryPolicy::default(),
            reorder: ReorderConfig::default(),
            service: None,
            seed: 0,
        }
    }
}

/// The synchronous answer to a submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitResult {
    /// Accepted; the request id will appear in exactly one [`Completion`].
    Accepted(u64),
    /// Refused by admission control; nothing retained.
    Shed(ShedReason),
}

impl SubmitResult {
    /// The request id, if accepted.
    pub fn accepted(&self) -> Option<u64> {
        match self {
            SubmitResult::Accepted(req) => Some(*req),
            SubmitResult::Shed(_) => None,
        }
    }
}

/// Terminal outcome of one accepted request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompletionOutcome {
    /// Committed as valid in the given block.
    Committed {
        /// Block number the transaction committed in.
        block: u64,
    },
    /// Aborted: still MVCC-conflicted after the retry budget ran out (or
    /// retry is disabled).
    ConflictAborted {
        /// The conflicting key of the final attempt.
        key: String,
    },
    /// Aborted: endorsement failed (unknown chaincode, chaincode error,
    /// policy failure).
    EndorsementAborted {
        /// Human-readable reason.
        reason: String,
    },
    /// Aborted by the conflict-aware cutter before validation: a key this
    /// transaction read was overwritten by a commit after its endorsement,
    /// so it fails MVCC under every intra-block order — and its reorder
    /// requeue budget is exhausted. Only produced with the reorder stage
    /// ([`ReorderConfig`]) enabled.
    EarlyAborted {
        /// The read key whose committed version went stale.
        key: String,
    },
}

impl CompletionOutcome {
    /// True for [`CompletionOutcome::Committed`].
    pub fn is_committed(&self) -> bool {
        matches!(self, CompletionOutcome::Committed { .. })
    }
}

/// Delivered to the session exactly once per accepted request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The request id returned by [`SubmitResult::Accepted`].
    pub req: u64,
    /// Owning virtual client.
    pub client: u64,
    /// Endorsement attempts spent (1 = no retries).
    pub attempts: u32,
    /// Admission timestamp, microseconds.
    pub submitted_us: u64,
    /// Terminal timestamp, microseconds (commit time for commits).
    pub completed_us: u64,
    /// What happened.
    pub outcome: CompletionOutcome,
}

/// Aggregate pipeline counters (also mirrored into telemetry when
/// attached).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Submissions attempted.
    pub submitted: u64,
    /// Submissions accepted.
    pub accepted: u64,
    /// Shed: submit-queue shard full.
    pub shed_queue_full: u64,
    /// Shed: token bucket empty.
    pub shed_rate_limited: u64,
    /// Shed: per-client in-flight cap.
    pub shed_inflight_cap: u64,
    /// Shed: low-priority under load.
    pub shed_low_priority: u64,
    /// Shed: failed front-end screening.
    pub shed_malformed: u64,
    /// Requests committed as valid.
    pub committed: u64,
    /// Requests aborted on exhausted retry budget.
    pub conflict_aborted: u64,
    /// Requests aborted at endorsement.
    pub endorse_aborted: u64,
    /// MVCC conflicts observed (each may or may not have retry budget).
    pub conflicts: u64,
    /// Re-endorsement rounds scheduled.
    pub retries: u64,
    /// Blocks cut.
    pub blocks_cut: u64,
    /// Transactions pulled from a block by early abort (doomed by a commit
    /// since their endorsement), whether requeued or terminal.
    pub early_aborts: u64,
    /// Requests terminally aborted via [`CompletionOutcome::EarlyAborted`]
    /// (early-aborted with no requeue budget left).
    pub early_aborted: u64,
    /// Dependency-cycle victims deferred to a later block.
    pub deferrals: u64,
    /// Reorder re-endorsements scheduled (early aborts + deferrals; these
    /// do not consume the client retry budget).
    pub requeues: u64,
    /// Transaction pairs committed in inverted (non-arrival) order.
    pub reordered_pairs: u64,
    /// Intra-block dependency cycles broken by the cutter.
    pub cycles_broken: u64,
}

impl GatewayStats {
    /// Total shed submissions.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_rate_limited
            + self.shed_inflight_cap
            + self.shed_low_priority
            + self.shed_malformed
    }

    /// Requests that reached a terminal outcome.
    pub fn terminal(&self) -> u64 {
        self.committed + self.conflict_aborted + self.endorse_aborted + self.early_aborted
    }

    /// Committed / accepted (1.0 when nothing accepted).
    pub fn commit_ratio(&self) -> f64 {
        if self.accepted == 0 {
            1.0
        } else {
            self.committed as f64 / self.accepted as f64
        }
    }
}

/// Metric handles, resolved once at telemetry attach.
struct GatewayMetrics {
    telemetry: Telemetry,
    shed: [(ShedReason, Counter); 5],
    accepted: Counter,
    committed: Counter,
    aborted_conflict: Counter,
    aborted_endorse: Counter,
    aborted_early: Counter,
    conflicts: Counter,
    retries: Counter,
    blocks: Counter,
    reorder_pairs: Counter,
    reorder_early_aborts: Counter,
    reorder_deferrals: Counter,
    reorder_cycles: Counter,
    reorder_requeues: Counter,
    queue_depth: Gauge,
    retry_depth: Gauge,
    inflight: Gauge,
    latency: HistogramHandle,
    /// Perfetto process lane the gateway's causal spans render on.
    proc: u64,
}

impl GatewayMetrics {
    fn new(telemetry: &Telemetry) -> GatewayMetrics {
        let r = telemetry.registry();
        let shed = |reason: ShedReason| {
            (
                reason,
                r.counter("lv_gateway_shed_total", &[("reason", reason.as_str())]),
            )
        };
        GatewayMetrics {
            telemetry: telemetry.clone(),
            shed: [
                shed(ShedReason::QueueFull),
                shed(ShedReason::RateLimited),
                shed(ShedReason::InflightCap),
                shed(ShedReason::LowPriority),
                shed(ShedReason::Malformed),
            ],
            accepted: r.counter("lv_gateway_accepted_total", &[]),
            committed: r.counter("lv_gateway_committed_total", &[]),
            aborted_conflict: r.counter("lv_gateway_aborted_total", &[("kind", "conflict")]),
            aborted_endorse: r.counter("lv_gateway_aborted_total", &[("kind", "endorsement")]),
            aborted_early: r.counter("lv_gateway_aborted_total", &[("kind", "early_abort")]),
            conflicts: r.counter("lv_gateway_conflicts_total", &[]),
            retries: r.counter("lv_gateway_retries_total", &[]),
            blocks: r.counter("lv_gateway_blocks_cut_total", &[]),
            reorder_pairs: r.counter("lv_gateway_reorder_pairs_total", &[]),
            reorder_early_aborts: r.counter("lv_gateway_reorder_early_aborts_total", &[]),
            reorder_deferrals: r.counter("lv_gateway_reorder_deferrals_total", &[]),
            reorder_cycles: r.counter("lv_gateway_reorder_cycles_broken_total", &[]),
            reorder_requeues: r.counter("lv_gateway_reorder_requeues_total", &[]),
            queue_depth: r.gauge("lv_gateway_queue_depth", &[("lane", "submit")]),
            retry_depth: r.gauge("lv_gateway_queue_depth", &[("lane", "retry")]),
            inflight: r.gauge("lv_gateway_inflight", &[]),
            latency: r.histogram("lv_gateway_submit_commit_seconds", &[]),
            proc: telemetry.tracer().process("gateway"),
        }
    }

    fn count_shed(&self, reason: ShedReason) {
        for (r, counter) in &self.shed {
            if *r == reason {
                counter.inc();
            }
        }
    }
}

/// One accepted, not-yet-terminal request.
struct InFlight {
    client: u64,
    op: Operation,
    /// Causal-trace root for this request's whole journey, derived from
    /// (gateway seed, request id) — deterministic with telemetry on or
    /// off, and stable across retries and reorder requeues.
    ctx: TraceContext,
    submitted_us: u64,
    /// When the request (re-)entered a ready lane — the earliest instant
    /// its next endorsement may start under a [`ServiceModel`].
    ready_us: u64,
    attempts: u32,
    /// Reorder requeues consumed (early aborts + deferrals). These inflate
    /// `attempts` but are discounted from the client retry budget via
    /// [`RetryPolicy::effective_attempt`].
    requeues: u32,
}

/// The client gateway. See the module docs for the pipeline shape.
pub struct Gateway {
    chain: FabricChain,
    identities: Vec<Identity>,
    config: GatewayConfig,
    rng: StdRng,
    /// Per-shard FIFO of accepted request ids awaiting first endorsement.
    shards: Vec<VecDeque<u64>>,
    shard_capacity: usize,
    next_shard: usize,
    queued: usize,
    /// Retries whose backoff expired, awaiting re-endorsement. Drained
    /// ahead of the submit shards and never bounded: an accepted request
    /// is never dropped.
    retry_ready: VecDeque<u64>,
    /// Scheduled retries, ordered by due time (ties by request id).
    retry_due: BinaryHeap<Reverse<(u64, u64)>>,
    inflight: HashMap<u64, InFlight>,
    /// Endorsed-transaction id → owning request, for commit routing.
    routing: HashMap<TxId, u64>,
    sessions: SessionTable,
    bucket: Option<TokenBucket>,
    completions: Vec<Completion>,
    first_pending_us: Option<u64>,
    busy_until_us: u64,
    now_us: u64,
    next_req: u64,
    stats: GatewayStats,
    /// Submit→commit latency of committed requests, in microseconds.
    latency: Histogram,
    metrics: Option<GatewayMetrics>,
}

impl Gateway {
    /// Build a gateway over `chain`, signing submissions with
    /// `identities[client % identities.len()]`.
    ///
    /// # Panics
    /// Panics if `identities` is empty or `block_size` is zero.
    pub fn new(chain: FabricChain, identities: Vec<Identity>, config: GatewayConfig) -> Gateway {
        assert!(!identities.is_empty(), "gateway needs a signing identity");
        assert!(config.block_size > 0, "block_size must be positive");
        let shards = config.shards.max(1);
        let shard_capacity = config.queue_capacity.div_ceil(shards).max(1);
        let bucket = config
            .admission
            .rate_per_sec
            .map(|rate| TokenBucket::new(rate, config.admission.burst));
        Gateway {
            identities,
            rng: StdRng::seed_from_u64(config.seed),
            shards: (0..shards).map(|_| VecDeque::new()).collect(),
            shard_capacity,
            next_shard: 0,
            queued: 0,
            retry_ready: VecDeque::new(),
            retry_due: BinaryHeap::new(),
            inflight: HashMap::new(),
            routing: HashMap::new(),
            sessions: SessionTable::new(),
            bucket,
            completions: Vec::new(),
            first_pending_us: None,
            busy_until_us: 0,
            now_us: 0,
            next_req: 0,
            stats: GatewayStats::default(),
            latency: Histogram::new(),
            metrics: None,
            chain,
            config,
        }
    }

    /// Attach telemetry to the gateway and the chain beneath it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.chain.set_telemetry(telemetry);
        self.metrics = Some(GatewayMetrics::new(telemetry));
    }

    /// The underlying chain (read-only; the gateway owns the write path).
    pub fn chain(&self) -> &FabricChain {
        &self.chain
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// Per-client session statistics, if the client ever submitted.
    pub fn session(&self, client: u64) -> Option<&Session> {
        self.sessions.get(client)
    }

    /// Number of clients that ever submitted.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Accepted requests not yet terminal.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Submit→commit latency quantile of committed requests (µs).
    pub fn latency_us(&self, q: f64) -> u64 {
        self.latency.quantile(q)
    }

    /// Mean submit→commit latency of committed requests (µs).
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean()
    }

    /// Take all completions delivered since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Submit one request at `now_us`. Runs the front-end screen and
    /// admission control; accepted requests join the client's queue shard.
    pub fn submit(
        &mut self,
        now_us: u64,
        client: u64,
        priority: Priority,
        op: Operation,
    ) -> SubmitResult {
        match screen(&op, self.config.admission.max_arg_bytes) {
            Some(reason) => self.refuse(client, reason),
            None => self.admit(now_us, client, priority, op),
        }
    }

    fn refuse(&mut self, client: u64, reason: ShedReason) -> SubmitResult {
        self.stats.submitted += 1;
        let session = self.sessions.entry(client);
        session.submitted += 1;
        session.shed += 1;
        match reason {
            ShedReason::QueueFull => self.stats.shed_queue_full += 1,
            ShedReason::RateLimited => self.stats.shed_rate_limited += 1,
            ShedReason::InflightCap => self.stats.shed_inflight_cap += 1,
            ShedReason::LowPriority => self.stats.shed_low_priority += 1,
            ShedReason::Malformed => self.stats.shed_malformed += 1,
        }
        if let Some(m) = &self.metrics {
            m.count_shed(reason);
        }
        SubmitResult::Shed(reason)
    }

    fn admit(
        &mut self,
        now_us: u64,
        client: u64,
        priority: Priority,
        op: Operation,
    ) -> SubmitResult {
        self.advance_clock(now_us);
        let shard = (client % self.shards.len() as u64) as usize;
        let fill = self.shards[shard].len() as f64 / self.shard_capacity as f64;
        if self.shards[shard].len() >= self.shard_capacity {
            return self.refuse(client, ShedReason::QueueFull);
        }
        if priority == Priority::Low && fill >= self.config.admission.low_priority_shed_fill {
            return self.refuse(client, ShedReason::LowPriority);
        }
        if self.sessions.entry(client).inflight >= self.config.admission.max_inflight_per_client {
            return self.refuse(client, ShedReason::InflightCap);
        }
        if let Some(bucket) = &mut self.bucket {
            bucket.refill(self.now_us);
            if !bucket.try_take() {
                return self.refuse(client, ShedReason::RateLimited);
            }
        }

        let req = self.next_req;
        self.next_req += 1;
        self.stats.submitted += 1;
        self.stats.accepted += 1;
        let session = self.sessions.entry(client);
        session.submitted += 1;
        session.inflight += 1;
        let ctx = TraceContext::root(self.config.seed, req);
        self.inflight.insert(
            req,
            InFlight {
                client,
                op,
                ctx,
                submitted_us: self.now_us,
                ready_us: self.now_us,
                attempts: 0,
                requeues: 0,
            },
        );
        self.shards[shard].push_back(req);
        self.queued += 1;
        if let Some(m) = &self.metrics {
            m.accepted.inc();
            m.telemetry.tracer().record_linked(
                "gateway.submit",
                self.now_us,
                self.now_us,
                m.proc,
                "submit",
                ctx.span_id(TRACE_STAGE_SUBMIT),
                ctx,
            );
        }
        SubmitResult::Accepted(req)
    }

    /// Advance the pipeline to `now_us`: expire retry backoffs, endorse
    /// ready work while the (virtual) server is free, and cut blocks on
    /// size or timeout. Repeats until nothing more can happen at `now_us`.
    pub fn pump(&mut self, now_us: u64) {
        self.advance_clock(now_us);
        while self.step() {}
        if let Some(m) = &self.metrics {
            m.queue_depth.set(self.queued as i64);
            m.retry_depth
                .set((self.retry_ready.len() + self.retry_due.len()) as i64);
            m.inflight.set(self.inflight.len() as i64);
        }
    }

    fn advance_clock(&mut self, now_us: u64) {
        self.now_us = self.now_us.max(now_us);
    }

    /// One scheduling action; `true` if anything happened.
    fn step(&mut self) -> bool {
        // 1. Expire due retry backoffs into the ready lane.
        if let Some(&Reverse((due, req))) = self.retry_due.peek() {
            if due <= self.now_us {
                self.retry_due.pop();
                self.retry_ready.push_back(req);
                return true;
            }
        }
        // 2. Endorse one ready request if the server is free.
        let server_free = self.config.service.is_none() || self.busy_until_us <= self.now_us;
        if server_free {
            if let Some(req) = self.pop_ready() {
                self.endorse(req);
                if self.chain.pending_count() >= self.config.block_size {
                    self.cut(self.cut_trigger_us());
                }
                return true;
            }
        }
        // 3. Timeout cut.
        if self.chain.pending_count() > 0 {
            if let Some(first) = self.first_pending_us {
                let deadline = first.saturating_add(self.config.block_timeout_us);
                if self.now_us >= deadline {
                    self.cut(deadline.max(self.busy_until_us));
                    return true;
                }
            }
        }
        false
    }

    /// Next request to endorse: expired retries first, then the submit
    /// shards round-robin.
    fn pop_ready(&mut self) -> Option<u64> {
        if let Some(req) = self.retry_ready.pop_front() {
            return Some(req);
        }
        let n = self.shards.len();
        for i in 0..n {
            let shard = (self.next_shard + i) % n;
            if let Some(req) = self.shards[shard].pop_front() {
                self.next_shard = (shard + 1) % n;
                self.queued -= 1;
                return Some(req);
            }
        }
        None
    }

    /// When a size-triggered cut starts, given the service model.
    fn cut_trigger_us(&self) -> u64 {
        match &self.config.service {
            Some(_) => self.busy_until_us,
            None => self.now_us,
        }
    }

    fn endorse(&mut self, req: u64) {
        let (client, op, ready_us) = {
            let inf = self
                .inflight
                .get_mut(&req)
                .expect("ready request in flight");
            inf.attempts += 1;
            (inf.client, inf.op.clone(), inf.ready_us)
        };
        let creator = self.identities[(client % self.identities.len() as u64) as usize].clone();
        if let Some(svc) = &self.config.service {
            let start = self.busy_until_us.max(ready_us);
            self.busy_until_us = start + svc.endorse_us;
        }
        let endorsed_us = match &self.config.service {
            Some(_) => self.busy_until_us,
            None => self.now_us,
        };
        match self.chain.invoke(
            &creator,
            &op.chaincode,
            &op.function,
            op.args,
            &mut self.rng,
        ) {
            Ok(result) => {
                self.routing.insert(result.tx_id, req);
                if self.first_pending_us.is_none() {
                    self.first_pending_us = Some(endorsed_us);
                }
            }
            Err(e) => self.complete(
                req,
                endorsed_us,
                CompletionOutcome::EndorsementAborted {
                    reason: e.to_string(),
                },
            ),
        }
    }

    /// Cut the pending block starting at `trigger_us` through
    /// [`reorder::cut`], commit what it keeps, route every outcome, and
    /// requeue or abort what it pulled.
    fn cut(&mut self, trigger_us: u64) {
        if self.chain.pending_count() == 0 {
            return;
        }
        let telemetry = self.metrics.as_ref().map(|m| m.telemetry.clone());
        let _span = telemetry.as_ref().map(|t| t.span("gateway.cut"));
        let (routing, inflight) = (&self.routing, &self.inflight);
        let budget = self.config.reorder.max_requeues;
        let cut = reorder::cut(&mut self.chain, &self.config.reorder, |tx| {
            routing
                .get(&tx.tx_id)
                .and_then(|req| inflight.get(req))
                .is_some_and(|inf| inf.requeues < budget)
        });
        self.stats.reordered_pairs += cut.stats.reordered_pairs;
        self.stats.cycles_broken += cut.stats.cycles_broken;
        if let Some(m) = &self.metrics {
            m.reorder_pairs.add(cut.stats.reordered_pairs);
            m.reorder_cycles.add(cut.stats.cycles_broken);
        }

        let commit_us = self.charge_block_time(trigger_us, cut.kept.len());
        let tx_ids: Vec<TxId> = cut.kept.iter().map(|tx| tx.tx_id).collect();
        let block = self.chain.height();
        let mut outcomes = Vec::new();
        if !cut.kept.is_empty() {
            outcomes = self.chain.commit_ordered(cut.kept, commit_us);
            self.stats.blocks_cut += 1;
            if let Some(m) = &self.metrics {
                m.blocks.inc();
            }
        }
        self.first_pending_us = None;
        self.route_outcomes(block, tx_ids, outcomes, commit_us);

        // Early aborts: doomed under every order. Requeue while budget
        // lasts (re-endorsement picks up fresh read versions); terminal
        // typed abort once it runs out.
        for (tx, key) in cut.early_aborted {
            let Some(req) = self.routing.remove(&tx.tx_id) else {
                continue;
            };
            self.stats.early_aborts += 1;
            if let Some(m) = &self.metrics {
                m.reorder_early_aborts.inc();
            }
            if self.inflight[&req].requeues < budget {
                self.requeue(req, commit_us);
            } else {
                self.complete(req, commit_us, CompletionOutcome::EarlyAborted { key });
            }
        }
        // Deferred cycle victims: valid transactions that merely lost a
        // cycle break; always requeued (the planner only defers within
        // budget).
        for tx in cut.deferred {
            let Some(req) = self.routing.remove(&tx.tx_id) else {
                continue;
            };
            self.stats.deferrals += 1;
            if let Some(m) = &self.metrics {
                m.reorder_deferrals.inc();
            }
            self.requeue(req, commit_us);
        }
    }

    /// Charge the virtual server for one `n`-transaction block ending at
    /// the returned commit instant (`now` without a service model). A
    /// zero-transaction cut — everything early-aborted — is free.
    fn charge_block_time(&mut self, trigger_us: u64, n: usize) -> u64 {
        match &self.config.service {
            Some(svc) if n > 0 => {
                self.busy_until_us = self.busy_until_us.max(trigger_us)
                    + svc.block_fixed_us
                    + svc.validate_us_per_tx * n as u64;
                self.busy_until_us
            }
            Some(_) => self.busy_until_us.max(trigger_us),
            None => self.now_us,
        }
    }

    /// Route the outcomes of the block just committed at height `block`
    /// (`outcomes[i]` is that of `tx_ids[i]`) back to the owning requests:
    /// commits and endorsement failures complete, MVCC conflicts enter the
    /// retry lane.
    fn route_outcomes(
        &mut self,
        block: u64,
        tx_ids: Vec<TxId>,
        outcomes: Vec<TxValidation>,
        commit_us: u64,
    ) {
        for (tx_id, outcome) in tx_ids.into_iter().zip(outcomes) {
            let Some(req) = self.routing.remove(&tx_id) else {
                continue;
            };
            match outcome {
                TxValidation::Valid => {
                    self.complete(req, commit_us, CompletionOutcome::Committed { block })
                }
                TxValidation::MvccConflict { key } => self.conflict(req, commit_us, key),
                TxValidation::EndorsementFailure { reason } => self.complete(
                    req,
                    commit_us,
                    CompletionOutcome::EndorsementAborted { reason },
                ),
            }
        }
    }

    /// Schedule a reorder re-endorsement (early abort or deferral) at
    /// `due_us` through the retry lane, without charging the client retry
    /// budget.
    fn requeue(&mut self, req: u64, due_us: u64) {
        let inf = self
            .inflight
            .get_mut(&req)
            .expect("requeued request in flight");
        inf.requeues += 1;
        inf.ready_us = due_us;
        self.retry_due.push(Reverse((due_us, req)));
        self.stats.requeues += 1;
        if let Some(m) = &self.metrics {
            m.reorder_requeues.inc();
        }
    }

    fn conflict(&mut self, req: u64, commit_us: u64, key: String) {
        self.stats.conflicts += 1;
        if let Some(m) = &self.metrics {
            m.conflicts.inc();
        }
        // Reorder requeues inflate `attempts` without being client
        // failures; the effective attempt keeps the retry budget and the
        // backoff curve the client signed up for.
        let inf = &self.inflight[&req];
        let attempts = RetryPolicy::effective_attempt(inf.attempts, inf.requeues);
        if self.config.retry.can_retry(attempts) {
            let backoff = self
                .config
                .retry
                .backoff_us(attempts, self.config.seed, req);
            let due = commit_us.saturating_add(backoff);
            let client = {
                let inf = self
                    .inflight
                    .get_mut(&req)
                    .expect("conflicted request in flight");
                inf.ready_us = due;
                inf.client
            };
            self.retry_due.push(Reverse((due, req)));
            self.stats.retries += 1;
            self.sessions.entry(client).retries += 1;
            if let Some(m) = &self.metrics {
                m.retries.inc();
            }
        } else {
            self.complete(req, commit_us, CompletionOutcome::ConflictAborted { key });
        }
    }

    fn complete(&mut self, req: u64, completed_us: u64, outcome: CompletionOutcome) {
        let inf = self
            .inflight
            .remove(&req)
            .expect("completing request in flight");
        let session = self.sessions.entry(inf.client);
        session.inflight -= 1;
        if let Some(m) = &self.metrics {
            // One submit→terminal span per request, named by outcome so a
            // Perfetto query can separate committed journeys from aborts.
            let name = match &outcome {
                CompletionOutcome::Committed { .. } => "gateway.commit",
                _ => "gateway.abort",
            };
            m.telemetry.tracer().record_linked(
                name,
                inf.submitted_us,
                completed_us,
                m.proc,
                "requests",
                inf.ctx.span_id(TRACE_STAGE_COMMIT),
                inf.ctx.with_parent(inf.ctx.span_id(TRACE_STAGE_SUBMIT)),
            );
        }
        match &outcome {
            CompletionOutcome::Committed { .. } => {
                session.committed += 1;
                self.stats.committed += 1;
                let latency = completed_us.saturating_sub(inf.submitted_us);
                self.latency.record(latency);
                if let Some(m) = &self.metrics {
                    m.committed.inc();
                    m.latency.observe(latency);
                }
            }
            CompletionOutcome::ConflictAborted { .. } => {
                session.aborted += 1;
                self.stats.conflict_aborted += 1;
                if let Some(m) = &self.metrics {
                    m.aborted_conflict.inc();
                }
            }
            CompletionOutcome::EndorsementAborted { .. } => {
                session.aborted += 1;
                self.stats.endorse_aborted += 1;
                if let Some(m) = &self.metrics {
                    m.aborted_endorse.inc();
                }
            }
            CompletionOutcome::EarlyAborted { .. } => {
                session.aborted += 1;
                self.stats.early_aborted += 1;
                if let Some(m) = &self.metrics {
                    m.aborted_early.inc();
                }
            }
        }
        self.completions.push(Completion {
            req,
            client: inf.client,
            attempts: inf.attempts,
            submitted_us: inf.submitted_us,
            completed_us,
            outcome,
        });
    }

    /// The next instant at which `pump` could make progress, if any.
    pub fn next_deadline_us(&self) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            next = Some(next.map_or(t, |n: u64| n.min(t)));
        };
        if let Some(&Reverse((due, _))) = self.retry_due.peek() {
            consider(due);
        }
        if self.chain.pending_count() > 0 {
            if let Some(first) = self.first_pending_us {
                consider(first.saturating_add(self.config.block_timeout_us));
            }
        }
        let work_waiting = self.queued > 0 || !self.retry_ready.is_empty();
        if work_waiting && self.config.service.is_some() && self.busy_until_us > self.now_us {
            consider(self.busy_until_us);
        }
        next
    }

    /// Run the pipeline from `now_us` until every accepted request is
    /// terminal, advancing time along scheduling deadlines. Returns the
    /// quiescence time.
    pub fn drain(&mut self, mut now_us: u64) -> u64 {
        loop {
            self.pump(now_us);
            if self.inflight.is_empty() {
                return now_us.max(self.busy_until_us);
            }
            match self.next_deadline_us() {
                Some(t) if t > now_us => now_us = t,
                _ => now_us = now_us.saturating_add(self.config.block_timeout_us.max(1)),
            }
        }
    }
}

/// Front-end request screen: `None` = clean, `Some(reason)` = refuse.
fn screen(op: &Operation, max_arg_bytes: usize) -> Option<ShedReason> {
    if op.chaincode.is_empty() || op.function.is_empty() {
        return Some(ShedReason::Malformed);
    }
    let arg_bytes: usize = op.args.iter().map(Vec::len).sum();
    if arg_bytes > max_arg_bytes {
        return Some(ShedReason::Malformed);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::counter_chain;

    fn incr(key: &str) -> Operation {
        Operation::new("counter", "incr", vec![key.into(), b"1".to_vec()])
    }

    fn gateway(config: GatewayConfig) -> Gateway {
        let (chain, ids) = counter_chain(11, 4, true);
        Gateway::new(chain, ids, config)
    }

    /// Land an `incr key` commit on the gateway's chain *behind* the
    /// cutter's back — the way a replicated deployment sees ordered blocks
    /// from other gateways. Endorsed on a same-seed twin chain (identical
    /// organisations and peer keys) and applied via the ordered-commit
    /// path, so the gateway's pending queue is untouched and its endorsed
    /// reads of `key` go stale.
    fn commit_behind_cutter(gw: &mut Gateway, key: &str) {
        let (mut twin, ids) = counter_chain(11, 4, true);
        let mut rng = StdRng::seed_from_u64(99);
        twin.invoke(
            &ids[0],
            "counter",
            "incr",
            vec![key.into(), b"1".to_vec()],
            &mut rng,
        )
        .unwrap();
        let injected = twin.take_pending();
        let outcomes = gw.chain.commit_ordered(injected, 1);
        assert!(outcomes.iter().all(|o| o.is_valid()), "{outcomes:?}");
    }

    #[test]
    fn independent_requests_commit_in_cut_blocks() {
        let mut gw = gateway(GatewayConfig {
            block_size: 2,
            ..GatewayConfig::default()
        });
        for (client, key) in [(1u64, "a"), (2, "b"), (3, "c")] {
            let r = gw.submit(0, client, Priority::Normal, incr(key));
            assert!(matches!(r, SubmitResult::Accepted(_)), "{r:?}");
        }
        gw.drain(0);
        let done = gw.drain_completions();
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|c| c.outcome.is_committed()));
        assert_eq!(gw.stats().committed, 3);
        // 3 txs with block_size 2: a size cut plus a timeout cut.
        assert_eq!(gw.stats().blocks_cut, 2);
        assert_eq!(gw.inflight(), 0);
        assert_eq!(gw.session(1).unwrap().committed, 1);
    }

    #[test]
    fn conflicting_requests_retry_to_success() {
        let mut gw = gateway(GatewayConfig {
            block_size: 4,
            ..GatewayConfig::default()
        });
        // Four increments of the same key endorsed into one block: one
        // wins, three conflict and must re-endorse (serially converging).
        for client in 0..4u64 {
            gw.submit(0, client, Priority::Normal, incr("hot"));
        }
        gw.drain(0);
        let done = gw.drain_completions();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| c.outcome.is_committed()));
        assert!(gw.stats().conflicts >= 3, "{:?}", gw.stats());
        assert!(gw.stats().retries >= 3);
        let total = gw
            .chain()
            .state()
            .get("hot")
            .map(|v| String::from_utf8_lossy(&v).to_string());
        assert_eq!(total.as_deref(), Some("4"), "all increments applied");
    }

    #[test]
    fn retry_disabled_turns_conflicts_into_aborts() {
        let mut gw = gateway(GatewayConfig {
            block_size: 4,
            retry: RetryPolicy {
                enabled: false,
                ..RetryPolicy::default()
            },
            ..GatewayConfig::default()
        });
        for client in 0..4u64 {
            gw.submit(0, client, Priority::Normal, incr("hot"));
        }
        gw.drain(0);
        let done = gw.drain_completions();
        let committed = done.iter().filter(|c| c.outcome.is_committed()).count();
        let aborted = done
            .iter()
            .filter(|c| matches!(c.outcome, CompletionOutcome::ConflictAborted { .. }))
            .count();
        assert_eq!((committed, aborted), (1, 3));
    }

    #[test]
    fn bounded_queue_sheds_but_accepted_work_survives() {
        // A slow virtual server and a 4-slot queue: most of a 100-request
        // burst is shed, but every accepted request reaches a terminal
        // completion.
        let mut gw = gateway(GatewayConfig {
            shards: 1,
            queue_capacity: 4,
            block_size: 2,
            service: Some(ServiceModel::default()),
            admission: AdmissionConfig {
                max_inflight_per_client: 1_000,
                ..AdmissionConfig::default()
            },
            ..GatewayConfig::default()
        });
        let mut accepted = 0;
        for i in 0..100u64 {
            match gw.submit(0, i, Priority::Normal, incr(&format!("k{i}"))) {
                SubmitResult::Accepted(_) => accepted += 1,
                SubmitResult::Shed(reason) => assert_eq!(reason, ShedReason::QueueFull),
            }
        }
        assert!(accepted < 100, "backpressure must engage");
        assert_eq!(gw.stats().shed_queue_full, 100 - accepted);
        gw.drain(0);
        assert_eq!(gw.drain_completions().len() as u64, accepted);
        assert_eq!(gw.stats().terminal(), accepted);
    }

    #[test]
    fn admission_gates_fire_in_order() {
        let mut gw = gateway(GatewayConfig {
            shards: 1,
            queue_capacity: 8,
            service: Some(ServiceModel::default()),
            admission: AdmissionConfig {
                rate_per_sec: Some(1_000.0),
                burst: 2,
                max_inflight_per_client: 2,
                low_priority_shed_fill: 0.25,
                ..AdmissionConfig::default()
            },
            ..GatewayConfig::default()
        });
        // Malformed first: screened before anything else.
        let r = gw.submit(0, 1, Priority::High, Operation::new("", "incr", vec![]));
        assert_eq!(r, SubmitResult::Shed(ShedReason::Malformed));
        // Burst of 2 accepted, third rate-limited.
        assert!(gw
            .submit(0, 1, Priority::Normal, incr("a"))
            .accepted()
            .is_some());
        assert!(gw
            .submit(0, 2, Priority::Normal, incr("b"))
            .accepted()
            .is_some());
        assert_eq!(
            gw.submit(0, 3, Priority::Normal, incr("c")),
            SubmitResult::Shed(ShedReason::RateLimited)
        );
        // A millisecond refills one token; client 1 reaches its in-flight
        // cap of 2 with this acceptance.
        assert!(gw
            .submit(1_000, 1, Priority::Normal, incr("d"))
            .accepted()
            .is_some());
        assert_eq!(
            gw.submit(1_000, 1, Priority::Normal, incr("e")),
            SubmitResult::Shed(ShedReason::InflightCap)
        );
        // Queue fill is 3/8 ≥ 25%: low-priority traffic sheds early.
        assert_eq!(
            gw.submit(1_000, 4, Priority::Low, incr("f")),
            SubmitResult::Shed(ShedReason::LowPriority)
        );
    }

    #[test]
    fn reorder_defers_hot_key_losers_instead_of_conflicting() {
        // Four same-key increments in one block, retry disabled: the
        // unordered cutter commits one and aborts three, but the
        // conflict-aware cutter defers the losers to later blocks — all
        // four commit and MVCC never fires.
        let mut gw = gateway(GatewayConfig {
            block_size: 4,
            retry: RetryPolicy {
                enabled: false,
                ..RetryPolicy::default()
            },
            reorder: ReorderConfig::enabled(),
            ..GatewayConfig::default()
        });
        for client in 0..4u64 {
            gw.submit(0, client, Priority::Normal, incr("hot"));
        }
        gw.drain(0);
        let done = gw.drain_completions();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| c.outcome.is_committed()), "{done:?}");
        assert_eq!(gw.stats().conflicts, 0, "{:?}", gw.stats());
        assert!(gw.stats().deferrals >= 3);
        assert!(gw.stats().cycles_broken >= 3);
        assert_eq!(gw.stats().requeues, gw.stats().deferrals);
        let total = gw
            .chain()
            .state()
            .get("hot")
            .map(|v| String::from_utf8_lossy(&v).to_string());
        assert_eq!(total.as_deref(), Some("4"), "all increments applied");
    }

    #[test]
    fn stale_pending_read_is_early_aborted_terminally_without_budget() {
        // Endorse a read of "k", then land a commit to "k" behind the
        // cutter's back: the pending transaction is doomed under every
        // order. With a zero requeue budget the cutter must produce the
        // typed terminal EarlyAborted, not spend a validation slot.
        let mut gw = gateway(GatewayConfig {
            reorder: ReorderConfig {
                max_requeues: 0,
                ..ReorderConfig::enabled()
            },
            ..GatewayConfig::default()
        });
        let r = gw.submit(0, 1, Priority::Normal, incr("k"));
        assert!(matches!(r, SubmitResult::Accepted(_)));
        gw.pump(0); // endorses "k" into the pending block
        assert_eq!(gw.chain().pending_count(), 1);
        commit_behind_cutter(&mut gw, "k");
        gw.drain(0);
        let done = gw.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].outcome,
            CompletionOutcome::EarlyAborted { key: "k".into() }
        );
        assert_eq!(gw.stats().early_aborts, 1);
        assert_eq!(gw.stats().early_aborted, 1);
        assert_eq!(gw.stats().terminal(), 1);
        assert_eq!(gw.inflight(), 0);
    }

    #[test]
    fn stale_pending_read_requeues_and_commits_with_budget() {
        // Same doomed-transaction setup, but with requeue budget: the
        // early abort re-endorses with fresh read versions and commits.
        let mut gw = gateway(GatewayConfig {
            reorder: ReorderConfig::enabled(),
            ..GatewayConfig::default()
        });
        gw.submit(0, 1, Priority::Normal, incr("k"));
        gw.pump(0);
        commit_behind_cutter(&mut gw, "k");
        gw.drain(0);
        let done = gw.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].outcome.is_committed(), "{done:?}");
        assert_eq!(gw.stats().early_aborts, 1);
        assert_eq!(gw.stats().early_aborted, 0);
        assert_eq!(gw.stats().conflicts, 0, "no validation slot wasted");
        let total = gw
            .chain()
            .state()
            .get("k")
            .map(|v| String::from_utf8_lossy(&v).to_string());
        assert_eq!(total.as_deref(), Some("2"), "both increments applied");
    }

    #[test]
    fn reorder_requeues_do_not_consume_client_retry_budget() {
        // One hot key, many clients, a 2-attempt retry budget: deferral
        // requeues must be discounted, so every request still commits
        // even though raw attempts far exceed max_attempts.
        let mut gw = gateway(GatewayConfig {
            block_size: 6,
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            reorder: ReorderConfig::enabled(),
            ..GatewayConfig::default()
        });
        for client in 0..6u64 {
            gw.submit(0, client, Priority::Normal, incr("hot"));
        }
        gw.drain(0);
        let done = gw.drain_completions();
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|c| c.outcome.is_committed()), "{done:?}");
        assert!(
            done.iter().any(|c| c.attempts > 2),
            "requeues inflate raw attempts: {done:?}"
        );
    }

    #[test]
    fn virtual_service_model_sets_commit_times() {
        let svc = ServiceModel {
            endorse_us: 100,
            validate_us_per_tx: 10,
            block_fixed_us: 400,
        };
        let mut gw = gateway(GatewayConfig {
            block_size: 2,
            service: Some(svc),
            ..GatewayConfig::default()
        });
        gw.submit(0, 1, Priority::Normal, incr("x"));
        gw.submit(0, 2, Priority::Normal, incr("y"));
        gw.drain(0);
        let done = gw.drain_completions();
        // Two endorsements (100 each) + block (400 + 2·10) = 620 µs.
        assert!(done.iter().all(|c| c.completed_us == 620), "{done:?}");
        assert_eq!(gw.latency_us(1.0), 620);
    }
}
