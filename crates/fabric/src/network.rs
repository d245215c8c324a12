//! The timed deployment model: clients, peers and orderers on the
//! discrete-event simulator.
//!
//! This module reproduces the *performance* behaviour of the paper's
//! GCP deployment (2 peers in Europe/North America, 3 Raft orderers in
//! Asia): request latency and throughput emerge from network latencies,
//! FIFO queueing at peers and orderers, and Fabric-style block cutting
//! (count / bytes / timeout). The *functional* behaviour (real chaincode,
//! signatures, MVCC) lives in [`crate::chain`]; the benchmark harness uses
//! both and EXPERIMENTS.md records where each figure's numbers come from.
//!
//! A transaction's life in virtual time:
//!
//! ```text
//! client ──latency──▶ endorsing peers (FIFO service) ──latency──▶ client
//!        ──latency──▶ orderer: block cutter ─▶ Raft round ─▶ ordering svc
//!        ──latency──▶ each peer: validation (FIFO service, per-tx+per-KB)
//!        ──latency──▶ client completion
//! ```
//!
//! Requests are composed of sequential *phases* of parallel transactions,
//! which expresses every method in the paper: revocable views (1 phase,
//! 1 tx), irrevocable views (2 phases: invoke, then view-storage merge),
//! TxListContract (1 phase + periodic background flush transactions), and
//! the cross-chain 2PC baseline (prepare phase on |V| chains, then commit
//! phase).

use ledgerview_simnet::{FifoStation, LatencyMatrix, LatencyRecorder, Region, SimTime, Simulation};
use ledgerview_telemetry::{Counter, HistogramHandle, Telemetry};

/// CPU service times charged at each pipeline stage.
#[derive(Clone, Debug)]
pub struct ServiceTimes {
    /// Peer CPU to simulate + sign one endorsement.
    pub endorse_per_tx: SimTime,
    /// Additional endorsement cost per KiB of payload.
    pub endorse_per_kb: SimTime,
    /// Orderer CPU per block.
    pub order_per_block: SimTime,
    /// Orderer CPU per transaction in a block.
    pub order_per_tx: SimTime,
    /// Peer validation + commit cost per transaction.
    pub validate_per_tx: SimTime,
    /// Additional validation cost per KiB of payload (large view payloads
    /// slow validation — the effect behind Fig 10).
    pub validate_per_kb: SimTime,
    /// Fixed per-block commit cost at a peer.
    pub validate_per_block: SimTime,
    /// Client-side crypto per transaction (the paper measures this as
    /// negligible; kept explicit and small).
    pub client_crypto: SimTime,
}

impl Default for ServiceTimes {
    fn default() -> Self {
        ServiceTimes {
            endorse_per_tx: SimTime::from_micros(700),
            endorse_per_kb: SimTime::from_micros(60),
            order_per_block: SimTime::from_micros(800),
            order_per_tx: SimTime::from_micros(30),
            validate_per_tx: SimTime::from_micros(1_150),
            validate_per_kb: SimTime::from_micros(500),
            validate_per_block: SimTime::from_micros(2_000),
            client_crypto: SimTime::from_micros(150),
        }
    }
}

/// Fabric block-cutting parameters.
#[derive(Clone, Debug)]
pub struct BlockCuttingConfig {
    /// Cut when this many transactions are pending.
    pub max_tx_count: usize,
    /// Cut when pending payload reaches this many bytes.
    pub max_block_bytes: u64,
    /// Cut this long after the first pending transaction arrived.
    pub timeout: SimTime,
}

impl Default for BlockCuttingConfig {
    fn default() -> Self {
        // Fabric's defaults: 500 messages / 512 KiB preferred / 2 s batch
        // timeout. Under light load blocks are cut by the timeout (the
        // paper's ~2.5 s low-load latency); under heavy load by bytes.
        BlockCuttingConfig {
            max_tx_count: 500,
            max_block_bytes: 512 * 1024,
            timeout: SimTime::from_secs(2),
        }
    }
}

/// Full deployment configuration.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Inter-region one-way latencies.
    pub latencies: LatencyMatrix,
    /// Region of each peer (the paper has 2).
    pub peer_regions: Vec<Region>,
    /// Region of the ordering service (the paper's 3 orderers share one).
    pub orderer_region: Region,
    /// Block cutting parameters.
    pub cutting: BlockCuttingConfig,
    /// Stage service times.
    pub times: ServiceTimes,
    /// Shed transactions whose ordering-queue delay would exceed this
    /// (models the baseline becoming "unresponsive" past 48 clients).
    pub orderer_max_queue_delay: Option<SimTime>,
    /// Optional telemetry. When set, the run records per-station queueing
    /// delays, request latency and shed counts into the registry, and a
    /// *virtual-time* block timeline (order / validate spans stamped with
    /// `SimTime`) into the tracer. `None` records nothing and the report
    /// is bit-identical either way.
    pub telemetry: Option<Telemetry>,
}

impl NetworkConfig {
    /// The paper's deployment: peers in `europe-north1-a` and
    /// `northamerica-northeast1-a`, orderers in `asia-southeast1-a`.
    pub fn paper_multi_region() -> NetworkConfig {
        NetworkConfig {
            latencies: LatencyMatrix::gcp_three_regions(),
            peer_regions: vec![Region::EUROPE_NORTH, Region::NA_NORTHEAST],
            orderer_region: Region::ASIA_SOUTHEAST,
            cutting: BlockCuttingConfig::default(),
            times: ServiceTimes::default(),
            orderer_max_queue_delay: Some(SimTime::from_secs(120)),
            telemetry: None,
        }
    }

    /// The single-region comparison deployment of Fig 7.
    pub fn paper_single_region() -> NetworkConfig {
        NetworkConfig {
            latencies: LatencyMatrix::gcp_single_region(),
            ..Self::paper_multi_region()
        }
    }
}

/// One transaction inside a request plan.
#[derive(Clone, Debug)]
pub struct TxSpec {
    /// Which blockchain (pipeline) the transaction goes to.
    pub pipeline: usize,
    /// Serialized payload size (drives block filling and per-KB costs).
    pub payload_bytes: u64,
}

/// An application request: sequential phases of parallel transactions.
#[derive(Clone, Debug)]
pub struct RequestPlan {
    /// Phases executed in order; all transactions within a phase run
    /// concurrently and the phase finishes when the last commits.
    pub phases: Vec<Vec<TxSpec>>,
}

impl RequestPlan {
    /// A single-transaction request on pipeline 0 (revocable views).
    pub fn single(payload_bytes: u64) -> RequestPlan {
        RequestPlan {
            phases: vec![vec![TxSpec {
                pipeline: 0,
                payload_bytes,
            }]],
        }
    }

    /// Total number of on-chain transactions in the plan.
    pub fn tx_count(&self) -> u64 {
        self.phases.iter().map(|p| p.len() as u64).sum()
    }
}

/// One client: a region and its batches of requests. A client submits all
/// requests of a batch concurrently and waits for the batch to finish
/// before starting the next (§6.3: 25 requests per batch, sequential
/// batches).
#[derive(Clone, Debug)]
pub struct ClientPlan {
    /// Where the client runs.
    pub region: Region,
    /// Batches of requests.
    pub batches: Vec<Vec<RequestPlan>>,
}

/// A periodic background transaction (the TxListContract's batched flush,
/// §5.4: accumulated updates written every interval).
#[derive(Clone, Debug)]
pub struct BackgroundTask {
    /// Target pipeline.
    pub pipeline: usize,
    /// Flush interval (the paper suggests 30 s).
    pub interval: SimTime,
    /// Payload of each flush transaction.
    pub payload_bytes: u64,
}

/// Aggregated results of one simulated run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Requests that completed all phases.
    pub completed_requests: u64,
    /// Requests aborted because a transaction was shed under overload.
    pub failed_requests: u64,
    /// Virtual duration from start to last completion.
    pub duration_s: f64,
    /// Committed requests per second.
    pub tps: f64,
    /// Mean request latency (ms).
    pub latency_mean_ms: f64,
    /// Median request latency (ms).
    pub latency_p50_ms: f64,
    /// 95th-percentile request latency (ms).
    pub latency_p95_ms: f64,
    /// Total on-chain transactions (all pipelines, incl. background).
    pub onchain_txs: u64,
    /// Total blocks cut.
    pub blocks: u64,
    /// Total bytes of cut blocks (payloads).
    pub block_bytes: u64,
}

// ---------------------------------------------------------------------
// Internal simulation state
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct TxToken {
    client: usize,
    request: usize,
}

#[derive(Clone, Debug)]
struct PendingTx {
    payload_bytes: u64,
    token: Option<TxToken>,
}

struct Pipeline {
    endorsers: Vec<FifoStation>,
    orderer: FifoStation,
    validators: Vec<FifoStation>,
    pending: Vec<PendingTx>,
    pending_bytes: u64,
    cut_epoch: u64,
    onchain_txs: u64,
    blocks: u64,
    block_bytes: u64,
}

impl Pipeline {
    fn new(n_peers: usize, orderer_bound: Option<SimTime>) -> Pipeline {
        Pipeline {
            endorsers: vec![FifoStation::new(); n_peers],
            orderer: match orderer_bound {
                Some(b) => FifoStation::with_max_queue_delay(b),
                None => FifoStation::new(),
            },
            validators: vec![FifoStation::new(); n_peers],
            pending: Vec::new(),
            pending_bytes: 0,
            cut_epoch: 0,
            onchain_txs: 0,
            blocks: 0,
            block_bytes: 0,
        }
    }
}

struct RequestState {
    start: SimTime,
    remaining_phases: std::collections::VecDeque<Vec<TxSpec>>,
    outstanding: usize,
    failed: bool,
}

struct ClientState {
    region: Region,
    batches: std::collections::VecDeque<Vec<RequestPlan>>,
    active: Vec<RequestState>,
    active_outstanding: usize,
    done: bool,
}

/// Registry handles for the simulated deployment, resolved once per run.
/// Queue delays are what a station's FIFO adds on top of service time —
/// the direct reading of "where does the paper's latency go" in Fig 7.
#[derive(Clone)]
struct NetMetrics {
    telemetry: Telemetry,
    endorser_queue: HistogramHandle,
    orderer_queue: HistogramHandle,
    validator_queue: HistogramHandle,
    blocks: Counter,
    txs_shed: Counter,
    requests_completed: Counter,
    requests_failed: Counter,
}

impl NetMetrics {
    fn new(telemetry: &Telemetry) -> NetMetrics {
        let r = telemetry.registry();
        let queue =
            |station: &str| r.histogram("lv_simnet_queue_delay_seconds", &[("station", station)]);
        NetMetrics {
            endorser_queue: queue("endorser"),
            orderer_queue: queue("orderer"),
            validator_queue: queue("validator"),
            blocks: r.counter("lv_simnet_blocks_total", &[]),
            txs_shed: r.counter("lv_simnet_txs_shed_total", &[]),
            requests_completed: r.counter("lv_simnet_requests_total", &[("outcome", "completed")]),
            requests_failed: r.counter("lv_simnet_requests_total", &[("outcome", "failed")]),
            telemetry: telemetry.clone(),
        }
    }

    /// The FIFO wait a station imposed: completion minus arrival minus
    /// service time, in virtual microseconds.
    fn record_queue_delay(
        histogram: &HistogramHandle,
        arrive: SimTime,
        service: SimTime,
        done: SimTime,
    ) {
        histogram.observe(
            done.saturating_sub(arrive)
                .saturating_sub(service)
                .as_micros(),
        );
    }
}

struct SimWorld {
    config: NetworkConfig,
    pipelines: Vec<Pipeline>,
    clients: Vec<ClientState>,
    active_clients: usize,
    latencies: LatencyRecorder,
    metrics: Option<NetMetrics>,
    completed: u64,
    failed: u64,
    last_completion: SimTime,
}

type Sim = Simulation<SimWorld>;

fn kb_cost(per_kb: SimTime, bytes: u64) -> SimTime {
    SimTime::from_micros(per_kb.as_micros().saturating_mul(bytes) / 1024)
}

/// Submit one transaction into a pipeline; schedules all downstream events.
fn submit_tx(
    world: &mut SimWorld,
    sim: &mut Sim,
    region: Region,
    spec: &TxSpec,
    token: Option<TxToken>,
) {
    let now = sim.now();
    let cfg = &world.config;
    let times = cfg.times.clone();
    let p = spec.pipeline;
    let payload = spec.payload_bytes;

    // Endorsement: all peers in parallel; done when the slowest response
    // arrives back at the client.
    let mut endorse_done = SimTime::ZERO;
    for (i, peer_region) in cfg.peer_regions.clone().iter().enumerate() {
        let arrive = now + times.client_crypto + cfg.latencies.latency(region, *peer_region);
        let service = times.endorse_per_tx + kb_cost(times.endorse_per_kb, payload);
        let done = world.pipelines[p].endorsers[i]
            .submit(arrive, service)
            .expect("endorser stations are unbounded");
        if let Some(m) = &world.metrics {
            NetMetrics::record_queue_delay(&m.endorser_queue, arrive, service, done);
        }
        let back = done + world.config.latencies.latency(*peer_region, region);
        endorse_done = endorse_done.max(back);
    }

    // Client forwards the endorsed transaction to the ordering service.
    let order_arrive = endorse_done
        + world
            .config
            .latencies
            .latency(region, world.config.orderer_region);
    sim.schedule_at(order_arrive, move |w, s| {
        enqueue_for_ordering(w, s, p, payload, token);
    });
}

/// A transaction reaches the orderer's block cutter.
fn enqueue_for_ordering(
    world: &mut SimWorld,
    sim: &mut Sim,
    p: usize,
    payload_bytes: u64,
    token: Option<TxToken>,
) {
    let was_empty = world.pipelines[p].pending.is_empty();
    world.pipelines[p].pending.push(PendingTx {
        payload_bytes,
        token,
    });
    world.pipelines[p].pending_bytes += payload_bytes;

    let cutting = world.config.cutting.clone();
    let pl = &world.pipelines[p];
    if pl.pending.len() >= cutting.max_tx_count || pl.pending_bytes >= cutting.max_block_bytes {
        cut_block(world, sim, p);
    } else if was_empty {
        let epoch = world.pipelines[p].cut_epoch;
        sim.schedule_in(cutting.timeout, move |w, s| {
            if w.pipelines[p].cut_epoch == epoch && !w.pipelines[p].pending.is_empty() {
                cut_block(w, s, p);
            }
        });
    }
}

/// Cut a block: consensus, ordering service, delivery, validation, commit.
fn cut_block(world: &mut SimWorld, sim: &mut Sim, p: usize) {
    let now = sim.now();
    let times = world.config.times.clone();
    let txs = std::mem::take(&mut world.pipelines[p].pending);
    world.pipelines[p].pending_bytes = 0;
    world.pipelines[p].cut_epoch += 1;
    let n = txs.len() as u64;
    let bytes: u64 = txs.iter().map(|t| t.payload_bytes).sum();

    // Raft round among the (colocated) orderers: leader → followers →
    // leader, charged at the intra-orderer-region RTT.
    let consensus = world
        .config
        .latencies
        .rtt(world.config.orderer_region, world.config.orderer_region);
    let order_service = times.order_per_block + times.order_per_tx.scaled(n);
    let Some(ordered_at) = world.pipelines[p]
        .orderer
        .submit(now, order_service + consensus)
    else {
        // Overload shed: every tokened transaction in this block fails.
        if let Some(m) = &world.metrics {
            m.txs_shed.add(n);
        }
        for tx in txs {
            if let Some(token) = tx.token {
                sim.schedule_in(SimTime::ZERO, move |w, s| {
                    tx_completed(w, s, token, true);
                });
            }
        }
        return;
    };
    world.pipelines[p].onchain_txs += n;
    world.pipelines[p].blocks += 1;
    world.pipelines[p].block_bytes += bytes;
    if let Some(m) = &world.metrics {
        m.blocks.inc();
        NetMetrics::record_queue_delay(
            &m.orderer_queue,
            now,
            order_service + consensus,
            ordered_at,
        );
        // Virtual-time block timeline: the span is stamped with `SimTime`
        // microseconds, so the Chrome trace shows the *simulated* schedule.
        m.telemetry.tracer().record_manual(
            "order.block",
            now.as_micros(),
            ordered_at.as_micros(),
            &format!("pipeline{p}/orderer"),
        );
    }

    // Deliver to each peer and validate; a request's completion is signalled
    // by the peer nearest to its client.
    let peer_regions = world.config.peer_regions.clone();
    let mut peer_commit = Vec::with_capacity(peer_regions.len());
    for (i, peer_region) in peer_regions.iter().enumerate() {
        let deliver = ordered_at
            + world
                .config
                .latencies
                .latency(world.config.orderer_region, *peer_region);
        let service = times.validate_per_block
            + times.validate_per_tx.scaled(n)
            + kb_cost(times.validate_per_kb, bytes);
        let done = world.pipelines[p].validators[i]
            .submit(deliver, service)
            .expect("validator stations are unbounded");
        if let Some(m) = &world.metrics {
            NetMetrics::record_queue_delay(&m.validator_queue, deliver, service, done);
            m.telemetry.tracer().record_manual(
                "validate.block",
                deliver.as_micros(),
                done.as_micros(),
                &format!("pipeline{p}/peer{i}"),
            );
        }
        peer_commit.push(done);
    }

    for tx in txs {
        let Some(token) = tx.token else { continue };
        let client_region = world.clients[token.client].region;
        // Nearest peer notifies the client.
        let (commit_at, peer_region) = peer_regions
            .iter()
            .zip(&peer_commit)
            .map(|(r, t)| (*t, *r))
            .min_by_key(|(t, r)| *t + world.config.latencies.latency(*r, client_region))
            .expect("at least one peer");
        let notify = commit_at + world.config.latencies.latency(peer_region, client_region);
        sim.schedule_at(notify, move |w, s| {
            tx_completed(w, s, token, false);
        });
    }
}

/// A transaction of a tracked request finished (or failed under shedding).
fn tx_completed(world: &mut SimWorld, sim: &mut Sim, token: TxToken, failed: bool) {
    let now = sim.now();
    let region = world.clients[token.client].region;
    let (launch_next_phase, request_done) = {
        let client = &mut world.clients[token.client];
        let req = &mut client.active[token.request];
        req.outstanding -= 1;
        req.failed |= failed;
        if req.outstanding > 0 {
            (None, false)
        } else if !req.failed {
            match req.remaining_phases.pop_front() {
                Some(phase) => {
                    req.outstanding = phase.len();
                    (Some(phase), false)
                }
                None => (None, true),
            }
        } else {
            (None, true)
        }
    };

    if let Some(phase) = launch_next_phase {
        for spec in phase {
            submit_tx(world, sim, region, &spec, Some(token));
        }
        return;
    }
    if !request_done {
        return;
    }

    // Request finished: record stats and advance the client's batch.
    let req_failed = world.clients[token.client].active[token.request].failed;
    let start = world.clients[token.client].active[token.request].start;
    if req_failed {
        world.failed += 1;
        if let Some(m) = &world.metrics {
            m.requests_failed.inc();
        }
    } else {
        world.completed += 1;
        world.latencies.record(now.saturating_sub(start));
        world.last_completion = world.last_completion.max(now);
        if let Some(m) = &world.metrics {
            m.requests_completed.inc();
        }
    }
    let client = &mut world.clients[token.client];
    client.active_outstanding -= 1;
    if client.active_outstanding == 0 {
        start_next_batch(world, sim, token.client);
    }
}

/// Launch the client's next batch, or mark it done.
fn start_next_batch(world: &mut SimWorld, sim: &mut Sim, client_idx: usize) {
    let now = sim.now();
    let Some(batch) = world.clients[client_idx].batches.pop_front() else {
        if !world.clients[client_idx].done {
            world.clients[client_idx].done = true;
            world.active_clients -= 1;
        }
        return;
    };
    let region = world.clients[client_idx].region;
    let mut launches: Vec<(usize, Vec<TxSpec>)> = Vec::new();
    {
        let client = &mut world.clients[client_idx];
        client.active.clear();
        client.active_outstanding = batch.len();
        for (ri, plan) in batch.into_iter().enumerate() {
            let mut phases: std::collections::VecDeque<Vec<TxSpec>> = plan.phases.into();
            let first = phases.pop_front().unwrap_or_default();
            client.active.push(RequestState {
                start: now,
                remaining_phases: phases,
                outstanding: first.len(),
                failed: false,
            });
            launches.push((ri, first));
        }
    }
    for (ri, phase) in launches {
        if phase.is_empty() {
            // Degenerate empty request: complete immediately.
            let token = TxToken {
                client: client_idx,
                request: ri,
            };
            world.clients[client_idx].active[ri].outstanding = 1;
            sim.schedule_in(SimTime::ZERO, move |w, s| tx_completed(w, s, token, false));
            continue;
        }
        for spec in phase {
            let token = TxToken {
                client: client_idx,
                request: ri,
            };
            submit_tx(world, sim, region, &spec, Some(token));
        }
    }
}

fn schedule_background(sim: &mut Sim, task: BackgroundTask) {
    let interval = task.interval;
    sim.schedule_in(interval, move |w: &mut SimWorld, s| {
        if w.active_clients == 0 {
            return; // workload over: stop flushing
        }
        let spec = TxSpec {
            pipeline: task.pipeline,
            payload_bytes: task.payload_bytes,
        };
        // Background flushes originate at the first peer's region.
        let region = w.config.peer_regions[0];
        submit_tx(w, s, region, &spec, None);
        schedule_background(s, task.clone());
    });
}

/// Run a full workload and report throughput, latency and on-chain costs.
///
/// `n_pipelines` is the number of independent blockchains (1 for the view
/// methods; `1 + |V|` for the cross-chain baseline).
pub fn run_simulation(
    config: NetworkConfig,
    n_pipelines: usize,
    clients: Vec<ClientPlan>,
    background: Vec<BackgroundTask>,
) -> RunReport {
    assert!(n_pipelines >= 1, "need at least one pipeline");
    assert!(!clients.is_empty(), "need at least one client");
    let n_peers = config.peer_regions.len();
    let orderer_bound = config.orderer_max_queue_delay;
    let metrics = config.telemetry.as_ref().map(NetMetrics::new);
    // Request latency feeds the registry's histogram when telemetry is
    // attached; the report's quantiles come from the same recorder either
    // way, so attaching telemetry cannot change the numbers.
    let latencies = match &config.telemetry {
        Some(t) => LatencyRecorder::over(
            t.registry()
                .histogram("lv_simnet_request_seconds", &[])
                .shared(),
        ),
        None => LatencyRecorder::new(),
    };
    let mut world = SimWorld {
        pipelines: (0..n_pipelines)
            .map(|_| Pipeline::new(n_peers, orderer_bound))
            .collect(),
        clients: clients
            .into_iter()
            .map(|c| ClientState {
                region: c.region,
                batches: c.batches.into(),
                active: Vec::new(),
                active_outstanding: 0,
                done: false,
            })
            .collect(),
        active_clients: 0,
        latencies,
        metrics,
        completed: 0,
        failed: 0,
        last_completion: SimTime::ZERO,
        config,
    };
    world.active_clients = world.clients.len();

    let mut sim: Sim = Simulation::new();
    for i in 0..world.clients.len() {
        sim.schedule_at(SimTime::ZERO, move |w, s| start_next_batch(w, s, i));
    }
    for task in background {
        schedule_background(&mut sim, task);
    }
    sim.run(&mut world);

    let duration_s = world.last_completion.as_secs_f64();
    let onchain_txs: u64 = world.pipelines.iter().map(|p| p.onchain_txs).sum();
    let blocks: u64 = world.pipelines.iter().map(|p| p.blocks).sum();
    let block_bytes: u64 = world.pipelines.iter().map(|p| p.block_bytes).sum();
    RunReport {
        completed_requests: world.completed,
        failed_requests: world.failed,
        duration_s,
        tps: if duration_s > 0.0 {
            world.completed as f64 / duration_s
        } else {
            0.0
        },
        latency_mean_ms: world.latencies.mean_millis(),
        latency_p50_ms: world.latencies.quantile_millis(0.5),
        latency_p95_ms: world.latencies.quantile_millis(0.95),
        onchain_txs,
        blocks,
        block_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_client(n_batches: usize, batch: usize, payload: u64) -> Vec<ClientPlan> {
        vec![ClientPlan {
            region: Region::EUROPE_NORTH,
            batches: (0..n_batches)
                .map(|_| (0..batch).map(|_| RequestPlan::single(payload)).collect())
                .collect(),
        }]
    }

    #[test]
    fn single_request_completes_with_sane_latency() {
        let report = run_simulation(
            NetworkConfig::paper_multi_region(),
            1,
            one_client(1, 1, 512),
            vec![],
        );
        assert_eq!(report.completed_requests, 1);
        assert_eq!(report.failed_requests, 0);
        assert_eq!(report.onchain_txs, 1);
        assert_eq!(report.blocks, 1);
        // One lonely transaction waits out the 2 s block timeout plus
        // cross-region hops: between 2 s and 4 s.
        assert!(
            report.latency_mean_ms > 2_000.0 && report.latency_mean_ms < 4_000.0,
            "latency {} ms",
            report.latency_mean_ms
        );
    }

    #[test]
    fn throughput_saturates_with_many_clients() {
        let cfg = NetworkConfig::paper_multi_region;
        let tps_at = |n_clients: usize| {
            let clients = (0..n_clients)
                .map(|i| ClientPlan {
                    region: if i % 2 == 0 {
                        Region::EUROPE_NORTH
                    } else {
                        Region::NA_NORTHEAST
                    },
                    batches: (0..4)
                        .map(|_| (0..25).map(|_| RequestPlan::single(512)).collect())
                        .collect(),
                })
                .collect();
            run_simulation(cfg(), 1, clients, vec![]).tps
        };
        let t4 = tps_at(4);
        let t16 = tps_at(16);
        let t64 = tps_at(64);
        let t96 = tps_at(96);
        assert!(t16 > t4 * 1.5, "t4={t4} t16={t16}");
        assert!(t64 > t16, "t16={t16} t64={t64}");
        // Saturation: 96 clients is within ~25% of 64 clients.
        assert!((t96 - t64).abs() / t64 < 0.35, "t64={t64} t96={t96}");
        // The knee lands in the paper's ballpark (hundreds of TPS).
        assert!(t64 > 300.0 && t64 < 2_000.0, "t64={t64}");
    }

    #[test]
    fn two_phase_requests_double_onchain_txs_and_latency() {
        let single = run_simulation(
            NetworkConfig::paper_multi_region(),
            1,
            one_client(2, 10, 512),
            vec![],
        );
        let two_phase_plan = RequestPlan {
            phases: vec![
                vec![TxSpec {
                    pipeline: 0,
                    payload_bytes: 512,
                }],
                vec![TxSpec {
                    pipeline: 0,
                    payload_bytes: 2048,
                }],
            ],
        };
        let clients = vec![ClientPlan {
            region: Region::EUROPE_NORTH,
            batches: (0..2).map(|_| vec![two_phase_plan.clone(); 10]).collect(),
        }];
        let double = run_simulation(NetworkConfig::paper_multi_region(), 1, clients, vec![]);
        assert_eq!(double.onchain_txs, 2 * single.onchain_txs);
        assert!(double.latency_mean_ms > 1.5 * single.latency_mean_ms);
    }

    #[test]
    fn cross_chain_plan_touches_all_pipelines() {
        let v = 4;
        let plan = RequestPlan {
            phases: vec![
                (1..=v)
                    .map(|p| TxSpec {
                        pipeline: p,
                        payload_bytes: 512,
                    })
                    .collect(),
                (1..=v)
                    .map(|p| TxSpec {
                        pipeline: p,
                        payload_bytes: 128,
                    })
                    .collect(),
            ],
        };
        let clients = vec![ClientPlan {
            region: Region::EUROPE_NORTH,
            batches: vec![vec![plan; 5]],
        }];
        let report = run_simulation(NetworkConfig::paper_multi_region(), 1 + v, clients, vec![]);
        assert_eq!(report.completed_requests, 5);
        assert_eq!(report.onchain_txs, (2 * v * 5) as u64);
    }

    #[test]
    fn background_flushes_add_onchain_txs_but_no_requests() {
        let with_bg = run_simulation(
            NetworkConfig::paper_multi_region(),
            1,
            one_client(4, 25, 512),
            vec![BackgroundTask {
                pipeline: 0,
                interval: SimTime::from_secs(3),
                payload_bytes: 4096,
            }],
        );
        let without = run_simulation(
            NetworkConfig::paper_multi_region(),
            1,
            one_client(4, 25, 512),
            vec![],
        );
        assert_eq!(with_bg.completed_requests, without.completed_requests);
        assert!(with_bg.onchain_txs > without.onchain_txs);
    }

    #[test]
    fn single_region_is_faster_than_multi_region() {
        let multi = run_simulation(
            NetworkConfig::paper_multi_region(),
            1,
            one_client(2, 25, 512),
            vec![],
        );
        let single = run_simulation(
            NetworkConfig::paper_single_region(),
            1,
            one_client(2, 25, 512),
            vec![],
        );
        assert!(single.latency_mean_ms < multi.latency_mean_ms);
    }

    #[test]
    fn larger_payloads_reduce_throughput() {
        let many_clients = |payload: u64| {
            let clients = (0..16)
                .map(|_| ClientPlan {
                    region: Region::EUROPE_NORTH,
                    batches: (0..3)
                        .map(|_| (0..25).map(|_| RequestPlan::single(payload)).collect())
                        .collect(),
                })
                .collect();
            run_simulation(NetworkConfig::paper_multi_region(), 1, clients, vec![])
        };
        let small = many_clients(256);
        let large = many_clients(64 * 1024);
        assert!(
            large.tps < small.tps,
            "small={} large={}",
            small.tps,
            large.tps
        );
        assert!(large.latency_mean_ms > small.latency_mean_ms);
    }

    #[test]
    fn overload_shedding_fails_requests() {
        let mut cfg = NetworkConfig::paper_multi_region();
        cfg.orderer_max_queue_delay = Some(SimTime::from_millis(1));
        // Single-transaction blocks with a slow orderer: the second block
        // of a batch already exceeds the queue bound and is shed.
        cfg.cutting.max_tx_count = 1;
        cfg.times.order_per_block = SimTime::from_millis(500);
        let report = run_simulation(cfg, 1, one_client(2, 25, 512), vec![]);
        assert!(report.failed_requests > 0, "report: {report:?}");
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            run_simulation(
                NetworkConfig::paper_multi_region(),
                1,
                one_client(2, 10, 512),
                vec![],
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.tps, b.tps);
        assert_eq!(a.latency_mean_ms, b.latency_mean_ms);
        assert_eq!(a.onchain_txs, b.onchain_txs);
    }

    #[test]
    fn telemetry_records_queue_delays_without_changing_the_report() {
        let telemetry = Telemetry::wall_clock();
        let mut cfg = NetworkConfig::paper_multi_region();
        cfg.telemetry = Some(telemetry.clone());
        let observed = run_simulation(cfg, 1, one_client(2, 10, 512), vec![]);
        let plain = run_simulation(
            NetworkConfig::paper_multi_region(),
            1,
            one_client(2, 10, 512),
            vec![],
        );
        // Same virtual schedule whether or not anyone is watching.
        assert_eq!(observed.tps, plain.tps);
        assert_eq!(observed.latency_mean_ms, plain.latency_mean_ms);
        assert_eq!(observed.blocks, plain.blocks);

        let r = telemetry.registry();
        assert_eq!(r.counter("lv_simnet_blocks_total", &[]).get(), plain.blocks);
        assert_eq!(
            r.counter("lv_simnet_requests_total", &[("outcome", "completed")])
                .get(),
            plain.completed_requests
        );
        // Every endorsement passed through a station, so the queue-delay
        // histogram saw one sample per (tx, peer) pair.
        let endorser = r.histogram("lv_simnet_queue_delay_seconds", &[("station", "endorser")]);
        assert_eq!(endorser.histogram().count(), plain.onchain_txs * 2);
        // Request latency is mirrored into the registry in microseconds.
        let req = r.histogram("lv_simnet_request_seconds", &[]);
        assert_eq!(req.histogram().count(), plain.completed_requests);
        assert!(
            req.histogram().max() > 2_000_000,
            "max {} µs",
            req.histogram().max()
        );
        // The virtual-time block timeline landed in the tracer.
        let spans = telemetry.tracer().recent();
        assert!(spans.iter().any(|s| s.name == "order.block"));
        assert!(spans.iter().any(|s| s.name == "validate.block"));
    }
}
