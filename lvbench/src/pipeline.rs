//! `pipeline_uniform`: the whole replicated pipeline as `ClusterSim`
//! assembles it — endorse → precheck/reorder → batch encode → Raft →
//! decode → disseminate → VSCC → MVCC → state → digest → WAL on three
//! durable peers. Open loop in virtual time (one submission per virtual
//! millisecond); no virtual sleep is slept, so a run to convergence is a
//! fixed batch of CPU work in wall time.

use std::collections::VecDeque;
use std::time::Instant;

use fabric_sim::chaincode::RwSet;
use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::ledger::{Block, Transaction};
use fabric_sim::parallel::ValidationConfig;
use fabric_sim::raft::{NodeId, Outgoing, RaftNode};
use fabric_sim::{FabricChain, Identity, StorageConfig};
use fabric_store::wal::FsyncPolicy;
use ledgerview_cluster::{ClusterConfig, ClusterReport, ClusterSim, InvokeOutcome, OrderedBatch};
use ledgerview_crypto::rng::seeded;
use ledgerview_gateway::{reorder, CounterChaincode, ReorderConfig};
use ledgerview_simnet::SimTime;
use ledgerview_telemetry::TraceContext;

use crate::harness::{dir_bytes, median, percentile, secs, Rep, Scratch, Stopwatch};
use crate::inputs::counter_deck;
use crate::probes::{self, row, Row};
use crate::spans::Spans;

/// Keys the increments are drawn from, uniformly.
pub const KEYSPACE: usize = 100_000;
/// Virtual time of the first submission (the ordering service has elected
/// a leader by then) and the spacing of the rest: ≈ 250 tx per 250 ms
/// block.
const FIRST_SUBMIT: SimTime = SimTime::from_millis(300);
const SUBMIT_EVERY: SimTime = SimTime::from_millis(1);

/// The cluster every repetition builds: the crate defaults (3 Raft
/// orderers, 3 durable peers, endorsement signatures on) with peer VSCC on
/// a 2-worker pool, conflict-aware cutting, and the benchmark's flush
/// policy.
pub fn cluster_config(scratch: &Scratch, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(scratch.path(), seed);
    cfg.validation = ValidationConfig::parallel(2);
    cfg.reorder = ReorderConfig::enabled();
    cfg.fsync = FsyncPolicy::EveryN(512);
    cfg
}

/// What one run of the cluster produced beyond its [`Rep`].
pub struct SimRun {
    pub rep: Rep,
    pub report: ClusterReport,
    pub makespan: SimTime,
}

/// Build a cluster, submit the deck, run to convergence, and check every
/// gate: peers converged on the canonical root, Raft logs match, no
/// divergence, every tag resolved.
pub fn run_sim(seed: u64, txs: usize) -> SimRun {
    let scratch = Scratch::new("pipeline");
    let setup = Instant::now();
    let deck = counter_deck(seed, txs, KEYSPACE);
    let mut sim = ClusterSim::new(cluster_config(&scratch, seed)).expect("cluster builds");
    for (i, key) in deck.into_iter().enumerate() {
        sim.schedule_call(
            FIRST_SUBMIT + SUBMIT_EVERY.scaled(i as u64),
            "counter",
            "incr",
            vec![key.into_bytes(), b"1".to_vec()],
            i as u64,
            None,
        );
    }
    let setup_s = secs(setup.elapsed());

    let watch = Stopwatch::start();
    let converged = sim
        .run_until_converged(SimTime::from_secs(600))
        .expect("cluster converges");
    let (wall_s, cpu_us) = watch.stop();

    sim.verify_convergence()
        .expect("peers reach the canonical root");
    sim.check_raft_log_matching().expect("raft logs match");
    let report = sim.report();
    assert!(
        report.divergences.is_empty(),
        "peer diverged: {:?}",
        report.divergences
    );
    let outcomes = sim.take_outcomes();
    let mut resolved = vec![false; txs];
    let mut valid = 0u64;
    for (tag, outcome) in &outcomes {
        assert!(!resolved[*tag as usize], "tag {tag} resolved twice");
        resolved[*tag as usize] = true;
        if matches!(outcome, InvokeOutcome::Committed { valid } if valid.is_valid()) {
            valid += 1;
        }
    }
    assert!(
        resolved.iter().all(|r| *r),
        "a submission was never resolved"
    );
    let fingerprint = sim.canonical_root().to_hex();
    drop(sim);
    SimRun {
        rep: Rep {
            setup_s: Some(setup_s),
            wall_s,
            cpu_us,
            attempted: txs as u64,
            valid,
            stored_bytes: dir_bytes(scratch.path()),
            fingerprint,
        },
        report,
        makespan: converged.saturating_sub(FIRST_SUBMIT),
    }
}

// ---- traced run: the stage-unrolled replay ------------------------------

/// The same deck driven through the pipeline's public functions one stage
/// at a time, because `ClusterSim` is opaque from outside: `invoke` ×N →
/// `precheck` + `reorder::plan` → `take_pending` → `OrderedBatch::encode`
/// → a zero-delay 3-node Raft loop → `OrderedBatch::decode` →
/// `commit_ordered` on the canonical chain and three durable peers. What
/// `ClusterSim` spends beyond these stages (event loop, bookkeeping) is
/// the coverage remainder.
pub struct Unrolled {
    pub wall_s: f64,
    pub batches: u64,
    pub batch_bytes: u64,
    pub raft_msgs: u64,
    pub canonical: FabricChain,
    pub client: Identity,
}

/// Deliver Raft messages with zero delay until the network is quiet;
/// returns how many were delivered.
fn drain_raft(nodes: &mut [RaftNode], from: NodeId, first: Vec<Outgoing>, now: SimTime) -> u64 {
    let mut queue: VecDeque<(NodeId, Outgoing)> = first.into_iter().map(|o| (from, o)).collect();
    let mut delivered = 0;
    while let Some((sender, out)) = queue.pop_front() {
        delivered += 1;
        let to = out.to;
        for reply in nodes[to].handle(sender, out.msg, now) {
            queue.push_back((to, reply));
        }
    }
    delivered
}

pub fn run_unrolled(seed: u64, txs: usize, spans: &mut Spans) -> Unrolled {
    let scratch = Scratch::new("pipeline-unrolled");
    let cfg = cluster_config(&scratch, seed);
    let names: Vec<&str> = cfg.org_names.iter().map(String::as_str).collect();
    let deploy = |chain: &mut FabricChain| {
        chain.deploy(
            "counter",
            Box::new(CounterChaincode),
            EndorsementPolicy::AnyOf(chain.org_ids()),
        );
    };
    // Identities as `ClusterSim::new` derives them, so signing bytes match.
    let mut id_rng = seeded(cfg.identity_seed);
    let mut canonical = FabricChain::new(&names, &mut id_rng);
    canonical.set_check_signatures(cfg.check_signatures);
    deploy(&mut canonical);
    let client_org = canonical.org_ids()[0].clone();
    let client = canonical
        .enroll(&client_org, "cluster-client", &mut id_rng)
        .expect("enroll client");
    let mut peers: Vec<FabricChain> = (0..cfg.peers)
        .map(|p| {
            let storage = StorageConfig::new(scratch.path().join(format!("peer{p}")))
                .fsync(cfg.fsync)
                .checkpoint_every(cfg.checkpoint_every)
                .wal_segment_bytes(cfg.wal_segment_bytes);
            let mut chain = FabricChain::with_storage(
                &names,
                &mut seeded(cfg.identity_seed),
                storage,
                cfg.validation.clone(),
            )
            .expect("open peer");
            deploy(&mut chain);
            chain
        })
        .collect();

    // Elect a leader by walking the nodes' own deadlines.
    let ids: Vec<NodeId> = (0..cfg.orderers).collect();
    let mut nodes: Vec<RaftNode> = ids
        .iter()
        .map(|&id| {
            let others = ids.iter().copied().filter(|&p| p != id).collect();
            RaftNode::new(id, others, cfg.raft.clone(), cfg.seed, SimTime::ZERO)
        })
        .collect();
    let mut now = SimTime::ZERO;
    let leader = loop {
        if let Some(l) = nodes.iter().position(RaftNode::is_leader) {
            break l;
        }
        let next = (0..nodes.len())
            .min_by_key(|&i| nodes[i].next_deadline())
            .expect("orderers exist");
        now = now.max(nodes[next].next_deadline());
        let outs = nodes[next].tick(now);
        drain_raft(&mut nodes, next, outs, now);
    };

    // One batch per block interval: the cutter at virtual time T takes the
    // submissions due by T.
    let deck = counter_deck(seed, txs, KEYSPACE);
    let per_interval = (cfg.block_interval.as_micros() / SUBMIT_EVERY.as_micros()) as usize;
    let first = per_interval
        - (FIRST_SUBMIT.as_micros() % cfg.block_interval.as_micros() / SUBMIT_EVERY.as_micros())
            as usize;
    let mut submit_rng = seeded(seed ^ 0x5EED_C1AE_57E2_0001);
    let (mut batches, mut batch_bytes, mut raft_msgs) = (0u64, 0u64, 0u64);
    let mut next = 0usize;
    let watch = Instant::now();
    while next < deck.len() || canonical.pending_count() > 0 {
        let take = if batches == 0 { first } else { per_interval };
        let op = batches;
        spans.time("pipeline.batch", op, |spans| {
            for key in deck.iter().skip(next).take(take) {
                spans.time("fabric.endorse", op, |_| {
                    canonical
                        .invoke(
                            &client,
                            "counter",
                            "incr",
                            vec![key.clone().into_bytes(), b"1".to_vec()],
                            &mut submit_rng,
                        )
                        .expect("endorse")
                });
            }
            next = (next + take).min(deck.len());

            let doomed = spans.time("gateway.precheck", op, |_| canonical.precheck_pending());
            let plan = spans.time("gateway.reorder_plan", op, |_| {
                let rwsets: Vec<&RwSet> = canonical.pending().iter().map(|t| &t.rwset).collect();
                reorder::plan(&rwsets, &doomed, &cfg.reorder, |_| true)
            });
            let mut pulled: Vec<Option<Transaction>> =
                canonical.take_pending().into_iter().map(Some).collect();
            let kept: Vec<Transaction> = plan
                .order
                .iter()
                .map(|&i| pulled[i].take().expect("scheduled once"))
                .collect();
            // Early-aborted and deferred transactions are re-endorsed into
            // the next batch, as the cluster's cutter does.
            for tx in pulled.into_iter().flatten() {
                spans.time("fabric.endorse", op, |_| {
                    canonical
                        .invoke(
                            &client,
                            &tx.chaincode,
                            &tx.function,
                            tx.args,
                            &mut submit_rng,
                        )
                        .expect("re-endorse")
                });
            }
            if kept.is_empty() {
                return;
            }
            let timestamp_us = cfg.block_interval.as_micros() * (batches + 2);
            let traces = (0..kept.len() as u64)
                .map(|i| TraceContext::root(cfg.seed, batches << 32 | i))
                .collect();
            let batch = OrderedBatch {
                batch_id: batches,
                timestamp_us,
                transactions: kept,
                traces,
            };
            let encoded = spans.time("cluster.batch_encode", op, |_| batch.encode());
            batch_bytes += encoded.len() as u64;

            let committed = spans.time("fabric.raft_replicate", op, |_| {
                let (_, outs) = nodes[leader].propose(encoded, now).expect("leader accepts");
                raft_msgs += drain_raft(&mut nodes, leader, outs, now);
                let mut entries = nodes[leader].take_committed();
                assert_eq!(entries.len(), 1, "one batch commits per proposal");
                entries.remove(0).1
            });
            let decoded = spans.time("cluster.batch_decode", op, |_| {
                OrderedBatch::decode(&committed.data).expect("batch decodes")
            });
            spans.time("fabric.commit_ordered.canonical", op, |_| {
                canonical.commit_ordered(decoded.transactions.clone(), decoded.timestamp_us)
            });
            for peer in &mut peers {
                spans.time("fabric.commit_ordered.peer", op, |_| {
                    peer.commit_ordered(decoded.transactions.clone(), decoded.timestamp_us)
                });
                assert_eq!(peer.state_root(), canonical.state_root(), "peer diverged");
            }
        });
        batches += 1;
    }
    let wall_s = secs(watch.elapsed());
    Unrolled {
        wall_s,
        batches,
        batch_bytes,
        raft_msgs,
        canonical,
        client,
    }
}

/// The traced run: `ClusterSim` and the unrolled replay a few times each
/// (their medians set the coverage), the unrolled stages as ledger rows,
/// and the layer probes on the blocks the replay committed.
pub fn trace(seed: u64, txs: usize, spans: &mut Spans) -> Vec<Row> {
    // Single runs on a shared box vary by several percent; medians over a
    // few rounds steady the ratio, and more rounds are added before the
    // coverage assertion is allowed to fail.
    const MIN_ROUNDS: usize = 3;
    const MAX_ROUNDS: usize = 7;
    let mut sim_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let (sim, unrolled, coverage) = loop {
        let sim = run_sim(seed, txs);
        sim_s.push(sim.rep.wall_s);
        untraced_s.push(run_unrolled(seed, txs, &mut Spans::off()).wall_s);
        // The spans of the last round are the one traced repetition kept.
        *spans = Spans::on();
        let unrolled = run_unrolled(seed, txs, spans);
        traced_s.push(unrolled.wall_s);
        let coverage = median(&untraced_s) / median(&sim_s);
        let rounds = sim_s.len();
        if rounds >= MIN_ROUNDS && ((0.85..=1.15).contains(&coverage) || rounds == MAX_ROUNDS) {
            break (sim, unrolled, coverage);
        }
    };
    assert!(
        (0.85..=1.15).contains(&coverage),
        "unrolled replay covers {coverage:.3} of ClusterSim wall time (want 0.85-1.15)"
    );
    let rounds = sim_s.len() as u64;
    let (sim_wall, unrolled_wall) = (median(&sim_s), median(&untraced_s));

    let n = txs as f64;
    let batches = unrolled.batches as f64;
    let peer_commits = spans.ms("fabric.commit_ordered.peer");
    let endorsed = spans.ms("fabric.endorse").len() as u64;
    let per = |span: &str, divisor: f64| spans.total_s(span) * 1e6 / divisor;
    let mut rows = vec![
        row(
            "fabric.endorse_us_per_tx",
            per("fabric.endorse", endorsed as f64),
            endorsed,
        ),
        row(
            "gateway.precheck_us_per_tx",
            per("gateway.precheck", n),
            txs as u64,
        ),
        row(
            "gateway.reorder_plan_us_per_batch",
            per("gateway.reorder_plan", batches),
            unrolled.batches,
        ),
        row(
            "gateway.reorder_early_aborts",
            sim.report.reorder_early_aborts as f64,
            1,
        ),
        row(
            "gateway.reorder_deferrals",
            sim.report.reorder_deferrals as f64,
            1,
        ),
        row(
            "cluster.batch_encode_us_per_tx",
            per("cluster.batch_encode", n),
            txs as u64,
        ),
        row(
            "cluster.batch_decode_us_per_tx",
            per("cluster.batch_decode", n),
            txs as u64,
        ),
        row(
            "cluster.batch_bytes_per_tx",
            unrolled.batch_bytes as f64 / n,
            txs as u64,
        ),
        row(
            "cluster.txs_per_block",
            sim.report.txs as f64 / sim.report.blocks.max(1) as f64,
            sim.report.blocks,
        ),
        row("cluster.resubmits", sim.report.resubmits as f64, 1),
        row("cluster.unrolled_coverage", coverage, rounds),
        row(
            "cluster.sim_overhead_us_per_tx",
            (sim_wall - unrolled_wall) * 1e6 / n,
            rounds,
        ),
        row("cluster.virt_makespan_s", sim.makespan.as_secs_f64(), 1),
        row(
            "fabric.raft_replicate_us_per_batch",
            per("fabric.raft_replicate", batches),
            unrolled.batches,
        ),
        row(
            "fabric.raft_msgs_per_batch",
            unrolled.raft_msgs as f64 / batches,
            unrolled.batches,
        ),
        row("fabric.raft_elections", sim.report.elections as f64, 1),
        row(
            "fabric.commit_ordered_us_per_tx",
            per(
                "fabric.commit_ordered.peer",
                n * peer_commits.len() as f64 / batches,
            ),
            txs as u64,
        ),
        row(
            "fabric.block_commit_ms_p50",
            median(&peer_commits),
            peer_commits.len() as u64,
        ),
        row(
            "fabric.block_commit_ms_p90",
            percentile(&peer_commits, 0.90),
            peer_commits.len() as u64,
        ),
        row(
            "fabric.block_commit_ms_max",
            percentile(&peer_commits, 1.0),
            peer_commits.len() as u64,
        ),
        row(
            "telemetry.trace_overhead_pct",
            (median(&traced_s) / unrolled_wall - 1.0) * 100.0,
            2 * rounds,
        ),
    ];
    let chain = &unrolled.canonical;
    let blocks: Vec<&Block> = chain.store().iter().collect();
    let policy = EndorsementPolicy::AnyOf(chain.org_ids());
    rows.extend(probes::crypto_signatures(&blocks, &unrolled.client));
    rows.extend(probes::wire(&blocks));
    rows.extend(probes::validator(&blocks, 0, chain.msp(), &policy, true));
    rows.extend(probes::digest(&blocks, 0));
    rows.extend(probes::store(&blocks, 0));
    rows
}
