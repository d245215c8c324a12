//! A deterministic replication cluster for the LedgerView substrate.
//!
//! The paper's evaluation runs on a real topology — two peers and three
//! Raft orderers spread across three GCP regions (§6, *Experimental
//! setup*) — while the rest of this repo commits every block on a single
//! in-process chain. This crate closes that gap with a multi-node harness
//! that runs entirely on the discrete-event simulator's virtual clock:
//!
//! * **Ordering service** ([`cluster`]): N [`fabric_sim::raft::RaftNode`]s
//!   exchange protocol messages over simnet links with per-link latencies
//!   from [`ledgerview_simnet::LatencyMatrix`]. Elections, leader failover
//!   and partitions all play out in virtual time; client batches are
//!   replicated as opaque payloads ([`batch::OrderedBatch`]) through the
//!   Raft log.
//! * **Peers**: each owns a [`fabric_sim::FabricChain`] with its own
//!   durable storage directory, receives committed blocks via leader-based
//!   dissemination with a per-peer delivery queue, validates and commits
//!   independently, and is cross-checked against the canonical rolling
//!   state root — any divergence becomes a typed [`fault::Divergence`].
//! * **Catch-up**: a peer comes back one way — open its directory and
//!   replay what it lacks from the ordering service. A restarted peer
//!   recovers its durable prefix, so only the delta replays; a full-replay
//!   join is a restart of an empty directory; a snapshot join first
//!   installs a digest-verified [`fabric_sim::ChainSnapshot`] shipped by
//!   a healthy peer — O(state), not O(history) — then replays the tail.
//!   A restart that finds its directory corrupt sets it aside and heals
//!   through a snapshot join.
//! * **Fault injection** ([`fault::Fault`]): crashes, restarts, orderer
//!   kills, partitions, heals and slow links are scheduled at virtual
//!   times, so every failure scenario is reproducible from its seed alone.
//!
//! Telemetry (`lv_cluster_*`) and the deterministic
//! [`ledgerview_gateway::RetryPolicy::for_leader_routing`] backoff (for
//! `NotLeader` re-routing) are wired through; see
//! `examples/cluster_failover.rs`, and `tests/virtual_time_goldens.rs` for
//! the pinned pipeline throughput and bootstrap costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cluster;
pub mod fault;
mod metrics;

use std::path::PathBuf;
use std::sync::Arc;

use fabric_sim::chaincode::Chaincode;
use fabric_sim::parallel::ValidationConfig;
use fabric_sim::raft::RaftConfig;
use fabric_store::FsyncPolicy;
use ledgerview_simnet::{Region, SimTime};

pub use batch::OrderedBatch;
// The cluster's cut stage and counter chaincode, re-exported so callers
// stop importing the crate that still holds them.
pub use cluster::{CatchupRecord, ClusterReport, ClusterSim, InvokeOutcome};
pub use fault::{BootstrapMode, ClusterError, Divergence, Fault};
pub use ledgerview_gateway::{reorder, CounterChaincode, ReorderConfig};

/// Builds a fresh chaincode instance for every replica that deploys it.
///
/// Every peer (and the ordering-side endorser) constructs its own copy,
/// so factories must be pure: two instances given identical invocation
/// sequences must produce identical writes, or replicas diverge.
pub type WorkloadFactory = Arc<dyn Fn() -> Box<dyn Chaincode> + Send + Sync>;

/// Cluster shape, timing, and storage parameters.
///
/// Everything observable about a run is a pure function of this config
/// (including `seed`): two [`ClusterSim`]s built from equal configs
/// produce bit-identical commit histories and state roots.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of ordering-service Raft nodes (the paper runs 3).
    pub orderers: usize,
    /// Number of committing peers at start (more can join via snapshot
    /// bootstrap).
    pub peers: usize,
    /// Master seed: drives Raft election jitter, submission tx ids, and
    /// `NotLeader` re-routing backoff jitter.
    pub seed: u64,
    /// Seed for organisation/peer identity derivation. Every replica uses
    /// the same value so all MSPs are bit-identical.
    pub identity_seed: u64,
    /// Raft election/heartbeat timing.
    pub raft: RaftConfig,
    /// Peer regions, cycled when there are more peers than entries.
    pub peer_regions: Vec<Region>,
    /// Period of the ordering service's block cutter: pending endorsed
    /// transactions are batched and proposed every interval.
    pub block_interval: SimTime,
    /// Conflict-aware ordering at the batch cutter ([`ReorderConfig`]):
    /// doomed transactions are re-endorsed instead of burning a slot in a
    /// replicated block, and intra-batch dependency cycles are broken by
    /// deferral to the next batch. Off by default.
    pub reorder: ReorderConfig,
    /// Modeled transfer bandwidth for snapshot shipping and block replay,
    /// in bytes per virtual second.
    pub catchup_bandwidth_bytes_per_sec: u64,
    /// Root directory; peer `i` persists under `<root>/peer<i>`.
    pub storage_root: PathBuf,
    /// Checkpoint cadence for each peer's durable backend, in blocks.
    pub checkpoint_every: u64,
    /// Ignored: peers keep no write-ahead log. Kept because `lvbench` reads it.
    pub wal_segment_bytes: u64,
    /// fsync policy for each peer's block file (virtual-time runs default
    /// to `Never`; physical durability is exercised by `fabric-store`'s
    /// own tests).
    pub fsync: FsyncPolicy,
    /// Commit-time validation pipeline configuration for every peer.
    pub validation: ValidationConfig,
    /// Whether endorsement signatures are checked at endorsement time
    /// (endorsers sign either way).
    pub check_signatures: bool,
    /// Organisation names shared by every replica.
    pub org_names: Vec<String>,
    /// Additional chaincodes deployed on every replica alongside the
    /// default counter workload, as `(name, factory)` pairs. A sharded
    /// deployment uses this to host the 2PC transfer/coordinator
    /// contracts on cluster-backed channels.
    pub workloads: Vec<(String, WorkloadFactory)>,
    /// Prefix for this cluster's Perfetto process-lane names (e.g.
    /// `"shard3/"` → `shard3/gateway`, `shard3/orderer-0`, …). Keeps the
    /// lanes of multiple clusters sharing one [`ledgerview_telemetry::Telemetry`] distinct.
    pub lane_prefix: String,
}

impl ClusterConfig {
    /// A 3-orderer / 3-peer cluster on the paper's three-region topology,
    /// persisting under `storage_root`.
    pub fn new(storage_root: impl Into<PathBuf>, seed: u64) -> ClusterConfig {
        ClusterConfig {
            orderers: 3,
            peers: 3,
            seed,
            identity_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            raft: RaftConfig::default(),
            peer_regions: vec![
                Region::EUROPE_NORTH,
                Region::NA_NORTHEAST,
                Region::ASIA_SOUTHEAST,
            ],
            block_interval: SimTime::from_millis(250),
            reorder: ReorderConfig::default(),
            catchup_bandwidth_bytes_per_sec: 16 * 1024 * 1024,
            storage_root: storage_root.into(),
            checkpoint_every: 8,
            wal_segment_bytes: 256 * 1024,
            fsync: FsyncPolicy::Never,
            validation: ValidationConfig::default(),
            check_signatures: true,
            org_names: vec!["OrdererOrg".to_string(), "PeerOrg".to_string()],
            workloads: Vec::new(),
            lane_prefix: String::new(),
        }
    }
}
