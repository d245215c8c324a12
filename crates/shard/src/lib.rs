//! Sharded channels: scale-out by partitioning the key space over S
//! independent Fabric channels, each replicated by its own Raft orderer
//! group and peer set, all advancing in lock step on one virtual clock.
//!
//! The pieces, bottom-up:
//!
//! * `ledgerview_gateway::shardmap` — deterministic key→shard routing
//!   (FNV-1a of the routing prefix, explicit pins for composite
//!   namespaces).
//! * `ledgerview_cluster` — one [`ClusterSim`](ledgerview_cluster::ClusterSim)
//!   per shard: Raft ordering, leader rerouting, watchdog resubmission,
//!   crash/partition faults, disk-backed peers.
//! * `ledgerview_crosschain::contracts` — the coordinator-record and
//!   transfer participant chaincodes; every participant stages through
//!   the one 2PC fence, [`participant::Fenced`], with idempotent
//!   terminal states.
//! * `ledgerview_crosschain::coordinator` — the one 2PC coordinator, a
//!   pure state machine per operation: begin → prepare → decide →
//!   finalize, re-driving in-doubt legs from the on-chain decision
//!   record. The cross-chain baseline steps the same one.
//! * [`deployment`] — this crate's core: the [`ShardedDeployment`]
//!   advances every shard to common virtual-time boundaries and carries
//!   each [`OpSpec`]'s coordinator calls to their shards, the decision
//!   replicated through the coordinating shard's Raft log. A transfer is
//!   its first client (`schedule_transfer` builds its `OpSpec`); scenario
//!   crates such as the TPC-C workload bring their own through
//!   `schedule_op`.
//!
//! Single-shard operations never pay the 2PC cost: when the shard map
//! puts every leg on one channel, the deployment submits the spec's one
//! atomic `direct` transaction (for a transfer, `transfer`). That
//! asymmetry is the whole point of the deployment —
//! `tests/virtual_time_goldens.rs::shard_scale_out` pins how aggregate
//! throughput scales with the shard count as the cross-shard fraction
//! grows.
//!
//! Everything is deterministic: same [`ShardConfig`] (including seed) ⇒
//! bit-identical per-shard Raft logs, state roots, and transfer
//! outcomes, regardless of telemetry and across fault schedules.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod deployment;
mod metrics;

pub use deployment::{
    stage, OpLeg, OpRecord, OpSpec, ShardConfig, ShardError, ShardReport, ShardedDeployment,
    TransferRecord, TransferStatus,
};
/// The 2PC participant fence, re-exported for scenario crates that bring
/// their own participant contracts (the TPC-C workload).
pub use ledgerview_crosschain::participant;
