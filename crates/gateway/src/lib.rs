//! The submission-side building blocks of the replication cluster and the
//! sharded deployment.
//!
//! The replication cluster (`ledgerview-cluster`) is the one pipeline
//! that endorses, cuts, orders and commits real transactions; this crate
//! holds the pieces it and the sharded deployment share:
//!
//! * [`reorder`] — the cut stage ([`reorder::cut`]) that turns the
//!   ordering service's pending queue into a block, and the
//!   conflict-aware ordering it runs when switched on: the intra-block
//!   dependency graph, deterministic reordering and cycle breaking, and
//!   early abort of transactions doomed by committed state.
//! * [`retry`] — the exponential-backoff policy with derived jitter the
//!   cluster re-routes `NotLeader` proposals with.
//! * [`shardmap`] — deterministic key→shard routing for the sharded
//!   deployment.
//! * [`keydist`] — the shared stateless key-skew sampler
//!   ([`KeyDistribution`]) the TPC-C workload picks keys with.
//! * [`counter`] — the contended counter chaincode the cluster deploys.
//!
//! Everything is deterministic under a fixed seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod keydist;
pub mod reorder;
pub mod retry;
pub mod shardmap;

pub use counter::{counter_chain, CounterChaincode};
pub use keydist::KeyDistribution;
pub use reorder::{ReorderConfig, ReorderPlan, ReorderStats};
pub use retry::RetryPolicy;
pub use shardmap::{fnv1a, routing_prefix, Route, ShardMap};
