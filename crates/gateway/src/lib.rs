//! Client gateway: a concurrent submission pipeline for the simulated
//! Fabric network.
//!
//! LedgerView's serving story assumes clients reach the blockchain through
//! a gateway that endorses, orders, and reports outcomes — the piece the
//! Fabric client SDK calls the *gateway service*. This crate provides that
//! front end for the in-process chain:
//!
//! * [`pipeline`] — the [`Gateway`] itself: admission
//!   control, sharded bounded submit queues with backpressure, a block
//!   cutter with size and timeout triggers, commit-outcome routing, and
//!   MVCC-conflict retry with deterministic backoff.
//! * [`admission`] — token bucket, priority shedding, in-flight caps.
//! * [`reorder`] — the cut stage ([`reorder::cut`]) that turns a pending
//!   queue into a block for both the gateway and the replication
//!   cluster's ordering service, and the conflict-aware ordering it runs
//!   when switched on: the intra-block dependency graph, deterministic
//!   reordering and cycle breaking, and early abort of transactions
//!   doomed by committed state.
//! * [`retry`] — the exponential-backoff policy with derived jitter.
//! * [`session`] — sparse per-client session tracking.
//! * [`driver`] — open/closed-loop workload populations (up to millions
//!   of virtual clients) with Zipf key skew, for benches and tests.
//! * [`keydist`] — the shared stateless key-skew sampler
//!   ([`KeyDistribution`]) the drivers pick keys with.
//!
//! Everything is deterministic under a fixed seed: the same configuration
//! replays the identical admission, retry, and commit schedule, which is
//! what makes gateway saturation curves comparable across machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod driver;
pub mod keydist;
pub mod pipeline;
pub mod reorder;
pub mod retry;
pub mod session;
pub mod shardmap;

pub use admission::{AdmissionConfig, Priority, ShedReason, TokenBucket};
pub use driver::{counter_chain, CounterChaincode, DriverConfig, DriverReport, LoadMode, Zipf};
pub use keydist::KeyDistribution;
pub use pipeline::{
    Completion, CompletionOutcome, Gateway, GatewayConfig, GatewayStats, Operation, Request,
    ServiceModel, SubmitResult,
};
pub use reorder::{ReorderConfig, ReorderPlan, ReorderStats};
pub use retry::RetryPolicy;
pub use session::{Session, SessionTable};
pub use shardmap::{fnv1a, routing_prefix, Route, ShardMap, ShardRouter, ShardShed};
