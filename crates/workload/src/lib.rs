//! Realistic scenario workloads over the LedgerView stack.
//!
//! Two layers share one deterministic harness:
//!
//! * **TPC-C-class multi-warehouse OLTP** — warehouses, districts,
//!   customers, and stock laid out under `~`-separated composite keys
//!   whose routing prefix pins each warehouse to a shard ([`schema`]);
//!   the five classic transaction profiles at their 45/43/4/4/4 shares
//!   ([`mix`]) implemented as a fabric-sim chaincode with 2PC
//!   participant legs for cross-warehouse work ([`contract`]); a driver
//!   that pushes the deck through the sharded deployment's routing,
//!   replication, and cross-shard 2PC pipeline — optionally under a
//!   fault schedule — while sweeping TPC-C's consistency-style
//!   invariants on live committed state ([`driver`], [`invariants`]).
//! * **Access-controlled reads over the workload's data** — the
//!   LedgerView per-warehouse views: each warehouse org reads only its
//!   own customers' payment records, enforced and audited in [`views`].
//!
//! Everything is a pure function of the run's seed and shape: same
//! [`driver::TpccConfig`] ⇒ bit-identical [`driver::TpccReport`],
//! including latency percentiles, state roots, and every audit counter —
//! the property `tests/workload_equivalence.rs` pins down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod driver;
pub mod invariants;
mod metrics;
pub mod mix;
pub mod schema;
pub mod views;

// The schema's deterministic pricing reuses the gateway's SplitMix64
// finalizer so the whole stack shares one hash idiom.
pub use ledgerview_gateway::keydist::mix64;
pub use ledgerview_gateway::KeyDistribution;

pub use contract::TpccContract;
pub use driver::{run, ProfileStats, TpccConfig, TpccReport};
pub use mix::{deal, ParamGen, TxProfile};
pub use views::{ViewLayer, ViewsOutcome};
