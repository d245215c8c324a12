//! A deterministic execute-order-validate permissioned blockchain — the
//! Hyperledger Fabric equivalent substrate for the LedgerView reproduction.
//!
//! The paper implements LedgerView on Hyperledger Fabric 2.2 but notes
//! (§5.1) that the design "does not rely on any feature that is unique to
//! Fabric": it needs smart contracts, tamper-evident state, and the
//! execute-order-validate lifecycle. This crate implements exactly that
//! surface, from scratch:
//!
//! * [`identity`] — organisations, users and their MSP (Ed25519 identities
//!   with org-signed certificates).
//! * [`chaincode`] — the smart-contract trait and the transaction context
//!   that records read/write sets during simulation (endorsement).
//! * [`endorsement`] — endorsement policies and signed proposal responses.
//! * [`raft`] — the ordering service's consensus: leader election and log
//!   replication over the discrete-event network (the paper uses Raft
//!   orderers).
//! * [`ledger`] — blocks, the hash chain, transaction Merkle roots, and the
//!   block store.
//! * [`statedb`] — the versioned key-value state database (the LevelDB
//!   equivalent) with MVCC version metadata and a Merkle state digest.
//! * [`storage`] — pluggable state persistence: the in-memory default and
//!   the one durable backend (the block file from the `fabric-store`
//!   crate as the only log, state in the LSM, LSM flushes as checkpoints)
//!   with crash recovery.
//! * [`lsm`] — the disk-backed state engine over the `ledgerview-statedb`
//!   LSM tree: larger-than-RAM versioned state, the state of every
//!   [`DurableBackend`].
//! * [`validation`] — MVCC read/write-set validation and commit, and the
//!   one-signature-at-a-time reference for commit-time endorsement checks.
//! * [`parallel`] — the commit-time validation pipeline: worker-pool
//!   endorsement verification (certificates through the [`Msp`]'s memo,
//!   signatures as Ed25519 batches) followed by the serial MVCC phase,
//!   bit-identical to [`validation`] by construction.
//! * [`pool`] — the scoped worker pool backing [`parallel`].
//! * [`privdata`] — private data collections (compared against in Fig 13).
//! * [`channel`] — channels (the per-ledger isolation the paper contrasts
//!   with views in §2).
//! * [`chain`] — the synchronous single-process chain used for functional
//!   tests and the examples.
//! * [`network`] — the timed deployment on the discrete-event simulator
//!   (peers, orderers, clients, regions) used by the benchmark harness.
//! * [`merkle`] — Merkle trees with inclusion proofs.
//! * [`wire`] — the deterministic binary codec used for everything that is
//!   hashed or signed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod chaincode;
pub mod channel;
pub mod digest;
pub mod endorsement;
pub mod error;
pub mod identity;
pub mod ledger;
pub mod lsm;
pub mod merkle;
pub mod network;
pub mod parallel;
pub mod pool;
pub mod privdata;
pub mod raft;
pub mod statedb;
pub mod storage;
pub mod validation;
pub mod wire;

pub use chain::FabricChain;
pub use chaincode::{Chaincode, TxContext};
pub use error::FabricError;
pub use identity::{Identity, Msp, OrgId};
pub use ledger::{Block, BlockHeader, BlockStore, TxId};
pub use lsm::LsmState;
pub use parallel::{BlockValidator, ValidationConfig};
pub use pool::WorkerPool;
pub use statedb::{StateDb, Version, VersionedState};
pub use storage::{
    ChainSnapshot, DurableBackend, FsyncPolicy, InMemoryBackend, StateBackend, StorageConfig,
};

// Re-exported so downstream users can attach telemetry without naming the
// telemetry crate directly.
pub use ledgerview_telemetry::Telemetry;
