//! # LedgerView
//!
//! A from-scratch Rust reproduction of *LedgerView: Access-Control Views
//! on Hyperledger Fabric* (SIGMOD 2022): access-control views over a
//! permissioned blockchain, with revocable and irrevocable permissions,
//! encryption- and hash-based concealment, role-based access control, and
//! verifiable soundness and completeness.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`crypto`] — from-scratch primitives (SHA-2, AES-CTR, AEAD, X25519,
//!   Ed25519, hybrid encryption).
//! * [`simnet`] — the discrete-event network simulator.
//! * [`fabric`] — the execute-order-validate blockchain substrate
//!   (endorsement, Raft ordering, MVCC validation, state DB, private data
//!   collections).
//! * [`store`] — the durable storage engine (the append-only block file,
//!   which is the only log) behind `fabric::storage`.
//! * [`statedb`] — the disk-backed LSM state engine behind `fabric::lsm`
//!   (larger-than-RAM versioned state), where every durable peer keeps
//!   its state.
//! * [`datalog`] — recursive view definitions.
//! * [`views`] — **the paper's contribution**: view managers, readers,
//!   contracts, RBAC and verification.
//! * [`crosschain`] — the one-chain-per-view 2PC baseline.
//! * [`supplychain`] — the supply-chain workload generator.
//! * [`gateway`] — the submission-side building blocks the cluster and
//!   the shards share: the conflict-aware block cut stage, leader-routing
//!   backoff, key-shard routing and the counter workload.
//! * [`cluster`] — the deterministic replication cluster: a Raft-driven
//!   ordering service, multi-peer block dissemination over simulated
//!   links, snapshot-shipping peer bootstrap, and scheduled fault
//!   injection (see `examples/cluster_failover.rs`).
//! * [`shard`] — sharded channels: gateway-routed multi-channel
//!   scale-out with one replication cluster per shard and cross-shard
//!   2PC transfers that survive leader kills (see
//!   `examples/sharded_transfers.rs`).
//! * [`telemetry`] — the metrics registry, span tracer and Chrome-trace /
//!   Prometheus exporters threaded through all of the above (see
//!   `examples/telemetry_dump.rs`).
//!
//! ## Quick start
//!
//! ```
//! use ledgerview::prelude::*;
//!
//! let mut rng = ledgerview::crypto::rng::seeded(7);
//! // A two-org chain with the LedgerView contracts deployed.
//! let mut chain = FabricChain::new(&["Org1", "Org2"], &mut rng);
//! let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
//! ledgerview::deploy_ledgerview_contracts(&mut chain, policy);
//!
//! // Alice invokes a transaction with a secret part through the owner's
//! // view manager; Bob is granted access and reads it back, validated.
//! let owner = chain.enroll(&OrgId::new("Org1"), "owner", &mut rng).unwrap();
//! let alice = chain.enroll(&OrgId::new("Org2"), "alice", &mut rng).unwrap();
//! let mut manager: HashBasedManager = ViewManager::new(owner, false);
//! manager
//!     .create_view(&mut chain, "V", ViewPredicate::True, AccessMode::Revocable, &mut rng)
//!     .unwrap();
//! manager
//!     .invoke_with_secret(
//!         &mut chain,
//!         &alice,
//!         &ClientTransaction::new(vec![("to", AttrValue::str("W1"))], b"secret".to_vec()),
//!         &mut rng,
//!     )
//!     .unwrap();
//!
//! let bob_keys = EncryptionKeyPair::generate(&mut rng);
//! manager.grant_access(&mut chain, "V", bob_keys.public(), &mut rng).unwrap();
//! let mut bob = ViewReader::new(bob_keys);
//! bob.obtain_view_key(&chain, "V").unwrap();
//! let response = manager.query_view("V", &bob.public(), None, &mut rng).unwrap();
//! let revealed = bob.open_response(&chain, "V", &response).unwrap();
//! assert_eq!(revealed[0].secret, b"secret");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fabric_sim as fabric;
pub use fabric_store as store;
pub use ledgerview_cluster as cluster;
pub use ledgerview_core as views;
pub use ledgerview_crosschain as crosschain;
pub use ledgerview_crypto as crypto;
pub use ledgerview_datalog as datalog;
pub use ledgerview_gateway as gateway;
pub use ledgerview_shard as shard;
pub use ledgerview_simnet as simnet;
pub use ledgerview_statedb as statedb;
pub use ledgerview_supplychain as supplychain;
pub use ledgerview_telemetry as telemetry;
pub use ledgerview_workload as workload;

/// The most common imports, for examples and applications.
pub mod prelude {
    pub use fabric_sim::endorsement::EndorsementPolicy;
    pub use fabric_sim::identity::OrgId;
    pub use fabric_sim::{
        BlockValidator, FabricChain, FsyncPolicy, StorageConfig, TxId, ValidationConfig,
    };
    pub use ledgerview_core::manager::{
        AccessMode, EncryptionBasedManager, HashBasedManager, ViewManager,
    };
    pub use ledgerview_core::reader::ViewReader;
    pub use ledgerview_core::txmodel::{AttrValue, ClientTransaction};
    pub use ledgerview_core::{ViewError, ViewPredicate};
    pub use ledgerview_crypto::keys::EncryptionKeyPair;
    pub use ledgerview_telemetry::Telemetry;
}

pub use ledgerview_core::contracts::deploy_ledgerview_contracts;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deploy_helper_installs_all_contracts() {
        let mut rng = ledgerview_crypto::rng::seeded(1);
        let mut chain = FabricChain::new(&["Org1"], &mut rng);
        let policy = EndorsementPolicy::AnyOf(chain.org_ids());
        super::deploy_ledgerview_contracts(&mut chain, policy);
        let user = chain.enroll(&OrgId::new("Org1"), "u", &mut rng).unwrap();
        // All four contracts respond (with an error for unknown functions,
        // which proves they are deployed).
        for cc in [
            ledgerview_core::contracts::INVOKE_CC,
            ledgerview_core::contracts::VIEW_STORAGE_CC,
            ledgerview_core::contracts::TX_LIST_CC,
            ledgerview_core::contracts::ACCESS_CC,
        ] {
            let err = chain.invoke(&user, cc, "definitely_not_a_function", vec![], &mut rng);
            assert!(matches!(
                err,
                Err(fabric_sim::FabricError::ChaincodeError(_))
            ));
        }
    }
}
