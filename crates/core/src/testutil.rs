//! Shared test fixtures.

use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::identity::{Identity, OrgId};
use fabric_sim::FabricChain;
use ledgerview_crypto::rng::seeded;

use crate::contracts::deploy_ledgerview_contracts;

/// A two-org chain with all four LedgerView contracts deployed, plus an
/// owner identity (Org1) and a client identity (Org2).
pub(crate) fn test_chain() -> (FabricChain, Identity, Identity) {
    let mut rng = seeded(100);
    let mut chain = FabricChain::new(&["Org1", "Org2"], &mut rng);
    let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
    deploy_ledgerview_contracts(&mut chain, policy);
    let owner = chain
        .enroll(&OrgId::new("Org1"), "owner", &mut rng)
        .unwrap();
    let client = chain
        .enroll(&OrgId::new("Org2"), "alice", &mut rng)
        .unwrap();
    (chain, owner, client)
}
