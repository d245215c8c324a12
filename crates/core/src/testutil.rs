//! Shared test fixtures.

use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::identity::{Identity, OrgId};
use fabric_sim::wire::Writer;
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

/// Assert an encoding's length and SHA-256 (a format golden).
pub(crate) fn assert_pinned(bytes: &[u8], len: usize, sha256_hex: &str) {
    let digest = ledgerview_crypto::sha256::sha256(bytes).to_hex();
    assert_eq!((bytes.len(), digest.as_str()), (len, sha256_hex));
}

/// Every strict prefix of `bytes` must decode to `Err`, and so must
/// `lying`: the format's fields up to its first list, whose count is
/// `u32::MAX`, followed by 16 bytes.
pub(crate) fn assert_hostile_rejected<T: std::fmt::Debug, E>(
    bytes: &[u8],
    lying: impl FnOnce(&mut Writer),
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "prefix of {cut} of {} bytes decoded",
            bytes.len()
        );
    }
    let mut w = Writer::new();
    lying(&mut w);
    assert!(decode(&w.into_bytes()).is_err(), "a u32::MAX count decoded");
}

/// A count of `u32::MAX` followed by 16 zero bytes.
pub(crate) fn lying_count(w: &mut Writer) {
    w.u32(u32::MAX).array(&[0u8; 16]);
}
