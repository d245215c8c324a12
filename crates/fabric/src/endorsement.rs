//! Endorsement: proposals, signed proposal responses, and endorsement
//! policies.
//!
//! Clients send proposals to endorsing peers; each peer simulates the
//! chaincode and signs the resulting read/write set. The client assembles
//! the signed responses into a transaction, which later passes validation
//! only if the endorsement policy is satisfied and all endorsers produced
//! the same effects.

use ledgerview_crypto::sha256::{sha256, Digest};
use rand::RngCore;

use crate::chaincode::RwSet;
use crate::error::FabricError;
use crate::identity::{Certificate, Identity, Msp, OrgId};
use crate::ledger::{Endorsement, TxId};
use crate::wire::Writer;

/// A transaction proposal from a client.
#[derive(Clone, Debug)]
pub struct Proposal {
    /// Target chaincode.
    pub chaincode: String,
    /// Function to invoke.
    pub function: String,
    /// Arguments.
    pub args: Vec<Vec<u8>>,
    /// Proposer's certificate.
    pub creator: Certificate,
    /// Anti-replay nonce.
    pub nonce: [u8; 32],
}

impl Proposal {
    /// Create a proposal with a fresh nonce.
    pub fn new<R: RngCore + ?Sized>(
        identity: &Identity,
        chaincode: impl Into<String>,
        function: impl Into<String>,
        args: Vec<Vec<u8>>,
        rng: &mut R,
    ) -> Proposal {
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        Proposal {
            chaincode: chaincode.into(),
            function: function.into(),
            args,
            creator: identity.cert().clone(),
            nonce,
        }
    }

    /// Canonical proposal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.string(&self.chaincode)
            .string(&self.function)
            .list(&self.args, |w, a| {
                w.bytes(a);
            })
            .nested(|w| self.creator.write_signed_to(w))
            .array(&self.nonce);
        w.into_bytes()
    }

    /// The transaction id this proposal will have: SHA-256 of its bytes.
    pub fn tx_id(&self) -> TxId {
        TxId(sha256(&self.to_bytes()))
    }
}

/// What an endorsing peer signs: the proposal's tx id, the digest of the
/// simulated read/write set, and the response payload.
pub fn response_signing_bytes(tx_id: &TxId, rwset_digest: &Digest, response: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.array(tx_id.0.as_bytes())
        .array(rwset_digest.as_bytes())
        .bytes(response);
    w.into_bytes()
}

/// A signed proposal response from one endorsing peer.
#[derive(Clone, Debug)]
pub struct ProposalResponse {
    /// Id of the proposal that was simulated.
    pub tx_id: TxId,
    /// The simulated read/write set.
    pub rwset: RwSet,
    /// Chaincode response payload.
    pub response: Vec<u8>,
    /// The endorsement (certificate + signature).
    pub endorsement: Endorsement,
}

impl ProposalResponse {
    /// Produce a signed response as endorsing peer `endorser`:
    /// `ProposalResponse::sign_each` with this endorser alone.
    pub fn sign(endorser: &Identity, tx_id: TxId, rwset: RwSet, response: Vec<u8>) -> Self {
        Self::sign_each(&[endorser], tx_id, &rwset, &rwset.digest(), &response).swap_remove(0)
    }

    /// One signed response per endorser, in order, for a caller that
    /// already holds `rwset.digest()`: every endorser of one simulation
    /// signs the same bytes, so the signatures are made together
    /// ([`Identity::sign_many`]).
    pub(crate) fn sign_each(
        endorsers: &[&Identity],
        tx_id: TxId,
        rwset: &RwSet,
        rwset_digest: &Digest,
        response: &[u8],
    ) -> Vec<Self> {
        let bytes = response_signing_bytes(&tx_id, rwset_digest, response);
        Identity::sign_many(endorsers, &bytes)
            .into_iter()
            .zip(endorsers)
            .map(|(signature, endorser)| ProposalResponse {
                tx_id,
                rwset: rwset.clone(),
                response: response.to_vec(),
                endorsement: Endorsement {
                    endorser: endorser.cert().clone(),
                    signature,
                },
            })
            .collect()
    }

    /// Verify this response's signature against the MSP.
    pub fn verify(&self, msp: &Msp) -> Result<(), FabricError> {
        msp.verify_identity_signature(
            &self.endorsement.endorser,
            &self.signing_bytes(&self.rwset.digest()),
            &self.endorsement.signature,
        )
    }

    /// The bytes this response's endorser signed, given
    /// `self.rwset.digest()`.
    fn signing_bytes(&self, rwset_digest: &Digest) -> Vec<u8> {
        response_signing_bytes(&self.tx_id, rwset_digest, &self.response)
    }
}

/// An endorsement policy over organisations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EndorsementPolicy {
    /// Any single listed organisation suffices.
    AnyOf(Vec<OrgId>),
    /// Every listed organisation must endorse.
    AllOf(Vec<OrgId>),
    /// A strict majority of the listed organisations must endorse.
    MajorityOf(Vec<OrgId>),
    /// At least `n` of the listed organisations must endorse.
    NOf(usize, Vec<OrgId>),
}

impl EndorsementPolicy {
    /// The organisations the policy mentions (candidates for endorsement).
    pub fn orgs(&self) -> &[OrgId] {
        match self {
            EndorsementPolicy::AnyOf(o)
            | EndorsementPolicy::AllOf(o)
            | EndorsementPolicy::MajorityOf(o)
            | EndorsementPolicy::NOf(_, o) => o,
        }
    }

    /// Whether endorsements from `endorsing_orgs` satisfy the policy.
    /// Duplicate organisations count once.
    pub fn is_satisfied(&self, endorsing_orgs: &[OrgId]) -> bool {
        let listed = self.orgs();
        let mut seen: Vec<&OrgId> = Vec::new();
        for org in endorsing_orgs {
            if listed.contains(org) && !seen.contains(&org) {
                seen.push(org);
            }
        }
        let count = seen.len();
        match self {
            EndorsementPolicy::AnyOf(_) => count >= 1,
            EndorsementPolicy::AllOf(o) => count == o.len(),
            EndorsementPolicy::MajorityOf(o) => count > o.len() / 2,
            EndorsementPolicy::NOf(n, _) => count >= *n,
        }
    }
}

/// Validate a set of proposal responses: signatures verify, effects agree,
/// and the policy is satisfied. Returns the agreed read/write set and
/// response payload.
pub fn check_endorsements(
    policy: &EndorsementPolicy,
    responses: &[ProposalResponse],
    msp: &Msp,
) -> Result<(RwSet, Vec<u8>), FabricError> {
    if responses.is_empty() {
        return Err(FabricError::EndorsementPolicyFailure(
            "no endorsements".into(),
        ));
    }
    let first = &responses[0];
    // Agreeing endorsers signed the same read/write set: hash it once. A
    // response that disagrees is still checked under its own digest, so a
    // forged signature is reported before the disagreement.
    let first_digest = first.rwset.digest();
    let same_rwset: Vec<bool> = responses.iter().map(|r| r.rwset == first.rwset).collect();
    let messages: Vec<Vec<u8>> = responses
        .iter()
        .zip(&same_rwset)
        .map(|(r, &same)| {
            if same {
                r.signing_bytes(&first_digest)
            } else {
                r.signing_bytes(&r.rwset.digest())
            }
        })
        .collect();
    let signed: Vec<(&Certificate, &[u8], &[u8; 64])> = responses
        .iter()
        .zip(&messages)
        .map(|(r, m)| {
            (
                &r.endorsement.endorser,
                m.as_slice(),
                &r.endorsement.signature,
            )
        })
        .collect();
    // Every signature is checked at once; the verdicts are then walked in
    // order, so the first failing response decides the error, as if each
    // had been checked alone.
    let verdicts = msp.verify_identity_signatures(&signed);
    for ((r, verdict), same_rwset) in responses.iter().zip(verdicts).zip(same_rwset) {
        verdict?;
        if r.tx_id != first.tx_id {
            return Err(FabricError::EndorsementPolicyFailure(
                "endorsements for different transactions".into(),
            ));
        }
        if !same_rwset || r.response != first.response {
            return Err(FabricError::EndorsementPolicyFailure(
                "endorsers disagree on simulation results".into(),
            ));
        }
    }
    let orgs: Vec<OrgId> = responses
        .iter()
        .map(|r| r.endorsement.endorser.org.clone())
        .collect();
    if !policy.is_satisfied(&orgs) {
        return Err(FabricError::EndorsementPolicyFailure(format!(
            "policy {policy:?} not satisfied by {orgs:?}"
        )));
    }
    Ok((first.rwset.clone(), first.response.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::{RwSet, WriteEntry};
    use ledgerview_crypto::rng::seeded;

    fn setup() -> (Msp, Identity, Identity, Identity) {
        let mut rng = seeded(1);
        let mut msp = Msp::new();
        let org1 = msp.add_org("Org1", &mut rng);
        let org2 = msp.add_org("Org2", &mut rng);
        let alice = msp.enroll(&org1, "alice", &mut rng).unwrap();
        let peer1 = msp.enroll(&org1, "peer1", &mut rng).unwrap();
        let peer2 = msp.enroll(&org2, "peer2", &mut rng).unwrap();
        (msp, alice, peer1, peer2)
    }

    fn sample_rwset() -> RwSet {
        RwSet {
            reads: vec![],
            writes: vec![WriteEntry {
                key: "k".into(),
                value: Some(b"v".to_vec()),
            }],
            private_writes: vec![],
        }
    }

    #[test]
    fn proposal_ids_unique_by_nonce() {
        let (_, alice, _, _) = setup();
        let mut rng = seeded(2);
        let p1 = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        let p2 = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        assert_ne!(p1.tx_id(), p2.tx_id());
    }

    #[test]
    fn signed_response_verifies() {
        let (msp, alice, peer1, _) = setup();
        let mut rng = seeded(3);
        let p = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        let resp = ProposalResponse::sign(&peer1, p.tx_id(), sample_rwset(), b"ok".to_vec());
        resp.verify(&msp).unwrap();
    }

    #[test]
    fn tampered_response_rejected() {
        let (msp, alice, peer1, _) = setup();
        let mut rng = seeded(4);
        let p = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        let mut resp = ProposalResponse::sign(&peer1, p.tx_id(), sample_rwset(), b"ok".to_vec());
        resp.response = b"changed".to_vec();
        assert!(resp.verify(&msp).is_err());
        let mut resp2 = ProposalResponse::sign(&peer1, p.tx_id(), sample_rwset(), b"ok".to_vec());
        resp2.rwset.writes[0].value = Some(b"evil".to_vec());
        assert!(resp2.verify(&msp).is_err());
    }

    #[test]
    fn policy_evaluation() {
        let o = |s: &str| OrgId::new(s);
        let orgs = vec![o("A"), o("B"), o("C")];
        let any = EndorsementPolicy::AnyOf(orgs.clone());
        let all = EndorsementPolicy::AllOf(orgs.clone());
        let maj = EndorsementPolicy::MajorityOf(orgs.clone());
        let two = EndorsementPolicy::NOf(2, orgs.clone());

        assert!(any.is_satisfied(&[o("A")]));
        assert!(!any.is_satisfied(&[o("Z")]));
        assert!(!all.is_satisfied(&[o("A"), o("B")]));
        assert!(all.is_satisfied(&[o("A"), o("B"), o("C")]));
        assert!(maj.is_satisfied(&[o("A"), o("B")]));
        assert!(!maj.is_satisfied(&[o("A")]));
        assert!(two.is_satisfied(&[o("A"), o("C")]));
        assert!(!two.is_satisfied(&[o("A")]));
        // Duplicates count once.
        assert!(!two.is_satisfied(&[o("A"), o("A")]));
        // Unlisted orgs do not count.
        assert!(!maj.is_satisfied(&[o("Z"), o("Y")]));
    }

    #[test]
    fn check_endorsements_happy_path() {
        let (msp, alice, peer1, peer2) = setup();
        let mut rng = seeded(5);
        let p = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        let r1 = ProposalResponse::sign(&peer1, p.tx_id(), sample_rwset(), b"ok".to_vec());
        let r2 = ProposalResponse::sign(&peer2, p.tx_id(), sample_rwset(), b"ok".to_vec());
        let policy = EndorsementPolicy::AllOf(vec![OrgId::new("Org1"), OrgId::new("Org2")]);
        let (rwset, resp) = check_endorsements(&policy, &[r1, r2], &msp).unwrap();
        assert_eq!(rwset, sample_rwset());
        assert_eq!(resp, b"ok");
    }

    #[test]
    fn check_endorsements_disagreement_rejected() {
        let (msp, alice, peer1, peer2) = setup();
        let mut rng = seeded(6);
        let p = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        let r1 = ProposalResponse::sign(&peer1, p.tx_id(), sample_rwset(), b"ok".to_vec());
        let mut other = sample_rwset();
        other.writes[0].value = Some(b"different".to_vec());
        let r2 = ProposalResponse::sign(&peer2, p.tx_id(), other, b"ok".to_vec());
        let policy = EndorsementPolicy::AnyOf(vec![OrgId::new("Org1"), OrgId::new("Org2")]);
        assert!(check_endorsements(&policy, &[r1, r2], &msp).is_err());
    }

    #[test]
    fn shared_rwset_digest_changes_no_signature_and_no_verdict() {
        let (msp, alice, peer1, peer2) = setup();
        let mut rng = seeded(8);
        let p = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        let policy = EndorsementPolicy::AnyOf(vec![OrgId::new("Org1"), OrgId::new("Org2")]);
        let sign = |peer: &Identity, rwset: RwSet| {
            ProposalResponse::sign(peer, p.tx_id(), rwset, b"ok".to_vec())
        };
        let mut other = sample_rwset();
        other.writes[0].value = Some(b"different".to_vec());

        // Signing together under a digest computed by the caller is each
        // endorser signing alone.
        let shared = ProposalResponse::sign_each(
            &[&peer1, &peer2],
            p.tx_id(),
            &sample_rwset(),
            &sample_rwset().digest(),
            b"ok",
        );
        assert_eq!(shared.len(), 2);
        for (r, peer) in shared.iter().zip([&peer1, &peer2]) {
            let alone = sign(peer, sample_rwset());
            assert_eq!(r.endorsement.signature, alone.endorsement.signature);
            assert_eq!(r.endorsement.endorser, alone.endorsement.endorser);
            assert_eq!((&r.rwset, &r.response), (&alone.rwset, &alone.response));
        }

        let verdict = |second: ProposalResponse| {
            check_endorsements(&policy, &[sign(&peer1, sample_rwset()), second], &msp)
        };
        // Same set, bad signature: the first response's digest is reused,
        // and the signature still fails under it.
        let mut bad_sig = sign(&peer2, sample_rwset());
        bad_sig.endorsement.signature[3] ^= 1;
        assert!(matches!(verdict(bad_sig), Err(FabricError::BadSignature)));
        // Same set on the response, but the signature covers another one.
        let mut swapped = sign(&peer2, other.clone());
        swapped.rwset = sample_rwset();
        assert!(matches!(verdict(swapped), Err(FabricError::BadSignature)));
        // Different set, honestly signed: its own digest verifies, then the
        // disagreement is reported.
        assert!(matches!(
            verdict(sign(&peer2, other.clone())),
            Err(FabricError::EndorsementPolicyFailure(_))
        ));
        // Different set *and* a bad signature: the signature is reported.
        let mut doubly_bad = sign(&peer2, other);
        doubly_bad.endorsement.signature[3] ^= 1;
        assert!(matches!(
            verdict(doubly_bad),
            Err(FabricError::BadSignature)
        ));
    }

    /// The error `check_endorsements` reports for two responses with
    /// faults, pinned to its text: responses are judged in order, the
    /// first failing one decides, and within a response the certificate
    /// comes first, then the signature, then the transaction id, then
    /// agreement with the first response.
    #[test]
    fn check_endorsements_reports_the_first_failure_in_order() {
        let (msp, alice, peer1, peer2) = setup();
        let mut rng = seeded(9);
        let p = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        let q = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        let policy = EndorsementPolicy::AllOf(vec![OrgId::new("Org1"), OrgId::new("Org2")]);
        let good = |peer: &Identity| {
            ProposalResponse::sign(peer, p.tx_id(), sample_rwset(), b"ok".to_vec())
        };
        let forged = |peer: &Identity| {
            let mut r = good(peer);
            r.endorsement.signature[3] ^= 1;
            r
        };
        // A peer enrolled by an organisation this MSP does not know.
        let mut elsewhere = Msp::new();
        let org3 = elsewhere.add_org("Org3", &mut rng);
        let stranger = elsewhere.enroll(&org3, "peer3", &mut rng).unwrap();
        let mut other = sample_rwset();
        other.writes[0].value = Some(b"different".to_vec());
        let error = |responses: &[ProposalResponse]| {
            check_endorsements(&policy, responses, &msp)
                .unwrap_err()
                .to_string()
        };

        let bad_signature = "signature verification failed";
        assert_eq!(error(&[forged(&peer1), good(&peer2)]), bad_signature);
        assert_eq!(error(&[good(&peer1), forged(&peer2)]), bad_signature);
        assert_eq!(error(&[forged(&peer1), forged(&peer2)]), bad_signature);
        assert_eq!(error(&[forged(&peer1), good(&stranger)]), bad_signature);
        assert_eq!(
            error(&[good(&stranger), forged(&peer2)]),
            "access denied: unknown org Org3"
        );
        assert_eq!(
            error(&[good(&peer1), good(&stranger)]),
            "access denied: unknown org Org3"
        );
        let disagree = "endorsement policy not satisfied: endorsers disagree on simulation results";
        let differs = ProposalResponse::sign(&peer2, p.tx_id(), other.clone(), b"ok".to_vec());
        assert_eq!(error(&[good(&peer1), differs.clone()]), disagree);
        assert_eq!(error(&[differs, forged(&peer1)]), bad_signature);
        let answers = ProposalResponse::sign(&peer2, p.tx_id(), sample_rwset(), b"no".to_vec());
        assert_eq!(error(&[good(&peer1), answers]), disagree);
        let other_tx = ProposalResponse::sign(&peer2, q.tx_id(), other, b"ok".to_vec());
        assert_eq!(
            error(&[good(&peer1), other_tx]),
            "endorsement policy not satisfied: endorsements for different transactions"
        );
        assert_eq!(
            error(&[good(&peer1)]),
            "endorsement policy not satisfied: policy AllOf([OrgId(\"Org1\"), OrgId(\"Org2\")]) \
             not satisfied by [OrgId(\"Org1\")]"
        );
        check_endorsements(&policy, &[good(&peer1), good(&peer2)], &msp).unwrap();
    }

    #[test]
    fn check_endorsements_policy_unmet() {
        let (msp, alice, peer1, _) = setup();
        let mut rng = seeded(7);
        let p = Proposal::new(&alice, "cc", "f", vec![], &mut rng);
        let r1 = ProposalResponse::sign(&peer1, p.tx_id(), sample_rwset(), b"ok".to_vec());
        let policy = EndorsementPolicy::AllOf(vec![OrgId::new("Org1"), OrgId::new("Org2")]);
        assert!(matches!(
            check_endorsements(&policy, &[r1], &msp),
            Err(FabricError::EndorsementPolicyFailure(_))
        ));
    }

    #[test]
    fn empty_endorsements_rejected() {
        let (msp, _, _, _) = setup();
        let policy = EndorsementPolicy::AnyOf(vec![OrgId::new("Org1")]);
        assert!(check_endorsements(&policy, &[], &msp).is_err());
    }
}
