//! Viewing-key confidential state, Secret Network style: per-scope
//! entries encrypted under HKDF-derived viewing keys, with grant/revoke
//! gated by a Datalog authorization policy.
//!
//! The design mirrors the CosmWasm `viewing_key` idiom: a *viewing key*
//! is a capability string handed to a user out of band; the contract
//! stores only its hash, and a query presents the key, which is checked
//! against the stored hash before any plaintext leaves the store. Here
//! the key doubles as the actual decryption key for the scope's
//! entries, derived as `HKDF(master, user, scope ‖ generation)` — so
//! revocation is a *generation bump* plus re-encryption, exactly the
//! key-rotation move LedgerView's revocable views make (§4.2), and an
//! old key is cryptographically dead, not just policy-dead.
//!
//! Authorization layers a Datalog program over the raw grants, the same
//! engine the predicate machinery uses:
//!
//! ```text
//! can_read(U, S) :- grant(U, S), role(U, "auditor").
//! can_read(U, S) :- delegate(V, U), can_read(V, S).
//! ```
//!
//! A grant without the auditor role (directly or by delegation) denies
//! with [`Denial::PolicyDenied`] — possession of a key is necessary but
//! not sufficient. Every refusal is typed so callers (and the soundness
//! tests) can assert the *reason*, not just the absence of plaintext.

use std::collections::{BTreeMap, BTreeSet};

use ledgerview_crypto::aead::{self, AeadKey};
use ledgerview_crypto::hkdf;
use ledgerview_crypto::rng::seeded;
use ledgerview_crypto::sha256::sha256;
use ledgerview_datalog::{Atom, Database, Program, Rule, Term, Value};

/// Why a read was refused. Typed, so soundness checks can distinguish
/// "never granted" from "had a key that no longer works".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Denial {
    /// No grant for this user and scope was ever issued.
    NoGrant,
    /// A grant exists but the presented key does not hash to it.
    BadKey,
    /// The grant was revoked (the scope's keys have rotated since).
    Revoked,
    /// Grant and key are fine, but the Datalog policy does not derive
    /// `can_read(user, scope)`.
    PolicyDenied,
    /// Authenticated decryption failed (tampered ciphertext).
    Corrupt,
    /// No such entry in the scope.
    NotFound,
}

impl Denial {
    /// Metric label for the denial reason.
    pub fn label(&self) -> &'static str {
        match self {
            Denial::NoGrant => "no_grant",
            Denial::BadKey => "bad_key",
            Denial::Revoked => "revoked",
            Denial::PolicyDenied => "policy",
            Denial::Corrupt => "corrupt",
            Denial::NotFound => "not_found",
        }
    }
}

/// A per-user, per-scope viewing key (32 bytes, HKDF-derived).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewingKey(pub [u8; 32]);

/// The confidential store: encrypted entries grouped into scopes (one
/// scope per TPC-C warehouse in the workload), viewing-key grants, and
/// the Datalog policy.
pub struct ConfidentialStore {
    master: [u8; 32],
    seal_seed: u64,
    /// scope → key → ciphertext under the scope's current generation.
    entries: BTreeMap<String, BTreeMap<String, Vec<u8>>>,
    /// scope → key-rotation generation.
    generations: BTreeMap<String, u64>,
    /// (user, scope) → sha256(viewing key) at the grant's generation.
    grants: BTreeMap<(String, String), [u8; 32]>,
    /// (user, scope) pairs whose grant was revoked.
    revoked: BTreeSet<(String, String)>,
    /// Extensional facts: `role(user, role)`, `grant(user, scope)`,
    /// `delegate(from, to)`.
    facts: Database,
    policy: Program,
}

fn scope_info(scope: &str, generation: u64) -> Vec<u8> {
    let mut info = scope.as_bytes().to_vec();
    info.extend_from_slice(&generation.to_be_bytes());
    info
}

impl ConfidentialStore {
    /// An empty store with the given master secret seed.
    pub fn new(seed: u64) -> ConfidentialStore {
        let master =
            hkdf::derive::<32>(b"lv-workload-confidential", &seed.to_be_bytes(), b"master");
        let can_read = |terms: Vec<Term>| Atom::new("can_read", terms);
        let policy = Program::new(vec![
            // can_read(U, S) :- grant(U, S), role(U, "auditor").
            Rule::new(
                can_read(vec![Term::var("U"), Term::var("S")]),
                vec![
                    Atom::new("grant", vec![Term::var("U"), Term::var("S")]),
                    Atom::new(
                        "role",
                        vec![Term::var("U"), Term::constant(Value::str("auditor"))],
                    ),
                ],
            ),
            // can_read(U, S) :- delegate(V, U), can_read(V, S).
            Rule::new(
                can_read(vec![Term::var("U"), Term::var("S")]),
                vec![
                    Atom::new("delegate", vec![Term::var("V"), Term::var("U")]),
                    Atom::new("can_read", vec![Term::var("V"), Term::var("S")]),
                ],
            ),
        ]);
        ConfidentialStore {
            master,
            seal_seed: seed ^ 0x5EA1_5EA1_5EA1_5EA1,
            entries: BTreeMap::new(),
            generations: BTreeMap::new(),
            grants: BTreeMap::new(),
            revoked: BTreeSet::new(),
            facts: Database::new(),
            policy,
        }
    }

    fn scope_key(&self, scope: &str, generation: u64) -> [u8; 32] {
        hkdf::derive::<32>(
            &self.master,
            scope.as_bytes(),
            &scope_info(scope, generation),
        )
    }

    /// Record a fact `role(user, role)`.
    pub fn assign_role(&mut self, user: &str, role: &str) {
        self.facts
            .insert("role", vec![Value::str(user), Value::str(role)]);
    }

    /// Record a delegation `delegate(from, to)`: `to` reads whatever
    /// `from` can (transitively, per the recursive policy rule).
    pub fn delegate(&mut self, from: &str, to: &str) {
        self.facts
            .insert("delegate", vec![Value::str(from), Value::str(to)]);
    }

    /// Encrypt `plaintext` into `scope` under the scope's current
    /// generation key, bound to the entry key as associated data.
    pub fn put(&mut self, scope: &str, key: &str, plaintext: &[u8]) {
        let generation = *self.generations.entry(scope.to_string()).or_insert(0);
        let sk = self.scope_key(scope, generation);
        let mut rng = seeded(
            self.seal_seed ^ ledgerview_gateway::keydist::mix64(key.len() as u64 ^ generation),
        );
        let ct = aead::seal_sym_aad(&sk, &mut rng, plaintext, key.as_bytes());
        self.entries
            .entry(scope.to_string())
            .or_default()
            .insert(key.to_string(), ct);
    }

    /// Grant `user` a viewing key for `scope`: records the Datalog fact
    /// `grant(user, scope)`, stores the key's hash, and returns the key.
    /// The caller decides (and the policy enforces) whether the user's
    /// roles actually let the key be used.
    pub fn grant(&mut self, user: &str, scope: &str) -> ViewingKey {
        let generation = *self.generations.entry(scope.to_string()).or_insert(0);
        let vk = ViewingKey(self.scope_key(scope, generation));
        self.grants
            .insert((user.to_string(), scope.to_string()), sha256(&vk.0).0);
        self.revoked.remove(&(user.to_string(), scope.to_string()));
        self.facts
            .insert("grant", vec![Value::str(user), Value::str(scope)]);
        vk
    }

    /// Revoke `user`'s grant on `scope`: bump the scope generation,
    /// re-encrypt every entry under the new key, and refresh the
    /// surviving members' grants. The revoked user's key is dead at the
    /// crypto layer, not just the policy layer.
    pub fn revoke(&mut self, user: &str, scope: &str) {
        let pair = (user.to_string(), scope.to_string());
        if self.grants.remove(&pair).is_none() {
            return;
        }
        self.revoked.insert(pair);

        let old_gen = *self.generations.get(scope).unwrap_or(&0);
        let new_gen = old_gen + 1;
        let new_key = self.scope_key(scope, new_gen);
        let old_aead = AeadKey::new(&self.scope_key(scope, old_gen));
        let new_aead = AeadKey::new(&new_key);
        if let Some(entries) = self.entries.get_mut(scope) {
            for (key, ct) in entries.iter_mut() {
                let pt = old_aead
                    .open(ct, key.as_bytes())
                    .expect("store-internal ciphertext decrypts under its own generation");
                let mut rng = seeded(
                    self.seal_seed ^ ledgerview_gateway::keydist::mix64(key.len() as u64 ^ new_gen),
                );
                *ct = new_aead.seal(&mut rng, &pt, key.as_bytes());
            }
        }
        self.generations.insert(scope.to_string(), new_gen);

        // Surviving members of the scope get the rotated key hash (their
        // callers re-fetch via `grant`, which also re-inserts the fact).
        let survivors: Vec<String> = self
            .grants
            .keys()
            .filter(|(_, s)| s == scope)
            .map(|(u, _)| u.clone())
            .collect();
        for u in survivors {
            let vk = ViewingKey(new_key);
            self.grants.insert((u, scope.to_string()), sha256(&vk.0).0);
        }
    }

    /// Whether the policy derives `can_read(user, scope)` from the
    /// current facts.
    fn policy_allows(&self, user: &str, scope: &str) -> bool {
        match self.policy.evaluate(&self.facts) {
            Ok(derived) => derived.contains("can_read", &[Value::str(user), Value::str(scope)]),
            Err(_) => false,
        }
    }

    /// Read one entry with a viewing key. Checks, in order: a live grant
    /// exists (else [`Denial::Revoked`] / [`Denial::NoGrant`]), the key
    /// hashes to the granted one (else [`Denial::BadKey`]), the Datalog
    /// policy derives access (else [`Denial::PolicyDenied`]) — and only
    /// then decrypts.
    pub fn read(
        &self,
        user: &str,
        vk: &ViewingKey,
        scope: &str,
        key: &str,
    ) -> Result<Vec<u8>, Denial> {
        let pair = (user.to_string(), scope.to_string());
        let Some(expected_hash) = self.grants.get(&pair) else {
            return Err(if self.revoked.contains(&pair) {
                Denial::Revoked
            } else {
                Denial::NoGrant
            });
        };
        if &sha256(&vk.0).0 != expected_hash {
            return Err(Denial::BadKey);
        }
        if !self.policy_allows(user, scope) {
            return Err(Denial::PolicyDenied);
        }
        let ct = self
            .entries
            .get(scope)
            .and_then(|m| m.get(key))
            .ok_or(Denial::NotFound)?;
        aead::open_sym_aad(&vk.0, ct, key.as_bytes()).map_err(|_| Denial::Corrupt)
    }

    /// Number of entries stored under `scope`.
    pub fn scope_len(&self, scope: &str) -> usize {
        self.entries.get(scope).map(BTreeMap::len).unwrap_or(0)
    }

    /// The stored ciphertext of `scope`/`key`, if present — what an
    /// adversary with ledger access (but no viewing key) sees. Exposed
    /// so differential tests can pin seal determinism.
    pub fn ciphertext(&self, scope: &str, key: &str) -> Option<&[u8]> {
        self.entries
            .get(scope)
            .and_then(|m| m.get(key))
            .map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_entry() -> ConfidentialStore {
        let mut s = ConfidentialStore::new(42);
        s.put("w0", "cust~01~0003", b"balance=-250,ytd=250");
        s.put("w1", "cust~00~0001", b"balance=10");
        s
    }

    #[test]
    fn granted_auditor_decrypts_everyone_else_gets_typed_denials() {
        let mut s = store_with_entry();
        s.assign_role("alice", "auditor");
        let vk = s.grant("alice", "w0");
        assert_eq!(
            s.read("alice", &vk, "w0", "cust~01~0003").unwrap(),
            b"balance=-250,ytd=250".to_vec()
        );
        // Same key, wrong scope: no grant there.
        assert_eq!(
            s.read("alice", &vk, "w1", "cust~00~0001"),
            Err(Denial::NoGrant)
        );
        // Unknown user.
        assert_eq!(
            s.read("mallory", &vk, "w0", "cust~01~0003"),
            Err(Denial::NoGrant)
        );
        // Granted but wrong role: the policy, not the crypto, denies.
        s.assign_role("bob", "viewer");
        let bob_vk = s.grant("bob", "w0");
        assert_eq!(
            s.read("bob", &bob_vk, "w0", "cust~01~0003"),
            Err(Denial::PolicyDenied)
        );
        // A fabricated key is caught by the hash check.
        let fake = ViewingKey([7; 32]);
        assert_eq!(
            s.read("alice", &fake, "w0", "cust~01~0003"),
            Err(Denial::BadKey)
        );
        // Missing entry is its own answer.
        assert_eq!(s.read("alice", &vk, "w0", "nope"), Err(Denial::NotFound));
    }

    #[test]
    fn revocation_rotates_keys_and_spares_survivors() {
        let mut s = store_with_entry();
        s.assign_role("alice", "auditor");
        s.assign_role("carol", "auditor");
        let alice_vk = s.grant("alice", "w0");
        s.grant("carol", "w0");

        s.revoke("alice", "w0");
        assert_eq!(
            s.read("alice", &alice_vk, "w0", "cust~01~0003"),
            Err(Denial::Revoked)
        );
        // Carol re-fetches her key post-rotation and still reads.
        let carol_vk = s.grant("carol", "w0");
        assert_ne!(carol_vk, alice_vk, "rotation changed the scope key");
        assert!(s.read("carol", &carol_vk, "w0", "cust~01~0003").is_ok());
        // Re-granting alice restores access under the new generation.
        let alice2 = s.grant("alice", "w0");
        assert!(s.read("alice", &alice2, "w0", "cust~01~0003").is_ok());
    }

    #[test]
    fn delegation_chains_through_the_datalog_policy() {
        let mut s = store_with_entry();
        s.assign_role("alice", "auditor");
        s.grant("alice", "w0");
        // Dave holds a valid key via a grant, but no role. Delegation
        // from alice (who can read) is what turns the key on.
        let dave_vk = s.grant("dave", "w0");
        assert_eq!(
            s.read("dave", &dave_vk, "w0", "cust~01~0003"),
            Err(Denial::PolicyDenied)
        );
        s.delegate("alice", "dave");
        assert!(s.read("dave", &dave_vk, "w0", "cust~01~0003").is_ok());
    }

    #[test]
    fn same_seed_same_ciphertexts() {
        let a = store_with_entry();
        let b = store_with_entry();
        assert_eq!(a.entries, b.entries);
    }
}
