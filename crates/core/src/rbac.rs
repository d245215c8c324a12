//! Role-based access control (§4.6).
//!
//! Roles are assigned to users (`A_r`) and access permissions are given to
//! roles (`A_p`); both relations are stored transparently on-chain through
//! the [`crate::contracts::AccessContract`]. Each role gets its own key
//! pair: the role's *private* key is sealed to every member's public key
//! and disseminated on-chain, and views grant access to the role's
//! *public* key exactly as they would to a user — "the methods are
//! indifferent to whether the public key belongs to a single user or to a
//! group of users defined by a role".

use fabric_sim::identity::Identity;
use fabric_sim::statedb::VersionedState;
use fabric_sim::FabricChain;
use ledgerview_crypto::keys::{EncryptionKeyPair, PublicKey};
use rand::RngCore;

use crate::contracts::{self, ACCESS_CC};
use crate::error::ViewError;

const ROLE_PRIVKEY_PREFIX: &str = "rbac~priv~";

/// Administers roles: creation, membership changes, view assignment.
/// Any user can act as a role administrator (§4.6: "this can be done by
/// any user") — authority comes from being the one who knows the role key.
pub struct RoleAdmin {
    identity: Identity,
}

impl RoleAdmin {
    /// Create an admin acting as `identity`.
    pub fn new(identity: Identity) -> RoleAdmin {
        RoleAdmin { identity }
    }

    /// Create a role: generate its key pair, record `A_r` (members) and the
    /// role public key on-chain, and disseminate the sealed private key to
    /// every member. Returns the role key pair (kept by the admin for
    /// later membership changes).
    pub fn create_role<R: RngCore + ?Sized>(
        &self,
        chain: &mut FabricChain,
        role: &str,
        members: &[PublicKey],
        rng: &mut R,
    ) -> Result<EncryptionKeyPair, ViewError> {
        let role_kp = EncryptionKeyPair::generate(rng);
        self.publish_role_state(chain, role, &role_kp, members, rng)?;
        Ok(role_kp)
    }

    /// Replace a role's membership. Per §4.6, "when the set of users
    /// changes for role r, a new key is created and disseminated": the
    /// role key pair is rotated, so removed members lose the ability to
    /// read anything granted to the role from now on.
    ///
    /// Returns the new role key pair. Views that granted access to the old
    /// role public key must re-grant to the new one (the registered view
    /// list in `A_p` tells which).
    pub fn update_role_members<R: RngCore + ?Sized>(
        &self,
        chain: &mut FabricChain,
        role: &str,
        members: &[PublicKey],
        rng: &mut R,
    ) -> Result<EncryptionKeyPair, ViewError> {
        let role_kp = EncryptionKeyPair::generate(rng);
        self.publish_role_state(chain, role, &role_kp, members, rng)?;
        Ok(role_kp)
    }

    fn publish_role_state<R: RngCore + ?Sized>(
        &self,
        chain: &mut FabricChain,
        role: &str,
        role_kp: &EncryptionKeyPair,
        members: &[PublicKey],
        rng: &mut R,
    ) -> Result<(), ViewError> {
        chain.invoke_commit(
            &self.identity,
            ACCESS_CC,
            "set_role_users",
            vec![
                role.as_bytes().to_vec(),
                contracts::encode_key_list(members),
            ],
            rng,
        )?;
        chain.invoke_commit(
            &self.identity,
            ACCESS_CC,
            "set_role_key",
            vec![
                role.as_bytes().to_vec(),
                role_kp.public().as_bytes().to_vec(),
            ],
            rng,
        )?;
        // Disseminate PrivK_r sealed to each member, via the generic
        // access-publication mechanism under a reserved pseudo-view name.
        let entries: Vec<contracts::AccessEntry> = members
            .iter()
            .map(|m| contracts::AccessEntry {
                recipient: *m,
                sealed_key: ledgerview_crypto::seal(m, rng, role_kp.secret_bytes()),
            })
            .collect();
        chain.invoke_commit(
            &self.identity,
            ACCESS_CC,
            "publish_access",
            vec![
                format!("{ROLE_PRIVKEY_PREFIX}{role}").into_bytes(),
                contracts::encode_access_payload(&entries),
            ],
            rng,
        )?;
        Ok(())
    }

    /// Record `A_p`: the views a role may access.
    pub fn assign_views<R: RngCore + ?Sized>(
        &self,
        chain: &mut FabricChain,
        role: &str,
        views: &[String],
        rng: &mut R,
    ) -> Result<(), ViewError> {
        chain.invoke_commit(
            &self.identity,
            ACCESS_CC,
            "set_role_views",
            vec![
                role.as_bytes().to_vec(),
                contracts::encode_string_list(views),
            ],
            rng,
        )?;
        Ok(())
    }
}

/// A member recovers the role's key pair from the on-chain dissemination.
pub fn recover_role_keypair(
    chain: &FabricChain,
    role: &str,
    member: &EncryptionKeyPair,
) -> Result<EncryptionKeyPair, ViewError> {
    let pseudo_view = format!("{ROLE_PRIVKEY_PREFIX}{role}");
    let generation = contracts::read_access_generation(chain.state(), &pseudo_view)
        .ok_or_else(|| ViewError::UnknownView(format!("role {role}")))?;
    let entries = contracts::read_access_payload(chain.state(), &pseudo_view, generation)?;
    let me = member.public();
    let mine = entries
        .iter()
        .find(|e| e.recipient == me)
        .ok_or_else(|| ViewError::AccessDenied(format!("not a member of role {role:?}")))?;
    let secret = ledgerview_crypto::open(member, &mine.sealed_key)?;
    let arr: [u8; 32] = secret
        .try_into()
        .map_err(|_| ViewError::Malformed("role key size".into()))?;
    let kp = EncryptionKeyPair::from_secret_bytes(arr);
    // Sanity: the reconstructed public key must match the registered one.
    let registered = contracts::read_role_key(chain.state(), role)?;
    if kp.public() != registered {
        return Err(ViewError::VerificationFailed(format!(
            "role {role:?}: reconstructed key does not match the registered public key"
        )));
    }
    Ok(kp)
}

/// The join `K_{A_r ⋈ A_p}(V)` of §4.6: all public keys of users that may
/// access `view` according to the transparent on-chain relations.
pub fn users_with_access(state: &dyn VersionedState, view: &str) -> Vec<PublicKey> {
    let mut out = Vec::new();
    for role in all_roles(state) {
        let Ok(views) = contracts::read_role_views(state, &role) else {
            continue;
        };
        if !views.iter().any(|v| v == view) {
            continue;
        }
        if let Ok(users) = contracts::read_role_users(state, &role) {
            for u in users {
                if !out.contains(&u) {
                    out.push(u);
                }
            }
        }
    }
    out.sort();
    out
}

/// The views a user may access through their roles
/// (`D_u = {V | ∃r. (u,r) ∈ A_r ∧ (r,V) ∈ A_p}`).
pub fn views_of_user(state: &dyn VersionedState, user: &PublicKey) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for role in all_roles(state) {
        let Ok(users) = contracts::read_role_users(state, &role) else {
            continue;
        };
        if !users.contains(user) {
            continue;
        }
        if let Ok(views) = contracts::read_role_views(state, &role) {
            for v in views {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
    }
    out.sort();
    out
}

/// All roles registered on-chain.
pub fn all_roles(state: &dyn VersionedState) -> Vec<String> {
    let prefix = "rbac~ar~";
    state
        .prefix_scan(prefix)
        .into_iter()
        .map(|(k, _)| k[prefix.len()..].to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{AccessMode, HashBasedManager, ViewManager};
    use crate::predicate::ViewPredicate;
    use crate::reader::ViewReader;
    use crate::testutil::test_chain;
    use crate::txmodel::{AttrValue, ClientTransaction};
    use ledgerview_crypto::rng::seeded;

    #[test]
    fn role_key_recovery_by_members_only() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(40);
        let admin = RoleAdmin::new(owner);
        let alice = EncryptionKeyPair::generate(&mut rng);
        let bob = EncryptionKeyPair::generate(&mut rng);
        let eve = EncryptionKeyPair::generate(&mut rng);

        let role_kp = admin
            .create_role(
                &mut chain,
                "nurse",
                &[alice.public(), bob.public()],
                &mut rng,
            )
            .unwrap();

        let alice_kp = recover_role_keypair(&chain, "nurse", &alice).unwrap();
        assert_eq!(alice_kp.public(), role_kp.public());
        assert!(recover_role_keypair(&chain, "nurse", &eve).is_err());
        assert!(recover_role_keypair(&chain, "ghost-role", &alice).is_err());
    }

    #[test]
    fn join_of_relations() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(41);
        let admin = RoleAdmin::new(owner);
        let alice = EncryptionKeyPair::generate(&mut rng).public();
        let bob = EncryptionKeyPair::generate(&mut rng).public();

        admin
            .create_role(&mut chain, "nurse", &[alice, bob], &mut rng)
            .unwrap();
        admin
            .create_role(&mut chain, "doctor", &[alice], &mut rng)
            .unwrap();
        admin
            .assign_views(&mut chain, "nurse", &["records".into()], &mut rng)
            .unwrap();
        admin
            .assign_views(
                &mut chain,
                "doctor",
                &["records".into(), "prescriptions".into()],
                &mut rng,
            )
            .unwrap();

        let mut who = users_with_access(chain.state(), "records");
        let mut expect = vec![alice, bob];
        expect.sort();
        who.sort();
        assert_eq!(who, expect);
        assert_eq!(
            users_with_access(chain.state(), "prescriptions"),
            vec![alice]
        );
        assert_eq!(
            views_of_user(chain.state(), &alice),
            vec!["prescriptions".to_string(), "records".to_string()]
        );
        assert_eq!(
            views_of_user(chain.state(), &bob),
            vec!["records".to_string()]
        );
    }

    #[test]
    fn role_based_view_access_end_to_end() {
        // Grant a view to a role public key; members read via the
        // reconstructed role key pair, exactly like a user would (§4.6).
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(42);
        let mut mgr: HashBasedManager = ViewManager::new(owner.clone(), false);
        mgr.create_view(
            &mut chain,
            "records",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        mgr.invoke_with_secret(
            &mut chain,
            &client,
            &ClientTransaction::new(
                vec![("patient", AttrValue::str("p1"))],
                b"diagnosis".to_vec(),
            ),
            &mut rng,
        )
        .unwrap();

        let admin = RoleAdmin::new(owner);
        let alice = EncryptionKeyPair::generate(&mut rng);
        let role_kp = admin
            .create_role(&mut chain, "nurse", &[alice.public()], &mut rng)
            .unwrap();
        admin
            .assign_views(&mut chain, "nurse", &["records".into()], &mut rng)
            .unwrap();
        // The view owner grants the ROLE, not individual users.
        mgr.grant_access(&mut chain, "records", role_kp.public(), &mut rng)
            .unwrap();

        // Alice: recover the role key pair, then act as the role.
        let recovered = recover_role_keypair(&chain, "nurse", &alice).unwrap();
        let mut reader = ViewReader::new(recovered);
        reader.obtain_view_key(&chain, "records").unwrap();
        let resp = mgr
            .query_view("records", &reader.public(), None, &mut rng)
            .unwrap();
        let revealed = reader.open_response(&chain, "records", &resp).unwrap();
        assert_eq!(revealed[0].secret, b"diagnosis");
    }

    #[test]
    fn membership_rotation_locks_out_removed_member() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(43);
        let admin = RoleAdmin::new(owner);
        let alice = EncryptionKeyPair::generate(&mut rng);
        let bob = EncryptionKeyPair::generate(&mut rng);
        admin
            .create_role(
                &mut chain,
                "staff",
                &[alice.public(), bob.public()],
                &mut rng,
            )
            .unwrap();
        assert!(recover_role_keypair(&chain, "staff", &bob).is_ok());

        // Remove bob: the role key rotates.
        let new_kp = admin
            .update_role_members(&mut chain, "staff", &[alice.public()], &mut rng)
            .unwrap();
        assert!(recover_role_keypair(&chain, "staff", &bob).is_err());
        let alice_kp = recover_role_keypair(&chain, "staff", &alice).unwrap();
        assert_eq!(alice_kp.public(), new_kp.public());
    }

    #[test]
    fn empty_state_queries() {
        let (chain, _, _) = test_chain();
        assert!(all_roles(chain.state()).is_empty());
        assert!(users_with_access(chain.state(), "v").is_empty());
        let user = EncryptionKeyPair::generate(&mut seeded(44)).public();
        assert!(views_of_user(chain.state(), &user).is_empty());
    }
}
