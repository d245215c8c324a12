//! Channels: per-ledger isolation by membership.
//!
//! Fabric channels give each member set its own ledger — the mechanism the
//! paper contrasts with views (§2): a transaction lives in exactly *one*
//! channel, membership changes are heavyweight (like reconfiguring the
//! network), and there are no attribute-based access rules. This module
//! implements channels over [`crate::chain::FabricChain`] so the
//! comparison can be demonstrated and tested.

use std::collections::HashMap;

use rand::RngCore;

use crate::chain::{FabricChain, InvokeResult};
use crate::chaincode::Chaincode;
use crate::endorsement::EndorsementPolicy;
use crate::error::FabricError;
use crate::identity::{Identity, OrgId};

/// A channel: an isolated ledger plus its member organisations.
pub struct Channel {
    /// Channel name.
    pub name: String,
    members: Vec<OrgId>,
    chain: FabricChain,
}

impl Channel {
    /// The member organisations.
    pub fn members(&self) -> &[OrgId] {
        &self.members
    }

    /// Read access to the channel's chain (for members; enforcement is at
    /// the registry API).
    pub fn chain(&self) -> &FabricChain {
        &self.chain
    }
}

/// Manages a set of channels.
#[derive(Default)]
pub struct ChannelRegistry {
    channels: HashMap<String, Channel>,
}

impl ChannelRegistry {
    /// An empty registry.
    pub fn new() -> ChannelRegistry {
        ChannelRegistry::default()
    }

    /// Create a channel with the given member organisations. Each channel
    /// runs its own ledger whose MSP contains exactly the members.
    ///
    /// # Panics
    /// Panics if the channel exists (deployment-time error).
    pub fn create_channel<R: RngCore + ?Sized>(
        &mut self,
        name: &str,
        member_orgs: &[&str],
        rng: &mut R,
    ) -> &mut Channel {
        assert!(
            !self.channels.contains_key(name),
            "channel {name:?} already exists"
        );
        let chain = FabricChain::new(member_orgs, rng);
        let members = chain.org_ids();
        let channel = Channel {
            name: name.to_string(),
            members,
            chain,
        };
        self.channels.insert(name.to_string(), channel);
        self.channels.get_mut(name).expect("just inserted")
    }

    /// Channel by name.
    pub fn channel(&self, name: &str) -> Option<&Channel> {
        self.channels.get(name)
    }

    fn member_channel_mut(&mut self, name: &str, org: &OrgId) -> Result<&mut Channel, FabricError> {
        let channel = self
            .channels
            .get_mut(name)
            .ok_or_else(|| FabricError::Malformed(format!("unknown channel {name:?}")))?;
        if !channel.members.contains(org) {
            return Err(FabricError::AccessDenied(format!(
                "org {org} is not a member of channel {name:?}"
            )));
        }
        Ok(channel)
    }

    /// Deploy a chaincode on a channel (any member org may deploy).
    pub fn deploy(
        &mut self,
        channel: &str,
        deployer_org: &OrgId,
        cc_name: &str,
        code: Box<dyn Chaincode>,
        policy: EndorsementPolicy,
    ) -> Result<(), FabricError> {
        let ch = self.member_channel_mut(channel, deployer_org)?;
        ch.chain.deploy(cc_name, code, policy);
        Ok(())
    }

    /// Invoke on a channel; the creator's org must be a member.
    pub fn invoke_commit<R: RngCore + ?Sized>(
        &mut self,
        channel: &str,
        creator: &Identity,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        rng: &mut R,
    ) -> Result<InvokeResult, FabricError> {
        let ch = self.member_channel_mut(channel, creator.org())?;
        ch.chain
            .invoke_commit(creator, chaincode, function, args, rng)
    }

    /// Query on a channel; the creator's org must be a member.
    pub fn query(
        &self,
        channel: &str,
        creator: &Identity,
        chaincode: &str,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        let ch = self
            .channels
            .get(channel)
            .ok_or_else(|| FabricError::Malformed(format!("unknown channel {channel:?}")))?;
        if !ch.members.contains(creator.org()) {
            return Err(FabricError::AccessDenied(format!(
                "org {} is not a member of channel {channel:?}",
                creator.org()
            )));
        }
        ch.chain.query(creator, chaincode, function, args)
    }

    /// Enroll a user with a member org of a channel.
    pub fn enroll<R: RngCore + ?Sized>(
        &mut self,
        channel: &str,
        org: &OrgId,
        user: &str,
        rng: &mut R,
    ) -> Result<Identity, FabricError> {
        let ch = self.member_channel_mut(channel, org)?;
        ch.chain.enroll(org, user, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::TxContext;
    use ledgerview_crypto::rng::seeded;

    struct Put;
    impl Chaincode for Put {
        fn invoke(
            &self,
            ctx: &mut TxContext<'_>,
            _f: &str,
            args: &[Vec<u8>],
        ) -> Result<Vec<u8>, FabricError> {
            ctx.put_state(
                String::from_utf8_lossy(&args[0]).to_string(),
                args[1].clone(),
            );
            Ok(vec![])
        }
    }

    struct Get;
    impl Chaincode for Get {
        fn invoke(
            &self,
            ctx: &mut TxContext<'_>,
            _f: &str,
            args: &[Vec<u8>],
        ) -> Result<Vec<u8>, FabricError> {
            Ok(ctx
                .get_state(&String::from_utf8_lossy(&args[0]))
                .unwrap_or_default())
        }
    }

    #[test]
    fn members_isolated_per_channel() {
        let mut rng = seeded(1);
        let mut reg = ChannelRegistry::new();
        reg.create_channel("ch-a", &["Org1", "Org2"], &mut rng);
        reg.create_channel("ch-b", &["Org3"], &mut rng);

        let org1 = OrgId::new("Org1");
        reg.deploy(
            "ch-a",
            &org1,
            "kv",
            Box::new(Put),
            EndorsementPolicy::AnyOf(vec![org1.clone()]),
        )
        .unwrap();
        let alice = reg.enroll("ch-a", &org1, "alice", &mut rng).unwrap();
        reg.invoke_commit(
            "ch-a",
            &alice,
            "kv",
            "put",
            vec![b"k".to_vec(), b"v".to_vec()],
            &mut rng,
        )
        .unwrap();

        // Alice (Org1) is not a member of ch-b: everything is denied.
        assert!(matches!(
            reg.invoke_commit("ch-b", &alice, "kv", "put", vec![], &mut rng),
            Err(FabricError::AccessDenied(_))
        ));
        assert!(reg.query("ch-b", &alice, "kv", "get", &[]).is_err());
        // The ch-b ledger never saw the transaction.
        assert_eq!(reg.channel("ch-b").unwrap().chain().height(), 0);
        assert_eq!(reg.channel("ch-a").unwrap().chain().height(), 1);
    }

    #[test]
    fn a_transaction_lives_in_exactly_one_channel() {
        // The §2 limitation: the same logical record must be *duplicated*
        // to be visible in two channels — unlike views, where one
        // transaction joins many views.
        let mut rng = seeded(2);
        let mut reg = ChannelRegistry::new();
        reg.create_channel("manufacturers", &["M"], &mut rng);
        reg.create_channel("warehouses", &["W"], &mut rng);
        let m = OrgId::new("M");
        let w = OrgId::new("W");
        for (ch, org) in [("manufacturers", &m), ("warehouses", &w)] {
            reg.deploy(
                ch,
                org,
                "kv",
                Box::new(Put),
                EndorsementPolicy::AnyOf(vec![org.clone()]),
            )
            .unwrap();
        }
        let maker = reg.enroll("manufacturers", &m, "maker", &mut rng).unwrap();
        reg.invoke_commit(
            "manufacturers",
            &maker,
            "kv",
            "put",
            vec![b"shipment-1".to_vec(), b"data".to_vec()],
            &mut rng,
        )
        .unwrap();
        // Visible on one chain, absent on the other; sharing requires a
        // second, independent transaction (duplication).
        assert!(reg
            .channel("manufacturers")
            .unwrap()
            .chain()
            .state()
            .get("shipment-1")
            .is_some());
        assert!(reg
            .channel("warehouses")
            .unwrap()
            .chain()
            .state()
            .get("shipment-1")
            .is_none());
    }

    #[test]
    fn unknown_channel_errors() {
        let mut rng = seeded(3);
        let mut reg = ChannelRegistry::new();
        let org = OrgId::new("X");
        assert!(reg.enroll("ghost", &org, "u", &mut rng).is_err());
        assert!(reg
            .deploy(
                "ghost",
                &org,
                "kv",
                Box::new(Put),
                EndorsementPolicy::AnyOf(vec![])
            )
            .is_err());
        assert!(reg.channel("ghost").is_none());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_channel_panics() {
        let mut rng = seeded(4);
        let mut reg = ChannelRegistry::new();
        reg.create_channel("c", &["O"], &mut rng);
        reg.create_channel("c", &["O"], &mut rng);
    }

    #[test]
    fn query_chaincode_on_channel() {
        let mut rng = seeded(5);
        let mut reg = ChannelRegistry::new();
        reg.create_channel("c", &["O"], &mut rng);
        let org = OrgId::new("O");
        reg.deploy(
            "c",
            &org,
            "put",
            Box::new(Put),
            EndorsementPolicy::AnyOf(vec![org.clone()]),
        )
        .unwrap();
        reg.deploy(
            "c",
            &org,
            "get",
            Box::new(Get),
            EndorsementPolicy::AnyOf(vec![org.clone()]),
        )
        .unwrap();
        let u = reg.enroll("c", &org, "u", &mut rng).unwrap();
        reg.invoke_commit(
            "c",
            &u,
            "put",
            "f",
            vec![b"k".to_vec(), b"v".to_vec()],
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            reg.query("c", &u, "get", "f", &[b"k".to_vec()]).unwrap(),
            b"v"
        );
    }
}
