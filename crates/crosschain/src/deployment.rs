//! A multi-chain deployment: the main chain plus one blockchain per view.

use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::identity::{Identity, OrgId};
use fabric_sim::FabricChain;
use rand::RngCore;

use crate::contracts::{CoordinatorContract, ShardContract, COORDINATOR_CC, SHARD_CC};
use crate::participant::Fenced;

/// One view blockchain with its submitting identity.
pub struct ViewChain {
    /// The view this chain stores.
    pub view: String,
    /// The blockchain.
    pub chain: FabricChain,
    /// Identity used to submit shard transactions.
    pub submitter: Identity,
}

/// The baseline deployment: a main (coordinator) chain and `|V|`
/// independent view blockchains.
pub struct CrossChainDeployment {
    /// The coordinator chain.
    pub main: FabricChain,
    /// Identity submitting coordinator transactions.
    pub coordinator: Identity,
    /// The per-view chains.
    pub views: Vec<ViewChain>,
}

impl CrossChainDeployment {
    /// Create a deployment with the given view names. Each chain runs two
    /// organisations with an all-of endorsement policy, matching the main
    /// deployment's endorsement strength (the baseline isolates views by
    /// chain membership, not cryptography).
    pub fn new<R: RngCore + ?Sized>(view_names: &[&str], rng: &mut R) -> CrossChainDeployment {
        let mut main = FabricChain::new(&["CoordinatorOrg", "CoordinatorOrg2"], rng);
        let policy = EndorsementPolicy::AllOf(main.org_ids());
        main.deploy(COORDINATOR_CC, Box::new(CoordinatorContract), policy);
        let coordinator = main
            .enroll(&OrgId::new("CoordinatorOrg"), "coordinator", rng)
            .expect("org exists");

        let views = view_names
            .iter()
            .map(|name| {
                let org = format!("Org-{name}");
                let org2 = format!("Org2-{name}");
                let mut chain = FabricChain::new(&[org.as_str(), org2.as_str()], rng);
                let policy = EndorsementPolicy::AllOf(chain.org_ids());
                chain.deploy(SHARD_CC, Box::new(Fenced(ShardContract)), policy);
                let submitter = chain
                    .enroll(&OrgId::new(&org), &format!("client-{name}"), rng)
                    .expect("org exists");
                ViewChain {
                    view: name.to_string(),
                    chain,
                    submitter,
                }
            })
            .collect();

        CrossChainDeployment {
            main,
            coordinator,
            views,
        }
    }

    /// Index of a view chain by view name.
    pub fn view_index(&self, view: &str) -> Option<usize> {
        self.views.iter().position(|v| v.view == view)
    }

    /// Total committed transactions across all chains (the `2·|V|·n`
    /// cost measured in Fig 6, plus coordinator records).
    pub fn total_onchain_txs(&self) -> u64 {
        self.main.store().committed_tx_count()
            + self
                .views
                .iter()
                .map(|v| v.chain.store().committed_tx_count())
                .sum::<u64>()
    }

    /// Total block storage across all chains (Fig 9: the baseline
    /// duplicates every payload once per view).
    pub fn total_storage_bytes(&self) -> u64 {
        self.main.store().total_bytes()
            + self
                .views
                .iter()
                .map(|v| v.chain.store().total_bytes())
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerview_crypto::rng::seeded;

    #[test]
    fn deployment_builds_chains() {
        let mut rng = seeded(1);
        let dep = CrossChainDeployment::new(&["V1", "V2", "V3"], &mut rng);
        assert_eq!(dep.views.len(), 3);
        assert_eq!(dep.view_index("V2"), Some(1));
        assert_eq!(dep.view_index("nope"), None);
        assert_eq!(dep.total_onchain_txs(), 0);
    }
}
