//! Per-warehouse LedgerView views over the TPC-C payment stream.
//!
//! Each warehouse is an organization that may only see its *own*
//! customers' payment records. A side chain (two orgs, cheap majority
//! endorsement — the access control under test lives in the view layer,
//! not the endorsement policy) carries the four LedgerView contracts;
//! one [`EncryptionBasedManager`] per warehouse owns a revocable view
//! `V_w{k}` selecting `warehouse == "w{k}"`. Committed payments from
//! the sharded run are mirrored in as concealed client transactions,
//! and the audit pass then proves the access discipline: every owner
//! reads its own rows back, every foreign reader gets
//! [`ViewError::AccessDenied`], and a revoked reader stays locked out.
//!
//! The layer is strictly downstream of the canonical run — it consumes
//! the committed payment stream and never feeds anything back — so
//! enabling it changes measured throughput (extra audit-flush load is
//! injected by the driver) but never the transaction outcomes.

use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::identity::OrgId;
use fabric_sim::{FabricChain, Identity};
use ledgerview_core::contracts::deploy_ledgerview_contracts;
use ledgerview_core::{
    AccessMode, AttrValue, ClientTransaction, EncryptionBasedManager, ViewError, ViewManager,
    ViewPredicate, ViewReader,
};
use ledgerview_crypto::keys::EncryptionKeyPair;
use ledgerview_crypto::rng::seeded;
use rand::rngs::StdRng;

/// What the view audit observed. The soundness acceptance is
/// `unauthorized_reads == 0` with `foreign_denials == warehouses`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewsOutcome {
    /// Payments mirrored into per-warehouse views.
    pub mirrored: u64,
    /// Rows each warehouse owner read back from its own view.
    pub owner_reads_ok: u64,
    /// Foreign-view queries correctly refused with `AccessDenied`.
    pub foreign_denials: u64,
    /// Foreign-view queries that *succeeded* — must stay zero.
    pub unauthorized_reads: u64,
    /// Post-revocation queries correctly refused.
    pub revoked_denials: u64,
}

/// The per-warehouse view layer: side chain, one manager and one view
/// per warehouse.
pub struct ViewLayer {
    chain: FabricChain,
    rng: StdRng,
    client: Identity,
    managers: Vec<EncryptionBasedManager>,
    outcome: ViewsOutcome,
}

fn view_name(w: u64) -> String {
    format!("V_w{w}")
}

impl ViewLayer {
    /// Build the side chain, deploy the four LedgerView contracts, and
    /// create one revocable per-warehouse view selecting that
    /// warehouse's attribute.
    pub fn new(warehouses: u64, seed: u64) -> ViewLayer {
        let mut rng = seeded(seed ^ 0x7669_6577_5f6c_6179); // "view_lay"
        let mut chain = FabricChain::new(&["Org1", "Org2"], &mut rng);
        let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
        deploy_ledgerview_contracts(&mut chain, policy);
        let client = chain
            .enroll(&OrgId::new("Org2"), "driver", &mut rng)
            .unwrap();
        let mut managers = Vec::with_capacity(warehouses as usize);
        for w in 0..warehouses {
            let owner = chain
                .enroll(&OrgId::new("Org1"), &format!("owner-w{w}"), &mut rng)
                .unwrap();
            let mut mgr: EncryptionBasedManager = ViewManager::new(owner, true);
            mgr.create_view(
                &mut chain,
                view_name(w),
                ViewPredicate::attr_eq("warehouse", format!("w{w}")),
                AccessMode::Revocable,
                &mut rng,
            )
            .unwrap();
            managers.push(mgr);
        }
        ViewLayer {
            chain,
            rng,
            client,
            managers,
            outcome: ViewsOutcome::default(),
        }
    }

    /// Mirror one committed payment: a concealed transaction routed
    /// through the *customer's* warehouse manager, so it lands in (at
    /// most) that warehouse's view.
    pub fn mirror_payment(&mut self, cw: u64, cd: u64, c: u64, from_w: u64, amount: u64) {
        let Some(mgr) = self.managers.get_mut(cw as usize) else {
            return;
        };
        let tx = ClientTransaction::new(
            vec![
                ("warehouse", AttrValue::str(format!("w{cw}"))),
                ("district", AttrValue::int(cd as i64)),
                ("customer", AttrValue::int(c as i64)),
            ],
            format!("pay|{amount}|from=w{from_w}").into_bytes(),
        );
        mgr.invoke_with_secret(&mut self.chain, &self.client, &tx, &mut self.rng)
            .unwrap();
        self.outcome.mirrored += 1;
    }

    /// Run the access audit and consume the layer. For every warehouse:
    /// the owner's granted reader opens its own view (counted rows), a
    /// *foreign* reader — granted only on the next warehouse's view —
    /// is refused, and a revoked reader is refused again.
    pub fn audit(mut self) -> ViewsOutcome {
        let warehouses = self.managers.len();
        for mgr in &mut self.managers {
            mgr.flush(&mut self.chain, &mut self.rng).unwrap();
        }

        // One reader per warehouse, granted only on its own view.
        let mut readers: Vec<ViewReader> = Vec::with_capacity(warehouses);
        for w in 0..warehouses {
            let kp = EncryptionKeyPair::generate(&mut self.rng);
            self.managers[w]
                .grant_access(
                    &mut self.chain,
                    &view_name(w as u64),
                    kp.public(),
                    &mut self.rng,
                )
                .unwrap();
            let mut reader = ViewReader::new(kp);
            reader
                .obtain_view_key(&self.chain, &view_name(w as u64))
                .unwrap();
            readers.push(reader);
        }

        for w in 0..warehouses {
            let own_view = view_name(w as u64);
            // Owner's reader sees its own rows.
            let resp = self.managers[w]
                .query_view(&own_view, &readers[w].public(), None, &mut self.rng)
                .unwrap();
            let revealed = readers[w]
                .open_response(&self.chain, &own_view, &resp)
                .unwrap();
            for r in &revealed {
                assert_eq!(
                    r.non_secret.get("warehouse"),
                    Some(&AttrValue::str(format!("w{w}"))),
                    "view {own_view} leaked a foreign row"
                );
            }
            self.outcome.owner_reads_ok += revealed.len() as u64;

            // A foreign org's reader (granted on a different view) is
            // refused on this one.
            if warehouses > 1 {
                let foreign = (w + 1) % warehouses;
                match self.managers[w].query_view(
                    &own_view,
                    &readers[foreign].public(),
                    None,
                    &mut self.rng,
                ) {
                    Err(ViewError::AccessDenied(_)) => self.outcome.foreign_denials += 1,
                    Ok(_) => self.outcome.unauthorized_reads += 1,
                    Err(e) => panic!("foreign query on {own_view}: unexpected {e}"),
                }
            }

            // Revocation closes the owner's reader out too.
            self.managers[w]
                .revoke_access(
                    &mut self.chain,
                    &own_view,
                    &readers[w].public(),
                    &mut self.rng,
                )
                .unwrap();
            match self.managers[w].query_view(&own_view, &readers[w].public(), None, &mut self.rng)
            {
                Err(ViewError::AccessDenied(_)) => self.outcome.revoked_denials += 1,
                Ok(_) => self.outcome.unauthorized_reads += 1,
                Err(e) => panic!("revoked query on {own_view}: unexpected {e}"),
            }
        }
        self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_read_their_rows_and_nobody_elses() {
        let mut layer = ViewLayer::new(3, 9);
        // Payments: two for w0's customers, one for w1, none for w2. The
        // third is a cross-warehouse payment taken at w2 for w1's customer
        // — it must land in V_w1, not V_w2.
        layer.mirror_payment(0, 1, 3, 0, 500);
        layer.mirror_payment(0, 2, 4, 1, 750);
        layer.mirror_payment(1, 0, 0, 2, 900);
        let out = layer.audit();
        assert_eq!(out.mirrored, 3);
        assert_eq!(out.owner_reads_ok, 3, "2 + 1 + 0 rows across owners");
        assert_eq!(out.foreign_denials, 3);
        assert_eq!(out.revoked_denials, 3);
        assert_eq!(out.unauthorized_reads, 0);
    }

    #[test]
    fn deterministic_outcome() {
        let run = || {
            let mut layer = ViewLayer::new(2, 77);
            layer.mirror_payment(1, 3, 7, 0, 123);
            layer.audit()
        };
        assert_eq!(run(), run());
    }
}
