//! The client-driven 2PC protocol (§6.1).
//!
//! The main blockchain records the request and the global decision; each
//! involved view blockchain receives a Prepare and then a Commit (or
//! Abort) transaction. A request over `n` views therefore costs `2n`
//! view-chain transactions — the structural overhead that dominates the
//! baseline in every experiment. The protocol itself is the
//! [`Coordinator`]'s; [`execute_request`] only carries its calls to the
//! chains, one committed transaction at a time.

use std::collections::VecDeque;

use rand::RngCore;

use crate::contracts::{self, read_committed_payload, read_coord_state, CoordState, SHARD_CC};
use crate::coordinator::{Call, Coordinator, Leg, Status};
use crate::deployment::CrossChainDeployment;
use fabric_sim::validation::TxValidation;
use fabric_sim::FabricError;

/// A cross-chain insertion request.
#[derive(Clone, Debug)]
pub struct CrossChainRequest {
    /// Globally unique request id.
    pub id: String,
    /// The transaction payload to replicate into each view chain.
    pub payload: Vec<u8>,
    /// The views (blockchains) that must include the payload.
    pub views: Vec<String>,
}

/// Result of running a request through 2PC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// All view chains committed.
    Committed {
        /// Number of view-chain transactions used (2n).
        view_chain_txs: u32,
    },
    /// Some participant voted abort; nothing became visible.
    Aborted {
        /// The first view whose Prepare failed, or a view the deployment
        /// does not have.
        failed_view: String,
    },
}

/// Execute a request. A request naming an unknown view is aborted before
/// any transaction. Otherwise the [`Coordinator`] runs it: begin and the
/// decision on the main chain, leg `i`'s Prepare and then Commit (or
/// Abort) on view chain `i`, each committed with `invoke_commit` in the
/// order the coordinator asks for them. A failed Prepare is a NO vote;
/// any other failure is returned.
pub fn execute_request<R: RngCore + ?Sized>(
    dep: &mut CrossChainDeployment,
    request: &CrossChainRequest,
    rng: &mut R,
) -> Result<RequestOutcome, FabricError> {
    let mut chains = Vec::with_capacity(request.views.len());
    for view in &request.views {
        let Some(idx) = dep.view_index(view) else {
            let failed_view = view.clone();
            return Ok(RequestOutcome::Aborted { failed_view });
        };
        chains.push(idx);
    }
    let legs = request.views.iter().map(|view| Leg {
        key: view.clone(),
        chaincode: SHARD_CC.into(),
        prepare: "prepare".into(),
        args: vec![request.payload.clone()],
    });
    let (mut coordinator, begin) = Coordinator::two_phase(&request.id, legs.collect());
    let mut pending = VecDeque::from([begin]);
    let mut failed_view = None;
    while let Some(submit) = pending.pop_front() {
        let (chain, creator) = match submit.call {
            Call::Prepare(leg) | Call::Finalize(leg) => {
                let vc = &mut dep.views[chains[leg]];
                (&mut vc.chain, &vc.submitter)
            }
            _ => (&mut dep.main, &dep.coordinator),
        };
        let (cc, function) = (&submit.chaincode, &submit.function);
        let outcome = match (
            chain.invoke_commit(creator, cc, function, submit.args, rng),
            submit.call,
        ) {
            (Ok(_), _) => Ok(TxValidation::Valid),
            (Err(e), Call::Prepare(leg)) => {
                failed_view.get_or_insert_with(|| request.views[leg].clone());
                Err(e.to_string())
            }
            (Err(e), _) => return Err(e),
        };
        let step = coordinator.step(submit.call, outcome, || {
            read_coord_state(dep.main.state(), &request.id)
        });
        pending.extend(step.submit);
        match step.terminal {
            Some(Status::Committed) => {
                let view_chain_txs = 2 * chains.len() as u32;
                return Ok(RequestOutcome::Committed { view_chain_txs });
            }
            Some(_) => {
                let failed_view = failed_view.unwrap_or_default();
                return Ok(RequestOutcome::Aborted { failed_view });
            }
            None => {}
        }
    }
    Err(FabricError::Malformed(format!(
        "request {:?} stranded",
        request.id
    )))
}

/// Audit atomicity of a request across the deployment: returns true iff
/// the payload is visible on *all* intended chains or on *none*.
pub fn is_atomic(dep: &CrossChainDeployment, request: &CrossChainRequest) -> bool {
    let mut visible = 0usize;
    for view in &request.views {
        if let Some(idx) = dep.view_index(view) {
            if read_committed_payload(dep.views[idx].chain.state(), &request.id).is_some() {
                visible += 1;
            }
        }
    }
    visible == 0 || visible == request.views.len()
}

/// The coordinator's recorded decision for a request.
pub fn decision(dep: &CrossChainDeployment, request_id: &str) -> Option<CoordState> {
    read_coord_state(dep.main.state(), request_id)
}

/// Poison one view chain so its next Prepares vote abort (failure
/// injection for atomicity tests).
pub fn poison_view<R: RngCore + ?Sized>(
    dep: &mut CrossChainDeployment,
    view: &str,
    rng: &mut R,
) -> Result<(), FabricError> {
    let idx = dep
        .view_index(view)
        .ok_or_else(|| FabricError::Malformed(format!("unknown view {view}")))?;
    let vc = &mut dep.views[idx];
    let submitter = vc.submitter.clone();
    vc.chain
        .invoke_commit(&submitter, SHARD_CC, "set_poison", vec![], rng)?;
    Ok(())
}

/// Total committed payload bytes duplicated across view chains.
pub fn duplicated_payload_bytes(dep: &CrossChainDeployment) -> u64 {
    dep.views
        .iter()
        .map(|v| contracts::committed_bytes(v.chain.state()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::ShardContract;
    use crate::participant::{staged, terminal, Staging, TerminalState};
    use ledgerview_crypto::rng::seeded;

    fn request(id: &str, views: &[&str]) -> CrossChainRequest {
        CrossChainRequest {
            id: id.to_string(),
            payload: format!("payload-of-{id}").into_bytes(),
            views: views.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn commit_path_makes_payload_visible_everywhere() {
        let mut rng = seeded(1);
        let mut dep = CrossChainDeployment::new(&["V1", "V2", "V3"], &mut rng);
        let req = request("r1", &["V1", "V3"]);
        let outcome = execute_request(&mut dep, &req, &mut rng).unwrap();
        assert_eq!(outcome, RequestOutcome::Committed { view_chain_txs: 4 });
        assert!(is_atomic(&dep, &req));
        assert_eq!(decision(&dep, "r1"), Some(CoordState::Committed));
        // Visible exactly on the two intended chains.
        assert!(read_committed_payload(dep.views[0].chain.state(), "r1").is_some());
        assert!(read_committed_payload(dep.views[1].chain.state(), "r1").is_none());
        assert!(read_committed_payload(dep.views[2].chain.state(), "r1").is_some());
    }

    #[test]
    fn abort_path_leaves_nothing_visible() {
        let mut rng = seeded(2);
        let mut dep = CrossChainDeployment::new(&["V1", "V2"], &mut rng);
        poison_view(&mut dep, "V2", &mut rng).unwrap();
        let req = request("r2", &["V1", "V2"]);
        let outcome = execute_request(&mut dep, &req, &mut rng).unwrap();
        assert_eq!(
            outcome,
            RequestOutcome::Aborted {
                failed_view: "V2".into()
            }
        );
        assert!(is_atomic(&dep, &req));
        assert_eq!(decision(&dep, "r2"), Some(CoordState::Aborted));
        // V1 prepared then aborted: no residue, and the abort is on record.
        let v1 = dep.views[0].chain.state();
        assert!(staged(v1, ShardContract::NS).is_empty());
        assert_eq!(
            terminal(v1, ShardContract::NS, "r2"),
            Some(TerminalState::Aborted)
        );
        assert!(read_committed_payload(v1, "r2").is_none());
        // V2 never prepared: its abort is a presumed-abort marker.
        let v2 = dep.views[1].chain.state();
        assert_eq!(
            terminal(v2, ShardContract::NS, "r2"),
            Some(TerminalState::Aborted)
        );
    }

    #[test]
    fn unknown_view_aborts_atomically() {
        let mut rng = seeded(3);
        let mut dep = CrossChainDeployment::new(&["V1"], &mut rng);
        let req = request("r3", &["V1", "ghost"]);
        let outcome = execute_request(&mut dep, &req, &mut rng).unwrap();
        assert!(matches!(outcome, RequestOutcome::Aborted { .. }));
        assert!(read_committed_payload(dep.views[0].chain.state(), "r3").is_none());
    }

    #[test]
    fn duplicate_request_id_rejected_by_coordinator() {
        let mut rng = seeded(4);
        let mut dep = CrossChainDeployment::new(&["V1"], &mut rng);
        let req = request("dup", &["V1"]);
        execute_request(&mut dep, &req, &mut rng).unwrap();
        assert!(execute_request(&mut dep, &req, &mut rng).is_err());
    }

    #[test]
    fn transaction_cost_is_2n_plus_coordination() {
        let mut rng = seeded(5);
        let n = 5usize;
        let names: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut dep = CrossChainDeployment::new(&name_refs, &mut rng);
        let req = CrossChainRequest {
            id: "cost".into(),
            payload: vec![0u8; 64],
            views: names.clone(),
        };
        let outcome = execute_request(&mut dep, &req, &mut rng).unwrap();
        assert_eq!(
            outcome,
            RequestOutcome::Committed {
                view_chain_txs: 2 * n as u32
            }
        );
        // Total ledger txs: 2n on view chains + 2 coordinator records.
        assert_eq!(dep.total_onchain_txs(), 2 * n as u64 + 2);
    }

    #[test]
    fn storage_duplicates_payload_per_view() {
        let mut rng = seeded(6);
        let names = ["V0", "V1", "V2", "V3"];
        let mut dep = CrossChainDeployment::new(&names, &mut rng);
        let payload = vec![7u8; 1000];
        let req = CrossChainRequest {
            id: "dupbytes".into(),
            payload: payload.clone(),
            views: names.iter().map(|s| s.to_string()).collect(),
        };
        execute_request(&mut dep, &req, &mut rng).unwrap();
        let dup = duplicated_payload_bytes(&dep);
        // The payload is stored once per view chain.
        assert!(dup >= (payload.len() * names.len()) as u64);
    }

    #[test]
    fn poison_then_clear_allows_later_commits() {
        let mut rng = seeded(7);
        let mut dep = CrossChainDeployment::new(&["V1"], &mut rng);
        poison_view(&mut dep, "V1", &mut rng).unwrap();
        let r1 = request("p1", &["V1"]);
        assert!(matches!(
            execute_request(&mut dep, &r1, &mut rng).unwrap(),
            RequestOutcome::Aborted { .. }
        ));
        let submitter = dep.views[0].submitter.clone();
        dep.views[0]
            .chain
            .invoke_commit(&submitter, SHARD_CC, "clear_poison", vec![], &mut rng)
            .unwrap();
        let r2 = request("p2", &["V1"]);
        assert!(matches!(
            execute_request(&mut dep, &r2, &mut rng).unwrap(),
            RequestOutcome::Committed { .. }
        ));
    }
}
