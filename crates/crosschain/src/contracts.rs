//! The coordinator and participant smart contracts.

use fabric_sim::chaincode::{arg, arg_str, Chaincode, TxContext};
use fabric_sim::statedb::VersionedState;
use fabric_sim::FabricError;

use crate::participant::{staged, Staging};

/// Chaincode name of the coordinator (deployed on the main chain).
pub const COORDINATOR_CC: &str = "xc.coordinator";
/// Chaincode name of the view-chain participant, [`ShardContract`].
pub const SHARD_CC: &str = "xc.shard";

/// Coordinator states recorded on the main chain per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordState {
    /// Prepares issued, outcome pending.
    Begun,
    /// Global commit decided.
    Committed,
    /// Global abort decided.
    Aborted,
}

impl CoordState {
    fn to_byte(self) -> u8 {
        match self {
            CoordState::Begun => 0,
            CoordState::Committed => 1,
            CoordState::Aborted => 2,
        }
    }

    fn from_byte(b: u8) -> Option<CoordState> {
        Some(match b {
            0 => CoordState::Begun,
            1 => CoordState::Committed,
            2 => CoordState::Aborted,
            _ => return None,
        })
    }
}

fn coord_key(request: &str) -> String {
    format!("2pc~{request}")
}

/// The 2PC coordinator contract: records `begin` and the final decision
/// for each cross-chain request (write-ahead decision log on the ledger).
pub struct CoordinatorContract;

impl Chaincode for CoordinatorContract {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        match function {
            "begin" => {
                let request = arg_str(args, 0)?;
                let key = coord_key(&request);
                if ctx.get_state(&key).is_some() {
                    return Err(FabricError::ChaincodeError(format!(
                        "request {request:?} already begun"
                    )));
                }
                ctx.put_state(key, vec![CoordState::Begun.to_byte()]);
                Ok(vec![])
            }
            "decide" => {
                let request = arg_str(args, 0)?;
                let commit = *arg(args, 1)?
                    .first()
                    .ok_or_else(|| FabricError::Malformed("empty decision".into()))?;
                let key = coord_key(&request);
                match ctx.get_state(&key).as_deref() {
                    Some([b]) if *b == CoordState::Begun.to_byte() => {}
                    Some(_) => {
                        return Err(FabricError::ChaincodeError(format!(
                            "request {request:?} already decided"
                        )))
                    }
                    None => {
                        return Err(FabricError::ChaincodeError(format!(
                            "request {request:?} was never begun"
                        )))
                    }
                }
                let state = if commit == 1 {
                    CoordState::Committed
                } else {
                    CoordState::Aborted
                };
                ctx.put_state(key, vec![state.to_byte()]);
                Ok(vec![])
            }
            other => Err(FabricError::ChaincodeError(format!(
                "CoordinatorContract: unknown function {other}"
            ))),
        }
    }
}

/// Read a request's coordinator state from the main chain.
pub fn read_coord_state(state: &dyn VersionedState, request: &str) -> Option<CoordState> {
    state
        .get(&coord_key(request))
        .and_then(|v| v.first().copied())
        .and_then(CoordState::from_byte)
}

const POISON_KEY: &str = "shard~poison";

/// The 2PC participant on each view blockchain, deployed behind the
/// [`Fenced`](crate::participant::Fenced) 2PC fence under namespace `v`.
///
/// `prepare(req, payload)` stages the payload; commit makes it visible
/// as view data under `xtx~<req>`; abort discards it. `set_poison` makes
/// future prepares vote abort — the failure-injection hook the atomicity
/// tests use through `protocol::poison_view` — and `clear_poison` lifts
/// it.
pub struct ShardContract;

impl Staging for ShardContract {
    const NS: &'static str = "v";

    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        _args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        match function {
            "set_poison" => ctx.put_state(POISON_KEY, vec![1]),
            "clear_poison" => ctx.delete_state(POISON_KEY),
            other => {
                return Err(FabricError::ChaincodeError(format!(
                    "ShardContract: unknown function {other}"
                )))
            }
        }
        Ok(vec![])
    }

    fn prepare(
        &self,
        ctx: &mut TxContext<'_>,
        _function: &str,
        args: &[Vec<u8>],
    ) -> Result<(String, Vec<u8>), FabricError> {
        if ctx.get_state(POISON_KEY).is_some() {
            return Err(FabricError::ChaincodeError(
                "shard votes abort (poisoned)".into(),
            ));
        }
        Ok(("p".into(), arg(args, 0)?.to_vec()))
    }

    fn commit(
        &self,
        ctx: &mut TxContext<'_>,
        req: &str,
        _suffix: &str,
        value: &[u8],
    ) -> Result<(), FabricError> {
        ctx.put_state(committed_key(req), value.to_vec());
        Ok(())
    }
}

fn committed_key(request: &str) -> String {
    format!("xtx~{request}")
}

/// Whether a request's payload is committed (visible) on a view chain.
pub fn read_committed_payload(state: &dyn VersionedState, request: &str) -> Option<Vec<u8>> {
    state.get(&committed_key(request))
}

/// Chaincode name of the transfer participant (deployed on each shard
/// channel of a sharded deployment).
pub const TRANSFER_CC: &str = "xc.transfer";

fn acct_key(acct: &str) -> String {
    format!("acct~{acct}")
}

fn u64_be(v: u64) -> Vec<u8> {
    v.to_be_bytes().to_vec()
}

fn parse_u64(bytes: &[u8], what: &str) -> Result<u64, FabricError> {
    let arr: [u8; 8] = bytes
        .try_into()
        .map_err(|_| FabricError::Malformed(format!("{what}: expected 8 bytes")))?;
    Ok(u64::from_be_bytes(arr))
}

/// Encode a staged leg: the reserved/intended amount plus the account it
/// debits or credits.
fn leg_value(acct: &str, amount: u64) -> Vec<u8> {
    let mut v = u64_be(amount);
    v.extend_from_slice(acct.as_bytes());
    v
}

/// Decode a staged leg into `(account, amount)`.
fn leg(value: &[u8]) -> Result<(String, u64), FabricError> {
    if value.len() < 8 {
        return Err(FabricError::Malformed("truncated leg record".into()));
    }
    let acct = String::from_utf8(value[8..].to_vec())
        .map_err(|_| FabricError::Malformed("leg account not UTF-8".into()))?;
    Ok((acct, parse_u64(&value[..8], "leg amount")?))
}

fn balance(ctx: &mut TxContext<'_>, acct: &str) -> Result<u64, FabricError> {
    ctx.get_state(&acct_key(acct))
        .ok_or_else(|| FabricError::ChaincodeError(format!("unknown account {acct:?}")))
        .and_then(|v| parse_u64(&v, "balance"))
}

/// The money-moving 2PC participant for sharded deployments, deployed
/// behind the [`Fenced`](crate::participant::Fenced) 2PC fence under
/// the empty namespace.
///
/// Accounts live under `acct~<name>`; a cross-shard transfer runs as a
/// *debit leg* on the source account's shard and a *credit leg* on the
/// destination's:
///
/// * `prepare_debit(req, src, amount)` reserves the amount by moving it
///   out of the balance into the staged record `pend~<req>~debit` — the
///   classic AHL-style reservation, so concurrent spends cannot
///   double-spend the locked funds. Votes abort (fails endorsement) on
///   insufficient funds.
/// * `prepare_credit(req, dst, amount)` stages the intent under
///   `pend~<req>~credit`; the credit itself is deferred to commit.
/// * Commit lets the reserved amount go (debit) or applies the credit;
///   abort refunds the reservation (debit) or drops the intent.
///
/// The conservation invariant audited by the shard tests is
/// `Σ balances + Σ staged debits = Σ opened`, since a debit holds
/// in-flight money and a pending credit does not.
pub struct TransferContract;

impl Staging for TransferContract {
    const NS: &'static str = "";

    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        match function {
            "open" => {
                let acct = arg_str(args, 0)?;
                let amount = parse_u64(arg(args, 1)?, "open amount")?;
                if ctx.get_state(&acct_key(&acct)).is_some() {
                    return Err(FabricError::ChaincodeError(format!(
                        "account {acct:?} already exists"
                    )));
                }
                ctx.put_state(acct_key(&acct), u64_be(amount));
                Ok(vec![])
            }
            "transfer" => {
                // Single-shard fast path: both accounts live here, no 2PC.
                let src = arg_str(args, 0)?;
                let dst = arg_str(args, 1)?;
                let amount = parse_u64(arg(args, 2)?, "transfer amount")?;
                let src_bal = balance(ctx, &src)?;
                let dst_bal = balance(ctx, &dst)?;
                if src_bal < amount {
                    return Err(FabricError::ChaincodeError(format!(
                        "insufficient funds: {src:?} has {src_bal}, needs {amount}"
                    )));
                }
                ctx.put_state(acct_key(&src), u64_be(src_bal - amount));
                ctx.put_state(acct_key(&dst), u64_be(dst_bal + amount));
                Ok(vec![])
            }
            other => Err(FabricError::ChaincodeError(format!(
                "TransferContract: unknown function {other}"
            ))),
        }
    }

    fn prepare(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<(String, Vec<u8>), FabricError> {
        let acct = arg_str(args, 0)?;
        let amount = parse_u64(arg(args, 1)?, "leg amount")?;
        let bal = balance(ctx, &acct)?;
        let suffix = match function {
            "prepare_debit" => {
                if bal < amount {
                    return Err(FabricError::ChaincodeError(format!(
                        "insufficient funds: {acct:?} has {bal}, needs {amount}"
                    )));
                }
                ctx.put_state(acct_key(&acct), u64_be(bal - amount));
                "debit"
            }
            "prepare_credit" => "credit",
            other => {
                return Err(FabricError::ChaincodeError(format!(
                    "TransferContract: unknown function {other}"
                )))
            }
        };
        Ok((suffix.into(), leg_value(&acct, amount)))
    }

    fn commit(
        &self,
        ctx: &mut TxContext<'_>,
        _req: &str,
        suffix: &str,
        value: &[u8],
    ) -> Result<(), FabricError> {
        // A debit's reserved amount leaves for good; a credit lands.
        match suffix {
            "credit" => pay_back(ctx, value),
            _ => Ok(()),
        }
    }

    fn abort(
        &self,
        ctx: &mut TxContext<'_>,
        suffix: &str,
        value: &[u8],
    ) -> Result<(), FabricError> {
        // A debit's reservation is refunded; a credit's intent is dropped.
        match suffix {
            "debit" => pay_back(ctx, value),
            _ => Ok(()),
        }
    }
}

/// Add a staged leg's amount to its account.
fn pay_back(ctx: &mut TxContext<'_>, value: &[u8]) -> Result<(), FabricError> {
    let (acct, amount) = leg(value)?;
    let bal = balance(ctx, &acct)?;
    ctx.put_state(acct_key(&acct), u64_be(bal + amount));
    Ok(())
}

/// An account's balance on a shard, if the account lives there.
pub fn read_balance(state: &dyn VersionedState, acct: &str) -> Option<u64> {
    state
        .get(&acct_key(acct))
        .and_then(|v| parse_u64(&v, "balance").ok())
}

/// Sum of all account balances on a shard.
pub fn total_balances(state: &dyn VersionedState) -> u64 {
    state
        .prefix_scan("acct~")
        .into_iter()
        .filter_map(|(_, v)| parse_u64(&v, "balance").ok())
        .sum()
}

/// Sum of all staged debit reservations on a shard (money held by
/// unresolved 2PC legs; conservation counts it alongside balances).
pub fn locked_total(state: &dyn VersionedState) -> u64 {
    staged(state, TransferContract::NS)
        .into_iter()
        .filter(|s| s.suffix == "debit")
        .filter_map(|s| leg(&s.value).ok())
        .map(|(_, amount)| amount)
        .sum()
}

/// All committed cross-chain payload bytes on a view chain (storage
/// accounting).
pub fn committed_bytes(state: &dyn VersionedState) -> u64 {
    state
        .prefix_scan("xtx~")
        .into_iter()
        .map(|(k, v)| (k.len() + v.len()) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::{terminal, Fenced, TerminalState};
    use fabric_sim::endorsement::EndorsementPolicy;
    use fabric_sim::identity::{Identity, OrgId};
    use fabric_sim::FabricChain;
    use ledgerview_crypto::rng::seeded;
    use rand::rngs::StdRng;

    fn chain_with(cc: &str, contract: Box<dyn Chaincode>) -> (FabricChain, Identity, StdRng) {
        let mut rng = seeded(0xC0_2DC);
        let mut chain = FabricChain::new(&["OrgA", "OrgB"], &mut rng);
        let policy = EndorsementPolicy::AllOf(chain.org_ids());
        chain.deploy(cc, contract, policy);
        let id = chain
            .enroll(&OrgId::new("OrgA"), "tester", &mut rng)
            .unwrap();
        (chain, id, rng)
    }

    fn shard_chain() -> (FabricChain, Identity, StdRng) {
        chain_with(SHARD_CC, Box::new(Fenced(ShardContract)))
    }

    fn transfer_chain() -> (FabricChain, Identity, StdRng) {
        chain_with(TRANSFER_CC, Box::new(Fenced(TransferContract)))
    }

    fn call(
        chain: &mut FabricChain,
        id: &Identity,
        rng: &mut StdRng,
        function: &str,
        args: &[&str],
    ) -> Result<(), FabricError> {
        let args: Vec<Vec<u8>> = args.iter().map(|a| a.as_bytes().to_vec()).collect();
        chain
            .invoke_commit(id, SHARD_CC, function, args, rng)
            .map(|_| ())
    }

    fn is_prepared(state: &dyn VersionedState, req: &str) -> bool {
        staged(state, ShardContract::NS)
            .iter()
            .any(|s| s.req == req)
    }

    fn xfer(
        chain: &mut FabricChain,
        id: &Identity,
        rng: &mut StdRng,
        function: &str,
        request: &str,
        acct: &str,
        amount: u64,
    ) -> Result<(), FabricError> {
        let args = vec![
            request.as_bytes().to_vec(),
            acct.as_bytes().to_vec(),
            amount.to_be_bytes().to_vec(),
        ];
        chain
            .invoke_commit(id, TRANSFER_CC, function, args, rng)
            .map(|_| ())
    }

    fn open(
        chain: &mut FabricChain,
        id: &Identity,
        rng: &mut StdRng,
        acct: &str,
        amount: u64,
    ) -> Result<(), FabricError> {
        let args = vec![acct.as_bytes().to_vec(), amount.to_be_bytes().to_vec()];
        chain
            .invoke_commit(id, TRANSFER_CC, "open", args, rng)
            .map(|_| ())
    }

    #[test]
    fn shard_commit_double_delivery_is_idempotent() {
        let (mut chain, id, mut rng) = shard_chain();
        call(&mut chain, &id, &mut rng, "prepare", &["r1", "payload"]).unwrap();
        assert!(is_prepared(chain.state(), "r1"));
        call(&mut chain, &id, &mut rng, "commit", &["r1"]).unwrap();
        // A crash-replayed decision delivers commit a second time: no-op.
        call(&mut chain, &id, &mut rng, "commit", &["r1"]).unwrap();
        assert!(!is_prepared(chain.state(), "r1"));
        assert_eq!(
            terminal(chain.state(), ShardContract::NS, "r1"),
            Some(TerminalState::Committed)
        );
        assert_eq!(
            read_committed_payload(chain.state(), "r1").as_deref(),
            Some(b"payload".as_slice())
        );
        // But flipping the decision is rejected.
        assert!(call(&mut chain, &id, &mut rng, "abort", &["r1"]).is_err());
    }

    #[test]
    fn shard_abort_double_delivery_is_idempotent() {
        let (mut chain, id, mut rng) = shard_chain();
        call(&mut chain, &id, &mut rng, "prepare", &["r2", "p"]).unwrap();
        call(&mut chain, &id, &mut rng, "abort", &["r2"]).unwrap();
        call(&mut chain, &id, &mut rng, "abort", &["r2"]).unwrap();
        assert!(!is_prepared(chain.state(), "r2"));
        assert_eq!(
            terminal(chain.state(), ShardContract::NS, "r2"),
            Some(TerminalState::Aborted)
        );
        assert!(read_committed_payload(chain.state(), "r2").is_none());
        assert!(call(&mut chain, &id, &mut rng, "commit", &["r2"]).is_err());
    }

    #[test]
    fn shard_presumed_abort_fences_late_prepare() {
        let (mut chain, id, mut rng) = shard_chain();
        // Abort arrives before any prepare (coordinator timed the request
        // out while this shard was partitioned away).
        call(&mut chain, &id, &mut rng, "abort", &["r3"]).unwrap();
        assert_eq!(
            terminal(chain.state(), ShardContract::NS, "r3"),
            Some(TerminalState::Aborted)
        );
        // The delayed prepare must not re-lock a decided request.
        assert!(call(&mut chain, &id, &mut rng, "prepare", &["r3", "p"]).is_err());
        assert!(!is_prepared(chain.state(), "r3"));
    }

    #[test]
    fn transfer_commit_and_abort_double_delivery() {
        let (mut chain, id, mut rng) = transfer_chain();
        open(&mut chain, &id, &mut rng, "alice", 100).unwrap();
        open(&mut chain, &id, &mut rng, "bob", 50).unwrap();

        // Debit leg commit, delivered twice.
        xfer(
            &mut chain,
            &id,
            &mut rng,
            "prepare_debit",
            "t1",
            "alice",
            30,
        )
        .unwrap();
        assert_eq!(read_balance(chain.state(), "alice"), Some(70));
        assert_eq!(locked_total(chain.state()), 30);
        xfer(&mut chain, &id, &mut rng, "commit", "t1", "", 0).unwrap();
        xfer(&mut chain, &id, &mut rng, "commit", "t1", "", 0).unwrap();
        assert_eq!(read_balance(chain.state(), "alice"), Some(70));
        assert_eq!(locked_total(chain.state()), 0);
        assert_eq!(
            terminal(chain.state(), TransferContract::NS, "t1"),
            Some(TerminalState::Committed)
        );
        assert!(xfer(&mut chain, &id, &mut rng, "abort", "t1", "", 0).is_err());

        // Credit leg abort, delivered twice: the credit never lands.
        xfer(&mut chain, &id, &mut rng, "prepare_credit", "t2", "bob", 30).unwrap();
        xfer(&mut chain, &id, &mut rng, "abort", "t2", "", 0).unwrap();
        xfer(&mut chain, &id, &mut rng, "abort", "t2", "", 0).unwrap();
        assert_eq!(read_balance(chain.state(), "bob"), Some(50));
        assert_eq!(
            terminal(chain.state(), TransferContract::NS, "t2"),
            Some(TerminalState::Aborted)
        );
        assert!(xfer(&mut chain, &id, &mut rng, "commit", "t2", "", 0).is_err());
        assert!(staged(chain.state(), TransferContract::NS).is_empty());
    }

    #[test]
    fn transfer_abort_refunds_and_conserves() {
        let (mut chain, id, mut rng) = transfer_chain();
        open(&mut chain, &id, &mut rng, "carol", 40).unwrap();
        xfer(
            &mut chain,
            &id,
            &mut rng,
            "prepare_debit",
            "t9",
            "carol",
            25,
        )
        .unwrap();
        assert_eq!(
            total_balances(chain.state()) + locked_total(chain.state()),
            40
        );
        xfer(&mut chain, &id, &mut rng, "abort", "t9", "", 0).unwrap();
        assert_eq!(read_balance(chain.state(), "carol"), Some(40));
        assert_eq!(locked_total(chain.state()), 0);
        // Insufficient funds votes abort at endorsement time.
        assert!(xfer(
            &mut chain,
            &id,
            &mut rng,
            "prepare_debit",
            "t10",
            "carol",
            41
        )
        .is_err());
        // Presumed abort fences the late prepare.
        xfer(&mut chain, &id, &mut rng, "abort", "t11", "", 0).unwrap();
        assert!(xfer(
            &mut chain,
            &id,
            &mut rng,
            "prepare_debit",
            "t11",
            "carol",
            5
        )
        .is_err());
        assert_eq!(total_balances(chain.state()), 40);
    }

    #[test]
    fn transfer_single_shard_fast_path() {
        let (mut chain, id, mut rng) = transfer_chain();
        open(&mut chain, &id, &mut rng, "a", 10).unwrap();
        open(&mut chain, &id, &mut rng, "b", 0).unwrap();
        let args = vec![b"a".to_vec(), b"b".to_vec(), 7u64.to_be_bytes().to_vec()];
        chain
            .invoke_commit(&id, TRANSFER_CC, "transfer", args, &mut rng)
            .unwrap();
        assert_eq!(read_balance(chain.state(), "a"), Some(3));
        assert_eq!(read_balance(chain.state(), "b"), Some(7));
        let args = vec![b"a".to_vec(), b"b".to_vec(), 99u64.to_be_bytes().to_vec()];
        assert!(chain
            .invoke_commit(&id, TRANSFER_CC, "transfer", args, &mut rng)
            .is_err());
    }
}
