//! The counter chaincode: the contended workload the replication
//! cluster, the reorder tests and `lvbench` commit.

use fabric_sim::chaincode::TxContext;
use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::{Chaincode, FabricChain, FabricError, Identity};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A minimal contended chaincode: named counters.
///
/// * `incr key delta` — read-modify-write (the MVCC-conflict workhorse).
/// * `get key` — read.
/// * `put key value` — blind write.
///
/// Counter values are stored as decimal strings so ledgers stay greppable.
pub struct CounterChaincode;

impl CounterChaincode {
    fn read_i64(ctx: &mut TxContext<'_>, key: &str) -> Result<i64, FabricError> {
        match ctx.get_state(key) {
            None => Ok(0),
            Some(raw) => String::from_utf8(raw)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    FabricError::ChaincodeError(format!("counter {key:?} is not an integer"))
                }),
        }
    }
}

impl Chaincode for CounterChaincode {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        let arg = |i: usize| -> Result<&str, FabricError> {
            args.get(i)
                .and_then(|a| std::str::from_utf8(a).ok())
                .ok_or_else(|| {
                    FabricError::ChaincodeError(format!("{function}: missing/invalid arg {i}"))
                })
        };
        match function {
            "incr" => {
                let key = arg(0)?;
                let delta: i64 = arg(1)?
                    .parse()
                    .map_err(|_| FabricError::ChaincodeError("incr: bad delta".into()))?;
                let next = Self::read_i64(ctx, key)?.wrapping_add(delta);
                let key = key.to_string();
                ctx.put_state(key, next.to_string().into_bytes());
                Ok(next.to_string().into_bytes())
            }
            "get" => {
                let key = arg(0)?;
                Ok(Self::read_i64(ctx, key)?.to_string().into_bytes())
            }
            "put" => {
                let key = arg(0)?.to_string();
                let value = args
                    .get(1)
                    .cloned()
                    .ok_or_else(|| FabricError::ChaincodeError("put: missing value".into()))?;
                ctx.put_state(key, value);
                Ok(Vec::new())
            }
            other => Err(FabricError::ChaincodeError(format!(
                "counter: unknown function {other:?}"
            ))),
        }
    }
}

/// A two-org chain with the [`CounterChaincode`] deployed and `identities`
/// client identities enrolled — the single-chain substrate for the
/// cut-stage tests.
///
/// `check_signatures = false` skips Ed25519 verification at commit (the
/// crypto is exercised elsewhere).
pub fn counter_chain(
    seed: u64,
    identities: usize,
    check_signatures: bool,
) -> (FabricChain, Vec<Identity>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chain = FabricChain::new(&["GatewayOrg", "AuditOrg"], &mut rng);
    chain.set_check_signatures(check_signatures);
    chain.deploy(
        "counter",
        Box::new(CounterChaincode),
        EndorsementPolicy::AnyOf(chain.org_ids()),
    );
    let org = chain.org_ids()[0].clone();
    let ids = (0..identities.max(1))
        .map(|i| {
            chain
                .enroll(&org, &format!("client-{i}"), &mut rng)
                .expect("org exists")
        })
        .collect();
    (chain, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_chaincode_increments_and_reads() {
        let (mut chain, ids) = counter_chain(7, 1, true);
        let mut rng = StdRng::seed_from_u64(9);
        let incr = |chain: &mut FabricChain, rng: &mut StdRng| {
            chain
                .invoke_commit(
                    &ids[0],
                    "counter",
                    "incr",
                    vec![b"k".to_vec(), b"5".to_vec()],
                    rng,
                )
                .unwrap()
        };
        incr(&mut chain, &mut rng);
        incr(&mut chain, &mut rng);
        let got = chain
            .invoke_commit(&ids[0], "counter", "get", vec![b"k".to_vec()], &mut rng)
            .unwrap();
        assert_eq!(got.response, b"10".to_vec());
    }
}
