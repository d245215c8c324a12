//! Benchmark-local inputs, all pure functions of the seed: the uniform
//! counter deck, the `kv` chaincode and the version-tracking block
//! generator for `peer_commit_lsm`, and the WL1 request deck. The programs
//! under test only ever see what these generate.

use std::collections::BTreeMap;

use fabric_sim::chaincode::{Chaincode, ReadEntry, RwSet, TxContext, WriteEntry};
use fabric_sim::identity::Certificate;
use fabric_sim::ledger::{Transaction, TxId};
use fabric_sim::validation::TxValidation;
use fabric_sim::{FabricError, Version};
use ledgerview_core::txmodel::{AttrValue, ClientTransaction};
use ledgerview_crypto::sha256::{sha256, Sha256};
use ledgerview_gateway::keydist::mix64;
use ledgerview_gateway::KeyDistribution;
use ledgerview_supplychain::{generate, Topology, WorkloadConfig};

/// The `i`-th draw of stream `stream` under `seed`.
fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    mix64(seed ^ mix64(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i))
}

// ---- pipeline_uniform ---------------------------------------------------

/// Keys of `n` counter increments, uniform over `keyspace` keys.
pub fn counter_deck(seed: u64, n: usize, keyspace: usize) -> Vec<String> {
    let dist = KeyDistribution::uniform(keyspace);
    (0..n as u64)
        .map(|i| format!("k{}", dist.sample_hash(draw(seed, 1, i))))
        .collect()
}

// ---- peer_commit_lsm ----------------------------------------------------

/// Name the `kv` chaincode is deployed under.
pub const KV_CC: &str = "kv";

/// Key of account `i` (fixed width, so lexical order is numeric order).
pub fn kv_key(i: usize) -> String {
    format!("acct{i:07}")
}

/// A plain key-value chaincode: `get k`, `put k v`, `rmw k v` (read then
/// overwrite), `del k`, and `fill start count len` (bulk load of `count`
/// consecutive accounts in one transaction).
pub struct KvChaincode;

impl Chaincode for KvChaincode {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        let text = |i: usize| -> Result<&str, FabricError> {
            args.get(i)
                .and_then(|a| std::str::from_utf8(a).ok())
                .ok_or_else(|| FabricError::ChaincodeError(format!("{function}: bad arg {i}")))
        };
        let number = |i: usize| -> Result<usize, FabricError> {
            text(i)?.parse().map_err(|_| {
                FabricError::ChaincodeError(format!("{function}: arg {i} not a number"))
            })
        };
        let bytes = |i: usize| -> Result<Vec<u8>, FabricError> {
            args.get(i)
                .cloned()
                .ok_or_else(|| FabricError::ChaincodeError(format!("{function}: missing arg {i}")))
        };
        match function {
            "get" => Ok(ctx.get_state(text(0)?).unwrap_or_default()),
            "put" => {
                ctx.put_state(text(0)?.to_string(), bytes(1)?);
                Ok(Vec::new())
            }
            "rmw" => {
                let old = ctx.get_state(text(0)?).unwrap_or_default();
                ctx.put_state(text(0)?.to_string(), bytes(1)?);
                Ok(old)
            }
            "del" => {
                ctx.delete_state(text(0)?.to_string());
                Ok(Vec::new())
            }
            "fill" => {
                let (start, count, len) = (number(0)?, number(1)?, number(2)?);
                for i in start..start + count {
                    ctx.put_state(kv_key(i), kv_value(i as u64, len));
                }
                Ok(Vec::new())
            }
            other => Err(FabricError::ChaincodeError(format!(
                "kv: unknown function {other:?}"
            ))),
        }
    }
}

/// The `len`-byte value stamped `stamp`.
pub fn kv_value(stamp: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(stamp % 251) as u8; len];
    let tag = stamp.to_be_bytes();
    let n = tag.len().min(len);
    v[..n].copy_from_slice(&tag[..n]);
    v
}

/// Builds blocks of pre-endorsed `kv` transactions against a model of the
/// committed versions, the way `validation_fixtures` does: each
/// transaction carries two versioned reads and one write (an overwrite, or
/// — for one in twenty — a delete; a deleted key is re-inserted by the
/// next transaction that draws it). Keys are uniform; within a block no
/// key is written twice and no key is read after it was written, so every
/// generated transaction passes MVCC. Endorsement signatures are left
/// empty: the workload commits with `verify_endorsements = false`.
pub struct LsmDeck {
    seed: u64,
    keys: usize,
    value_len: usize,
    creator: Certificate,
    /// Committed version and liveness of every key the deck has written
    /// (a delete leaves a tombstone at the deleting version); keys absent
    /// here are live at their load-phase version.
    versions: BTreeMap<usize, (Version, bool)>,
    load_version: fn(usize) -> Version,
    next_block: u64,
    next_tx: u64,
    hasher: Sha256,
    /// Deletes issued and deleted keys written again, for the tests.
    pub deletes: u64,
    pub reinserts: u64,
}

impl LsmDeck {
    /// A deck over `keys` loaded accounts. `load_version(i)` is the
    /// version the load phase left on account `i`; `first_block` is the
    /// chain height after loading.
    pub fn new(
        seed: u64,
        keys: usize,
        value_len: usize,
        creator: Certificate,
        first_block: u64,
        load_version: fn(usize) -> Version,
    ) -> LsmDeck {
        LsmDeck {
            seed,
            keys,
            value_len,
            creator,
            versions: BTreeMap::new(),
            load_version,
            next_block: first_block,
            next_tx: 0,
            hasher: Sha256::new(),
            deletes: 0,
            reinserts: 0,
        }
    }

    fn version_of(&self, key: usize) -> (Version, bool) {
        match self.versions.get(&key) {
            Some(v) => *v,
            None => ((self.load_version)(key), true),
        }
    }

    /// The next block of `txs` transactions. The deck assumes the block
    /// commits with every transaction valid (the workload asserts it).
    pub fn next_block(&mut self, txs: usize) -> Vec<Transaction> {
        let block = self.next_block;
        let mut written: Vec<usize> = Vec::with_capacity(txs);
        let mut out = Vec::with_capacity(txs);
        let mut staged: Vec<(usize, (Version, bool))> = Vec::with_capacity(txs);
        for slot in 0..txs as u64 {
            let n = self.next_tx;
            self.next_tx += 1;
            // Three distinct keys not yet written in this block; redraw on
            // the rare collision.
            let mut picked: Vec<usize> = Vec::with_capacity(3);
            let mut attempt = 0u64;
            while picked.len() < 3 {
                let k = (draw(self.seed, 2, n * 64 + attempt) % self.keys as u64) as usize;
                attempt += 1;
                if !picked.contains(&k) && !written.contains(&k) {
                    picked.push(k);
                }
            }
            let target = picked[0];
            let live = self.version_of(target).1;
            let delete = live && draw(self.seed, 3, n).is_multiple_of(20);
            let value = if delete {
                self.deletes += 1;
                None
            } else {
                if !live {
                    self.reinserts += 1;
                }
                Some(kv_value(n, self.value_len))
            };
            let function = if delete { "del" } else { "rmw" };
            let rwset = RwSet {
                reads: picked
                    .iter()
                    .map(|&k| ReadEntry {
                        key: kv_key(k),
                        version: Some(self.version_of(k).0),
                    })
                    .collect(),
                writes: vec![WriteEntry {
                    key: kv_key(target),
                    value: value.clone(),
                }],
                private_writes: vec![],
            };
            let tx_id = TxId(sha256(&[self.seed.to_be_bytes(), n.to_be_bytes()].concat()));
            self.hasher.update(tx_id.0.as_bytes());
            self.hasher.update(rwset.digest().as_bytes());
            written.push(target);
            staged.push((
                target,
                (
                    Version {
                        block_num: block,
                        tx_num: slot as u32,
                    },
                    value.is_some(),
                ),
            ));
            out.push(Transaction {
                tx_id,
                chaincode: KV_CC.into(),
                function: function.into(),
                args: vec![kv_key(target).into_bytes()],
                creator: self.creator.clone(),
                rwset,
                response: Vec::new(),
                endorsements: Vec::new(),
            });
        }
        for (key, version) in staged {
            self.versions.insert(key, version);
        }
        self.next_block += 1;
        out
    }

    /// Hash of everything generated so far: same seed ⇒ same deck.
    pub fn deck_hash(&self) -> String {
        self.hasher.clone().finalize().to_hex()
    }
}

/// Whether every outcome of a committed block is `Valid`.
pub fn all_valid(outcomes: &[TxValidation]) -> bool {
    outcomes.iter().all(TxValidation::is_valid)
}

// ---- view_ops -----------------------------------------------------------

/// The WL1 request deck and, per node, how many requests its
/// `AttrEquals("to", node)` view must reveal.
pub struct ViewDeck {
    pub nodes: Vec<String>,
    pub requests: Vec<ClientTransaction>,
    pub expected: BTreeMap<String, usize>,
}

pub fn view_deck(seed: u64, items: usize) -> ViewDeck {
    let topology = Topology::wl1();
    let workload = generate(
        &topology,
        &WorkloadConfig {
            items,
            max_hops: 4,
            seed,
            secret_bytes: 64,
        },
    );
    let nodes: Vec<String> = topology
        .node_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut expected: BTreeMap<String, usize> = nodes.iter().map(|n| (n.clone(), 0)).collect();
    let requests = workload
        .transfers
        .iter()
        .map(|t| {
            *expected
                .get_mut(&t.to)
                .expect("transfer ends at a WL1 node") += 1;
            let non_secret = t
                .attributes()
                .into_iter()
                .map(|(k, v)| {
                    let value = v
                        .parse::<i64>()
                        .map(AttrValue::Int)
                        .unwrap_or(AttrValue::Str(v));
                    (k, value)
                })
                .collect();
            ClientTransaction {
                non_secret,
                secret: t.secret.clone(),
            }
        })
        .collect();
    ViewDeck {
        nodes,
        requests,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::endorsement::EndorsementPolicy;
    use fabric_sim::{FabricChain, ValidationConfig};
    use ledgerview_crypto::rng::seeded;

    #[test]
    fn counter_deck_is_seeded_and_spread() {
        let a = counter_deck(7, 1000, 100_000);
        assert_eq!(a, counter_deck(7, 1000, 100_000));
        assert_ne!(a, counter_deck(8, 1000, 100_000));
        let distinct: std::collections::BTreeSet<&String> = a.iter().collect();
        assert!(
            distinct.len() > 950,
            "uniform draws over 100k keys rarely collide"
        );
    }

    fn kv_chain() -> (FabricChain, fabric_sim::Identity) {
        let mut rng = seeded(1);
        let mut chain = FabricChain::new(&["Org1"], &mut rng);
        chain.set_check_signatures(false);
        chain.set_validation_config(ValidationConfig::default());
        chain.deploy(
            KV_CC,
            Box::new(KvChaincode),
            EndorsementPolicy::AnyOf(chain.org_ids()),
        );
        let client = chain.enroll(&chain.org_ids()[0], "c", &mut rng).unwrap();
        (chain, client)
    }

    #[test]
    fn kv_chaincode_functions() {
        let (mut chain, client) = kv_chain();
        let mut rng = seeded(2);
        let call = |chain: &mut FabricChain, rng: &mut _, f: &str, args: &[&[u8]]| {
            chain
                .invoke_commit(
                    &client,
                    KV_CC,
                    f,
                    args.iter().map(|a| a.to_vec()).collect(),
                    rng,
                )
                .unwrap()
                .response
        };
        call(&mut chain, &mut rng, "put", &[b"a", b"1"]);
        assert_eq!(call(&mut chain, &mut rng, "get", &[b"a"]), b"1");
        assert_eq!(call(&mut chain, &mut rng, "rmw", &[b"a", b"2"]), b"1");
        assert_eq!(chain.state().get("a"), Some(b"2".to_vec()));
        call(&mut chain, &mut rng, "del", &[b"a"]);
        assert_eq!(chain.state().get("a"), None);
        call(&mut chain, &mut rng, "fill", &[b"3", b"4", b"16"]);
        assert_eq!(chain.state().get(&kv_key(6)), Some(kv_value(6, 16)));
        assert_eq!(chain.state().get(&kv_key(7)), None);
        assert!(chain
            .invoke(&client, KV_CC, "nope", vec![], &mut rng)
            .is_err());
    }

    /// Load `keys` accounts in one block, then return the chain and a deck
    /// aligned with it.
    fn loaded(seed: u64, keys: usize) -> (FabricChain, LsmDeck) {
        let (mut chain, client) = kv_chain();
        let mut rng = seeded(3);
        let args = ["0".to_string(), keys.to_string(), "32".to_string()];
        chain
            .invoke_commit(
                &client,
                KV_CC,
                "fill",
                args.iter().map(|a| a.clone().into_bytes()).collect(),
                &mut rng,
            )
            .unwrap();
        let deck = LsmDeck::new(seed, keys, 32, client.cert().clone(), 1, |_| Version {
            block_num: 0,
            tx_num: 0,
        });
        (chain, deck)
    }

    #[test]
    fn lsm_deck_validates_deletes_and_reinserts() {
        let (mut chain, mut deck) = loaded(11, 400);
        for b in 0..40u64 {
            let outcomes = chain.commit_ordered(deck.next_block(50), 1_000 + b);
            assert!(all_valid(&outcomes), "block {b}: {outcomes:?}");
        }
        assert!(deck.deletes > 50, "one write in twenty deletes");
        assert!(deck.reinserts > 10, "deleted keys are written again");
    }

    #[test]
    fn lsm_deck_hash_is_a_function_of_the_seed() {
        let run = |seed| {
            let (_, mut deck) = loaded(seed, 400);
            for _ in 0..5 {
                deck.next_block(50);
            }
            deck.deck_hash()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn view_deck_counts_every_request_once() {
        let deck = view_deck(9, 40);
        assert_eq!(deck.nodes.len(), 7);
        assert_eq!(
            deck.expected.values().sum::<usize>(),
            deck.requests.len(),
            "every transfer is delivered to exactly one node"
        );
        assert_eq!(deck.requests.len(), view_deck(9, 40).requests.len());
        assert!(deck.requests.iter().all(|r| r.secret.len() >= 64));
    }
}
