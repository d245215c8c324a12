//! Golden bytes for every public count-prefixed format: one fixed value of
//! each is encoded, and the length and SHA-256 of the encoding are pinned,
//! then decoded back. These bytes are hashed, signed, stored on disk and
//! kept as contract state, so every peer must produce them identically; a
//! failure here means a format moved a byte.
//!
//! The same tests feed each decoder hostile input: every strict prefix of
//! the encoding, and a count of `u32::MAX` followed by 16 bytes. Both must
//! decode to `Err`, never panic or abort on allocation.
//!
//! The crate-private formats (merge batches, the TxList batch, string and
//! key lists, `OwnerState`, the query response, `NonSecret`) are pinned by
//! unit tests beside their codecs in `crates/core`.

use std::fmt::Debug;

use ledgerview::cluster::batch::OrderedBatch;
use ledgerview::crypto::keys::PublicKey;
use ledgerview::crypto::sha256::sha256;
use ledgerview::datalog::{Atom, Program, Rule, Term, Value};
use ledgerview::fabric::chaincode::{PrivateWriteEntry, ReadEntry, RwSet, WriteEntry};
use ledgerview::fabric::endorsement::Proposal;
use ledgerview::fabric::identity::{Certificate, OrgId};
use ledgerview::fabric::ledger::{Block, BlockHeader, Endorsement, Transaction, TxId};
use ledgerview::fabric::storage::ChainSnapshot;
use ledgerview::fabric::wire::Writer;
use ledgerview::fabric::{StateDb, Version};
use ledgerview::telemetry::TraceContext;
use ledgerview::views::contracts::{decode_access_payload, encode_access_payload, AccessEntry};
use ledgerview::views::predicate::ViewDefinition;
use ledgerview::views::txmodel::AttrValue;
use ledgerview::views::ViewPredicate;

/// Assert the encoding's length and SHA-256.
fn assert_pinned(bytes: &[u8], len: usize, sha256_hex: &str) {
    assert_eq!(
        (bytes.len(), sha256(bytes).to_hex().as_str()),
        (len, sha256_hex)
    );
}

/// Every strict prefix of `bytes` must decode to `Err`, and so must
/// `lying`: the format's fields up to its first list, whose count is
/// `u32::MAX`, followed by 16 bytes.
fn assert_hostile_rejected<T: Debug, E>(
    bytes: &[u8],
    lying: impl FnOnce(&mut Writer),
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "prefix of {cut} of {} bytes decoded",
            bytes.len()
        );
    }
    let mut w = Writer::new();
    lying(&mut w);
    assert!(decode(&w.into_bytes()).is_err(), "a u32::MAX count decoded");
}

/// A count of `u32::MAX` followed by 16 zero bytes.
fn lying_count(w: &mut Writer) {
    w.u32(u32::MAX).array(&[0u8; 16]);
}

fn cert(subject: &str, fill: u8) -> Certificate {
    Certificate {
        subject: subject.into(),
        org: OrgId::new("Org1MSP"),
        signing_pub: [fill; 32],
        encryption_pub: PublicKey([fill.wrapping_add(1); 32]),
        ca_signature: [fill.wrapping_add(2); 64],
    }
}

fn rwset() -> RwSet {
    RwSet {
        reads: vec![
            ReadEntry {
                key: "acct~alice".into(),
                version: Some(Version {
                    block_num: 7,
                    tx_num: 3,
                }),
            },
            ReadEntry {
                key: "acct~bob".into(),
                version: None,
            },
        ],
        writes: vec![
            WriteEntry {
                key: "acct~alice".into(),
                value: Some(b"90".to_vec()),
            },
            WriteEntry {
                key: "acct~carol".into(),
                value: None,
            },
        ],
        private_writes: vec![PrivateWriteEntry {
            collection: "medical".into(),
            key: "patient~1".into(),
            value_hash: sha256(b"private value"),
        }],
    }
}

fn transaction(n: u8) -> Transaction {
    Transaction {
        tx_id: TxId(sha256(&[n])),
        chaincode: "lv.invoke".into(),
        function: "invoke_with_secret".into(),
        args: vec![b"first".to_vec(), vec![], vec![n; 5]],
        creator: cert("alice", n),
        rwset: rwset(),
        response: b"ok".to_vec(),
        endorsements: vec![
            Endorsement {
                endorser: cert("peer0", 0x40),
                signature: [0x41; 64],
            },
            Endorsement {
                endorser: cert("peer1", 0x50),
                signature: [0x51; 64],
            },
        ],
    }
}

fn block() -> Block {
    Block {
        header: BlockHeader {
            number: 12,
            prev_hash: sha256(b"prev"),
            data_hash: sha256(b"data"),
            state_root: sha256(b"state"),
            timestamp_us: 1_234_567,
        },
        transactions: vec![transaction(1), transaction(2)],
        validity: vec![true, false],
    }
}

fn batch() -> OrderedBatch {
    OrderedBatch {
        batch_id: 42,
        timestamp_us: 7_654_321,
        transactions: vec![transaction(3), transaction(4)],
        traces: vec![
            TraceContext {
                trace_id: 0x0123_4567_89ab_cdef,
                parent_span: 0,
            },
            TraceContext {
                trace_id: 0xfedc_ba98_7654_3210,
                parent_span: 99,
            },
        ],
    }
}

fn predicate() -> ViewPredicate {
    ViewPredicate::And(vec![
        ViewPredicate::touches_entity("Warehouse 1"),
        ViewPredicate::Not(Box::new(ViewPredicate::AttrEquals(
            "amount".into(),
            AttrValue::Int(-5),
        ))),
        ViewPredicate::AttrAtLeast("qty".into(), 10),
        ViewPredicate::Or(vec![]),
        ViewPredicate::True,
    ])
}

fn recursive_definition() -> ViewDefinition {
    let var = |s: &str| Term::Var(s.into());
    ViewDefinition::Recursive {
        program: Program::new(vec![
            Rule::new(
                Atom::new("item", vec![var("T"), var("I")]),
                vec![Atom::new(
                    "tx",
                    vec![var("T"), Term::Const(Value::Str("item".into())), var("I")],
                )],
            ),
            Rule::new(
                Atom::new("big", vec![var("T")]),
                vec![
                    Atom::new("item", vec![var("T"), var("I")]),
                    Atom::new(
                        "tx",
                        vec![
                            var("T"),
                            Term::Const(Value::Str("qty".into())),
                            Term::Const(Value::Int(-3)),
                        ],
                    ),
                ],
            ),
            Rule::new(Atom::new("empty", vec![]), vec![]),
        ]),
        query: "big".into(),
    }
}

#[test]
fn transaction_wire_form() {
    let tx = transaction(1);
    let bytes = tx.encode();
    assert_pinned(
        &bytes,
        835,
        "1cb3d1d33db2c495694c8893aef78ba7e5d63847d54e02ad57f552fec5fabb2c",
    );
    assert_eq!(Transaction::decode(&bytes).unwrap(), tx);
    let lying = |w: &mut Writer| {
        w.array(tx.tx_id.0.as_bytes())
            .string(&tx.chaincode)
            .string(&tx.function);
        lying_count(w);
    };
    assert_hostile_rejected(&bytes, lying, Transaction::decode);
}

#[test]
fn transaction_hash_preimage() {
    let tx = transaction(1);
    assert_pinned(
        &tx.to_bytes(),
        643,
        "fe8b478b1c3fc8aa06313a1ac320c8d8915ccf1bfef2df59bf5b1d23981e920e",
    );
    assert_eq!(tx.size_bytes(), 643);
}

#[test]
fn block_wire_form() {
    let block = block();
    let bytes = block.encode();
    assert_pinned(
        &bytes,
        1804,
        "88af472d4152fa905097d738b12803eb55789f5798e7744eb5b642ed245ec4e2",
    );
    assert_eq!(Block::decode(&bytes).unwrap(), block);
    let lying = |w: &mut Writer| {
        w.bytes(&block.header.to_bytes());
        lying_count(w);
    };
    assert_hostile_rejected(&bytes, lying, Block::decode);
}

#[test]
fn rwset_canonical_bytes() {
    let set = rwset();
    let bytes = set.to_bytes();
    assert_pinned(
        &bytes,
        144,
        "1c6c10c0f79d27cb172be802691e4e19d93be7a40ae12608869130eb674e3c97",
    );
    assert_eq!(RwSet::from_bytes(&bytes).unwrap(), set);
    assert_hostile_rejected(&bytes, lying_count, RwSet::from_bytes);
}

#[test]
fn proposal_bytes() {
    let proposal = Proposal {
        chaincode: "lv.txlist".into(),
        function: "add_batch".into(),
        args: vec![b"batch".to_vec(), vec![]],
        creator: cert("owner", 0x20),
        nonce: [0x77; 32],
    };
    let bytes = proposal.to_bytes();
    assert_pinned(
        &bytes,
        163,
        "aa2f4be39821a3e0c5fa1792ec2478f2e52740c9e5d9f27c292485b0b64470e4",
    );
    assert_eq!(proposal.tx_id(), TxId(sha256(&bytes)));
}

#[test]
fn ordered_batch_wire_form() {
    let batch = batch();
    let bytes = batch.encode();
    assert_pinned(
        &bytes,
        1722,
        "b6191f4fc08287be4157fc7128b9554173f63505c0286cb01fec7a72f38a0429",
    );
    let decoded = OrderedBatch::decode(&bytes).unwrap();
    assert_eq!(
        (decoded.batch_id, decoded.timestamp_us),
        (batch.batch_id, batch.timestamp_us)
    );
    assert_eq!(decoded.transactions, batch.transactions);
    assert_eq!(decoded.traces, batch.traces);
    let lying = |w: &mut Writer| {
        w.u64(batch.batch_id).u64(batch.timestamp_us);
        lying_count(w);
    };
    assert_hostile_rejected(&bytes, lying, |b| {
        OrderedBatch::decode(b).map(|b| b.batch_id)
    });
}

#[test]
fn chain_snapshot_wire_form() {
    let mut state = StateDb::new();
    let v = |block_num, tx_num| Version { block_num, tx_num };
    state.put("acct~alice".into(), b"90".to_vec(), v(3, 0));
    state.put("acct~bob".into(), vec![], v(4, 1));
    state.delete("acct~carol", v(5, 2));
    let snapshot = ChainSnapshot::capture(6, sha256(b"tip"), sha256(b"root"), 6_000, &state);
    let bytes = snapshot.encode();
    assert_pinned(
        &bytes,
        209,
        "ac3ad03da17840dab58beeba227e4c34a3ee96eb64bd5e174804a7de7f069455",
    );
    let decoded = ChainSnapshot::decode(&bytes).unwrap();
    assert_eq!(decoded.encode(), bytes);
    assert_eq!(
        decoded.state().unwrap().state_digest(),
        state.state_digest()
    );
    // The state's entry count opens its length-prefixed body.
    let lying = |w: &mut Writer| {
        w.u64(6)
            .array(sha256(b"tip").as_bytes())
            .array(sha256(b"root").as_bytes())
            .u64(6_000)
            .array(state.state_digest().as_bytes())
            .nested(lying_count);
    };
    assert_hostile_rejected(&bytes, lying, |b| {
        ChainSnapshot::decode(b).map(|s| s.height)
    });
}

#[test]
fn access_payload() {
    let entries = vec![
        AccessEntry {
            recipient: PublicKey([0x11; 32]),
            sealed_key: b"sealed K_V for the first recipient".to_vec(),
        },
        AccessEntry {
            recipient: PublicKey([0x22; 32]),
            sealed_key: vec![],
        },
    ];
    let bytes = encode_access_payload(&entries);
    assert_pinned(
        &bytes,
        110,
        "1a371e8ce280a46e755967f74a7c0e8d4267c819bd7c1021dee32a9694cad9b6",
    );
    assert_eq!(decode_access_payload(&bytes).unwrap(), entries);
    assert_hostile_rejected(&bytes, lying_count, decode_access_payload);
}

/// `And` with a count of `u32::MAX`.
fn lying_conjunction(w: &mut Writer) {
    w.u8(4);
    lying_count(w);
}

#[test]
fn view_predicate() {
    let p = predicate();
    let bytes = p.to_bytes();
    assert_pinned(
        &bytes,
        125,
        "b9de0eae197c121d3e90286c737fce6accc484a48390c0ff9d7544ec23dc4e2a",
    );
    assert_eq!(ViewPredicate::from_bytes(&bytes).unwrap(), p);
    assert_hostile_rejected(&bytes, lying_conjunction, ViewPredicate::from_bytes);
}

#[test]
fn view_definitions() {
    let decode = |b: &[u8]| ViewDefinition::from_bytes(b).map(|d| d.to_bytes());

    let per_tx = ViewDefinition::PerTx(predicate()).to_bytes();
    assert_pinned(
        &per_tx,
        130,
        "b6b3ea16b92038b2f6a327895b608d6d5fdae070ef7fe73e864a2da217908cdc",
    );
    assert_eq!(decode(&per_tx).unwrap(), per_tx);
    let lying = |w: &mut Writer| {
        w.u8(0).nested(lying_conjunction);
    };
    assert_hostile_rejected(&per_tx, lying, decode);

    let recursive = recursive_definition().to_bytes();
    assert_pinned(
        &recursive,
        170,
        "195eb8ca5193f8c3c278f1db961ca4d1b592993231612382509861013dacff7d",
    );
    assert_eq!(decode(&recursive).unwrap(), recursive);
    let lying = |w: &mut Writer| {
        w.u8(1).string("big").nested(lying_count);
    };
    assert_hostile_rejected(&recursive, lying, decode);
}
