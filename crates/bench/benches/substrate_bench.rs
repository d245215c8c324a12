//! Benchmarks of the blockchain substrate: Merkle trees, the state
//! database digest, the storage checksum, LSM compaction, block commit,
//! commit-time endorsement validation (VSCC), and datalog view
//! evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use fabric_sim::merkle::{verify_inclusion, MerkleTree};
use fabric_sim::statedb::{StateDb, Version};
use ledgerview_datalog::{Atom, Database, Program, Rule, Term, Value};

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle");
    for n in [100usize, 1000] {
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect();
        group.bench_with_input(BenchmarkId::new("build", n), &leaves, |b, leaves| {
            b.iter(|| MerkleTree::build(black_box(leaves)));
        });
        let tree = MerkleTree::build(&leaves);
        group.bench_with_input(BenchmarkId::new("prove", n), &tree, |b, tree| {
            b.iter(|| tree.prove(black_box(n / 2)));
        });
        let proof = tree.prove(n / 2);
        let root = tree.root();
        group.bench_with_input(BenchmarkId::new("verify", n), &proof, |b, proof| {
            b.iter(|| verify_inclusion(&root, black_box(&leaves[n / 2]), proof));
        });
    }
    group.finish();
}

fn bench_statedb(c: &mut Criterion) {
    let mut group = c.benchmark_group("statedb");
    let version = |i: usize| Version {
        block_num: (i / 100) as u64,
        tx_num: (i % 100) as u32,
    };
    for (label, n) in [("1k", 1_000usize), ("10k", 10_000), ("100k", 100_000)] {
        let mut db = StateDb::new();
        for i in 0..n {
            db.put(
                format!("key-{i:06}"),
                format!("value-{i}").into_bytes(),
                version(i),
            );
        }
        // The digest of an unchanged state is a cached read, so each
        // iteration is a block's worth of writes plus the digest they
        // dirty: overwrites patch leaf→root paths, inserts rebuild the
        // buckets they land in (and grow the state as the bench runs).
        db.state_digest();
        let mut round = 0usize;
        group.bench_function(
            BenchmarkId::new("state_digest/after_100_overwrites", label),
            |b| {
                b.iter(|| {
                    round += 1;
                    for j in 0..100 {
                        let i = (round * 7919 + j * 31) % n;
                        db.put(format!("key-{i:06}"), vec![round as u8; 16], version(round));
                    }
                    db.state_digest()
                });
            },
        );
        let mut next = n;
        group.bench_function(
            BenchmarkId::new("state_digest/after_100_inserts", label),
            |b| {
                b.iter(|| {
                    for _ in 0..100 {
                        db.put(format!("key-{next:06}"), vec![1u8; 16], version(next));
                        next += 1;
                    }
                    db.state_digest()
                });
            },
        );
        if n == 10_000 {
            group.bench_with_input(BenchmarkId::new("prove", label), &db, |b, db| {
                b.iter(|| db.prove(black_box("key-005000")));
            });
        }
        group.bench_with_input(BenchmarkId::new("prefix_scan", n), &db, |b, db| {
            b.iter(|| db.scan_prefix(black_box("key-0001")).count());
        });
    }
    group.finish();
}

/// CRC-32 over one 4 KiB table block, through each body: the table loop
/// and, when this CPU has it, the carry-less multiply body (which the
/// dispatch takes whenever `hardware_accelerated`).
fn bench_crc32(c: &mut Criterion) {
    use fabric_store::crc32;
    let block: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let mut group = c.benchmark_group("crc32");
    group.throughput(Throughput::Bytes(block.len() as u64));
    group.bench_with_input(BenchmarkId::new("portable", 4096), &block, |b, block| {
        b.iter(|| crc32::crc32_portable(black_box(block)));
    });
    if crc32::hardware_accelerated() {
        group.bench_with_input(BenchmarkId::new("hardware", 4096), &block, |b, block| {
            b.iter(|| crc32::crc32(black_box(block)));
        });
    }
    group.finish();
}

/// One L0 compaction: four flushed tables of 2 000 overwrites each, merged
/// into an L1 of 40 000 keys × 256 B (~11 MiB). The inputs are built once;
/// each iteration hard-links them into a fresh directory (tables are
/// immutable and the manifest is replaced by rename, so the originals stay
/// intact), reopens the engine, flushes an empty memtable and waits for
/// the flush job, which runs exactly that compaction.
fn bench_compaction(c: &mut Criterion) {
    use fabric_store::testdir::TestDir;
    use ledgerview_statedb::{Lsm, LsmConfig, Version};
    let scratch = TestDir::new("bench-compact-l0");
    let inputs = scratch.path().join("inputs");
    let config = |dir: &std::path::Path, l0_tables| {
        LsmConfig::new(dir).l0_compact_tables(l0_tables).sync(false)
    };
    let version = |block_num| Version {
        block_num,
        tx_num: 0,
    };
    {
        let (mut lsm, _) = Lsm::open(config(&inputs, 1)).expect("open lsm");
        for i in 0..40_000u32 {
            lsm.put(
                format!("acct~{i:08}"),
                vec![(i % 251) as u8; 256],
                version(1),
            );
        }
        lsm.flush(b"").expect("flush into L1");
    }
    {
        let (mut lsm, _) = Lsm::open(config(&inputs, 5)).expect("reopen lsm");
        for table in 0..4u32 {
            for j in 0..2_000u32 {
                let i = (j * 7_919 + table * 104_729) % 40_000;
                lsm.put(
                    format!("acct~{i:08}"),
                    vec![table as u8; 256],
                    version(2 + table as u64),
                );
            }
            lsm.flush(b"").expect("flush an L0 table");
        }
        let levels = lsm.stats().levels;
        assert_eq!(
            (levels[0].tables, levels.len()),
            (4, 2),
            "four L0 tables over an L1"
        );
    }
    let work = scratch.path().join("work");
    c.benchmark_group("statedb")
        .bench_function(BenchmarkId::from_parameter("compact_l0"), |b| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&work);
                std::fs::create_dir_all(&work).expect("work dir");
                for entry in std::fs::read_dir(&inputs).expect("inputs") {
                    let entry = entry.expect("entry");
                    std::fs::hard_link(entry.path(), work.join(entry.file_name())).expect("link");
                }
                let (mut lsm, _) = Lsm::open(config(&work, 4)).expect("open copy");
                lsm.flush(b"").expect("start the compaction job");
                // The job compacts on the engine's flush thread: time it
                // to the end.
                lsm.wait().expect("compact");
                assert_eq!(lsm.stats().compactions, 1);
            });
        });
}

fn bench_block_commit(c: &mut Criterion) {
    use fabric_sim::endorsement::EndorsementPolicy;
    use fabric_sim::identity::OrgId;
    use fabric_sim::{Chaincode, FabricChain, TxContext};
    use ledgerview_crypto::rng::seeded;

    struct PutChaincode;
    impl Chaincode for PutChaincode {
        fn invoke(
            &self,
            ctx: &mut TxContext<'_>,
            _function: &str,
            args: &[Vec<u8>],
        ) -> Result<Vec<u8>, fabric_sim::FabricError> {
            ctx.put_state(
                String::from_utf8_lossy(&args[0]).to_string(),
                args[1].clone(),
            );
            Ok(vec![])
        }
    }

    c.bench_function("chain/invoke_commit_signed", |b| {
        let mut rng = seeded(1);
        let mut chain = FabricChain::new(&["Org1"], &mut rng);
        chain.deploy(
            "kv",
            Box::new(PutChaincode),
            EndorsementPolicy::AnyOf(chain.org_ids()),
        );
        let user = chain.enroll(&OrgId::new("Org1"), "u", &mut rng).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            chain
                .invoke_commit(
                    &user,
                    "kv",
                    "put",
                    vec![format!("k{i}").into_bytes(), b"v".to_vec()],
                    &mut rng,
                )
                .unwrap()
        });
    });

    c.bench_function("chain/invoke_commit_unsigned", |b| {
        let mut rng = seeded(2);
        let mut chain = FabricChain::new(&["Org1"], &mut rng);
        chain.set_check_signatures(false);
        chain.deploy(
            "kv",
            Box::new(PutChaincode),
            EndorsementPolicy::AnyOf(chain.org_ids()),
        );
        let user = chain.enroll(&OrgId::new("Org1"), "u", &mut rng).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            chain
                .invoke_commit(
                    &user,
                    "kv",
                    "put",
                    vec![format!("k{i}").into_bytes(), b"v".to_vec()],
                    &mut rng,
                )
                .unwrap()
        });
    });
}

fn bench_validation(c: &mut Criterion) {
    use fabric_sim::chaincode::{RwSet, WriteEntry};
    use fabric_sim::endorsement::{response_signing_bytes, EndorsementPolicy};
    use fabric_sim::identity::Msp;
    use fabric_sim::ledger::{Endorsement, Transaction, TxId};
    use fabric_sim::{BlockValidator, ValidationConfig};
    use ledgerview_crypto::rng::seeded;
    use ledgerview_crypto::sha256::sha256;

    // One block as `pipeline_uniform` cuts them: 250 transactions, each a
    // blind write endorsed by both organisations.
    let mut rng = seeded(3);
    let mut msp = Msp::new();
    let orgs = [msp.add_org("Org1", &mut rng), msp.add_org("Org2", &mut rng)];
    let endorsers = orgs
        .each_ref()
        .map(|org| msp.enroll(org, &format!("peer.{org}"), &mut rng).unwrap());
    let txs: Vec<Transaction> = (0..250u32)
        .map(|n| {
            let rwset = RwSet {
                reads: vec![],
                writes: vec![WriteEntry {
                    key: format!("k{n}"),
                    value: Some(vec![n as u8; 16]),
                }],
                private_writes: vec![],
            };
            let tx_id = TxId(sha256(&n.to_be_bytes()));
            let response = vec![n as u8; 8];
            let msg = response_signing_bytes(&tx_id, &rwset.digest(), &response);
            Transaction {
                tx_id,
                chaincode: "kv".into(),
                function: "put".into(),
                args: vec![],
                creator: endorsers[0].cert().clone(),
                rwset,
                response,
                endorsements: endorsers
                    .iter()
                    .map(|e| Endorsement {
                        endorser: e.cert().clone(),
                        signature: e.sign(&msg),
                    })
                    .collect(),
            }
        })
        .collect();
    let policy = |_: &str| Some(EndorsementPolicy::AllOf(orgs.to_vec()));

    let mut group = c.benchmark_group("validation");
    for workers in [1usize, 2] {
        let validator = BlockValidator::new(ValidationConfig::parallel(workers));
        let mut state = StateDb::new();
        // The first block verifies the two certificates; measure the
        // steady state, where the MSP's memo answers for them.
        let warm = validator.validate_and_commit(&txs, &mut state, 0, &msp, &policy);
        assert!(warm.iter().all(|o| o.is_valid()));
        let mut block = 0u64;
        group.bench_function(BenchmarkId::new("vscc_250tx", format!("{workers}w")), |b| {
            b.iter(|| {
                block += 1;
                validator.validate_and_commit(black_box(&txs), &mut state, block, &msp, &policy)
            });
        });
    }
    group.finish();
}

fn bench_datalog(c: &mut Criterion) {
    // Transitive closure over a delivery chain — the recursive view
    // definition pattern of §3.
    let mut group = c.benchmark_group("datalog");
    for n in [50usize, 200] {
        let mut db = Database::new();
        for i in 0..n as i64 {
            db.insert("edge", vec![Value::int(i), Value::int(i + 1)]);
        }
        let program = Program::new(vec![
            Rule::new(
                Atom::new("path", vec![Term::var("X"), Term::var("Y")]),
                vec![Atom::new("edge", vec![Term::var("X"), Term::var("Y")])],
            ),
            Rule::new(
                Atom::new("path", vec![Term::var("X"), Term::var("Z")]),
                vec![
                    Atom::new("edge", vec![Term::var("X"), Term::var("Y")]),
                    Atom::new("path", vec![Term::var("Y"), Term::var("Z")]),
                ],
            ),
        ]);
        group.bench_with_input(BenchmarkId::new("closure", n), &db, |b, db| {
            b.iter(|| program.evaluate(black_box(db)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_merkle,
    bench_statedb,
    bench_crc32,
    bench_compaction,
    bench_block_commit,
    bench_validation,
    bench_datalog
);
criterion_main!(benches);
