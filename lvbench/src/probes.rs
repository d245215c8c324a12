//! Per-layer probes for the traced run: each one times calls into a
//! single crate's public functions on the bytes the workload really
//! produced (its committed blocks), so a row of the cost ledger can be
//! read off without instrumenting the program.

use std::hint::black_box;
use std::time::Instant;

use fabric_sim::digest::StateDigester;
use fabric_sim::endorsement::{response_signing_bytes, EndorsementPolicy};
use fabric_sim::ledger::{Block, Transaction};
use fabric_sim::parallel::ValidationConfig;
use fabric_sim::storage::{DurableBackend, StateBackend};
use fabric_sim::validation::validate_and_commit_block;
use fabric_sim::{BlockValidator, Identity, Msp, StateDb, StorageConfig, Version, WorkerPool};
use fabric_store::wal::FsyncPolicy;
use ledgerview_crypto::ed25519::{self, BatchEntry};
use ledgerview_crypto::keys::EncryptionKeyPair;
use ledgerview_crypto::rng::seeded;
use ledgerview_crypto::sha256::sha256;
use ledgerview_crypto::{aead, open, seal};

use crate::harness::{secs, Scratch};

/// One per-layer metric: its value and how many samples stand behind it.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

pub fn row(name: &'static str, value: f64, samples: u64) -> Row {
    Row {
        name,
        value,
        samples,
    }
}

/// Microseconds per call of `f` over `n` calls.
fn us_per(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    secs(start.elapsed()) * 1e6 / n.max(1) as f64
}

/// Up to `cap` transactions of `blocks`, spread evenly.
fn sample_txs<'a>(blocks: &[&'a Block], cap: usize) -> Vec<&'a Transaction> {
    let all: Vec<&Transaction> = blocks.iter().flat_map(|b| b.transactions.iter()).collect();
    let stride = all.len().div_ceil(cap.max(1)).max(1);
    all.into_iter().step_by(stride).collect()
}

/// Ed25519 on the workload's real endorsement signing bytes.
pub fn crypto_signatures(blocks: &[&Block], signer: &Identity) -> Vec<Row> {
    const BATCH: usize = 64;
    let mut triples: Vec<([u8; 32], Vec<u8>, [u8; 64])> = Vec::new();
    for tx in sample_txs(blocks, 4 * BATCH) {
        let msg = response_signing_bytes(&tx.tx_id, &tx.rwset.digest(), &tx.response);
        for e in &tx.endorsements {
            triples.push((e.endorser.signing_pub, msg.clone(), e.signature));
        }
    }
    triples.truncate(4 * BATCH);
    if triples.is_empty() {
        return Vec::new();
    }
    let n = triples.len();
    let sign = us_per(n, |i| {
        black_box(signer.sign(black_box(&triples[i].1)));
    });
    let verify = us_per(n, |i| {
        let (pk, msg, sig) = &triples[i];
        ed25519::verify(pk, msg, sig).expect("committed endorsement verifies");
    });
    let batches: Vec<Vec<BatchEntry<'_>>> = triples
        .chunks(BATCH)
        .map(|c| {
            c.iter()
                .map(|(pk, msg, sig)| BatchEntry {
                    public_key: pk,
                    message: msg,
                    signature: sig,
                })
                .collect()
        })
        .collect();
    let start = Instant::now();
    for b in &batches {
        ed25519::verify_batch(black_box(b)).expect("batch verifies");
    }
    let batch = secs(start.elapsed()) * 1e6 / n as f64;
    vec![
        row("crypto.ed25519_sign_us", sign, n as u64),
        row("crypto.ed25519_verify_us", verify, n as u64),
        row("crypto.ed25519_batch_verify_us_per_sig", batch, n as u64),
    ]
}

/// Symmetric and hybrid primitives at the view layer's sizes: a view
/// entry seals a 32-byte key or a 64-byte secret under `K_V`; a query
/// response of `response_bytes` is sealed to the reader's public key.
pub fn crypto_view_sizes(response_bytes: usize) -> Vec<Row> {
    let mut rng = seeded(0xC0FFEE);
    let buf = vec![0xA5u8; 64 * 1024];
    let n_hash = 256;
    let hash_us = us_per(n_hash, |_| {
        black_box(sha256(black_box(&buf)));
    });
    let mib = |bytes: usize, us: f64| bytes as f64 / (1 << 20) as f64 / (us / 1e6);
    let key = [7u8; 32];
    let secret = [9u8; 64];
    let n_seal = 4000;
    let seal_us = us_per(n_seal, |i| {
        black_box(aead::seal_sym_aad(
            &key,
            &mut rng,
            &secret,
            &(i as u64).to_be_bytes(),
        ));
    });
    let reader = EncryptionKeyPair::generate(&mut rng);
    let response = vec![0x5Au8; response_bytes.max(1)];
    let n_hybrid = 64;
    let mut sealed = Vec::new();
    let hybrid_seal = us_per(n_hybrid, |_| {
        sealed = seal(&reader.public(), &mut rng, black_box(&response));
    });
    let hybrid_open = us_per(n_hybrid, |_| {
        black_box(open(&reader, black_box(&sealed)).expect("opens"));
    });
    vec![
        row(
            "crypto.sha256_mib_s",
            mib(buf.len(), hash_us),
            n_hash as u64,
        ),
        row(
            "crypto.aead_seal_mib_s",
            mib(secret.len(), seal_us),
            n_seal as u64,
        ),
        row("crypto.hybrid_seal_us", hybrid_seal, n_hybrid as u64),
        row("crypto.hybrid_open_us", hybrid_open, n_hybrid as u64),
    ]
}

/// Wire encoding of committed transactions and blocks.
pub fn wire(blocks: &[&Block]) -> Vec<Row> {
    let txs = sample_txs(blocks, 2000);
    if txs.is_empty() {
        return Vec::new();
    }
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(txs.len());
    let enc = us_per(txs.len(), |i| encoded.push(txs[i].encode()));
    let dec = us_per(txs.len(), |i| {
        black_box(Transaction::decode(&encoded[i]).expect("tx decodes"));
    });
    let bytes: usize = encoded.iter().map(Vec::len).sum();

    let stride = blocks.len().div_ceil(64).max(1);
    let picked: Vec<&Block> = blocks.iter().step_by(stride).copied().collect();
    let block_txs: usize = picked.iter().map(|b| b.transactions.len()).sum();
    let mut raw: Vec<Vec<u8>> = Vec::with_capacity(picked.len());
    let start = Instant::now();
    for b in &picked {
        raw.push(b.encode());
    }
    let block_enc = secs(start.elapsed()) * 1e6 / block_txs as f64;
    let start = Instant::now();
    for r in &raw {
        black_box(Block::decode(r).expect("block decodes"));
    }
    let block_dec = secs(start.elapsed()) * 1e6 / block_txs as f64;
    let n = txs.len() as u64;
    vec![
        row("fabric.tx_encode_us", enc, n),
        row("fabric.tx_decode_us", dec, n),
        row("fabric.tx_wire_bytes", bytes as f64 / txs.len() as f64, n),
        row("fabric.block_encode_us_per_tx", block_enc, block_txs as u64),
        row("fabric.block_decode_us_per_tx", block_dec, block_txs as u64),
    ]
}

/// Seconds `BlockValidator::validate_and_commit` spends on the blocks from
/// `measured_from` on, replaying the whole chain into a scratch `StateDb`.
fn validate_replay(
    blocks: &[&Block],
    measured_from: usize,
    msp: &Msp,
    policy: &EndorsementPolicy,
    config: ValidationConfig,
) -> (f64, BlockValidator) {
    let validator = BlockValidator::new(config);
    let mut state = StateDb::new();
    let mut total = 0.0;
    for (i, b) in blocks.iter().enumerate() {
        let start = Instant::now();
        let outcomes = validator.validate_and_commit(
            &b.transactions,
            &mut state,
            b.header.number,
            msp,
            &|_| Some(policy.clone()),
        );
        if i >= measured_from {
            total += secs(start.elapsed());
        }
        let validity: Vec<bool> = outcomes.iter().map(|o| o.is_valid()).collect();
        assert_eq!(
            validity, b.validity,
            "replay of block {} disagrees",
            b.header.number
        );
    }
    (total, validator)
}

/// VSCC and MVCC cost per transaction: the validator with endorsement
/// checks on, minus the same replay with them off. `vscc` says whether
/// the workload's transactions carry endorsements to check.
pub fn validator(
    blocks: &[&Block],
    measured_from: usize,
    msp: &Msp,
    policy: &EndorsementPolicy,
    vscc: bool,
) -> Vec<Row> {
    let txs: usize = blocks[measured_from..]
        .iter()
        .map(|b| b.transactions.len())
        .sum();
    let mvcc_only = ValidationConfig {
        verify_endorsements: false,
        ..ValidationConfig::parallel(2)
    };
    let (off_s, _) = validate_replay(blocks, measured_from, msp, policy, mvcc_only);
    let mut rows = vec![row(
        "fabric.mvcc_us_per_tx",
        off_s * 1e6 / txs as f64,
        txs as u64,
    )];
    if vscc {
        let (on_s, v) = validate_replay(
            blocks,
            measured_from,
            msp,
            policy,
            ValidationConfig::parallel(2),
        );
        let stats = v.cache_stats();
        rows.push(row(
            "fabric.vscc_us_per_tx",
            (on_s - off_s).max(0.0) * 1e6 / txs as f64,
            txs as u64,
        ));
        rows.push(row(
            "fabric.sigcache_hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
            stats.hits + stats.misses,
        ));
    }
    rows
}

/// The incremental state digest on the measured blocks' writes: apply
/// every write, take the digest once per block.
pub fn digest(blocks: &[&Block], measured_from: usize) -> Vec<Row> {
    let mut digester = StateDigester::new();
    let mut writes = 0u64;
    let mut total = 0.0;
    for (i, b) in blocks.iter().enumerate() {
        let start = Instant::now();
        for (t, tx) in b.transactions.iter().enumerate() {
            if !b.validity[t] {
                continue;
            }
            let version = Version {
                block_num: b.header.number,
                tx_num: t as u32,
            };
            for w in &tx.rwset.writes {
                match &w.value {
                    Some(v) => digester.apply_put(&w.key, v, version),
                    None => digester.apply_delete(&w.key, version),
                }
                if i >= measured_from {
                    writes += 1;
                }
            }
        }
        black_box(digester.digest());
        if i >= measured_from {
            total += secs(start.elapsed());
        }
    }
    vec![row(
        "fabric.digest_us_per_write",
        total * 1e6 / writes.max(1) as f64,
        writes,
    )]
}

/// Bytes of the files directly under `dir` whose name satisfies `pick`.
fn files_bytes(dir: &std::path::Path, pick: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .expect("read store probe dir")
        .flatten()
        .filter(|e| pick(&e.file_name().to_string_lossy()))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The durable store on the same blocks: replay them into a scratch
/// `DurableBackend` (WAL append + block-file append per block, timed),
/// force one checkpoint, then reopen from disk.
pub fn store(blocks: &[&Block], measured_from: usize) -> Vec<Row> {
    let scratch = Scratch::new("store-probe");
    let pool = WorkerPool::new(2);
    let config = || {
        StorageConfig::new(scratch.path())
            .fsync(FsyncPolicy::EveryN(512))
            .checkpoint_every(u64::MAX)
    };
    let (mut backend, _) = DurableBackend::open(config(), &pool).expect("open store probe");
    let mut persist_s = 0.0;
    let (mut measured_blocks, mut measured_txs) = (0u64, 0u64);
    // WAL segments are `state.wal.<n>`; the block file is `blocks.dat` + `.idx`.
    let wal_bytes = || files_bytes(scratch.path(), |name| name.contains(".wal"));
    let blockfile_bytes = || files_bytes(scratch.path(), |name| name.starts_with("blocks."));
    let (mut wal_before, mut blockfile_before, mut fsyncs_before) = (0, 0, 0);
    for (i, b) in blocks.iter().enumerate() {
        if i == measured_from {
            wal_before = wal_bytes();
            blockfile_before = blockfile_bytes();
            fsyncs_before = backend.fsyncs();
        }
        validate_and_commit_block(&b.transactions, backend.state_mut(), b.header.number);
        let start = Instant::now();
        backend.commit_block(b).expect("persist block");
        if i >= measured_from {
            persist_s += secs(start.elapsed());
            measured_blocks += 1;
            measured_txs += b.transactions.len() as u64;
        }
    }
    backend.flush().expect("flush store probe");
    let fsyncs = backend.fsyncs() - fsyncs_before;
    let (wal, blockfile) = (
        wal_bytes() - wal_before,
        blockfile_bytes() - blockfile_before,
    );
    let start = Instant::now();
    backend.checkpoint_now().expect("checkpoint");
    let checkpoint_ms = secs(start.elapsed()) * 1e3;
    let checkpoints = backend.checkpoints_saved();
    drop(backend);

    let start = Instant::now();
    let (reopened, recovered) = DurableBackend::open(config(), &pool).expect("reopen store probe");
    let recovery_s = secs(start.elapsed());
    assert_eq!(recovered.len(), blocks.len(), "store probe lost blocks");
    assert_eq!(
        Some(reopened.state_root()),
        blocks.last().map(|b| b.header.state_root),
        "store probe recovered a different root"
    );
    vec![
        row(
            "store.persist_us_per_block",
            persist_s * 1e6 / measured_blocks.max(1) as f64,
            measured_blocks,
        ),
        row(
            "store.wal_bytes_per_tx",
            wal as f64 / measured_txs.max(1) as f64,
            measured_txs,
        ),
        row(
            "store.blockfile_bytes_per_tx",
            blockfile as f64 / measured_txs.max(1) as f64,
            measured_txs,
        ),
        row(
            "store.fsyncs_per_block",
            fsyncs as f64 / measured_blocks.max(1) as f64,
            measured_blocks,
        ),
        row("store.checkpoint_ms", checkpoint_ms, 1),
        row("store.checkpoints", checkpoints as f64, 1),
        row(
            "store.recovery_ms_per_kblock",
            recovery_s * 1e3 / (blocks.len() as f64 / 1e3),
            blocks.len() as u64,
        ),
    ]
}
