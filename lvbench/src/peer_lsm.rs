//! `peer_commit_lsm`: one peer's MVCC + ledger-write path on the
//! disk-backed LSM state, with the working set several times the engine's
//! memory budget, followed by the restart path. No signatures anywhere:
//! this is `statedb`, `store` and `fabric::digest` in isolation. Closed
//! loop, one block in flight.
//!
//! Set-up loads the accounts and generates the measured blocks. Every
//! repetition starts from a copy of the loaded store, so repetitions do
//! identical work and must end on the same root; a repetition is long
//! enough for several memtable flushes, compactions and checkpoints.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::ledger::{Block, Transaction};
use fabric_sim::parallel::ValidationConfig;
use fabric_sim::{FabricChain, Identity, Msp, StorageConfig, Version};
use fabric_store::wal::FsyncPolicy;
use ledgerview_crypto::rng::seeded;
use ledgerview_gateway::keydist::mix64;
use ledgerview_statedb::{LsmConfig, LsmStats};

use crate::harness::{copy_dir, dir_bytes, median, percentile, secs, Rep, Scratch, Stopwatch};
use crate::inputs::{all_valid, kv_key, KvChaincode, LsmDeck, KV_CC};
use crate::probes::{self, row, Row};
use crate::spans::Spans;

pub const VALUE_BYTES: usize = 256;
/// Engine budgets: memtable, block cache, row cache.
pub const MEMTABLE_BYTES: usize = 512 << 10;
pub const BLOCK_CACHE_BYTES: usize = 512 << 10;
pub const ROW_CACHE_BYTES: usize = 512 << 10;
pub const CHECKPOINT_EVERY: u64 = 64;
pub const TXS_PER_BLOCK: usize = 200;
/// Load phase shape: accounts per `fill` transaction, transactions per
/// block.
const FILL_KEYS_PER_TX: usize = 500;
const FILL_TXS_PER_BLOCK: usize = 8;

/// Workload size: accounts loaded, blocks committed per repetition.
#[derive(Clone, Copy)]
pub struct Size {
    pub keys: usize,
    pub blocks: usize,
}

fn load_blocks(keys: usize) -> u64 {
    keys.div_ceil(FILL_KEYS_PER_TX * FILL_TXS_PER_BLOCK) as u64
}

/// The version the load phase leaves on account `i`.
fn load_version(i: usize) -> Version {
    let tx = i / FILL_KEYS_PER_TX;
    Version {
        block_num: (tx / FILL_TXS_PER_BLOCK) as u64,
        tx_num: (tx % FILL_TXS_PER_BLOCK) as u32,
    }
}

/// Open (or recover) the peer under `dir`.
pub fn open_peer(dir: &Path) -> (FabricChain, Identity) {
    let mut rng = seeded(0x15B);
    let lsm = LsmConfig::new(dir.join("lsm"))
        .memtable_bytes(MEMTABLE_BYTES)
        .block_cache_bytes(BLOCK_CACHE_BYTES)
        .row_cache_bytes(ROW_CACHE_BYTES)
        .sync(false);
    let validation = ValidationConfig {
        verify_endorsements: false,
        ..ValidationConfig::parallel(2)
    };
    let mut chain = FabricChain::with_lsm_storage_tuned(
        &["PeerOrg"],
        &mut rng,
        StorageConfig::new(dir)
            .fsync(FsyncPolicy::EveryN(512))
            .checkpoint_every(CHECKPOINT_EVERY),
        lsm,
        validation,
    )
    .expect("open lsm peer");
    chain.set_check_signatures(false);
    chain.deploy(
        KV_CC,
        Box::new(KvChaincode),
        EndorsementPolicy::AnyOf(chain.org_ids()),
    );
    let client = chain
        .enroll(&chain.org_ids()[0], "loader", &mut rng)
        .expect("enroll loader");
    (chain, client)
}

/// A loaded store on disk and the blocks every repetition commits on it.
pub struct Base {
    scratch: Scratch,
    pub blocks: Vec<Vec<Transaction>>,
    pub deck_hash: String,
}

impl Base {
    pub fn dir(&self) -> &Path {
        self.scratch.path()
    }
}

/// Set-up: load `size.keys` accounts through the chain, flush, close, and
/// generate the measured blocks.
pub fn set_up(seed: u64, size: Size) -> Base {
    let scratch = Scratch::new("lsm-base");
    let (mut chain, client) = open_peer(scratch.path());
    let mut rng = seeded(seed);
    let mut start = 0;
    while start < size.keys {
        for _ in 0..FILL_TXS_PER_BLOCK {
            let count = FILL_KEYS_PER_TX.min(size.keys - start);
            if count == 0 {
                break;
            }
            let args = [start, count, VALUE_BYTES].map(|n| n.to_string().into_bytes());
            chain
                .invoke(&client, KV_CC, "fill", args.to_vec(), &mut rng)
                .expect("endorse fill");
            start += count;
        }
        assert!(all_valid(&chain.cut_block()), "load block invalid");
    }
    assert_eq!(chain.height(), load_blocks(size.keys));
    chain.flush().expect("flush loaded store");
    drop(chain);

    let mut deck = LsmDeck::new(
        seed,
        size.keys,
        VALUE_BYTES,
        client.cert().clone(),
        load_blocks(size.keys),
        load_version,
    );
    let blocks = (0..size.blocks)
        .map(|_| deck.next_block(TXS_PER_BLOCK))
        .collect();
    Base {
        deck_hash: deck.deck_hash(),
        blocks,
        scratch,
    }
}

/// A fresh copy of the base, opened: where a repetition starts.
struct OpenCopy {
    _scratch: Scratch,
    dir: PathBuf,
    chain: FabricChain,
}

fn open_copy(base: &Base) -> OpenCopy {
    let scratch = Scratch::new("lsm-rep");
    let dir = scratch.path().join("peer");
    copy_dir(base.dir(), &dir);
    let (chain, _) = open_peer(&dir);
    OpenCopy {
        _scratch: scratch,
        dir,
        chain,
    }
}

/// The measured window: every block through `commit_ordered`.
pub struct Commits {
    /// Wall milliseconds of each `commit_ordered`.
    pub block_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_us: u64,
    pub valid: u64,
}

fn commit_all(chain: &mut FabricChain, base: &Base, spans: &mut Spans) -> Commits {
    let first = chain.height();
    // `commit_ordered` consumes its block; copy them all before the window.
    let blocks = base.blocks.clone();
    let mut block_ms = Vec::with_capacity(blocks.len());
    let mut valid = 0u64;
    let watch = Stopwatch::start();
    for (i, txs) in blocks.into_iter().enumerate() {
        let start = Instant::now();
        let outcomes = spans.time("fabric.commit_ordered", i as u64, |_| {
            chain.commit_ordered(txs, 1_000_000 + i as u64)
        });
        block_ms.push(secs(start.elapsed()) * 1e3);
        assert!(
            all_valid(&outcomes),
            "generated block {i} had an invalid transaction"
        );
        valid += outcomes.len() as u64;
    }
    let (wall_s, cpu_us) = watch.stop();
    assert_eq!(chain.height(), first + base.blocks.len() as u64);
    Commits {
        block_ms,
        wall_s,
        cpu_us,
        valid,
    }
}

/// Flush, close, reopen from disk (timed) and check the reopened root and
/// height against the values before the close. Returns the wall seconds
/// of the reopen and the fingerprint.
fn close_and_reopen(mut chain: FabricChain, dir: &Path, spans: &mut Spans) -> (f64, String) {
    chain.flush().expect("flush before close");
    let (root, height) = (chain.state_root(), chain.height());
    drop(chain);
    let reopen = Instant::now();
    let (reopened, _) = spans.time("store.recovery", 0, |_| open_peer(dir));
    let recovery_s = secs(reopen.elapsed());
    assert_eq!(reopened.state_root(), root, "reopened root differs");
    assert_eq!(reopened.height(), height, "reopened height differs");
    (recovery_s, format!("{}@{height}", root.to_hex()))
}

/// One repetition on a fresh copy of the base: commit every block, flush,
/// close, reopen, check.
pub fn run_rep(base: &Base) -> Rep {
    let mut spans = Spans::off();
    let mut copy = open_copy(base);
    let commits = commit_all(&mut copy.chain, base, &mut spans);
    let (_, fingerprint) = close_and_reopen(copy.chain, &copy.dir, &mut spans);
    Rep {
        setup_s: None,
        wall_s: commits.wall_s,
        cpu_us: commits.cpu_us,
        attempted: commits.valid,
        valid: commits.valid,
        stored_bytes: dir_bytes(&copy.dir),
        fingerprint,
    }
}

// ---- traced run --------------------------------------------------------

/// Point reads sampled after the window, for `statedb.get_us_*`.
const SAMPLED_GETS: usize = 20_000;

/// One traced repetition: the same calls under spans, the engine's
/// statistics over exactly the measured window, sampled point reads, and
/// the layer probes on the blocks the chain committed.
pub fn trace(seed: u64, size: Size, spans: &mut Spans) -> Vec<Row> {
    let base = set_up(seed, size);
    let untraced = run_rep(&base);

    let mut copy = open_copy(&base);
    let stats = |chain: &FabricChain| chain.lsm_backend().expect("lsm peer").lsm_stats();
    let before = stats(&copy.chain);
    let commits = commit_all(&mut copy.chain, &base, spans);
    let after = stats(&copy.chain);
    let delta = |f: fn(&LsmStats) -> u64| (f(&after) - f(&before)) as f64;
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);

    let mut get_us = Vec::with_capacity(SAMPLED_GETS);
    for i in 0..SAMPLED_GETS as u64 {
        let key = kv_key((mix64(seed ^ i) % size.keys as u64) as usize);
        let start = Instant::now();
        std::hint::black_box(copy.chain.state().get(&key));
        get_us.push(secs(start.elapsed()) * 1e6);
    }
    let reads = stats(&copy.chain);
    let table_bytes: u64 = after.levels.iter().map(|l| l.bytes).sum();
    let live_bytes = copy.chain.state().size_bytes();

    let blocks: Vec<Block> = copy.chain.store().iter().cloned().collect();
    // Endorsements are not checked on this workload, so the validator
    // probe needs neither identities nor a real policy.
    let (msp, policy) = (Msp::new(), EndorsementPolicy::AnyOf(Vec::new()));
    let (recovery_s, _) = close_and_reopen(copy.chain, &copy.dir, spans);

    let txs = commits.valid as f64;
    let n = commits.block_ms.len() as u64;
    let mut rows = vec![
        row(
            "fabric.commit_ordered_us_per_tx",
            commits.wall_s * 1e6 / txs,
            commits.valid,
        ),
        row("fabric.block_commit_ms_p50", median(&commits.block_ms), n),
        row(
            "fabric.block_commit_ms_p90",
            percentile(&commits.block_ms, 0.90),
            n,
        ),
        row(
            "fabric.block_commit_ms_max",
            percentile(&commits.block_ms, 1.0),
            n,
        ),
        row("store.recovery_s", recovery_s, 1),
        row("statedb.get_us_p50", median(&get_us), SAMPLED_GETS as u64),
        row(
            "statedb.get_us_p99",
            percentile(&get_us, 0.99),
            SAMPLED_GETS as u64,
        ),
        row(
            "statedb.read_amp",
            (reads.probes - after.probes) as f64 / (reads.gets - after.gets).max(1) as f64,
            reads.gets - after.gets,
        ),
        row(
            "statedb.write_amp",
            delta(|s| s.table_bytes_written) / delta(|s| s.user_bytes_written).max(1.0),
            n,
        ),
        row(
            "statedb.space_amp",
            table_bytes as f64 / live_bytes.max(1) as f64,
            1,
        ),
        row(
            "statedb.block_cache_hit_ratio",
            ratio(
                delta(|s| s.block_cache_hits),
                delta(|s| s.block_cache_misses),
            ),
            (delta(|s| s.block_cache_hits) + delta(|s| s.block_cache_misses)) as u64,
        ),
        row(
            "statedb.row_cache_hit_ratio",
            ratio(delta(|s| s.row_cache_hits), delta(|s| s.row_cache_misses)),
            (delta(|s| s.row_cache_hits) + delta(|s| s.row_cache_misses)) as u64,
        ),
        row("statedb.flushes", delta(|s| s.flushes), n),
        row("statedb.compactions", delta(|s| s.compactions), n),
        row(
            "statedb.flush_ms_total",
            delta(|s| s.flush_us_total) / 1e3,
            n,
        ),
        row(
            "statedb.compaction_ms_total",
            delta(|s| s.compaction_us_total) / 1e3,
            n,
        ),
        row(
            "telemetry.trace_overhead_pct",
            (commits.wall_s / untraced.wall_s - 1.0) * 100.0,
            2,
        ),
    ];
    let refs: Vec<&Block> = blocks.iter().collect();
    let measured_from = refs.len() - base.blocks.len();
    rows.extend(probes::wire(&refs[measured_from..]));
    rows.extend(probes::validator(
        &refs,
        measured_from,
        &msp,
        &policy,
        false,
    ));
    rows.extend(probes::digest(&refs, measured_from));
    rows.extend(probes::store(&refs, measured_from));
    rows
}
