//! Pluggable state persistence: the [`StateBackend`] trait, the in-memory
//! default, and the one disk-backed backend over [`fabric_store`].
//!
//! The chain commits through a backend in a fixed order per block:
//!
//! 1. the validator applies the block's writes to the backend's
//!    [`VersionedState`] (fast path for endorsement reads),
//! 2. [`StateBackend::commit_block`] persists the block — for
//!    [`DurableBackend`] that means the encoded block appended to the block
//!    file under the [`FsyncPolicy`], then — every
//!    `checkpoint_every_blocks`, or sooner when the LSM memtable crosses
//!    its threshold — a checkpoint: sync the block file, seal the
//!    memtable and start the background job that flushes it (the next
//!    checkpoint, or [`StateBackend::flush`], waits for that job first).
//!
//! The block file is the only log, as in Fabric: the state is derived from
//! it, and no write set is stored twice.
//!
//! # State engine
//!
//! [`DurableBackend`] keeps its state in an LSM tree ([`LsmState`] under
//! `<dir>/lsm`), Fabric's LevelDB analogue: values live on disk, and a
//! checkpoint is a memtable flush whose `lsm/MANIFEST` carries the
//! backend's metadata (height, rolling state root, full-state digest, the
//! store's base height with the hash of the block before it, tip
//! timestamp). The base lets a directory be a *pruned* store bootstrapped
//! from a shipped [`ChainSnapshot`]. [`InMemoryBackend`] ([`StateDb`], no
//! disk) is the differential twin durable chains are held to. DESIGN.md §8
//! has the layout.
//!
//! # Recovery
//!
//! A crash can lose a suffix of the block file (as much as the fsync
//! policy left unsynced) but never a block the last checkpoint covers:
//! the block file is synced before the memtable flush that publishes the
//! checkpoint. A checkpoint becomes the commit point when its flush job
//! completes; until then a reopen recovers from the previous one, which is
//! correct because the block file is the log. [`DurableBackend::open`]
//! opens the LSM at its last flush and verifies it against the digest the
//! manifest records, then reads the block file once, front to back.
//! Blocks are decoded [`RECOVERY_CHUNK_BLOCKS`] at a time on the worker
//! pool, and each gets, with its body in hand, the checks a live append
//! gets; a block above the checkpoint also has its writes re-derived from
//! the block itself (transactions × validity flags) and its rolling state
//! root re-derived against its header. Only what the block store keeps —
//! header, flags, tx ids and where the block sits in the file — outlives
//! its chunk. Torn tails are truncated by the store layer;
//! inconsistencies that cannot arise from a crash (a block that is not
//! the block committed, a checkpoint ahead of the block file, a
//! state-root mismatch) surface as [`FabricError::Storage`] rather than
//! being silently repaired; the operating system refusing an operation is
//! [`FabricError::Io`], so a caller can tell a damaged directory from a
//! failing disk. Directories written before the block file became the
//! only log may still hold `state.wal.*` files, and older ones still a
//! height-index file beside the block file; nothing reads either.
//!
//! Identities are **not** persisted: the simulator derives MSP keys from
//! the caller's seeded RNG, so reopening a chain with the same seed
//! reproduces the same organisations. Recovery itself never re-checks
//! endorsement signatures (they were checked at commit), so state and
//! ledger recover correctly regardless.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ledgerview_crypto::sha256::Digest;
use ledgerview_telemetry::{Counter, HistogramHandle, Telemetry};

use fabric_store::{BlockFile, FrameAt, StoreError};
pub use fabric_store::{FsyncPolicy, StorageConfig};
use ledgerview_statedb::LsmConfig;

use crate::error::FabricError;
use crate::ledger::{Block, BlockStore};
use crate::lsm::{LsmState, LSM_SUBDIR};
use crate::pool::WorkerPool;
use crate::statedb::{StateDb, Version, VersionedState};
use crate::validation::{apply_writes, state_root_from_block};
use crate::wire::{Reader, Writer};

/// How many blocks recovery reads, decodes and checks at a time: the most
/// raw and decoded block bodies it holds at once.
pub const RECOVERY_CHUNK_BLOCKS: usize = 32;

impl From<StoreError> for FabricError {
    fn from(e: StoreError) -> FabricError {
        match e {
            StoreError::Io(_) => FabricError::Io(e.to_string()),
            StoreError::Corrupt(_) => FabricError::Storage(e.to_string()),
        }
    }
}

/// Where committed state lives. The chain mutates the backend's
/// [`VersionedState`] during validation, then hands each finished block to
/// `commit_block`. State is exposed as a trait object so callers are
/// agnostic to whether it lives in memory ([`StateDb`]) or on disk
/// ([`LsmState`]).
pub trait StateBackend {
    /// The committed state database.
    fn state(&self) -> &dyn VersionedState;
    /// Mutable access for the commit path (validators apply writes here).
    fn state_mut(&mut self) -> &mut dyn VersionedState;
    /// Persist a block that was just validated and applied to
    /// [`StateBackend::state_mut`], returning where its bytes landed in
    /// the block file. In-memory backends no-op and return `None`.
    fn commit_block(&mut self, block: &Block) -> Result<Option<FrameAt>, FabricError>;
    /// Force everything written so far to stable storage.
    fn flush(&mut self) -> Result<(), FabricError>;
    /// Whether commits survive a process crash.
    fn is_durable(&self) -> bool;
    /// Attach telemetry (block append latencies, checkpoint durations,
    /// fsync counts). Backends without persistence costs ignore it.
    fn set_telemetry(&mut self, _telemetry: &Telemetry) {}
    /// The LSM state engine, when that is where this backend keeps its
    /// state (engine statistics, compaction trace). `None` otherwise.
    fn lsm_state(&self) -> Option<&LsmState> {
        None
    }
}

/// The default backend: state lives (only) in memory, exactly as before
/// storage existed. `commit_block` and `flush` are no-ops.
#[derive(Debug, Default)]
pub struct InMemoryBackend {
    state: StateDb,
}

impl InMemoryBackend {
    /// An empty in-memory backend.
    pub fn new() -> InMemoryBackend {
        InMemoryBackend::default()
    }
}

impl StateBackend for InMemoryBackend {
    fn state(&self) -> &dyn VersionedState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut dyn VersionedState {
        &mut self.state
    }

    fn commit_block(&mut self, _block: &Block) -> Result<Option<FrameAt>, FabricError> {
        Ok(None)
    }

    fn flush(&mut self) -> Result<(), FabricError> {
        Ok(())
    }

    fn is_durable(&self) -> bool {
        false
    }
}

/// Serialize the full state into a snapshot payload. Entries are tagged
/// (1 = live value, 0 = tombstone) so deletions survive the round trip —
/// they carry MVCC versions and are part of the state digest.
fn encode_state(state: &dyn VersionedState) -> Vec<u8> {
    let mut entries = Vec::new();
    state.for_each_entry(&mut |key, value, version| {
        entries.push((key.to_owned(), value.map(<[u8]>::to_vec), version));
    });
    let mut w = Writer::new();
    w.list(&entries, |w, (key, value, version)| {
        w.string(key);
        match value {
            Some(v) => {
                w.u8(1).bytes(v);
            }
            None => {
                w.u8(0);
            }
        }
        w.u64(version.block_num).u32(version.tx_num);
    });
    w.into_bytes()
}

fn decode_state(bytes: &[u8]) -> Result<StateDb, FabricError> {
    let mut r = Reader::new(bytes);
    let entries = r.list(|r| {
        let key = r.string()?;
        let value = match r.u8()? {
            1 => Some(r.bytes()?),
            0 => None,
            t => return Err(FabricError::Malformed(format!("bad state entry tag {t}"))),
        };
        let version = Version {
            block_num: r.u64()?,
            tx_num: r.u32()?,
        };
        Ok((key, value, version))
    })?;
    r.finish()?;
    let mut state = StateDb::new();
    for (key, value, version) in entries {
        match value {
            Some(v) => state.put(key, v, version),
            None => state.delete(&key, version),
        }
    }
    Ok(state)
}

/// What a checkpoint publishes in the LSM manifest beside the state
/// itself: how far the flushed state reaches, the rolling state root
/// there, the full-state Merkle digest (verified on load), the store's
/// base height (non-zero for a pruned store bootstrapped from a shipped
/// snapshot) with the hash of the block *before* the base, and the tip
/// block timestamp.
#[derive(Clone, Copy, Default)]
struct StateMeta {
    /// Blocks below this height are reflected in the persisted state.
    height: u64,
    state_root: Digest,
    state_digest: Digest,
    base_height: u64,
    base_prev_hash: Digest,
    timestamp_us: u64,
}

impl StateMeta {
    /// The manifest blob.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.height)
            .array(self.state_root.as_bytes())
            .array(self.state_digest.as_bytes())
            .u64(self.base_height)
            .array(self.base_prev_hash.as_bytes())
            .u64(self.timestamp_us);
        w.into_bytes()
    }

    /// Inverse of [`StateMeta::encode`]; trailing bytes are an error.
    fn decode(blob: &[u8]) -> Result<StateMeta, FabricError> {
        let mut r = Reader::new(blob);
        let meta = StateMeta {
            height: r.u64()?,
            state_root: Digest(r.array::<32>()?),
            state_digest: Digest(r.array::<32>()?),
            base_height: r.u64()?,
            base_prev_hash: Digest(r.array::<32>()?),
            timestamp_us: r.u64()?,
        };
        r.finish()?;
        Ok(meta)
    }
}

/// Open the LSM under `lsm.dir` with the metadata its last flush
/// published, verified against the recorded state digest. `None` metadata
/// means nothing was ever flushed and the state is empty.
fn load_state(
    config: &StorageConfig,
    lsm: LsmConfig,
) -> Result<(LsmState, Option<StateMeta>), FabricError> {
    std::fs::create_dir_all(&config.dir)
        .map_err(|e| FabricError::Io(format!("create {:?}: {e}", config.dir)))?;
    let (state, blob) = LsmState::open(lsm)?;
    let meta = blob.as_deref().map(StateMeta::decode).transpose()?;
    match meta {
        Some(m) if state.state_digest() != m.state_digest => Err(FabricError::Storage(
            "persisted state digest mismatch at reopen".into(),
        )),
        _ => Ok((state, meta)),
    }
}

/// A self-contained, shippable snapshot of a chain at one height: the full
/// state plus just enough header context (`prev_block_hash`, rolling state
/// root, tip timestamp) for the recipient to keep extending the chain
/// without any earlier block. The state digest travels inside and is
/// verified on decode and again on install, so a corrupted transfer can
/// never become a peer's state.
#[derive(Clone, Debug)]
pub struct ChainSnapshot {
    /// Chain height the snapshot was taken at (= the next block number).
    pub height: u64,
    /// Hash of the last block below `height` (`Digest::ZERO` at height 0).
    pub prev_block_hash: Digest,
    /// Rolling state root after block `height - 1`.
    pub state_root: Digest,
    /// Timestamp of the tip block, for clock monotonicity on the recipient.
    pub timestamp_us: u64,
    /// Serialized [`StateDb`] ([`encode_state`] format).
    state: Vec<u8>,
    /// Merkle digest of the state, checked on decode/install.
    state_digest: Digest,
}

impl ChainSnapshot {
    /// Capture a snapshot of `state` as of `height`.
    pub fn capture(
        height: u64,
        prev_block_hash: Digest,
        state_root: Digest,
        timestamp_us: u64,
        state: &dyn VersionedState,
    ) -> ChainSnapshot {
        ChainSnapshot {
            height,
            prev_block_hash,
            state_root,
            timestamp_us,
            state: encode_state(state),
            state_digest: state.state_digest(),
        }
    }

    /// Decode the shipped state, verifying its digest.
    pub fn state(&self) -> Result<StateDb, FabricError> {
        let state = decode_state(&self.state)?;
        if state.state_digest() != self.state_digest {
            return Err(FabricError::Storage(
                "snapshot state digest mismatch".into(),
            ));
        }
        Ok(state)
    }

    /// Wire size of the snapshot when shipped between peers.
    pub fn size_bytes(&self) -> usize {
        self.encode().len()
    }

    /// Serialize for shipping.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.height)
            .array(self.prev_block_hash.as_bytes())
            .array(self.state_root.as_bytes())
            .u64(self.timestamp_us)
            .array(self.state_digest.as_bytes())
            .bytes(&self.state);
        w.into_bytes()
    }

    /// Decode a shipped snapshot and verify the state digest.
    pub fn decode(bytes: &[u8]) -> Result<ChainSnapshot, FabricError> {
        let mut r = Reader::new(bytes);
        let snapshot = ChainSnapshot {
            height: r.u64()?,
            prev_block_hash: Digest(r.array::<32>()?),
            state_root: Digest(r.array::<32>()?),
            timestamp_us: r.u64()?,
            state_digest: Digest(r.array::<32>()?),
            state: r.bytes()?,
        };
        r.finish()?;
        snapshot.state()?; // digest check
        Ok(snapshot)
    }
}

/// What [`recover_tail`] hands back to [`DurableBackend::resume`].
struct RecoveredTail {
    blocks_file: BlockFile,
    /// Every surviving block, from the store's base up, reading bodies
    /// back from `blocks_file`.
    store: BlockStore,
    /// Rolling state root after the last surviving block.
    root: Digest,
    /// Timestamp of the last surviving block (the checkpoint's if none).
    timestamp_us: u64,
}

/// Recovery's pass over the block file: the blocks read but not yet
/// decoded, and everything the blocks before them built.
struct Replay<'a> {
    pool: &'a WorkerPool,
    state: &'a mut dyn VersionedState,
    /// The first block the persisted state does not reflect.
    replay_from: u64,
    /// At most [`RECOVERY_CHUNK_BLOCKS`] raw blocks with their places.
    chunk: Vec<(FrameAt, Vec<u8>)>,
    store: BlockStore,
    root: Digest,
    timestamp_us: u64,
}

impl Replay<'_> {
    /// Take block `height`'s bytes from the scan; a full chunk is decoded
    /// and checked at once.
    fn take(&mut self, height: u64, at: FrameAt, bytes: Vec<u8>) -> Result<(), FabricError> {
        let expected = self.store.height() + self.chunk.len() as u64;
        if height != expected {
            return Err(FabricError::Storage(format!(
                "block file holds block {height} where the persisted state expects block {expected}"
            )));
        }
        self.chunk.push((at, bytes));
        if self.chunk.len() == RECOVERY_CHUNK_BLOCKS {
            self.drain()?;
        }
        Ok(())
    }

    /// Decode the chunk's blocks on the pool, hashing their transactions
    /// there too, then give each in turn the checks a live append gets
    /// and, above the checkpoint, replay its writes and check its rolling
    /// state root. The store keeps only the header, flags and tx ids.
    fn drain(&mut self) -> Result<(), FabricError> {
        let chunk = &self.chunk;
        let decoded = self.pool.map_indexed(chunk.len(), |i| {
            Block::decode(&chunk[i].1).map(|block| {
                let digest = Block::digest_transactions(&block.transactions);
                (block, digest)
            })
        });
        for ((at, _), decoded) in self.chunk.drain(..).zip(decoded) {
            let number = self.store.height();
            let bad =
                |e: FabricError| FabricError::Storage(format!("recovered block {number}: {e}"));
            let (block, digest) = decoded.map_err(bad)?;
            self.store.check_next(&block, digest).map_err(bad)?;
            if number >= self.replay_from {
                for (i, (tx, valid)) in block.transactions.iter().zip(&block.validity).enumerate() {
                    if *valid {
                        let version = Version {
                            block_num: number,
                            tx_num: i as u32,
                        };
                        apply_writes(&tx.rwset, self.state, version);
                    }
                }
                self.root = state_root_from_block(&self.root, &block);
                if self.root != block.header.state_root {
                    return Err(FabricError::Storage(format!(
                        "recovered state root mismatch at block {number}"
                    )));
                }
            }
            self.timestamp_us = block.header.timestamp_us;
            self.store.push(block, digest, Some(at));
        }
        Ok(())
    }
}

/// The recovery tail, run once the LSM is open at its last flush:
/// `checkpointed` describes what `state` reflects — every block below its
/// height, with that height's rolling root — and the first block height
/// the store is expected to hold, with the hash of the block before it.
/// One scan of the block file checks every block and replays those above
/// the checkpoint.
fn recover_tail(
    config: &StorageConfig,
    pool: &WorkerPool,
    checkpointed: &StateMeta,
    state: &mut dyn VersionedState,
) -> Result<RecoveredTail, FabricError> {
    let (base, replay_from) = (checkpointed.base_height, checkpointed.height);
    // State is persisted only after the block file is synced to the same
    // height, so persisted state ahead of the block file cannot result from
    // a crash: it is corruption, not damage to repair. State below the base
    // is corruption too.
    if replay_from < base {
        return Err(FabricError::Storage(format!(
            "state persisted through height {replay_from}, below the block file's base {base}"
        )));
    }
    let mut replay = Replay {
        pool,
        state,
        replay_from,
        chunk: Vec::with_capacity(RECOVERY_CHUNK_BLOCKS),
        store: BlockStore::new_pruned(base, checkpointed.base_prev_hash),
        root: checkpointed.state_root,
        timestamp_us: checkpointed.timestamp_us,
    };
    // Torn tail truncated by the store once every block has been taken.
    let blocks_file = BlockFile::open_at(&config.dir, base, config.fsync, |height, at, bytes| {
        replay.take(height, at, bytes)
    })?;
    replay.drain()?;
    let tip = blocks_file.height();
    if replay_from > tip {
        return Err(FabricError::Storage(format!(
            "state persisted through height {replay_from} but block file spans {base}..{tip}"
        )));
    }
    let mut store = replay.store;
    store.read_back_from(blocks_file.reader()?);
    Ok(RecoveredTail {
        blocks_file,
        store,
        root: replay.root,
        timestamp_us: replay.timestamp_us,
    })
}

/// Metric handles for the durable commit path, resolved once when
/// telemetry attaches. The block append histogram includes the policy
/// fsync, so under `FsyncPolicy::Always` it *is* the durable-commit
/// latency.
struct StorageMetrics {
    block_append_seconds: HistogramHandle,
    checkpoint_seconds: HistogramHandle,
    /// The same checkpoint latency under the name LSM dashboards know it
    /// by (`lv_statedb_flush_seconds`).
    lsm_flush_seconds: HistogramHandle,
    checkpoints_total: Counter,
    fsyncs_total: Counter,
    /// Fsync count already mirrored into `fsyncs_total` (the store layer
    /// only exposes cumulative totals, so we mirror deltas).
    fsyncs_mirrored: u64,
}

impl StorageMetrics {
    fn new(telemetry: &Telemetry, already_fsynced: u64) -> StorageMetrics {
        let r = telemetry.registry();
        StorageMetrics {
            block_append_seconds: r.histogram("lv_storage_block_append_seconds", &[]),
            checkpoint_seconds: r.histogram("lv_storage_checkpoint_seconds", &[]),
            lsm_flush_seconds: r.histogram("lv_statedb_flush_seconds", &[]),
            checkpoints_total: r.counter("lv_storage_checkpoints_total", &[]),
            fsyncs_total: r.counter("lv_storage_fsyncs_total", &[]),
            fsyncs_mirrored: already_fsynced,
        }
    }

    /// Mirror any fsyncs issued since the last call into the counter.
    fn sync_fsyncs(&mut self, total_now: u64) {
        self.fsyncs_total
            .add(total_now.saturating_sub(self.fsyncs_mirrored));
        self.fsyncs_mirrored = total_now.max(self.fsyncs_mirrored);
    }
}

/// The disk-backed backend: an [`LsmState`] made crash-recoverable by the
/// append-only block file it is derived from, and
/// the LSM's flushes as checkpoints. See the module docs for the write
/// protocol and recovery invariants.
pub struct DurableBackend {
    state: LsmState,
    blocks: BlockFile,
    config: StorageConfig,
    /// What the last checkpoint publishes (once its flush job completes:
    /// checkpoint positions never depend on thread timing). Its base height
    /// (non-zero when bootstrapped from a shipped snapshot — a *pruned*
    /// store) and base hash hold for the life of the store.
    checkpointed: StateMeta,
    /// Rolling state root after the last persisted block.
    state_root: Digest,
    /// Timestamp of the last persisted block (or the snapshot tip).
    last_timestamp_us: u64,
    checkpoints_saved: u64,
    metrics: Option<StorageMetrics>,
}

impl fmt::Debug for DurableBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableBackend")
            .field("dir", &self.config.dir)
            .field("fsync", &self.config.fsync)
            .field("height", &self.blocks.height())
            .field("memtable_bytes", &self.state.memtable_bytes())
            .finish()
    }
}

impl DurableBackend {
    /// Open (or create) the store under `config.dir`, its LSM under the
    /// default tuning ([`LsmState::default_config`]), and run crash
    /// recovery. Returns the backend plus the block store recovery built:
    /// every recovered block's header, flags and tx ids, its body read
    /// back from the block file when asked for. `pool` parallelises block
    /// decoding during recovery.
    pub fn open(
        config: StorageConfig,
        pool: &WorkerPool,
    ) -> Result<(DurableBackend, BlockStore), FabricError> {
        let lsm = LsmState::default_config(&config);
        DurableBackend::open_with(config, lsm, pool)
    }

    /// [`DurableBackend::open`] with explicit LSM tuning (memtable size,
    /// cache budgets, compaction thresholds).
    pub fn open_with(
        config: StorageConfig,
        lsm: LsmConfig,
        pool: &WorkerPool,
    ) -> Result<(DurableBackend, BlockStore), FabricError> {
        // The last checkpoint's metadata (absent before the first flush)
        // carries the store's base height — non-zero when this store was
        // bootstrapped from a shipped snapshot and holds no earlier block.
        let (state, meta) = load_state(&config, lsm)?;
        DurableBackend::resume(config, state, meta.unwrap_or_default(), pool)
    }

    /// Install a shipped [`ChainSnapshot`] into a fresh directory and open
    /// the resulting *pruned* store: its base is the snapshot height, the
    /// snapshot state is verified against its digest, and the store is
    /// ready to commit block `snapshot.height` next. This is the O(state)
    /// peer-bootstrap path — no block history is required or stored below
    /// the base.
    pub fn install_snapshot(
        config: StorageConfig,
        lsm: LsmConfig,
        pool: &WorkerPool,
        snapshot: &ChainSnapshot,
    ) -> Result<(DurableBackend, BlockStore), FabricError> {
        let occupied = [
            PathBuf::from(fabric_store::blockfile::BLOCKS_DATA_FILE),
            Path::new(LSM_SUBDIR).join(ledgerview_statedb::manifest::MANIFEST_FILE),
        ]
        .iter()
        .any(|file| std::fs::metadata(config.dir.join(file)).is_ok_and(|m| m.len() > 0));
        if occupied {
            return Err(FabricError::Storage(format!(
                "refusing to install a snapshot over existing blocks or state in {:?}",
                config.dir
            )));
        }
        let shipped = snapshot.state()?; // digest check before anything lands
        let (mut state, _) = load_state(&config, lsm)?;
        shipped.for_each_entry(&mut |key, value, version| match value {
            Some(v) => state.put(key.to_string(), v.to_vec(), version),
            None => state.delete(key, version),
        });
        let meta = StateMeta {
            height: snapshot.height,
            state_root: snapshot.state_root,
            state_digest: state.state_digest(),
            base_height: snapshot.height,
            base_prev_hash: snapshot.prev_block_hash,
            timestamp_us: snapshot.timestamp_us,
        };
        state.flush(&meta.encode())?;
        // No block file can replay a snapshot: its checkpoint must commit
        // before the store is handed out.
        state.wait()?;
        DurableBackend::resume(config, state, meta, pool)
    }

    /// The shared tail of `open_with` and `install_snapshot`: `state`
    /// holds what `checkpointed` describes; check the surviving blocks
    /// and replay those above it, verified against every replayed header.
    /// A pruned block file without a checkpoint fails the base check (no
    /// checkpoint ⇒ base 0).
    fn resume(
        config: StorageConfig,
        mut state: LsmState,
        checkpointed: StateMeta,
        pool: &WorkerPool,
    ) -> Result<(DurableBackend, BlockStore), FabricError> {
        let tail = recover_tail(&config, pool, &checkpointed, &mut state)?;
        let backend = DurableBackend {
            state,
            blocks: tail.blocks_file,
            config,
            checkpointed,
            state_root: tail.root,
            last_timestamp_us: tail.timestamp_us,
            checkpoints_saved: 0,
            metrics: None,
        };
        Ok((backend, tail.store))
    }

    /// Persisted block height.
    pub fn height(&self) -> u64 {
        self.blocks.height()
    }

    /// Block-file fsyncs issued by this handle — the cost the
    /// [`FsyncPolicy`] trades against durability.
    pub fn fsyncs(&self) -> u64 {
        self.blocks.fsyncs()
    }

    /// Checkpoints written by this handle.
    pub fn checkpoints_saved(&self) -> u64 {
        self.checkpoints_saved
    }

    /// Rolling state root after the last persisted block.
    pub fn state_root(&self) -> Digest {
        self.state_root
    }

    /// Timestamp of the last persisted block (or the installed snapshot).
    pub fn last_timestamp_us(&self) -> u64 {
        self.last_timestamp_us
    }

    /// Checkpoint (sync the block file, start the LSM memtable's flush
    /// job) now, regardless of the configured interval. The checkpoint
    /// commits when the job completes, at the next checkpoint or
    /// [`StateBackend::flush`] at the latest.
    pub fn checkpoint_now(&mut self) -> Result<(), FabricError> {
        let start = Instant::now();
        // Durability order: every block the checkpoint summarises must be
        // on disk before the checkpoint becomes the commit point.
        self.blocks.sync().map_err(StoreError::Io)?;
        let meta = StateMeta {
            height: self.blocks.height(),
            state_root: self.state_root,
            state_digest: self.state.state_digest(),
            timestamp_us: self.last_timestamp_us,
            ..self.checkpointed
        };
        self.state.flush(&meta.encode())?;
        self.checkpointed = meta;
        self.checkpoints_saved += 1;
        let total_fsyncs = self.fsyncs();
        if let Some(m) = &mut self.metrics {
            let elapsed = start.elapsed();
            m.checkpoint_seconds.observe_duration(elapsed);
            m.lsm_flush_seconds.observe_duration(elapsed);
            m.checkpoints_total.inc();
            m.sync_fsyncs(total_fsyncs);
        }
        Ok(())
    }
}

impl StateBackend for DurableBackend {
    fn state(&self) -> &dyn VersionedState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut dyn VersionedState {
        &mut self.state
    }

    fn commit_block(&mut self, block: &Block) -> Result<Option<FrameAt>, FabricError> {
        // The block is the log: recovery re-derives its writes from it.
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let txs = block.transactions.len() as u64;
        let at = self
            .blocks
            .append(block.header.number, &block.encode(), txs)?;
        let total_fsyncs = self.fsyncs();
        if let (Some(m), Some(start)) = (&mut self.metrics, start) {
            m.block_append_seconds.observe_duration(start.elapsed());
            m.sync_fsyncs(total_fsyncs);
        }
        self.state_root = block.header.state_root;
        self.last_timestamp_us = block.header.timestamp_us;
        // Checkpoint on either trigger: the configured interval (bounds
        // recovery's block replay) or memtable pressure (bounds the
        // memtable).
        let since_checkpoint = self.blocks.height() - self.checkpointed.height;
        if since_checkpoint >= self.config.checkpoint_every_blocks || self.state.should_flush() {
            self.checkpoint_now()?;
        } else {
            self.state.sync_metrics();
        }
        Ok(Some(at))
    }

    fn flush(&mut self) -> Result<(), FabricError> {
        self.blocks.sync().map_err(StoreError::Io)?;
        // The last checkpoint's flush job publishes its manifest.
        self.state.wait()?;
        let total_fsyncs = self.fsyncs();
        if let Some(m) = &mut self.metrics {
            m.sync_fsyncs(total_fsyncs);
        }
        Ok(())
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.state.set_telemetry(telemetry);
        self.metrics = Some(StorageMetrics::new(telemetry, self.fsyncs()));
    }

    fn lsm_state(&self) -> Option<&LsmState> {
        Some(&self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::{RwSet, WriteEntry};
    use crate::identity::Msp;
    use crate::ledger::{BlockHeader, Transaction, TxId};
    use crate::validation::{next_state_root, validate_and_commit_block};
    use fabric_store::testdir::TestDir;
    use ledgerview_crypto::rng::seeded;
    use ledgerview_crypto::sha256::sha256;

    fn tx_writing(n: u8, key: &str, value: &[u8]) -> Transaction {
        let mut rng = seeded(7);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1", &mut rng);
        let id = msp.enroll(&org, "u", &mut rng).unwrap();
        Transaction {
            tx_id: TxId(sha256(&[n])),
            chaincode: "cc".into(),
            function: "f".into(),
            args: vec![],
            creator: id.cert().clone(),
            rwset: RwSet {
                reads: vec![],
                writes: vec![WriteEntry {
                    key: key.into(),
                    value: Some(value.to_vec()),
                }],
                private_writes: vec![],
            },
            response: vec![],
            endorsements: vec![],
        }
    }

    /// Build and commit `n` single-tx blocks through a backend, mirroring
    /// the chain's commit order. Returns the final rolling root.
    fn commit_blocks(backend: &mut dyn StateBackend, n: u64) -> Digest {
        commit_blocks_of(backend, n, 1)
    }

    /// [`commit_blocks`] with `per_block` transactions in every block.
    fn commit_blocks_of(backend: &mut dyn StateBackend, n: u64, per_block: u64) -> Digest {
        let mut prev_hash = Digest::ZERO;
        let mut root = Digest::ZERO;
        for h in 0..n {
            let txs: Vec<Transaction> = (h * per_block..(h + 1) * per_block)
                .map(|t| tx_writing(t as u8, &format!("k{}", t % 5), &[h as u8; 16]))
                .collect();
            let outcomes = validate_and_commit_block(&txs, backend.state_mut(), h);
            root = next_state_root(&root, &txs, &outcomes);
            let header = BlockHeader {
                number: h,
                prev_hash,
                data_hash: Block::compute_data_hash(&txs),
                state_root: root,
                timestamp_us: h * 10,
            };
            prev_hash = header.hash();
            let block = Block {
                header,
                validity: outcomes.iter().map(|o| o.is_valid()).collect(),
                transactions: txs,
            };
            backend.commit_block(&block).unwrap();
        }
        root
    }

    #[test]
    fn durable_backend_round_trips_across_reopen() {
        let dir = TestDir::new("backend-reopen");
        let config = StorageConfig::new(dir.path())
            .fsync(FsyncPolicy::Never)
            .checkpoint_every(4);
        let pool = WorkerPool::new(2);
        let (mut backend, recovered) = DurableBackend::open(config.clone(), &pool).unwrap();
        assert!(recovered.is_empty());
        let root = commit_blocks(&mut backend, 10);
        let digest = backend.state().state_digest();
        assert_eq!(backend.height(), 10);
        // 10 blocks with checkpoints every 4: checkpoints at 4 and 8, so
        // the reopen replays blocks 8 and 9 from the block file.
        assert_eq!(backend.checkpoints_saved(), 2);
        drop(backend);

        let (backend, recovered) = DurableBackend::open(config, &pool).unwrap();
        assert_eq!(recovered.len(), 10);
        assert_eq!(backend.state().state_digest(), digest);
        assert_eq!(backend.state_root, root);
    }

    #[test]
    fn in_memory_and_durable_agree() {
        let dir = TestDir::new("backend-differential");
        let pool = WorkerPool::new(1);
        let (mut durable, _) = DurableBackend::open(
            StorageConfig::new(dir.path()).fsync(FsyncPolicy::Never),
            &pool,
        )
        .unwrap();
        let mut memory = InMemoryBackend::new();
        let r1 = commit_blocks(&mut durable, 7);
        let r2 = commit_blocks(&mut memory, 7);
        assert_eq!(r1, r2);
        assert_eq!(
            durable.state().state_digest(),
            memory.state().state_digest()
        );
    }

    #[test]
    fn checkpoint_ahead_of_blocks_is_corruption() {
        let dir = TestDir::new("backend-cp-ahead");
        let config = StorageConfig::new(dir.path()).fsync(FsyncPolicy::Never);
        let pool = WorkerPool::new(1);
        let (mut backend, _) = DurableBackend::open(config.clone(), &pool).unwrap();
        commit_blocks(&mut backend, 3);
        backend.checkpoint_now().unwrap();
        drop(backend);
        // Delete the block file: the checkpoint now claims a height the
        // (empty) block file cannot support.
        std::fs::remove_file(dir.path().join(fabric_store::blockfile::BLOCKS_DATA_FILE)).unwrap();
        let err = DurableBackend::open(config, &pool).err().expect("refused");
        assert!(matches!(err, FabricError::Storage(_)), "{err}");
    }

    /// The fsync policy governs the block file, the log recovery reads.
    #[test]
    fn fsync_policy_syncs_the_block_file() {
        let pool = WorkerPool::new(1);
        let open = |name: &str, policy| {
            let dir = TestDir::new(name);
            let config = StorageConfig::new(dir.path())
                .fsync(policy)
                .checkpoint_every(1_000);
            (DurableBackend::open(config, &pool).unwrap().0, dir)
        };

        let (mut always, _dir) = open("backend-fsync-always", FsyncPolicy::Always);
        commit_blocks(&mut always, 4);
        assert_eq!(always.blocks.fsyncs(), 4, "one sync per block");

        // 2-transaction blocks reach 5 unsynced transactions every third
        // block.
        let (mut every, _dir) = open("backend-fsync-every", FsyncPolicy::EveryN(5));
        commit_blocks_of(&mut every, 8, 2);
        assert_eq!(every.blocks.fsyncs(), 2, "synced after blocks 3 and 6");

        let (mut never, _dir) = open("backend-fsync-never", FsyncPolicy::Never);
        commit_blocks(&mut never, 5);
        assert_eq!(never.blocks.fsyncs(), 0);
        never.flush().unwrap();
        assert_eq!(never.blocks.fsyncs(), 1, "flush() syncs");
        never.checkpoint_now().unwrap();
        assert_eq!(never.blocks.fsyncs(), 2, "a checkpoint syncs");
        assert_eq!(never.fsyncs(), never.blocks.fsyncs());
    }

    /// Directories written while the state had its own write-ahead log may
    /// still hold `state.wal.*` files. Nothing reads them.
    #[test]
    fn leftover_state_wal_file_is_ignored() {
        let dir = TestDir::new("backend-old-wal");
        let config = StorageConfig::new(dir.path())
            .fsync(FsyncPolicy::Never)
            .checkpoint_every(4);
        let pool = WorkerPool::new(1);
        let (mut backend, _) = DurableBackend::open(config.clone(), &pool).unwrap();
        let root = commit_blocks(&mut backend, 6);
        let digest = backend.state().state_digest();
        drop(backend);
        let garbage = dir.path().join("state.wal.000000");
        std::fs::write(&garbage, b"\xff\x00 not a frame, not a record").unwrap();

        let (backend, recovered) = DurableBackend::open(config, &pool).unwrap();
        assert_eq!((backend.height(), recovered.len()), (6, 6));
        assert_eq!(backend.state().state_digest(), digest);
        assert_eq!(backend.state_root(), root);
        assert!(garbage.exists(), "left where it was");
    }

    /// Directories written while the block file had a sparse height index
    /// may still hold `blocks.idx`. Nothing reads it or writes it.
    #[test]
    fn leftover_block_index_file_is_ignored() {
        let dir = TestDir::new("backend-old-index");
        let config = StorageConfig::new(dir.path())
            .fsync(FsyncPolicy::Never)
            .checkpoint_every(4);
        let pool = WorkerPool::new(1);
        let (mut backend, _) = DurableBackend::open(config.clone(), &pool).unwrap();
        let root = commit_blocks(&mut backend, 6);
        let digest = backend.state().state_digest();
        drop(backend);
        let index = dir.path().join("blocks.idx");
        let garbage = b"\x10\x00\x00\x00 not a frame, not an index entry".to_vec();
        std::fs::write(&index, &garbage).unwrap();

        let (mut backend, recovered) = DurableBackend::open(config, &pool).unwrap();
        assert_eq!((backend.height(), recovered.len()), (6, 6));
        assert_eq!(backend.state().state_digest(), digest);
        assert_eq!(backend.state_root(), root);
        backend.flush().unwrap();
        assert_eq!(std::fs::read(&index).unwrap(), garbage, "left as it was");
    }

    #[test]
    fn state_meta_round_trips() {
        let meta = StateMeta {
            height: 42,
            state_root: Digest([7; 32]),
            state_digest: Digest([9; 32]),
            base_height: 40,
            base_prev_hash: Digest([5; 32]),
            timestamp_us: 123_456,
        };
        let body = meta.encode();
        let decoded = StateMeta::decode(&body).unwrap();
        assert_eq!(decoded.height, 42);
        assert_eq!(decoded.state_root, Digest([7; 32]));
        assert_eq!(decoded.state_digest, Digest([9; 32]));
        assert_eq!(decoded.base_height, 40);
        assert_eq!(decoded.base_prev_hash, Digest([5; 32]));
        assert_eq!(decoded.timestamp_us, 123_456);
        assert!(StateMeta::decode(&body[..50]).is_err());
        let trailing = [body.as_slice(), &[0]].concat();
        assert!(StateMeta::decode(&trailing).is_err());
    }

    #[test]
    fn state_snapshot_round_trip() {
        let mut state = StateDb::new();
        for i in 0..50u32 {
            state.put(
                format!("key-{i:03}"),
                vec![i as u8; (i % 7) as usize],
                Version {
                    block_num: i as u64 / 10,
                    tx_num: i % 10,
                },
            );
        }
        let decoded = decode_state(&encode_state(&state)).unwrap();
        assert_eq!(decoded.state_digest(), state.state_digest());
    }
}
