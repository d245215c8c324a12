//! Pluggable state persistence: the [`StateBackend`] trait, the in-memory
//! default, and the one disk-backed backend over [`fabric_store`].
//!
//! The chain commits through a backend in a fixed order per block:
//!
//! 1. the validator applies the block's writes to the backend's
//!    [`VersionedState`] (fast path for endorsement reads),
//! 2. [`StateBackend::commit_block`] persists the block — for
//!    [`DurableBackend`] that means WAL records for every valid
//!    transaction's write set (group-committed in one batch), then the
//!    encoded block appended to the block file, then — every
//!    `checkpoint_every_blocks`, or sooner when the LSM memtable crosses
//!    its threshold — a checkpoint followed by WAL truncation.
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
//! Because the WAL write precedes the block append, a crash can lose a
//! suffix of *both* files but never leave a committed block whose state is
//! unrecoverable: [`DurableBackend::open`] opens the LSM at its last flush
//! and verifies it against the digest the manifest records, replays
//! surviving WAL records over it, re-derives any writes the WAL lost from
//! the surviving blocks themselves (transactions × validity flags), and
//! re-derives the rolling state root per block to verify the result
//! against every recovered block header. Torn tails are truncated by the
//! store layer; inconsistencies that cannot arise from a crash (a
//! checkpoint ahead of the block file, a state-root mismatch) surface as
//! [`FabricError::Storage`] rather than being silently repaired.
//!
//! Identities are **not** persisted: the simulator derives MSP keys from
//! the caller's seeded RNG, so reopening a chain with the same seed
//! reproduces the same organisations. Recovery itself never re-checks
//! endorsement signatures (they were checked at commit), so state and
//! ledger recover correctly regardless.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ledgerview_crypto::sha256::Digest;
use ledgerview_telemetry::{Counter, HistogramHandle, Telemetry};

use fabric_store::{BlockFile, StoreError, Wal};
pub use fabric_store::{FsyncPolicy, StorageConfig};
use ledgerview_statedb::LsmConfig;

use crate::error::FabricError;
use crate::ledger::Block;
use crate::lsm::{LsmState, LSM_SUBDIR};
use crate::pool::WorkerPool;
use crate::statedb::{StateDb, Version, VersionedState};
use crate::validation::state_root_from_block;
use crate::wire::{Reader, Writer};

/// File name (base) of the state WAL inside a storage directory. The WAL
/// is segmented: bytes live in `state.wal.000000`, `state.wal.000001`, …
/// (see [`wal_segment_path`]).
pub const STATE_WAL_FILE: &str = "state.wal";

/// Path of WAL segment `index` inside a storage directory (crash-injection
/// tests tear these files to simulate torn tails).
pub fn wal_segment_path(dir: &Path, index: u64) -> PathBuf {
    fabric_store::wal::segment_path(&dir.join(STATE_WAL_FILE), index)
}

impl From<StoreError> for FabricError {
    fn from(e: StoreError) -> FabricError {
        FabricError::Storage(e.to_string())
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
    /// [`StateBackend::state_mut`]. In-memory backends no-op.
    fn commit_block(&mut self, block: &Block) -> Result<(), FabricError>;
    /// Force everything written so far to stable storage.
    fn flush(&mut self) -> Result<(), FabricError>;
    /// Whether commits survive a process crash.
    fn is_durable(&self) -> bool;
    /// Attach telemetry (WAL/block append latencies, checkpoint durations,
    /// fsync counts). Backends without persistence costs ignore it.
    fn set_telemetry(&mut self, _telemetry: &Telemetry) {}
    /// The LSM state engine, when that is where this backend keeps its
    /// state (engine statistics, compaction trace). `None` otherwise.
    fn lsm_state(&self) -> Option<&LsmState> {
        None
    }
    /// Mutable variant of [`StateBackend::lsm_state`] (crash-injection hooks).
    fn lsm_state_mut(&mut self) -> Option<&mut LsmState> {
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

    fn commit_block(&mut self, _block: &Block) -> Result<(), FabricError> {
        Ok(())
    }

    fn flush(&mut self) -> Result<(), FabricError> {
        Ok(())
    }

    fn is_durable(&self) -> bool {
        false
    }
}

/// One decoded WAL record: the writes one valid transaction applied.
struct WalRecord {
    block_num: u64,
    tx_num: u32,
    /// `(key, Some(value))` puts and `(key, None)` deletes, in apply order.
    writes: Vec<(String, Option<Vec<u8>>)>,
}

/// Encode one WAL record straight from a transaction's write set (the hot
/// commit path: no intermediate clones). [`WalRecord::decode`] inverts it.
fn encode_wal_record(
    block_num: u64,
    tx_num: u32,
    writes: &[crate::chaincode::WriteEntry],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(block_num).u32(tx_num);
    w.u32(writes.len() as u32);
    for entry in writes {
        w.string(&entry.key);
        match &entry.value {
            Some(v) => {
                w.u8(1).bytes(v);
            }
            None => {
                w.u8(0);
            }
        }
    }
    w.into_bytes()
}

impl WalRecord {
    #[cfg(test)]
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.block_num).u32(self.tx_num);
        w.u32(self.writes.len() as u32);
        for (key, value) in &self.writes {
            w.string(key);
            match value {
                Some(v) => {
                    w.u8(1).bytes(v);
                }
                None => {
                    w.u8(0);
                }
            }
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<WalRecord, FabricError> {
        let mut r = Reader::new(bytes);
        let block_num = r.u64()?;
        let tx_num = r.u32()?;
        let n = r.u32()? as usize;
        let mut writes = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let key = r.string()?;
            let value = match r.u8()? {
                1 => Some(r.bytes()?),
                0 => None,
                tag => return Err(FabricError::Malformed(format!("bad WAL write tag {tag}"))),
            };
            writes.push((key, value));
        }
        r.finish()?;
        Ok(WalRecord {
            block_num,
            tx_num,
            writes,
        })
    }

    fn apply(&self, state: &mut dyn VersionedState) {
        let version = Version {
            block_num: self.block_num,
            tx_num: self.tx_num,
        };
        for (key, value) in &self.writes {
            match value {
                Some(v) => state.put(key.clone(), v.clone(), version),
                None => state.delete(key, version),
            }
        }
    }

    /// Re-derive the record a lost WAL entry would have held from the
    /// block's own write set (transactions × validity flags).
    fn from_block_tx(block_num: u64, tx_num: u32, tx: &crate::ledger::Transaction) -> WalRecord {
        WalRecord {
            block_num,
            tx_num,
            writes: tx
                .rwset
                .writes
                .iter()
                .map(|w| (w.key.clone(), w.value.clone()))
                .collect(),
        }
    }
}

/// Serialize the full state into a snapshot payload. Entries are tagged
/// (1 = live value, 0 = tombstone) so deletions survive the round trip —
/// they carry MVCC versions and are part of the state digest.
fn encode_state(state: &dyn VersionedState) -> Vec<u8> {
    let mut entries = 0u32;
    let mut body = Writer::new();
    state.for_each_entry(&mut |key, value, version| {
        entries += 1;
        body.string(key);
        match value {
            Some(v) => {
                body.u8(1).bytes(v);
            }
            None => {
                body.u8(0);
            }
        }
        body.u64(version.block_num).u32(version.tx_num);
    });
    let mut w = Writer::new();
    w.u32(entries);
    let mut out = w.into_bytes();
    out.extend_from_slice(&body.into_bytes());
    out
}

fn decode_state(bytes: &[u8]) -> Result<StateDb, FabricError> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    let mut state = StateDb::new();
    for _ in 0..n {
        let key = r.string()?;
        let tag = r.u8()?;
        let value = match tag {
            1 => Some(r.bytes()?),
            0 => None,
            t => return Err(FabricError::Malformed(format!("bad state entry tag {t}"))),
        };
        let version = Version {
            block_num: r.u64()?,
            tx_num: r.u32()?,
        };
        match value {
            Some(v) => state.put(key, v, version),
            None => state.delete(&key, version),
        }
    }
    r.finish()?;
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
        .map_err(|e| FabricError::Storage(format!("create {:?}: {e}", config.dir)))?;
    let (state, blob) = LsmState::open(lsm)?;
    let meta = blob.as_deref().map(StateMeta::decode).transpose()?;
    match meta {
        Some(m) if state.state_digest() != m.state_digest => Err(FabricError::Storage(
            "persisted state digest mismatch at reopen".into(),
        )),
        _ => Ok((state, meta)),
    }
}

/// Make the current state, tagged with `meta`, the commit point: flush the
/// memtable and publish `meta` in the manifest. Returns `false` only when
/// an injected crash (testing hook) stopped the flush before the manifest
/// moved.
fn persist(state: &mut LsmState, meta: &StateMeta) -> Result<bool, FabricError> {
    state.flush(&meta.encode())?;
    Ok(!state.crashed())
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
    wal: Wal,
    /// Every surviving block in height order, starting at the store's base.
    blocks: Vec<Block>,
    /// Rolling state root after the last surviving block.
    root: Digest,
}

/// The recovery tail, run once the LSM is open at its last flush: `state`
/// reflects every block below `replay_from` and `root` is the rolling
/// state root at that height. `base` is the first block height the store
/// is expected to hold.
fn recover_tail(
    config: &StorageConfig,
    pool: &WorkerPool,
    base: u64,
    replay_from: u64,
    state: &mut dyn VersionedState,
    mut root: Digest,
) -> Result<RecoveredTail, FabricError> {
    // Surviving blocks (torn tail already truncated by the store).
    let mut blocks_file = BlockFile::open_at(&config.dir, config.index_every, base)?;
    if blocks_file.base() != base {
        return Err(FabricError::Storage(format!(
            "block file starts at height {} but the persisted state claims base {base}",
            blocks_file.base()
        )));
    }
    let raw = blocks_file.read_all()?;
    let decoded = pool.map_indexed(raw.len(), |i| Block::decode(&raw[i]));
    let mut blocks = Vec::with_capacity(decoded.len());
    for (i, block) in decoded.into_iter().enumerate() {
        blocks.push(
            block.map_err(|e| FabricError::Storage(format!("block {i} failed to decode: {e}")))?,
        );
    }
    let tip = base + blocks.len() as u64;
    // State is persisted only after the block file is synced to the same
    // height, so persisted state ahead of the block file cannot result from
    // a crash: it is corruption, not damage to repair. State below the base
    // is corruption too, and would underflow the replay's skip count.
    if replay_from < base || replay_from > tip {
        return Err(FabricError::Storage(format!(
            "state persisted through height {replay_from} but block file spans {base}..{tip}"
        )));
    }

    // Surviving WAL records, grouped by block. Records at or beyond the
    // block tip describe blocks the block file lost in the crash — they are
    // truncated away so the log matches the ledger. Records below
    // `replay_from` linger only if the crash hit between persisting the
    // state and resetting the WAL; the state already holds them, so they
    // are skipped.
    let (mut wal, raw_records) = Wal::open_segmented(
        config.dir.join(STATE_WAL_FILE),
        config.fsync,
        config.wal_segment_bytes,
    )
    .map_err(StoreError::Io)?;
    let mut keep = 0usize;
    let mut by_block: HashMap<u64, Vec<WalRecord>> = HashMap::new();
    for raw in &raw_records {
        let record = WalRecord::decode(raw)?;
        if record.block_num >= tip {
            break;
        }
        keep += 1;
        if record.block_num >= replay_from {
            by_block.entry(record.block_num).or_default().push(record);
        }
    }
    if keep < raw_records.len() {
        wal.truncate_records(keep).map_err(StoreError::Io)?;
    }

    // Replay blocks from `replay_from`: WAL records where the block's
    // coverage is complete, the block's own write sets where the WAL lost
    // them. Both derive the same writes; re-deriving the rolling root per
    // block and checking it against the stored header verifies the
    // replayed state against the block store.
    for block in blocks.iter().skip((replay_from - base) as usize) {
        let h = block.header.number;
        let valid_count = block.validity.iter().filter(|v| **v).count();
        match by_block.get(&h) {
            Some(records) if records.len() == valid_count => {
                for record in records {
                    record.apply(state);
                }
            }
            _ => {
                for (i, tx) in block.transactions.iter().enumerate() {
                    if !block.validity[i] {
                        continue;
                    }
                    WalRecord::from_block_tx(h, i as u32, tx).apply(state);
                }
            }
        }
        root = state_root_from_block(&root, block);
        if root != block.header.state_root {
            return Err(FabricError::Storage(format!(
                "recovered state root mismatch at block {h}"
            )));
        }
    }
    Ok(RecoveredTail {
        blocks_file,
        wal,
        blocks,
        root,
    })
}

/// Metric handles for the durable commit path, resolved once when
/// telemetry attaches. The WAL append histogram includes the policy fsync,
/// so under `FsyncPolicy::Always` it *is* the group-commit latency.
struct StorageMetrics {
    wal_append_seconds: HistogramHandle,
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
            wal_append_seconds: r.histogram("lv_storage_wal_append_seconds", &[]),
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

/// The disk-backed backend: an [`LsmState`] made crash-recoverable by a
/// WAL, an append-only block file with a sparse index, and the LSM's
/// flushes as checkpoints. See the module docs for the write protocol and
/// recovery invariants.
pub struct DurableBackend {
    state: LsmState,
    wal: Wal,
    blocks: BlockFile,
    config: StorageConfig,
    /// What the last checkpoint published. Its base height
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
            .field("wal_records", &self.wal.record_count())
            .field("memtable_bytes", &self.state.lsm_stats().memtable_bytes)
            .finish()
    }
}

impl DurableBackend {
    /// Open (or create) the store under `config.dir`, its LSM under the
    /// default tuning ([`LsmState::default_config`]), and run crash
    /// recovery. Returns the backend plus every recovered block in height
    /// order (for the chain to rebuild its block store). `pool`
    /// parallelises block decoding during recovery.
    pub fn open(
        config: StorageConfig,
        pool: &WorkerPool,
    ) -> Result<(DurableBackend, Vec<Block>), FabricError> {
        let lsm = LsmState::default_config(&config);
        DurableBackend::open_with(config, lsm, pool)
    }

    /// [`DurableBackend::open`] with explicit LSM tuning (memtable size,
    /// cache budgets, compaction thresholds).
    pub fn open_with(
        config: StorageConfig,
        lsm: LsmConfig,
        pool: &WorkerPool,
    ) -> Result<(DurableBackend, Vec<Block>), FabricError> {
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
    ) -> Result<(DurableBackend, Vec<Block>), FabricError> {
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
        persist(&mut state, &meta)?;
        DurableBackend::resume(config, state, meta, pool)
    }

    /// The shared tail of `open_with` and `install_snapshot`: `state`
    /// holds what `checkpointed` describes; replay the surviving blocks
    /// and WAL records over it, verified against every replayed header. A
    /// pruned block file without a checkpoint fails the base check (no
    /// checkpoint ⇒ base 0).
    fn resume(
        config: StorageConfig,
        mut state: LsmState,
        checkpointed: StateMeta,
        pool: &WorkerPool,
    ) -> Result<(DurableBackend, Vec<Block>), FabricError> {
        let tail = recover_tail(
            &config,
            pool,
            checkpointed.base_height,
            checkpointed.height,
            &mut state,
            checkpointed.state_root,
        )?;
        let backend = DurableBackend {
            state,
            wal: tail.wal,
            blocks: tail.blocks_file,
            config,
            checkpointed,
            state_root: tail.root,
            last_timestamp_us: tail
                .blocks
                .last()
                .map_or(checkpointed.timestamp_us, |block| block.header.timestamp_us),
            checkpoints_saved: 0,
            metrics: None,
        };
        Ok((backend, tail.blocks))
    }

    /// The storage configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Persisted block height.
    pub fn height(&self) -> u64 {
        self.blocks.height()
    }

    /// Live WAL records (since the last checkpoint).
    pub fn wal_records(&self) -> usize {
        self.wal.record_count()
    }

    /// Total fsyncs issued (WAL + block file) — the cost knob the
    /// [`FsyncPolicy`] trades against durability.
    pub fn fsyncs(&self) -> u64 {
        self.wal.fsyncs() + self.blocks.fsyncs()
    }

    /// Checkpoints written by this handle.
    pub fn checkpoints_saved(&self) -> u64 {
        self.checkpoints_saved
    }

    /// Rolling state root after the last persisted block.
    pub fn state_root(&self) -> Digest {
        self.state_root
    }

    /// First block height this store holds (non-zero when pruned).
    pub fn base_height(&self) -> u64 {
        self.checkpointed.base_height
    }

    /// Hash of the block before the base (`Digest::ZERO` for a full store).
    pub fn base_prev_hash(&self) -> Digest {
        self.checkpointed.base_prev_hash
    }

    /// Timestamp of the last persisted block (or the installed snapshot).
    pub fn last_timestamp_us(&self) -> u64 {
        self.last_timestamp_us
    }

    /// Live WAL segment files.
    pub fn wal_segments(&self) -> usize {
        self.wal.segment_count()
    }

    /// WAL segments garbage-collected by checkpoints over this handle.
    pub fn wal_segments_gced(&self) -> u64 {
        self.wal.segments_gced()
    }

    /// Checkpoint (flush the LSM memtable) and truncate the WAL now,
    /// regardless of the configured interval.
    pub fn checkpoint_now(&mut self) -> Result<(), FabricError> {
        let start = Instant::now();
        // Durability order: everything the checkpoint summarises must be
        // on disk before it becomes the commit point and the WAL resets.
        self.wal.sync().map_err(StoreError::Io)?;
        self.blocks.sync().map_err(StoreError::Io)?;
        let meta = StateMeta {
            height: self.blocks.height(),
            state_root: self.state_root,
            state_digest: self.state.state_digest(),
            timestamp_us: self.last_timestamp_us,
            ..self.checkpointed
        };
        if !persist(&mut self.state, &meta)? {
            // Injected crash: the manifest never committed, so the WAL must
            // keep its records for the reopen to replay.
            return Ok(());
        }
        self.wal.reset().map_err(StoreError::Io)?;
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

    fn commit_block(&mut self, block: &Block) -> Result<(), FabricError> {
        // WAL first (durable intent), block second: recovery can rebuild
        // state for every block the block file retains.
        let records: Vec<Vec<u8>> = block
            .transactions
            .iter()
            .enumerate()
            .filter(|(i, _)| block.validity[*i])
            .map(|(i, tx)| encode_wal_record(block.header.number, i as u32, &tx.rwset.writes))
            .collect();
        let refs: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
        let start = self.metrics.as_ref().map(|_| Instant::now());
        self.wal.append_batch(&refs).map_err(StoreError::Io)?;
        let timed = start.map(|start| (start, Instant::now()));
        self.blocks
            .append(block.header.number, &block.encode(), false)?;
        let total_fsyncs = self.fsyncs();
        if let (Some(m), Some((start, wal_done))) = (&mut self.metrics, timed) {
            m.wal_append_seconds
                .observe_duration(wal_done.duration_since(start));
            m.block_append_seconds.observe_duration(wal_done.elapsed());
            m.sync_fsyncs(total_fsyncs);
        }
        self.state_root = block.header.state_root;
        self.last_timestamp_us = block.header.timestamp_us;
        // Checkpoint on either trigger: the configured interval (bounds
        // WAL replay work) or memtable pressure (bounds the memtable).
        let since_checkpoint = self.blocks.height() - self.checkpointed.height;
        if since_checkpoint >= self.config.checkpoint_every_blocks || self.state.should_flush() {
            self.checkpoint_now()?;
        } else {
            self.state.sync_metrics();
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), FabricError> {
        self.wal.sync().map_err(StoreError::Io)?;
        self.blocks.sync().map_err(StoreError::Io)?;
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

    fn lsm_state_mut(&mut self) -> Option<&mut LsmState> {
        Some(&mut self.state)
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
        let mut prev_hash = Digest::ZERO;
        let mut root = Digest::ZERO;
        for h in 0..n {
            let txs = vec![tx_writing(h as u8, &format!("k{}", h % 5), &[h as u8; 16])];
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
        // the WAL holds only blocks 8 and 9.
        assert_eq!(backend.checkpoints_saved(), 2);
        assert_eq!(backend.wal_records(), 2);
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
        std::fs::remove_file(dir.path().join(fabric_store::blockfile::BLOCKS_INDEX_FILE)).unwrap();
        let err = DurableBackend::open(config, &pool).unwrap_err();
        assert!(matches!(err, FabricError::Storage(_)), "{err}");
    }

    #[test]
    fn wal_records_round_trip() {
        let record = WalRecord {
            block_num: 9,
            tx_num: 3,
            writes: vec![
                ("a".into(), Some(b"1".to_vec())),
                ("b".into(), None),
                ("c".into(), Some(vec![])),
            ],
        };
        let decoded = WalRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded.block_num, 9);
        assert_eq!(decoded.tx_num, 3);
        assert_eq!(decoded.writes, record.writes);
        assert!(WalRecord::decode(&record.encode()[..5]).is_err());
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
    fn direct_encoding_matches_wal_record_encoding() {
        let writes = vec![
            WriteEntry {
                key: "a".into(),
                value: Some(b"1".to_vec()),
            },
            WriteEntry {
                key: "b".into(),
                value: None,
            },
        ];
        let record = WalRecord {
            block_num: 4,
            tx_num: 2,
            writes: writes
                .iter()
                .map(|w| (w.key.clone(), w.value.clone()))
                .collect(),
        };
        assert_eq!(encode_wal_record(4, 2, &writes), record.encode());
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
