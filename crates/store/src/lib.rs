//! `fabric-store`: a durable storage substrate for the Fabric simulator.
//!
//! The crate is deliberately domain-agnostic — it moves *bytes*, not blocks
//! or transactions, so it sits below `fabric-sim` with no dependency cycle.
//! Two layers compose into a crash-safe ledger store:
//!
//! * [`record`] — the one frame layout of the block file and of every
//!   SSTable, torn-tail detection and repair, and the one little-endian
//!   field reader every on-disk decoder reads through.
//! * [`blockfile`] — the append-only block data file, read once at open
//!   (each block handed to the caller with its [`FrameAt`]) and back one
//!   block at a time by [`BlockReader`], synced under a configurable
//!   [`FsyncPolicy`] (`Always` / `EveryN` / `Never`).
//!
//! The state itself lives in the LSM tree of `ledgerview-statedb`, whose
//! manifest is the checkpoint. The block file is the only log; the write
//! protocol the ledger layer follows for each committed block:
//!
//! ```text
//! 1. blockfile.append(height, block bytes) # fsync per the policy
//! 2. every `checkpoint_every_blocks`: blockfile.sync(), then flush the
//!    LSM memtable (its manifest records the height)
//! ```
//!
//! Recovery opens the LSM at its last flush and re-derives every later
//! block's writes from the block itself (transactions × validity flags).
//!
//! # Unsafe code
//!
//! The crate is `#![deny(unsafe_code)]` rather than `forbid` for one
//! exemption: in [`crc32`], the call into its carry-less-multiply body, a
//! `#[target_feature]` function of safe `std::arch` intrinsics. The call
//! is made only after `is_x86_feature_detected!` has seen every feature
//! that body is compiled for; on other CPUs the table loop runs
//! ([`crc32::hardware_accelerated`] says which). Nothing else here is
//! `unsafe`, and the root package's `tests/unsafe_inventory.rs` keeps it
//! that way across the workspace.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod blockfile;
pub mod crc32;
pub mod record;
pub mod testdir;
pub mod wal;

pub use blockfile::{BlockFile, BlockReader, FrameAt, FsyncPolicy};

use std::fmt;
use std::path::PathBuf;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// On-disk data failed validation in a way truncation cannot repair
    /// (bad CRC inside a table or manifest, block-height discontinuities,
    /// …).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "storage corruption: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Configuration for a durable ledger store.
///
/// ```
/// use fabric_store::{FsyncPolicy, StorageConfig};
///
/// let cfg = StorageConfig::new("/tmp/my-ledger")
///     .fsync(FsyncPolicy::Always)
///     .checkpoint_every(128);
/// assert_eq!(cfg.fsync, FsyncPolicy::Always);
/// assert_eq!(cfg.checkpoint_every_blocks, 128);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageConfig {
    /// Directory holding the block files and the state's LSM tree.
    /// Created on open if missing.
    pub dir: PathBuf,
    /// When the block file (the log recovery replays) flushes to stable
    /// storage.
    pub fsync: FsyncPolicy,
    /// Checkpoint (sync the block file, flush the LSM memtable) every this
    /// many blocks; recovery replays at most this many blocks.
    pub checkpoint_every_blocks: u64,
}

impl StorageConfig {
    /// Defaults: `EveryN(512)` fsync (one sync per several 100-tx blocks
    /// — a smaller stride would force one fsync per block), checkpoint
    /// every 256 blocks.
    pub fn new(dir: impl Into<PathBuf>) -> StorageConfig {
        StorageConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(512),
            checkpoint_every_blocks: 256,
        }
    }

    /// Set the block file's fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> StorageConfig {
        self.fsync = policy;
        self
    }

    /// Set the checkpoint/compaction interval in blocks (clamped to ≥ 1).
    pub fn checkpoint_every(mut self, blocks: u64) -> StorageConfig {
        self.checkpoint_every_blocks = blocks.max(1);
        self
    }

    /// Ignored: there is no write-ahead log to segment. Kept because the
    /// benchmark (`lvbench`) still calls it.
    pub fn wal_segment_bytes(self, _bytes: u64) -> StorageConfig {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_and_builders() {
        let cfg = StorageConfig::new("/x");
        assert_eq!(cfg.dir, PathBuf::from("/x"));
        assert_eq!(cfg.fsync, FsyncPolicy::EveryN(512));
        assert_eq!(cfg.checkpoint_every_blocks, 256);
        assert_eq!(cfg.clone().wal_segment_bytes(1), cfg, "a no-op");

        let cfg = cfg.fsync(FsyncPolicy::Never).checkpoint_every(0);
        assert_eq!(cfg.fsync, FsyncPolicy::Never);
        assert_eq!(cfg.checkpoint_every_blocks, 1, "clamped to at least 1");
    }

    #[test]
    fn error_display_and_source() {
        let io = StoreError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        assert!(std::error::Error::source(&io).is_some());
        let corrupt = StoreError::Corrupt("bad crc".into());
        assert!(corrupt.to_string().contains("bad crc"));
        assert!(std::error::Error::source(&corrupt).is_none());
    }
}
