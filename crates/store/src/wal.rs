//! The old import path of [`FsyncPolicy`], kept because the benchmark
//! (`lvbench`) still imports `fabric_store::wal::FsyncPolicy`. There is no
//! write-ahead log: the block file is the log ([`crate::blockfile`]).

pub use crate::blockfile::FsyncPolicy;
