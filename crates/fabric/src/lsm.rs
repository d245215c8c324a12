//! The disk-backed state engine: [`LsmState`], a [`VersionedState`] over
//! the `ledgerview-statedb` LSM tree. It is the state of every
//! [`DurableBackend`](crate::storage::DurableBackend), which runs its
//! block-file commit protocol over it; that module's docs describe the
//! protocol and recovery.
//!
//! # Layout
//!
//! The tree lives in an `lsm/` subdirectory of the storage directory
//! (memtable + sorted runs), beside the backend's block file. The
//! state already lives on disk, so a "checkpoint" is just a memtable flush
//! whose manifest carries the backend's small metadata blob.
//!
//! # What stays in memory
//!
//! Values live on disk; only per-key *metadata* stays resident — the
//! [`StateDigester`] directory (key, leaf hash, MVCC version, liveness,
//! and about one cached tree node per key) that serves `version()`
//! lookups and maintains the bucketed Merkle digest incrementally, plus
//! the engine's block/row caches under fixed byte budgets. Memory
//! therefore scales with key count and cache budget, not with total value
//! bytes — the larger-than-RAM regime the LSM exists for.
//!
//! # Reopen
//!
//! [`LsmState::open`] loads the tree (orphan tables from torn flushes are
//! deleted by the engine) and rebuilds the digest directory by streaming
//! every record, tombstones included; the backend then verifies the
//! directory digest against the manifest metadata before replaying the
//! blocks after the last flush.

use ledgerview_crypto::sha256::Digest;
use ledgerview_statedb::{CompactionEvent, Lsm, LsmConfig, LsmStats};
use ledgerview_telemetry::{Counter, Gauge, HistogramHandle, Telemetry};

use fabric_store::{FsyncPolicy, StoreError};

use crate::digest::{leaf_bytes, StateDigester};
use crate::error::FabricError;
use crate::merkle::MerkleProof;
use crate::statedb::{EntryVisitor, Version, VersionedState};
use crate::storage::StorageConfig;

/// Subdirectory (inside the storage dir) holding the LSM tree.
pub const LSM_SUBDIR: &str = "lsm";

/// A versioned state database whose values live in an LSM tree on disk.
///
/// Pairs the [`Lsm`] engine (values, range scans) with a [`StateDigester`]
/// directory (per-key version/liveness metadata and the incrementally
/// maintained bucketed Merkle digest). Both see every put and delete, so
/// `state_digest()` is bit-identical to [`crate::StateDb`] fed the same
/// operations — the property the differential tests pin down.
pub struct LsmState {
    lsm: Lsm,
    directory: StateDigester,
    metrics: Option<StatedbMetrics>,
}

/// Read errors surface as panics: state reads sit under the MVCC commit
/// path, which has no error channel — and a state database that cannot
/// read its own disk cannot continue as a replica anyway.
fn read_ok<T>(r: Result<T, StoreError>) -> T {
    r.unwrap_or_else(|e| panic!("statedb read failed: {e}"))
}

impl LsmState {
    /// The default LSM tuning for a storage directory: tables under
    /// `<dir>/lsm`, fsync following the storage config's policy.
    pub fn default_config(storage: &StorageConfig) -> LsmConfig {
        LsmConfig::new(storage.dir.join(LSM_SUBDIR))
            .sync(!matches!(storage.fsync, FsyncPolicy::Never))
    }

    /// Open (or create) the LSM under `config.dir`, returning the state
    /// and the opaque metadata blob published with the last flush.
    pub fn open(config: LsmConfig) -> Result<(LsmState, Option<Vec<u8>>), FabricError> {
        let (lsm, meta) = Lsm::open(config)?;
        // Rebuild the in-memory directory from every persisted record —
        // tombstones included, so versions and the digest survive reopen.
        let mut directory = StateDigester::new();
        lsm.for_each(&mut |r| directory.apply(&r.key, r.value.as_deref(), r.version))?;
        Ok((
            LsmState {
                lsm,
                directory,
                metrics: None,
            },
            meta,
        ))
    }

    /// Attach `lv_statedb_*` metrics (opt-in, like every other crate):
    /// engine totals mirror into counters, flush/compaction latencies
    /// into histograms, cache hit ratios and per-level occupancy into
    /// gauges. Synced after every flush and by [`LsmState::sync_metrics`].
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let already = self.lsm.installed_stats();
        self.metrics = Some(StatedbMetrics::new(telemetry, already));
    }

    /// Mirror engine statistics into the attached registry now (no-op
    /// without telemetry). Read-path counters (cache hits, bloom
    /// negatives) only move on sync, so callers measuring a read-heavy
    /// workload should sync at the end of it. Never waits for the flush
    /// job in flight: its work is mirrored once it is installed.
    pub fn sync_metrics(&mut self) {
        if let Some(metrics) = &mut self.metrics {
            metrics.sync(self.lsm.installed_stats(), self.lsm.trace());
        }
    }

    /// Whether the memtable has crossed its flush threshold.
    pub fn should_flush(&self) -> bool {
        self.lsm.should_flush()
    }

    /// Seal the memtable and start the background job that flushes it and
    /// publishes `meta` atomically (see [`Lsm::flush`]), after waiting for
    /// and installing the previous job. The flush becomes the commit point
    /// when its job completes; until then a reopen recovers from the
    /// previous one. Memtable residency can reach two budgets meanwhile.
    pub fn flush(&mut self, meta: &[u8]) -> Result<(), FabricError> {
        self.lsm.flush(meta)?;
        self.sync_metrics();
        Ok(())
    }

    /// Wait for the flush job in flight and install it (see
    /// [`Lsm::wait`]): afterwards the last flush is the commit point.
    pub fn wait(&mut self) -> Result<(), FabricError> {
        self.lsm.wait()?;
        self.sync_metrics();
        Ok(())
    }

    /// Current footprint of the active memtable. Never waits for the
    /// flush job in flight.
    pub fn memtable_bytes(&self) -> usize {
        self.lsm.memtable_bytes()
    }

    /// Engine statistics snapshot, the flush job in flight included
    /// (waits for it; see [`Lsm::stats`]).
    pub fn lsm_stats(&self) -> LsmStats {
        self.lsm.stats()
    }

    /// Flush/compaction events of the installed flush jobs since open
    /// (newest last, capped).
    pub fn compaction_trace(&self) -> &[CompactionEvent] {
        self.lsm.trace()
    }

    /// Resident bytes of the digest directory (the per-key metadata this
    /// state keeps in memory on top of the engine's caches).
    pub fn directory_resident_bytes(&self) -> usize {
        self.directory.resident_bytes()
    }
}

impl VersionedState for LsmState {
    fn get(&self, key: &str) -> Option<Vec<u8>> {
        // The directory answers liveness without touching disk, so misses
        // and tombstones never pay an I/O.
        match self.directory.liveness(key) {
            Some(true) => read_ok(self.lsm.get(key)).and_then(|(v, _)| v),
            _ => None,
        }
    }

    fn version(&self, key: &str) -> Option<Version> {
        self.directory.version(key)
    }

    fn lookup(&self, key: &str) -> (Option<Vec<u8>>, Option<Version>) {
        match self.directory.liveness(key) {
            Some(true) => match read_ok(self.lsm.get(key)) {
                Some((value, version)) => (value, Some(version)),
                None => (None, self.directory.version(key)),
            },
            Some(false) => (None, self.directory.version(key)),
            None => (None, None),
        }
    }

    fn put(&mut self, key: String, value: Vec<u8>, version: Version) {
        self.directory.apply_put(&key, &value, version);
        self.lsm.put(key, value, version);
    }

    fn delete(&mut self, key: &str, version: Version) {
        self.directory.apply_delete(key, version);
        self.lsm.delete(key.to_string(), version);
    }

    fn range_scan(&self, start: &str, end: &str) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        read_ok(self.lsm.scan(start, Some(end), &mut |r| {
            if let Some(v) = r.value {
                out.push((r.key, v));
            }
            true
        }));
        out
    }

    fn prefix_scan(&self, prefix: &str) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        // Keys arrive in order, so the scan can stop at the first key
        // past the prefix range instead of computing a successor bound.
        read_ok(self.lsm.scan(prefix, None, &mut |r| {
            if !r.key.starts_with(prefix) {
                return false;
            }
            if let Some(v) = r.value {
                out.push((r.key, v));
            }
            true
        }));
        out
    }

    fn len(&self) -> usize {
        self.directory.live_len()
    }

    fn size_bytes(&self) -> u64 {
        self.directory.size_bytes()
    }

    fn state_digest(&self) -> Digest {
        self.directory.digest()
    }

    fn for_each_entry(&self, f: &mut EntryVisitor<'_>) {
        read_ok(self.lsm.for_each(&mut |r| {
            f(&r.key, r.value.as_deref(), r.version);
        }));
    }

    fn prove(&self, key: &str) -> Option<(MerkleProof, Vec<u8>)> {
        let value = self.get(key)?;
        let version = self.directory.version(key)?;
        let proof = self.directory.prove(key)?;
        Some((proof, leaf_bytes(key, Some(&value), version)))
    }
}

/// Metric handles for the LSM engine, resolved once when telemetry
/// attaches. The engine only exposes cumulative totals and an event
/// trace, so deltas are mirrored into counters after each commit/flush
/// (same pattern as the backend's fsync mirror) and per-event
/// latencies are replayed off the tail of the compaction trace.
struct StatedbMetrics {
    telemetry: Telemetry,
    flushes_total: Counter,
    compactions_total: Counter,
    table_bytes_total: Counter,
    block_cache_hits_total: Counter,
    block_cache_misses_total: Counter,
    row_cache_hits_total: Counter,
    row_cache_misses_total: Counter,
    bloom_negatives_total: Counter,
    compaction_read_total: Counter,
    compaction_written_total: Counter,
    memtable_flush_seconds: HistogramHandle,
    compaction_seconds: HistogramHandle,
    block_hit_ratio: Gauge,
    row_hit_ratio: Gauge,
    memtable_bytes: Gauge,
    /// `(tables, bytes)` gauges per level, grown as levels appear.
    level_gauges: Vec<(Gauge, Gauge)>,
    mirrored: LsmStats,
}

impl StatedbMetrics {
    fn new(telemetry: &Telemetry, already: LsmStats) -> StatedbMetrics {
        let r = telemetry.registry();
        StatedbMetrics {
            flushes_total: r.counter("lv_statedb_flushes_total", &[]),
            compactions_total: r.counter("lv_statedb_compactions_total", &[]),
            table_bytes_total: r.counter("lv_statedb_table_bytes_written_total", &[]),
            block_cache_hits_total: r.counter("lv_statedb_block_cache_hits_total", &[]),
            block_cache_misses_total: r.counter("lv_statedb_block_cache_misses_total", &[]),
            row_cache_hits_total: r.counter("lv_statedb_row_cache_hits_total", &[]),
            row_cache_misses_total: r.counter("lv_statedb_row_cache_misses_total", &[]),
            bloom_negatives_total: r.counter("lv_statedb_bloom_negatives_total", &[]),
            compaction_read_total: r.counter("lv_statedb_compaction_bytes_read_total", &[]),
            compaction_written_total: r.counter("lv_statedb_compaction_bytes_written_total", &[]),
            memtable_flush_seconds: r.histogram("lv_statedb_memtable_flush_seconds", &[]),
            compaction_seconds: r.histogram("lv_statedb_compaction_seconds", &[]),
            block_hit_ratio: r.gauge("lv_statedb_block_cache_hit_ratio_percent", &[]),
            row_hit_ratio: r.gauge("lv_statedb_row_cache_hit_ratio_percent", &[]),
            memtable_bytes: r.gauge("lv_statedb_memtable_bytes", &[]),
            level_gauges: Vec::new(),
            mirrored: already,
            telemetry: telemetry.clone(),
        }
    }

    fn sync(&mut self, now: LsmStats, trace: &[CompactionEvent]) {
        let delta = |new: u64, old: u64| new.saturating_sub(old);
        self.flushes_total
            .add(delta(now.flushes, self.mirrored.flushes));
        self.compactions_total
            .add(delta(now.compactions, self.mirrored.compactions));
        self.table_bytes_total.add(delta(
            now.table_bytes_written,
            self.mirrored.table_bytes_written,
        ));
        self.block_cache_hits_total
            .add(delta(now.block_cache_hits, self.mirrored.block_cache_hits));
        self.block_cache_misses_total.add(delta(
            now.block_cache_misses,
            self.mirrored.block_cache_misses,
        ));
        self.row_cache_hits_total
            .add(delta(now.row_cache_hits, self.mirrored.row_cache_hits));
        self.row_cache_misses_total
            .add(delta(now.row_cache_misses, self.mirrored.row_cache_misses));
        self.bloom_negatives_total
            .add(delta(now.bloom_negatives, self.mirrored.bloom_negatives));
        self.compaction_read_total.add(delta(
            now.compaction_bytes_read,
            self.mirrored.compaction_bytes_read,
        ));
        self.compaction_written_total.add(delta(
            now.compaction_bytes_written,
            self.mirrored.compaction_bytes_written,
        ));
        // Per-event flush/compaction latencies: the trace is a bounded
        // ring, so cursor positions can shift under eviction — but the
        // cumulative event counts in the stats can't, so replay exactly
        // the events added since the last sync off the trace's tail.
        let new_events = delta(
            now.flushes + now.compactions,
            self.mirrored.flushes + self.mirrored.compactions,
        ) as usize;
        let tail = &trace[trace.len().saturating_sub(new_events.min(trace.len()))..];
        for event in tail {
            if event.kind == "flush" {
                self.memtable_flush_seconds.observe(event.duration_us);
            } else {
                self.compaction_seconds.observe(event.duration_us);
            }
        }
        self.block_hit_ratio
            .set((now.block_cache_hit_ratio() * 100.0) as i64);
        self.row_hit_ratio
            .set((now.row_cache_hit_ratio() * 100.0) as i64);
        self.memtable_bytes.set(now.memtable_bytes as i64);
        let r = self.telemetry.registry();
        for (i, level) in now.levels.iter().enumerate() {
            if self.level_gauges.len() <= i {
                let label = i.to_string();
                self.level_gauges.push((
                    r.gauge("lv_statedb_level_tables", &[("level", &label)]),
                    r.gauge("lv_statedb_level_bytes", &[("level", &label)]),
                ));
            }
            let (tables, bytes) = &self.level_gauges[i];
            tables.set(level.tables as i64);
            bytes.set(level.bytes as i64);
        }
        self.mirrored = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statedb::StateDb;
    use fabric_store::testdir::TestDir;

    #[test]
    fn statedb_metrics_populate_and_lint_clean() {
        let dir = TestDir::new("lsmstate-metrics");
        let config = LsmConfig::new(dir.path().join("lsm"))
            .memtable_bytes(512)
            .block_bytes(128)
            .table_target_bytes(512)
            .l0_compact_tables(2)
            .sync(false);
        let (mut state, _) = LsmState::open(config).unwrap();
        let telemetry = Telemetry::wall_clock();
        state.set_telemetry(&telemetry);
        for i in 0..200u32 {
            state.put(format!("k{i:04}"), vec![i as u8; 64], v(1, i));
            if state.should_flush() {
                state.flush(b"m").unwrap();
            }
        }
        state.flush(b"m").unwrap();
        for i in 0..200u32 {
            let _ = state.get(&format!("k{i:04}"));
            let _ = state.get(&format!("missing{i:04}"));
        }
        state.sync_metrics();

        let r = telemetry.registry();
        let stats = state.lsm_stats();
        assert_eq!(
            r.counter("lv_statedb_flushes_total", &[]).get(),
            stats.flushes
        );
        assert_eq!(
            r.counter("lv_statedb_compactions_total", &[]).get(),
            stats.compactions
        );
        assert!(stats.compactions > 0, "workload never compacted");
        assert_eq!(
            r.counter("lv_statedb_bloom_negatives_total", &[]).get(),
            stats.bloom_negatives
        );
        assert_eq!(
            r.counter("lv_statedb_compaction_bytes_written_total", &[])
                .get(),
            stats.compaction_bytes_written
        );
        assert!(
            r.gauge("lv_statedb_level_tables", &[("level", "0")]).get() >= 0
                && !stats.levels.is_empty()
        );
        assert_eq!(
            r.histogram("lv_statedb_memtable_flush_seconds", &[])
                .histogram()
                .count(),
            stats.flushes
        );
        assert_eq!(
            r.histogram("lv_statedb_compaction_seconds", &[])
                .histogram()
                .count(),
            stats.compactions
        );
        let problems = ledgerview_telemetry::promlint::lint_prometheus(&r.prometheus_text());
        assert!(problems.is_empty(), "{problems:?}");
    }

    fn v(b: u64, t: u32) -> Version {
        Version {
            block_num: b,
            tx_num: t,
        }
    }

    fn tiny_lsm_config(dir: &std::path::Path) -> LsmConfig {
        LsmConfig::new(dir.join(LSM_SUBDIR))
            .memtable_bytes(2 * 1024)
            .block_bytes(512)
            .table_target_bytes(4 * 1024)
            .l0_compact_tables(2)
            .level_base_bytes(16 * 1024)
            .sync(false)
    }

    fn open_state(dir: &std::path::Path) -> LsmState {
        LsmState::open(tiny_lsm_config(dir)).unwrap().0
    }

    /// Drive the same operation stream into both backends and demand
    /// bit-identical digests, versions, and scan results at every step.
    #[test]
    fn lsm_state_matches_in_memory_twin() {
        let dir = TestDir::new("lsmstate-twin");
        let mut lsm = open_state(dir.path());
        let mut mem = StateDb::new();
        for i in 0..200u32 {
            let key = format!("k{:03}", i % 64);
            if i % 7 == 3 {
                lsm.delete(&key, v(1, i));
                mem.delete(&key, v(1, i));
            } else {
                let value = vec![i as u8; (i % 13) as usize + 1];
                lsm.put(key.clone(), value.clone(), v(1, i));
                mem.put(key, value, v(1, i));
            }
        }
        assert_eq!(lsm.state_digest(), mem.state_digest());
        assert_eq!(lsm.len(), VersionedState::len(&mem));
        assert_eq!(lsm.size_bytes(), VersionedState::size_bytes(&mem));
        for i in 0..64 {
            let key = format!("k{i:03}");
            assert_eq!(lsm.get(&key), VersionedState::get(&mem, &key), "{key}");
            assert_eq!(lsm.version(&key), mem.version(&key), "{key}");
        }
        assert_eq!(
            lsm.range_scan("k010", "k020"),
            VersionedState::range_scan(&mem, "k010", "k020")
        );
        assert_eq!(
            lsm.prefix_scan("k0"),
            VersionedState::prefix_scan(&mem, "k0")
        );
    }

    #[test]
    fn lsm_state_digest_survives_flush_and_reopen() {
        let dir = TestDir::new("lsmstate-reopen");
        let mut state = open_state(dir.path());
        for i in 0..100u32 {
            state.put(format!("key{i:04}"), vec![i as u8; 40], v(2, i));
        }
        state.delete("key0007", v(3, 0));
        let digest = state.state_digest();
        state.flush(b"meta").unwrap();
        drop(state);

        let (state, meta) = LsmState::open(tiny_lsm_config(dir.path())).unwrap();
        assert_eq!(meta.as_deref(), Some(&b"meta"[..]));
        assert_eq!(state.state_digest(), digest);
        assert_eq!(state.version("key0007"), Some(v(3, 0)));
        assert_eq!(state.get("key0007"), None);
    }

    #[test]
    fn lsm_state_proofs_verify_against_digest() {
        let dir = TestDir::new("lsmstate-proofs");
        let mut state = open_state(dir.path());
        for i in 0..40u32 {
            state.put(format!("acct{i:02}"), vec![i as u8; 8], v(1, i));
        }
        let digest = state.state_digest();
        for i in (0..40).step_by(7) {
            let key = format!("acct{i:02}");
            let (proof, leaf) = state.prove(&key).unwrap();
            assert!(StateDb::verify_proof(&digest, &leaf, &proof), "{key}");
        }
        assert!(state.prove("missing").is_none());
    }
}
