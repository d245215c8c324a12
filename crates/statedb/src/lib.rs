//! `ledgerview-statedb`: a disk-backed LSM-tree versioned key/value
//! store — the substrate that lets world state outgrow RAM while keeping
//! the MVCC metadata and deterministic iteration order the ledger layer
//! depends on.
//!
//! # Architecture
//!
//! Writes land in a sorted in-memory [`memtable`]; when it crosses a
//! byte threshold the caller flushes it into an immutable L0
//! [`sstable`]. L0 tables may overlap; deeper levels are sorted runs of
//! non-overlapping tables. Point reads consult the memtable, a row
//! cache, then tables newest-first with bloom filters and a sparse block
//! index bounding disk touches; range scans [`scan`]-merge all sources
//! with newest-record-wins semantics. Compaction merges runs downward
//! when L0 accumulates too many tables or a level exceeds its byte
//! budget, reclaiming every shadowed record. A [`manifest`] is the
//! atomic commit point: flushes and compactions first write new table
//! files, then publish them with one fsync'd rename — a crash in
//! between leaves only orphan files, deleted at the next open.
//!
//! # What this engine deliberately does differently
//!
//! * **Every record carries an MVCC [`Version`]** (committing block and
//!   transaction index) — the validator's read-set checks need versions,
//!   not just values.
//! * **Deletes are tombstones with versions, and tombstones are never
//!   garbage-collected.** The ledger's state digest must commit to
//!   deletions (so a recreated key cannot masquerade as its ancestor),
//!   and digests must not depend on compaction timing. Compaction
//!   reclaims *shadowed* records — everything older than the newest
//!   record per key — which is where the space goes in practice.
//! * **No background threads.** Compaction runs synchronously inside
//!   `flush`, so a given sequence of operations produces bit-identical
//!   files and digests on every run — the property the differential
//!   proptests against the in-memory twin rely on.

#![forbid(unsafe_code)]

pub mod bloom;
pub mod cache;
pub mod manifest;
pub mod memtable;
pub mod scan;
pub mod sstable;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric_store::StoreError;

use cache::Caches;
use manifest::Manifest;
use memtable::Memtable;
use scan::{MergeScan, Source};
use sstable::{parse_table_file_name, Record, Table, TableBuilder};

// ---------------------------------------------------------------------------
// version
// ---------------------------------------------------------------------------

/// MVCC version of a state entry: the block and transaction that last
/// wrote (or deleted) it. This is the same notion of version Fabric's
/// validator compares read sets against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Height of the committing block.
    pub block_num: u64,
    /// Index of the transaction within that block.
    pub tx_num: u32,
}

impl Version {
    /// Version for entries created outside any block (genesis setup).
    pub const GENESIS: Version = Version {
        block_num: 0,
        tx_num: 0,
    };
}

/// Result of a point read: the outer `Option` is whether the key was ever
/// written; the inner value is `None` for a tombstone.
pub type Lookup = Option<(Option<Vec<u8>>, Version)>;

// ---------------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------------

/// Tuning knobs for an [`Lsm`] instance.
#[derive(Clone, Debug)]
pub struct LsmConfig {
    /// Directory holding the manifest and table files.
    pub dir: PathBuf,
    /// Flush the memtable once it buffers this many bytes.
    pub memtable_bytes: usize,
    /// Target size of one data block inside a table.
    pub block_bytes: usize,
    /// Split compaction outputs into tables of roughly this size.
    pub table_target_bytes: u64,
    /// Byte budget for the decoded-block cache.
    pub block_cache_bytes: usize,
    /// Byte budget for the hot-key row cache.
    pub row_cache_bytes: usize,
    /// Compact L0 into L1 once this many L0 tables accumulate.
    pub l0_compact_tables: usize,
    /// Byte budget of L1; level *i* gets `level_base_bytes·growth^(i-1)`.
    pub level_base_bytes: u64,
    /// Per-level budget multiplier.
    pub level_growth: u64,
    /// Whether to fsync table files and the manifest.
    pub sync: bool,
}

impl LsmConfig {
    /// Defaults sized for tests and medium workloads.
    pub fn new(dir: impl Into<PathBuf>) -> LsmConfig {
        LsmConfig {
            dir: dir.into(),
            memtable_bytes: 4 << 20,
            block_bytes: 4096,
            table_target_bytes: 2 << 20,
            block_cache_bytes: 8 << 20,
            row_cache_bytes: 4 << 20,
            l0_compact_tables: 4,
            level_base_bytes: 16 << 20,
            level_growth: 10,
            sync: true,
        }
    }

    pub fn memtable_bytes(mut self, n: usize) -> LsmConfig {
        self.memtable_bytes = n;
        self
    }

    pub fn block_bytes(mut self, n: usize) -> LsmConfig {
        self.block_bytes = n;
        self
    }

    pub fn table_target_bytes(mut self, n: u64) -> LsmConfig {
        self.table_target_bytes = n;
        self
    }

    pub fn block_cache_bytes(mut self, n: usize) -> LsmConfig {
        self.block_cache_bytes = n;
        self
    }

    pub fn row_cache_bytes(mut self, n: usize) -> LsmConfig {
        self.row_cache_bytes = n;
        self
    }

    pub fn l0_compact_tables(mut self, n: usize) -> LsmConfig {
        self.l0_compact_tables = n.max(1);
        self
    }

    pub fn level_base_bytes(mut self, n: u64) -> LsmConfig {
        self.level_base_bytes = n.max(1);
        self
    }

    pub fn level_growth(mut self, n: u64) -> LsmConfig {
        self.level_growth = n.max(2);
        self
    }

    pub fn sync(mut self, on: bool) -> LsmConfig {
        self.sync = on;
        self
    }
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

/// One compaction (or flush) in the engine's event trace.
#[derive(Clone, Debug)]
pub struct CompactionEvent {
    /// `"flush"`, `"l0"`, or `"level"`.
    pub kind: &'static str,
    /// Source level (0 for flushes and L0 compactions).
    pub level: u32,
    /// Input table sequence numbers.
    pub inputs: Vec<u64>,
    /// Total bytes read from inputs.
    pub input_bytes: u64,
    /// Output table sequence numbers.
    pub outputs: Vec<u64>,
    /// Total bytes written to outputs.
    pub output_bytes: u64,
    /// Wall-clock time the table writes took. Observational only — never
    /// compared across runs or fed back into engine decisions.
    pub duration_us: u64,
}

/// Occupancy of one level in a stats snapshot.
#[derive(Clone, Debug)]
pub struct LevelStats {
    pub tables: usize,
    pub bytes: u64,
    pub entries: u64,
}

/// Point-in-time engine statistics.
#[derive(Clone, Debug, Default)]
pub struct LsmStats {
    /// Point lookups served (memtable, cache, or table).
    pub gets: u64,
    /// Data blocks touched by point lookups (read amplification num.).
    pub probes: u64,
    /// Memtable flushes that produced an L0 table.
    pub flushes: u64,
    /// Compactions run (L0→L1 and level→level).
    pub compactions: u64,
    /// Lookups where a table's key range matched but its bloom filter
    /// proved the key absent without touching a data block.
    pub bloom_negatives: u64,
    /// Bytes read from compaction input tables (flushes excluded).
    pub compaction_bytes_read: u64,
    /// Bytes written to compaction output tables (flushes excluded).
    pub compaction_bytes_written: u64,
    /// Cumulative wall-clock microseconds spent writing L0 flush tables.
    pub flush_us_total: u64,
    /// Cumulative wall-clock microseconds spent in compaction merges.
    pub compaction_us_total: u64,
    pub block_cache_hits: u64,
    pub block_cache_misses: u64,
    pub row_cache_hits: u64,
    pub row_cache_misses: u64,
    /// Logical bytes accepted via put/delete.
    pub user_bytes_written: u64,
    /// Physical bytes written into table files (write amp numerator).
    pub table_bytes_written: u64,
    /// Per-level occupancy, L0 first.
    pub levels: Vec<LevelStats>,
    /// Current memtable footprint.
    pub memtable_bytes: usize,
    /// Resident bytes across block + row caches.
    pub cache_resident_bytes: usize,
    /// Resident bytes of table indexes + bloom filters.
    pub table_meta_resident_bytes: usize,
}

impl LsmStats {
    /// Physical bytes written per logical byte accepted.
    pub fn write_amplification(&self) -> f64 {
        if self.user_bytes_written == 0 {
            0.0
        } else {
            self.table_bytes_written as f64 / self.user_bytes_written as f64
        }
    }

    /// Block-cache hit ratio in `[0, 1]`.
    pub fn block_cache_hit_ratio(&self) -> f64 {
        let total = self.block_cache_hits + self.block_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.block_cache_hits as f64 / total as f64
        }
    }

    /// Row-cache hit ratio in `[0, 1]`.
    pub fn row_cache_hit_ratio(&self) -> f64 {
        let total = self.row_cache_hits + self.row_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.row_cache_hits as f64 / total as f64
        }
    }
}

/// Crash-injection points for recovery tests: the engine does all the
/// file writes up to the named point, then skips the manifest publish,
/// exactly like a process dying mid-flush or mid-compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash after writing the L0 table but before any compaction or
    /// manifest update.
    AfterFlushTable,
    /// Crash after writing compaction output tables but before the
    /// manifest update that installs them.
    AfterCompactionWrite,
}

const MAX_TRACE_EVENTS: usize = 4096;

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

/// The LSM engine. Reads take `&self` (safe to share across validator
/// worker threads); writes and flushes take `&mut self`.
pub struct Lsm {
    config: LsmConfig,
    mem: Memtable,
    /// `levels[0]` is L0 in age order (oldest first); deeper levels are
    /// non-overlapping, sorted by min key.
    levels: Vec<Vec<Table>>,
    cursors: Vec<Option<String>>,
    next_seq: u64,
    caches: Caches,
    gets: AtomicU64,
    probes: AtomicU64,
    bloom_negatives: AtomicU64,
    flushes: u64,
    compactions: u64,
    user_bytes_written: u64,
    table_bytes_written: u64,
    compaction_bytes_read: u64,
    compaction_bytes_written: u64,
    flush_us: u64,
    compaction_us: u64,
    trace: Vec<CompactionEvent>,
    crash_point: Option<CrashPoint>,
    /// Set when a crash point fired; all further mutation is refused.
    crashed: bool,
}

impl Lsm {
    /// Open (or create) a database in `config.dir`. Returns the engine
    /// plus the opaque metadata blob stored by the last successful
    /// flush (`None` for a fresh database). Orphan table files from a
    /// crashed flush/compaction are deleted here.
    pub fn open(config: LsmConfig) -> Result<(Lsm, Option<Vec<u8>>), StoreError> {
        std::fs::create_dir_all(&config.dir).map_err(StoreError::Io)?;
        let loaded = manifest::load(&config.dir)?;
        let (man, meta) = match loaded {
            Some(m) => {
                let meta = if m.meta.is_empty() {
                    None
                } else {
                    Some(m.meta.clone())
                };
                (m, meta)
            }
            None => (Manifest::default(), None),
        };
        // Delete files the manifest does not reference (crash leftovers).
        let live: std::collections::HashSet<u64> = man.live_seqs().into_iter().collect();
        let _ = std::fs::remove_file(manifest::tmp_path(&config.dir));
        for entry in std::fs::read_dir(&config.dir).map_err(StoreError::Io)? {
            let entry = entry.map_err(StoreError::Io)?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = parse_table_file_name(name) {
                if !live.contains(&seq) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let mut levels = Vec::with_capacity(man.levels.len());
        for level_seqs in &man.levels {
            let mut tables = Vec::with_capacity(level_seqs.len());
            for &seq in level_seqs {
                tables.push(Table::open(&config.dir, seq)?);
            }
            levels.push(tables);
        }
        let mut cursors = man.cursors.clone();
        cursors.resize(levels.len(), None);
        let caches = Caches::new(config.block_cache_bytes, config.row_cache_bytes);
        Ok((
            Lsm {
                mem: Memtable::new(),
                levels,
                cursors,
                next_seq: man.next_seq,
                caches,
                gets: AtomicU64::new(0),
                probes: AtomicU64::new(0),
                bloom_negatives: AtomicU64::new(0),
                flushes: 0,
                compactions: 0,
                user_bytes_written: 0,
                table_bytes_written: 0,
                compaction_bytes_read: 0,
                compaction_bytes_written: 0,
                flush_us: 0,
                compaction_us: 0,
                trace: Vec::new(),
                crash_point: None,
                crashed: false,
                config,
            },
            meta,
        ))
    }

    /// Arm a crash-injection point (tests only; fires once).
    pub fn set_crash_point(&mut self, point: Option<CrashPoint>) {
        self.crash_point = point;
    }

    /// Whether an armed crash point has fired (the engine then refuses
    /// further work, like a dead process).
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    // -- writes ------------------------------------------------------------

    /// Buffer a value write.
    pub fn put(&mut self, key: String, value: Vec<u8>, version: Version) {
        assert!(!self.crashed, "lsm used after injected crash");
        self.user_bytes_written += (key.len() + value.len() + 12) as u64;
        self.caches.invalidate_row(&key);
        self.mem.upsert(key, Some(value), version);
    }

    /// Buffer a tombstone.
    pub fn delete(&mut self, key: String, version: Version) {
        assert!(!self.crashed, "lsm used after injected crash");
        self.user_bytes_written += (key.len() + 12) as u64;
        self.caches.invalidate_row(&key);
        self.mem.upsert(key, None, version);
    }

    /// Whether the memtable has crossed the flush threshold.
    pub fn should_flush(&self) -> bool {
        self.mem.bytes() >= self.config.memtable_bytes
    }

    /// Current memtable footprint in bytes.
    pub fn memtable_bytes(&self) -> usize {
        self.mem.bytes()
    }

    // -- reads -------------------------------------------------------------

    /// Newest record for `key`: `Some((value, version))` where a `None`
    /// value is a tombstone; `None` means the key never existed.
    pub fn get(&self, key: &str) -> Result<Lookup, StoreError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        if let Some(entry) = self.mem.get(key) {
            return Ok(Some((entry.value.clone(), entry.version)));
        }
        if let Some((value, version)) = self.caches.get_row(key) {
            return Ok(Some((value.map(|v| v.as_ref().clone()), version)));
        }
        let mut probes = 0u64;
        let found = self.search_tables(key, &mut probes);
        self.probes.fetch_add(probes, Ordering::Relaxed);
        let record = found?;
        if let Some(r) = &record {
            self.caches
                .insert_row(key, (r.value.clone().map(Arc::new), r.version));
        }
        Ok(record.map(|r| (r.value, r.version)))
    }

    fn search_tables(&self, key: &str, probes: &mut u64) -> Result<Option<Record>, StoreError> {
        if let Some(level0) = self.levels.first() {
            for table in level0.iter().rev() {
                if table.bloom_negative(key) {
                    self.bloom_negatives.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if let Some(r) = table.get(key, &self.caches, probes)? {
                    return Ok(Some(r));
                }
            }
        }
        for level in self.levels.iter().skip(1) {
            // Non-overlapping and sorted: at most one candidate table.
            let idx = level.partition_point(|t| t.min_key.as_str() <= key);
            if idx > 0 {
                let table = &level[idx - 1];
                if key <= table.max_key.as_str() {
                    if table.bloom_negative(key) {
                        self.bloom_negatives.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if let Some(r) = table.get(key, &self.caches, probes)? {
                        return Ok(Some(r));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Merge-scan records with `start <= key` (and `key < end` when
    /// bounded), in key order, newest record per key, tombstones
    /// included. The callback returns `false` to stop early.
    pub fn scan(
        &self,
        start: &str,
        end: Option<&str>,
        f: &mut dyn FnMut(Record) -> bool,
    ) -> Result<(), StoreError> {
        let mut sources: Vec<Source<'_>> = Vec::new();
        sources.push(Box::new(self.mem.range(start, end).map(|(k, e)| {
            Ok(Record {
                key: k.clone(),
                value: e.value.clone(),
                version: e.version,
            })
        })));
        if let Some(level0) = self.levels.first() {
            for table in level0.iter().rev() {
                sources.push(Box::new(table.scan(start, end, &self.caches)));
            }
        }
        for level in self.levels.iter().skip(1) {
            for table in level {
                if table.max_key.as_str() < start {
                    continue;
                }
                if let Some(e) = end {
                    if table.min_key.as_str() >= e {
                        continue;
                    }
                }
                sources.push(Box::new(table.scan(start, end, &self.caches)));
            }
        }
        for item in MergeScan::new(sources)? {
            if !f(item?) {
                break;
            }
        }
        Ok(())
    }

    /// Visit every record (newest per key, tombstones included).
    pub fn for_each(&self, f: &mut dyn FnMut(Record)) -> Result<(), StoreError> {
        self.scan("", None, &mut |r| {
            f(r);
            true
        })
    }

    // -- flush & compaction ------------------------------------------------

    /// Persist the memtable as an L0 table (if non-empty), run any due
    /// compactions, and publish the result — together with the caller's
    /// opaque `meta` blob — in one atomic manifest update. On return the
    /// memtable is empty and everything written before this call is
    /// durable (when `sync` is on).
    pub fn flush(&mut self, meta: &[u8]) -> Result<(), StoreError> {
        assert!(!self.crashed, "lsm used after injected crash");
        let mut obsolete: Vec<PathBuf> = Vec::new();
        if !self.mem.is_empty() {
            let flush_start = std::time::Instant::now();
            let records = self.mem.drain();
            let seq = self.alloc_seq();
            let mut builder = TableBuilder::create(&self.config.dir, seq, self.config.block_bytes)?;
            for (key, entry) in records {
                builder.add(key, entry.value.as_deref(), entry.version)?;
            }
            let table = builder.finish(self.config.sync)?;
            let duration_us = flush_start.elapsed().as_micros() as u64;
            self.flushes += 1;
            self.table_bytes_written += table.file_bytes;
            self.flush_us += duration_us;
            self.push_trace(CompactionEvent {
                kind: "flush",
                level: 0,
                inputs: Vec::new(),
                input_bytes: 0,
                outputs: vec![table.seq],
                output_bytes: table.file_bytes,
                duration_us,
            });
            if self.levels.is_empty() {
                self.levels.push(Vec::new());
                self.cursors.push(None);
            }
            self.levels[0].push(table);
        }
        if self.crash_point == Some(CrashPoint::AfterFlushTable) {
            self.crashed = true;
            return Ok(());
        }
        self.run_compactions(&mut obsolete)?;
        if self.crash_point == Some(CrashPoint::AfterCompactionWrite) && self.crashed {
            return Ok(());
        }
        self.save_manifest(meta)?;
        for path in obsolete {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn save_manifest(&self, meta: &[u8]) -> Result<(), StoreError> {
        let man = Manifest {
            next_seq: self.next_seq,
            levels: self
                .levels
                .iter()
                .map(|lvl| lvl.iter().map(|t| t.seq).collect())
                .collect(),
            cursors: self.cursors.clone(),
            meta: meta.to_vec(),
        };
        manifest::save(&self.config.dir, &man, self.config.sync)
    }

    fn level_budget(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        self.config
            .level_base_bytes
            .saturating_mul(self.config.level_growth.saturating_pow(level as u32 - 1))
    }

    fn level_bytes(&self, level: usize) -> u64 {
        self.levels
            .get(level)
            .map_or(0, |lvl| lvl.iter().map(|t| t.file_bytes).sum())
    }

    fn run_compactions(&mut self, obsolete: &mut Vec<PathBuf>) -> Result<(), StoreError> {
        // Bounded passes: each pass moves bytes downward, and budgets grow
        // geometrically, so a handful of rounds always reaches a fixpoint.
        for _ in 0..64 {
            let mut did_work = false;
            if self
                .levels
                .first()
                .is_some_and(|l0| l0.len() >= self.config.l0_compact_tables)
            {
                self.compact_l0(obsolete)?;
                if self.crashed {
                    return Ok(());
                }
                did_work = true;
            }
            for level in 1..self.levels.len() {
                if self.level_bytes(level) > self.level_budget(level) {
                    self.compact_level(level, obsolete)?;
                    if self.crashed {
                        return Ok(());
                    }
                    did_work = true;
                    break; // level occupancy changed; re-evaluate from the top
                }
            }
            if !did_work {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Merge all L0 tables plus every overlapping L1 table into L1.
    fn compact_l0(&mut self, obsolete: &mut Vec<PathBuf>) -> Result<(), StoreError> {
        let compact_start = std::time::Instant::now();
        if self.levels.len() < 2 {
            self.levels.push(Vec::new());
            self.cursors.push(None);
        }
        let l0: Vec<Table> = std::mem::take(&mut self.levels[0]);
        let min = l0
            .iter()
            .map(|t| t.min_key.as_str())
            .min()
            .unwrap_or("")
            .to_string();
        let max = l0
            .iter()
            .map(|t| t.max_key.as_str())
            .max()
            .unwrap_or("")
            .to_string();
        let (overlap, keep): (Vec<Table>, Vec<Table>) = std::mem::take(&mut self.levels[1])
            .into_iter()
            .partition(|t| {
                t.max_key.as_str() >= min.as_str() && t.min_key.as_str() <= max.as_str()
            });
        let inputs: Vec<u64> = l0.iter().chain(overlap.iter()).map(|t| t.seq).collect();
        let input_bytes: u64 = l0.iter().chain(overlap.iter()).map(|t| t.file_bytes).sum();

        // Sources newest-first: L0 newest→oldest, then the (mutually
        // non-overlapping) L1 inputs.
        let mut sources: Vec<Source<'_>> = Vec::new();
        for table in l0.iter().rev() {
            sources.push(Box::new(table.compaction_reader()));
        }
        for table in &overlap {
            sources.push(Box::new(table.compaction_reader()));
        }
        let outputs = self.write_merged_tables(sources)?;

        let event = CompactionEvent {
            kind: "l0",
            level: 0,
            inputs,
            input_bytes,
            outputs: outputs.iter().map(|t| t.seq).collect(),
            output_bytes: outputs.iter().map(|t| t.file_bytes).sum(),
            duration_us: compact_start.elapsed().as_micros() as u64,
        };
        if self.crash_point == Some(CrashPoint::AfterCompactionWrite) {
            // Outputs are on disk but never installed; restore inputs so
            // the in-memory image stays consistent until the drop.
            for t in outputs {
                obsolete.push(t.path.clone());
            }
            self.levels[0] = l0;
            let mut l1 = keep;
            l1.extend(overlap);
            l1.sort_by(|a, b| a.min_key.cmp(&b.min_key));
            self.levels[1] = l1;
            self.crashed = true;
            return Ok(());
        }
        self.compactions += 1;
        self.table_bytes_written += event.output_bytes;
        self.compaction_bytes_read += event.input_bytes;
        self.compaction_bytes_written += event.output_bytes;
        self.compaction_us += event.duration_us;
        self.push_trace(event);
        for t in l0.into_iter().chain(overlap) {
            obsolete.push(t.path.clone());
        }
        let mut l1 = keep;
        l1.extend(outputs);
        l1.sort_by(|a, b| a.min_key.cmp(&b.min_key));
        self.levels[1] = l1;
        Ok(())
    }

    /// Push one table from `level` into `level + 1` (round-robin by the
    /// persisted cursor, so the pick is deterministic across restarts).
    fn compact_level(
        &mut self,
        level: usize,
        obsolete: &mut Vec<PathBuf>,
    ) -> Result<(), StoreError> {
        let compact_start = std::time::Instant::now();
        if self.levels.len() < level + 2 {
            self.levels.push(Vec::new());
            self.cursors.push(None);
        }
        let pick = {
            let tables = &self.levels[level];
            let cursor = self.cursors[level].as_deref();
            let after = cursor.and_then(|c| tables.iter().position(|t| t.min_key.as_str() > c));
            after.unwrap_or(0)
        };
        let chosen = self.levels[level].remove(pick);
        self.cursors[level] = Some(chosen.max_key.clone());
        let (overlap, keep): (Vec<Table>, Vec<Table>) = std::mem::take(&mut self.levels[level + 1])
            .into_iter()
            .partition(|t| {
                t.max_key.as_str() >= chosen.min_key.as_str()
                    && t.min_key.as_str() <= chosen.max_key.as_str()
            });
        let inputs: Vec<u64> = std::iter::once(chosen.seq)
            .chain(overlap.iter().map(|t| t.seq))
            .collect();
        let input_bytes: u64 =
            chosen.file_bytes + overlap.iter().map(|t| t.file_bytes).sum::<u64>();

        let mut sources: Vec<Source<'_>> = Vec::new();
        sources.push(Box::new(chosen.compaction_reader()));
        for table in &overlap {
            sources.push(Box::new(table.compaction_reader()));
        }
        let outputs = self.write_merged_tables(sources)?;

        let event = CompactionEvent {
            kind: "level",
            level: level as u32,
            inputs,
            input_bytes,
            outputs: outputs.iter().map(|t| t.seq).collect(),
            output_bytes: outputs.iter().map(|t| t.file_bytes).sum(),
            duration_us: compact_start.elapsed().as_micros() as u64,
        };
        if self.crash_point == Some(CrashPoint::AfterCompactionWrite) {
            for t in outputs {
                obsolete.push(t.path.clone());
            }
            let at = pick.min(self.levels[level].len());
            self.levels[level].insert(at, chosen);
            let mut next = keep;
            next.extend(overlap);
            next.sort_by(|a, b| a.min_key.cmp(&b.min_key));
            self.levels[level + 1] = next;
            self.crashed = true;
            return Ok(());
        }
        self.compactions += 1;
        self.table_bytes_written += event.output_bytes;
        self.compaction_bytes_read += event.input_bytes;
        self.compaction_bytes_written += event.output_bytes;
        self.compaction_us += event.duration_us;
        self.push_trace(event);
        obsolete.push(chosen.path.clone());
        for t in overlap {
            obsolete.push(t.path.clone());
        }
        let mut next = keep;
        next.extend(outputs);
        next.sort_by(|a, b| a.min_key.cmp(&b.min_key));
        self.levels[level + 1] = next;
        Ok(())
    }

    /// Drain a merge into new tables, splitting at the target size.
    /// Shadowed records vanish here (the merge emits newest-per-key);
    /// tombstones are retained by design — see the crate docs.
    fn write_merged_tables(&mut self, sources: Vec<Source<'_>>) -> Result<Vec<Table>, StoreError> {
        let config = &self.config;
        let mut outputs = Vec::new();
        let mut builder: Option<TableBuilder> = None;
        for item in MergeScan::new(sources)? {
            let record = item?;
            if builder.is_none() {
                let seq = self.next_seq;
                self.next_seq += 1;
                builder = Some(TableBuilder::create(&config.dir, seq, config.block_bytes)?);
            }
            let b = builder.as_mut().expect("builder just ensured");
            b.add(record.key, record.value.as_deref(), record.version)?;
            if b.bytes_written() >= config.table_target_bytes {
                outputs.push(
                    builder
                        .take()
                        .expect("builder present")
                        .finish(config.sync)?,
                );
            }
        }
        if let Some(b) = builder {
            if b.entry_count() > 0 {
                outputs.push(b.finish(config.sync)?);
            } else {
                b.abort();
            }
        }
        // New files replace inputs whose cached blocks are now stale; dropping
        // the whole block cache is simpler than tracking which (seq, block)
        // pairs died, and the row cache stays valid (logical content is
        // unchanged by compaction).
        self.caches.clear_blocks();
        Ok(outputs)
    }

    fn push_trace(&mut self, event: CompactionEvent) {
        if self.trace.len() >= MAX_TRACE_EVENTS {
            self.trace.remove(0);
        }
        self.trace.push(event);
    }

    // -- introspection -----------------------------------------------------

    /// Snapshot of engine statistics.
    pub fn stats(&self) -> LsmStats {
        LsmStats {
            gets: self.gets.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            flushes: self.flushes,
            compactions: self.compactions,
            bloom_negatives: self.bloom_negatives.load(Ordering::Relaxed),
            compaction_bytes_read: self.compaction_bytes_read,
            compaction_bytes_written: self.compaction_bytes_written,
            flush_us_total: self.flush_us,
            compaction_us_total: self.compaction_us,
            block_cache_hits: self.caches.counters.block_hits.load(Ordering::Relaxed),
            block_cache_misses: self.caches.counters.block_misses.load(Ordering::Relaxed),
            row_cache_hits: self.caches.counters.row_hits.load(Ordering::Relaxed),
            row_cache_misses: self.caches.counters.row_misses.load(Ordering::Relaxed),
            user_bytes_written: self.user_bytes_written,
            table_bytes_written: self.table_bytes_written,
            levels: self
                .levels
                .iter()
                .map(|lvl| LevelStats {
                    tables: lvl.len(),
                    bytes: lvl.iter().map(|t| t.file_bytes).sum(),
                    entries: lvl.iter().map(|t| t.entry_count).sum(),
                })
                .collect(),
            memtable_bytes: self.mem.bytes(),
            cache_resident_bytes: self.caches.resident_bytes(),
            table_meta_resident_bytes: self
                .levels
                .iter()
                .flatten()
                .map(|t| t.meta_resident_bytes())
                .sum(),
        }
    }

    /// The compaction/flush event trace (oldest first, bounded).
    pub fn trace(&self) -> &[CompactionEvent] {
        &self.trace
    }

    /// Total bytes across all table files.
    pub fn table_bytes(&self) -> u64 {
        self.levels.iter().flatten().map(|t| t.file_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_store::testdir::TestDir;

    fn v(b: u64) -> Version {
        Version {
            block_num: b,
            tx_num: 0,
        }
    }

    fn tiny_config(dir: &std::path::Path) -> LsmConfig {
        LsmConfig::new(dir)
            .memtable_bytes(2048)
            .block_bytes(512)
            .table_target_bytes(4096)
            .l0_compact_tables(2)
            .level_base_bytes(16 << 10)
            .level_growth(4)
            .sync(false)
    }

    #[test]
    fn put_get_across_flushes() {
        let dir = TestDir::new("lsm-basic");
        let (mut lsm, meta) = Lsm::open(tiny_config(dir.path())).unwrap();
        assert!(meta.is_none());
        for i in 0..200 {
            lsm.put(format!("k{i:04}"), format!("v{i}").into_bytes(), v(i));
            if lsm.should_flush() {
                lsm.flush(b"m").unwrap();
            }
        }
        lsm.flush(b"m").unwrap();
        for i in 0..200u64 {
            let (value, version) = lsm.get(&format!("k{i:04}")).unwrap().unwrap();
            assert_eq!(value.as_deref(), Some(format!("v{i}").as_bytes()));
            assert_eq!(version, v(i));
        }
        assert!(lsm.get("absent").unwrap().is_none());
        let stats = lsm.stats();
        assert!(stats.flushes > 1);
        assert!(
            stats.levels.len() > 1,
            "compaction should build deeper levels"
        );
    }

    #[test]
    fn overwrites_and_tombstones_win() {
        let dir = TestDir::new("lsm-shadow");
        let (mut lsm, _) = Lsm::open(tiny_config(dir.path())).unwrap();
        for round in 0..5u64 {
            for i in 0..50 {
                lsm.put(
                    format!("k{i:02}"),
                    vec![round as u8; 64],
                    v(round * 100 + i),
                );
            }
            lsm.flush(b"").unwrap();
        }
        lsm.delete("k07".to_string(), v(999));
        lsm.flush(b"").unwrap();
        let (value, version) = lsm.get("k00").unwrap().unwrap();
        assert_eq!(value.as_deref(), Some(&[4u8; 64][..]));
        assert_eq!(version.block_num, 400);
        // Tombstone: present with a version, but no value.
        let (value, version) = lsm.get("k07").unwrap().unwrap();
        assert_eq!(value, None);
        assert_eq!(version, v(999));
    }

    #[test]
    fn scan_merges_all_sources() {
        let dir = TestDir::new("lsm-scan");
        let (mut lsm, _) = Lsm::open(tiny_config(dir.path())).unwrap();
        for i in (0..100).step_by(2) {
            lsm.put(format!("k{i:03}"), vec![1], v(1));
        }
        lsm.flush(b"").unwrap();
        for i in (1..100).step_by(2) {
            lsm.put(format!("k{i:03}"), vec![2], v(2));
        }
        // Half in tables, half in memtable.
        let mut keys = Vec::new();
        lsm.scan("k010", Some("k020"), &mut |r| {
            keys.push(r.key);
            true
        })
        .unwrap();
        let want: Vec<String> = (10..20).map(|i| format!("k{i:03}")).collect();
        assert_eq!(keys, want);
    }

    #[test]
    fn reopen_recovers_tables_and_meta() {
        let dir = TestDir::new("lsm-reopen");
        let (mut lsm, _) = Lsm::open(tiny_config(dir.path())).unwrap();
        for i in 0..300 {
            lsm.put(format!("k{i:04}"), vec![7; 32], v(i));
            if lsm.should_flush() {
                lsm.flush(b"checkpoint-1").unwrap();
            }
        }
        lsm.flush(b"checkpoint-2").unwrap();
        drop(lsm);
        let (lsm, meta) = Lsm::open(tiny_config(dir.path())).unwrap();
        assert_eq!(meta.as_deref(), Some(&b"checkpoint-2"[..]));
        for i in 0..300u64 {
            let (_, version) = lsm.get(&format!("k{i:04}")).unwrap().unwrap();
            assert_eq!(version, v(i));
        }
        let mut count = 0;
        lsm.for_each(&mut |_| count += 1).unwrap();
        assert_eq!(count, 300);
    }

    #[test]
    fn crash_after_flush_table_leaves_orphan_cleaned_at_reopen() {
        let dir = TestDir::new("lsm-crash-flush");
        let (mut lsm, _) = Lsm::open(tiny_config(dir.path())).unwrap();
        lsm.put("a".into(), vec![1], v(1));
        lsm.flush(b"good").unwrap();
        lsm.put("b".into(), vec![2], v(2));
        lsm.set_crash_point(Some(CrashPoint::AfterFlushTable));
        lsm.flush(b"never-published").unwrap();
        assert!(lsm.crashed());
        drop(lsm);
        let (lsm, meta) = Lsm::open(tiny_config(dir.path())).unwrap();
        // The manifest still points at the pre-crash state.
        assert_eq!(meta.as_deref(), Some(&b"good"[..]));
        assert!(lsm.get("a").unwrap().is_some());
        assert!(
            lsm.get("b").unwrap().is_none(),
            "unpublished flush must vanish"
        );
        // And the orphan file is gone.
        let orphans = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let live: Vec<u64> = lsm.levels.iter().flatten().map(|t| t.seq).collect();
                parse_table_file_name(e.file_name().to_str().unwrap_or(""))
                    .is_some_and(|seq| !live.contains(&seq))
            })
            .count();
        assert_eq!(orphans, 0);
    }

    #[test]
    fn crash_mid_compaction_preserves_published_state() {
        let dir = TestDir::new("lsm-crash-compact");
        let config = tiny_config(dir.path()).l0_compact_tables(3);
        let (mut lsm, _) = Lsm::open(config.clone()).unwrap();
        // Two published flushes (below the L0 trigger of 3).
        for round in 0..2u64 {
            for i in 0..30 {
                lsm.put(format!("k{i:02}"), vec![round as u8; 40], v(round));
            }
            lsm.flush(b"pre").unwrap();
        }
        // Third flush trips compaction; crash after its outputs are written.
        for i in 0..30 {
            lsm.put(format!("k{i:02}"), vec![9; 40], v(9));
        }
        lsm.set_crash_point(Some(CrashPoint::AfterCompactionWrite));
        lsm.flush(b"post").unwrap();
        assert!(lsm.crashed());
        drop(lsm);
        let (lsm, meta) = Lsm::open(config).unwrap();
        // The manifest was never updated, so the state is the "pre" image
        // (the crashed flush's own L0 table is an orphan too).
        assert_eq!(meta.as_deref(), Some(&b"pre"[..]));
        let (value, version) = lsm.get("k00").unwrap().unwrap();
        assert_eq!(value.as_deref(), Some(&[1u8; 40][..]));
        assert_eq!(version, v(1));
    }

    #[test]
    fn deep_levels_stay_sorted_and_complete() {
        let dir = TestDir::new("lsm-deep");
        let config = tiny_config(dir.path()).level_base_bytes(4 << 10);
        let (mut lsm, _) = Lsm::open(config).unwrap();
        let mut expect = std::collections::BTreeMap::new();
        for i in 0..2000u64 {
            let key = format!("k{:04}", i % 500);
            lsm.put(key.clone(), i.to_le_bytes().to_vec(), v(i));
            expect.insert(key, i);
            if lsm.should_flush() {
                lsm.flush(b"").unwrap();
            }
        }
        lsm.flush(b"").unwrap();
        // Compaction reads its inputs around the block cache.
        let stats = lsm.stats();
        assert!(stats.compactions > 0);
        assert_eq!(stats.block_cache_hits + stats.block_cache_misses, 0);
        for level in lsm.levels.iter().skip(1) {
            for pair in level.windows(2) {
                assert!(pair[0].max_key < pair[1].min_key, "levels must not overlap");
            }
        }
        for (key, i) in &expect {
            let (value, _) = lsm.get(key).unwrap().unwrap();
            assert_eq!(value.as_deref(), Some(&i.to_le_bytes()[..]));
        }
        let mut scanned = 0;
        lsm.for_each(&mut |r| {
            assert!(r.value.is_some());
            scanned += 1;
        })
        .unwrap();
        assert_eq!(scanned, expect.len());
        assert!(lsm.stats().compactions > 0);
        assert!(lsm.stats().write_amplification() > 1.0);
    }
}
