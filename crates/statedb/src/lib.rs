//! `ledgerview-statedb`: a disk-backed LSM-tree versioned key/value
//! store — the substrate that lets world state outgrow RAM while keeping
//! the MVCC metadata and deterministic iteration order the ledger layer
//! depends on.
//!
//! # Architecture
//!
//! Writes land in a sorted in-memory [`memtable`]; when it crosses a
//! byte threshold the caller flushes it: the engine seals it and one
//! background job writes it into an immutable L0 [`sstable`]. L0 tables
//! may overlap; deeper levels are sorted runs of non-overlapping tables.
//! Point reads consult the memtable, the sealed memtable, a row cache,
//! then tables newest-first with bloom filters and a sparse block index
//! bounding disk touches; range scans [`scan`]-merge all sources with
//! newest-record-wins semantics. Compaction merges runs downward when L0
//! accumulates too many tables or a level exceeds its byte budget,
//! reclaiming every shadowed record. A [`manifest`] is the atomic commit
//! point: flushes and compactions first write new table files, then
//! publish them with one fsync'd rename — a crash in between leaves only
//! orphan files, deleted at the next open.
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
//! * **One flush job at a time, installed at fixed points.** `flush`
//!   hands the sealed memtable to a job on the engine's flush thread that
//!   writes the L0 table, runs the due compactions and publishes the
//!   manifest, while the caller goes on. The next `flush` first waits
//!   for that job and installs its result, so each job starts from
//!   exactly the tree, sequence numbers and cursors a synchronous flush
//!   would have seen. A result becomes visible only at the next `flush`,
//!   an explicit [`Lsm::wait`], or the drop — never because the thread
//!   happened to finish. So a given sequence of operations produces
//!   bit-identical files, manifests, traces and digests on every run —
//!   the property the differential proptests against the in-memory twin
//!   rely on. Only *when* the work happens depends on thread timing.
//! * **No crash hooks.** Every state a crash can leave is a function of
//!   two directory images — before and after one job: any subset of the
//!   job's new tables, each cut at any length, beside the old manifest
//!   (and perhaps a torn `MANIFEST.tmp`), or the new manifest beside any
//!   subset of the tables it made obsolete. The root crate's
//!   `tests/crash_states.rs` builds those images from real runs and
//!   reopens each one, so the engine carries no injected crash points.

#![forbid(unsafe_code)]

pub mod bloom;
pub mod cache;
pub mod manifest;
pub mod memtable;
pub mod scan;
pub mod sstable;

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

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
    /// Flush the memtable once it buffers this many bytes. While a flush
    /// job runs, the sealed memtable it is writing stays resident beside
    /// the active one, so memtable residency can reach two budgets.
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
    /// Current footprint of the active memtable (a sealed one waiting
    /// for its flush job is not counted).
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

const MAX_TRACE_EVENTS: usize = 4096;

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

/// The LSM engine. Reads take `&self` (safe to share across validator
/// worker threads); writes and flushes take `&mut self`.
pub struct Lsm {
    config: LsmConfig,
    mem: Memtable,
    /// The memtable the in-flight job is writing out: read after `mem`
    /// and before the tables until the job is installed.
    sealed: Option<Arc<Memtable>>,
    /// The installed tree. `levels[0]` is L0 in age order (oldest
    /// first); deeper levels are non-overlapping, sorted by min key.
    levels: Vec<Vec<Arc<Table>>>,
    cursors: Vec<Option<String>>,
    next_seq: u64,
    caches: Caches,
    gets: AtomicU64,
    probes: AtomicU64,
    bloom_negatives: AtomicU64,
    user_bytes_written: u64,
    work: Work,
    trace: Vec<CompactionEvent>,
    /// The flush job in flight, if any — never more than one.
    job: Mutex<Option<Pending>>,
    /// The engine's flush thread, started by the first flush: where jobs
    /// are handed over, and its handle.
    worker: Option<(SyncSender<Task>, JoinHandle<()>)>,
}

/// What flushes and compactions did: the engine's running totals, and
/// the amounts one job adds to them when it is installed.
#[derive(Clone, Copy, Default)]
struct Work {
    flushes: u64,
    compactions: u64,
    table_bytes_written: u64,
    compaction_bytes_read: u64,
    compaction_bytes_written: u64,
    flush_us: u64,
    compaction_us: u64,
}

impl Work {
    fn add(&mut self, other: &Work) {
        self.flushes += other.flushes;
        self.compactions += other.compactions;
        self.table_bytes_written += other.table_bytes_written;
        self.compaction_bytes_read += other.compaction_bytes_read;
        self.compaction_bytes_written += other.compaction_bytes_written;
        self.flush_us += other.flush_us;
        self.compaction_us += other.compaction_us;
    }
}

/// The flush job's slot: where its outcome will arrive until a caller
/// waits for it, then the outcome until the next install takes it.
enum Pending {
    Running(Receiver<Result<Box<Job>, StoreError>>),
    Finished(Result<Box<Job>, StoreError>),
}

/// One job handed to the flush thread: the job, the sealed records it
/// writes, the manifest `meta`, and where to send the outcome.
type Task = (
    Job,
    Arc<Memtable>,
    Vec<u8>,
    SyncSender<Result<Box<Job>, StoreError>>,
);

/// The flush thread's loop: one task at a time until the engine drops
/// its end. A panicking job becomes an error, and the thread lives on.
fn serve(tasks: Receiver<Task>) {
    for (job, records, meta, done) in tasks {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| job.run(&records, &meta)))
            .unwrap_or_else(|panic| Err(job_panicked(&*panic)))
            .map(Box::new);
        // The engine frees the records when it installs the job, on its
        // own thread, so its allocator gets that memory back.
        drop(records);
        // The engine waits for every outcome before it drops.
        let _ = done.send(outcome);
    }
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
                tables.push(Arc::new(Table::open(&config.dir, seq)?));
            }
            levels.push(tables);
        }
        let mut cursors = man.cursors.clone();
        cursors.resize(levels.len(), None);
        let caches = Caches::new(config.block_cache_bytes, config.row_cache_bytes);
        Ok((
            Lsm {
                mem: Memtable::new(),
                sealed: None,
                levels,
                cursors,
                next_seq: man.next_seq,
                caches,
                gets: AtomicU64::new(0),
                probes: AtomicU64::new(0),
                bloom_negatives: AtomicU64::new(0),
                user_bytes_written: 0,
                work: Work::default(),
                trace: Vec::new(),
                job: Mutex::new(None),
                worker: None,
                config,
            },
            meta,
        ))
    }

    // -- writes ------------------------------------------------------------

    /// Buffer a value write.
    pub fn put(&mut self, key: String, value: Vec<u8>, version: Version) {
        self.user_bytes_written += (key.len() + value.len() + 12) as u64;
        self.caches.invalidate_row(&key);
        self.mem.upsert(key, Some(value), version);
    }

    /// Buffer a tombstone.
    pub fn delete(&mut self, key: String, version: Version) {
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
        let buffered = self.mem.get(key).or_else(|| self.sealed.as_ref()?.get(key));
        if let Some(entry) = buffered {
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
        for mem in std::iter::once(&self.mem).chain(self.sealed.as_deref()) {
            sources.push(Box::new(mem.range(start, end).map(|(k, e)| {
                Ok(Record {
                    key: k.clone(),
                    value: e.value.clone(),
                    version: e.version,
                })
            })));
        }
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

    /// Seal the memtable and hand it to a background job that persists it
    /// as an L0 table (if non-empty), runs any due compactions, and
    /// publishes the result — together with the caller's opaque `meta`
    /// blob — in one atomic manifest update, then deletes the files that
    /// update made obsolete. On return the memtable is empty and the job
    /// is running; reads see the sealed records until it is installed.
    ///
    /// First waits for the previous job and installs it (see
    /// [`Lsm::wait`]), returning its error if it failed. So every job
    /// starts from exactly the tree, sequence numbers and cursors a
    /// synchronous flush would have seen, and writes the same files.
    /// Everything written before this call is durable (when `sync` is on)
    /// once its job has completed: at the next `flush`, `wait`, or drop.
    pub fn flush(&mut self, meta: &[u8]) -> Result<(), StoreError> {
        self.wait()?;
        let tasks = match &self.worker {
            Some((tasks, _)) => tasks,
            None => {
                // One thread for the engine's life: its allocator arena
                // stays its own, so job after job reuses the same memory.
                let (tasks, inbox) = mpsc::sync_channel(1);
                let thread = std::thread::Builder::new()
                    .name("lsm-flush".into())
                    .spawn(move || serve(inbox))
                    .map_err(StoreError::Io)?;
                &self.worker.insert((tasks, thread)).0
            }
        };
        let job = Job {
            config: self.config.clone(),
            levels: self.levels.clone(),
            cursors: self.cursors.clone(),
            next_seq: self.next_seq,
            work: Work::default(),
            trace: Vec::new(),
        };
        let sealed = Arc::new(std::mem::take(&mut self.mem));
        let (done, outcome) = mpsc::sync_channel(1);
        // The thread only stops when the engine drops this sender, so the
        // hand-off cannot fail; if it did, the outcome channel would
        // report the job as lost.
        let _ = tasks.send((job, Arc::clone(&sealed), meta.to_vec(), done));
        self.sealed = Some(sealed);
        *self.job.get_mut().unwrap_or_else(PoisonError::into_inner) =
            Some(Pending::Running(outcome));
        Ok(())
    }

    /// Wait for the flush job in flight, if any, and install its result:
    /// its tree replaces the installed one (input tables close here), its
    /// counts and trace events are added, reads stop consulting the sealed
    /// memtable, and the block cache is cleared if it compacted. Returns
    /// the job's error, or its panic as an error; the sealed records are
    /// then dropped unwritten, and the caller must treat the engine as
    /// failed (a durable backend replays them from its block file).
    pub fn wait(&mut self) -> Result<(), StoreError> {
        let pending = self.finished_job().take();
        let Some(Pending::Finished(outcome)) = pending else {
            return Ok(());
        };
        self.sealed = None;
        let job = *outcome?;
        if job.work.compactions > 0 {
            // Cached blocks of the replaced input tables are dead weight;
            // dropping the whole block cache is simpler than tracking which
            // (seq, block) pairs died, and the row cache stays valid
            // (logical content is unchanged by compaction).
            self.caches.clear_blocks();
        }
        self.levels = job.levels;
        self.cursors = job.cursors;
        self.next_seq = job.next_seq;
        self.work.add(&job.work);
        for event in job.trace {
            if self.trace.len() >= MAX_TRACE_EVENTS {
                self.trace.remove(0);
            }
            self.trace.push(event);
        }
        Ok(())
    }

    /// The job slot, with a running job waited for first: afterwards it
    /// holds the outcome of the job in flight, or nothing when none was
    /// started since the last install. Installs nothing.
    fn finished_job(&self) -> MutexGuard<'_, Option<Pending>> {
        let mut slot = self.job.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = match slot.take() {
            Some(Pending::Running(outcome)) => {
                Some(Pending::Finished(outcome.recv().unwrap_or_else(|_| {
                    Err(StoreError::Io(std::io::Error::other(
                        "lsm flush thread lost a job",
                    )))
                })))
            }
            other => other,
        };
        slot
    }

    // -- introspection -----------------------------------------------------

    /// Snapshot of engine statistics. Waits for the job in flight and
    /// counts its work and tree as if it were installed, but installs
    /// nothing; a failed job is left out.
    pub fn stats(&self) -> LsmStats {
        let slot = self.finished_job();
        match &*slot {
            Some(Pending::Finished(Ok(job))) => self.stats_with(Some(job.as_ref())),
            _ => self.stats_with(None),
        }
    }

    /// Statistics of the installed tree alone, without waiting for the
    /// job in flight: what telemetry mirrors after every commit.
    pub fn installed_stats(&self) -> LsmStats {
        self.stats_with(None)
    }

    fn stats_with(&self, job: Option<&Job>) -> LsmStats {
        let mut work = self.work;
        if let Some(job) = job {
            work.add(&job.work);
        }
        let levels = job.map_or(&self.levels, |job| &job.levels);
        LsmStats {
            gets: self.gets.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            flushes: work.flushes,
            compactions: work.compactions,
            bloom_negatives: self.bloom_negatives.load(Ordering::Relaxed),
            compaction_bytes_read: work.compaction_bytes_read,
            compaction_bytes_written: work.compaction_bytes_written,
            flush_us_total: work.flush_us,
            compaction_us_total: work.compaction_us,
            block_cache_hits: self.caches.counters.block_hits.load(Ordering::Relaxed),
            block_cache_misses: self.caches.counters.block_misses.load(Ordering::Relaxed),
            row_cache_hits: self.caches.counters.row_hits.load(Ordering::Relaxed),
            row_cache_misses: self.caches.counters.row_misses.load(Ordering::Relaxed),
            user_bytes_written: self.user_bytes_written,
            table_bytes_written: work.table_bytes_written,
            levels: levels
                .iter()
                .map(|lvl| LevelStats {
                    tables: lvl.len(),
                    bytes: lvl.iter().map(|t| t.file_bytes).sum(),
                    entries: lvl.iter().map(|t| t.entry_count).sum(),
                })
                .collect(),
            memtable_bytes: self.mem.bytes(),
            cache_resident_bytes: self.caches.resident_bytes(),
            table_meta_resident_bytes: levels
                .iter()
                .flatten()
                .map(|t| t.meta_resident_bytes())
                .sum(),
        }
    }

    /// The compaction/flush event trace of the installed jobs (oldest
    /// first, bounded).
    pub fn trace(&self) -> &[CompactionEvent] {
        &self.trace
    }

    /// Total bytes across all installed table files.
    pub fn table_bytes(&self) -> u64 {
        self.levels.iter().flatten().map(|t| t.file_bytes).sum()
    }
}

impl Drop for Lsm {
    /// Waits for the job in flight, so its files are complete before the
    /// directory can be reopened; its outcome, error included, is dropped.
    /// Then stops the flush thread.
    fn drop(&mut self) {
        drop(self.finished_job());
        if let Some((tasks, thread)) = self.worker.take() {
            drop(tasks);
            let _ = thread.join();
        }
    }
}

fn job_panicked(panic: &(dyn std::any::Any + Send)) -> StoreError {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    StoreError::Io(std::io::Error::other(format!(
        "lsm flush job panicked: {msg}"
    )))
}

// ---------------------------------------------------------------------------
// flush job
// ---------------------------------------------------------------------------

/// One flush job: a copy of the installed tree, which it rewrites on the
/// flush thread, and the work and events it adds. Input tables are shared
/// with the installed tree, so readers keep them open until install.
struct Job {
    config: LsmConfig,
    levels: Vec<Vec<Arc<Table>>>,
    cursors: Vec<Option<String>>,
    next_seq: u64,
    work: Work,
    trace: Vec<CompactionEvent>,
}

impl Job {
    /// Write `sealed` as an L0 table (if non-empty), run any due
    /// compactions, publish the tree with `meta`, and delete what the
    /// publish made obsolete.
    fn run(mut self, sealed: &Memtable, meta: &[u8]) -> Result<Job, StoreError> {
        let mut obsolete: Vec<PathBuf> = Vec::new();
        if !sealed.is_empty() {
            let flush_start = std::time::Instant::now();
            let seq = self.alloc_seq();
            let mut builder = TableBuilder::create(&self.config.dir, seq, self.config.block_bytes)?;
            for (key, entry) in sealed.iter() {
                builder.add(key.clone(), entry.value.as_deref(), entry.version)?;
            }
            let table = builder.finish(self.config.sync)?;
            let duration_us = flush_start.elapsed().as_micros() as u64;
            self.work.flushes += 1;
            self.work.table_bytes_written += table.file_bytes;
            self.work.flush_us += duration_us;
            self.trace.push(CompactionEvent {
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
            self.levels[0].push(Arc::new(table));
        }
        self.run_compactions(&mut obsolete)?;
        self.save_manifest(meta)?;
        for path in obsolete {
            let _ = std::fs::remove_file(path);
        }
        Ok(self)
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
                did_work = true;
            }
            for level in 1..self.levels.len() {
                if self.level_bytes(level) > self.level_budget(level) {
                    self.compact_level(level, obsolete)?;
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

    /// Record a finished merge: its event, and the totals it adds.
    fn count_compaction(&mut self, event: CompactionEvent) {
        self.work.compactions += 1;
        self.work.table_bytes_written += event.output_bytes;
        self.work.compaction_bytes_read += event.input_bytes;
        self.work.compaction_bytes_written += event.output_bytes;
        self.work.compaction_us += event.duration_us;
        self.trace.push(event);
    }

    /// Merge all L0 tables plus every overlapping L1 table into L1.
    fn compact_l0(&mut self, obsolete: &mut Vec<PathBuf>) -> Result<(), StoreError> {
        let compact_start = std::time::Instant::now();
        if self.levels.len() < 2 {
            self.levels.push(Vec::new());
            self.cursors.push(None);
        }
        let l0: Vec<Arc<Table>> = std::mem::take(&mut self.levels[0]);
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
        let (overlap, keep): (Vec<Arc<Table>>, Vec<Arc<Table>>) =
            std::mem::take(&mut self.levels[1])
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

        self.count_compaction(CompactionEvent {
            kind: "l0",
            level: 0,
            inputs,
            input_bytes,
            outputs: outputs.iter().map(|t| t.seq).collect(),
            output_bytes: outputs.iter().map(|t| t.file_bytes).sum(),
            duration_us: compact_start.elapsed().as_micros() as u64,
        });
        for t in l0.into_iter().chain(overlap) {
            obsolete.push(t.path.clone());
        }
        let mut l1 = keep;
        l1.extend(outputs.into_iter().map(Arc::new));
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
        let (overlap, keep): (Vec<Arc<Table>>, Vec<Arc<Table>>) =
            std::mem::take(&mut self.levels[level + 1])
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

        self.count_compaction(CompactionEvent {
            kind: "level",
            level: level as u32,
            inputs,
            input_bytes,
            outputs: outputs.iter().map(|t| t.seq).collect(),
            output_bytes: outputs.iter().map(|t| t.file_bytes).sum(),
            duration_us: compact_start.elapsed().as_micros() as u64,
        });
        obsolete.push(chosen.path.clone());
        for t in overlap {
            obsolete.push(t.path.clone());
        }
        let mut next = keep;
        next.extend(outputs.into_iter().map(Arc::new));
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
        Ok(outputs)
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

    type Twin = std::collections::BTreeMap<String, (Option<Vec<u8>>, Version)>;

    /// `get` on every key (present or not), a bounded `scan` and
    /// `for_each` all agree with the in-memory twin.
    fn assert_matches_twin(lsm: &Lsm, twin: &Twin, keys: &[String]) {
        for key in keys {
            assert_eq!(lsm.get(key).unwrap(), twin.get(key).cloned(), "get {key}");
        }
        let as_rows = |records: Vec<Record>| -> Vec<_> {
            records
                .into_iter()
                .map(|r| (r.key, (r.value, r.version)))
                .collect()
        };
        let mut scanned = Vec::new();
        lsm.scan("k020", Some("k070"), &mut |r| {
            scanned.push(r);
            true
        })
        .unwrap();
        let want: Vec<_> = twin
            .range("k020".to_string().."k070".to_string())
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect();
        assert_eq!(as_rows(scanned), want, "scan");
        let mut all = Vec::new();
        lsm.for_each(&mut |r| all.push(r)).unwrap();
        let want: Vec<_> = twin.iter().map(|(k, e)| (k.clone(), e.clone())).collect();
        assert_eq!(as_rows(all), want, "for_each");
    }

    #[test]
    fn reads_while_a_job_runs_see_the_sealed_memtable() {
        let dir = TestDir::new("lsm-job-reads");
        let (mut lsm, _) = Lsm::open(tiny_config(dir.path())).unwrap();
        let keys: Vec<String> = (0..100).map(|i| format!("k{i:03}")).collect();
        let mut twin = Twin::new();
        // Write the key in `slot` of this round's 40; `tag` makes the
        // record distinct.
        let write = |lsm: &mut Lsm, twin: &mut Twin, slot: u64, round: u64, tag: u64| {
            let key = keys[((slot * 7 + round * 13) % 97) as usize].clone();
            let version = v(round * 100 + tag);
            if tag % 9 == 4 {
                lsm.delete(key.clone(), version);
                twin.insert(key, (None, version));
            } else {
                let value = vec![tag as u8; 8 + (tag % 5) as usize];
                lsm.put(key.clone(), value.clone(), version);
                twin.insert(key, (Some(value), version));
            }
        };
        let mut compacting_jobs = 0;
        for round in 0..12 {
            for slot in 0..40 {
                write(&mut lsm, &mut twin, slot, round, slot);
            }
            let before = lsm.stats().compactions;
            lsm.flush(b"").unwrap();
            // Waits for the job and counts it, but installs nothing: the
            // reads below still go through the sealed memtable.
            if lsm.stats().compactions > before {
                compacting_jobs += 1;
            }
            assert_matches_twin(&lsm, &twin, &keys);
            // Newer writes in the active memtable shadow the sealed ones.
            for slot in (0..40).step_by(4) {
                write(&mut lsm, &mut twin, slot, round, 50 + slot);
            }
            assert_matches_twin(&lsm, &twin, &keys);
        }
        assert!(compacting_jobs > 2, "{compacting_jobs} jobs compacted");
        lsm.wait().unwrap();
        assert_matches_twin(&lsm, &twin, &keys);
    }

    /// Every file in `dir`, sorted by name, with its bytes.
    fn directory_image(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().into_string().unwrap();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// One fixed operation sequence; `pause` lets every job finish before
    /// the next operation, so the two runs differ only in thread timing.
    /// Returns the directory image and the trace without durations.
    fn scripted_run(name: &str, pause: bool) -> (Vec<(String, Vec<u8>)>, Vec<String>) {
        let dir = TestDir::new(name);
        let config = tiny_config(dir.path()).level_base_bytes(4 << 10);
        let (mut lsm, _) = Lsm::open(config).unwrap();
        for i in 0..3000u64 {
            let key = format!("k{:04}", (i * 31) % 700);
            if i % 11 == 0 {
                lsm.delete(key, v(i));
            } else {
                lsm.put(key, i.to_le_bytes().repeat(1 + (i % 4) as usize), v(i));
            }
            if i % 5 == 0 {
                lsm.get(&format!("k{:04}", i % 700)).unwrap();
            }
            if lsm.should_flush() {
                lsm.flush(format!("at {i}").as_bytes()).unwrap();
                if pause {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        lsm.flush(b"end").unwrap();
        lsm.wait().unwrap();
        let trace = lsm
            .trace()
            .iter()
            .map(|e| {
                format!(
                    "{} {} {:?} {} {:?} {}",
                    e.kind, e.level, e.inputs, e.input_bytes, e.outputs, e.output_bytes
                )
            })
            .collect();
        drop(lsm);
        (directory_image(dir.path()), trace)
    }

    #[test]
    fn the_same_operations_leave_the_same_bytes_whatever_the_timing() {
        let (files, trace) = scripted_run("lsm-job-det-a", false);
        let (paused_files, paused_trace) = scripted_run("lsm-job-det-b", true);
        assert!(trace.iter().any(|e| e.starts_with("l0")), "{trace:?}");
        assert!(trace.iter().any(|e| e.starts_with("level")), "{trace:?}");
        assert!(files
            .iter()
            .any(|(name, _)| name == manifest::MANIFEST_FILE));
        let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
            files.iter().map(|(name, _)| name.clone()).collect()
        };
        assert_eq!(names(&files), names(&paused_files));
        assert!(files == paused_files, "file bytes differ");
        assert_eq!(trace, paused_trace);
    }

    #[test]
    fn a_failed_job_surfaces_at_the_next_flush_and_drop_survives_it() {
        let dir = TestDir::new("lsm-job-error");
        let lsm_dir = dir.path().join("lsm");
        let (mut lsm, _) = Lsm::open(tiny_config(&lsm_dir)).unwrap();
        lsm.put("a".into(), vec![1], v(1));
        lsm.flush(b"good").unwrap();
        lsm.wait().unwrap();
        std::fs::remove_dir_all(&lsm_dir).unwrap();
        std::fs::write(&lsm_dir, b"not a directory").unwrap();
        lsm.put("b".into(), vec![2], v(2));
        // The job fails on its own thread; this call only started it.
        lsm.flush(b"doomed").unwrap();
        lsm.put("c".into(), vec![3], v(3));
        assert!(matches!(lsm.flush(b"next"), Err(StoreError::Io(_))));
        // A second failing job is still in flight when the engine drops.
        lsm.flush(b"doomed too").unwrap();
        drop(lsm);
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
