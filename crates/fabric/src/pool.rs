//! A worker pool for fan-out/fan-in over block transactions.
//!
//! The pool is a lane count and a busy-time clock; it owns no threads.
//! [`WorkerPool::map_chunks`] splits `0..n` into **contiguous index chunks**
//! (`ceil(n / workers)` wide), runs one borrowed closure per chunk under
//! [`std::thread::scope`] and concatenates the results in chunk order, so
//! output is a deterministic function of the input regardless of thread
//! scheduling and no thread outlives the call that spawned it. Cloning a
//! pool shares its busy-time accounting — the chain hands one pool to both
//! storage recovery and the validator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ledgerview_telemetry::{Counter, MetricsRegistry};

/// Per-lane busy-time accounting.
///
/// Every chunk is timed into its lane's counter — including the trailing
/// short chunk of an uneven split. Optionally mirrored into registry
/// counters (`lv_pool_worker_busy_us_total{worker=...}`) once a registry
/// attaches.
struct BusyClock {
    lanes_us: Vec<AtomicU64>,
    counters: OnceLock<Vec<Counter>>,
}

impl BusyClock {
    /// Time `f` and charge its duration to `lane`.
    fn timed<T>(&self, lane: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_micros() as u64;
        self.lanes_us[lane].fetch_add(us, Ordering::Relaxed);
        if let Some(counters) = self.counters.get() {
            counters[lane].add(us);
        }
        out
    }
}

/// A fixed-width fan-out helper. `workers == 1` runs everything inline on
/// the calling thread (no threads spawned). Clones share one busy clock.
#[derive(Clone)]
pub struct WorkerPool {
    busy: Arc<BusyClock>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `workers` lanes (clamped to at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            busy: Arc::new(BusyClock {
                lanes_us: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
                counters: OnceLock::new(),
            }),
        }
    }

    /// Number of parallel lanes.
    pub fn workers(&self) -> usize {
        self.busy.lanes_us.len()
    }

    /// Cumulative busy time per lane in microseconds. Inline work (serial
    /// pools, single-item inputs) is charged to lane 0; chunks are charged
    /// by chunk index.
    pub fn busy_times_us(&self) -> Vec<u64> {
        self.busy
            .lanes_us
            .iter()
            .map(|lane| lane.load(Ordering::Relaxed))
            .collect()
    }

    /// Total busy time across all lanes in microseconds.
    pub fn total_busy_us(&self) -> u64 {
        self.busy_times_us().iter().sum()
    }

    /// Mirror per-lane busy time into `lv_pool_worker_busy_us_total`
    /// counters on `registry` (first attach wins; later calls are no-ops).
    pub fn attach_registry(&self, registry: &MetricsRegistry) {
        let _ = self.busy.counters.set(
            (0..self.workers())
                .map(|lane| {
                    registry.counter(
                        "lv_pool_worker_busy_us_total",
                        &[("worker", &lane.to_string())],
                    )
                })
                .collect(),
        );
    }

    /// The contiguous chunk ranges [`WorkerPool::map_chunks`] fans out:
    /// `ceil(n / workers)` wide, so boundaries depend only on `n` and the
    /// worker count, never on timing.
    pub fn chunk_ranges(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let chunk = n.div_ceil(self.workers());
        (0..n)
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(n))
            .collect()
    }

    /// Apply `f` to contiguous index chunks covering `0..n` and concatenate
    /// the per-chunk outputs in chunk order.
    ///
    /// `f` receives a sub-range of `0..n` and must return one output vector
    /// for that range (any length); it may borrow local data. A panicking
    /// chunk panics this call once the other chunks have finished.
    pub fn map_chunks<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if self.workers() == 1 || n == 1 {
            return self.busy.timed(0, || f(0..n));
        }
        let busy = &self.busy;
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .chunk_ranges(n)
                .into_iter()
                .enumerate()
                .map(|(lane, range)| scope.spawn(move || busy.timed(lane, || f(range))))
                .collect();
            let mut out = Vec::with_capacity(n);
            for handle in handles {
                match handle.join() {
                    Ok(chunk) => out.extend(chunk),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        })
    }

    /// Apply `f` to every index in `0..n`, returning results in index order.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_chunks(n, |range| range.map(&f).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let out = pool.map_indexed(5, |i| (i * 2, std::thread::current().id()));
        assert_eq!(
            out,
            (0..5).map(|i| (i * 2, caller)).collect::<Vec<_>>(),
            "one lane never leaves the calling thread"
        );
    }

    #[test]
    fn results_ordered_for_any_worker_count() {
        let n = 97;
        let expected: Vec<usize> = (0..n).map(|i| i + 1).collect();
        for workers in [1, 2, 3, 4, 8, 16, 97, 200] {
            let pool = WorkerPool::new(workers);
            assert_eq!(
                pool.map_indexed(n, |i| i + 1),
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn chunk_boundaries_are_deterministic() {
        let pool = WorkerPool::new(4);
        // Record the ranges f is called with by returning them as items.
        let ranges = pool.map_chunks(10, |range| vec![(range.start, range.end)]);
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(pool.chunk_ranges(10), vec![0..3, 3..6, 6..9, 9..10]);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = WorkerPool::new(4);
        let out: Vec<u8> = pool.map_chunks(0, |_| vec![1]);
        assert!(out.is_empty());
        assert!(pool.chunk_ranges(0).is_empty());
    }

    #[test]
    fn zero_workers_clamped() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn busy_time_counts_every_chunk_including_the_short_tail() {
        let pool = WorkerPool::new(4);
        // 10 items over 4 workers → chunks of 3,3,3,1; the 1-wide tail
        // chunk must be charged too, not dropped at the boundary.
        pool.map_chunks(10, |range| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            vec![range.len()]
        });
        let lanes = pool.busy_times_us();
        assert_eq!(lanes.len(), 4);
        assert!(
            lanes.iter().all(|&us| us >= 1_000),
            "every lane (incl. the tail chunk's) shows busy time: {lanes:?}"
        );
        assert!(pool.total_busy_us() >= 8_000);
    }

    #[test]
    fn inline_path_charges_lane_zero_and_clones_share_the_clock() {
        let serial = WorkerPool::new(1);
        serial.clone().map_indexed(3, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(serial.busy_times_us()[0] >= 3_000);
    }

    #[test]
    fn attached_registry_mirrors_busy_counters() {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::new(2);
        pool.attach_registry(&registry);
        pool.map_indexed(3, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let mirrored: u64 = (0..2)
            .map(|lane| {
                registry
                    .counter(
                        "lv_pool_worker_busy_us_total",
                        &[("worker", &lane.to_string())],
                    )
                    .get()
            })
            .sum();
        assert_eq!(mirrored, pool.total_busy_us());
    }

    #[test]
    fn chunk_panic_propagates_with_its_payload() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(|| {
            pool.map_indexed(4, |i| {
                if i == 3 {
                    panic!("chunk failed");
                }
                i
            })
        });
        let payload = result.expect_err("a panicking chunk panics the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk failed"));
        // Nothing outlives the call: the pool is usable again at once.
        assert_eq!(pool.map_indexed(4, |i| i), vec![0, 1, 2, 3]);
    }
}
