//! What every workload shares: scratch storage inside the checkout,
//! process accounting from `/proc`, order statistics, and the loop that
//! repeats identical work until the measured window is full.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Fewest repetitions a run reports a median over, however slow the box.
pub const MIN_REPS: usize = 3;

static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A scratch directory next to the benchmark executable (that is, inside
/// the build directory, which `.gitignore` names), removed on drop. The
/// library's `TestDir` lives under the system temp dir; a benchmark run
/// may only write inside its checkout.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        let exe = std::env::current_exe().expect("benchmark executable path");
        let base = exe.parent().expect("executable has a directory");
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let path = base
            .join("lvbench-scratch")
            .join(format!("{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        Scratch { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            total += dir_bytes(&entry.path());
        } else {
            total += meta.len();
        }
    }
    total
}

/// Copy a directory tree of regular files.
pub fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read copy source").flatten() {
        let target = to.join(entry.file_name());
        if entry.metadata().expect("stat copy source").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy file");
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

/// User + system CPU time of this process, microseconds: every thread,
/// including worker pools that have already exited. The standard library
/// has no such clock and `/proc/self/stat` counts in 10 ms ticks, which is
/// one part in 150 of a repetition.
pub fn cpu_us() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, properly aligned `Timespec` whose layout
    // (two 64-bit fields) is the C `struct timespec` of 64-bit Linux.
    let rc = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The steady value of a timing sampled over repetitions of identical
/// work: the median of the best quarter of the samples (the lowest for a
/// cost, the highest for a rate). On a shared machine interference comes
/// in bursts that only ever slow a repetition down — CPU time inflates
/// with wall time — so the undisturbed quarter estimates the code's own
/// speed, where the median of all samples follows the neighbours' load.
pub fn steady(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "steady value of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    median(&v[..v.len().div_ceil(4)])
}

/// Nearest-rank percentile, `q` in 0..=1.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// One repetition's account of itself.
pub struct Rep {
    /// Wall seconds of set-up before the first measured operation, when
    /// the workload sets up afresh in every repetition.
    pub setup_s: Option<f64>,
    /// Wall seconds of the measured work.
    pub wall_s: f64,
    /// CPU microseconds of the measured work.
    pub cpu_us: u64,
    /// Operations attempted and committed valid.
    pub attempted: u64,
    pub valid: u64,
    /// Bytes the repetition left in storage.
    pub stored_bytes: u64,
    /// State root(s) after the repetition: identical work must agree.
    pub fingerprint: String,
}

/// Times a measured section: wall and CPU together.
pub struct Stopwatch {
    start: Instant,
    cpu0: u64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu0: cpu_us(),
            start: Instant::now(),
        }
    }

    /// `(wall seconds, CPU microseconds)` since the start.
    pub fn stop(self) -> (f64, u64) {
        let wall = secs(self.start.elapsed());
        (wall, cpu_us() - self.cpu0)
    }
}

/// Repeat `rep` until `seconds` of wall time have gone by, at least
/// `min_reps` times. Repetition `i` belongs to group `i % groups`; every
/// repetition of a group does identical work, so their fingerprints must
/// agree — a mismatch is a correctness failure.
pub fn repeat(
    seconds: f64,
    min_reps: usize,
    groups: usize,
    mut rep: impl FnMut(usize) -> Rep,
) -> Vec<Rep> {
    let begin = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps.max(groups) || secs(begin.elapsed()) < seconds {
        let i = reps.len();
        let r = rep(i);
        if i >= groups {
            assert_eq!(
                reps[i - groups].fingerprint,
                r.fingerprint,
                "repetition {i} left a different state root than repetition {}",
                i - groups
            );
        }
        reps.push(r);
    }
    reps
}

/// `pick` over each group's values (value `i` belongs to group
/// `i % groups`), averaged over the groups.
pub fn mean_over_groups(values: &[f64], groups: usize, pick: impl Fn(&[f64]) -> f64) -> f64 {
    let per_group = (0..groups).map(|g| {
        let group: Vec<f64> = values.iter().skip(g).step_by(groups).copied().collect();
        pick(&group)
    });
    per_group.sum::<f64>() / groups as f64
}

/// Smallest and largest of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&v[..4]), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        let eight = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(steady(&eight, false), 1.5);
        assert_eq!(steady(&eight, true), 7.5);
        assert_eq!(steady(&eight[..3], false), 1.0);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.90), 89.0);
    }

    #[test]
    fn proc_accounting_reads() {
        assert!(peak_rss_mib() > 0.5);
        let before = cpu_us();
        let mut x = 0u64;
        while cpu_us() == before {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_us() > before);
    }

    #[test]
    fn scratch_is_counted_copied_and_removed() {
        let a = Scratch::new("t");
        std::fs::create_dir_all(a.path().join("sub")).unwrap();
        std::fs::write(a.path().join("sub/f"), [0u8; 100]).unwrap();
        std::fs::write(a.path().join("g"), [0u8; 11]).unwrap();
        assert_eq!(dir_bytes(a.path()), 111);
        let b = Scratch::new("t");
        copy_dir(a.path(), &b.path().join("copy"));
        assert_eq!(dir_bytes(b.path()), 111);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
    }

    #[test]
    fn repeat_runs_at_least_min_reps_and_checks_roots_per_group() {
        let rep = |i: usize| Rep {
            setup_s: None,
            wall_s: 1.0,
            cpu_us: 1,
            attempted: 0,
            valid: 0,
            stored_bytes: i as u64 % 4,
            fingerprint: format!("group {}", i % 4),
        };
        assert_eq!(repeat(0.0, MIN_REPS, 1, |_| rep(0)).len(), MIN_REPS);
        let reps = repeat(0.0, 6, 4, rep);
        assert_eq!(reps.len(), 6);
        let stored: Vec<f64> = reps.iter().map(|r| r.stored_bytes as f64).collect();
        assert_eq!(stored, [0.0, 1.0, 2.0, 3.0, 0.0, 1.0]);
        assert_eq!(mean_over_groups(&stored, 4, |g| g[0]), 1.5);
        assert_eq!(mean_over_groups(&stored, 1, median), 1.0);
        assert_eq!(min_max(&stored), (0.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "different state root")]
    fn repeat_rejects_a_diverging_repetition() {
        repeat(0.0, 3, 1, |i| Rep {
            setup_s: None,
            wall_s: 1.0,
            cpu_us: 1,
            attempted: 0,
            valid: 0,
            stored_bytes: 0,
            fingerprint: format!("{}", i / 2),
        });
    }
}
