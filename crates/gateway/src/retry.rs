//! Backoff for re-routing an ordering-service proposal: exponential,
//! with deterministic jitter.
//!
//! When a proposal reaches an orderer that is not the Raft leader (or is
//! dead), the replication cluster rotates its leader hint and re-routes
//! after a backoff. Jitter keeps re-routes from convoying, but naive
//! jitter breaks reproducibility, so here it is *derived*: a SplitMix64
//! hash of `(seed, request id, attempt)` maps to a factor in
//! `[1 - jitter, 1 + jitter)`. Two runs with the same seed produce the
//! identical retry schedule.

use crate::keydist::mix64;

/// An exponential-backoff retry policy.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts per routing round, including the first.
    pub max_attempts: u32,
    /// Backoff before the second attempt, in microseconds.
    pub base_backoff_us: u64,
    /// Cap on the exponential backoff, in microseconds.
    pub max_backoff_us: u64,
    /// Multiplicative jitter fraction in `[0, 1)`: each backoff is scaled
    /// by a deterministic factor in `[1 - jitter, 1 + jitter)`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// The backoff, in microseconds, to wait before attempt `attempt + 1`
    /// after `attempt` failed (attempts are counted from 1).
    ///
    /// Deterministic in `(self, seed, req, attempt)` only.
    pub fn backoff_us(&self, attempt: u32, seed: u64, req: u64) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        let exp = self
            .base_backoff_us
            .saturating_shl(shift)
            .min(self.max_backoff_us.max(1));
        let h = mix64(seed ^ req.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 48));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64); // [0, 1)
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * unit;
        ((exp as f64 * factor) as u64).max(1)
    }

    /// Preset for routing ordering-service proposals to the current Raft
    /// leader: a `NotLeader` rejection is resolved by an election,
    /// typically a few hundred milliseconds, so backoffs are short, with
    /// enough attempts to survive one full leader transition.
    pub const fn for_leader_routing() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_us: 5_000,
            max_backoff_us: 100_000,
            jitter: 0.25,
        }
    }
}

/// `u64::checked_shl` that saturates to `u64::MAX` instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if shift > self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::for_leader_routing()
        };
        assert_eq!(p.backoff_us(1, 0, 0), 5_000);
        assert_eq!(p.backoff_us(2, 0, 0), 10_000);
        assert_eq!(p.backoff_us(3, 0, 0), 20_000);
        assert_eq!(p.backoff_us(20, 0, 0), 100_000, "capped at max_backoff");
        assert_eq!(p.backoff_us(200, 0, 0), 100_000, "large attempts safe");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::for_leader_routing();
        for attempt in 1..8 {
            for req in [0u64, 1, 99, u64::MAX] {
                let a = p.backoff_us(attempt, 42, req);
                let b = p.backoff_us(attempt, 42, req);
                assert_eq!(a, b, "same inputs, same backoff");
                let exp = (p.base_backoff_us << (attempt - 1)).min(p.max_backoff_us) as f64;
                assert!((a as f64) >= exp * (1.0 - p.jitter) - 1.0);
                assert!((a as f64) <= exp * (1.0 + p.jitter) + 1.0);
            }
        }
        // Different seeds give different schedules (whp).
        assert_ne!(p.backoff_us(1, 1, 7), p.backoff_us(1, 2, 7));
    }

    #[test]
    fn saturating_shl_never_wraps() {
        assert_eq!(1u64.saturating_shl(63), 1 << 63);
        assert_eq!(1u64.saturating_shl(64), u64::MAX);
        assert_eq!(0u64.saturating_shl(64), 0);
        assert_eq!((u64::MAX).saturating_shl(1), u64::MAX);
    }
}
