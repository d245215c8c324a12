//! Admission control: a deterministic token bucket.
//!
//! The sharded deployment's router ([`crate::ShardRouter`]) rate-limits
//! each shard's submissions with one. Decisions are deterministic
//! functions of the submission sequence and the clock — the bucket counts
//! integer micro-tokens refilled from elapsed microseconds, so two runs
//! with identical schedules shed the same requests.

/// A deterministic token bucket counted in micro-tokens (one token =
/// 1_000_000 micro-tokens), refilled from elapsed virtual or wall
/// microseconds at `rate_per_sec` micro-tokens per microsecond.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_per_sec: f64,
    capacity_ut: u64,
    tokens_ut: u64,
    last_us: u64,
}

/// Micro-tokens per token.
const UT: u64 = 1_000_000;

impl TokenBucket {
    /// A bucket starting full, allowing `rate_per_sec` sustained and
    /// `burst` instantaneous transactions.
    pub fn new(rate_per_sec: f64, burst: u64) -> TokenBucket {
        let capacity_ut = burst.max(1).saturating_mul(UT);
        TokenBucket {
            rate_per_sec,
            capacity_ut,
            tokens_ut: capacity_ut,
            last_us: 0,
        }
    }

    /// Credit tokens for the time elapsed since the last refill.
    pub fn refill(&mut self, now_us: u64) {
        if now_us <= self.last_us {
            return;
        }
        let elapsed = now_us - self.last_us;
        self.last_us = now_us;
        let credit = (elapsed as f64 * self.rate_per_sec) as u64;
        self.tokens_ut = (self.tokens_ut.saturating_add(credit)).min(self.capacity_ut);
    }

    /// Take one token; `false` means the bucket is empty (shed).
    pub fn try_take(&mut self) -> bool {
        if self.tokens_ut >= UT {
            self.tokens_ut -= UT;
            true
        } else {
            false
        }
    }

    /// Whole tokens currently available.
    pub fn available(&self) -> u64 {
        self.tokens_ut / UT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_starts_full_and_empties() {
        let mut b = TokenBucket::new(1000.0, 3);
        assert_eq!(b.available(), 3);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take(), "burst exhausted");
    }

    #[test]
    fn refill_is_proportional_to_elapsed_time() {
        let mut b = TokenBucket::new(1000.0, 10);
        while b.try_take() {}
        // 1000 tx/s = one token per millisecond.
        b.refill(2_000);
        assert_eq!(b.available(), 2);
        assert!(b.try_take() && b.try_take());
        assert!(!b.try_take());
        // Time never credits twice.
        b.refill(2_000);
        assert!(!b.try_take());
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(1000.0, 5);
        b.refill(60_000_000);
        assert_eq!(b.available(), 5);
    }

    #[test]
    fn refill_ignores_time_going_backwards() {
        let mut b = TokenBucket::new(1000.0, 5);
        while b.try_take() {}
        b.refill(10_000);
        let after = b.available();
        b.refill(5_000);
        assert_eq!(b.available(), after);
    }
}
