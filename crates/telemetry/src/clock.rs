//! The clock guard spans are timed against.

use std::time::Instant;

/// Where "now" comes from, in microseconds.
///
/// Guard spans ([`crate::Tracer::span`]) read it when they open and close.
/// Virtual-time spans do not: discrete-event runs pass their simulated
/// timestamps explicitly to [`crate::Tracer::record_manual`] and
/// [`crate::Tracer::record_linked`], so their traces show the same
/// timeline the latency figures report.
pub trait ClockSource: Send + Sync {
    /// Current time in microseconds since the clock's epoch.
    fn now_us(&self) -> u64;
}

/// Monotonic wall clock, anchored at construction time.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockSource for WallClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_moves_forward() {
        let clock = WallClock::new();
        let a = clock.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(clock.now_us() > a);
    }
}
