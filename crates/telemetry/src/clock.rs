//! The clock guard spans are timed against.

use std::time::Instant;

/// Monotonic wall clock, anchored at construction time.
///
/// Guard spans ([`crate::Tracer::span`]) read it when they open and close.
/// Virtual-time spans do not: discrete-event runs pass their simulated
/// timestamps explicitly to [`crate::Tracer::record_manual`] and
/// [`crate::Tracer::record_linked`], so their traces show the same
/// timeline the latency figures report.
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

    /// Microseconds since the clock's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
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
