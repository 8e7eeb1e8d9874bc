//! The workspace's **audited wall-clock entry point**.
//!
//! Simulated time comes from the DES kernel; nothing inside the simulated
//! world may read the host clock, and clippy's `disallowed_methods` (the
//! workspace `clippy.toml` bans `Instant::now`) enforces that mechanically.
//! The handful of legitimate wall-clock consumers — the `experiments`
//! stderr progress lines and the bench harness's calibration timing — go
//! through [`WallClock`]. The only other audited `#[expect]` sites for the
//! lint are the DES kernel's self-profiler (`crates/des/src/kernel.rs` and
//! `profiler.rs`), which needs sub-microsecond per-handler timing that an
//! elapsed-seconds stopwatch cannot provide and is write-only with respect
//! to the simulation. Auditing "who can observe real time" means reading
//! this file and those two.

use std::time::Instant;

/// A monotonic stopwatch anchored at [`WallClock::start`].
///
/// Deliberately minimal: consumers can only measure *elapsed* host time as
/// seconds, never obtain an absolute timestamp, which keeps wall-clock
/// readings out of anything that could feed back into simulation state.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Starts the stopwatch now.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the one audited wall-clock read: every crate that needs host time routes \
                  through WallClock"
    )]
    pub fn start() -> WallClock {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Seconds of host time elapsed since [`WallClock::start`].
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_and_non_negative() {
        let clock = WallClock::start();
        let a = clock.elapsed_s();
        let b = clock.elapsed_s();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn clock_is_copy_and_shares_its_anchor() {
        let clock = WallClock::start();
        let copy = clock;
        assert!(copy.elapsed_s() >= 0.0);
        assert!(clock.elapsed_s() >= 0.0);
    }
}
