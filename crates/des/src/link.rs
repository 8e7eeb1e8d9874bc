//! Network links: bandwidth serialization plus propagation delay.
//!
//! A [`Link`] models a point-to-point (or shared) pipe: messages serialize
//! onto the wire FIFO at `bandwidth` bits per second, then propagate for a
//! fixed one-way delay. Like [`crate::Station`], completion times are computed
//! in closed form at submission.

use crate::time::{SimDuration, SimTime};

/// A FIFO network pipe with finite bandwidth and fixed propagation delay.
///
/// ```
/// use fabricsim_des::{Link, SimTime, SimDuration};
/// // 1 Gbps, 0.15 ms propagation — the paper's testbed network.
/// let mut l = Link::new("lan", 1_000_000_000, SimDuration::from_micros(150));
/// let arrive = l.transfer(SimTime::ZERO, 125_000); // 1 ms on the wire
/// assert_eq!(arrive, SimTime::ZERO + SimDuration::from_micros(1_150));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    name: String,
    bits_per_sec: u64,
    propagation: SimDuration,
    wire_free_at: SimTime,
    bytes_sent: u64,
    last_submit: SimTime,
}

impl Link {
    /// Creates a link with the given bandwidth (bits/second) and one-way
    /// propagation delay.
    ///
    /// # Panics
    /// Panics if `bits_per_sec == 0`.
    pub fn new(name: impl Into<String>, bits_per_sec: u64, propagation: SimDuration) -> Self {
        assert!(bits_per_sec > 0, "link bandwidth must be positive");
        Link {
            name: name.into(),
            bits_per_sec,
            propagation,
            wire_free_at: SimTime::ZERO,
            bytes_sent: 0,
            last_submit: SimTime::ZERO,
        }
    }

    /// The link's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time to push `bytes` onto the wire at full bandwidth.
    pub fn serialization_delay(&self, bytes: u64) -> SimDuration {
        let nanos = (bytes as u128 * 8 * 1_000_000_000) / self.bits_per_sec as u128;
        SimDuration::from_nanos(nanos as u64)
    }

    /// Sends `bytes` at `now`; returns the instant the message fully arrives
    /// at the far end (wire FIFO + propagation).
    ///
    /// # Panics
    /// Panics if submissions go backwards in time.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        assert!(
            now >= self.last_submit,
            "link {}: submissions must be time-ordered",
            self.name
        );
        self.last_submit = now;
        let start = now.max(self.wire_free_at);
        let done_on_wire = start + self.serialization_delay(bytes);
        self.wire_free_at = done_on_wire;
        self.bytes_sent += bytes;
        done_on_wire + self.propagation
    }

    /// Total bytes pushed through this link.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_math() {
        let l = Link::new("l", 1_000_000_000, SimDuration::ZERO);
        // 125 bytes = 1000 bits = 1 us at 1 Gbps.
        assert_eq!(l.serialization_delay(125), SimDuration::from_micros(1));
        assert_eq!(l.serialization_delay(0), SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_messages_queue_on_the_wire() {
        let mut l = Link::new("l", 8_000, SimDuration::from_millis(1)); // 1 KB/s
        let t0 = SimTime::ZERO;
        // 1000 bytes takes 1 s on the wire.
        let a = l.transfer(t0, 1000);
        assert_eq!(a, SimTime::from_secs_f64(1.001));
        let b = l.transfer(t0, 1000);
        assert_eq!(b, SimTime::from_secs_f64(2.001));
        assert_eq!(l.bytes_sent(), 2000);
    }

    #[test]
    fn idle_wire_sends_immediately() {
        let mut l = Link::new("l", 8_000, SimDuration::from_millis(1));
        l.transfer(SimTime::ZERO, 1000);
        let late = SimTime::from_secs_f64(10.0);
        assert_eq!(l.transfer(late, 1000), SimTime::from_secs_f64(11.001));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_transfer_panics() {
        let mut l = Link::new("l", 8_000, SimDuration::ZERO);
        l.transfer(SimTime::from_nanos(10), 1);
        l.transfer(SimTime::from_nanos(5), 1);
    }
}
