//! The one bounded sink behind every recorded stream: phase events and
//! spans alike go into a [`Sink<T>`], if anywhere.
//!
//! The hot path is the *disabled* case — the simulator's observer tests
//! [`Sink::enabled`] before it renders anything, so runs without tracing pay
//! one predictable branch per phase transition and allocate nothing.
//!
//! An enabled sink is a **bounded ring**: when the configured capacity is
//! reached the oldest record is evicted and counted, so a long run degrades
//! to "the most recent N records plus an explicit `dropped` count" instead of
//! unbounded growth — the tail of a trace matters more than its head.
//! Dropping is a property of the *observer* only — the simulation never
//! reads a sink, so capacity can never perturb a run. `tests/tests/spans.rs`
//! holds an overflowing span ring to its capacity and checks that it counts
//! what it evicts.

use std::collections::VecDeque;

/// The most a ring preallocates: ~1M records × 88 B = 88 MiB (a record owns
/// no heap — its names are inline [`crate::Name`]s). A larger capacity grows
/// on demand.
const PREALLOC: usize = 1 << 20;

/// Disabled (free) or collecting the most recent records into a
/// bounded ring, in emission (= virtual time) order. Which records reach it
/// is the recorder's decision — the simulator head-samples tx-scoped records
/// with [`crate::tx_sampled`] and records every block-scoped span, so a
/// sampled transaction keeps its full causal chain.
#[derive(Debug, Clone)]
pub struct Sink<T> {
    /// `None` when disabled; oldest record at the front.
    ring: Option<VecDeque<T>>,
    capacity: usize,
    dropped: u64,
}

impl<T> Sink<T> {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        Sink {
            ring: None,
            capacity: 0,
            dropped: 0,
        }
    }

    /// A sink retaining at most `capacity` records: once full, the oldest
    /// record is evicted per record and counted in [`Sink::dropped`].
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "sink capacity must be positive");
        Sink {
            ring: Some(VecDeque::with_capacity(capacity.min(PREALLOC))),
            capacity,
            dropped: 0,
        }
    }

    /// Whether records should be constructed and recorded at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Records one item (no-op when disabled).
    #[inline]
    pub fn record(&mut self, item: T) {
        if let Some(ring) = self.ring.as_mut() {
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.dropped += 1;
            }
            ring.push_back(item);
        }
    }

    /// Records evicted so far because the ring was full (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, yielding its records oldest-first.
    pub fn into_vec(self) -> Vec<T> {
        self.ring.map(Vec::from).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Name, SpanEvent, SpanKind};

    fn raft_span(span_id: u64) -> SpanEvent {
        SpanEvent {
            span_id,
            parent_id: 0,
            trace: Name::from("b0.1"),
            kind: SpanKind::RaftMsg,
            actor: Name::from("osn0"),
            t0_s: 0.0,
            t1_s: 0.001,
            hop: 0,
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = Sink::disabled();
        assert!(!sink.enabled());
        sink.record(1u32);
        assert_eq!(sink.dropped(), 0);
        assert!(sink.into_vec().is_empty());
    }

    #[test]
    fn disabled_span_sink_records_nothing() {
        let mut sink = Sink::<SpanEvent>::disabled();
        assert!(!sink.enabled());
        sink.record(raft_span(1));
        assert_eq!(sink.dropped(), 0);
        assert!(sink.into_vec().is_empty());
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = Sink::bounded(16);
        assert!(sink.enabled());
        sink.record(1u32);
        sink.record(2);
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.into_vec(), [1, 2]);
    }

    #[test]
    fn bounded_event_sink_evicts_oldest_and_counts_drops() {
        let mut sink = Sink::bounded(3);
        for i in 0..10u32 {
            sink.record(i);
        }
        assert_eq!(sink.dropped(), 7);
        assert_eq!(sink.into_vec(), [7, 8, 9], "tail survives, head evicted");
    }

    #[test]
    fn span_sink_ring_evicts_oldest() {
        let mut sink = Sink::bounded(2);
        for id in 1..=10 {
            sink.record(raft_span(id));
        }
        assert_eq!(sink.dropped(), 8);
        let kept: Vec<u64> = sink.into_vec().iter().map(|s| s.span_id).collect();
        assert_eq!(kept, [9, 10], "the last two spans survive");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_sink_is_rejected() {
        let _ = Sink::<u32>::bounded(0);
    }
}
