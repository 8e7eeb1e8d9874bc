//! Event sinks: where phase events and spans go, if anywhere.
//!
//! The hot path is the *disabled* case — the simulator's observer tests
//! [`EventSink::enabled`] / [`SpanSink::enabled`] before it renders anything,
//! so runs without tracing pay one predictable branch per phase transition
//! and allocate nothing.
//!
//! Both in-memory sinks are **bounded rings**: when the configured capacity
//! is reached the oldest record is evicted and counted, so a long run
//! degrades to "the most recent N events plus an explicit `dropped` count"
//! instead of unbounded growth. Dropping is a property of the *observer*
//! only — the simulation never reads a sink, so capacity can never perturb
//! a run. `tests/tests/spans.rs` holds an overflowing span ring to its
//! capacity and checks that it counts what it evicts.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::event::PhaseEvent;
use crate::spangraph::SpanEvent;

/// Default phase-event ring capacity: ~1M events × 88 B = 88 MiB when full
/// (a record owns no heap — its names are inline [`crate::Name`]s); far above
/// anything the stock experiment matrix emits.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

/// Default span ring capacity (a span is 88 B too).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

/// The one bounded buffer behind both in-memory sinks: at `capacity` the
/// oldest entry is evicted and counted — the tail of a trace matters more
/// than its head when a run overflows the ring.
#[derive(Debug, Clone)]
struct Ring<T> {
    /// Oldest at the front.
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring of `capacity` entries, preallocating at most `prealloc`.
    fn new(capacity: usize, prealloc: usize) -> Self {
        assert!(capacity > 0, "sink capacity must be positive");
        Ring {
            // Bounded: push() evicts the oldest entry at `capacity` and
            // counts it in `dropped`.
            buf: VecDeque::with_capacity(capacity.min(prealloc)),
            capacity,
            dropped: 0,
        }
    }

    #[inline]
    fn push(&mut self, item: T) {
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }
}

/// The standard sink: disabled (free, the default) or collecting the most
/// recent events into a bounded ring, in emission (= virtual time) order.
#[derive(Debug, Clone, Default)]
pub struct EventSink {
    ring: Option<Ring<PhaseEvent>>,
}

impl EventSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        EventSink::default()
    }

    /// A sink collecting at most `capacity` events: once full, the oldest
    /// event is evicted per record and counted in
    /// [`EventSink::dropped_events`].
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn in_memory_bounded(capacity: usize) -> Self {
        EventSink {
            ring: Some(Ring::new(capacity, DEFAULT_EVENT_CAPACITY)),
        }
    }

    /// Whether events should be constructed and recorded at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, ev: PhaseEvent) {
        if let Some(ring) = self.ring.as_mut() {
            ring.push(ev);
        }
    }

    /// Events evicted so far because the ring was full (0 when disabled).
    pub fn dropped_events(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped)
    }

    /// The events collected so far, oldest first (empty when disabled).
    pub fn events(&self) -> impl Iterator<Item = &PhaseEvent> {
        self.ring.iter().flat_map(|r| &r.buf)
    }

    /// Consumes the sink, yielding its events oldest-first.
    pub fn into_events(self) -> Vec<PhaseEvent> {
        self.ring.map(|r| r.buf.into()).unwrap_or_default()
    }
}

/// Bounded sink for [`SpanEvent`]s: disabled (the default) or a ring that
/// evicts and counts the oldest span at `capacity`. Which spans reach it is
/// the recorder's decision — the simulator head-samples tx-scoped spans with
/// [`crate::tx_sampled`] and records every block-scoped one, so a sampled
/// transaction keeps its full causal chain.
#[derive(Debug, Clone, Default)]
pub struct SpanSink {
    ring: Option<Ring<SpanEvent>>,
}

impl SpanSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        SpanSink::default()
    }

    /// A recording sink retaining at most `capacity` spans.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn bounded(capacity: usize) -> Self {
        SpanSink {
            ring: Some(Ring::new(capacity, DEFAULT_SPAN_CAPACITY)),
        }
    }

    /// Whether spans should be constructed and recorded at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Records one span (no-op when disabled).
    pub fn record(&mut self, span: SpanEvent) {
        if let Some(ring) = self.ring.as_mut() {
            ring.push(span);
        }
    }

    /// Spans evicted from the ring because it was full (0 when disabled).
    pub fn dropped_spans(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped)
    }

    /// Spans currently retained, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.ring.iter().flat_map(|r| &r.buf)
    }

    /// Consumes the sink, yielding retained spans oldest-first.
    pub fn into_spans(self) -> Vec<SpanEvent> {
        self.ring.map(|r| r.buf.into()).unwrap_or_default()
    }
}

/// A buffered JSONL trace writer streaming events straight to disk.
///
/// Events are rendered as one JSON object per line through a
/// [`BufWriter`], so long traces never accumulate in memory the way
/// [`EventSink`]'s ring does. The buffer flushes on [`JsonlFileSink::finish`]
/// *and* on drop — a CLI that errors out (or a caller that forgets `finish`)
/// still leaves a parseable, line-complete file behind; only events buffered
/// after the last successful write to a failing device can be lost, and
/// `finish` is the path that reports such errors instead of swallowing them.
#[derive(Debug)]
pub struct JsonlFileSink {
    writer: Option<BufWriter<File>>,
    path: PathBuf,
    written: u64,
    /// The line being rendered; kept so a record costs no allocation.
    line: String,
}

impl JsonlFileSink {
    /// Creates (truncating) `path` and returns a sink writing to it.
    ///
    /// # Errors
    /// The underlying file-creation error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlFileSink> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(JsonlFileSink {
            writer: Some(BufWriter::new(file)),
            path,
            written: 0,
            line: String::new(),
        })
    }

    /// The path this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Events written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Writes a run-provenance header line (see
    /// [`crate::RunProvenance`]) — call once, before the first event/span,
    /// so downstream tooling can verify which run produced the file. Counts
    /// toward [`JsonlFileSink::written`] like any other line.
    ///
    /// # Errors
    /// The underlying write error.
    pub fn write_provenance(&mut self, prov: &crate::RunProvenance) -> std::io::Result<()> {
        self.write_line(|line| line.push_str(&prov.to_json()))
    }

    /// Writes one event as a JSONL line.
    ///
    /// # Errors
    /// The underlying write error.
    pub fn write_event(&mut self, ev: &PhaseEvent) -> std::io::Result<()> {
        self.write_line(|line| ev.write_json(line))
    }

    /// Writes one span as a JSONL line (span files use the same streaming
    /// writer as phase-event traces).
    ///
    /// # Errors
    /// The underlying write error.
    pub fn write_span(&mut self, span: &SpanEvent) -> std::io::Result<()> {
        self.write_line(|line| span.write_json(line))
    }

    fn write_line(&mut self, render: impl FnOnce(&mut String)) -> std::io::Result<()> {
        // The writer is Some until finish(); writing after that is a caller
        // bug, surfaced as an I/O error instead of a panic.
        let Some(w) = self.writer.as_mut() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "sink already finished",
            ));
        };
        self.line.clear();
        render(&mut self.line);
        self.line.push('\n');
        w.write_all(self.line.as_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Flushes and closes the file, reporting any deferred I/O error. After
    /// `finish` the drop flush is a no-op.
    ///
    /// # Errors
    /// The flush error, if buffered lines could not be written out.
    pub fn finish(mut self) -> std::io::Result<u64> {
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
        }
        Ok(self.written)
    }
}

impl Drop for JsonlFileSink {
    fn drop(&mut self) {
        // Best-effort: a sink dropped on an early-exit path must still leave
        // a parseable file. Errors are unreportable here; callers that care
        // use `finish`.
        if let Some(mut w) = self.writer.take() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TracePhase;
    use crate::spangraph::{span_id, SpanKind};

    fn ev(t_s: f64) -> PhaseEvent {
        PhaseEvent {
            t_s,
            tx: "aa".into(),
            phase: TracePhase::Created,
            station: "s".into(),
            queue_depth: 0,
            cum_queued_s: 0.0,
            cum_service_s: 0.0,
        }
    }

    fn span(trace: &str, kind: SpanKind, t0: f64) -> SpanEvent {
        SpanEvent {
            span_id: span_id(trace, kind, "peer0", 0),
            parent_id: 0,
            trace: trace.into(),
            kind,
            actor: "peer0".into(),
            t0_s: t0,
            t1_s: t0 + 0.5,
            hop: 0,
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = EventSink::disabled();
        assert!(!sink.enabled());
        sink.record(ev(1.0));
        assert_eq!(sink.events().count(), 0);
        assert_eq!(sink.dropped_events(), 0);
    }

    #[test]
    fn dropped_file_sink_leaves_a_parseable_file() {
        let path =
            std::env::temp_dir().join(format!("fabricsim-sink-drop-{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlFileSink::create(&path).expect("create");
            for i in 0..100 {
                sink.write_event(&ev(i as f64)).expect("write");
            }
            assert_eq!(sink.written(), 100);
            // No finish(): the sink is dropped here, as on an early CLI exit.
        }
        let text = std::fs::read_to_string(&path).expect("file exists");
        let events = crate::event::parse_jsonl(&text).expect("drop-flushed file parses");
        assert_eq!(events.len(), 100);
        assert_eq!(events[99].t_s, 99.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finished_file_sink_reports_count_and_survives_double_flush() {
        let path = std::env::temp_dir().join(format!(
            "fabricsim-sink-finish-{}.jsonl",
            std::process::id()
        ));
        let mut sink = JsonlFileSink::create(&path).expect("create");
        sink.write_event(&ev(1.0)).expect("write");
        sink.write_event(&ev(2.0)).expect("write");
        assert_eq!(sink.path(), path.as_path());
        assert_eq!(sink.finish().expect("finish"), 2);
        let events = crate::event::parse_jsonl(&std::fs::read_to_string(&path).expect("read"))
            .expect("parses");
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = EventSink::in_memory_bounded(16);
        assert!(sink.enabled());
        sink.record(ev(1.0));
        sink.record(ev(2.0));
        assert_eq!(sink.events().count(), 2);
        let ts: Vec<f64> = sink.events().map(|e| e.t_s).collect();
        assert!(ts[0] < ts[1]);
        assert_eq!(sink.dropped_events(), 0);
        assert_eq!(sink.into_events().len(), 2);
    }

    #[test]
    fn bounded_event_sink_evicts_oldest_and_counts_drops() {
        let mut sink = EventSink::in_memory_bounded(3);
        for i in 0..10 {
            sink.record(ev(i as f64));
        }
        assert_eq!(sink.dropped_events(), 7);
        let kept: Vec<f64> = sink.events().map(|e| e.t_s).collect();
        assert_eq!(kept, vec![7.0, 8.0, 9.0], "tail survives, head evicted");
        assert_eq!(sink.into_events().len(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_event_sink_is_rejected() {
        let _ = EventSink::in_memory_bounded(0);
    }

    #[test]
    fn disabled_span_sink_records_nothing() {
        let mut sink = SpanSink::disabled();
        assert!(!sink.enabled());
        sink.record(span("ab12", SpanKind::Endorse, 1.0));
        assert_eq!(sink.spans().count(), 0);
        assert_eq!(sink.dropped_spans(), 0);
    }

    #[test]
    fn span_sink_ring_evicts_oldest() {
        // One kind only: no second bound may stop a family from recording
        // while the ring keeps evicting its older spans.
        let mut sink = SpanSink::bounded(2);
        for i in 0..10 {
            sink.record(span(&format!("{i:04x}"), SpanKind::RaftMsg, i as f64));
        }
        assert_eq!(sink.dropped_spans(), 8);
        let kept: Vec<f64> = sink.spans().map(|s| s.t0_s).collect();
        assert_eq!(kept, vec![8.0, 9.0], "tail survives, head evicted");
        assert_eq!(sink.into_spans().len(), 2);
    }

    #[test]
    fn file_sink_provenance_header_round_trips() {
        let path =
            std::env::temp_dir().join(format!("fabricsim-sink-prov-{}.jsonl", std::process::id()));
        let prov = crate::RunProvenance {
            seed: 7,
            config_digest: "feedface00112233".into(),
        };
        let mut sink = JsonlFileSink::create(&path).expect("create");
        sink.write_provenance(&prov).expect("write provenance");
        sink.write_event(&ev(1.0)).expect("write");
        assert_eq!(sink.finish().expect("finish"), 2);
        let text = std::fs::read_to_string(&path).expect("read");
        let (p, events) = crate::event::parse_jsonl_with_provenance(&text).expect("parses");
        assert_eq!(p, Some(prov));
        assert_eq!(events.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn span_jsonl_round_trips_through_file_sink() {
        let path =
            std::env::temp_dir().join(format!("fabricsim-span-sink-{}.jsonl", std::process::id()));
        let mut sink = JsonlFileSink::create(&path).expect("create");
        let spans = vec![
            span("ab12", SpanKind::Endorse, 1.0),
            span("b0.3", SpanKind::Deliver, 2.0),
        ];
        for s in &spans {
            sink.write_span(s).expect("write");
        }
        assert_eq!(sink.finish().expect("finish"), 2);
        let text = std::fs::read_to_string(&path).expect("read");
        let back = crate::spangraph::parse_spans_jsonl(&text).expect("parses");
        assert_eq!(back, spans);
        std::fs::remove_file(&path).ok();
    }
}
