//! Event sinks: where phase events and spans go, if anywhere.
//!
//! The hot path is the *disabled* case — every instrumentation point in the
//! simulator guards on [`EventSink::enabled`] / [`SpanSink::enabled`], which
//! compiles to a single flag check, so runs without tracing pay one
//! predictable branch per phase transition and allocate nothing.
//!
//! Both in-memory sinks are **bounded rings**: when the configured capacity
//! is reached the oldest record is evicted and counted, so a long run
//! degrades to "the most recent N events plus an explicit `dropped` count"
//! instead of unbounded growth. Dropping is a property of the *observer*
//! only — the simulation never reads a sink, so capacity can never perturb
//! a run (`fabricsim-lint`'s `no-unbounded-sink` rule audits every buffer
//! construction in this file).

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::event::PhaseEvent;
use crate::spangraph::{tx_sampled, SpanEvent, SpanKind};

/// Default phase-event ring capacity (~1M events ≈ a few hundred MB worst
/// case; far above anything the stock experiment matrix emits).
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

/// Default span ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

/// Default per-family (per [`SpanKind`]) cardinality cap.
pub const DEFAULT_SPAN_KIND_CAP: u64 = 1 << 19;

/// The standard sink: disabled (free) or collecting into a bounded ring.
#[derive(Debug, Clone, Default)]
pub enum EventSink {
    /// Drop everything; `enabled()` is false.
    #[default]
    Disabled,
    /// Ring of the most recent events, in emission (= virtual time) order.
    Memory {
        /// The ring buffer (oldest at the front).
        buf: VecDeque<PhaseEvent>,
        /// Maximum events retained before eviction.
        capacity: usize,
        /// Events evicted because the ring was full.
        dropped: u64,
    },
}

impl EventSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        EventSink::Disabled
    }

    /// A sink collecting at most `capacity` events: once full, the oldest
    /// event is evicted per record and counted in
    /// [`EventSink::dropped_events`].
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn in_memory_bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "event sink capacity must be positive");
        EventSink::Memory {
            // lint:allow(no-unbounded-sink) -- bounded ring: record() evicts the oldest
            // entry at `capacity` and counts it in `dropped`.
            buf: VecDeque::with_capacity(capacity.min(DEFAULT_EVENT_CAPACITY)),
            capacity,
            dropped: 0,
        }
    }

    /// Whether call sites should construct and record events.
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, EventSink::Memory { .. })
    }

    /// Records one event (no-op when disabled). At capacity the oldest event
    /// is evicted — the tail of a trace matters more than its head when a
    /// run overflows the ring.
    #[inline]
    pub fn record(&mut self, ev: PhaseEvent) {
        if let EventSink::Memory {
            buf,
            capacity,
            dropped,
        } = self
        {
            if buf.len() >= *capacity {
                buf.pop_front();
                *dropped += 1;
            }
            buf.push_back(ev);
        }
    }

    /// Events evicted so far because the ring was full (0 when disabled).
    pub fn dropped_events(&self) -> u64 {
        match self {
            EventSink::Disabled => 0,
            EventSink::Memory { dropped, .. } => *dropped,
        }
    }

    /// The events collected so far, oldest first (empty when disabled).
    pub fn events(&self) -> impl Iterator<Item = &PhaseEvent> {
        let buf = match self {
            EventSink::Disabled => None,
            EventSink::Memory { buf, .. } => Some(buf),
        };
        buf.into_iter().flatten()
    }

    /// Consumes the sink, yielding its events oldest-first.
    pub fn into_events(self) -> Vec<PhaseEvent> {
        match self {
            // lint:allow(no-unbounded-sink) -- transient return value, not a sink buffer.
            EventSink::Disabled => Vec::new(),
            EventSink::Memory { buf, .. } => Vec::from(buf),
        }
    }
}

/// Bounded, deterministically-sampled sink for [`SpanEvent`]s.
///
/// Three defense layers keep memory bounded at ROADMAP-scale runs, each with
/// an explicit counter instead of silent loss:
///
/// 1. **Head sampling** — [`SpanSink::wants_tx`] applies the seeded
///    [`tx_sampled`] decision; call sites skip constructing tx-scoped spans
///    for unsampled transactions. Block-scoped spans are always recorded so
///    a sampled transaction keeps its full causal chain.
/// 2. **Per-family cardinality caps** — at most `kind_cap` spans per
///    [`SpanKind`]; excess is counted per family in
///    [`SpanSink::kind_dropped`].
/// 3. **A bounded ring** — at `capacity` total spans the oldest is evicted
///    and counted in [`SpanSink::evicted`].
#[derive(Debug, Clone)]
pub struct SpanSink {
    enabled: bool,
    buf: VecDeque<SpanEvent>,
    capacity: usize,
    evicted: u64,
    seed: u64,
    rate: f64,
    kind_cap: u64,
    kind_recorded: [u64; SpanKind::ALL.len()],
    kind_dropped: [u64; SpanKind::ALL.len()],
}

impl Default for SpanSink {
    fn default() -> Self {
        SpanSink::disabled()
    }
}

impl SpanSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        SpanSink {
            enabled: false,
            // lint:allow(no-unbounded-sink) -- never pushed to: the sink is disabled.
            buf: VecDeque::new(),
            capacity: 0,
            evicted: 0,
            seed: 0,
            rate: 0.0,
            kind_cap: 0,
            kind_recorded: [0; SpanKind::ALL.len()],
            kind_dropped: [0; SpanKind::ALL.len()],
        }
    }

    /// A recording sink with the given sampling seed/rate and bounds.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `rate` is not within `[0, 1]`.
    pub fn bounded(seed: u64, rate: f64, capacity: usize, kind_cap: u64) -> Self {
        assert!(capacity > 0, "span sink capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&rate),
            "span sample rate must be in [0, 1], got {rate}"
        );
        SpanSink {
            enabled: true,
            // lint:allow(no-unbounded-sink) -- bounded ring: record() evicts the oldest
            // entry at `capacity` and counts it in `evicted`.
            buf: VecDeque::with_capacity(capacity.min(DEFAULT_SPAN_CAPACITY)),
            capacity,
            evicted: 0,
            seed,
            rate,
            kind_cap,
            kind_recorded: [0; SpanKind::ALL.len()],
            kind_dropped: [0; SpanKind::ALL.len()],
        }
    }

    /// Whether call sites should construct and record spans at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The head-sampling decision for transaction `tx`: true when the sink
    /// is enabled and the seeded hash keeps this transaction. Call sites
    /// must guard tx-scoped span construction on this (block-scoped spans
    /// guard on [`SpanSink::enabled`] only).
    #[inline]
    pub fn wants_tx(&self, tx: &str) -> bool {
        self.enabled && tx_sampled(tx, self.seed, self.rate)
    }

    /// Records one span (no-op when disabled), applying the per-family cap
    /// and the ring bound.
    pub fn record(&mut self, span: SpanEvent) {
        if !self.enabled {
            return;
        }
        let k = span.kind.index();
        if self.kind_recorded[k] >= self.kind_cap {
            self.kind_dropped[k] += 1;
            return;
        }
        self.kind_recorded[k] += 1;
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(span);
    }

    /// Spans evicted from the ring because it was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Spans rejected by the per-family cap, indexed by [`SpanKind::index`].
    pub fn kind_dropped(&self) -> &[u64; SpanKind::ALL.len()] {
        &self.kind_dropped
    }

    /// Total spans lost to any bound (ring eviction + family caps).
    pub fn dropped_spans(&self) -> u64 {
        self.evicted + self.kind_dropped.iter().sum::<u64>()
    }

    /// Spans currently retained, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.buf.iter()
    }

    /// Consumes the sink, yielding retained spans oldest-first.
    pub fn into_spans(self) -> Vec<SpanEvent> {
        Vec::from(self.buf)
    }
}

/// A buffered JSONL trace writer streaming events straight to disk.
///
/// Events are rendered as one JSON object per line through a
/// [`BufWriter`], so long traces never accumulate in memory the way
/// [`EventSink::Memory`] does. The buffer flushes on [`JsonlFileSink::finish`]
/// *and* on drop — a CLI that errors out (or a caller that forgets `finish`)
/// still leaves a parseable, line-complete file behind; only events buffered
/// after the last successful write to a failing device can be lost, and
/// `finish` is the path that reports such errors instead of swallowing them.
#[derive(Debug)]
pub struct JsonlFileSink {
    writer: Option<BufWriter<File>>,
    path: PathBuf,
    written: u64,
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
        self.write_line(&prov.to_json())
    }

    /// Writes one event as a JSONL line.
    ///
    /// # Errors
    /// The underlying write error.
    pub fn write_event(&mut self, ev: &PhaseEvent) -> std::io::Result<()> {
        self.write_line(&ev.to_json())
    }

    /// Writes one span as a JSONL line (span files use the same streaming
    /// writer as phase-event traces).
    ///
    /// # Errors
    /// The underlying write error.
    pub fn write_span(&mut self, span: &SpanEvent) -> std::io::Result<()> {
        self.write_line(&span.to_json())
    }

    fn write_line(&mut self, json: &str) -> std::io::Result<()> {
        // The writer is Some until finish(); writing after that is a caller
        // bug, surfaced as an I/O error instead of a panic.
        let Some(w) = self.writer.as_mut() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "sink already finished",
            ));
        };
        w.write_all(json.as_bytes())?;
        w.write_all(b"\n")?;
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
    use crate::spangraph::span_id;

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
        assert!(!sink.wants_tx("ab12"));
        sink.record(span("ab12", SpanKind::Endorse, 1.0));
        assert_eq!(sink.spans().count(), 0);
        assert_eq!(sink.dropped_spans(), 0);
    }

    #[test]
    fn span_sink_ring_evicts_oldest() {
        let mut sink = SpanSink::bounded(42, 1.0, 4, u64::MAX);
        for i in 0..10 {
            sink.record(span(&format!("{i:04x}"), SpanKind::Endorse, i as f64));
        }
        assert_eq!(sink.evicted(), 6);
        assert_eq!(sink.dropped_spans(), 6);
        let kept: Vec<f64> = sink.spans().map(|s| s.t0_s).collect();
        assert_eq!(kept, vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(sink.into_spans().len(), 4);
    }

    #[test]
    fn span_sink_applies_per_family_caps() {
        let mut sink = SpanSink::bounded(42, 1.0, 1024, 2);
        for i in 0..5 {
            sink.record(span(&format!("{i:04x}"), SpanKind::Endorse, i as f64));
            sink.record(span(&format!("{i:04x}"), SpanKind::Vscc, i as f64));
        }
        assert_eq!(sink.spans().count(), 4, "2 per family survive");
        assert_eq!(sink.kind_dropped()[SpanKind::Endorse.index()], 3);
        assert_eq!(sink.kind_dropped()[SpanKind::Vscc.index()], 3);
        assert_eq!(sink.evicted(), 0);
        assert_eq!(sink.dropped_spans(), 6);
    }

    #[test]
    fn span_sink_sampling_gates_tx_decisions() {
        let sink = SpanSink::bounded(42, 0.5, 1024, u64::MAX);
        let txs: Vec<String> = (0..500).map(|i| format!("{i:08x}")).collect();
        let kept = txs.iter().filter(|t| sink.wants_tx(t)).count();
        assert!(kept > 150 && kept < 350, "50% sampling kept {kept} of 500");
        // Same decision the pure function makes — the sink adds no state.
        for t in &txs {
            assert_eq!(sink.wants_tx(t), tx_sampled(t, 42, 0.5));
        }
        let full = SpanSink::bounded(42, 1.0, 1024, u64::MAX);
        assert!(txs.iter().all(|t| full.wants_tx(t)));
        let none = SpanSink::bounded(42, 0.0, 1024, u64::MAX);
        assert!(txs.iter().all(|t| !none.wants_tx(t)));
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
