//! # fabricsim-obs — sim-time-aware observability
//!
//! The paper's entire methodology is log-based: Fabric's phases are
//! instrumented with timestamps, and the bottleneck is attributed by reading
//! per-phase queueing out of the logs (§IV). This crate makes that
//! methodology a first-class, reusable layer over the DES:
//!
//! * [`PhaseEvent`] / [`Sink`] — structured phase-transition events
//!   (`tx`, `phase`, `station`, `t_s`, `queue_depth`) with a JSONL exporter
//!   mirroring the paper's log format, recorded into one bounded ring type
//!   shared with spans. A disabled sink costs one branch per call site —
//!   simulations pay nothing unless tracing is requested.
//! * [`Dist`] — a latency distribution: count, mean and exact type-7
//!   p50/p95/p99 with the max, over the full sample set. The run summary's
//!   phases and the trace analyzer's segments are all `Dist`s.
//! * [`Samples`] — the periodic sampler's record: one typed [`SampleRow`]
//!   per window every N virtual seconds (queue depths, busy time and
//!   servers per station class, utilization, in-flight transactions,
//!   block-cut cadence). It is the one record of both sampler planes:
//!   [`metrics_csv`] writes it as the metrics table and
//!   [`HealthReport::fold`] folds it into the health plane.
//! * [`BottleneckReport`] — decomposes each committed transaction's
//!   end-to-end latency into per-station service vs. queueing time and names
//!   the dominant queue per window, turning the paper's Finding 3 ("validate
//!   is the bottleneck") into a computed artifact.
//! * [`TxSpan`] / [`TraceAnalysis`] — offline trace analysis: reconstructs
//!   per-transaction span waterfalls from a JSONL trace, aggregates
//!   inter-phase segment latency distributions (queue-wait vs service), and
//!   attributes each transaction's critical path to the segment that
//!   dominated it — the per-millisecond version of the paper's Fig. 6/7
//!   latency-decomposition discussion.
//! * [`json`] — the one wire codec: [`Json`] is the only JSON reader,
//!   [`json::escape`] the only string escaper and [`json::read_jsonl`] the
//!   only JSONL envelope behind every artifact the stack emits (traces,
//!   spans, health timelines, run summaries, analyses, kernel profiles).
//!   Integers decode exactly or are refused; nothing goes through an `f64`.
//! * [`ArtifactDiff`] — differential analysis: pairwise comparison of any
//!   two artifacts the stack emits (run summaries, trace/span-graph
//!   analyses, kernel profiles, health timelines) with metrics ranked by
//!   `|delta|`, dominance [`Shift`] detection ("the bottleneck moved out of
//!   VSCC"), per-segment deltas that telescope to the end-to-end latency
//!   delta, and [`RunProvenance`] (`seed` + `config_digest`) verification so
//!   unlike runs are never silently compared.
//! * [`chrome_trace`] / [`collapsed_stacks`] — standard-tooling exports:
//!   Chrome Trace Event Format JSON for Perfetto and folded stacks for
//!   flamegraph renderers, both derived from the same reconstructed spans
//!   the analyzer uses.
//! * [`SpanEvent`] / [`SpanGraphAnalysis`] — the *causal span
//!   graph*: every unit of distributed work (per-peer endorsement, OSN
//!   broadcast handling, Raft/Kafka message legs, block cut, per-hop gossip
//!   delivery, per-peer VSCC/commit) as a span with deterministic
//!   `span_id`/`parent_id`, recorded through a bounded, deterministically
//!   head-sampled sink, analyzed into the true *distributed* critical path
//!   (per-actor/per-hop dominance, slowest-endorser and gossip-depth
//!   histograms), and exported with Chrome-trace flow events
//!   ([`span_flow_trace`]) so Perfetto renders cross-actor arrows.
//! * [`HealthReport`] — the *health plane*, [`HealthReport::fold`]ed over
//!   the sampler's rows and the committed latencies after the run:
//!   EWMA/CUSUM regime detection (`stable` / `saturating` / `overloaded`)
//!   per station and channel, time-resolved bottleneck-shift onsets, SLO
//!   burn-rate tracking against a configurable latency objective, and a
//!   Little's-law residual as a self-consistency check — emitted as typed
//!   [`HealthEvent`]s into a bounded buffer and rendered as a
//!   provenance-stamped JSONL artifact whose per-regime dwells tile the run
//!   horizon exactly. Its records ([`HealthReport::records`]) are its one
//!   encoding: `analyze --health --json` embeds the same records as an
//!   array, and one reader decodes both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod bottleneck;
mod chrome;
mod clock;
mod critpath;
mod diff;
mod event;
mod flame;
pub mod json;
mod name;
mod online;
mod series;
mod sink;
mod span;
mod spangraph;

pub use analyze::{Dist, SegmentStats, SlowTx, TraceAnalysis};
pub use bottleneck::{BottleneckReport, StationClass, TxStationBreakdown, WindowAttribution};
pub use chrome::{chrome_trace, span_flow_trace};
pub use clock::WallClock;
pub use critpath::{CriticalSegment, SpanGraphAnalysis, TxCriticalPath};
pub use diff::{
    ArtifactDiff, ArtifactKind, DiffEntry, DiffError, DiffProvenance, DiffSection, Shift,
    TelescopeCheck,
};
pub use event::{parse_jsonl_with_provenance, PhaseEvent, RunProvenance, TracePhase};
pub use flame::collapsed_stacks;
pub use json::Json;
pub use name::Name;
pub use online::{HealthEvent, HealthEventKind, HealthReport, Regime, StationHealth};
pub use series::{metrics_csv, SampleRow, Samples};
pub use sink::Sink;
pub use span::{reconstruct, Segment, TxSpan, PIPELINE_LEN};
pub use spangraph::{
    message_span_id, parse_spans_jsonl_with_provenance, span_id, tx_sampled, SpanEvent, SpanKind,
};
