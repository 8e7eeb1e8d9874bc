//! Trace analysis: per-phase latency decomposition and critical-path
//! attribution over a JSONL phase-event trace.
//!
//! This is the paper's §V methodology as a computed artifact: reconstruct
//! each transaction's span from its phase events, split it into inter-phase
//! segments, aggregate segment latency distributions (with the queue-wait vs
//! service split carried on the events), and name the segment that dominated
//! each transaction's end-to-end latency. Past the saturation knee the
//! validate-side segments (`delivered→vscc_done→committed`) dominate — the
//! paper's Finding 3 — and the decomposition shows it per millisecond.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{PhaseEvent, TracePhase};
use crate::json::escape;
use crate::span::{reconstruct, Segment, TxSpan};

/// Latency distribution of one inter-phase segment across committed spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentStats {
    /// Segment start phase.
    pub from: TracePhase,
    /// Segment end phase.
    pub to: TracePhase,
    /// Committed spans that contain this segment.
    pub observed: usize,
    /// Mean contribution per *committed transaction* (spans without the
    /// segment contribute zero), so segment means sum to the end-to-end
    /// mean across the table.
    pub mean_s: f64,
    /// Median over the spans that contain the segment.
    pub p50_s: f64,
    /// 95th percentile over observed samples.
    pub p95_s: f64,
    /// 99th percentile over observed samples.
    pub p99_s: f64,
    /// Maximum over observed samples.
    pub max_s: f64,
    /// Mean attributed queue-wait per committed transaction.
    pub mean_queued_s: f64,
    /// Mean attributed service per committed transaction.
    pub mean_service_s: f64,
    /// Transactions for which this segment was the dominant (critical-path)
    /// contributor.
    pub critical: usize,
}

impl SegmentStats {
    /// `"delivered→vscc_done"`-style display name.
    pub fn name(&self) -> String {
        format!("{}→{}", self.from.label(), self.to.label())
    }

    /// True when the segment sits in the validate phase of the pipeline
    /// (start at or after block delivery to the committing peer).
    pub fn is_validate_side(&self) -> bool {
        self.from.pipeline_index() >= TracePhase::Delivered.pipeline_index()
    }

    /// Coarse phase group in the paper's execute / order / validate split,
    /// keyed by where the segment starts.
    pub fn phase_group(&self) -> &'static str {
        phase_group_of(self.from)
    }
}

pub(crate) fn phase_group_of(from: TracePhase) -> &'static str {
    let i = from.pipeline_index().unwrap_or(usize::MAX);
    if i < TracePhase::Endorsed.pipeline_index().unwrap_or(0) {
        "execute"
    } else if i < TracePhase::Delivered.pipeline_index().unwrap_or(0) {
        "order"
    } else {
        "validate"
    }
}

/// One entry of the top-K slowest-transaction report.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowTx {
    /// Transaction id.
    pub tx: String,
    /// End-to-end latency, seconds.
    pub end_to_end_s: f64,
    /// The span's full segment waterfall.
    pub segments: Vec<Segment>,
}

/// The full analysis of one trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Spans that crossed the whole pipeline.
    pub committed: usize,
    /// Spans ending in a terminal failure phase.
    pub failed: usize,
    /// Spans still in flight when the trace ended.
    pub incomplete: usize,
    /// End-to-end latency distribution over committed spans
    /// (count/mean/p50/p95/p99/max seconds).
    pub e2e: Dist,
    /// Per-segment decomposition, in pipeline order.
    pub segments: Vec<SegmentStats>,
    /// Top-K slowest committed transactions, slowest first.
    pub slowest: Vec<SlowTx>,
}

/// A small latency distribution summary — the one percentile
/// implementation: `fabricsim::LatencyStats` in `fabricsim-core` is an alias
/// of this type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dist {
    /// Sample count.
    pub count: usize,
    /// Mean, seconds.
    pub mean_s: f64,
    /// Median, seconds.
    pub p50_s: f64,
    /// 95th percentile, seconds.
    pub p95_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
    /// Maximum, seconds.
    pub max_s: f64,
}

impl Dist {
    /// Computes the summary from raw samples (zeros when empty).
    ///
    /// Percentiles use linear interpolation between closest ranks (the
    /// "type 7" rule, numpy's default): `h = (n-1)·q`, interpolating between
    /// `samples[floor(h)]` and `samples[ceil(h)]`. Rounding `h` to the
    /// nearest rank instead is biased: it can sit a full rank off and makes
    /// e.g. p50 of an even-sized sample depend on rounding direction.
    pub fn from_samples(mut samples: Vec<f64>) -> Dist {
        if samples.is_empty() {
            return Dist::default();
        }
        samples.sort_by(f64::total_cmp);
        let count = samples.len();
        let pick = |q: f64| {
            let h = (count - 1) as f64 * q;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            samples[lo] + (h - lo as f64) * (samples[hi] - samples[lo])
        };
        Dist {
            count,
            mean_s: samples.iter().sum::<f64>() / count as f64,
            p50_s: pick(0.50),
            p95_s: pick(0.95),
            p99_s: pick(0.99),
            max_s: samples[count - 1],
        }
    }

    /// Compact JSON object. Floats use Rust's shortest-roundtrip `{}`
    /// rendering, so equal stats always produce byte-equal JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_s\":{},\"p50_s\":{},\"p95_s\":{},\"p99_s\":{},\"max_s\":{}}}",
            self.count, self.mean_s, self.p50_s, self.p95_s, self.p99_s, self.max_s
        )
    }
}

impl TraceAnalysis {
    /// Analyzes a flat event stream (order-independent; events are regrouped
    /// per transaction). `top_k` bounds the slowest-transaction report.
    pub fn from_events(events: &[PhaseEvent], top_k: usize) -> TraceAnalysis {
        let spans = reconstruct(events);
        Self::from_spans(&spans, top_k)
    }

    /// Analyzes already-reconstructed spans.
    pub fn from_spans(spans: &[TxSpan], top_k: usize) -> TraceAnalysis {
        // Pair each committed span with its end-to-end latency up front, so
        // no later stage has to re-prove that the latency exists.
        let mut committed_spans: Vec<(f64, &TxSpan)> = Vec::new();
        let mut failed = 0usize;
        let mut incomplete = 0usize;
        for s in spans {
            if let Some(e2e_s) = s.end_to_end_s().filter(|_| s.is_committed()) {
                committed_spans.push((e2e_s, s));
            } else if s.failure.is_some() {
                failed += 1;
            } else {
                incomplete += 1;
            }
        }
        let committed = committed_spans.len();

        // Per-segment accumulation, keyed by (from, to) pipeline indices.
        struct Acc {
            samples: Vec<f64>,
            queued: f64,
            service: f64,
            critical: usize,
        }
        let mut acc: BTreeMap<(usize, usize), Acc> = BTreeMap::new();
        let mut e2e = Vec::with_capacity(committed);
        for (e2e_s, s) in &committed_spans {
            e2e.push(*e2e_s);
            let segs = s.segments();
            let dominant = s.dominant_segment();
            for seg in &segs {
                // reconstruct() only emits pipeline-phase segments; anything
                // else would be a new phase kind and is simply not tallied.
                let (Some(from_idx), Some(to_idx)) =
                    (seg.from.pipeline_index(), seg.to.pipeline_index())
                else {
                    continue;
                };
                let key = (from_idx, to_idx);
                let a = acc.entry(key).or_insert_with(|| Acc {
                    samples: Vec::new(),
                    queued: 0.0,
                    service: 0.0,
                    critical: 0,
                });
                a.samples.push(seg.dt_s);
                a.queued += seg.queued_s;
                a.service += seg.service_s;
                if dominant.is_some_and(|d| d.from == seg.from && d.to == seg.to) {
                    a.critical += 1;
                }
            }
        }
        let div = committed.max(1) as f64;
        let segments = acc
            .into_iter()
            .map(|(key, a)| {
                let total: f64 = a.samples.iter().sum();
                let d = Dist::from_samples(a.samples);
                SegmentStats {
                    from: TracePhase::PIPELINE[key.0],
                    to: TracePhase::PIPELINE[key.1],
                    observed: d.count,
                    // Normalized by the *committed* population, not the
                    // observed one, so Σ mean_s over the table equals the
                    // end-to-end mean.
                    mean_s: total / div,
                    p50_s: d.p50_s,
                    p95_s: d.p95_s,
                    p99_s: d.p99_s,
                    max_s: d.max_s,
                    mean_queued_s: a.queued / div,
                    mean_service_s: a.service / div,
                    critical: a.critical,
                }
            })
            .collect();

        let mut slowest: Vec<(f64, &TxSpan)> = committed_spans.clone();
        slowest.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.tx.cmp(&b.1.tx)));
        let slowest = slowest
            .into_iter()
            .take(top_k)
            .map(|(e2e_s, s)| SlowTx {
                tx: s.tx.clone(),
                end_to_end_s: e2e_s,
                segments: s.segments(),
            })
            .collect();

        TraceAnalysis {
            committed,
            failed,
            incomplete,
            e2e: Dist::from_samples(e2e),
            segments,
            slowest,
        }
    }

    /// Sum of per-segment means — equals [`TraceAnalysis::e2e`]`.mean_s` up
    /// to floating-point associativity (the invariant the round-trip tests
    /// check).
    pub fn segment_mean_sum_s(&self) -> f64 {
        self.segments.iter().map(|s| s.mean_s).sum()
    }

    /// The segment dominating the most transactions' critical paths.
    pub fn dominant_segment(&self) -> Option<&SegmentStats> {
        self.segments.iter().max_by_key(|s| s.critical)
    }

    /// Committed transactions whose critical path lies in the validate phase
    /// (dominant segment starting at or after `delivered`).
    pub fn validate_critical(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.is_validate_side())
            .map(|s| s.critical)
            .sum()
    }

    /// Critical-path counts folded into the paper's execute / order /
    /// validate phase groups, returned as `(execute, order, validate)`.
    pub fn phase_dominance(&self) -> (usize, usize, usize) {
        let mut groups = (0usize, 0usize, 0usize);
        for s in &self.segments {
            match s.phase_group() {
                "execute" => groups.0 += s.critical,
                "order" => groups.1 += s.critical,
                _ => groups.2 += s.critical,
            }
        }
        groups
    }

    /// Renders the full human-readable report: decomposition table,
    /// dominance histogram and the top-K waterfalls.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace analysis: {} committed, {} failed, {} incomplete spans",
            self.committed, self.failed, self.incomplete
        );
        let _ = writeln!(
            out,
            "end-to-end   : mean {:.4}s  p50 {:.4}s  p95 {:.4}s  p99 {:.4}s  max {:.4}s",
            self.e2e.mean_s, self.e2e.p50_s, self.e2e.p95_s, self.e2e.p99_s, self.e2e.max_s
        );
        let _ = writeln!(
            out,
            "\n{:<28} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "segment", "n", "mean_s", "p50_s", "p95_s", "p99_s", "queued_s", "svc_s", "critical"
        );
        for s in &self.segments {
            let _ = writeln!(
                out,
                "{:<28} {:>6} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9}",
                s.name(),
                s.observed,
                s.mean_s,
                s.p50_s,
                s.p95_s,
                s.p99_s,
                s.mean_queued_s,
                s.mean_service_s,
                s.critical
            );
        }
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>9.4}  (sum of segment means vs e2e mean {:.4})",
            "total",
            self.committed,
            self.segment_mean_sum_s(),
            self.e2e.mean_s
        );
        let (ex, or, va) = self.phase_dominance();
        let div = self.committed.max(1) as f64;
        let _ = writeln!(
            out,
            "\ncritical-path dominance: execute {} ({:.1}%) | order {} ({:.1}%) | validate {} ({:.1}%)",
            ex,
            100.0 * ex as f64 / div,
            or,
            100.0 * or as f64 / div,
            va,
            100.0 * va as f64 / div
        );
        if let Some(d) = self.dominant_segment() {
            let _ = writeln!(
                out,
                "dominant segment: {} (critical for {}/{} txs)",
                d.name(),
                d.critical,
                self.committed
            );
        }
        if !self.slowest.is_empty() {
            let _ = writeln!(out, "\ntop {} slowest transactions:", self.slowest.len());
            for slow in &self.slowest {
                let _ = writeln!(out, "  tx {}  e2e {:.4}s", slow.tx, slow.end_to_end_s);
                for seg in &slow.segments {
                    let width = if slow.end_to_end_s > 0.0 {
                        ((seg.dt_s / slow.end_to_end_s) * 40.0).round() as usize
                    } else {
                        0
                    };
                    let _ = writeln!(
                        out,
                        "    {:<28} {:>9.4}s {}",
                        format!("{}→{}", seg.from.label(), seg.to.label()),
                        seg.dt_s,
                        "#".repeat(width)
                    );
                }
            }
        }
        out
    }

    /// Renders the analysis as one JSON object (machine-readable twin of
    /// [`TraceAnalysis::render_table`]).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"committed\":{},\"failed\":{},\"incomplete\":{},\"e2e\":{},\
             \"segment_mean_sum_s\":{},\"segments\":[",
            self.committed,
            self.failed,
            self.incomplete,
            self.e2e.to_json(),
            self.segment_mean_sum_s(),
        );
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"from\":\"{}\",\"to\":\"{}\",\"group\":\"{}\",\"observed\":{},\
                 \"mean_s\":{},\"p50_s\":{},\"p95_s\":{},\"p99_s\":{},\"max_s\":{},\
                 \"mean_queued_s\":{},\"mean_service_s\":{},\"critical\":{}}}",
                s.from.label(),
                s.to.label(),
                s.phase_group(),
                s.observed,
                s.mean_s,
                s.p50_s,
                s.p95_s,
                s.p99_s,
                s.max_s,
                s.mean_queued_s,
                s.mean_service_s,
                s.critical
            );
        }
        let (ex, or, va) = self.phase_dominance();
        let _ = write!(
            out,
            "],\"dominance\":{{\"execute\":{ex},\"order\":{or},\"validate\":{va}}},\"slowest\":["
        );
        for (i, slow) in self.slowest.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tx\":\"{}\",\"end_to_end_s\":{},\"segments\":[",
                escape(&slow.tx),
                slow.end_to_end_s
            );
            for (j, seg) in slow.segments.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"from\":\"{}\",\"to\":\"{}\",\"dt_s\":{},\"queued_s\":{},\"service_s\":{}}}",
                    seg.from.label(),
                    seg.to.label(),
                    seg.dt_s,
                    seg.queued_s,
                    seg.service_s
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tx: &str, phase: TracePhase, t_s: f64, cq: f64, cs: f64) -> PhaseEvent {
        PhaseEvent {
            t_s,
            tx: tx.into(),
            phase,
            station: "st".into(),
            queue_depth: 0,
            cum_queued_s: cq,
            cum_service_s: cs,
        }
    }

    /// Three txs whose validate segment (delivered→committed) dominates, one
    /// failure, one in-flight.
    fn sample_events() -> Vec<PhaseEvent> {
        let mut events = Vec::new();
        for (i, tx) in ["t0", "t1", "t2"].iter().enumerate() {
            let base = i as f64;
            events.push(ev(tx, TracePhase::Created, base, 0.0, 0.0));
            events.push(ev(tx, TracePhase::Endorsed, base + 0.1, 0.01, 0.05));
            events.push(ev(tx, TracePhase::Delivered, base + 0.3, 0.05, 0.10));
            events.push(ev(tx, TracePhase::Committed, base + 1.0, 0.60, 0.20));
        }
        events.push(ev("f0", TracePhase::Created, 0.5, 0.0, 0.0));
        events.push(ev("f0", TracePhase::OrderingTimeout, 3.5, 0.0, 0.0));
        events.push(ev("x0", TracePhase::Created, 0.6, 0.0, 0.0));
        events.push(ev("x0", TracePhase::Endorsed, 0.7, 0.0, 0.0));
        events
    }

    #[test]
    fn decomposition_table_sums_to_e2e_mean() {
        let a = TraceAnalysis::from_events(&sample_events(), 2);
        assert_eq!((a.committed, a.failed, a.incomplete), (3, 1, 1));
        assert!((a.e2e.mean_s - 1.0).abs() < 1e-12);
        assert!((a.segment_mean_sum_s() - a.e2e.mean_s).abs() < 1e-9);
        // delivered→committed is every tx's dominant segment (0.7 of 1.0 s).
        let d = a.dominant_segment().expect("segments exist");
        assert_eq!(
            (d.from, d.to),
            (TracePhase::Delivered, TracePhase::Committed)
        );
        assert_eq!(d.critical, 3);
        assert_eq!(a.validate_critical(), 3);
        assert_eq!(a.phase_dominance(), (0, 0, 3));
        // Queue/service split from the cumulative deltas: 0.55 queued,
        // 0.10 service inside the dominant segment.
        assert!((d.mean_queued_s - 0.55).abs() < 1e-9);
        assert!((d.mean_service_s - 0.10).abs() < 1e-9);
    }

    #[test]
    fn slowest_report_is_sorted_and_bounded() {
        let a = TraceAnalysis::from_events(&sample_events(), 2);
        assert_eq!(a.slowest.len(), 2);
        assert!(a.slowest[0].end_to_end_s >= a.slowest[1].end_to_end_s);
        // Equal latencies here, so order falls back to tx id.
        assert!(a.slowest[0].tx < a.slowest[1].tx);
        let total: f64 = a.slowest[0].segments.iter().map(|s| s.dt_s).sum();
        assert!((total - a.slowest[0].end_to_end_s).abs() < 1e-12);
    }

    #[test]
    fn renderings_contain_the_findings() {
        let a = TraceAnalysis::from_events(&sample_events(), 1);
        let table = a.render_table();
        assert!(
            table.contains("3 committed, 1 failed, 1 incomplete"),
            "{table}"
        );
        assert!(table.contains("delivered→committed"), "{table}");
        assert!(table.contains("critical-path dominance"), "{table}");
        let json = a.to_json();
        assert!(json.contains("\"committed\":3"), "{json}");
        assert!(json.contains("\"dominance\":{\"execute\":0,\"order\":0,\"validate\":3}"));
        assert!(json.contains("\"from\":\"delivered\",\"to\":\"committed\""));
    }

    #[test]
    fn empty_trace_analyzes_to_zeros() {
        let a = TraceAnalysis::from_events(&[], 5);
        assert_eq!((a.committed, a.failed, a.incomplete), (0, 0, 0));
        assert_eq!(a.e2e, Dist::default());
        assert!(a.segments.is_empty());
        assert!(a.slowest.is_empty());
        assert!(a.render_table().contains("0 committed"));
        assert!(a.to_json().starts_with("{\"committed\":0"));
    }

    #[test]
    fn dist_matches_type7_interpolation() {
        let d = Dist::from_samples((1..=100).map(|i| i as f64).collect());
        assert!((d.p50_s - 50.5).abs() < 1e-9);
        assert!((d.p95_s - 95.05).abs() < 1e-9);
        assert!((d.p99_s - 99.01).abs() < 1e-9);
        assert_eq!(d.max_s, 100.0);
    }
}
