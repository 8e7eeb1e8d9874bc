//! Per-transaction span reconstruction from flat phase events.
//!
//! A trace file is a bag of [`PhaseEvent`]s; the analyzer needs them regrouped
//! per transaction into a *span*: the first-seen timestamp at each pipeline
//! phase, plus the running queue/service attribution the simulator stamped on
//! each event. Segments between consecutive observed phases are the unit the
//! latency-decomposition table and critical-path attribution work on.

use std::collections::HashMap;

use crate::event::{PhaseEvent, TracePhase};

/// Number of phases in [`TracePhase::PIPELINE`].
pub const PIPELINE_LEN: usize = TracePhase::PIPELINE.len();

/// One transaction's reconstructed trajectory through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TxSpan {
    /// Transaction id as it appears on the wire (short hash prefix).
    pub tx: String,
    /// First-seen timestamp per pipeline phase, indexed by
    /// [`TracePhase::pipeline_index`]. `None` where the trace holds no event
    /// for that phase.
    pub t_s: [Option<f64>; PIPELINE_LEN],
    /// Cumulative attributed queueing seconds at each observed phase.
    pub cum_queued_s: [f64; PIPELINE_LEN],
    /// Cumulative attributed service seconds at each observed phase.
    pub cum_service_s: [f64; PIPELINE_LEN],
    /// Terminal failure recorded for this tx, if any.
    pub failure: Option<TracePhase>,
}

/// One inter-phase segment of a span: the time (and attribution delta)
/// between two consecutive *observed* pipeline phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Phase the segment starts at.
    pub from: TracePhase,
    /// Phase the segment ends at.
    pub to: TracePhase,
    /// Wall time between the two phases, seconds.
    pub dt_s: f64,
    /// Queueing seconds attributed within the segment.
    pub queued_s: f64,
    /// Service seconds attributed within the segment.
    pub service_s: f64,
}

impl TxSpan {
    fn new(tx: String) -> Self {
        TxSpan {
            tx,
            t_s: [None; PIPELINE_LEN],
            cum_queued_s: [0.0; PIPELINE_LEN],
            cum_service_s: [0.0; PIPELINE_LEN],
            failure: None,
        }
    }

    /// Creation timestamp, if observed.
    pub fn created_s(&self) -> Option<f64> {
        self.t_s[0]
    }

    /// Commit timestamp, if observed.
    pub fn committed_s(&self) -> Option<f64> {
        self.t_s[PIPELINE_LEN - 1]
    }

    /// True when the span crossed the whole pipeline and did not fail.
    pub fn is_committed(&self) -> bool {
        self.failure.is_none() && self.created_s().is_some() && self.committed_s().is_some()
    }

    /// End-to-end (created → committed) seconds, for committed spans.
    pub fn end_to_end_s(&self) -> Option<f64> {
        match (self.created_s(), self.committed_s()) {
            (Some(c), Some(k)) if self.is_committed() => Some(k - c),
            _ => None,
        }
    }

    /// The span's segments: consecutive observed phases, in pipeline order.
    ///
    /// Observed timestamps are not always monotone in pipeline order: the
    /// one case in simulator traces is `order_acked` landing *after*
    /// `ordered` for the transaction whose broadcast itself cut the batch
    /// (the ack round-trips the network while the block is already out). To
    /// keep every segment duration non-negative we take the longest
    /// time-non-decreasing subsequence of observed phases, preferring to
    /// keep later pipeline phases on ties (so the straggling ack is the one
    /// dropped, not the block-inclusion record). Segment durations then sum
    /// exactly to `committed - created` for committed spans.
    pub fn segments(&self) -> Vec<Segment> {
        // Each observed phase is carried with its timestamp, so the DP below
        // never has to unwrap an `Option` it already checked.
        let observed: Vec<(usize, f64)> = (0..PIPELINE_LEN)
            .filter_map(|i| self.t_s[i].map(|t| (i, t)))
            .collect();
        // Longest non-decreasing subsequence over ≤10 points: O(n²) DP.
        let n = observed.len();
        let mut len = vec![1usize; n];
        for i in 0..n {
            for j in 0..i {
                if observed[j].1 <= observed[i].1 {
                    len[i] = len[i].max(len[j] + 1);
                }
            }
        }
        // max_by_key keeps the last maximum, i.e. the latest pipeline phase.
        let Some(mut cur) = (0..n).max_by_key(|&i| len[i]) else {
            return Vec::new();
        };
        let mut chain = vec![observed[cur]];
        while len[cur] > 1 {
            // Prefer the latest pipeline phase that extends the chain, so on
            // equal-length choices the straggler (earlier phase, later time)
            // is dropped rather than the causal record. A DP entry with
            // len > 1 always has a predecessor; stop cleanly regardless.
            let Some(prev) = (0..cur)
                .rev()
                .find(|&j| len[j] == len[cur] - 1 && observed[j].1 <= observed[cur].1)
            else {
                break;
            };
            chain.push(observed[prev]);
            cur = prev;
        }
        chain.reverse();
        chain
            .windows(2)
            .map(|w| {
                let ((p, tp), (i, ti)) = (w[0], w[1]);
                Segment {
                    from: TracePhase::PIPELINE[p],
                    to: TracePhase::PIPELINE[i],
                    dt_s: ti - tp,
                    queued_s: (self.cum_queued_s[i] - self.cum_queued_s[p]).max(0.0),
                    service_s: (self.cum_service_s[i] - self.cum_service_s[p]).max(0.0),
                }
            })
            .collect()
    }

    /// The segment that contributed most to the span's latency (the per-tx
    /// critical path in the paper's decomposition sense). Ties break toward
    /// the earlier segment.
    pub fn dominant_segment(&self) -> Option<Segment> {
        self.segments()
            .into_iter()
            .reduce(|best, s| if s.dt_s > best.dt_s { s } else { best })
    }
}

/// Groups a flat event stream into per-transaction spans, in first-seen
/// order. Non-transaction events (tx `"-"`) are ignored; repeated events for
/// the same phase keep the earliest timestamp (and its attribution snapshot).
pub fn reconstruct(events: &[PhaseEvent]) -> Vec<TxSpan> {
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut spans: Vec<TxSpan> = Vec::new();
    for ev in events {
        if ev.tx == "-" {
            continue;
        }
        let slot = *index.entry(ev.tx.as_str()).or_insert_with(|| {
            spans.push(TxSpan::new(ev.tx.to_string()));
            spans.len() - 1
        });
        let span = &mut spans[slot];
        match ev.phase.pipeline_index() {
            Some(i) => {
                if span.t_s[i].is_none_or(|t| ev.t_s < t) {
                    span.t_s[i] = Some(ev.t_s);
                    span.cum_queued_s[i] = ev.cum_queued_s;
                    span.cum_service_s[i] = ev.cum_service_s;
                }
            }
            None => span.failure = Some(ev.phase),
        }
    }
    spans
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

    #[test]
    fn reconstructs_one_committed_span() {
        let events = vec![
            ev("a", TracePhase::Created, 1.0, 0.00, 0.01),
            ev("a", TracePhase::Endorsed, 1.2, 0.05, 0.10),
            ev("a", TracePhase::Committed, 2.0, 0.40, 0.30),
        ];
        let spans = reconstruct(&events);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert!(s.is_committed());
        assert!((s.end_to_end_s().unwrap() - 1.0).abs() < 1e-12);
        let segs = s.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(
            (segs[0].from, segs[0].to),
            (TracePhase::Created, TracePhase::Endorsed)
        );
        assert!((segs[0].dt_s - 0.2).abs() < 1e-12);
        assert!((segs[0].queued_s - 0.05).abs() < 1e-12);
        assert!((segs[0].service_s - 0.09).abs() < 1e-12);
        // Segment durations tile the end-to-end latency exactly.
        let total: f64 = segs.iter().map(|s| s.dt_s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Dominant segment is the longer one.
        let d = s.dominant_segment().unwrap();
        assert_eq!(
            (d.from, d.to),
            (TracePhase::Endorsed, TracePhase::Committed)
        );
    }

    #[test]
    fn out_of_order_ack_is_skipped_not_negative() {
        // The batch-cutting tx sees ordered at 1.4 but its ack arrives at 1.5.
        let events = vec![
            ev("a", TracePhase::Created, 1.0, 0.0, 0.0),
            ev("a", TracePhase::Ordered, 1.4, 0.0, 0.0),
            ev("a", TracePhase::OrderAcked, 1.5, 0.0, 0.0),
            ev("a", TracePhase::Committed, 2.0, 0.0, 0.0),
        ];
        let spans = reconstruct(&events);
        let segs = spans[0].segments();
        assert!(segs.iter().all(|s| s.dt_s >= 0.0));
        // order_acked (pipeline-before ordered, observed after) is dropped.
        assert!(segs
            .iter()
            .all(|s| s.from != TracePhase::OrderAcked && s.to != TracePhase::OrderAcked));
        let total: f64 = segs.iter().map(|s| s.dt_s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failures_are_not_committed() {
        let events = vec![
            ev("a", TracePhase::Created, 1.0, 0.0, 0.0),
            ev("a", TracePhase::OrderingTimeout, 4.0, 0.0, 0.0),
            ev("b", TracePhase::OverloadDropped, 1.1, 0.0, 0.0),
        ];
        let spans = reconstruct(&events);
        assert_eq!(spans.len(), 2);
        assert!(!spans[0].is_committed());
        assert_eq!(spans[0].failure, Some(TracePhase::OrderingTimeout));
        assert_eq!(spans[0].end_to_end_s(), None);
        assert_eq!(spans[1].failure, Some(TracePhase::OverloadDropped));
    }

    #[test]
    fn duplicate_phase_events_keep_earliest() {
        let events = vec![
            ev("a", TracePhase::Created, 1.0, 0.0, 0.0),
            ev("a", TracePhase::Ordered, 1.6, 0.2, 0.2),
            ev("a", TracePhase::Ordered, 1.4, 0.1, 0.1), // replay, earlier
        ];
        let spans = reconstruct(&events);
        let i = TracePhase::Ordered.pipeline_index().unwrap();
        assert_eq!(spans[0].t_s[i], Some(1.4));
        assert_eq!(spans[0].cum_queued_s[i], 0.1);
    }
}
