//! Phase-timestamped transaction traces and their aggregation.
//!
//! Every transaction carries a [`TxTrace`] with the timestamps the paper's
//! log-based methodology records: creation, endorsement, submission to the
//! orderer, ordering acknowledgment, block inclusion, delivery, commit. All
//! figures and tables are derived from these traces plus block-cut records.

use fabricsim_des::{SimDuration, SimTime};
use fabricsim_types::ValidationCode;

/// Terminal outcome of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Still in flight when the simulation ended.
    InFlight,
    /// Dropped at the client: the submission queue was saturated.
    OverloadDropped,
    /// Endorsement collection failed (peer refusal or divergent results).
    EndorsementFailed,
    /// The ordering service did not acknowledge within the client timeout
    /// (3 s in the paper); the client rejected the transaction.
    OrderingTimeout,
    /// Committed with the given validation code ([`ValidationCode::Valid`]
    /// means it updated the world state).
    Committed(ValidationCode),
}

/// Per-transaction phase timestamps.
#[derive(Debug, Clone)]
pub struct TxTrace {
    /// Arrival at the client pool (the paper's submission timestamp).
    pub created: SimTime,
    /// Proposal left the client (after prep + SDK pre-latency).
    pub proposal_sent: Option<SimTime>,
    /// Endorsement collection satisfied and envelope assembled.
    pub endorsed: Option<SimTime>,
    /// Envelope handed to the ordering service.
    pub submitted: Option<SimTime>,
    /// Ordering service acknowledged the broadcast.
    pub order_acked: Option<SimTime>,
    /// Packed into a block by the ordering service.
    pub ordered: Option<SimTime>,
    /// Block containing the transaction arrived at the observer peer.
    pub delivered: Option<SimTime>,
    /// Validation finished at the observer peer (commit timestamp).
    pub committed: Option<SimTime>,
    /// Terminal outcome.
    pub outcome: TxOutcome,
    /// Endorsement signatures carried (drives VSCC cost).
    pub signatures: usize,
}

impl TxTrace {
    /// A fresh trace at creation time.
    pub fn new(created: SimTime) -> Self {
        TxTrace {
            created,
            proposal_sent: None,
            endorsed: None,
            submitted: None,
            order_acked: None,
            ordered: None,
            delivered: None,
            committed: None,
            outcome: TxOutcome::InFlight,
            signatures: 0,
        }
    }

    /// Execute-phase latency (creation → endorsed).
    pub fn execute_latency(&self) -> Option<SimDuration> {
        self.endorsed.map(|t| t.saturating_since(self.created))
    }

    /// Order+validate latency (submission to orderer → commit), the quantity
    /// the paper plots as "Order & Validate".
    pub fn order_validate_latency(&self) -> Option<SimDuration> {
        match (self.submitted, self.committed) {
            (Some(s), Some(c)) => Some(c.saturating_since(s)),
            _ => None,
        }
    }

    /// End-to-end latency (creation → commit), the paper's Definition 4.2.
    pub fn overall_latency(&self) -> Option<SimDuration> {
        self.committed.map(|t| t.saturating_since(self.created))
    }

    /// True if the client counted this transaction as successful (committed
    /// valid and not rejected by the 3 s ordering timeout).
    pub fn is_success(&self) -> bool {
        matches!(self.outcome, TxOutcome::Committed(ValidationCode::Valid))
    }
}

/// Latency summary statistics over a set of samples: the one type-7
/// percentile implementation, shared with the offline trace analyzer.
pub type LatencyStats = fabricsim_obs::Dist;

/// Throughput and latency for one pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseReport {
    /// Transactions completing the phase per second within the window.
    pub throughput_tps: f64,
    /// Latency statistics for the phase.
    pub latency: LatencyStats,
}

/// Everything one simulation run reports.
#[derive(Debug, Clone)]
pub struct SummaryReport {
    /// Offered arrival rate, tps.
    pub offered_tps: f64,
    /// Measurement window length, seconds.
    pub window_secs: f64,
    /// Execute phase (endorsement) report.
    pub execute: PhaseReport,
    /// Order phase report (throughput = txs packed into blocks; latency =
    /// submission → block inclusion).
    pub order: PhaseReport,
    /// Validate phase report (throughput = valid commits at the observer;
    /// latency = submission → commit, the paper's "Order & Validate").
    pub validate: PhaseReport,
    /// End-to-end latency over successful transactions.
    pub overall_latency: LatencyStats,
    /// Transactions created in the window.
    pub created: usize,
    /// Valid commits in the window.
    pub committed_valid: usize,
    /// Commits flagged invalid (MVCC conflicts etc.) in the window.
    pub committed_invalid: usize,
    /// Client-side overload drops in the window.
    pub overload_dropped: usize,
    /// Ordering-timeout rejections in the window.
    pub ordering_timeouts: usize,
    /// Endorsement failures in the window.
    pub endorsement_failures: usize,
    /// Ordering-timeout rejections per second of window (failure *rate*, the
    /// quantity to watch as offered load crosses the saturation knee).
    pub ordering_timeouts_per_s: f64,
    /// Client-side overload drops per second of window.
    pub overload_dropped_per_s: f64,
    /// Mean block time (block-cut interarrival) in the window, seconds.
    pub mean_block_time_s: f64,
    /// Mean transactions per cut block in the window.
    pub mean_block_size: f64,
    /// Blocks cut in the window.
    pub blocks_cut: usize,
    /// RNG seed the run used — with [`SummaryReport::config_digest`], every
    /// report/trace/profile artifact carries what it takes to reproduce it.
    /// Zero when the summary was aggregated outside a simulation run.
    pub seed: u64,
    /// Short config fingerprint (`SimConfig::digest`). Empty when the
    /// summary was aggregated outside a simulation run.
    pub config_digest: String,
}

impl PhaseReport {
    /// Compact JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"throughput_tps\":{},\"latency\":{}}}",
            self.throughput_tps,
            self.latency.to_json()
        )
    }
}

impl SummaryReport {
    /// The paper's headline throughput: valid commits per second.
    pub fn committed_tps(&self) -> f64 {
        self.validate.throughput_tps
    }

    /// Serializes the full report as one compact JSON object.
    ///
    /// Every field participates and the rendering is deterministic
    /// (fixed key order, shortest-roundtrip floats), so two identical runs
    /// must produce *byte-identical* strings — the determinism regression
    /// test compares reports with plain string equality.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"offered_tps\":{},\"window_secs\":{},\"execute\":{},\"order\":{},\
             \"validate\":{},\"overall_latency\":{},\"created\":{},\
             \"committed_valid\":{},\"committed_invalid\":{},\"overload_dropped\":{},\
             \"ordering_timeouts\":{},\"endorsement_failures\":{},\
             \"ordering_timeouts_per_s\":{},\"overload_dropped_per_s\":{},\
             \"mean_block_time_s\":{},\"mean_block_size\":{},\"blocks_cut\":{},\
             \"seed\":{},\"config_digest\":\"{}\"}}",
            self.offered_tps,
            self.window_secs,
            self.execute.to_json(),
            self.order.to_json(),
            self.validate.to_json(),
            self.overall_latency.to_json(),
            self.created,
            self.committed_valid,
            self.committed_invalid,
            self.overload_dropped,
            self.ordering_timeouts,
            self.endorsement_failures,
            self.ordering_timeouts_per_s,
            self.overload_dropped_per_s,
            self.mean_block_time_s,
            self.mean_block_size,
            self.blocks_cut,
            self.seed,
            self.config_digest
        )
    }
}

/// Aggregates traces + block records into a [`SummaryReport`].
pub fn summarize(
    traces: &[TxTrace],
    block_cuts: &[(SimTime, usize)],
    window: (SimTime, SimTime),
    offered_tps: f64,
) -> SummaryReport {
    let (w0, w1) = window;
    let window_secs = (w1 - w0).as_secs_f64();
    let in_window = |t: SimTime| t >= w0 && t < w1;

    let mut execute_done = 0usize;
    let mut ordered_done = 0usize;
    let mut committed_valid = 0usize;
    let mut committed_invalid = 0usize;
    let mut created = 0usize;
    let mut overload = 0usize;
    let mut timeouts = 0usize;
    let mut endorse_fail = 0usize;

    let mut exec_lat = Vec::new();
    let mut order_lat = Vec::new();
    let mut ov_lat = Vec::new();
    let mut overall = Vec::new();

    for t in traces {
        if in_window(t.created) {
            created += 1;
            match t.outcome {
                TxOutcome::OverloadDropped => overload += 1,
                TxOutcome::OrderingTimeout => timeouts += 1,
                TxOutcome::EndorsementFailed => endorse_fail += 1,
                _ => {}
            }
        }
        if t.endorsed.is_some_and(in_window) {
            execute_done += 1;
            if let Some(l) = t.execute_latency() {
                exec_lat.push(l.as_secs_f64());
            }
        }
        if t.ordered.is_some_and(in_window) {
            ordered_done += 1;
            if let (Some(s), Some(o)) = (t.submitted, t.ordered) {
                order_lat.push(o.saturating_since(s).as_secs_f64());
            }
        }
        if t.committed.is_some_and(in_window) {
            match t.outcome {
                TxOutcome::Committed(ValidationCode::Valid) => {
                    committed_valid += 1;
                    if let Some(l) = t.order_validate_latency() {
                        ov_lat.push(l.as_secs_f64());
                    }
                    if let Some(l) = t.overall_latency() {
                        overall.push(l.as_secs_f64());
                    }
                }
                TxOutcome::Committed(_) => committed_invalid += 1,
                _ => {}
            }
        }
    }

    let cuts: Vec<&(SimTime, usize)> = block_cuts.iter().filter(|(t, _)| in_window(*t)).collect();
    let mean_block_time_s = if cuts.len() >= 2 {
        let first = cuts[0].0;
        let last = cuts[cuts.len() - 1].0;
        (last - first).as_secs_f64() / (cuts.len() - 1) as f64
    } else {
        0.0
    };
    let mean_block_size = if cuts.is_empty() {
        0.0
    } else {
        cuts.iter().map(|(_, n)| *n as f64).sum::<f64>() / cuts.len() as f64
    };

    SummaryReport {
        offered_tps,
        window_secs,
        execute: PhaseReport {
            throughput_tps: execute_done as f64 / window_secs,
            latency: LatencyStats::from_samples(exec_lat),
        },
        order: PhaseReport {
            throughput_tps: ordered_done as f64 / window_secs,
            latency: LatencyStats::from_samples(order_lat),
        },
        validate: PhaseReport {
            throughput_tps: committed_valid as f64 / window_secs,
            latency: LatencyStats::from_samples(ov_lat),
        },
        overall_latency: LatencyStats::from_samples(overall),
        created,
        committed_valid,
        committed_invalid,
        overload_dropped: overload,
        ordering_timeouts: timeouts,
        endorsement_failures: endorse_fail,
        ordering_timeouts_per_s: timeouts as f64 / window_secs,
        overload_dropped_per_s: overload as f64 / window_secs,
        mean_block_time_s,
        mean_block_size,
        blocks_cut: cuts.len(),
        // Provenance is the run's, not the trace set's: `Simulation` stamps
        // both fields after aggregation.
        seed: 0,
        config_digest: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn committed_trace(created_s: f64, committed_s: f64) -> TxTrace {
        let mut t = TxTrace::new(at(created_s));
        t.proposal_sent = Some(at(created_s + 0.01));
        t.endorsed = Some(at(created_s + 0.1));
        t.submitted = Some(at(created_s + 0.12));
        t.order_acked = Some(at(created_s + 0.13));
        t.ordered = Some(at(created_s + 0.5));
        t.delivered = Some(at(created_s + 0.55));
        t.committed = Some(at(committed_s));
        t.outcome = TxOutcome::Committed(ValidationCode::Valid);
        t.signatures = 1;
        t
    }

    #[test]
    fn latencies_derive_from_timestamps() {
        let t = committed_trace(1.0, 1.8);
        assert!((t.execute_latency().unwrap().as_secs_f64() - 0.1).abs() < 1e-9);
        assert!((t.order_validate_latency().unwrap().as_secs_f64() - 0.68).abs() < 1e-9);
        assert!((t.overall_latency().unwrap().as_secs_f64() - 0.8).abs() < 1e-9);
        assert!(t.is_success());
    }

    #[test]
    fn summarize_counts_within_window() {
        let traces = vec![
            committed_trace(0.5, 1.2), // created before window, commits inside
            committed_trace(2.0, 2.8), // fully inside
            committed_trace(8.5, 9.6), // commits after window end
            {
                let mut t = TxTrace::new(at(3.0));
                t.outcome = TxOutcome::OverloadDropped;
                t
            },
            {
                let mut t = TxTrace::new(at(4.0));
                t.endorsed = Some(at(4.2));
                t.submitted = Some(at(4.21));
                t.outcome = TxOutcome::OrderingTimeout;
                t
            },
        ];
        let cuts = vec![(at(2.0), 10usize), (at(4.0), 20), (at(6.0), 30)];
        let r = summarize(&traces, &cuts, (at(1.0), at(9.0)), 100.0);
        assert_eq!(r.created, 4); // all but the 0.5s one
        assert_eq!(r.committed_valid, 2);
        assert_eq!(r.overload_dropped, 1);
        assert_eq!(r.ordering_timeouts, 1);
        assert!((r.committed_tps() - 2.0 / 8.0).abs() < 1e-9);
        assert!((r.mean_block_time_s - 2.0).abs() < 1e-9);
        assert!((r.mean_block_size - 20.0).abs() < 1e-9);
        assert_eq!(r.blocks_cut, 3);
    }

    #[test]
    fn latency_stats_percentiles() {
        let s = LatencyStats::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.count, 100);
        assert!((s.mean_s - 50.5).abs() < 1e-9);
        // Type-7 interpolation: h = 99·q, x[h] interpolated.
        assert!((s.p50_s - 50.5).abs() < 1e-9, "p50 was {}", s.p50_s);
        assert!((s.p95_s - 95.05).abs() < 1e-9, "p95 was {}", s.p95_s);
        assert!((s.p99_s - 99.01).abs() < 1e-9, "p99 was {}", s.p99_s);
        assert_eq!(s.max_s, 100.0);
        assert_eq!(LatencyStats::from_samples(vec![]).count, 0);
    }

    #[test]
    fn percentiles_interpolate_on_small_samples() {
        // Two samples: p50 is their midpoint under type-7 (the round-based
        // rule returned one endpoint, direction-dependent).
        let s = LatencyStats::from_samples(vec![1.0, 3.0]);
        assert!((s.p50_s - 2.0).abs() < 1e-9);
        // One sample: every percentile is that sample.
        let s = LatencyStats::from_samples(vec![7.0]);
        assert_eq!((s.p50_s, s.p95_s, s.p99_s, s.max_s), (7.0, 7.0, 7.0, 7.0));
    }

    #[test]
    fn failure_rates_are_per_window_second() {
        let traces = vec![
            {
                let mut t = TxTrace::new(at(2.0));
                t.outcome = TxOutcome::OverloadDropped;
                t
            },
            {
                let mut t = TxTrace::new(at(3.0));
                t.outcome = TxOutcome::OrderingTimeout;
                t
            },
            {
                let mut t = TxTrace::new(at(4.0));
                t.outcome = TxOutcome::OrderingTimeout;
                t
            },
        ];
        let r = summarize(&traces, &[], (at(1.0), at(5.0)), 100.0);
        assert!((r.ordering_timeouts_per_s - 0.5).abs() < 1e-9);
        assert!((r.overload_dropped_per_s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn failed_outcomes_are_not_successes() {
        let mut t = TxTrace::new(at(1.0));
        t.outcome = TxOutcome::OrderingTimeout;
        assert!(!t.is_success());
        t.outcome = TxOutcome::Committed(ValidationCode::MvccReadConflict);
        assert!(!t.is_success());
    }
}
