//! Structured phase-transition events and their JSONL wire format.
//!
//! One event is emitted at every pipeline phase boundary a transaction
//! crosses, mirroring the log lines the paper's instrumentation patch adds to
//! Fabric (client submit, endorsement, broadcast, ordering, delivery,
//! commit). The JSONL schema is flat so external tooling (jq, pandas) can
//! consume trace files directly.

use std::fmt::{self, Write as _};

use crate::json::{escape, escape_into, push_secs9, push_uint, read_jsonl, Json};
use crate::name::Name;

/// The pipeline phase a [`PhaseEvent`] marks the completion (or failure) of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracePhase {
    /// Transaction arrived at a client pool.
    Created,
    /// Proposal left the client (after prep + SDK pre-latency).
    ProposalSent,
    /// Endorsement set satisfied; envelope assembled and signed.
    Endorsed,
    /// Envelope handed to the ordering service.
    Submitted,
    /// Ordering service acknowledged the broadcast.
    OrderAcked,
    /// Packed into a block by the ordering service.
    Ordered,
    /// Block containing the transaction arrived at the observer peer.
    Delivered,
    /// The VSCC check (signatures + endorsement policy) finished for this
    /// transaction; MVCC/commit still pending. Under a pooled validator the
    /// stage is a barrier, so every tx in a block shares the stage-end time.
    VsccDone,
    /// Validation finished at the observer peer (commit point).
    Committed,
    /// Dropped at the client: submission queue saturated.
    OverloadDropped,
    /// Endorsement collection failed.
    EndorsementFailed,
    /// The ordering service missed the client's broadcast timeout.
    OrderingTimeout,
}

impl TracePhase {
    /// Every phase, in pipeline order.
    pub const ALL: [TracePhase; 12] = [
        TracePhase::Created,
        TracePhase::ProposalSent,
        TracePhase::Endorsed,
        TracePhase::Submitted,
        TracePhase::OrderAcked,
        TracePhase::Ordered,
        TracePhase::Delivered,
        TracePhase::VsccDone,
        TracePhase::Committed,
        TracePhase::OverloadDropped,
        TracePhase::EndorsementFailed,
        TracePhase::OrderingTimeout,
    ];

    /// The committing pipeline, in causal order: every phase a transaction
    /// can cross on its way to commit. Terminal failure phases
    /// ([`TracePhase::OverloadDropped`], [`TracePhase::EndorsementFailed`],
    /// [`TracePhase::OrderingTimeout`]) are excluded — they end a
    /// transaction, they are not stages of it.
    pub const PIPELINE: [TracePhase; 9] = [
        TracePhase::Created,
        TracePhase::ProposalSent,
        TracePhase::Endorsed,
        TracePhase::Submitted,
        TracePhase::OrderAcked,
        TracePhase::Ordered,
        TracePhase::Delivered,
        TracePhase::VsccDone,
        TracePhase::Committed,
    ];

    /// Position of this phase in [`TracePhase::PIPELINE`], or `None` for the
    /// terminal failure phases. This is the *only* ordering the trace
    /// analyzer relies on; do not infer order from [`TracePhase::ALL`], whose
    /// tail holds the failure phases in arbitrary order.
    pub fn pipeline_index(self) -> Option<usize> {
        match self {
            TracePhase::Created => Some(0),
            TracePhase::ProposalSent => Some(1),
            TracePhase::Endorsed => Some(2),
            TracePhase::Submitted => Some(3),
            TracePhase::OrderAcked => Some(4),
            TracePhase::Ordered => Some(5),
            TracePhase::Delivered => Some(6),
            TracePhase::VsccDone => Some(7),
            TracePhase::Committed => Some(8),
            TracePhase::OverloadDropped
            | TracePhase::EndorsementFailed
            | TracePhase::OrderingTimeout => None,
        }
    }

    /// Stable snake_case label used on the wire.
    pub fn label(self) -> &'static str {
        match self {
            TracePhase::Created => "created",
            TracePhase::ProposalSent => "proposal_sent",
            TracePhase::Endorsed => "endorsed",
            TracePhase::Submitted => "submitted",
            TracePhase::OrderAcked => "order_acked",
            TracePhase::Ordered => "ordered",
            TracePhase::Delivered => "delivered",
            TracePhase::VsccDone => "vscc_done",
            TracePhase::Committed => "committed",
            TracePhase::OverloadDropped => "overload_dropped",
            TracePhase::EndorsementFailed => "endorsement_failed",
            TracePhase::OrderingTimeout => "ordering_timeout",
        }
    }

    /// Inverse of [`TracePhase::label`].
    pub fn from_label(s: &str) -> Option<TracePhase> {
        TracePhase::ALL.into_iter().find(|p| p.label() == s)
    }
}

impl fmt::Display for TracePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured trace record: a transaction crossing a phase boundary at a
/// station, with the queue depth it observed there.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEvent {
    /// Virtual time of the transition, seconds.
    pub t_s: f64,
    /// Short transaction id (hash prefix), or `"-"` for non-tx events.
    pub tx: Name,
    /// The phase boundary crossed.
    pub phase: TracePhase,
    /// Diagnostic name of the station involved (e.g. `peer0.validate`).
    pub station: Name,
    /// Jobs in system (queued + in service) at the station when the event
    /// fired.
    pub queue_depth: u64,
    /// Cumulative *queueing* seconds attributed to this transaction across
    /// every station class up to and including the one this phase completes
    /// (see the station attribution in `fabricsim-core`). Differencing two
    /// consecutive pipeline events splits the segment between them into
    /// queue-wait vs service. Zero for non-tx events and pre-attribution
    /// traces (the field is optional on the wire, defaulting to 0).
    pub cum_queued_s: f64,
    /// Cumulative *service* seconds, same convention as
    /// [`PhaseEvent::cum_queued_s`].
    pub cum_service_s: f64,
}

impl PhaseEvent {
    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the event to `out` as one JSON object (no trailing newline),
    /// allocating nothing beyond `out`'s own growth.
    ///
    /// `t_s` is printed with 9 decimals (exact: virtual time is integer
    /// nanoseconds); the cumulative attribution fields use Rust's
    /// shortest-round-trip float formatting so the JSONL codec stays
    /// lossless.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t_s\":");
        push_secs9(out, self.t_s);
        out.push_str(",\"tx\":\"");
        escape_into(out, &self.tx);
        out.push_str("\",\"phase\":\"");
        out.push_str(self.phase.label());
        out.push_str("\",\"station\":\"");
        escape_into(out, &self.station);
        out.push_str("\",\"queue_depth\":");
        push_uint(out, self.queue_depth, 1);
        let _ = write!(
            out,
            ",\"cum_queued_s\":{},\"cum_service_s\":{}}}",
            self.cum_queued_s, self.cum_service_s
        );
    }

    /// Parses one JSONL line produced by [`PhaseEvent::to_json`] (tolerant of
    /// field order and extra whitespace).
    ///
    /// # Errors
    /// A description of the first syntax or schema problem found.
    pub fn from_json(line: &str) -> Result<PhaseEvent, String> {
        PhaseEvent::from_value(&Json::parse(line)?)
    }

    pub(crate) fn from_value(v: &Json) -> Result<PhaseEvent, String> {
        let phase = v.string("phase")?;
        Ok(PhaseEvent {
            t_s: v.num("t_s")?,
            tx: v.string("tx")?.into(),
            phase: TracePhase::from_label(phase)
                .ok_or_else(|| format!("unknown phase {phase:?}"))?,
            station: v.string("station")?.into(),
            queue_depth: v.uint("queue_depth")?,
            // Optional (added after the first trace schema version): absent
            // in old traces, which parse as "no attribution recorded".
            cum_queued_s: v.opt_num("cum_queued_s")?.unwrap_or(0.0),
            cum_service_s: v.opt_num("cum_service_s")?.unwrap_or(0.0),
        })
    }
}

/// Run provenance embedded as the first line of a JSONL artifact: which run
/// (seed + configuration digest) produced the trace, so downstream tooling
/// (`fabricsim diff`) can verify it is comparing like with like.
///
/// The line shares the flat object wire format of the events around it, with
/// a `"provenance":1` discriminator field so event parsers can skip it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunProvenance {
    /// RNG seed of the run that produced the artifact.
    pub seed: u64,
    /// `SimConfig::digest()` of the run's configuration.
    pub config_digest: String,
}

impl RunProvenance {
    /// Serializes the provenance as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"provenance\":1,\"seed\":{},\"config_digest\":\"{}\"}}",
            self.seed,
            escape(&self.config_digest)
        )
    }

    /// Parses one provenance line produced by [`RunProvenance::to_json`].
    ///
    /// # Errors
    /// A description of the first syntax or schema problem found.
    pub fn from_json(line: &str) -> Result<RunProvenance, String> {
        RunProvenance::from_value(&Json::parse(line)?)
    }

    pub(crate) fn from_value(v: &Json) -> Result<RunProvenance, String> {
        // Version discriminator: the writer emits the literal `1`.
        if v.uint::<u64>("provenance")? != 1 {
            return Err("provenance version must be the number 1".into());
        }
        Ok(RunProvenance {
            seed: v.uint("seed")?,
            config_digest: v.string("config_digest")?.to_string(),
        })
    }
}

/// Parses a whole JSONL document, returning the embedded [`RunProvenance`]
/// (if any) alongside the events. The provenance line is written first by
/// the CLI, but any position is accepted; a second provenance line is an
/// error (two runs' artifacts concatenated by mistake).
///
/// # Errors
/// The line number and description of the first bad line.
pub fn parse_jsonl_with_provenance(
    text: &str,
) -> Result<(Option<RunProvenance>, Vec<PhaseEvent>), String> {
    read_jsonl(text, PhaseEvent::from_value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(phase: TracePhase) -> PhaseEvent {
        PhaseEvent {
            t_s: 12.345678901,
            tx: "ab12cd34".into(),
            phase,
            station: "peer0.validate".into(),
            queue_depth: 7,
            // Deliberately not representable in few decimals: the codec must
            // round-trip arbitrary f64 attribution sums losslessly.
            cum_queued_s: 0.1 + 0.2,
            cum_service_s: 1.0 / 3.0,
        }
    }

    #[test]
    fn jsonl_round_trips_every_phase() {
        for phase in TracePhase::ALL {
            let ev = event(phase);
            let back = PhaseEvent::from_json(&ev.to_json()).expect("parses");
            assert_eq!(back, ev, "round-trip for {phase}");
        }
    }

    #[test]
    fn jsonl_round_trips_documents() {
        let events: Vec<PhaseEvent> = TracePhase::ALL.into_iter().map(event).collect();
        let doc: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let (prov, back) = parse_jsonl_with_provenance(&doc).expect("document parses");
        assert_eq!(prov, None);
        assert_eq!(back, events);
    }

    #[test]
    fn parser_tolerates_field_order_and_whitespace() {
        let line = r#" { "station" : "pool1.prep" , "phase" : "created" ,
            "queue_depth" : 0 , "tx" : "deadbeef" , "t_s" : 0.5 } "#
            .replace('\n', " ");
        let ev = PhaseEvent::from_json(&line).expect("parses");
        assert_eq!(ev.phase, TracePhase::Created);
        assert_eq!(ev.station, "pool1.prep");
        assert!((ev.t_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parser_rejects_bad_lines() {
        assert!(PhaseEvent::from_json("not json").is_err());
        assert!(PhaseEvent::from_json("{}").is_err());
        assert!(PhaseEvent::from_json(
            r#"{"t_s":1,"tx":"a","phase":"warp","station":"s","queue_depth":0}"#
        )
        .is_err());
        // Nested objects are out of schema.
        assert!(PhaseEvent::from_json(r#"{"t_s":{}}"#).is_err());
    }

    #[test]
    fn escaping_round_trips_special_characters() {
        let mut ev = event(TracePhase::Created);
        ev.station = "we\"ird\\name\twith\ncontrol\u{1}".into();
        let back = PhaseEvent::from_json(&ev.to_json()).expect("parses");
        assert_eq!(back, ev);
    }

    #[test]
    fn phase_labels_are_unique_and_invertible() {
        for p in TracePhase::ALL {
            assert_eq!(TracePhase::from_label(p.label()), Some(p));
        }
        assert_eq!(TracePhase::from_label("nope"), None);
    }

    #[test]
    fn parser_defaults_missing_attribution_fields() {
        // Traces written before the cum_* fields existed must still parse.
        let ev = PhaseEvent::from_json(
            r#"{"t_s":1.5,"tx":"aa","phase":"created","station":"s","queue_depth":2}"#,
        )
        .expect("v1 schema parses");
        assert_eq!((ev.cum_queued_s, ev.cum_service_s), (0.0, 0.0));
    }

    #[test]
    fn provenance_round_trips_and_is_skipped_by_event_parsers() {
        let prov = RunProvenance {
            seed: 42,
            config_digest: "ab12cd34ef56ab78".into(),
        };
        let back = RunProvenance::from_json(&prov.to_json()).expect("parses");
        assert_eq!(back, prov);
        let doc = format!(
            "{}\n{}\n{}\n",
            prov.to_json(),
            event(TracePhase::Created).to_json(),
            event(TracePhase::Committed).to_json()
        );
        let (p, events) = parse_jsonl_with_provenance(&doc).expect("parses");
        assert_eq!(p, Some(prov.clone()));
        assert_eq!(events.len(), 2);
        // Headerless documents still parse, with no provenance.
        let (p, events) =
            parse_jsonl_with_provenance(&event(TracePhase::Created).to_json()).expect("parses");
        assert_eq!(p, None);
        assert_eq!(events.len(), 1);
        // A second provenance line is two runs concatenated: an error.
        let twice = format!("{}\n{}\n", prov.to_json(), prov.to_json());
        assert!(parse_jsonl_with_provenance(&twice)
            .expect_err("duplicate rejected")
            .contains("duplicate provenance"));
    }

    #[test]
    fn provenance_parser_rejects_bad_lines() {
        for bad in [
            "{\"provenance\":2,\"seed\":1,\"config_digest\":\"x\"}",
            "{\"provenance\":1,\"config_digest\":\"x\"}",
            "{\"provenance\":1,\"seed\":-3,\"config_digest\":\"x\"}",
            "{\"provenance\":1,\"seed\":1,\"config_digest\":7}",
            "{\"seed\":1,\"config_digest\":\"x\"}",
        ] {
            assert!(RunProvenance::from_json(bad).is_err(), "{bad} should fail");
        }
        // A tx named "provenance" inside an event line must not trip the
        // discriminator (it is the *key* that marks a provenance line).
        let mut ev = event(TracePhase::Created);
        ev.tx = "\"provenance\"".into();
        let (p, events) = parse_jsonl_with_provenance(&ev.to_json()).expect("parses");
        assert_eq!((p, events), (None, vec![ev]));
    }

    /// Integers decode exactly or are refused — never through an `f64`.
    #[test]
    fn integers_are_exact_or_refused() {
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let prov = RunProvenance {
                seed,
                config_digest: "ab12cd34ef56ab78".into(),
            };
            assert_eq!(RunProvenance::from_json(&prov.to_json()), Ok(prov));
        }
        for bad in [
            "-3",
            "1.5",
            "1e3",
            "1e999",
            "18446744073709551616",
            "\"7\"",
            "{}",
        ] {
            let prov = format!("{{\"provenance\":1,\"seed\":{bad},\"config_digest\":\"x\"}}");
            assert!(RunProvenance::from_json(&prov).is_err(), "seed {bad}");
            let ev = format!(
                "{{\"t_s\":1,\"tx\":\"a\",\"phase\":\"created\",\"station\":\"s\",\"queue_depth\":{bad}}}"
            );
            assert!(PhaseEvent::from_json(&ev).is_err(), "queue_depth {bad}");
        }
    }

    /// Locks the analyzer's load-bearing phase order. `PIPELINE` is the
    /// committing pipeline in causal order; `pipeline_index` is its inverse;
    /// the failure phases sit outside it.
    #[test]
    fn pipeline_order_is_locked() {
        assert_eq!(
            TracePhase::PIPELINE,
            [
                TracePhase::Created,
                TracePhase::ProposalSent,
                TracePhase::Endorsed,
                TracePhase::Submitted,
                TracePhase::OrderAcked,
                TracePhase::Ordered,
                TracePhase::Delivered,
                TracePhase::VsccDone,
                TracePhase::Committed,
            ]
        );
        for (i, p) in TracePhase::PIPELINE.into_iter().enumerate() {
            assert_eq!(p.pipeline_index(), Some(i), "{p}");
        }
        for p in [
            TracePhase::OverloadDropped,
            TracePhase::EndorsementFailed,
            TracePhase::OrderingTimeout,
        ] {
            assert_eq!(p.pipeline_index(), None, "{p}");
        }
        // Every phase is either in the pipeline or a failure — no third kind.
        assert_eq!(
            TracePhase::ALL.len(),
            TracePhase::PIPELINE.len() + 3,
            "new phases must be classified in pipeline_index()"
        );
    }
}
