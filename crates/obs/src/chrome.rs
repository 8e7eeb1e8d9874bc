//! Chrome Trace Event Format export (Perfetto / `chrome://tracing`).
//!
//! Converts a phase-event trace into the JSON object format described by the
//! Trace Event Format spec: one *complete* (`"ph":"X"`) slice per inter-phase
//! segment of every reconstructed [`TxSpan`], grouped one thread per
//! transaction under a `transactions` process, plus a `stations` process
//! carrying reconstructed busy intervals and `queue_depth` counter tracks per
//! station. Timestamps are microseconds (the format's native unit); virtual
//! time is integer nanoseconds, so three decimals are exact.

use std::collections::HashMap;

use crate::event::PhaseEvent;
use crate::json::escape;
use crate::span::reconstruct;
use crate::spangraph::SpanEvent;

/// Renders a trace as Chrome Trace Event Format JSON (the `traceEvents`
/// object form). Load the file in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`.
///
/// Track layout:
/// * pid 1 `transactions` — one tid per transaction (first-seen order), one
///   `X` slice per span segment, an instant (`i`) marker on failure;
/// * pid 2 `stations` — one tid per station, `X` "busy" slices over the
///   intervals where the station's observed queue depth was non-zero, and
///   one `C` counter track per station sampling `queue_depth`.
///
/// Within every track, slices are emitted in non-decreasing `ts` order with
/// non-negative `dur` — the invariant the acceptance test locks.
pub fn chrome_trace(events: &[PhaseEvent]) -> String {
    let spans = reconstruct(events);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };

    // Process metadata.
    for (pid, name) in [(1u32, "transactions"), (2, "stations")] {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }

    // Transaction tracks: tid = span index + 1, named after the tx id.
    for (i, span) in spans.iter().enumerate() {
        let tid = i + 1;
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"tx {}\"}}}}",
                escape(&span.tx)
            ),
            &mut out,
            &mut first,
        );
        for seg in span.segments() {
            // reconstruct() only emits pipeline-phase segments over observed
            // phases; a segment without a start timestamp is not drawable.
            let Some(start_s) = seg.from.pipeline_index().and_then(|idx| span.t_s[idx]) else {
                continue;
            };
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}→{}\",\"cat\":\"{}\",\"args\":{{\"queued_s\":{},\"service_s\":{}}}}}",
                    start_s * 1e6,
                    seg.dt_s * 1e6,
                    seg.from.label(),
                    seg.to.label(),
                    crate::analyze::phase_group_of(seg.from),
                    seg.queued_s,
                    seg.service_s
                ),
                &mut out,
                &mut first,
            );
        }
        if let Some(failure) = span.failure {
            // Anchor the marker at the last observed timestamp (failures
            // carry no pipeline timestamp of their own).
            let t = span.t_s.iter().flatten().copied().fold(0.0f64, f64::max);
            push(
                format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"name\":\"{}\",\"s\":\"t\"}}",
                    t * 1e6,
                    failure.label()
                ),
                &mut out,
                &mut first,
            );
        }
    }

    // Station tracks: queue-depth samples in time order per station.
    let mut station_points: Vec<(String, Vec<(f64, u64)>)> = Vec::new();
    let mut station_index: HashMap<&str, usize> = HashMap::new();
    for ev in events {
        let idx = *station_index.entry(ev.station.as_str()).or_insert_with(|| {
            station_points.push((ev.station.to_string(), Vec::new()));
            station_points.len() - 1
        });
        station_points[idx].1.push((ev.t_s, ev.queue_depth));
    }
    for (sid, (station, points)) in station_points.iter_mut().enumerate() {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let tid = sid + 1;
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":2,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape(station)
            ),
            &mut out,
            &mut first,
        );
        // Busy intervals: the station is busy from the first sample with a
        // non-zero depth until the next sample observing it drained. The
        // reconstruction is sample-resolution (events are the only
        // observations we have), which is exactly what the paper's log-based
        // methodology sees too.
        let mut busy_since: Option<f64> = None;
        let mut intervals: Vec<(f64, f64)> = Vec::new();
        for &(t, depth) in points.iter() {
            match (busy_since, depth > 0) {
                (None, true) => busy_since = Some(t),
                (Some(start), false) => {
                    intervals.push((start, t));
                    busy_since = None;
                }
                _ => {}
            }
        }
        if let (Some(start), Some(&(last, _))) = (busy_since, points.last()) {
            if last > start {
                intervals.push((start, last));
            }
        }
        for (start, end) in intervals {
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":2,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"busy\",\"cat\":\"station\"}}",
                    start * 1e6,
                    (end - start) * 1e6
                ),
                &mut out,
                &mut first,
            );
        }
        for &(t, depth) in points.iter() {
            push(
                format!(
                    "{{\"ph\":\"C\",\"pid\":2,\"tid\":{tid},\"ts\":{:.3},\"name\":\"{} queue\",\"args\":{{\"queue_depth\":{depth}}}}}",
                    t * 1e6,
                    escape(station)
                ),
                &mut out,
                &mut first,
            );
        }
    }

    out.push_str("]}");
    out
}

/// Renders a causal span graph as Chrome Trace Event Format JSON with *flow
/// events*: one `X` slice per span on a per-actor track (pid 3 `actors`),
/// plus an `s`/`f` flow pair for every parent→child edge, which Perfetto
/// draws as cross-actor arrows — the distributed hand-off picture the flat
/// per-tx view cannot show.
///
/// Span ids go into the flow `id` field as hex strings (the format allows
/// string ids; JSON numbers would corrupt ids above 2⁵³).
pub fn span_flow_trace(spans: &[SpanEvent]) -> String {
    let mut ordered: Vec<&SpanEvent> = spans.iter().collect();
    ordered.sort_by(|a, b| a.t0_s.total_cmp(&b.t0_s).then(a.span_id.cmp(&b.span_id)));
    let mut by_id: HashMap<u64, &SpanEvent> = HashMap::new();
    for s in &ordered {
        by_id.entry(s.span_id).or_insert(s);
    }
    // Deterministic actor → tid mapping (sorted names).
    let mut actors: Vec<&str> = ordered.iter().map(|s| s.actor.as_str()).collect();
    actors.sort_unstable();
    actors.dedup();
    let tid_of: HashMap<&str, usize> = actors
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i + 1))
        .collect();

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    push(
        "{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"actors\"}}"
            .to_string(),
        &mut out,
        &mut first,
    );
    for (i, actor) in actors.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":3,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                escape(actor)
            ),
            &mut out,
            &mut first,
        );
    }
    for s in &ordered {
        let tid = tid_of[s.actor.as_str()];
        push(
            format!(
                "{{\"ph\":\"X\",\"pid\":3,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}\",\"cat\":\"span\",\"args\":{{\"trace\":\"{}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"hop\":{}}}}}",
                s.t0_s * 1e6,
                (s.t1_s - s.t0_s).max(0.0) * 1e6,
                s.kind.label(),
                escape(&s.trace),
                s.span_id,
                s.parent_id,
                s.hop
            ),
            &mut out,
            &mut first,
        );
    }
    // Flow arrows: parent end → child start. Only edges whose parent is in
    // the file (sampling may have dropped it) get an arrow.
    for s in &ordered {
        let Some(parent) = by_id.get(&s.parent_id) else {
            continue;
        };
        let ptid = tid_of[parent.actor.as_str()];
        let ctid = tid_of[s.actor.as_str()];
        push(
            format!(
                "{{\"ph\":\"s\",\"pid\":3,\"tid\":{ptid},\"ts\":{:.3},\"id\":\"{:016x}\",\"name\":\"causal\",\"cat\":\"flow\"}}",
                parent.t1_s * 1e6,
                s.span_id
            ),
            &mut out,
            &mut first,
        );
        push(
            format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":3,\"tid\":{ctid},\"ts\":{:.3},\"id\":\"{:016x}\",\"name\":\"causal\",\"cat\":\"flow\"}}",
                s.t0_s * 1e6,
                s.span_id
            ),
            &mut out,
            &mut first,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TracePhase;
    use crate::json::Json;

    fn ev(tx: &str, phase: TracePhase, t_s: f64, station: &str, depth: u64) -> PhaseEvent {
        PhaseEvent {
            t_s,
            tx: tx.into(),
            phase,
            station: station.into(),
            queue_depth: depth,
            cum_queued_s: 0.0,
            cum_service_s: 0.0,
        }
    }

    fn sample_events() -> Vec<PhaseEvent> {
        vec![
            ev("a", TracePhase::Created, 1.0, "pool0.prep", 1),
            ev("a", TracePhase::Endorsed, 1.25, "peer0.endorse", 2),
            ev("a", TracePhase::Committed, 2.0, "peer0.commit", 0),
            ev("b", TracePhase::Created, 1.5, "pool0.prep", 0),
            ev("b", TracePhase::OverloadDropped, 1.5, "pool0.prep", 0),
        ]
    }

    #[test]
    fn emits_valid_json_with_monotone_tracks() {
        let doc = chrome_trace(&sample_events());
        let parsed = Json::parse(&doc).expect("chrome trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut last_ts: std::collections::HashMap<(u64, u64), f64> =
            std::collections::HashMap::new();
        let mut slices = 0;
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).expect("ph");
            if ph == "M" {
                continue;
            }
            let pid = e.get("pid").and_then(Json::as_f64).expect("pid") as u64;
            let tid = e.get("tid").and_then(Json::as_f64).expect("tid") as u64;
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            assert!(ts >= 0.0, "negative ts {ts}");
            let prev = last_ts.insert((pid, tid), ts).unwrap_or(f64::MIN);
            assert!(ts >= prev, "ts not monotone on track ({pid},{tid})");
            if ph == "X" {
                slices += 1;
                let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(dur >= 0.0, "negative dur {dur}");
            }
        }
        assert!(slices >= 2, "expected tx slices, got {slices}");
    }

    #[test]
    fn failure_spans_get_instant_markers() {
        let doc = chrome_trace(&sample_events());
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("overload_dropped"));
    }

    #[test]
    fn busy_intervals_cover_nonzero_depth_and_close_on_drain() {
        // pool0.prep: depth 1 at t=1.0, drained at t=1.5 → busy [1.0, 1.5].
        let doc = chrome_trace(&sample_events());
        let parsed = Json::parse(&doc).expect("valid");
        let busy: Vec<&Json> = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events")
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("busy"))
            .collect();
        assert!(!busy.is_empty(), "expected busy slices");
        let ts = busy[0].get("ts").and_then(Json::as_f64).unwrap();
        let dur = busy[0].get("dur").and_then(Json::as_f64).unwrap();
        assert!((ts - 1.0e6).abs() < 1e-6, "{ts}");
        assert!((dur - 0.5e6).abs() < 1e-6, "{dur}");
    }

    #[test]
    fn counter_tracks_sample_queue_depth() {
        let doc = chrome_trace(&sample_events());
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"queue_depth\":2"));
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let doc = chrome_trace(&[]);
        Json::parse(&doc).expect("valid");
    }

    fn sample_spans() -> Vec<crate::SpanEvent> {
        use crate::spangraph::{span_id, SpanKind};
        let mk = |trace: &str, kind: SpanKind, actor: &str, t0: f64, t1: f64, parent: u64| {
            crate::SpanEvent {
                span_id: span_id(trace, kind, actor, 0),
                parent_id: parent,
                trace: trace.into(),
                kind,
                actor: actor.into(),
                t0_s: t0,
                t1_s: t1,
                hop: 0,
            }
        };
        let prep = mk("tx1", SpanKind::ClientPrep, "pool0", 0.0, 0.01, 0);
        let endorse = mk("tx1", SpanKind::Endorse, "peer1", 0.012, 0.02, prep.span_id);
        let orphan = mk("tx1", SpanKind::Vscc, "peer0", 0.05, 0.06, 0xdead);
        vec![prep, endorse, orphan]
    }

    #[test]
    fn span_flow_trace_is_valid_json_with_paired_flows() {
        let doc = span_flow_trace(&sample_spans());
        let parsed = Json::parse(&doc).expect("flow trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        let mut starts = Vec::new();
        let mut finishes = Vec::new();
        let mut slices = 0;
        for e in events {
            match e.get("ph").and_then(Json::as_str).expect("ph") {
                "s" => starts.push(e.get("id").and_then(Json::as_str).unwrap().to_string()),
                "f" => {
                    assert_eq!(e.get("bp").and_then(Json::as_str), Some("e"));
                    finishes.push(e.get("id").and_then(Json::as_str).unwrap().to_string());
                }
                "X" => {
                    slices += 1;
                    let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                    assert!(dur >= 0.0);
                }
                _ => {}
            }
        }
        assert_eq!(slices, 3, "one X slice per span");
        assert_eq!(starts.len(), 1, "only the in-file parent edge gets a flow");
        assert_eq!(starts, finishes, "every s pairs with an f by id");
    }

    #[test]
    fn span_flow_trace_tracks_are_per_actor() {
        let doc = span_flow_trace(&sample_spans());
        assert!(doc.contains("\"name\":\"actors\""));
        for actor in ["pool0", "peer0", "peer1"] {
            assert!(
                doc.contains(&format!("\"args\":{{\"name\":\"{actor}\"}}")),
                "missing actor track {actor}"
            );
        }
    }

    #[test]
    fn empty_span_flow_trace_is_valid() {
        Json::parse(&span_flow_trace(&[])).expect("valid");
    }
}
