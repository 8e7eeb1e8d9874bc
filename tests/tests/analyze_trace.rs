//! The trace analyzer against a real run: span reconstruction must agree
//! with the simulator's own per-transaction accounting, the segment
//! decomposition must tile the end-to-end latency, and at the paper's
//! validate-bound operating point the critical path must land validate-side.

use fabricsim::obs::{reconstruct, TraceAnalysis, TracePhase};
use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation, TxOutcome};

/// The acceptance scenario: 500 tps offered, single-width validator pool —
/// the paper's Fig. 6/7 operating point where VSCC saturates first.
fn traced_500tps_pool1() -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        policy: PolicySpec::OrN(10),
        arrival_rate_tps: 500.0,
        endorsing_peers: 10,
        duration_secs: 15.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = 1;
    cfg.obs.trace_events = true;
    cfg
}

#[test]
fn analyzer_agrees_with_simulator_accounting() {
    let r = Simulation::new(traced_500tps_pool1()).run_detailed();

    // JSONL round trip first: the analyzer consumes what --trace-out writes.
    let (_, events) = fabricsim::obs::parse_jsonl_with_provenance(&r.observability.events_jsonl())
        .expect("trace must parse back");
    assert_eq!(&events, &r.observability.events);

    let spans = reconstruct(&events);

    // Per-tx identity: every committed span's end-to-end latency matches a
    // TxTrace's (committed - created) within 1e-9 s. Spans carry only the
    // short tx hash, so match the sorted latency multisets.
    let mut span_e2e: Vec<f64> = spans.iter().filter_map(|s| s.end_to_end_s()).collect();
    let mut trace_e2e: Vec<f64> = r
        .traces
        .iter()
        .filter(|t| matches!(t.outcome, TxOutcome::Committed(_)))
        .map(|t| {
            t.committed
                .expect("committed tx has timestamp")
                .as_secs_f64()
                - t.created.as_secs_f64()
        })
        .collect();
    assert!(!span_e2e.is_empty());
    assert_eq!(
        span_e2e.len(),
        trace_e2e.len(),
        "one committed span per committed TxTrace"
    );
    span_e2e.sort_by(f64::total_cmp);
    trace_e2e.sort_by(f64::total_cmp);
    for (s, t) in span_e2e.iter().zip(&trace_e2e) {
        assert!(
            (s - t).abs() < 1e-9,
            "span e2e {s} disagrees with simulator trace e2e {t}"
        );
    }

    // Segment durations tile each committed span exactly.
    for span in spans.iter().filter(|s| s.is_committed()) {
        let sum: f64 = span.segments().iter().map(|seg| seg.dt_s).sum();
        let e2e = span.end_to_end_s().unwrap();
        assert!(
            (sum - e2e).abs() < 1e-9,
            "segments sum {sum} != e2e {e2e} for tx {}",
            span.tx
        );
    }
}

#[test]
fn decomposition_reproduces_validate_dominance_at_500tps_pool1() {
    let r = Simulation::new(traced_500tps_pool1()).run_detailed();
    let analysis = TraceAnalysis::from_events(&r.observability.events, 5);

    assert!(analysis.committed > 0);

    // Acceptance identity: the per-segment means sum to the end-to-end mean.
    let sum = analysis.segment_mean_sum_s();
    let mean = analysis.e2e.mean_s;
    assert!(
        (sum - mean).abs() < 1e-6,
        "segment mean sum {sum} != e2e mean {mean}"
    );

    // Acceptance: validate-side segments (delivered→vscc_done→committed)
    // are the critical path for a plurality of committed transactions.
    let (execute, order, validate) = analysis.phase_dominance();
    assert!(
        validate > execute && validate > order,
        "validate must dominate: execute={execute} order={order} validate={validate}"
    );
    let dominant = analysis.dominant_segment().expect("non-empty analysis");
    assert!(
        dominant.is_validate_side(),
        "dominant segment {} is not validate-side",
        dominant.name()
    );
    assert!(
        dominant.from == TracePhase::Delivered || dominant.from == TracePhase::VsccDone,
        "expected the vscc/commit segment, got {}",
        dominant.name()
    );

    // The rendered artifacts carry the dominance result.
    let table = analysis.render_table();
    assert!(table.contains("critical-path dominance"));
    assert!(analysis.to_json().contains("\"segments\""));
}
