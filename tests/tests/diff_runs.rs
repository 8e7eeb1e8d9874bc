//! Differential run analysis end-to-end: the validator-pool experiment from
//! the paper (§ bottleneck analysis), attributed by `obs::diff`. Widening
//! the VSCC pool from 1 to 4 at a signature-heavy operating point moves the
//! bottleneck out of the validate stage, and the artifact diff must both
//! detect the shift and account for the latency change segment-by-segment
//! (the telescoping contract).

use fabricsim::obs::{ArtifactDiff, ArtifactKind, TraceAnalysis};
use fabricsim::report::run_summary_json;
use fabricsim::{predict, OrdererType, PolicySpec, SimConfig, Simulation};

/// Solo / AND5 / 500 tps / seed 42 — the acceptance operating point: the
/// paper's VSCC-bound regime at pool width 1.
fn pool_config(pool: usize) -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        policy: PolicySpec::AndX(5),
        endorsing_peers: 10,
        arrival_rate_tps: 500.0,
        duration_secs: 15.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        seed: 42,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = pool;
    cfg.obs.trace_events = true;
    cfg
}

#[test]
fn pool_widening_shifts_the_bottleneck_out_of_vscc() {
    let narrow = Simulation::new(pool_config(1)).run_detailed();
    let wide = Simulation::new(pool_config(4)).run_detailed();

    // The two operating points themselves: at pool 1 the validate stage
    // commits at the analytic knee (≈ 204 tps), and at pool 4 the same
    // deployment clears what is offered.
    let knee = predict(&pool_config(1)).peak_committed_tps;
    let narrow_tps = narrow.summary.validate.throughput_tps;
    assert!(
        (narrow_tps / knee - 1.0).abs() <= 0.05,
        "pool=1 should commit within 5% of the analytic knee {knee:.1} tps, got {narrow_tps:.1}"
    );
    let wide_tps = wide.summary.validate.throughput_tps;
    let offered = wide.summary.offered_tps;
    assert!(
        wide_tps >= 0.95 * offered,
        "pool=4 should commit at least 95% of the offered {offered:.0} tps, got {wide_tps:.1}"
    );

    // Run-summary diff: different pool widths are different experiments, so
    // the digests must disagree, and the hottest station must leave VSCC.
    let a = run_summary_json("pool1", &narrow);
    let b = run_summary_json("pool4", &wide);
    let diff = ArtifactDiff::from_json_strs(&a, &b).expect("summary diff");
    assert_eq!(diff.kind, ArtifactKind::RunSummary);
    assert_eq!(
        diff.digest_match,
        Some(false),
        "pool width is part of the experiment identity"
    );
    let shift = diff
        .shifts()
        .find(|s| s.dimension == "hottest_station")
        .expect("widening the pool must move the hottest station");
    assert!(
        shift.a.contains("vscc"),
        "pool=1 should be VSCC-bound, got {:?}",
        shift.a
    );
    assert!(
        !shift.b.contains("vscc"),
        "pool=4 should not be VSCC-bound, got {:?}",
        shift.b
    );

    // Trace-analysis diff: the per-segment latency deltas must telescope to
    // the end-to-end delta within 1e-6 s, and the dominant critical-path
    // segment must shift away from the VSCC wait.
    let ta = TraceAnalysis::from_events(&narrow.observability.events, 3);
    let tb = TraceAnalysis::from_events(&wide.observability.events, 3);
    let tdiff = ArtifactDiff::from_json_strs(&ta.to_json(), &tb.to_json()).expect("trace diff");
    assert_eq!(tdiff.kind, ArtifactKind::Analysis);
    let residual = tdiff.max_telescope_residual_s();
    assert!(
        residual < 1e-6,
        "segment deltas must telescope to the e2e delta (residual {residual:e})"
    );
    assert!(
        tdiff
            .sections
            .iter()
            .flat_map(|s| s.telescopes.iter())
            .any(|t| t.e2e_delta_s.abs() > 1e-3),
        "the pool change should move end-to-end latency measurably"
    );
    let seg_shift = tdiff
        .shifts()
        .find(|s| s.dimension == "trace.dominant_segment")
        .expect("dominant critical-path segment must shift");
    assert!(
        seg_shift.a.contains("vscc"),
        "pool=1 critical path should be dominated by the VSCC segment, got {:?}",
        seg_shift.a
    );
    assert!(
        !seg_shift.b.contains("vscc"),
        "pool=4 critical path should leave the VSCC segment, got {:?}",
        seg_shift.b
    );
}

#[test]
fn self_diff_is_exactly_zero() {
    let r = Simulation::new(pool_config(1)).run_detailed();
    let doc = run_summary_json("self", &r);
    let diff = ArtifactDiff::from_json_strs(&doc, &doc).expect("self diff");
    assert_eq!(diff.digest_match, Some(true));
    assert_eq!(diff.max_abs_delta(), 0.0, "self-diff must be all-zero");
    assert_eq!(diff.shifts().count(), 0);
    assert_eq!(diff.max_telescope_residual_s(), 0.0);

    let ta = TraceAnalysis::from_events(&r.observability.events, 3);
    let tdiff =
        ArtifactDiff::from_json_strs(&ta.to_json(), &ta.to_json()).expect("trace self diff");
    assert_eq!(tdiff.max_abs_delta(), 0.0);
    assert_eq!(tdiff.max_telescope_residual_s(), 0.0);
    assert_eq!(tdiff.shifts().count(), 0);
}
