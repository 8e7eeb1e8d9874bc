//! Chrome-trace and flamegraph export against a real traced run: the JSON
//! must parse and keep per-track timestamps monotone, and the collapsed
//! stacks must reconcile exactly with the trace analyzer's per-segment
//! decomposition.

use std::collections::BTreeMap;

use fabricsim::obs::{chrome_trace, collapsed_stacks, reconstruct, Json, TraceAnalysis};
use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation};

fn traced_run() -> fabricsim::RunResult {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Raft,
        policy: PolicySpec::OrN(5),
        arrival_rate_tps: 150.0,
        endorsing_peers: 5,
        duration_secs: 12.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    cfg.obs.trace_events = true;
    Simulation::new(cfg).run_detailed()
}

#[test]
fn chrome_export_is_valid_trace_event_json_with_monotone_tracks() {
    let r = traced_run();
    let doc = chrome_trace(&r.observability.events);
    let json = Json::parse(&doc).expect("chrome export must be valid JSON");

    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "a real run produces slices");

    // Per (pid, tid) track: complete events appear in non-decreasing ts
    // order with non-negative ts and dur — the invariant Perfetto needs.
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut slices = 0usize;
    for ev in events {
        let phase = ev.get("ph").and_then(Json::as_str).expect("ph field");
        if phase != "X" {
            continue;
        }
        slices += 1;
        let pid = ev.get("pid").and_then(Json::as_f64).expect("pid") as u64;
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = ev.get("dur").and_then(Json::as_f64).expect("dur");
        assert!(ts >= 0.0, "negative ts {ts}");
        assert!(dur >= 0.0, "negative dur {dur}");
        let prev = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        assert!(
            ts >= *prev,
            "track ({pid},{tid}) went backwards: {ts} after {prev}"
        );
        *prev = ts;
    }
    assert!(slices > 0, "no complete events in export");
    // Both the transaction (pid 1) and station (pid 2) process groups exist.
    assert!(last_ts.keys().any(|(pid, _)| *pid == 1));
    assert!(last_ts.keys().any(|(pid, _)| *pid == 2));
}

#[test]
fn collapsed_stacks_reconcile_with_the_analyzer_decomposition() {
    let r = traced_run();
    let events = &r.observability.events;
    let spans = reconstruct(events);
    let folded = collapsed_stacks(&spans);
    let analysis = TraceAnalysis::from_events(events, 0);
    assert!(analysis.committed > 0);

    // Parse `fabricsim;<group>;<from→to> <ns>` lines.
    let mut by_segment: BTreeMap<&str, f64> = BTreeMap::new();
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("folded line");
        let segment = stack.split(';').nth(2).expect("three frames");
        let ns: f64 = ns.parse().expect("integer ns value");
        by_segment.insert(segment, ns);
        assert!(stack.starts_with("fabricsim;"), "{line}");
    }

    // Every analyzer segment's mean must be recoverable from the stack total
    // (divide by committed count and 1e9) to 1e-6 s.
    let n = analysis.committed as f64;
    for seg in &analysis.segments {
        let name = format!("{}→{}", seg.from.label(), seg.to.label());
        let ns = by_segment
            .get(name.as_str())
            .unwrap_or_else(|| panic!("segment {name} missing from folded output:\n{folded}"));
        let mean_from_flame = ns / 1e9 / n;
        assert!(
            (mean_from_flame - seg.mean_s).abs() < 1e-6,
            "{name}: flame {mean_from_flame} vs analyzer {}",
            seg.mean_s
        );
    }
    // And the whole document tiles the end-to-end mean.
    let total_s: f64 = by_segment.values().sum::<f64>() / 1e9 / n;
    assert!(
        (total_s - analysis.e2e.mean_s).abs() < 1e-6,
        "stack totals {total_s} vs e2e mean {}",
        analysis.e2e.mean_s
    );
}
