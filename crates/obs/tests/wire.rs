//! The wire codec against frozen artifacts.
//!
//! `tests/fixtures/wire/` holds one tiny run's artifacts (Solo/AND2, 5 tps
//! for 1 s, seed 42): `--trace-out`, `--span-out`, `--health-out`, the
//! `--json` run document, `analyze --json` over the three JSONL files, and
//! `diff --json` of the run document, the analysis and the health timeline
//! each against itself. Every format is decoded with `obs::json` and
//! rendered again; the bytes must not move. A seeded mutation fuzz then
//! checks that no decoder panics on damaged input.
//!
//! The run is `fabricsim --peers 2 --policy AND2 --rate 5 --duration 1
//! --batch-size 2 --batch-timeout 100 --slo-p99-ms 50`. Beside it: `profile
//! --json` of the same flags (`profile.json`) and its self-diff, and a
//! second run, `--orderer raft --peers 4 --policy OR3 --channels 2 --rate
//! 10` with the same duration, batching and objective (`run2.json`,
//! `analyze --trace --spans --json` as `run2.analysis.json`,
//! `run2.profile.json`), whose run, analysis and profile diffs against the
//! first are `cross.diff.json`.
//!
//! The run documents and the two diffs that read them were recorded again
//! when `--json` became the summary's own exact rendering, and again when
//! its `bottleneck` object did; the analysis and its self-diff when its
//! `health` member became the timeline's own records:
//!
//! ```text
//! fabricsim <run flags> --json > run.json
//! fabricsim <run2 flags> --json > run2.json
//! fabricsim diff run.json run.json --json > run.self-diff.json
//! fabricsim analyze --trace trace.jsonl --spans spans.jsonl --json > a.json
//! fabricsim diff run.json run2.json a.json run2.analysis.json \
//!     profile.json run2.profile.json --json --force > cross.diff.json
//! fabricsim analyze --trace trace.jsonl --spans spans.jsonl \
//!     --health health.jsonl --json > analysis.json
//! fabricsim diff analysis.json analysis.json --json > analysis.self-diff.json
//! ```

use fabricsim_des::RngStream;
use fabricsim_obs::json::escape;
use fabricsim_obs::{
    parse_jsonl_with_provenance, parse_spans_jsonl_with_provenance, ArtifactDiff, HealthEvent,
    HealthReport, Json, PhaseEvent, RunProvenance, SpanEvent, SpanGraphAnalysis, StationHealth,
    TraceAnalysis,
};

macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("../../../tests/fixtures/wire/", $name))
    };
}

const TRACE: &str = fixture!("trace.jsonl");
const SPANS: &str = fixture!("spans.jsonl");
const HEALTH: &str = fixture!("health.jsonl");
const RUN: &str = fixture!("run.json");
const ANALYSIS: &str = fixture!("analysis.json");
const PROFILE: &str = fixture!("profile.json");

fn jsonl(prov: &RunProvenance, lines: impl Iterator<Item = String>) -> String {
    let mut out = prov.to_json() + "\n";
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// What `fabricsim diff --json` prints for the artifact pairs `pairs`.
#[expect(
    clippy::expect_used,
    reason = "test helper: a fixture pair that cannot be diffed fails the test"
)]
fn diff_json(pairs: &[(&str, &str)], forced: bool) -> String {
    let diffs: Vec<ArtifactDiff> = pairs
        .iter()
        .map(|(a, b)| ArtifactDiff::from_json_strs(a, b).expect("diffs"))
        .collect();
    let artifacts: Vec<String> = diffs.iter().map(ArtifactDiff::to_json).collect();
    let max_abs_delta = diffs
        .iter()
        .map(ArtifactDiff::max_abs_delta)
        .fold(0.0, f64::max);
    let shifts: Vec<String> = diffs
        .iter()
        .flat_map(|d| {
            d.shifts().map(|s| {
                format!(
                    "{{\"artifact\":\"{}\",\"dimension\":\"{}\",\"a\":\"{}\",\"b\":\"{}\"}}",
                    d.kind.label(),
                    escape(&s.dimension),
                    escape(&s.a),
                    escape(&s.b)
                )
            })
        })
        .collect();
    format!(
        "{{\"artifacts\":[{}],\"max_abs_delta\":{max_abs_delta},\"bottleneck_shifts\":[{}],\"forced\":{forced}}}\n",
        artifacts.join(","),
        shifts.join(",")
    )
}

/// What `fabricsim diff --json` prints for one artifact against itself.
fn self_diff_json(doc: &str) -> String {
    diff_json(&[(doc, doc)], false)
}

#[test]
fn fixtures_decode_and_render_to_the_same_bytes() {
    let (trace_prov, events) = parse_jsonl_with_provenance(TRACE).expect("trace decodes");
    let (span_prov, spans) = parse_spans_jsonl_with_provenance(SPANS).expect("spans decode");
    let (health_prov, health) = HealthReport::from_jsonl(HEALTH).expect("health decodes");
    let prov = trace_prov.expect("trace carries provenance");
    assert_eq!(prov.seed, 42);
    assert_eq!(span_prov.as_ref(), Some(&prov));
    assert_eq!(health_prov.as_ref(), Some(&prov));

    assert_eq!(jsonl(&prov, events.iter().map(PhaseEvent::to_json)), TRACE);
    assert_eq!(jsonl(&prov, spans.iter().map(SpanEvent::to_json)), SPANS);
    assert_eq!(health.to_jsonl(Some(&prov)), HEALTH);

    // `analyze --trace --spans --health --json`, as the CLI assembles it.
    let analysis = format!(
        "{{\"provenance\":{},\"trace\":{},\"span_graph\":{},\"health\":[{}]}}\n",
        prov.to_json(),
        TraceAnalysis::from_events(&events, 5).to_json(),
        SpanGraphAnalysis::from_spans(&spans).to_json(),
        health.records().join(",")
    );
    // Its `health` array is the timeline's records: the lines after the
    // provenance line, in order.
    let records: Vec<&str> = HEALTH.lines().skip(1).collect();
    assert!(analysis.contains(&format!("\"health\":[{}]}}", records.join(","))));
    assert_eq!(analysis, ANALYSIS);

    // The two single-document formats have no typed decoder: `diff` reads
    // them as `Json`, so their rendering is the diff of each against itself.
    assert_eq!(self_diff_json(RUN), fixture!("run.self-diff.json"));
    assert_eq!(
        self_diff_json(ANALYSIS),
        fixture!("analysis.self-diff.json")
    );
    assert_eq!(self_diff_json(HEALTH), fixture!("health.self-diff.json"));
    assert_eq!(self_diff_json(PROFILE), fixture!("profile.self-diff.json"));
}

/// Diffs across two configurations: every numeric field of the run summary,
/// the trace and span-graph analyses (the second run's actors shift), and
/// the kernel profiles (handlers on one side only, 0 against 2 shards).
#[test]
fn cross_run_diffs_render_the_recorded_bytes() {
    let (prov, events) = parse_jsonl_with_provenance(TRACE).expect("trace decodes");
    let (_, spans) = parse_spans_jsonl_with_provenance(SPANS).expect("spans decode");
    // `analyze --trace --spans --json` of the first run.
    let analysis = format!(
        "{{\"provenance\":{},\"trace\":{},\"span_graph\":{}}}\n",
        prov.expect("trace carries provenance").to_json(),
        TraceAnalysis::from_events(&events, 5).to_json(),
        SpanGraphAnalysis::from_spans(&spans).to_json(),
    );
    let pairs = [
        (RUN, fixture!("run2.json")),
        (analysis.as_str(), fixture!("run2.analysis.json")),
        (PROFILE, fixture!("run2.profile.json")),
    ];
    assert_eq!(diff_json(&pairs, true), fixture!("cross.diff.json"));
}

/// `line` with the first `from` replaced by `to`; the fixture must hold it.
fn swap(line: &str, from: &str, to: &str) -> String {
    assert!(line.contains(from), "fixture line lacks {from}: {line}");
    line.replacen(from, to, 1)
}

/// Inputs every decoder must refuse — one parser, one set of checks.
#[test]
fn malformed_artifacts_are_refused() {
    let prov = TRACE.lines().next().expect("provenance line");
    let event = TRACE.lines().nth(1).expect("event line");
    let span = SPANS.lines().nth(1).expect("span line");
    let health_event = HEALTH.lines().nth(1).expect("health event line");
    let station = HEALTH.lines().nth(2).expect("station line");
    let trailer = HEALTH.lines().last().expect("trailer line");
    for (what, verdict) in [
        (
            "duplicate key in one object",
            PhaseEvent::from_json(&swap(event, "{", "{\"t_s\":1,")).map(drop),
        ),
        (
            "object where a string is required",
            PhaseEvent::from_json(&swap(event, "\"created\"", "{\"v\":\"created\"}")).map(drop),
        ),
        (
            "array where a number is required",
            SpanEvent::from_json(&swap(span, "\"hop\":0", "\"hop\":[0]")).map(drop),
        ),
        (
            "hop beyond u32",
            SpanEvent::from_json(&swap(span, "\"hop\":0", "\"hop\":4294967296")).map(drop),
        ),
        (
            "negative channel",
            StationHealth::from_json(&swap(station, "\"channel\":0", "\"channel\":-1")).map(drop),
        ),
        (
            "fractional channel",
            HealthEvent::from_json(&swap(health_event, "\"channel\":0", "\"channel\":0.5"))
                .map(drop),
        ),
        (
            "duplicate provenance line (trace)",
            parse_jsonl_with_provenance(&format!("{prov}\n{event}\n{prov}\n")).map(drop),
        ),
        (
            "duplicate provenance line (spans)",
            parse_spans_jsonl_with_provenance(&format!("{prov}\n{prov}\n{span}\n")).map(drop),
        ),
        (
            "duplicate provenance line (health)",
            HealthReport::from_jsonl(&format!("{prov}\n{HEALTH}")).map(drop),
        ),
        (
            "content after the health trailer",
            HealthReport::from_jsonl(&format!("{HEALTH}{health_event}\n")).map(drop),
        ),
        (
            "a second health trailer",
            HealthReport::from_jsonl(&format!("{HEALTH}{trailer}\n")).map(drop),
        ),
        (
            "no health trailer",
            HealthReport::from_jsonl(&swap(HEALTH, trailer, "")).map(drop),
        ),
        (
            "non-finite counter in the trailer",
            HealthReport::from_jsonl(&swap(HEALTH, "\"windows\":1", "\"windows\":1e999")).map(drop),
        ),
    ] {
        assert!(verdict.is_err(), "{what} must be refused");
    }
}

/// `fabricsim diff` names the two seeds exactly, however large.
#[test]
fn diff_keeps_seeds_above_2_pow_53_apart() {
    let with_seed = |seed: u64| RUN.replacen("\"seed\":42", &format!("\"seed\":{seed}"), 1);
    let (a, b) = (1u64 << 53, (1u64 << 53) + 1);
    let d = ArtifactDiff::from_json_strs(&with_seed(a), &with_seed(b)).expect("diffs");
    assert_eq!(d.provenance[0].seed, Some(a));
    assert_eq!(d.provenance[1].seed, Some(b));
    assert_eq!(
        d.max_abs_delta(),
        0.0,
        "the seed is provenance, not a metric"
    );
    // A seed that is not an exact u64 is refused, not rounded.
    for bad in ["-1", "4.2e1", "18446744073709551616"] {
        let doc = RUN.replacen("\"seed\":42", &format!("\"seed\":{bad}"), 1);
        assert!(
            ArtifactDiff::from_json_strs(&doc, RUN).is_err(),
            "seed {bad}"
        );
    }
}

/// One seeded mutation of `line`: overwrite, insert, delete, truncate or
/// splice in a structural token.
fn mutate(line: &str, rng: &mut RngStream) -> String {
    const TOKENS: [&[u8]; 12] = [
        b"{", b"}", b"[", b"]", b"\"", b"\\", b",", b":", b"-", b"1e999", b"\\u", b"\n",
    ];
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..=rng.next_below(3) {
        let at = rng.pick_index(bytes.len() + 1);
        match rng.next_below(5) {
            0 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
            1 => bytes.insert(at, rng.next_u64() as u8),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {
                let token = TOKENS[rng.pick_index(TOKENS.len())];
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// 10 000 seeded mutations of every fixture line through the reader of the
/// file it came from (envelope, provenance and record decoders): each call
/// returns — `Ok` or `Err` — and none panics.
#[test]
fn mutated_lines_never_panic_a_decoder() {
    const MUTATIONS_PER_LINE: usize = 10_000;
    type Reader = fn(&str) -> bool;
    let readers: [(&str, Reader); 3] = [
        (TRACE, |m| parse_jsonl_with_provenance(m).is_ok()),
        (SPANS, |m| parse_spans_jsonl_with_provenance(m).is_ok()),
        (HEALTH, |m| HealthReport::from_jsonl(m).is_ok()),
    ];
    let mut rng = RngStream::derive(42, "wire-fuzz");
    let mut accepted = [0u64; 2];
    for (doc, reader) in readers {
        for line in doc.lines() {
            for _ in 0..MUTATIONS_PER_LINE {
                accepted[usize::from(reader(&mutate(line, &mut rng)))] += 1;
            }
        }
    }
    // The single-line documents go through the whole-document reader and the
    // diff engine that consumes it.
    for doc in [RUN, ANALYSIS] {
        for _ in 0..MUTATIONS_PER_LINE {
            let ok = Json::parse(&mutate(doc.trim_end(), &mut rng))
                .is_ok_and(|j| ArtifactDiff::from_json(&j, &j).is_ok());
            accepted[usize::from(ok)] += 1;
        }
    }
    // Both outcomes occur: the mutator neither destroys every line nor
    // leaves every line intact.
    let [refused, ok] = accepted;
    assert!(ok > 0 && refused > 0, "{ok} accepted, {refused} refused");
}
