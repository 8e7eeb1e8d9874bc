//! Differential run analysis: pairwise comparison of observability artifacts.
//!
//! The paper's contribution is a *diagnosis* — which phase is the bottleneck
//! and how it moves as load, endorsement policy and block size change. A
//! single run's artifacts (`--json` run summaries, trace analyses, span-graph
//! critical paths, kernel self-profiles, `--health-out` regime timelines)
//! can each diagnose one run; this module explains the *difference* between
//! two:
//!
//! * every numeric metric the two artifacts share becomes a [`DiffEntry`]
//!   (`delta = B − A`), ranked by `|delta|` so the biggest mover tops the
//!   report;
//! * string-valued dominance dimensions (hottest station, dominant
//!   critical-path segment, hottest kernel handler) become [`Shift`]s when
//!   they changed — the "bottleneck moved out of VSCC" statement, computed;
//! * per-segment latency deltas must **telescope**: because each trace
//!   analysis guarantees Σ segment means = e2e mean (1e-9 discipline), the
//!   per-segment deltas between two runs must sum to the e2e latency delta.
//!   [`TelescopeCheck`] carries both sides so callers can assert the residual
//!   (the CLI and CI hold it to 1e-6);
//! * run provenance (`seed`, `config_digest`) is extracted from both sides
//!   and compared — diffing artifacts from different configurations is
//!   refused by the CLI unless forced, because a delta between unlike runs
//!   attributes nothing.
//!
//! The engine consumes parsed [`Json`] values, so it accepts any artifact the
//! stack emits without a per-type Rust decoder: the flat run summary, the
//! (possibly combined) `analyze --json` document and `profile --json`
//! (merged and per-shard). Health timelines are the one exception: they are
//! JSONL (one object per line, so `Json::parse` on the whole file fails) and
//! are recognized by [`HealthReport::sniff`] before the JSON parser runs,
//! then decoded with [`HealthReport::from_jsonl`].

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::event::RunProvenance;
use crate::json::{escape, Json};
use crate::online::{HealthReport, Regime, StationHealth};

/// Which artifact family a document was recognized as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A `fabricsim --json` run summary (flat metrics + bottleneck report).
    RunSummary,
    /// An `analyze --json` document: trace analysis, span-graph analysis, or
    /// the combined form holding both.
    Analysis,
    /// A `profile --json` document (merged kernel profile + optional shards).
    Profile,
    /// A `--health-out` streaming health timeline (JSONL: events + station
    /// accounting + summary trailer).
    Health,
}

impl ArtifactKind {
    /// Stable label used in reports and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::RunSummary => "run_summary",
            ArtifactKind::Analysis => "analysis",
            ArtifactKind::Profile => "profile",
            ArtifactKind::Health => "health",
        }
    }
}

/// Run provenance extracted from one side of a diff.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiffProvenance {
    /// RNG seed of the run, when the artifact records it.
    pub seed: Option<u64>,
    /// Configuration digest of the run, when the artifact records it.
    pub config_digest: Option<String>,
}

/// One numeric metric present in both artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted metric path (e.g. `overall_latency.mean_s`,
    /// `delivered→vscc_done.mean_s`).
    pub name: String,
    /// The metric's value in artifact A.
    pub a: f64,
    /// The metric's value in artifact B.
    pub b: f64,
}

impl DiffEntry {
    /// The signed change, `B − A`.
    pub fn delta(&self) -> f64 {
        self.b - self.a
    }
}

/// A string-valued dominance dimension that changed between the runs —
/// the computed form of "the bottleneck moved".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shift {
    /// What moved (e.g. `hottest_station`, `trace.dominant_segment`).
    pub dimension: String,
    /// The dominant value in artifact A.
    pub a: String,
    /// The dominant value in artifact B.
    pub b: String,
}

/// The telescoping-delta invariant for one latency decomposition: the sum of
/// per-segment deltas must equal the end-to-end delta (each side's analysis
/// already guarantees Σ segment = e2e within 1e-9, so the deltas inherit it).
#[derive(Debug, Clone, PartialEq)]
pub struct TelescopeCheck {
    /// The end-to-end metric the segments decompose (e.g. `trace.e2e.mean_s`).
    pub metric: String,
    /// `B − A` of the end-to-end metric, seconds.
    pub e2e_delta_s: f64,
    /// Sum of per-segment deltas, seconds.
    pub segment_delta_sum_s: f64,
}

impl TelescopeCheck {
    /// `|Σ segment deltas − e2e delta|` — the attribution error.
    pub fn residual_s(&self) -> f64 {
        (self.segment_delta_sum_s - self.e2e_delta_s).abs()
    }
}

/// One comparable slice of an artifact pair (e.g. "trace segments",
/// "kernel profile (shard 2)").
#[derive(Debug, Clone, Default)]
pub struct DiffSection {
    /// Human-readable section title.
    pub title: String,
    /// Shared numeric metrics, sorted by `|delta|` descending (ties broken
    /// by name so equal-seed diffs render identically).
    pub entries: Vec<DiffEntry>,
    /// Dominance dimensions that changed.
    pub shifts: Vec<Shift>,
    /// Telescoping-delta checks for this section's decompositions.
    pub telescopes: Vec<TelescopeCheck>,
    /// Asymmetries that prevented a comparison (metric only on one side,
    /// mismatched shard counts, …).
    pub notes: Vec<String>,
}

impl DiffSection {
    fn new(title: &str) -> DiffSection {
        DiffSection {
            title: title.to_string(),
            ..DiffSection::default()
        }
    }

    fn push(&mut self, name: impl Into<String>, a: f64, b: f64) {
        self.entries.push(DiffEntry {
            name: name.into(),
            a,
            b,
        });
    }

    fn shift_if_changed(&mut self, dimension: &str, a: Option<&str>, b: Option<&str>) {
        if let (Some(a), Some(b)) = (a, b) {
            if a != b {
                self.shifts.push(Shift {
                    dimension: dimension.to_string(),
                    a: a.to_string(),
                    b: b.to_string(),
                });
            }
        }
    }

    fn sort_entries(&mut self) {
        self.entries.sort_by(|x, y| {
            y.delta()
                .abs()
                .total_cmp(&x.delta().abs())
                .then_with(|| x.name.cmp(&y.name))
        });
    }
}

/// Why two artifacts could not be diffed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// One side failed to parse: a syntax error, a malformed health line, or
    /// a provenance `seed` that is not an exact `u64`.
    Json {
        /// Which side (`'A'` or `'B'`).
        side: char,
        /// Parser error detail.
        detail: String,
    },
    /// One side parsed but matches no known artifact schema.
    Unknown {
        /// Which side (`'A'` or `'B'`).
        side: char,
    },
    /// The two sides are different artifact families.
    KindMismatch {
        /// Artifact kind of side A.
        a: ArtifactKind,
        /// Artifact kind of side B.
        b: ArtifactKind,
    },
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Json { side, detail } => {
                write!(f, "side {side} does not parse: {detail}")
            }
            DiffError::Unknown { side } => write!(
                f,
                "side {side} matches no known artifact schema (expected a run \
                 summary, analyze --json, profile --json or a health timeline)"
            ),
            DiffError::KindMismatch { a, b } => write!(
                f,
                "cannot diff unlike artifacts: side A is a {} but side B is a {}",
                a.label(),
                b.label()
            ),
        }
    }
}

impl std::error::Error for DiffError {}

/// The full pairwise comparison of two artifacts of the same kind.
#[derive(Debug, Clone)]
pub struct ArtifactDiff {
    /// The recognized artifact family.
    pub kind: ArtifactKind,
    /// Provenance of side A and side B, in that order.
    pub provenance: [DiffProvenance; 2],
    /// Whether the two sides' `config_digest`s agree: `None` when either side
    /// records none, `Some(true/false)` otherwise.
    pub digest_match: Option<bool>,
    /// The comparable sections, in artifact order.
    pub sections: Vec<DiffSection>,
}

impl ArtifactDiff {
    /// Diffs two artifact documents given as JSON text.
    ///
    /// # Errors
    /// [`DiffError`] when either side fails to parse, matches no known
    /// artifact schema, or the two sides are different artifact families.
    pub fn from_json_strs(a: &str, b: &str) -> Result<ArtifactDiff, DiffError> {
        // Health timelines are JSONL, not a single JSON document — sniff and
        // route them before the whole-document parse (which would fail on the
        // second line).
        let (ha, hb) = (HealthReport::sniff(a), HealthReport::sniff(b));
        if ha && hb {
            return health_diff(a, b);
        }
        if ha != hb {
            let (side, text) = if ha { ('B', b) } else { ('A', a) };
            let j = Json::parse(text).map_err(|detail| DiffError::Json { side, detail })?;
            let k = sniff(&j).ok_or(DiffError::Unknown { side })?;
            let (a, b) = if ha {
                (ArtifactKind::Health, k)
            } else {
                (k, ArtifactKind::Health)
            };
            return Err(DiffError::KindMismatch { a, b });
        }
        let ja = Json::parse(a).map_err(|detail| DiffError::Json { side: 'A', detail })?;
        let jb = Json::parse(b).map_err(|detail| DiffError::Json { side: 'B', detail })?;
        ArtifactDiff::from_json(&ja, &jb)
    }

    /// Diffs two parsed artifact documents.
    ///
    /// # Errors
    /// [`DiffError::Unknown`] / [`DiffError::KindMismatch`] as for
    /// [`ArtifactDiff::from_json_strs`]; [`DiffError::Json`] for a
    /// provenance `seed` that is not an exact `u64`.
    pub fn from_json(a: &Json, b: &Json) -> Result<ArtifactDiff, DiffError> {
        let ka = sniff(a).ok_or(DiffError::Unknown { side: 'A' })?;
        let kb = sniff(b).ok_or(DiffError::Unknown { side: 'B' })?;
        if ka != kb {
            return Err(DiffError::KindMismatch { a: ka, b: kb });
        }
        let prov = [provenance_of(a, 'A')?, provenance_of(b, 'B')?];
        let digest_match = digests_match(&prov);
        let sections = match ka {
            ArtifactKind::RunSummary => run_summary_sections(a, b),
            ArtifactKind::Analysis => analysis_sections(a, b),
            ArtifactKind::Profile => profile_sections(a, b),
            // Unreachable from sniff(): health timelines are JSONL and are
            // routed through `health_diff` before whole-document parsing.
            ArtifactKind::Health => Vec::new(),
        };
        Ok(ArtifactDiff {
            kind: ka,
            provenance: prov,
            digest_match,
            sections,
        })
    }

    /// The largest `|delta|` across every entry of every section (0 when
    /// there are no entries — and exactly 0 for a self-diff).
    pub fn max_abs_delta(&self) -> f64 {
        self.sections
            .iter()
            .flat_map(|s| s.entries.iter())
            .map(|e| e.delta().abs())
            .fold(0.0, f64::max)
    }

    /// Every dominance shift detected, across all sections.
    pub fn shifts(&self) -> impl Iterator<Item = &Shift> {
        self.sections.iter().flat_map(|s| s.shifts.iter())
    }

    /// The largest telescoping residual across every section's checks (0
    /// when there are none).
    pub fn max_telescope_residual_s(&self) -> f64 {
        self.sections
            .iter()
            .flat_map(|s| s.telescopes.iter())
            .map(TelescopeCheck::residual_s)
            .fold(0.0, f64::max)
    }

    /// Human-readable report: provenance header, shifts, telescoping checks,
    /// then each section's entries ranked by `|delta|` (top entries only;
    /// `to_json` carries the full set).
    pub fn render_table(&self) -> String {
        const TOP: usize = 24;
        let mut out = String::new();
        let _ = writeln!(out, "== diff: {} ==", self.kind.label());
        let side = |p: &DiffProvenance| {
            format!(
                "seed={} digest={}",
                p.seed.map_or_else(|| "?".to_string(), |s| s.to_string()),
                p.config_digest.as_deref().unwrap_or("?")
            )
        };
        let digest_note = match self.digest_match {
            Some(true) => "match",
            Some(false) => "MISMATCH",
            None => "unknown",
        };
        let _ = writeln!(
            out,
            "provenance : A {} | B {}  [digests: {digest_note}]",
            side(&self.provenance[0]),
            side(&self.provenance[1])
        );
        let shifts: Vec<&Shift> = self.shifts().collect();
        if shifts.is_empty() {
            let _ = writeln!(out, "bottleneck : no dominance shift detected");
        } else {
            for s in shifts {
                let _ = writeln!(
                    out,
                    "bottleneck : {} shifted: {} -> {}",
                    s.dimension, s.a, s.b
                );
            }
        }
        for sec in &self.sections {
            let _ = writeln!(out, "\n-- {} --", sec.title);
            for t in &sec.telescopes {
                let _ = writeln!(
                    out,
                    "telescoping: {} Δe2e {:+.6}s vs Σ segment Δ {:+.6}s (residual {:.3e}s)",
                    t.metric,
                    t.e2e_delta_s,
                    t.segment_delta_sum_s,
                    t.residual_s()
                );
            }
            if !sec.entries.is_empty() {
                let _ = writeln!(
                    out,
                    "{:<44} {:>14} {:>14} {:>14}",
                    "metric", "A", "B", "delta"
                );
                for e in sec.entries.iter().take(TOP) {
                    let _ = writeln!(
                        out,
                        "{:<44} {:>14.6} {:>14.6} {:>+14.6}",
                        e.name,
                        e.a,
                        e.b,
                        e.delta()
                    );
                }
                if sec.entries.len() > TOP {
                    let _ = writeln!(
                        out,
                        "... {} smaller-delta metric(s) omitted (see --json)",
                        sec.entries.len() - TOP
                    );
                }
            }
            for n in &sec.notes {
                let _ = writeln!(out, "note: {n}");
            }
        }
        out
    }

    /// Compact JSON rendering (stable key order, full entry set).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"kind\":\"{}\"", self.kind.label());
        out.push_str(",\"provenance\":[");
        for (i, p) in self.provenance.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            match p.seed {
                Some(s) => {
                    let _ = write!(out, "\"seed\":{s}");
                }
                None => out.push_str("\"seed\":null"),
            }
            match &p.config_digest {
                Some(d) => {
                    let _ = write!(out, ",\"config_digest\":\"{}\"", escape(d));
                }
                None => out.push_str(",\"config_digest\":null"),
            }
            out.push('}');
        }
        out.push_str("],\"digest_match\":");
        match self.digest_match {
            Some(v) => {
                let _ = write!(out, "{v}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"max_abs_delta\":{},\"max_telescope_residual_s\":{}",
            self.max_abs_delta(),
            self.max_telescope_residual_s()
        );
        out.push_str(",\"sections\":[");
        for (i, sec) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"title\":\"{}\",\"entries\":[", escape(&sec.title));
            for (j, e) in sec.entries.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"a\":{},\"b\":{},\"delta\":{}}}",
                    escape(&e.name),
                    e.a,
                    e.b,
                    e.delta()
                );
            }
            out.push_str("],\"shifts\":[");
            for (j, s) in sec.shifts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"dimension\":\"{}\",\"a\":\"{}\",\"b\":\"{}\"}}",
                    escape(&s.dimension),
                    escape(&s.a),
                    escape(&s.b)
                );
            }
            out.push_str("],\"telescopes\":[");
            for (j, t) in sec.telescopes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"metric\":\"{}\",\"e2e_delta_s\":{},\"segment_delta_sum_s\":{},\"residual_s\":{}}}",
                    escape(&t.metric),
                    t.e2e_delta_s,
                    t.segment_delta_sum_s,
                    t.residual_s()
                );
            }
            out.push_str("],\"notes\":[");
            for (j, n) in sec.notes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", escape(n));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Recognizes which artifact family a parsed document belongs to.
fn sniff(j: &Json) -> Option<ArtifactKind> {
    let has = |k: &str| j.get(k).is_some();
    if has("hottest_station") {
        return Some(ArtifactKind::RunSummary);
    }
    if has("merged") || (has("loop_ns") && has("entries")) {
        return Some(ArtifactKind::Profile);
    }
    if has("trace")
        || has("span_graph")
        || (has("e2e") && has("segments"))
        || (has("mean_path_s") && has("actors"))
    {
        return Some(ArtifactKind::Analysis);
    }
    None
}

/// Extracts seed/config_digest from a document: a nested `"provenance"`
/// object when present (analyze output), top-level fields otherwise (run
/// summaries, profile output).
///
/// A `seed` that is present must be an exact `u64` (see [`Json::uint`]).
fn provenance_of(j: &Json, side: char) -> Result<DiffProvenance, DiffError> {
    let p = match j.get("provenance") {
        Some(p @ Json::Obj(_)) => p,
        _ => j,
    };
    let seed = p
        .get("seed")
        .map(|_| p.uint("seed"))
        .transpose()
        .map_err(|detail| DiffError::Json { side, detail })?;
    Ok(DiffProvenance {
        seed,
        config_digest: p
            .get("config_digest")
            .and_then(Json::as_str)
            .map(str::to_string),
    })
}

/// Whether the two sides' `config_digest`s agree (`None` when either side
/// records none).
fn digests_match(prov: &[DiffProvenance; 2]) -> Option<bool> {
    Some(prov[0].config_digest.as_ref()? == prov[1].config_digest.as_ref()?)
}

/// Flattens every numeric leaf of an object tree into `path → value`
/// (dotted paths). Arrays are skipped — they hold per-item detail
/// (histograms, window attributions) that the section builders mine
/// explicitly where a pairing key exists.
fn flatten_numeric(prefix: &str, j: &Json, out: &mut BTreeMap<String, f64>) {
    if let Some(n) = j.as_f64() {
        out.insert(prefix.to_string(), n);
    } else if let Json::Obj(m) = j {
        for (k, v) in m {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            flatten_numeric(&path, v, out);
        }
    }
}

/// Diffs two flattened metric maps into a section: shared keys become
/// entries, one-sided keys become notes.
fn diff_flat(sec: &mut DiffSection, fa: &BTreeMap<String, f64>, fb: &BTreeMap<String, f64>) {
    for (k, va) in fa {
        match fb.get(k) {
            Some(vb) => sec.push(k.clone(), *va, *vb),
            None => sec.notes.push(format!("metric {k} only in A")),
        }
    }
    for k in fb.keys() {
        if !fa.contains_key(k) {
            sec.notes.push(format!("metric {k} only in B"));
        }
    }
}

fn num(j: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = j;
    for k in path {
        cur = cur.get(k)?;
    }
    cur.as_f64()
}

fn run_summary_sections(a: &Json, b: &Json) -> Vec<DiffSection> {
    let mut sec = DiffSection::new("run summary");
    let flat = |j: &Json| {
        let mut m = BTreeMap::new();
        flatten_numeric("", j, &mut m);
        // The seed is provenance, not a metric — a seed "delta" means nothing.
        m.remove("seed");
        m
    };
    diff_flat(&mut sec, &flat(a), &flat(b));
    sec.shift_if_changed(
        "hottest_station",
        a.get("hottest_station").and_then(Json::as_str),
        b.get("hottest_station").and_then(Json::as_str),
    );
    sec.sort_entries();
    vec![sec]
}

/// Locates the trace-analysis subtree: the `"trace"` key of a combined
/// analyze document, or the document itself when bare.
fn trace_tree(j: &Json) -> Option<&Json> {
    if let Some(t @ Json::Obj(_)) = j.get("trace") {
        return Some(t);
    }
    if j.get("e2e").is_some() && j.get("segments").is_some() {
        return Some(j);
    }
    None
}

/// Locates the span-graph subtree (`"span_graph"` key or bare document).
fn span_tree(j: &Json) -> Option<&Json> {
    if let Some(g @ Json::Obj(_)) = j.get("span_graph") {
        return Some(g);
    }
    if j.get("mean_path_s").is_some() && j.get("actors").is_some() {
        return Some(j);
    }
    None
}

fn analysis_sections(a: &Json, b: &Json) -> Vec<DiffSection> {
    let mut out = Vec::new();
    match (trace_tree(a), trace_tree(b)) {
        (Some(ta), Some(tb)) => out.push(trace_section(ta, tb)),
        (Some(_), None) | (None, Some(_)) => {
            let mut sec = DiffSection::new("trace segments");
            sec.notes
                .push("trace analysis present on one side only; not compared".into());
            out.push(sec);
        }
        (None, None) => {}
    }
    match (span_tree(a), span_tree(b)) {
        (Some(ga), Some(gb)) => out.push(span_graph_section(ga, gb)),
        (Some(_), None) | (None, Some(_)) => {
            let mut sec = DiffSection::new("span-graph critical path");
            sec.notes
                .push("span-graph analysis present on one side only; not compared".into());
            out.push(sec);
        }
        (None, None) => {}
    }
    out
}

/// Per-segment stats mined from a trace analysis: `from→to` → selected
/// numeric fields.
fn trace_segments(t: &Json) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    for seg in t
        .get("segments")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        let (Some(from), Some(to)) = (
            seg.get("from").and_then(Json::as_str),
            seg.get("to").and_then(Json::as_str),
        ) else {
            continue;
        };
        let name = format!("{from}→{to}");
        let mut fields = BTreeMap::new();
        for f in [
            "mean_s",
            "p95_s",
            "mean_queued_s",
            "mean_service_s",
            "critical",
            "observed",
        ] {
            if let Some(v) = seg.get(f).and_then(Json::as_f64) {
                fields.insert(f.to_string(), v);
            }
        }
        out.insert(name, fields);
    }
    out
}

/// The dominant (most-critical) segment of a trace analysis, mirroring
/// `TraceAnalysis::dominant_segment` (ties keep the later segment, as
/// `max_by_key` does).
fn trace_dominant(t: &Json) -> Option<String> {
    let mut best: Option<(f64, String)> = None;
    for seg in t
        .get("segments")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        let crit = seg.get("critical").and_then(Json::as_f64).unwrap_or(0.0);
        let (Some(from), Some(to)) = (
            seg.get("from").and_then(Json::as_str),
            seg.get("to").and_then(Json::as_str),
        ) else {
            continue;
        };
        if best.as_ref().is_none_or(|(c, _)| crit >= *c) {
            best = Some((crit, format!("{from}→{to}")));
        }
    }
    best.map(|(_, name)| name)
}

fn trace_section(ta: &Json, tb: &Json) -> DiffSection {
    let mut sec = DiffSection::new("trace segments");
    for (path, label) in [
        (["e2e", "mean_s"], "e2e.mean_s"),
        (["e2e", "p50_s"], "e2e.p50_s"),
        (["e2e", "p95_s"], "e2e.p95_s"),
        (["e2e", "p99_s"], "e2e.p99_s"),
        (["e2e", "max_s"], "e2e.max_s"),
    ] {
        if let (Some(va), Some(vb)) = (num(ta, &path), num(tb, &path)) {
            sec.push(label, va, vb);
        }
    }
    for key in ["committed", "failed", "incomplete"] {
        if let (Some(va), Some(vb)) = (num(ta, &[key]), num(tb, &[key])) {
            sec.push(key, va, vb);
        }
    }
    for group in ["execute", "order", "validate"] {
        if let (Some(va), Some(vb)) = (
            num(ta, &["dominance", group]),
            num(tb, &["dominance", group]),
        ) {
            sec.push(format!("dominance.{group}"), va, vb);
        }
    }
    let sa = trace_segments(ta);
    let sb = trace_segments(tb);
    let mut seg_delta_sum = 0.0;
    let names: std::collections::BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
    for name in names {
        let fa = sa.get(name);
        let fb = sb.get(name);
        if fa.is_none() || fb.is_none() {
            let side = if fa.is_some() { 'A' } else { 'B' };
            sec.notes.push(format!(
                "segment {name} only in {side} (treated as 0 elsewhere)"
            ));
        }
        let field = |side: Option<&BTreeMap<String, f64>>, f: &str| {
            side.and_then(|m| m.get(f).copied()).unwrap_or(0.0)
        };
        let (ma, mb) = (field(fa, "mean_s"), field(fb, "mean_s"));
        seg_delta_sum += mb - ma;
        sec.push(format!("{name}.mean_s"), ma, mb);
        for f in ["mean_queued_s", "mean_service_s", "critical"] {
            sec.push(format!("{name}.{f}"), field(fa, f), field(fb, f));
        }
    }
    if let (Some(ea), Some(eb)) = (num(ta, &["e2e", "mean_s"]), num(tb, &["e2e", "mean_s"])) {
        sec.telescopes.push(TelescopeCheck {
            metric: "trace.e2e.mean_s".into(),
            e2e_delta_s: eb - ea,
            segment_delta_sum_s: seg_delta_sum,
        });
    }
    sec.shift_if_changed(
        "trace.dominant_segment",
        trace_dominant(ta).as_deref(),
        trace_dominant(tb).as_deref(),
    );
    sec.sort_entries();
    sec
}

/// `name → seconds` from a span-graph `segments`/`actors` list.
fn named_seconds(j: &Json, key: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for item in j.get(key).and_then(Json::as_array).unwrap_or_default() {
        if let (Some(name), Some(secs)) = (
            item.get("name").and_then(Json::as_str),
            item.get("seconds").and_then(Json::as_f64),
        ) {
            out.insert(name.to_string(), secs);
        }
    }
    out
}

/// The first (largest-share) name in a span-graph dominance list.
fn first_name(j: &Json, key: &str) -> Option<String> {
    j.get(key)
        .and_then(Json::as_array)
        .and_then(|a| a.first())
        .and_then(|item| item.get("name"))
        .and_then(Json::as_str)
        .map(str::to_string)
}

fn span_graph_section(ga: &Json, gb: &Json) -> DiffSection {
    let mut sec = DiffSection::new("span-graph critical path");
    for key in ["spans", "txs", "mean_path_s", "max_residual_s"] {
        if let (Some(va), Some(vb)) = (num(ga, &[key]), num(gb, &[key])) {
            sec.push(key, va, vb);
        }
    }
    let diff_named = |key: &str, sec: &mut DiffSection| -> f64 {
        let ma = named_seconds(ga, key);
        let mb = named_seconds(gb, key);
        let names: std::collections::BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
        let mut delta_sum = 0.0;
        for name in names {
            let va = ma.get(name).copied().unwrap_or(0.0);
            let vb = mb.get(name).copied().unwrap_or(0.0);
            delta_sum += vb - va;
            sec.push(format!("{key}:{name}.seconds"), va, vb);
        }
        delta_sum
    };
    let seg_delta_sum = diff_named("segments", &mut sec);
    let _ = diff_named("actors", &mut sec);
    // Each committed tx's critical path tiles committed−created exactly, so
    // total path seconds (txs × mean) decompose over the segment shares.
    if let (Some(ta), Some(ma), Some(tb), Some(mb)) = (
        num(ga, &["txs"]),
        num(ga, &["mean_path_s"]),
        num(gb, &["txs"]),
        num(gb, &["mean_path_s"]),
    ) {
        sec.telescopes.push(TelescopeCheck {
            metric: "span_graph.path_total_s".into(),
            e2e_delta_s: tb * mb - ta * ma,
            segment_delta_sum_s: seg_delta_sum,
        });
    }
    sec.shift_if_changed(
        "span_graph.dominant_segment",
        first_name(ga, "segments").as_deref(),
        first_name(gb, "segments").as_deref(),
    );
    sec.shift_if_changed(
        "span_graph.dominant_actor",
        first_name(ga, "actors").as_deref(),
        first_name(gb, "actors").as_deref(),
    );
    sec.sort_entries();
    sec
}

/// `label → (ns, count)` from a kernel profile's `entries` list.
fn profile_entries(j: &Json) -> BTreeMap<String, (f64, f64)> {
    let mut out = BTreeMap::new();
    for e in j
        .get("entries")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        if let (Some(label), Some(ns)) = (
            e.get("label").and_then(Json::as_str),
            e.get("ns").and_then(Json::as_f64),
        ) {
            let count = e.get("count").and_then(Json::as_f64).unwrap_or(0.0);
            out.insert(label.to_string(), (ns, count));
        }
    }
    out
}

fn profile_section(title: &str, pa: &Json, pb: &Json) -> DiffSection {
    let mut sec = DiffSection::new(title);
    for key in [
        "loop_ns",
        "heap_ns",
        "heap_ops",
        "overhead_ns",
        "attributed_ns",
    ] {
        if let (Some(va), Some(vb)) = (num(pa, &[key]), num(pb, &[key])) {
            sec.push(key, va, vb);
        }
    }
    let ea = profile_entries(pa);
    let eb = profile_entries(pb);
    let labels: std::collections::BTreeSet<&String> = ea.keys().chain(eb.keys()).collect();
    for label in labels {
        if !ea.contains_key(label) || !eb.contains_key(label) {
            let side = if ea.contains_key(label) { 'A' } else { 'B' };
            sec.notes.push(format!(
                "handler {label} only in {side} (treated as 0 elsewhere)"
            ));
        }
        let (na, ca) = ea.get(label).copied().unwrap_or((0.0, 0.0));
        let (nb, cb) = eb.get(label).copied().unwrap_or((0.0, 0.0));
        sec.push(format!("handler:{label}.ns"), na, nb);
        sec.push(format!("handler:{label}.count"), ca, cb);
    }
    // Entries are sorted hottest-first by the profiler, so the first label
    // is the dominant handler.
    let hottest = |j: &Json| {
        j.get("entries")
            .and_then(Json::as_array)
            .and_then(|a| a.first())
            .and_then(|e| e.get("label"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    sec.shift_if_changed(
        "profile.hottest_handler",
        hottest(pa).as_deref(),
        hottest(pb).as_deref(),
    );
    sec.sort_entries();
    sec
}

fn profile_sections(a: &Json, b: &Json) -> Vec<DiffSection> {
    let merged = |j: &Json| match j.get("merged") {
        Some(m @ Json::Obj(_)) => m.clone(),
        _ => j.clone(),
    };
    let mut out = vec![profile_section(
        "kernel profile (merged)",
        &merged(a),
        &merged(b),
    )];
    fn shards(j: &Json) -> &[Json] {
        j.get("shards").and_then(Json::as_array).unwrap_or_default()
    }
    let (sa, sb) = (shards(a), shards(b));
    if sa.len() == sb.len() {
        for (i, (pa, pb)) in sa.iter().zip(sb.iter()).enumerate() {
            out.push(profile_section(
                &format!("kernel profile (shard {i})"),
                pa,
                pb,
            ));
        }
    } else if !sa.is_empty() || !sb.is_empty() {
        let mut sec = DiffSection::new("kernel profile (shards)");
        sec.notes.push(format!(
            "shard count differs (A has {}, B has {}); per-shard profiles not compared",
            sa.len(),
            sb.len()
        ));
        out.push(sec);
    }
    out
}

/// Diffs two health timelines (JSONL text on both sides).
fn health_diff(a: &str, b: &str) -> Result<ArtifactDiff, DiffError> {
    let (pa, ra) =
        HealthReport::from_jsonl(a).map_err(|detail| DiffError::Json { side: 'A', detail })?;
    let (pb, rb) =
        HealthReport::from_jsonl(b).map_err(|detail| DiffError::Json { side: 'B', detail })?;
    let prov_of = |p: &Option<RunProvenance>| DiffProvenance {
        seed: p.as_ref().map(|p| p.seed),
        config_digest: p.as_ref().map(|p| p.config_digest.clone()),
    };
    let prov = [prov_of(&pa), prov_of(&pb)];
    Ok(ArtifactDiff {
        kind: ArtifactKind::Health,
        digest_match: digests_match(&prov),
        provenance: prov,
        sections: health_sections(&ra, &rb),
    })
}

/// The station whose regime history was worst: ranked by overloaded dwell,
/// then saturating dwell, then label for a deterministic tie-break.
fn health_dominant<'a>(
    stations: impl Iterator<Item = (&'a StationHealth, String)>,
) -> Option<String> {
    stations
        .max_by(|(x, xl), (y, yl)| {
            x.dwell_s[2]
                .total_cmp(&y.dwell_s[2])
                .then(x.dwell_s[1].total_cmp(&y.dwell_s[1]))
                .then(yl.cmp(xl))
        })
        .map(|(_, label)| label)
}

fn health_sections(ra: &HealthReport, rb: &HealthReport) -> Vec<DiffSection> {
    let mut summary = DiffSection::new("health summary");
    for (name, va, vb) in [
        ("window_s", ra.window_s, rb.window_s),
        ("horizon_s", ra.horizon_s, rb.horizon_s),
        ("slo_p99_s", ra.slo_p99_s, rb.slo_p99_s),
        ("channels", f64::from(ra.channels), f64::from(rb.channels)),
        ("windows", ra.windows as f64, rb.windows as f64),
        ("completions", ra.completions as f64, rb.completions as f64),
        (
            "slo_violations",
            ra.slo_violations as f64,
            rb.slo_violations as f64,
        ),
        (
            "burn_windows",
            ra.burn_windows as f64,
            rb.burn_windows as f64,
        ),
        ("max_burn", ra.max_burn, rb.max_burn),
        ("events", ra.events.len() as f64, rb.events.len() as f64),
        (
            "dropped_events",
            ra.dropped_events as f64,
            rb.dropped_events as f64,
        ),
    ] {
        summary.push(name, va, vb);
    }
    summary.sort_entries();

    let mut sec = DiffSection::new("regime dwell & onset");
    // Channel-qualify the station labels only when either side actually
    // merged multiple channels, so single-channel diffs stay terse.
    let multi = ra.channels > 1 || rb.channels > 1;
    let label = |s: &StationHealth| {
        if multi {
            format!("ch{}.{}", s.channel, s.station)
        } else {
            s.station.clone()
        }
    };
    fn index(r: &HealthReport) -> BTreeMap<(u32, String), &StationHealth> {
        r.stations
            .iter()
            .map(|s| ((s.channel, s.station.clone()), s))
            .collect()
    }
    let (ma, mb) = (index(ra), index(rb));
    let keys: std::collections::BTreeSet<&(u32, String)> = ma.keys().chain(mb.keys()).collect();
    for key in keys {
        let (sa, sb) = match (ma.get(key), mb.get(key)) {
            (Some(sa), Some(sb)) => (*sa, *sb),
            (one, _) => {
                let side = if one.is_some() { 'A' } else { 'B' };
                sec.notes
                    .push(format!("station ch{}.{} only in {side}", key.0, key.1));
                continue;
            }
        };
        let name = label(sa);
        let mut dwell_delta_sum = 0.0;
        for regime in Regime::ALL {
            let sev = regime.severity();
            let (da, db) = (sa.dwell_s[sev], sb.dwell_s[sev]);
            dwell_delta_sum += db - da;
            sec.push(format!("{name}.dwell.{}_s", regime.label()), da, db);
            match (sa.onset_s[sev], sb.onset_s[sev]) {
                (Some(oa), Some(ob)) => {
                    sec.push(format!("{name}.onset.{}_s", regime.label()), oa, ob);
                }
                (Some(_), None) => sec.notes.push(format!(
                    "{name}: {} entered only in A (never in B)",
                    regime.label()
                )),
                (None, Some(_)) => sec.notes.push(format!(
                    "{name}: {} entered only in B (never in A)",
                    regime.label()
                )),
                (None, None) => {}
            }
        }
        // Each station's dwells tile its run horizon, so per-station dwell
        // deltas must telescope to the horizon delta.
        sec.telescopes.push(TelescopeCheck {
            metric: format!("health.{name}.dwell_total_s"),
            e2e_delta_s: rb.horizon_s - ra.horizon_s,
            segment_delta_sum_s: dwell_delta_sum,
        });
        sec.shift_if_changed(
            &format!("health.{name}.final_regime"),
            Some(sa.regime.label()),
            Some(sb.regime.label()),
        );
    }
    sec.shift_if_changed(
        "health.dominant_station",
        health_dominant(ra.stations.iter().map(|s| (s, label(s)))).as_deref(),
        health_dominant(rb.stations.iter().map(|s| (s, label(s)))).as_deref(),
    );
    sec.sort_entries();
    vec![summary, sec]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_doc(seg1_mean: f64, seg2_mean: f64, crit1: u64, crit2: u64, digest: &str) -> String {
        let e2e = seg1_mean + seg2_mean;
        format!(
            "{{\"provenance\":{{\"seed\":42,\"config_digest\":\"{digest}\"}},\"trace\":{{\
             \"committed\":10,\"failed\":0,\"incomplete\":0,\
             \"e2e\":{{\"count\":10,\"mean_s\":{e2e},\"p50_s\":{e2e},\"p95_s\":{e2e},\"p99_s\":{e2e},\"max_s\":{e2e}}},\
             \"segment_mean_sum_s\":{e2e},\"segments\":[\
             {{\"from\":\"delivered\",\"to\":\"vscc_done\",\"group\":\"validate\",\"observed\":10,\
              \"mean_s\":{seg1_mean},\"p50_s\":0,\"p95_s\":0,\"p99_s\":0,\"max_s\":0,\
              \"mean_queued_s\":0,\"mean_service_s\":{seg1_mean},\"critical\":{crit1}}},\
             {{\"from\":\"vscc_done\",\"to\":\"committed\",\"group\":\"validate\",\"observed\":10,\
              \"mean_s\":{seg2_mean},\"p50_s\":0,\"p95_s\":0,\"p99_s\":0,\"max_s\":0,\
              \"mean_queued_s\":0,\"mean_service_s\":{seg2_mean},\"critical\":{crit2}}}],\
             \"dominance\":{{\"execute\":0,\"order\":0,\"validate\":10}},\"slowest\":[]}}}}"
        )
    }

    #[test]
    fn self_diff_is_all_zero_with_no_shifts() {
        let doc = trace_doc(0.6, 0.2, 8, 2, "aaaa");
        let d = ArtifactDiff::from_json_strs(&doc, &doc).expect("diffs");
        assert_eq!(d.kind, ArtifactKind::Analysis);
        assert_eq!(d.digest_match, Some(true));
        assert_eq!(d.max_abs_delta(), 0.0);
        assert_eq!(d.shifts().count(), 0);
        assert!(d.max_telescope_residual_s() < 1e-12);
        assert!(d.to_json().contains("\"max_abs_delta\":0"));
    }

    #[test]
    fn detects_bottleneck_shift_and_telescopes() {
        let a = trace_doc(0.6, 0.2, 8, 2, "aaaa");
        let b = trace_doc(0.1, 0.3, 3, 7, "bbbb");
        let d = ArtifactDiff::from_json_strs(&a, &b).expect("diffs");
        assert_eq!(d.digest_match, Some(false));
        let shifts: Vec<&Shift> = d.shifts().collect();
        assert_eq!(shifts.len(), 1);
        assert_eq!(shifts[0].dimension, "trace.dominant_segment");
        assert_eq!(shifts[0].a, "delivered→vscc_done");
        assert_eq!(shifts[0].b, "vscc_done→committed");
        let tel = &d.sections[0].telescopes[0];
        assert!((tel.e2e_delta_s - (-0.4)).abs() < 1e-12);
        assert!(tel.residual_s() < 1e-9, "residual {}", tel.residual_s());
        // Ranked by |delta|: the 0.5s segment-mean drop outranks everything
        // except equal-magnitude e2e aggregates.
        let top = &d.sections[0].entries[0];
        assert!(top.delta().abs() >= 0.4, "top entry {top:?}");
        assert_eq!(d.provenance[0].seed, Some(42));
    }

    #[test]
    fn entries_rank_by_abs_delta_with_name_ties() {
        let a = r#"{"hottest_station":"peer vscc","x":1.0,"y":5.0,"z":2.0}"#;
        let b = r#"{"hottest_station":"peer commit","x":1.5,"y":2.0,"z":2.1}"#;
        let d = ArtifactDiff::from_json_strs(a, b).expect("diffs");
        assert_eq!(d.kind, ArtifactKind::RunSummary);
        let names: Vec<&str> = d.sections[0]
            .entries
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, ["y", "x", "z"]);
        let shifts: Vec<&Shift> = d.shifts().collect();
        assert_eq!(shifts.len(), 1);
        assert_eq!(shifts[0].dimension, "hottest_station");
        assert_eq!(
            (shifts[0].a.as_str(), shifts[0].b.as_str()),
            ("peer vscc", "peer commit")
        );
    }

    #[test]
    fn run_summary_seed_is_provenance_not_a_metric() {
        let a = r#"{"hottest_station":"peer vscc","seed":42,"x":1.0}"#;
        let b = r#"{"hottest_station":"peer vscc","seed":43,"x":1.0}"#;
        let d = ArtifactDiff::from_json_strs(a, b).expect("diffs");
        assert_eq!(d.max_abs_delta(), 0.0, "seed delta must not be a metric");
        assert_eq!(d.provenance[0].seed, Some(42));
        assert_eq!(d.provenance[1].seed, Some(43));
    }

    #[test]
    fn profile_diffs_merged_and_shards() {
        let p = |ns_a: u64, ns_b: u64| {
            // The profiler sorts entries hottest-first; the fixture must too.
            let (l1, n1, l2, n2) = if ns_a >= ns_b {
                ("a", ns_a, "b", ns_b)
            } else {
                ("b", ns_b, "a", ns_a)
            };
            format!(
                "{{\"seed\":42,\"config_digest\":\"cccc\",\"merged\":{{\"loop_ns\":{t},\"heap_ns\":10,\"heap_ops\":4,\
                 \"overhead_ns\":0,\"attributed_ns\":{t},\"entries\":[\
                 {{\"label\":\"{l1}\",\"count\":3,\"ns\":{n1}}},{{\"label\":\"{l2}\",\"count\":2,\"ns\":{n2}}}]}},\
                 \"shards\":[{{\"loop_ns\":{t},\"heap_ns\":10,\"heap_ops\":4,\"overhead_ns\":0,\
                 \"attributed_ns\":{t},\"entries\":[{{\"label\":\"{l1}\",\"count\":3,\"ns\":{n1}}}]}}]}}",
                t = ns_a + ns_b
            )
        };
        let d = ArtifactDiff::from_json_strs(&p(100, 50), &p(40, 90)).expect("diffs");
        assert_eq!(d.kind, ArtifactKind::Profile);
        assert_eq!(d.digest_match, Some(true));
        assert_eq!(d.sections.len(), 2, "merged + one shard");
        // The hottest handler flipped in the merged profile and in the shard.
        let shifts: Vec<&Shift> = d.shifts().collect();
        assert_eq!(shifts.len(), 2);
        for s in &shifts {
            assert_eq!(s.dimension, "profile.hottest_handler");
            assert_eq!((s.a.as_str(), s.b.as_str()), ("a", "b"));
        }
    }

    #[test]
    fn unlike_artifacts_are_refused_with_typed_errors() {
        let summary = r#"{"hottest_station":"peer vscc","x":1.0}"#;
        let profile = r#"{"loop_ns":10,"heap_ns":1,"heap_ops":1,"overhead_ns":0,"entries":[]}"#;
        match ArtifactDiff::from_json_strs(summary, profile) {
            Err(DiffError::KindMismatch { a, b }) => {
                assert_eq!(a, ArtifactKind::RunSummary);
                assert_eq!(b, ArtifactKind::Profile);
            }
            other => panic!("expected KindMismatch, got {other:?}"),
        }
        assert!(matches!(
            ArtifactDiff::from_json_strs("{not json", summary),
            Err(DiffError::Json { side: 'A', .. })
        ));
        assert!(matches!(
            ArtifactDiff::from_json_strs(summary, r#"{"unrecognized":1}"#),
            Err(DiffError::Unknown { side: 'B' })
        ));
        // Errors render human-readable descriptions.
        let e = ArtifactDiff::from_json_strs(summary, profile).expect_err("mismatch");
        assert!(e.to_string().contains("run_summary"));
    }

    #[test]
    fn render_and_json_carry_the_findings() {
        let a = trace_doc(0.6, 0.2, 8, 2, "aaaa");
        let b = trace_doc(0.1, 0.3, 3, 7, "bbbb");
        let d = ArtifactDiff::from_json_strs(&a, &b).expect("diffs");
        let table = d.render_table();
        assert!(table.contains("trace.dominant_segment"));
        assert!(table.contains("MISMATCH"));
        assert!(table.contains("telescoping"));
        let json = d.to_json();
        assert!(json.contains("\"kind\":\"analysis\""));
        assert!(json.contains("\"digest_match\":false"));
        assert!(json.contains("\"dimension\":\"trace.dominant_segment\""));
        // The JSON we emit must parse with our own reader.
        let parsed = Json::parse(&json).expect("self-parse");
        assert!(parsed.get("sections").is_some());
    }

    fn health_doc(overload_onset_s: f64, final_regime: Regime, digest: &str) -> String {
        use crate::online::{HealthEvent, HealthEventKind};
        let report = HealthReport {
            window_s: 1.0,
            horizon_s: 10.0,
            slo_p99_s: 2.0,
            channels: 1,
            windows: 10,
            completions: 100,
            slo_violations: 7,
            burn_windows: 2,
            max_burn: 3.5,
            dropped_events: 0,
            events: vec![HealthEvent {
                t_s: overload_onset_s,
                kind: HealthEventKind::Regime,
                channel: 0,
                station: "peer.vscc".into(),
                from: "saturating".into(),
                to: "overloaded".into(),
                value: 1.2,
            }],
            stations: vec![
                StationHealth {
                    channel: 0,
                    station: "peer.vscc".into(),
                    regime: final_regime,
                    dwell_s: [1.0, overload_onset_s - 1.0, 10.0 - overload_onset_s],
                    onset_s: [Some(0.0), Some(1.0), Some(overload_onset_s)],
                },
                StationHealth {
                    channel: 0,
                    station: "peer.commit".into(),
                    regime: Regime::Stable,
                    dwell_s: [10.0, 0.0, 0.0],
                    onset_s: [Some(0.0), None, None],
                },
            ],
        };
        report.to_jsonl(Some(&RunProvenance {
            seed: 42,
            config_digest: digest.to_string(),
        }))
    }

    #[test]
    fn health_self_diff_is_zero() {
        let doc = health_doc(3.0, Regime::Overloaded, "hhhh");
        let d = ArtifactDiff::from_json_strs(&doc, &doc).expect("diffs");
        assert_eq!(d.kind, ArtifactKind::Health);
        assert_eq!(d.digest_match, Some(true));
        assert_eq!(d.provenance[0].seed, Some(42));
        assert_eq!(d.max_abs_delta(), 0.0);
        assert_eq!(d.shifts().count(), 0);
        assert!(d.max_telescope_residual_s() < 1e-12);
    }

    #[test]
    fn health_diff_attributes_onset_shift() {
        let a = health_doc(3.0, Regime::Overloaded, "hhhh");
        let b = health_doc(5.0, Regime::Saturating, "iiii");
        let d = ArtifactDiff::from_json_strs(&a, &b).expect("diffs");
        assert_eq!(d.kind, ArtifactKind::Health);
        assert_eq!(d.digest_match, Some(false));
        let dwell = &d.sections[1];
        assert_eq!(dwell.title, "regime dwell & onset");
        let onset = dwell
            .entries
            .iter()
            .find(|e| e.name == "peer.vscc.onset.overloaded_s")
            .expect("onset entry");
        assert!((onset.delta() - 2.0).abs() < 1e-12, "onset {onset:?}");
        // Equal horizons, tiled dwells: the per-station deltas telescope.
        assert!(d.max_telescope_residual_s() < 1e-12);
        let shifts: Vec<&Shift> = d.shifts().collect();
        assert_eq!(shifts.len(), 1);
        assert_eq!(shifts[0].dimension, "health.peer.vscc.final_regime");
        assert_eq!(
            (shifts[0].a.as_str(), shifts[0].b.as_str()),
            ("overloaded", "saturating")
        );
        let table = d.render_table();
        assert!(table.contains("health"), "{table}");
        assert!(table.contains("peer.vscc.onset.overloaded_s"), "{table}");
    }

    #[test]
    fn health_against_other_artifact_is_a_kind_mismatch() {
        let health = health_doc(3.0, Regime::Overloaded, "hhhh");
        let summary = r#"{"hottest_station":"peer vscc","x":1.0}"#;
        match ArtifactDiff::from_json_strs(&health, summary) {
            Err(DiffError::KindMismatch { a, b }) => {
                assert_eq!(a, ArtifactKind::Health);
                assert_eq!(b, ArtifactKind::RunSummary);
            }
            other => panic!("expected KindMismatch, got {other:?}"),
        }
        match ArtifactDiff::from_json_strs(summary, &health) {
            Err(DiffError::KindMismatch { a, b }) => {
                assert_eq!(a, ArtifactKind::RunSummary);
                assert_eq!(b, ArtifactKind::Health);
            }
            other => panic!("expected KindMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_empty_documents_error_not_panic() {
        let good = health_doc(3.0, Regime::Overloaded, "hhhh");
        // One malformed fixture per sniffer branch: a run summary, analyze
        // output and a kernel profile each cut mid-object, plus JSONL health
        // timelines cut before / inside their trailer. A whole schema-v3
        // report of the retired `fabricsim bench` is no artifact kind at all.
        let truncated_summary = r#"{"hottest_station":"peer vscc","x":"#;
        let truncated_analysis = r#"{"trace":{"e2e":{"mean_s":1.0},"segments":["#;
        let truncated_profile = r#"{"loop_ns":10,"entries":[{"label":"a""#;
        let bench_v3 = r#"{
  "schema_version": 3,
  "generator": "fabricsim bench",
  "calibration_ms": 392.3,
  "host_cores": 2,
  "sha256_backend": "sha-ni",
  "seeds": 1,
  "scenarios": [
    {"name": "solo_and5_r100_p1", "offered_tps": 100, "validator_pool": 1, "channels": 1, "sim_workers": 0, "config_digest": "471f9617623c477d",
     "committed_tps": {"mean": 101.1, "stddev": 0}, "overall_latency_mean_s": {"mean": 1.14, "stddev": 0}, "wall_clock_ms": {"mean": 155.1, "stddev": 0},
     "runs": [{"seed": 42, "committed_tps": 101.1, "overall_latency_mean_s": 1.14, "wall_clock_ms": 155.1}]}
  ]
}
"#;
        let err = ArtifactDiff::from_json_strs(bench_v3, bench_v3).expect_err("bench report");
        assert_eq!(err, DiffError::Unknown { side: 'A' });
        let msg = err.to_string();
        for kind in ["run summary", "analyze", "profile", "health"] {
            assert!(msg.contains(kind), "{msg}");
        }
        assert!(!msg.contains("bench"), "{msg}");
        let health_no_trailer = good
            .lines()
            .filter(|l| !l.contains("health_summary"))
            .collect::<Vec<_>>()
            .join("\n");
        let health_cut_trailer = &good[..good.rfind("health_summary").expect("trailer") + 20];
        for (name, fixture) in [
            ("empty", ""),
            ("blank object", "{}"),
            ("truncated summary", truncated_summary),
            ("truncated analysis", truncated_analysis),
            ("truncated profile", truncated_profile),
            ("bench report", bench_v3),
            ("health without trailer", health_no_trailer.as_str()),
            ("health cut inside trailer", health_cut_trailer),
        ] {
            let err = ArtifactDiff::from_json_strs(fixture, &good)
                .expect_err(&format!("{name} on side A must error"));
            assert!(
                matches!(
                    err,
                    DiffError::Json { side: 'A', .. } | DiffError::Unknown { side: 'A' }
                ),
                "{name}: unexpected error {err:?}"
            );
            let err = ArtifactDiff::from_json_strs(&good, fixture)
                .expect_err(&format!("{name} on side B must error"));
            assert!(
                matches!(
                    err,
                    DiffError::Json { side: 'B', .. } | DiffError::Unknown { side: 'B' }
                ),
                "{name}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn span_graph_diff_telescopes_and_shifts() {
        let g = |s1: f64, s2: f64| {
            let total = s1 + s2;
            let (first, second) = if s1 >= s2 {
                (("endorse", s1), ("vscc", s2))
            } else {
                (("vscc", s2), ("endorse", s1))
            };
            format!(
                "{{\"trace\":null,\"span_graph\":{{\"spans\":4,\"txs\":2,\"mean_path_s\":{},\
                 \"max_residual_s\":0,\"segments\":[\
                 {{\"name\":\"{}\",\"seconds\":{}}},{{\"name\":\"{}\",\"seconds\":{}}}],\
                 \"actors\":[{{\"name\":\"peer0\",\"seconds\":{total}}}],\
                 \"slowest_endorser\":[],\"gossip_depth\":[]}}}}",
                total / 2.0,
                first.0,
                first.1,
                second.0,
                second.1
            )
        };
        let d = ArtifactDiff::from_json_strs(&g(3.0, 1.0), &g(0.5, 1.5)).expect("diffs");
        let sec = &d.sections[0];
        assert_eq!(sec.title, "span-graph critical path");
        let tel = &sec.telescopes[0];
        assert!((tel.e2e_delta_s - (-2.0)).abs() < 1e-12);
        assert!(tel.residual_s() < 1e-12);
        let shifts: Vec<&Shift> = d.shifts().collect();
        assert_eq!(shifts.len(), 1);
        assert_eq!(shifts[0].dimension, "span_graph.dominant_segment");
    }
}
