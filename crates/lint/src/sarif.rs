//! SARIF 2.1.0 output (`--sarif FILE`), plus the repo-local validator that
//! keeps the writer honest: since the workspace takes no serde
//! dependency, the emitter is hand-rolled, so a hand-rolled reader
//! re-parses every report and checks the invariants GitHub code scanning
//! (and any other SARIF consumer) relies on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::diag::{json_string, Diagnostic, LintReport, RuleId};

/// Renders a report as a single-run SARIF 2.1.0 log.
#[must_use]
pub fn to_sarif(report: &LintReport) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"fabricsim-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/fabricsim\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in RuleId::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            json_string(rule.as_str()),
            json_string(rule.description())
        );
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, d) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("        {\n");
        let _ = write!(
            out,
            "          \"ruleId\": {},\n          \"level\": \"error\",\n",
            json_string(d.rule.as_str())
        );
        let _ = writeln!(
            out,
            "          \"message\": {{\"text\": {}}},",
            json_string(&d.message)
        );
        out.push_str("          \"locations\": [");
        out.push_str(&location(&d.file, d.line, Some(d.col), None));
        out.push(']');
        if !d.notes.is_empty() {
            out.push_str(",\n          \"relatedLocations\": [");
            for (k, n) in d.notes.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&location(&n.file, n.line, None, Some(&n.message)));
            }
            out.push(']');
        }
        out.push_str("\n        }");
    }
    if !report.violations.is_empty() {
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// One `physicalLocation` object, with optional column and message.
fn location(uri: &str, line: u32, col: Option<u32>, message: Option<&str>) -> String {
    let mut s = String::from("{\"physicalLocation\": {\"artifactLocation\": {\"uri\": ");
    s.push_str(&json_string(uri));
    let _ = write!(s, "}}, \"region\": {{\"startLine\": {line}");
    if let Some(c) = col {
        let _ = write!(s, ", \"startColumn\": {c}");
    }
    s.push_str("}}");
    if let Some(m) = message {
        let _ = write!(s, ", \"message\": {{\"text\": {}}}", json_string(m));
    }
    s.push('}');
    s
}

/// A parsed JSON value — the minimal zero-dependency reader the validator
/// runs on the writer's own output.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written without `.` or an exponent — lines, columns, counts.
    Int(i64),
    /// Any other number. Never compared for equality (floats).
    Num(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (`BTreeMap`: deterministic iteration).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number as u32, if this is an integer in range.
    #[must_use]
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Int(n) => u32::try_from(*n).ok(),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
/// A message with a byte offset on malformed input or trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let Json::Str(key) = parse_value(text, bytes, pos)? else {
                    return Err(format!("object key is not a string at byte {pos}"));
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(text, bytes, pos)?;
                map.insert(key, val);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(text, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(text, bytes, pos).map(Json::Str),
        Some(b't') if text[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if text[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if text[*pos..].starts_with("null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let lit = &text[start..*pos];
            if let Ok(i) = lit.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            lit.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                let esc = bytes
                    .get(*pos + 1)
                    .ok_or_else(|| "dangling escape".to_string())?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = text
                            .get(*pos + 2..*pos + 6)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                        // Surrogates never appear in this writer's output.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("unknown escape \\{}", *other as char)),
                }
                *pos += 2;
            }
            _ => {
                // Multi-byte UTF-8: copy the full scalar.
                let s = &text[*pos..];
                let c = s.chars().next().ok_or_else(|| "bad utf8".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Validates a SARIF log against the subset of SARIF 2.1.0 this tool emits
/// and consumers require: version, a single run with a named driver, every
/// result carrying a known `ruleId`, a message, and a physical location
/// with a uri and a 1-based `startLine`.
///
/// # Errors
/// The first violated invariant, as a message.
pub fn validate_sarif(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    if doc.get("version").and_then(Json::as_str) != Some("2.1.0") {
        return Err("version must be \"2.1.0\"".to_string());
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("runs must be an array")?;
    if runs.is_empty() {
        return Err("runs must be non-empty".to_string());
    }
    for run in runs {
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .ok_or("run.tool.driver missing")?;
        if driver.get("name").and_then(Json::as_str).is_none() {
            return Err("driver.name missing".to_string());
        }
        let rule_ids: Vec<&str> = driver
            .get("rules")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|r| r.get("id").and_then(Json::as_str))
            .collect();
        let results = run
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("run.results must be an array")?;
        for (i, r) in results.iter().enumerate() {
            let rule = r
                .get("ruleId")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("result {i}: ruleId missing"))?;
            if !rule_ids.contains(&rule) {
                return Err(format!("result {i}: ruleId {rule:?} not in driver.rules"));
            }
            if r.get("message")
                .and_then(|m| m.get("text"))
                .and_then(Json::as_str)
                .is_none()
            {
                return Err(format!("result {i}: message.text missing"));
            }
            let locs = r
                .get("locations")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("result {i}: locations missing"))?;
            let mut all_locs: Vec<&Json> = locs.iter().collect();
            if let Some(related) = r.get("relatedLocations").and_then(Json::as_arr) {
                all_locs.extend(related.iter());
            }
            if locs.is_empty() {
                return Err(format!("result {i}: locations empty"));
            }
            for l in all_locs {
                let phys = l
                    .get("physicalLocation")
                    .ok_or_else(|| format!("result {i}: physicalLocation missing"))?;
                let uri = phys
                    .get("artifactLocation")
                    .and_then(|a| a.get("uri"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("result {i}: artifactLocation.uri missing"))?;
                if uri.is_empty() || uri.starts_with('/') {
                    return Err(format!("result {i}: uri must be relative and non-empty"));
                }
                let line = phys
                    .get("region")
                    .and_then(|g| g.get("startLine"))
                    .and_then(Json::as_u32)
                    .ok_or_else(|| format!("result {i}: region.startLine missing"))?;
                if line == 0 {
                    return Err(format!("result {i}: startLine must be 1-based"));
                }
            }
        }
    }
    Ok(())
}

/// Checks that every diagnostic in `report` appears in the SARIF text with
/// its rule id, location, and each call-chain note — the round-trip the
/// acceptance gate requires.
///
/// # Errors
/// A message naming the first diagnostic (or note) that did not survive.
pub fn round_trip(report: &LintReport, sarif_text: &str) -> Result<(), String> {
    let doc = parse_json(sarif_text)?;
    let results = doc
        .get("runs")
        .and_then(Json::as_arr)
        .and_then(|r| r.first())
        .and_then(|run| run.get("results"))
        .and_then(Json::as_arr)
        .ok_or("no runs[0].results")?;
    for d in &report.violations {
        let found = results.iter().find(|r| result_matches(r, d));
        let Some(r) = found else {
            return Err(format!(
                "diagnostic {}:{}:{} [{}] not present in SARIF",
                d.file, d.line, d.col, d.rule
            ));
        };
        let related = r
            .get("relatedLocations")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for n in &d.notes {
            let hit = related.iter().any(|l| {
                let phys = l.get("physicalLocation");
                let uri = phys
                    .and_then(|p| p.get("artifactLocation"))
                    .and_then(|a| a.get("uri"))
                    .and_then(Json::as_str);
                let line = phys
                    .and_then(|p| p.get("region"))
                    .and_then(|g| g.get("startLine"))
                    .and_then(Json::as_u32);
                let msg = l
                    .get("message")
                    .and_then(|m| m.get("text"))
                    .and_then(Json::as_str);
                uri == Some(n.file.as_str())
                    && line == Some(n.line)
                    && msg == Some(n.message.as_str())
            });
            if !hit {
                return Err(format!(
                    "note {}:{} {:?} lost in SARIF round-trip",
                    n.file, n.line, n.message
                ));
            }
        }
    }
    Ok(())
}

/// True when a SARIF result matches a diagnostic's id, message, and site.
fn result_matches(r: &Json, d: &Diagnostic) -> bool {
    if r.get("ruleId").and_then(Json::as_str) != Some(d.rule.as_str()) {
        return false;
    }
    if r.get("message")
        .and_then(|m| m.get("text"))
        .and_then(Json::as_str)
        != Some(d.message.as_str())
    {
        return false;
    }
    let Some(loc) = r
        .get("locations")
        .and_then(Json::as_arr)
        .and_then(|l| l.first())
        .and_then(|l| l.get("physicalLocation"))
    else {
        return false;
    };
    loc.get("artifactLocation")
        .and_then(|a| a.get("uri"))
        .and_then(Json::as_str)
        == Some(d.file.as_str())
        && loc
            .get("region")
            .and_then(|g| g.get("startLine"))
            .and_then(Json::as_u32)
            == Some(d.line)
        && loc
            .get("region")
            .and_then(|g| g.get("startColumn"))
            .and_then(Json::as_u32)
            == Some(d.col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Note;

    fn sample_report() -> LintReport {
        LintReport {
            violations: vec![
                Diagnostic {
                    file: "crates/obs/src/agg.rs".into(),
                    line: 4,
                    col: 14,
                    rule: RuleId::DeterminismTaint,
                    message: "hash iteration reachable from `fabricsim_core::sim::tick`".into(),
                    suggestion: Some("sort before iterating".into()),
                    notes: vec![
                        Note {
                            file: "crates/core/src/sim.rs".into(),
                            line: 2,
                            message: "`tick` is a public API".into(),
                        },
                        Note {
                            file: "crates/core/src/sim.rs".into(),
                            line: 3,
                            message: "which calls `summarize`".into(),
                        },
                    ],
                },
                Diagnostic {
                    file: "crates/core/src/sim.rs".into(),
                    line: 9,
                    col: 5,
                    rule: RuleId::NoFloatEq,
                    message: "`==` compares floats with a \"quote\"".into(),
                    suggestion: None,
                    notes: Vec::new(),
                },
            ],
            suppressed: 2,
            suppressed_by_rule: BTreeMap::new(),
            checked_files: 7,
        }
    }

    #[test]
    fn emitted_sarif_validates_and_round_trips() {
        let report = sample_report();
        let sarif = to_sarif(&report);
        validate_sarif(&sarif).expect("valid SARIF");
        round_trip(&report, &sarif).expect("round trip");
    }

    #[test]
    fn empty_report_is_valid_sarif() {
        let report = LintReport::default();
        let sarif = to_sarif(&report);
        validate_sarif(&sarif).expect("valid SARIF");
        round_trip(&report, &sarif).expect("round trip");
    }

    #[test]
    fn validator_rejects_wrong_version() {
        let report = sample_report();
        let sarif = to_sarif(&report).replace("2.1.0\",", "2.0.0\",");
        assert!(validate_sarif(&sarif).is_err());
    }

    #[test]
    fn validator_rejects_unknown_rule_id() {
        let report = sample_report();
        let sarif =
            to_sarif(&report).replace("\"ruleId\": \"no-float-eq\"", "\"ruleId\": \"bogus\"");
        let err = validate_sarif(&sarif).expect_err("must reject");
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn round_trip_detects_dropped_note() {
        let report = sample_report();
        let sarif = to_sarif(&report).replace("which calls `summarize`", "which calls `other`");
        let err = round_trip(&report, &sarif).expect_err("must detect");
        assert!(err.contains("summarize"), "{err}");
    }

    #[test]
    fn json_reader_handles_escapes_and_nesting() {
        let doc = parse_json(r#"{"a": [1, 2.5, {"b": "x\n\"y\"", "c": null}], "t": true}"#)
            .expect("parses");
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        let b = doc
            .get("a")
            .and_then(Json::as_arr)
            .and_then(|a| a[2].get("b"));
        assert_eq!(b.and_then(Json::as_str), Some("x\n\"y\""));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2] garbage").is_err());
    }
}
