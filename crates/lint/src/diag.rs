//! Typed diagnostics and their human / JSON renderings.

use std::fmt;
use std::fmt::Write as _;

/// Every rule the engine knows: the two call-graph passes clippy cannot
/// express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// A nondeterminism source reachable from a sim-critical crate's public
    /// API through the call graph (interprocedural).
    DeterminismTaint,
    /// A panic site reachable from a DES event handler (interprocedural).
    PanicPath,
}

impl RuleId {
    /// Every rule, in catalogue order.
    pub const ALL: [RuleId; 2] = [RuleId::DeterminismTaint, RuleId::PanicPath];

    /// The kebab-case id used in diagnostics and the ratchet file.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::DeterminismTaint => "determinism-taint",
            RuleId::PanicPath => "panic-path",
        }
    }

    /// Inverse of [`RuleId::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// One-line description for `--list-rules` and the docs.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            RuleId::DeterminismTaint => {
                "a nondeterminism source (hash-ordered iteration, thread identity, \
                 pointer-to-int cast) is reachable from a sim-critical crate's public API; \
                 the diagnostic carries the full call chain"
            }
            RuleId::PanicPath => {
                "a panic site (panic!/unreachable!/todo!/unimplemented! or computed indexing) \
                 is reachable from a DES event handler (Model::fire, ShardWorld::deliver or a \
                 fn that schedules kernel events); a poisoned \
                 message must surface as an error, not abort a shard mid-window"
            }
        }
    }

    /// The canonical remedy.
    #[must_use]
    pub fn suggestion(self) -> &'static str {
        match self {
            RuleId::DeterminismTaint => {
                "make the helper deterministic (BTreeMap/sorted iteration, no thread identity, \
                 no pointer-to-int), or sever the call path from sim-critical code"
            }
            RuleId::PanicPath => "return a typed error from the handler path instead of panicking",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One step of supporting evidence attached to a diagnostic — for the
/// interprocedural rules, the call chain from the sink down to the site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What this step shows.
    pub message: String,
}

/// One violation at one source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// What is wrong, in one sentence.
    pub message: String,
    /// How to fix it, when the rule has a canonical remedy.
    pub suggestion: Option<String>,
    /// Supporting evidence (call chains for interprocedural rules).
    pub notes: Vec<Note>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        for n in &self.notes {
            write!(f, "\n    note: {}:{}: {}", n.file, n.line, n.message)?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n    help: {s}")?;
        }
        Ok(())
    }
}

/// Everything one engine run produced.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Unsuppressed violations, sorted by (file, line, col, rule).
    pub violations: Vec<Diagnostic>,
    /// Audited suppressions: non-test `#[expect]`/`#[allow]` attributes
    /// naming one of [`crate::MIGRATED_LINTS`].
    pub suppressed: usize,
    /// Suppressions per lint path (for the ratchet file).
    pub suppressed_by_rule: std::collections::BTreeMap<String, usize>,
    /// Number of files checked.
    pub checked_files: usize,
}

impl LintReport {
    /// Counts one audited suppression of `rule` (a lint path).
    pub fn count_suppressed(&mut self, rule: &str) {
        self.suppressed += 1;
        *self.suppressed_by_rule.entry(rule.to_string()).or_insert(0) += 1;
    }

    /// True when CI should pass.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The `--json` rendering (schema `fabricsim-lint/v1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"fabricsim-lint/v1\",\n");
        push_kv(&mut out, "checked_files", &self.checked_files.to_string());
        push_kv(&mut out, "suppressed", &self.suppressed.to_string());
        if !self.suppressed_by_rule.is_empty() {
            let mut obj = String::from("{");
            for (i, (rule, n)) in self.suppressed_by_rule.iter().enumerate() {
                if i > 0 {
                    obj.push_str(", ");
                }
                let _ = write!(obj, "{}: {n}", json_string(rule));
            }
            obj.push('}');
            push_kv(&mut out, "suppressed_by_rule", &obj);
        }
        push_kv(
            &mut out,
            "violation_count",
            &self.violations.len().to_string(),
        );
        out.push_str("  \"violations\": [");
        for (i, d) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}",
                json_string(&d.file),
                d.line,
                d.col,
                json_string(d.rule.as_str()),
                json_string(&d.message),
            );
            if let Some(s) = &d.suggestion {
                let _ = write!(out, ", \"suggestion\": {}", json_string(s));
            }
            if !d.notes.is_empty() {
                out.push_str(", \"notes\": [");
                for (k, n) in d.notes.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "{{\"file\": {}, \"line\": {}, \"message\": {}}}",
                        json_string(&n.file),
                        n.line,
                        json_string(&n.message),
                    );
                }
                out.push(']');
            }
            out.push('}');
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// The human rendering: one block per violation plus a summary line.
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for d in &self.violations {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "fabricsim-lint: {} file(s) checked, {} violation(s), {} audited suppression(s)",
            self.checked_files,
            self.violations.len(),
            self.suppressed
        );
        out
    }
}

fn push_kv(out: &mut String, key: &str, raw_value: &str) {
    let _ = writeln!(out, "  \"{key}\": {raw_value},");
}

/// Minimal JSON string escaping (the repo-wide zero-dependency subset).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.as_str()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }

    #[test]
    fn display_is_file_line_col_rule() {
        let d = Diagnostic {
            file: "crates/core/src/sim.rs".into(),
            line: 7,
            col: 13,
            rule: RuleId::PanicPath,
            message: "`panic!` aborts the shard".into(),
            suggestion: Some("return a typed error".into()),
            notes: Vec::new(),
        };
        let s = d.to_string();
        assert!(s.starts_with("crates/core/src/sim.rs:7:13: [panic-path]"));
        assert!(s.contains("help: return a typed error"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = LintReport {
            violations: vec![Diagnostic {
                file: "a.rs".into(),
                line: 1,
                col: 2,
                rule: RuleId::DeterminismTaint,
                message: "hash \"order\"".into(),
                suggestion: None,
                notes: Vec::new(),
            }],
            suppressed: 3,
            suppressed_by_rule: std::collections::BTreeMap::new(),
            checked_files: 9,
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"fabricsim-lint/v1\""));
        assert!(json.contains("\"rule\": \"determinism-taint\""));
        assert!(json.contains("\\\"order\\\""));
        assert!(json.contains("\"checked_files\": 9"));
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("q\"q"), "\"q\\\"q\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
