//! The `lint:allow` escape hatch.
//!
//! A violation is suppressed by writing, on the same line or on the comment
//! line(s) directly above the offending code:
//!
//! ```text
//! // lint:allow(panic-path) -- the queue was checked non-empty two lines up
//! let x = queue[queue.len() - 1];
//! ```
//!
//! Contract:
//! * the justification after `--` is **mandatory** — an allow without one is
//!   itself a violation (`allow-missing-justification`);
//! * the rule id must exist (`allow-unknown-rule`);
//! * several rules can share one annotation: `lint:allow(rule-a, rule-b)`;
//! * a trailing comment binds to its own line; a standalone comment line
//!   binds to the next line that holds any code, so a stack of annotations
//!   above one statement all apply to it.

use crate::diag::{Diagnostic, RuleId};
use crate::tokenizer::Token;

/// One parsed `lint:allow` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rules this annotation suppresses.
    pub rules: Vec<RuleId>,
    /// Rule names that did not parse (each is reported).
    pub unknown: Vec<String>,
    /// True when a non-empty `-- justification` followed the rule list.
    pub justified: bool,
    /// Line of the comment itself.
    pub line: u32,
    /// Column of the comment itself.
    pub col: u32,
    /// The code line the annotation applies to (None at EOF).
    pub target_line: Option<u32>,
}

/// Extracts every `lint:allow` annotation from a token stream (comments
/// included), resolving which code line each one binds to.
#[must_use]
pub fn collect_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_comment() || is_doc_comment(&tok.text) {
            // Doc comments may *mention* the syntax without being an
            // annotation; a real allow is always a plain `//` or `/* */`.
            continue;
        }
        let Some(spec) = parse_allow_comment(&tok.text) else {
            continue;
        };
        // Trailing comment (code earlier on the same line) → its own line;
        // standalone comment → the next line holding a non-comment token.
        let trailing = i > 0 && tokens[i - 1].line == tok.line && !tokens[i - 1].is_comment();
        let target_line = if trailing {
            Some(tok.line)
        } else {
            tokens[i + 1..]
                .iter()
                .find(|t| !t.is_comment())
                .map(|t| t.line)
        };
        let mut rules = Vec::new();
        let mut unknown = Vec::new();
        for name in spec.names {
            match RuleId::parse(&name) {
                Some(r) => rules.push(r),
                None => unknown.push(name),
            }
        }
        out.push(Allow {
            rules,
            unknown,
            justified: spec.justified,
            line: tok.line,
            col: tok.col,
            target_line,
        });
    }
    out
}

/// `///`, `//!`, `/**`, `/*!` are documentation, not annotations.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

struct AllowSpec {
    names: Vec<String>,
    justified: bool,
}

/// Parses one comment body; `None` when it contains no `lint:allow(`.
fn parse_allow_comment(comment: &str) -> Option<AllowSpec> {
    let at = comment.find("lint:allow(")?;
    let rest = &comment[at + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let names = rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let justified = rest[close + 1..]
        .trim_start()
        .strip_prefix("--")
        .is_some_and(|j| !j.trim().is_empty());
    Some(AllowSpec { names, justified })
}

/// The meta-diagnostics an annotation itself can raise.
#[must_use]
pub fn allow_diagnostics(file: &str, allows: &[Allow]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for a in allows {
        if !a.justified {
            out.push(Diagnostic {
                file: file.to_string(),
                line: a.line,
                col: a.col,
                rule: RuleId::AllowMissingJustification,
                message: "lint:allow without a `-- <justification>` suffix".into(),
                suggestion: Some(
                    "write `// lint:allow(<rule>) -- <why this site is sound>`".into(),
                ),
                notes: Vec::new(),
            });
        }
        for name in &a.unknown {
            let valid: Vec<&str> = RuleId::ALL.iter().map(|r| r.as_str()).collect();
            out.push(Diagnostic {
                file: file.to_string(),
                line: a.line,
                col: a.col,
                rule: RuleId::AllowUnknownRule,
                message: format!(
                    "lint:allow names unknown rule {name:?}; valid rules are: {}",
                    valid.join(", ")
                ),
                suggestion: Some("run `fabricsim-lint --list-rules` for the catalogue".into()),
                notes: Vec::new(),
            });
        }
    }
    out
}

/// True when `diag` is suppressed by a justified allow on its line.
#[must_use]
pub fn is_suppressed(diag: &Diagnostic, allows: &[Allow]) -> bool {
    diag.rule.suppressible()
        && allows.iter().any(|a| {
            a.justified && a.target_line == Some(diag.line) && a.rules.contains(&diag.rule)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn allows(src: &str) -> Vec<Allow> {
        collect_allows(&tokenize(src))
    }

    #[test]
    fn trailing_allow_binds_to_its_own_line() {
        let a = allows("let x = 1; // lint:allow(panic-path) -- test fixture\nlet y = 2;");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].target_line, Some(1));
        assert!(a[0].justified);
        assert_eq!(a[0].rules, vec![RuleId::PanicPath]);
    }

    #[test]
    fn standalone_allow_binds_to_next_code_line() {
        let a = allows("// lint:allow(determinism-taint) -- proven\n// more prose\nlet x = 1;");
        assert_eq!(a[0].target_line, Some(3));
    }

    #[test]
    fn stacked_allows_all_bind_to_the_statement() {
        let src = "// lint:allow(panic-path) -- a\n// lint:allow(determinism-taint) -- b\nf();";
        let a = allows(src);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].target_line, Some(3));
        assert_eq!(a[1].target_line, Some(3));
    }

    #[test]
    fn multi_rule_and_unknown_rules() {
        let a = allows("// lint:allow(panic-path, no-such-thing) -- why\nx();");
        assert_eq!(a[0].rules, vec![RuleId::PanicPath]);
        assert_eq!(a[0].unknown, vec!["no-such-thing".to_string()]);
        let diags = allow_diagnostics("f.rs", &a);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::AllowUnknownRule);
    }

    #[test]
    fn missing_justification_is_flagged() {
        for src in [
            "// lint:allow(panic-path)\nx();",
            "// lint:allow(panic-path) --\nx();",
            "// lint:allow(panic-path) --   \nx();",
        ] {
            let a = allows(src);
            assert!(!a[0].justified, "{src:?}");
            let diags = allow_diagnostics("f.rs", &a);
            assert_eq!(diags[0].rule, RuleId::AllowMissingJustification, "{src:?}");
        }
    }

    #[test]
    fn suppression_requires_matching_line_rule_and_justification() {
        let a = allows("// lint:allow(panic-path) -- why\nx();");
        let mut d = Diagnostic {
            file: "f.rs".into(),
            line: 2,
            col: 1,
            rule: RuleId::PanicPath,
            message: String::new(),
            suggestion: None,
            notes: Vec::new(),
        };
        assert!(is_suppressed(&d, &a));
        d.line = 3;
        assert!(!is_suppressed(&d, &a));
        d.line = 2;
        d.rule = RuleId::DeterminismTaint;
        assert!(!is_suppressed(&d, &a));
    }

    #[test]
    fn allow_in_string_literal_is_ignored() {
        let a = allows("let s = \"// lint:allow(panic-path) -- nope\";");
        assert!(a.is_empty());
    }
}
