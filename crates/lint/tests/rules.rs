//! Fixture tests for the `lint:allow` contract: the annotation must name a
//! known rule and carry a justification, and only then does it suppress.
//!
//! Fixtures are fed through [`fabricsim_lint::lint_source`] as library code
//! in a sim-critical crate (the engine's workspace walk skips `fixtures/`
//! directories by design, so the violating files can live in-tree without
//! tripping the self-check).

use fabricsim_lint::{classify, lint_source, Diagnostic, RuleId};

/// Lints `tests/fixtures/allow/<file>` as `crates/core/src/fixture_under_test.rs`.
#[expect(
    clippy::expect_used,
    reason = "test helper: a missing fixture fails the test"
)]
fn lint_allow_fixture(file: &str) -> (Vec<Diagnostic>, usize) {
    let path = format!("{}/tests/fixtures/allow/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(path).expect("read the allow fixture");
    let ctx = classify("crates/core/src/fixture_under_test.rs").expect("classifiable");
    lint_source(&ctx, &src)
}

#[test]
fn allow_meta_rules_fire_and_do_not_suppress() {
    let (diags, suppressed) = lint_allow_fixture("bad.rs");
    assert_eq!(suppressed, 0);
    let locs: Vec<(u32, u32, RuleId)> = diags.iter().map(|d| (d.line, d.col, d.rule)).collect();
    assert_eq!(
        locs,
        vec![
            (3, 5, RuleId::AllowMissingJustification),
            // The unjustified allow does NOT silence the panic under it.
            (4, 17, RuleId::PanicPath),
            (8, 5, RuleId::AllowUnknownRule),
        ]
    );
}

#[test]
fn unknown_rule_diagnostic_lists_the_full_rule_catalogue() {
    let (diags, _) = lint_allow_fixture("bad.rs");
    let d = diags
        .iter()
        .find(|d| d.rule == RuleId::AllowUnknownRule)
        .expect("allow/bad.rs names an unknown rule");
    assert!(
        d.message
            .contains("lint:allow names unknown rule \"not-a-real-rule\""),
        "{}",
        d.message
    );
    // The message enumerates every valid rule id so the author can pick the
    // one they meant without leaving the terminal.
    for rule in RuleId::ALL {
        assert!(
            d.message.contains(rule.as_str()),
            "message must list {:?}: {}",
            rule.as_str(),
            d.message
        );
    }
}

#[test]
fn justified_allow_suppresses() {
    let (diags, suppressed) = lint_allow_fixture("good.rs");
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 1);
}
