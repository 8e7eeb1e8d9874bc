//! Per-rule fixture tests: every rule has a positive (violating) and a
//! negative (clean) fixture under `tests/fixtures/<rule>/`, and the positive
//! one must be reported at the exact `file:line:col` asserted here.
//!
//! Fixtures are fed through [`fabricsim_lint::lint_source`] with a synthetic
//! sim-critical context (the engine's workspace walk skips `fixtures/`
//! directories by design, so the violating files can live in-tree without
//! tripping the self-check).

use fabricsim_lint::{classify, lint_source, Diagnostic, RuleId};

/// Reads `tests/fixtures/<rule>/<file>` from the crate directory.
fn fixture(rule: &str, file: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{rule}/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints a fixture as if it were library code in a sim-critical crate.
fn lint_as_core_lib(rule: &str, file: &str) -> (Vec<Diagnostic>, usize) {
    let ctx = classify("crates/core/src/fixture_under_test.rs").expect("classifiable");
    lint_source(&ctx, &fixture(rule, file))
}

/// Lints a fixture as a crate root (`crates/*/src/lib.rs`).
fn lint_as_crate_root(rule: &str, file: &str) -> (Vec<Diagnostic>, usize) {
    let ctx = classify("crates/core/src/lib.rs").expect("classifiable");
    lint_source(&ctx, &fixture(rule, file))
}

/// `(line, col, rule)` triples, sorted, for compact assertions.
fn locs(diags: &[Diagnostic]) -> Vec<(u32, u32, RuleId)> {
    diags.iter().map(|d| (d.line, d.col, d.rule)).collect()
}

#[test]
fn no_wall_clock_positive() {
    let (diags, _) = lint_as_core_lib("no-wall-clock", "bad.rs");
    assert_eq!(
        locs(&diags),
        vec![(4, 13, RuleId::NoWallClock), (9, 26, RuleId::NoWallClock),]
    );
}

#[test]
fn no_wall_clock_negative_and_test_exempt() {
    let (diags, suppressed) = lint_as_core_lib("no-wall-clock", "good.rs");
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn no_hashmap_iteration_positive() {
    let (diags, _) = lint_as_core_lib("no-hashmap-iteration", "bad.rs");
    assert_eq!(
        locs(&diags),
        vec![
            (5, 20, RuleId::NoHashmapIteration),
            (12, 5, RuleId::NoHashmapIteration),
        ]
    );
}

#[test]
fn no_hashmap_iteration_negative() {
    // BTreeMap iteration and point lookups on a HashMap are both fine.
    let (diags, _) = lint_as_core_lib("no-hashmap-iteration", "good.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_hashmap_iteration_not_enforced_outside_sim_critical_crates() {
    let ctx = classify("crates/obs/src/fixture_under_test.rs").expect("classifiable");
    let (diags, _) = lint_source(&ctx, &fixture("no-hashmap-iteration", "bad.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_float_eq_positive() {
    let (diags, _) = lint_as_core_lib("no-float-eq", "bad.rs");
    assert_eq!(
        locs(&diags),
        vec![(2, 7, RuleId::NoFloatEq), (6, 7, RuleId::NoFloatEq)]
    );
}

#[test]
fn no_float_eq_negative_and_test_exempt() {
    let (diags, _) = lint_as_core_lib("no-float-eq", "good.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_unwrap_in_lib_positive() {
    let (diags, _) = lint_as_core_lib("no-unwrap-in-lib", "bad.rs");
    assert_eq!(
        locs(&diags),
        vec![
            (2, 16, RuleId::NoUnwrapInLib),
            (6, 15, RuleId::NoUnwrapInLib),
        ]
    );
    // The rendered diagnostic carries the clickable location.
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/core/src/fixture_under_test.rs:2:16:"),
        "{rendered}"
    );
}

#[test]
fn no_unwrap_in_lib_negative_covers_parser_expect_and_tests() {
    let (diags, _) = lint_as_core_lib("no-unwrap-in-lib", "good.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_unwrap_allowed_in_test_files() {
    let ctx = classify("crates/core/tests/some_test.rs").expect("classifiable");
    let (diags, _) = lint_source(&ctx, &fixture("no-unwrap-in-lib", "bad.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn forbid_unsafe_present_positive() {
    let (diags, _) = lint_as_crate_root("forbid-unsafe-present", "bad.rs");
    assert_eq!(locs(&diags), vec![(1, 1, RuleId::ForbidUnsafePresent)]);
}

#[test]
fn forbid_unsafe_present_negative() {
    let (diags, _) = lint_as_crate_root("forbid-unsafe-present", "good.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn forbid_unsafe_weakened_is_reported_at_the_attribute_where_an_allow_binds() {
    let (diags, _) = lint_as_crate_root("forbid-unsafe-present", "weakened.rs");
    assert_eq!(locs(&diags), vec![(3, 1, RuleId::ForbidUnsafePresent)]);
    // The one accepted form of an exception: a justified allow on that line.
    let audited = fixture("forbid-unsafe-present", "weakened.rs").replace(
        "#![deny",
        "// lint:allow(forbid-unsafe-present) -- one audited block, see its SAFETY note\n#![deny",
    );
    let ctx = classify("crates/core/src/lib.rs").expect("classifiable");
    let (diags, suppressed) = lint_source(&ctx, &audited);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn forbid_unsafe_only_checked_at_crate_roots() {
    // The same attribute-less file is fine as a non-root module.
    let (diags, _) = lint_as_core_lib("forbid-unsafe-present", "bad.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_thread_sleep_positive() {
    let (diags, _) = lint_as_core_lib("no-thread-sleep", "bad.rs");
    assert_eq!(locs(&diags), vec![(2, 18, RuleId::NoThreadSleep)]);
}

#[test]
fn no_thread_sleep_negative() {
    let (diags, _) = lint_as_core_lib("no-thread-sleep", "good.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_thread_identity_positive() {
    let (diags, _) = lint_as_core_lib("no-thread-identity", "bad.rs");
    assert_eq!(
        locs(&diags),
        vec![
            (1, 35, RuleId::NoThreadIdentity),
            (2, 18, RuleId::NoThreadIdentity),
        ]
    );
}

#[test]
fn no_thread_identity_negative_and_test_exempt() {
    let (diags, _) = lint_as_core_lib("no-thread-identity", "good.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn no_thread_identity_not_enforced_outside_sim_critical_crates() {
    let ctx = classify("crates/obs/src/fixture_under_test.rs").expect("classifiable");
    let (diags, _) = lint_source(&ctx, &fixture("no-thread-identity", "bad.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn atomics_ordering_positive() {
    let (diags, _) = lint_as_core_lib("atomics-ordering-annotated", "bad.rs");
    assert_eq!(
        locs(&diags),
        vec![(4, 30, RuleId::AtomicsOrderingAnnotated)]
    );
}

#[test]
fn atomics_ordering_negative_with_justified_allow() {
    let (diags, suppressed) = lint_as_core_lib("atomics-ordering-annotated", "good.rs");
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(
        suppressed, 1,
        "the justified Relaxed must count as suppressed"
    );
}

#[test]
fn no_unbounded_sink_positive() {
    // The rule keys on the *file name* containing "sink".
    let ctx = classify("crates/obs/src/span_sink.rs").expect("classifiable");
    let (diags, _) = lint_source(&ctx, &fixture("no-unbounded-sink", "bad.rs"));
    assert_eq!(
        locs(&diags),
        vec![
            (8, 27, RuleId::NoUnboundedSink),
            (12, 9, RuleId::NoUnboundedSink),
        ]
    );
}

#[test]
fn no_unbounded_sink_negative_allows_rings_and_vec_from() {
    let ctx = classify("crates/obs/src/span_sink.rs").expect("classifiable");
    let (diags, suppressed) = lint_source(&ctx, &fixture("no-unbounded-sink", "good.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 2, "both audited sink allocations must suppress");
}

#[test]
fn no_unbounded_sink_only_fires_in_sink_modules() {
    // Identical source under a non-sink file name is not this rule's business.
    let (diags, _) = lint_as_core_lib("no-unbounded-sink", "bad.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allow_meta_rules_fire_and_do_not_suppress() {
    let (diags, suppressed) = lint_as_core_lib("allow", "bad.rs");
    assert_eq!(suppressed, 0);
    assert_eq!(
        locs(&diags),
        vec![
            (2, 5, RuleId::AllowMissingJustification),
            // The unjustified allow does NOT silence the unwrap under it.
            (3, 13, RuleId::NoUnwrapInLib),
            (7, 5, RuleId::AllowUnknownRule),
        ]
    );
}

#[test]
fn unknown_rule_diagnostic_lists_the_full_rule_catalogue() {
    let (diags, _) = lint_as_core_lib("allow", "bad.rs");
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
    let (diags, suppressed) = lint_as_core_lib("allow", "good.rs");
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 1);
}
