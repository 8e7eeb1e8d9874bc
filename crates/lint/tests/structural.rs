//! Fixture tests for the symbol-graph passes: determinism taint and panic
//! paths. Fixtures live under
//! `tests/fixtures/<rule>/` and are fed through [`fabricsim_lint::symgraph`]
//! with synthetic workspace paths, exactly as `lint_paths` would.

use fabricsim_lint::symgraph::{parse_sources, SymbolGraph};
use fabricsim_lint::{Diagnostic, RuleId};

fn fixture(rule: &str, file: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{rule}/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Runs the structural passes over `(workspace_path, fixture_file)` pairs.
fn run(rule: &str, files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(path, file)| ((*path).to_string(), fixture(rule, file)))
        .collect();
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    let parsed = parse_sources(&borrowed);
    let graph = SymbolGraph::build(&parsed);
    fabricsim_lint::taint::structural_passes(&parsed, &graph)
}

#[test]
fn determinism_taint_reports_the_full_cross_crate_chain() {
    let diags = run(
        "determinism-taint",
        &[
            ("crates/obs/src/summary.rs", "obs_summary.rs"),
            ("crates/core/src/report.rs", "core_report.rs"),
        ],
    );
    let taints: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RuleId::DeterminismTaint)
        .collect();
    assert_eq!(taints.len(), 1, "{diags:?}");
    let d = taints[0];
    // Reported at the source (the hash iteration in obs).
    assert_eq!(d.file, "crates/obs/src/summary.rs");
    // The chain runs sink → … → source, naming every hop.
    assert!(
        d.notes[0].message.contains("tick_report") && d.notes[0].message.contains("public API"),
        "{:?}",
        d.notes
    );
    assert!(
        d.notes.iter().any(|n| n.message.contains("fold_in")),
        "intermediate hop must be named: {:?}",
        d.notes
    );
    assert!(
        d.notes
            .last()
            .is_some_and(|n| n.message.contains("summarize") && n.message.contains("source")),
        "{:?}",
        d.notes
    );
    // Every hop's note points at a real `file:line`.
    assert!(d.notes.iter().all(|n| n.line >= 1));
}

#[test]
fn determinism_taint_sees_a_map_with_a_named_hasher() {
    let diags = run(
        "determinism-taint",
        &[
            ("crates/obs/src/summary.rs", "obs_summary_fx.rs"),
            ("crates/core/src/report.rs", "core_report.rs"),
        ],
    );
    let taints: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RuleId::DeterminismTaint)
        .collect();
    assert_eq!(taints.len(), 1, "{diags:?}");
    let d = taints[0];
    assert_eq!((d.file.as_str(), d.line), ("crates/obs/src/summary.rs", 12));
    assert!(
        d.notes
            .last()
            .is_some_and(|n| n.message.contains("m.iter()")),
        "{:?}",
        d.notes
    );
}

#[test]
fn determinism_taint_clean_when_no_path_reaches_the_source() {
    let diags = run(
        "determinism-taint",
        &[
            ("crates/obs/src/summary.rs", "obs_summary.rs"),
            ("crates/core/src/report.rs", "core_report_clean.rs"),
        ],
    );
    assert!(
        diags.iter().all(|d| d.rule != RuleId::DeterminismTaint),
        "{diags:?}"
    );
}

#[test]
fn panic_path_walks_two_hops_from_deliver() {
    let diags = run("panic-path", &[("crates/core/src/world.rs", "bad.rs")]);
    let panics: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RuleId::PanicPath)
        .collect();
    assert_eq!(panics.len(), 1, "{diags:?}");
    let d = panics[0];
    assert_eq!((d.line, d.file.as_str()), (16, "crates/core/src/world.rs"));
    assert!(d.message.contains("panic!"), "{}", d.message);
    assert!(
        d.notes[0].message.contains("deliver"),
        "root note first: {:?}",
        d.notes
    );
    assert!(
        d.notes.iter().any(|n| n.message.contains("route")),
        "{:?}",
        d.notes
    );
}

#[test]
fn panic_path_starts_at_model_fire_for_a_handler_nothing_else_reaches() {
    let diags = run("panic-path", &[("crates/core/src/world.rs", "fire.rs")]);
    let panics: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RuleId::PanicPath)
        .collect();
    assert_eq!(panics.len(), 1, "{diags:?}");
    let d = panics[0];
    assert_eq!((d.line, d.file.as_str()), (20, "crates/core/src/world.rs"));
    assert!(d.message.contains("unreachable!"), "{}", d.message);
    assert!(
        d.notes[0].message.contains("implements Model::fire"),
        "root note first: {:?}",
        d.notes
    );
    assert!(
        d.notes.iter().any(|n| n.message.contains("commit")),
        "{:?}",
        d.notes
    );
}

#[test]
fn panic_path_clean_when_helper_returns_option() {
    let diags = run("panic-path", &[("crates/core/src/world.rs", "good.rs")]);
    assert!(
        diags.iter().all(|d| d.rule != RuleId::PanicPath),
        "{diags:?}"
    );
}
