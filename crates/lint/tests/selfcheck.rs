//! The workspace must be lint-clean: every violation is fixed, and every
//! audited suppression — the non-test `#[expect]`s of the lints clippy
//! enforces for the workspace — is on the ratchet. This is the in-tree twin of the CI
//! `lint` job — if it fails, `cargo run -p fabricsim-lint` shows the list.

use std::path::Path;

#[expect(
    clippy::expect_used,
    reason = "test helper: a crate outside the workspace layout fails the test"
)]
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let report = fabricsim_lint::lint_paths(workspace_root(), &[]).expect("walk workspace");
    assert!(
        report.checked_files > 100,
        "workspace walk looks truncated: only {} files",
        report.checked_files
    );
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.to_human()
    );
}

#[test]
fn every_suppression_in_the_workspace_is_justified() {
    let report = fabricsim_lint::lint_paths(workspace_root(), &[]).expect("walk workspace");
    // Unjustified or unknown-rule allows surface as meta-violations, so a
    // clean report means every suppression carries a written justification
    // (clippy's `allow_attributes_without_reason` holds the `#[expect]`s to
    // the same bar).
    assert!(report.is_clean(), "{}", report.to_human());
    assert!(
        report.suppressed > 0,
        "expected at least the audited WallClock expect"
    );
}

/// The ratchet file must exist and match the live counts *exactly* — not
/// just stay under budget. Equality means every burned suppression is
/// immediately locked in: forgetting `--write-ratchet` after a cleanup
/// fails here, not six PRs later when someone spends the slack.
#[test]
fn suppression_ratchet_matches_the_live_counts_exactly() {
    let root = workspace_root();
    let report = fabricsim_lint::lint_paths(root, &[]).expect("walk workspace");
    let text = std::fs::read_to_string(root.join(fabricsim_lint::RATCHET_FILE))
        .expect("lint-ratchet.txt must exist at the workspace root");
    let (total, by_rule) =
        fabricsim_lint::parse_ratchet(&text).expect("lint-ratchet.txt must parse");
    assert_eq!(
        total, report.suppressed,
        "ratchet total is stale; regenerate with `cargo run -p fabricsim-lint -- --write-ratchet`"
    );
    assert_eq!(
        by_rule, report.suppressed_by_rule,
        "per-rule ratchet counts are stale"
    );
}

/// No nondeterminism source may reach a sim-critical public API: the taint
/// pass over the real workspace graph must come back empty (suppressions
/// aside, which the clean check above already audits).
#[test]
fn workspace_is_determinism_taint_clean() {
    let report = fabricsim_lint::lint_paths(workspace_root(), &[]).expect("walk workspace");
    let taints: Vec<_> = report
        .violations
        .iter()
        .filter(|d| d.rule == fabricsim_lint::RuleId::DeterminismTaint)
        .collect();
    assert!(taints.is_empty(), "{taints:?}");
}

/// clippy enforces the migrated rules only where a package opts into the
/// root `[workspace.lints]` table, so every `crates/*` manifest must.
#[test]
fn every_crate_inherits_the_workspace_lints() {
    // The check itself: an opted-out or overriding manifest must fail it.
    assert!(inherits_workspace_lints("[lints]\nworkspace = true\n"));
    assert!(inherits_workspace_lints("lints.workspace = true\n"));
    for opted_out in [
        "[package]\nname = \"x\"\n",
        "[lints]\nworkspace = false\n",
        "[lints.clippy]\nunwrap_used = \"allow\"\n",
        "[dependencies]\nworkspace = true\n",
    ] {
        assert!(!inherits_workspace_lints(opted_out), "{opted_out:?}");
    }

    let crates = workspace_root().join("crates");
    let mut dirs: Vec<_> = std::fs::read_dir(&crates)
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    assert!(dirs.len() > 10, "crates/ walk looks truncated: {dirs:?}");
    for dir in dirs {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("read manifest");
        assert!(
            inherits_workspace_lints(&manifest),
            "{} must inherit the workspace lints: add `[lints]` with `workspace = true`",
            dir.display()
        );
    }
}

/// True when the manifest holds `lints.workspace = true`, or a `[lints]`
/// table whose `workspace` key is `true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut table = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if value == "true"
            && ((table.is_empty() && key == "lints.workspace")
                || (table == "[lints]" && key == "workspace"))
        {
            return true;
        }
    }
    false
}
