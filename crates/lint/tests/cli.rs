//! Exit-code contract of the CLI driver: 0 clean, 1 violations, 2 usage or
//! I/O errors — seeded violations must flip the code, and the JSON report
//! must carry the exact `file:line:col` of each one.

use std::fs;
use std::path::PathBuf;

use fabricsim_lint::cli_run;

/// Builds a scratch workspace whose one crate is the sim-critical `core`,
/// with the given lib.rs source. Unique per test so parallel test threads
/// don't collide.
#[expect(
    clippy::expect_used,
    reason = "test helper: an unwritable temp dir fails the test"
)]
fn scratch_workspace(tag: &str, lib_src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fabricsim-lint-cli-{}-{tag}", std::process::id()));
    let src = dir.join("crates").join("core").join("src");
    fs::create_dir_all(&src).expect("mkdir scratch workspace");
    fs::write(src.join("lib.rs"), lib_src).expect("write lib.rs");
    dir
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(ToString::to_string).collect()
}

/// A DES handler (it schedules kernel events) that can panic on line 3.
const PANICKY_SRC: &str = "pub fn arm(kernel: &mut Kernel, n: u64) {\n    \
     kernel.schedule(n, move || {});\n    \
     if n == 0 { panic!(\"empty window\") }\n}\n";

/// One audited suppression: a non-test `#[expect]` of a lint clippy
/// enforces for the workspace.
const EXPECT_SRC: &str = "#[expect(clippy::expect_used, reason = \"fixture\")]\n\
     pub fn first(v: &[u32]) -> u32 { *v.first().expect(\"non-empty\") }\n";

#[test]
fn clean_tree_exits_zero() {
    let root = scratch_workspace("clean", "pub fn ok(a: u64, b: u64) -> u64 { a + b }\n");
    let code = cli_run(&args(&["--root", root.to_str().expect("utf-8 path")]));
    assert_eq!(code, 0);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn seeded_violation_exits_one_with_exact_location() {
    let root = scratch_workspace("seeded", PANICKY_SRC);
    let code = cli_run(&args(&["--root", root.to_str().expect("utf-8 path")]));
    assert_eq!(code, 1, "a seeded handler panic must fail the run");

    // The JSON artifact names the exact location of the seeded violation.
    let report = root.join("lint-report.json");
    let code = cli_run(&args(&[
        "--root",
        root.to_str().expect("utf-8 path"),
        "--json",
        report.to_str().expect("utf-8 path"),
    ]));
    assert_eq!(code, 1);
    let body = fs::read_to_string(&report).expect("read JSON report");
    assert!(body.contains("\"schema\": \"fabricsim-lint/v1\""), "{body}");
    assert!(
        body.contains("\"file\": \"crates/core/src/lib.rs\""),
        "{body}"
    );
    assert!(body.contains("\"line\": 3"), "{body}");
    assert!(body.contains("\"col\": 17"), "{body}");
    assert!(body.contains("\"rule\": \"panic-path\""), "{body}");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn unknown_flag_exits_two() {
    assert_eq!(cli_run(&args(&["--definitely-not-a-flag"])), 2);
}

#[test]
fn missing_root_dir_exits_two() {
    assert_eq!(
        cli_run(&args(&["--root", "/nonexistent/fabricsim-lint-root"])),
        2
    );
}

#[test]
fn list_rules_exits_zero() {
    assert_eq!(cli_run(&args(&["--list-rules"])), 0);
}

#[test]
fn check_without_fix_is_a_usage_error() {
    let root = scratch_workspace("check-alone", "pub fn ok() -> u64 { 1 }\n");
    assert_eq!(
        cli_run(&args(&[
            "--root",
            root.to_str().expect("utf-8 path"),
            "--check"
        ])),
        2
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn removed_fix_and_sarif_flags_are_usage_errors() {
    // Both went with the rules they served; a stale CI step must fail loudly
    // instead of writing nothing.
    let root = scratch_workspace("removed-flags", "pub fn ok() -> u64 { 1 }\n");
    let root = root.to_str().expect("utf-8 path");
    assert_eq!(cli_run(&args(&["--root", root, "--fix"])), 2);
    assert_eq!(cli_run(&args(&["--root", root, "--fix", "--check"])), 2);
    assert_eq!(cli_run(&args(&["--root", root, "--sarif", "x.sarif"])), 2);
    fs::remove_dir_all(root).ok();
}

#[test]
fn ratchet_overrun_fails_a_whole_workspace_run() {
    let root = scratch_workspace("ratchet-over", EXPECT_SRC);
    fs::write(root.join(fabricsim_lint::RATCHET_FILE), "total 0\n").expect("write ratchet");
    let code = cli_run(&args(&["--root", root.to_str().expect("utf-8 path")]));
    assert_eq!(code, 1, "1 live suppression exceeds the recorded 0");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn ratchet_at_budget_passes_and_write_ratchet_records_the_counts() {
    // A non-test `#[expect]` of a lint clippy enforces for the workspace is
    // counted; a `#[expect]` of any other lint is not.
    let src = format!(
        "{EXPECT_SRC}#[expect(dead_code, reason = \"fixture\")]\n\
         fn unused() {{}}\n"
    );
    let root = scratch_workspace("ratchet-ok", &src);
    let code = cli_run(&args(&[
        "--root",
        root.to_str().expect("utf-8 path"),
        "--write-ratchet",
    ]));
    assert_eq!(code, 0);
    let body =
        fs::read_to_string(root.join(fabricsim_lint::RATCHET_FILE)).expect("ratchet written");
    assert!(body.contains("total 1"), "{body}");
    assert!(body.contains("clippy::expect_used 1"), "{body}");
    assert!(!body.contains("dead_code"), "{body}");
    // The freshly recorded budget passes the enforcing run.
    assert_eq!(
        cli_run(&args(&["--root", root.to_str().expect("utf-8 path")])),
        0
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn per_rule_ratchet_overrun_fails_even_when_total_fits() {
    let root = scratch_workspace("ratchet-rule", EXPECT_SRC);
    // Total budget is generous but the rule's own budget is zero.
    fs::write(
        root.join(fabricsim_lint::RATCHET_FILE),
        "total 5\ndeterminism-taint 5\n",
    )
    .expect("write ratchet");
    let code = cli_run(&args(&["--root", root.to_str().expect("utf-8 path")]));
    assert_eq!(code, 1, "clippy::expect_used has no recorded budget");
    fs::remove_dir_all(&root).ok();
}
