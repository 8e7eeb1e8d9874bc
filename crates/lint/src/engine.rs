//! File classification, workspace walking, and pass orchestration.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, LintReport};
use crate::symgraph::{ParsedFile, SymbolGraph};

/// Crates whose code runs inside the simulated world: any nondeterminism
/// here changes reported phase measurements.
pub const SIM_CRITICAL_CRATES: &[&str] = &[
    "des",
    "core",
    "peer",
    "ordering",
    "ledger",
    "raft",
    "kafka",
    "chaincode",
    "policy",
    "types",
    "crypto",
];

/// The lints clippy and rustc enforce in place of this crate's former
/// token rules (the root `Cargo.toml`'s `[workspace.lints]` plus
/// `clippy.toml`). A non-test `#[expect(…)]` or `#[allow(…)]` naming one is
/// an audited suppression, counted by the ratchet.
pub const MIGRATED_LINTS: &[&str] = &[
    "unsafe_code",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::iter_over_hash_type",
    "clippy::disallowed_methods",
    "clippy::disallowed_types",
];

/// What the passes need to know about one source file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Short crate name (`core`, `obs`, …); `None` for a file outside the
    /// workspace layout passed explicitly on the command line.
    pub crate_name: Option<String>,
    /// True for test-only files: `crates/*/tests/**`, `crates/*/benches/**`
    /// and `tests/tests/**`.
    pub is_test: bool,
}

/// Classifies one workspace-relative path. `None` means the file is not
/// linted at all (fixtures, non-Rust files).
#[must_use]
pub fn classify(rel_path: &str) -> Option<FileContext> {
    let is_rust = Path::new(rel_path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("rs"));
    if !is_rust || rel_path.contains("/fixtures/") {
        return None;
    }
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, is_test) = match parts.as_slice() {
        ["crates", name, "tests" | "benches", ..] => (Some(*name), true),
        ["crates", name, ..] => (Some(*name), false),
        ["tests", "tests", ..] => (Some("integration"), true),
        ["tests", ..] => (Some("integration"), false),
        ["examples", ..] => (Some("examples"), false),
        _ => (None, false),
    };
    Some(FileContext {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.map(str::to_string),
        is_test,
    })
}

/// Lints one file's source as a one-file workspace: the structural passes
/// and the suppression count.
///
/// Returns the surviving diagnostics and how many audited suppressions the
/// file carries.
#[must_use]
pub fn lint_source(ctx: &FileContext, src: &str) -> (Vec<Diagnostic>, usize) {
    let report = lint_parsed(&[ParsedFile::new(ctx.clone(), src)]);
    (report.violations, report.suppressed)
}

/// The directories a whole-workspace run walks.
const WORKSPACE_DIRS: &[&str] = &["crates", "examples", "tests"];

/// Lints the whole workspace at `root`, or just `paths` (files or
/// directories, relative to `root` or absolute) when non-empty.
///
/// # Errors
/// I/O errors from the walk or file reads; `NotFound` when a given path
/// does not exist or `root` has no workspace directory at all.
pub fn lint_paths(root: &Path, paths: &[String]) -> io::Result<LintReport> {
    let mut parsed: Vec<ParsedFile> = Vec::new();
    for file in collect_files(root, paths)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if let Some(ctx) = classify(&rel) {
            parsed.push(ParsedFile::new(ctx, &fs::read_to_string(&file)?));
        }
    }
    Ok(lint_parsed(&parsed))
}

/// Runs everything over a parsed file set: the per-file suppression count,
/// then the structural passes over the symbol graph. Every structural
/// diagnostic is a violation; nothing suppresses one.
pub(crate) fn lint_parsed(parsed: &[ParsedFile]) -> LintReport {
    let mut report = LintReport {
        checked_files: parsed.len(),
        ..LintReport::default()
    };
    for pf in parsed.iter().filter(|pf| !pf.ctx.is_test) {
        for lint in &pf.ast.suppressed_lints {
            if MIGRATED_LINTS.contains(&lint.as_str()) {
                report.count_suppressed(lint);
            }
        }
    }
    let graph = SymbolGraph::build(parsed);
    report.violations = crate::taint::structural_passes(parsed, &graph);
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    report
}

/// Resolves the linted file set: the whole workspace under `root`, or just
/// `paths` (files or directories) when non-empty. Sorted and deduplicated.
fn collect_files(root: &Path, paths: &[String]) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = Vec::new();
    if paths.is_empty() {
        let mut seen_any = false;
        for dir in WORKSPACE_DIRS {
            let dir = root.join(dir);
            if dir.is_dir() {
                seen_any = true;
                walk(&dir, &mut files)?;
            }
        }
        // A root without any workspace directory is a typo'd --root, not a
        // clean workspace.
        if !seen_any {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "{} has no crates/, examples/ or tests/ directory",
                    root.display()
                ),
            ));
        }
    } else {
        for p in paths {
            let path = root.join(p);
            if path.is_dir() {
                walk(&path, &mut files)?;
            } else if path.is_file() {
                files.push(path);
            } else {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such file or directory: {p}"),
                ));
            }
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

/// Recursive, deterministic (sorted) `.rs` walk; skips `target`, VCS dirs,
/// and lint fixtures.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if Path::new(&name)
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("rs"))
        {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::RuleId;

    #[test]
    fn classification_covers_the_workspace_layout() {
        let lib = classify("crates/core/src/sim.rs").expect("some");
        assert_eq!(lib.crate_name.as_deref(), Some("core"));
        assert!(!lib.is_test);

        let bin = classify("crates/bench/src/bin/fabricsim-cli.rs").expect("some");
        assert_eq!(bin.crate_name.as_deref(), Some("bench"));
        assert!(!bin.is_test);

        let is_test = |path: &str| classify(path).expect("some").is_test;
        assert!(is_test("crates/peer/tests/pipeline.rs"));
        assert!(is_test("crates/bench/benches/micro.rs"));
        assert!(is_test("tests/tests/determinism.rs"));
        assert!(!is_test("tests/src/lib.rs"));
        assert!(!is_test("examples/quickstart.rs"));

        // Fixtures and non-Rust files are invisible.
        assert!(classify("crates/lint/tests/fixtures/panic-path/bad.rs").is_none());
        assert!(classify("README.md").is_none());

        // A file outside the layout is linted as non-test code of no crate.
        let scratch = classify("scratch.rs").expect("some");
        assert_eq!(scratch.crate_name, None);
        assert!(!scratch.is_test);
    }

    /// A DES handler (it schedules) with a `panic!` on lines 3 and 7 and a
    /// migrated-lint `#[expect]` on line 4.
    const HANDLER: &str = "\
pub fn arm(kernel: &mut Kernel, n: u64) {
    kernel.schedule(n, move || {});
    if n == 0 { panic!(\"empty window\") }
    #[expect(clippy::expect_used, reason = \"fixture\")]
    let v = Some(n).expect(\"some\");
    let _ = v;
    if n == 1 { panic!(\"one\") }
}
";

    #[test]
    fn lint_source_applies_allows_and_counts_suppressions() {
        let ctx = classify("crates/core/src/x.rs").expect("some");
        let (diags, suppressed) = lint_source(&ctx, HANDLER);
        // The migrated-lint expect is counted; no panic-path site is
        // suppressed by anything.
        assert_eq!(suppressed, 1);
        let sites: Vec<(RuleId, u32, u32)> =
            diags.iter().map(|d| (d.rule, d.line, d.col)).collect();
        assert_eq!(
            sites,
            [(RuleId::PanicPath, 3, 17), (RuleId::PanicPath, 7, 17)]
        );
        // A test file has nothing to audit: clippy exempts test code from
        // the migrated lints, and the passes skip it.
        let test_ctx = classify("crates/core/tests/x.rs").expect("some");
        assert_eq!(lint_source(&test_ctx, HANDLER), (Vec::new(), 0));
    }
}
