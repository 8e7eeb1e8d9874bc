#![forbid(unsafe_code)]
//! `fabricsim-lint` — the repo-local call-graph checks clippy cannot express.
//!
//! The paper reproduction's whole measurement story rests on the simulator
//! being deterministic *by construction*: identical seeds must give
//! bit-identical reports, or the perf gate (`BENCH_fabricsim.json`) and the
//! pooled-VSCC golden tests measure noise instead of code. The single-file
//! rules — no wall-clock reads, no hash-ordered iteration, no library
//! `unwrap`/`expect`, no `unsafe`, no `thread::sleep` or thread identity —
//! are clippy's, set once in the root `Cargo.toml`'s `[workspace.lints]` and
//! `clippy.toml` (DESIGN.md §13). This crate keeps what needs the whole
//! workspace at once: a comment/string/char-aware tokenizer ([`tokenizer`])
//! and item parser ([`parse`]) feed a workspace symbol graph
//! ([`symgraph`]), and two passes over it ([`taint`]) —
//! `determinism-taint` and `panic-path` — report typed diagnostics
//! (`file:line:col`, rule id, message, call-chain notes) in human or
//! `--json` form.
//!
//! The only escape hatch is an *audited* one — see [`allow`]: every
//! suppression must name the rule and carry a written justification, and
//! the annotations are themselves linted. The suppression ratchet
//! ([`RATCHET_FILE`]) counts those `lint:allow`s together with the non-test
//! `#[expect]`s of the [`MIGRATED_LINTS`].
//!
//! Run it as `cargo run -p fabricsim-lint`, or `fabricsim lint` from the
//! main CLI. Exit codes: 0 clean, 1 violations, 2 usage/IO error.

pub mod allow;
pub mod diag;
pub mod engine;
pub mod parse;
pub mod symgraph;
pub mod taint;
pub mod tokenizer;

pub use diag::{Diagnostic, LintReport, RuleId};
pub use engine::{
    classify, lint_paths, lint_source, FileContext, MIGRATED_LINTS, SIM_CRITICAL_CRATES,
};

use std::fmt::Write as FmtWrite;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The suppression-ratchet file at the workspace root: the count of audited
/// suppressions — justified `lint:allow`s plus non-test `#[expect]`s of the
/// [`MIGRATED_LINTS`] — may only go *down*. CI fails when the live count
/// exceeds the recorded one; lowering the file is the only way to "spend" a
/// burn-down.
pub const RATCHET_FILE: &str = "lint-ratchet.txt";

/// Parses `lint-ratchet.txt`: `#` comments, then `total N` and per-rule
/// `<rule-or-lint> N` lines. Returns the total and the per-rule map.
#[must_use]
pub fn parse_ratchet(text: &str) -> Option<(usize, std::collections::BTreeMap<String, usize>)> {
    let mut total: Option<usize> = None;
    let mut by_rule = std::collections::BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(char::is_whitespace)?;
        let n: usize = value.trim().parse().ok()?;
        if key == "total" {
            total = Some(n);
        } else {
            by_rule.insert(key.to_string(), n);
        }
    }
    Some((total?, by_rule))
}

/// Renders the ratchet file for the current report, in the format
/// [`parse_ratchet`] reads.
#[must_use]
pub fn render_ratchet(report: &LintReport) -> String {
    let mut out = String::from(
        "# fabricsim-lint suppression ratchet.\n\
         # Counts justified `lint:allow`s and non-test `#[expect]`s of the\n\
         # lints clippy enforces for the workspace; may only decrease.\n\
         # Regenerate with: cargo run -p fabricsim-lint -- --write-ratchet\n",
    );
    let _ = writeln!(out, "total {}", report.suppressed);
    for (rule, n) in &report.suppressed_by_rule {
        let _ = writeln!(out, "{rule} {n}");
    }
    out
}

/// Enforces the ratchet: live suppressions must not exceed the recorded
/// count. Returns an error message when they do, `Ok(None)` when no ratchet
/// file exists, and `Ok(Some(recorded_total))` when within budget.
///
/// # Errors
/// A human-readable message naming the overrun (total or per-rule).
pub fn check_ratchet(root: &Path, report: &LintReport) -> Result<Option<usize>, String> {
    let Ok(text) = std::fs::read_to_string(root.join(RATCHET_FILE)) else {
        return Ok(None);
    };
    let Some((total, by_rule)) = parse_ratchet(&text) else {
        return Err(format!(
            "{RATCHET_FILE} is malformed; regenerate with --write-ratchet"
        ));
    };
    if report.suppressed > total {
        return Err(format!(
            "suppression count {} exceeds the ratchet ({total}); \
             remove suppressions instead of adding them",
            report.suppressed
        ));
    }
    for (rule, n) in &report.suppressed_by_rule {
        let budget = by_rule.get(rule).copied().unwrap_or(0);
        if *n > budget {
            return Err(format!(
                "rule {rule}: {n} suppressions exceed the ratchet ({budget}); \
                 remove suppressions instead of adding them"
            ));
        }
    }
    Ok(Some(total))
}

/// Prints to stdout, ignoring `EPIPE` so `fabricsim lint | head` exits
/// cleanly instead of panicking like `println!` would.
fn out(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

/// Command-line driver shared by the `fabricsim-lint` binary and the
/// `fabricsim lint` subcommand. Returns the process exit code.
#[must_use]
pub fn cli_run(args: &[String]) -> i32 {
    let mut json = false;
    let mut json_out: Option<String> = None;
    let mut write_ratchet = false;
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--write-ratchet" => write_ratchet = true,
            "--json" => {
                json = true;
                // `--json lint-report.json` writes the report to that file;
                // a bare `--json` prints it to stdout.
                let is_json = |n: &str| {
                    std::path::Path::new(n)
                        .extension()
                        .is_some_and(|e| e.eq_ignore_ascii_case("json"))
                };
                if it.peek().is_some_and(|n| is_json(n)) {
                    json_out = it.next().cloned();
                }
            }
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--list-rules" => {
                for rule in RuleId::ALL {
                    out(&format!("{:28} {}\n", rule.as_str(), rule.description()));
                }
                return 0;
            }
            "--help" | "-h" => return usage(),
            flag if flag.starts_with('-') => {
                eprintln!("fabricsim-lint: unknown flag {flag:?}");
                return usage();
            }
            path => paths.push(path.to_string()),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let report = match lint_paths(&root, &paths) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fabricsim-lint: {e}");
            return 2;
        }
    };
    if write_ratchet {
        let path = root.join(RATCHET_FILE);
        if let Err(e) = std::fs::write(&path, render_ratchet(&report)) {
            eprintln!("fabricsim-lint: cannot write {}: {e}", path.display());
            return 2;
        }
        eprintln!("fabricsim-lint: ratchet written to {}", path.display());
    }
    // The ratchet only applies to whole-workspace runs — a path-scoped run
    // sees a subset of the suppressions and would always pass trivially.
    if paths.is_empty() && !write_ratchet {
        if let Err(e) = check_ratchet(&root, &report) {
            eprintln!("fabricsim-lint: {e}");
            return 1;
        }
    }
    if json {
        let body = report.to_json();
        match &json_out {
            Some(file) => {
                if let Err(e) = std::fs::write(file, &body) {
                    eprintln!("fabricsim-lint: cannot write {file}: {e}");
                    return 2;
                }
                // Keep the human summary visible next to the artifact path.
                eprint!("{}", report.to_human());
                eprintln!("fabricsim-lint: JSON report written to {file}");
            }
            None => out(&body),
        }
    } else {
        out(&report.to_human());
    }
    i32::from(!report.is_clean())
}

fn usage() -> i32 {
    eprintln!("usage: fabricsim-lint [--json [FILE.json]] [--write-ratchet] [--root DIR]");
    eprintln!("                      [--list-rules] [PATHS…]");
    eprintln!();
    eprintln!("Runs the workspace call-graph passes (determinism-taint, panic-path) over");
    eprintln!("the fabricsim workspace (or just PATHS). The single-file rules are clippy's:");
    eprintln!("`cargo clippy --all-targets -- -D warnings`. Exit codes: 0 clean,");
    eprintln!("1 violations, 2 error.");
    eprintln!();
    eprintln!("  --write-ratchet regenerate lint-ratchet.txt from the live counts");
    2
}
