//! The rule catalogue: token-pattern checks over one file.
//!
//! Each rule is a pure function from `(tokens, file context)` to
//! diagnostics. Rules never see comments (the scanner filters them out) and
//! never see anything inside string/char literals (the tokenizer already
//! atomized those), so `"Instant::now"` in a log message or `HashMap` in a
//! doc comment can never fire. Test code — files under `tests/`, `benches/`,
//! and `#[cfg(test)]` regions — is exempt from every code rule.

use crate::diag::{Diagnostic, RuleId};
use crate::tokenizer::{Token, TokenKind};

/// What kind of source file is being linted (decides rule applicability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/*/src/**` (except `src/bin/`): library code, all rules apply.
    Lib,
    /// `crates/*/src/bin/**`: binary code — everything but the unwrap rule.
    Bin,
    /// `crates/*/tests/**`, `crates/*/benches/**`, `tests/tests/**`.
    Test,
    /// `examples/**`.
    Example,
}

/// Everything the rules need to know about the file being linted.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Short crate name (`core`, `obs`, …); `None` for scratch files passed
    /// explicitly on the command line, which are linted at full strictness.
    pub crate_name: Option<String>,
    /// File kind (decides which rules run).
    pub kind: FileKind,
    /// True for `crates/*/src/lib.rs` (the forbid-unsafe rule's subject).
    pub is_crate_root: bool,
}

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

impl FileContext {
    /// True when this file belongs to a sim-critical crate (scratch files
    /// are treated as sim-critical so ad-hoc linting is maximally strict).
    #[must_use]
    pub fn sim_critical(&self) -> bool {
        match &self.crate_name {
            Some(name) => SIM_CRITICAL_CRATES.contains(&name.as_str()),
            None => true,
        }
    }
}

/// The comment-free token view rules scan, with test regions marked.
pub struct Scanner<'a> {
    pub(crate) toks: Vec<&'a Token>,
    pub(crate) in_test: Vec<bool>,
}

impl<'a> Scanner<'a> {
    /// Builds the scanner: filters comments, then marks `#[cfg(test)]`
    /// item bodies (attribute through matching `}` or terminating `;`).
    #[must_use]
    pub fn new(tokens: &'a [Token], whole_file_is_test: bool) -> Self {
        let toks: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut in_test = vec![whole_file_is_test; toks.len()];
        let mut i = 0;
        while i < toks.len() {
            if let Some(end) = test_region_end(&toks, i) {
                for flag in in_test.iter_mut().take(end + 1).skip(i) {
                    *flag = true;
                }
                i = end + 1;
            } else {
                i += 1;
            }
        }
        Scanner { toks, in_test }
    }

    pub(crate) fn get(&self, i: usize) -> Option<&Token> {
        self.toks.get(i).copied()
    }

    pub(crate) fn ident_at(&self, i: usize, s: &str) -> bool {
        self.get(i).is_some_and(|t| t.is_ident(s))
    }

    pub(crate) fn punct_at(&self, i: usize, s: &str) -> bool {
        self.get(i).is_some_and(|t| t.is_punct(s))
    }

    fn diag(&self, i: usize, rule: RuleId, ctx: &FileContext, message: String) -> Diagnostic {
        let t = self.toks[i];
        Diagnostic {
            file: ctx.rel_path.clone(),
            line: t.line,
            col: t.col,
            rule,
            message,
            suggestion: suggestion_for(rule),
            notes: Vec::new(),
        }
    }
}

/// If `toks[i]` opens a `#[cfg(test)]`-gated item, returns the index of the
/// token that ends the item (matching `}` or `;`).
fn test_region_end(toks: &[&Token], i: usize) -> Option<usize> {
    // `#` `[` `cfg` `(` … `test` … `)` `]`
    if !(toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("["))) {
        return None;
    }
    if !toks.get(i + 2).is_some_and(|t| t.is_ident("cfg")) {
        return None;
    }
    let mut j = i + 3;
    if !toks.get(j).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let mut depth = 0usize;
    let mut saw_test = false;
    loop {
        let t = toks.get(j)?;
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_ident("test") {
            saw_test = true;
        }
        j += 1;
    }
    if !saw_test || !toks.get(j + 1).is_some_and(|t| t.is_punct("]")) {
        return None;
    }
    j += 2;
    // Skip any further attributes on the same item.
    while toks.get(j).is_some_and(|t| t.is_punct("#"))
        && toks.get(j + 1).is_some_and(|t| t.is_punct("["))
    {
        let mut brackets = 0usize;
        loop {
            let t = toks.get(j)?;
            if t.is_punct("[") {
                brackets += 1;
            } else if t.is_punct("]") {
                brackets -= 1;
                if brackets == 0 {
                    break;
                }
            }
            j += 1;
        }
        j += 1;
    }
    // The item body: everything until the matching `}`; or a `;` for
    // body-less items (`#[cfg(test)] mod tests;`, `use` declarations). A `;`
    // inside brackets (`fn f() -> [u8; 3]`) does not end the item.
    let mut braces = 0usize;
    let mut brackets = 0usize;
    loop {
        let t = toks.get(j)?;
        if t.is_punct("{") {
            braces += 1;
        } else if t.is_punct("}") {
            braces -= 1;
            if braces == 0 {
                return Some(j);
            }
        } else if t.is_punct("[") {
            brackets += 1;
        } else if t.is_punct("]") {
            brackets = brackets.saturating_sub(1);
        } else if t.is_punct(";") && braces == 0 && brackets == 0 {
            return Some(j);
        }
        j += 1;
    }
}

pub(crate) fn suggestion_for(rule: RuleId) -> Option<String> {
    let s = match rule {
        RuleId::NoWallClock => {
            "use fabricsim_des::SimTime for simulated time, or route real time through the \
             audited fabricsim_obs::WallClock"
        }
        RuleId::NoHashmapIteration => {
            "switch the container to BTreeMap/BTreeSet, or collect and sort the keys before \
             iterating; lint:allow only with a proof the order cannot escape"
        }
        RuleId::NoFloatEq => {
            "compare with an epsilon ((a - b).abs() < EPS), re-express in integers, or compare \
             IEEE-754 bits explicitly via to_bits()"
        }
        RuleId::NoUnwrapInLib => {
            "propagate the error (`?`, Result return), use unwrap_or/_else/_default, or \
             lint:allow with a proof the invariant holds"
        }
        RuleId::ForbidUnsafePresent => "add `#![forbid(unsafe_code)]` at the top of lib.rs",
        RuleId::NoThreadSleep => {
            "model delays as simulated time (schedule a DES event); never block the host thread"
        }
        RuleId::NoThreadIdentity => {
            "key per-shard state by shard index (passed in at spawn), never by the OS thread \
             that happens to run it; lint:allow only with a proof the identity cannot reach \
             simulation state"
        }
        RuleId::AtomicsOrderingAnnotated => {
            "justify the relaxed ordering with a `// relaxed: <why>` note on the operation \
             (preferred), a lint:allow, or use Acquire/Release/SeqCst"
        }
        RuleId::NoUnboundedSink => {
            "make the buffer a bounded ring (evict the oldest entry at capacity and count the \
             eviction), or lint:allow with a note explaining why this allocation cannot grow"
        }
        RuleId::DeterminismTaint => {
            "make the helper deterministic (BTreeMap/sorted iteration, no thread identity, \
             no pointer-to-int), or sever the call path from sim-critical code"
        }
        RuleId::PanicPath => {
            "return a typed error from the handler path instead of panicking; for truly \
             unreachable arms, lint:allow(panic-path) with the dominating invariant"
        }
        RuleId::LockOrder => {
            "pick one global acquisition order for these mutexes and restructure the \
             out-of-order site to follow it"
        }
        RuleId::RelaxedNoteOnOperation => {
            "move the `// relaxed:` note onto the line of the atomic operation it justifies"
        }
        RuleId::AllowMissingJustification | RuleId::AllowUnknownRule => return None,
    };
    Some(s.to_string())
}

/// Runs every applicable code rule for this file.
#[must_use]
pub fn run_rules(ctx: &FileContext, tokens: &[Token]) -> Vec<Diagnostic> {
    let scan = Scanner::new(tokens, ctx.kind == FileKind::Test);
    let mut diags = Vec::new();
    let non_test_code = matches!(ctx.kind, FileKind::Lib | FileKind::Bin | FileKind::Example);
    if non_test_code {
        let relaxed_notes = crate::allow::collect_relaxed_notes(tokens);
        no_wall_clock(&scan, ctx, &mut diags);
        no_float_eq(&scan, ctx, &mut diags);
        atomics_ordering_annotated(&scan, ctx, &relaxed_notes, &mut diags);
        no_unbounded_sink(&scan, ctx, &mut diags);
        if ctx.sim_critical() {
            no_thread_sleep(&scan, ctx, &mut diags);
            no_thread_identity(&scan, ctx, &mut diags);
            no_hashmap_iteration(&scan, ctx, &mut diags);
        }
    }
    if ctx.kind == FileKind::Lib {
        no_unwrap_in_lib(&scan, ctx, &mut diags);
    }
    if ctx.is_crate_root {
        forbid_unsafe_present(&scan, ctx, &mut diags);
    }
    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags.dedup_by(|a, b| (a.line, a.col, a.rule) == (b.line, b.col, b.rule));
    diags
}

/// `Instant::now` / `SystemTime` anywhere outside tests (the single audited
/// entry point in `obs::WallClock` carries its own lint:allow).
fn no_wall_clock(scan: &Scanner<'_>, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for i in 0..scan.toks.len() {
        if scan.in_test[i] {
            continue;
        }
        if scan.ident_at(i, "Instant") && scan.punct_at(i + 1, "::") && scan.ident_at(i + 2, "now")
        {
            out.push(scan.diag(
                i,
                RuleId::NoWallClock,
                ctx,
                "wall-clock read (`Instant::now`) in simulation code".into(),
            ));
        }
        if scan.ident_at(i, "SystemTime") {
            out.push(scan.diag(
                i,
                RuleId::NoWallClock,
                ctx,
                "`SystemTime` in simulation code".into(),
            ));
        }
    }
}

/// `thread::sleep` (or a call to a bare imported `sleep`) in sim-critical
/// crates.
fn no_thread_sleep(scan: &Scanner<'_>, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for i in 0..scan.toks.len() {
        if scan.in_test[i] || !scan.ident_at(i, "sleep") {
            continue;
        }
        let qualified = i >= 2 && scan.ident_at(i - 2, "thread") && scan.punct_at(i - 1, "::");
        let called = scan.punct_at(i + 1, "(");
        if qualified || called {
            out.push(scan.diag(
                i,
                RuleId::NoThreadSleep,
                ctx,
                "`thread::sleep` blocks the host thread inside the simulated world".into(),
            ));
        }
    }
}

/// `thread::current()` or the `ThreadId` type in sim-critical crates. The
/// sharded kernel multiplexes shards onto an arbitrary number of OS threads;
/// anything keyed on thread identity would make results depend on the worker
/// count, breaking the byte-identical-at-any-worker-count contract.
fn no_thread_identity(scan: &Scanner<'_>, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for i in 0..scan.toks.len() {
        if scan.in_test[i] {
            continue;
        }
        if scan.ident_at(i, "current")
            && i >= 2
            && scan.ident_at(i - 2, "thread")
            && scan.punct_at(i - 1, "::")
            && scan.punct_at(i + 1, "(")
        {
            out.push(scan.diag(
                i,
                RuleId::NoThreadIdentity,
                ctx,
                "`thread::current()` exposes OS-thread identity to simulation code".into(),
            ));
        }
        if scan.ident_at(i, "ThreadId") {
            out.push(scan.diag(
                i,
                RuleId::NoThreadIdentity,
                ctx,
                "`ThreadId` in simulation code keys state on the host scheduler".into(),
            ));
        }
    }
}

/// Methods whose results depend on `HashMap`/`HashSet` iteration order.
const ITERATION_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "retain_mut",
];

/// Flags iteration over locals/fields/params whose declared type (or
/// constructor) is `HashMap`/`HashSet`, plus direct `for … in map` loops.
fn no_hashmap_iteration(scan: &Scanner<'_>, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for (i, message) in hashmap_iteration_sites(scan) {
        out.push(scan.diag(i, RuleId::NoHashmapIteration, ctx, message));
    }
}

/// The shared detection behind [`no_hashmap_iteration`], also used by the
/// determinism-taint pass to seed sources in non-sim-critical crates.
/// Returns `(scanner token index, message)` for each non-test site.
#[allow(clippy::too_many_lines)] // two passes over two binding shapes; splitting hurts
pub(crate) fn hashmap_iteration_sites(scan: &Scanner<'_>) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    // Pass 1: names bound to hash-ordered containers anywhere in the file.
    let mut hash_names: Vec<&str> = Vec::new();
    for i in 0..scan.toks.len() {
        let Some(tok) = scan.get(i) else { break };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        // `name: [&][mut] [std::collections::] HashMap<…>` — covers let
        // annotations, struct fields, and fn parameters.
        if scan.punct_at(i + 1, ":") {
            let mut j = i + 2;
            let limit = j + 8;
            while j < limit {
                match scan.get(j) {
                    Some(t)
                        if t.is_punct("&")
                            || t.is_punct("::")
                            || t.kind == TokenKind::Lifetime
                            || t.is_ident("mut")
                            || t.is_ident("std")
                            || t.is_ident("collections") =>
                    {
                        j += 1;
                    }
                    Some(t) if t.is_ident("HashMap") || t.is_ident("HashSet") => {
                        hash_names.push(&tok.text);
                        break;
                    }
                    _ => break,
                }
            }
        }
        // `let [mut] name = HashMap::new()` / `HashSet::with_capacity(…)`.
        if tok.is_ident("let") {
            let name_at = if scan.ident_at(i + 1, "mut") {
                i + 2
            } else {
                i + 1
            };
            if let Some(name) = scan.get(name_at) {
                if name.kind == TokenKind::Ident
                    && scan.punct_at(name_at + 1, "=")
                    && (scan.ident_at(name_at + 2, "HashMap")
                        || scan.ident_at(name_at + 2, "HashSet"))
                    && scan.punct_at(name_at + 3, "::")
                {
                    hash_names.push(&name.text);
                }
            }
        }
    }
    if hash_names.is_empty() {
        return out;
    }
    let is_hash = |t: &Token| t.kind == TokenKind::Ident && hash_names.contains(&t.text.as_str());

    // Pass 2a: `name.iter()`-family calls.
    for i in 0..scan.toks.len() {
        if scan.in_test[i] {
            continue;
        }
        let Some(tok) = scan.get(i) else { break };
        if is_hash(tok) && scan.punct_at(i + 1, ".") {
            if let Some(m) = scan.get(i + 2) {
                if m.kind == TokenKind::Ident
                    && ITERATION_METHODS.contains(&m.text.as_str())
                    && scan.punct_at(i + 3, "(")
                {
                    out.push((
                        i,
                        format!(
                            "`{}.{}()` iterates a hash-ordered container (RandomState makes the \
                             order differ per process)",
                            tok.text, m.text
                        ),
                    ));
                }
            }
        }
    }

    // Pass 2b: `for … in [&][mut] name {`.
    for i in 0..scan.toks.len() {
        if scan.in_test[i] || !scan.ident_at(i, "for") {
            continue;
        }
        // Find `in` within the loop header, then the block opener.
        let mut j = i + 1;
        let header_limit = j + 24;
        while j < header_limit && !scan.punct_at(j, "{") {
            if scan.ident_at(j, "in") {
                let mut k = j + 1;
                while k < header_limit {
                    match scan.get(k) {
                        Some(t) if t.is_punct("&") || t.is_ident("mut") => k += 1,
                        Some(t) if is_hash(t) && scan.punct_at(k + 1, "{") => {
                            out.push((
                                k,
                                format!(
                                    "`for … in {}` iterates a hash-ordered container \
                                     (RandomState makes the order differ per process)",
                                    t.text
                                ),
                            ));
                            break;
                        }
                        _ => break,
                    }
                }
                break;
            }
            j += 1;
        }
    }
    out
}

/// `==`/`!=` with a float operand (literal, `as f64/f32` cast result, or an
/// `f64::`/`f32::` associated constant).
fn no_float_eq(scan: &Scanner<'_>, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for i in 0..scan.toks.len() {
        if scan.in_test[i] {
            continue;
        }
        let Some(op) = scan.get(i) else { break };
        if !(op.is_punct("==") || op.is_punct("!=")) {
            continue;
        }
        let prev_floaty = i >= 1
            && scan.get(i - 1).is_some_and(|t| {
                t.kind == TokenKind::Float || t.is_ident("f64") || t.is_ident("f32")
            });
        let next_floaty = scan.get(i + 1).is_some_and(|t| t.kind == TokenKind::Float)
            || (scan.punct_at(i + 1, "-")
                && scan.get(i + 2).is_some_and(|t| t.kind == TokenKind::Float))
            || ((scan.ident_at(i + 1, "f64") || scan.ident_at(i + 1, "f32"))
                && scan.punct_at(i + 2, "::"));
        if prev_floaty || next_floaty {
            out.push(scan.diag(
                i,
                RuleId::NoFloatEq,
                ctx,
                format!("`{}` compares floats for exact equality", op.text),
            ));
        }
    }
}

/// `.unwrap()` / `.expect(` in non-test library code.
fn no_unwrap_in_lib(scan: &Scanner<'_>, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for i in 1..scan.toks.len() {
        if scan.in_test[i] || !scan.punct_at(i - 1, ".") {
            continue;
        }
        if scan.ident_at(i, "unwrap") && scan.punct_at(i + 1, "(") && scan.punct_at(i + 2, ")") {
            out.push(scan.diag(
                i,
                RuleId::NoUnwrapInLib,
                ctx,
                "`.unwrap()` in library code panics on the error path".into(),
            ));
        }
        // `self.expect(…)` is a domain method (the JSON and policy parsers
        // both expose a `fn expect` that returns `Result`), not
        // `Option/Result::expect`; only flag calls on other receivers.
        if scan.ident_at(i, "expect")
            && scan.punct_at(i + 1, "(")
            && !(i >= 2 && scan.ident_at(i - 2, "self"))
        {
            out.push(scan.diag(
                i,
                RuleId::NoUnwrapInLib,
                ctx,
                "`.expect(…)` in library code panics on the error path".into(),
            ));
        }
    }
}

/// Growable-buffer constructors in *sink modules* (any file whose name
/// contains `sink`). An event sink that buffers with a plain `Vec`/`VecDeque`
/// grows without bound under load — every sink buffer must be a bounded ring
/// that evicts and counts, or carry an audited `lint:allow` note. `Vec::from`
/// is deliberately not matched: converting a ring to a `Vec` on drain is a
/// one-shot allocation sized by the already-bounded ring.
fn no_unbounded_sink(scan: &Scanner<'_>, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let file_name = ctx.rel_path.rsplit('/').next().unwrap_or(&ctx.rel_path);
    if !file_name.contains("sink") {
        return;
    }
    for i in 0..scan.toks.len() {
        if scan.in_test[i] {
            continue;
        }
        let container = if scan.ident_at(i, "Vec") {
            "Vec"
        } else if scan.ident_at(i, "VecDeque") {
            "VecDeque"
        } else {
            continue;
        };
        if !scan.punct_at(i + 1, "::") {
            continue;
        }
        let ctor = match scan.get(i + 2) {
            Some(t) if t.is_ident("new") => "new",
            Some(t) if t.is_ident("with_capacity") => "with_capacity",
            _ => continue,
        };
        out.push(scan.diag(
            i,
            RuleId::NoUnboundedSink,
            ctx,
            format!(
                "`{container}::{ctor}` allocates a growable buffer in a sink module; sink \
                 buffers must be bounded rings with an eviction counter"
            ),
        ));
    }
}

/// Crate roots must keep `#![forbid(unsafe_code)]`. A root that sets another
/// level for `unsafe_code` is reported at that attribute, where an audited
/// `lint:allow` above it can bind; one that sets none, at the file's start.
fn forbid_unsafe_present(scan: &Scanner<'_>, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let shape = ["#", "!", "[", "<level>", "(", "unsafe_code", ")", "]"];
    let attrs: Vec<usize> = (0..scan.toks.len())
        .filter(|&i| {
            shape
                .iter()
                .enumerate()
                .all(|(k, w)| k == 3 || scan.get(i + k).is_some_and(|t| t.text == *w))
        })
        .collect();
    if attrs.iter().any(|&i| scan.ident_at(i + 3, "forbid")) {
        return;
    }
    let (line, col) = attrs
        .first()
        .map_or((1, 1), |&i| (scan.toks[i].line, scan.toks[i].col));
    out.push(Diagnostic {
        file: ctx.rel_path.clone(),
        line,
        col,
        rule: RuleId::ForbidUnsafePresent,
        message: "crate root does not `#![forbid(unsafe_code)]`".into(),
        suggestion: suggestion_for(RuleId::ForbidUnsafePresent),
        notes: Vec::new(),
    });
}

/// `Ordering::Relaxed` must carry a written justification: either a
/// `// relaxed: <why>` note binding within two lines above the use (the
/// preferred, first-class form — [`crate::taint`] additionally verifies it
/// sits on the operation itself) or a justified `lint:allow`.
fn atomics_ordering_annotated(
    scan: &Scanner<'_>,
    ctx: &FileContext,
    notes: &[crate::allow::RelaxedNote],
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..scan.toks.len() {
        if scan.in_test[i] {
            continue;
        }
        if scan.ident_at(i, "Ordering")
            && scan.punct_at(i + 1, "::")
            && scan.ident_at(i + 2, "Relaxed")
        {
            let line = scan.toks[i + 2].line;
            let justified = notes
                .iter()
                .any(|n| n.target_line.is_some_and(|t| t <= line && t + 2 >= line));
            if !justified {
                out.push(scan.diag(
                    i + 2,
                    RuleId::AtomicsOrderingAnnotated,
                    ctx,
                    "`Ordering::Relaxed` without a written justification".into(),
                ));
            }
        }
    }
}
