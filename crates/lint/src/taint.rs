//! The interprocedural passes over the workspace symbol graph — the two
//! checks clippy cannot express, because each follows a call chain across
//! crates:
//!
//! * **determinism taint** — nondeterminism sources (hash-ordered iteration,
//!   thread identity, pointer-to-int casts) that a sim-critical crate's
//!   public API can reach through the call graph, reported with the full
//!   chain. Clippy bans most of these sources where they are written
//!   (`clippy.toml`); this pass also sees an owned `.into_iter()` over a
//!   hash container, the one shape `disallowed-methods` cannot name.
//! * **panic-path audit** — `panic!`-family macros and (directly in
//!   handlers) computed indexing, reachable from DES event handlers — fns
//!   that schedule kernel events, and the methods of `Model` impls (the
//!   kernel fires every event through `Model::fire`) and `ShardWorld` impls
//!   (`deliver`).
//!   `unwrap`/`expect` sites are clippy's (`unwrap_used`, `expect_used`).

use std::collections::{BTreeMap, VecDeque};

use crate::diag::{Diagnostic, Note, RuleId};
use crate::engine::SIM_CRITICAL_CRATES;
use crate::symgraph::{ParsedFile, Symbol, SymbolGraph};
use crate::tokenizer::{Token, TokenKind};

/// Kernel methods whose callers are DES event handlers.
const SCHEDULE_METHODS: &[&str] = &["schedule", "schedule_in"];

/// Traits whose impl methods the kernels call with a world's events: every
/// handler is reached from a `Model::fire` match arm, and cross-shard
/// messages enter through `ShardWorld::deliver`.
const HANDLER_TRAITS: &[&str] = &["Model", "ShardWorld"];

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

/// Runs every structural pass; diagnostics are attributed to the file the
/// offending site lives in.
#[must_use]
pub fn structural_passes(files: &[ParsedFile], graph: &SymbolGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    determinism_taint(files, graph, &mut out);
    panic_path(files, graph, &mut out);
    out
}

/// A token stream with the comments filtered out.
struct Code<'a> {
    toks: Vec<&'a Token>,
}

impl<'a> Code<'a> {
    fn new(tokens: &'a [Token]) -> Self {
        Code {
            toks: tokens.iter().filter(|t| !t.is_comment()).collect(),
        }
    }

    fn get(&self, i: usize) -> Option<&'a Token> {
        self.toks.get(i).copied()
    }

    fn ident_at(&self, i: usize, s: &str) -> bool {
        self.get(i).is_some_and(|t| t.is_ident(s))
    }

    fn punct_at(&self, i: usize, s: &str) -> bool {
        self.get(i).is_some_and(|t| t.is_punct(s))
    }

    fn site(&self, i: usize, what: String) -> SourceSite {
        let t = self.toks[i];
        SourceSite {
            line: t.line,
            col: t.col,
            what,
        }
    }
}

/// Per-file helper: maps a source line to the innermost enclosing fn's
/// symbol id, using decl-line .. last-body-token-line ranges.
struct FnLocator {
    /// `(start_line, end_line, symbol_id)` per fn in this file.
    ranges: Vec<(u32, u32, usize)>,
}

impl FnLocator {
    fn new(file_idx: usize, pf: &ParsedFile, graph: &SymbolGraph) -> FnLocator {
        let mut ranges = Vec::new();
        for (id, s) in graph.symbols.iter().enumerate() {
            if s.file_idx != file_idx {
                continue;
            }
            let decl = &pf.ast.fns[s.fn_idx];
            let (b0, b1) = decl.body;
            let end = if b1 > b0 && b1 <= pf.tokens.len() {
                pf.tokens[b1 - 1].line
            } else {
                s.line
            };
            ranges.push((s.line, end, id));
        }
        FnLocator { ranges }
    }

    /// The innermost fn covering `line` (latest-starting covering range).
    fn locate(&self, line: u32) -> Option<usize> {
        self.ranges
            .iter()
            .filter(|(s, e, _)| *s <= line && line <= *e)
            .max_by_key(|(s, _, _)| *s)
            .map(|(_, _, id)| *id)
    }
}

/// One nondeterminism source site.
struct SourceSite {
    line: u32,
    col: u32,
    what: String,
}

/// Hash-ordered iteration over locals, fields and params whose declared
/// type (or constructor) is `HashMap`/`HashSet`: `name.iter()`-family calls
/// and direct `for … in name` loops. Test sites are included; the caller
/// drops the ones inside test fns.
fn hashmap_iteration_sites(code: &Code<'_>) -> Vec<SourceSite> {
    // Pass 1: names bound to hash-ordered containers anywhere in the file.
    let mut hash_names: Vec<&str> = Vec::new();
    for (i, tok) in code.toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        // `name: [&][mut] [std::collections::] HashMap<…>` — covers let
        // annotations, struct fields, and fn parameters.
        if code.punct_at(i + 1, ":") {
            for j in i + 2..i + 10 {
                match code.get(j) {
                    Some(t)
                        if t.is_punct("&")
                            || t.is_punct("::")
                            || t.kind == TokenKind::Lifetime
                            || t.is_ident("mut")
                            || t.is_ident("std")
                            || t.is_ident("collections") => {}
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
            let name_at = if code.ident_at(i + 1, "mut") {
                i + 2
            } else {
                i + 1
            };
            if let Some(name) = code.get(name_at) {
                if name.kind == TokenKind::Ident
                    && code.punct_at(name_at + 1, "=")
                    && (code.ident_at(name_at + 2, "HashMap")
                        || code.ident_at(name_at + 2, "HashSet"))
                    && code.punct_at(name_at + 3, "::")
                {
                    hash_names.push(&name.text);
                }
            }
        }
    }
    let mut out = Vec::new();
    if hash_names.is_empty() {
        return out;
    }
    let is_hash = |t: &Token| t.kind == TokenKind::Ident && hash_names.contains(&t.text.as_str());
    for (i, tok) in code.toks.iter().enumerate() {
        // Pass 2a: `name.iter()`-family calls.
        if is_hash(tok) && code.punct_at(i + 1, ".") && code.punct_at(i + 3, "(") {
            if let Some(m) = code.get(i + 2) {
                if m.kind == TokenKind::Ident && ITERATION_METHODS.contains(&m.text.as_str()) {
                    out.push(code.site(
                        i,
                        format!(
                            "`{}.{}()` iterates a hash-ordered container (RandomState makes \
                             the order differ per process)",
                            tok.text, m.text
                        ),
                    ));
                }
            }
        }
        // Pass 2b: `for … in [&][mut] name {`.
        if !tok.is_ident("for") {
            continue;
        }
        let header_limit = i + 25;
        let Some(j) = (i + 1..header_limit)
            .take_while(|&j| !code.punct_at(j, "{"))
            .find(|&j| code.ident_at(j, "in"))
        else {
            continue;
        };
        for k in j + 1..header_limit {
            match code.get(k) {
                Some(t) if t.is_punct("&") || t.is_ident("mut") => {}
                Some(t) if is_hash(t) && code.punct_at(k + 1, "{") => {
                    out.push(code.site(
                        k,
                        format!(
                            "`for … in {}` iterates a hash-ordered container (RandomState \
                             makes the order differ per process)",
                            t.text
                        ),
                    ));
                    break;
                }
                _ => break,
            }
        }
    }
    out
}

/// Scans one file for taint sources: hash-ordered iteration,
/// `thread::current()`, and pointer-to-int casts.
fn taint_sources(pf: &ParsedFile) -> Vec<SourceSite> {
    let code = Code::new(&pf.tokens);
    let mut out = hashmap_iteration_sites(&code);
    for i in 0..code.toks.len() {
        if code.ident_at(i, "current")
            && i >= 2
            && code.ident_at(i - 2, "thread")
            && code.punct_at(i - 1, "::")
            && code.punct_at(i + 1, "(")
        {
            out.push(code.site(i, "`thread::current()` exposes OS-thread identity".into()));
        }
        // Pointer-to-int casts: `… as usize` where the casted expression
        // came from `as_ptr`/`as_mut_ptr` or a raw-pointer cast a few tokens
        // back. Addresses vary per run under ASLR, so they are a randomness
        // source.
        let inty = code.ident_at(i, "as")
            && code.get(i + 1).is_some_and(|t| {
                t.is_ident("usize") || t.is_ident("u64") || t.is_ident("isize") || t.is_ident("i64")
            });
        let ptrish = || {
            (i.saturating_sub(8)..i).any(|k| {
                code.ident_at(k, "as_ptr")
                    || code.ident_at(k, "as_mut_ptr")
                    || (code.punct_at(k, "*")
                        && (code.ident_at(k + 1, "const") || code.ident_at(k + 1, "mut")))
            })
        };
        if inty && ptrish() {
            out.push(code.site(
                i,
                "pointer-to-int cast (addresses vary per run under ASLR)".into(),
            ));
        }
    }
    out
}

/// Reverse-BFS from each taint source over caller edges; report sources a
/// sim-critical crate's public API can reach, with the full chain.
fn determinism_taint(files: &[ParsedFile], graph: &SymbolGraph, out: &mut Vec<Diagnostic>) {
    for (file_idx, pf) in files.iter().enumerate() {
        if pf.ctx.is_test {
            continue;
        }
        let sources = taint_sources(pf);
        if sources.is_empty() {
            continue;
        }
        let locator = FnLocator::new(file_idx, pf, graph);
        for src in sources {
            let Some(start) = locator.locate(src.line) else {
                continue; // top-level const/static expression: no call path
            };
            if graph.symbols[start].in_test {
                continue;
            }
            let Some(chain) = chain_to_sim_critical_pub(graph, start) else {
                continue;
            };
            let notes = chain_notes(graph, &chain, &src.what);
            out.push(Diagnostic {
                file: pf.ctx.rel_path.clone(),
                line: src.line,
                col: src.col,
                rule: RuleId::DeterminismTaint,
                message: format!(
                    "{} is reachable from sim-critical public API `{}`",
                    src.what,
                    graph.symbols[chain[0]].qualified()
                ),
                suggestion: Some(RuleId::DeterminismTaint.suggestion().into()),
                notes,
            });
        }
    }
}

/// BFS upward through callers from `start`; returns the chain
/// `[sink, …, start]` for the nearest public sim-critical sink, or `None`.
fn chain_to_sim_critical_pub(graph: &SymbolGraph, start: usize) -> Option<Vec<usize>> {
    let sink_ok = |id: usize| graph.symbols[id].is_sim_critical_pub();
    if sink_ok(start) {
        return Some(vec![start]);
    }
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::from([start]);
    let mut visited = vec![false; graph.symbols.len()];
    visited[start] = true;
    while let Some(id) = queue.pop_front() {
        for &caller in &graph.callers[id] {
            if visited[caller] || graph.symbols[caller].in_test {
                continue;
            }
            visited[caller] = true;
            parent.insert(caller, id);
            if sink_ok(caller) {
                // Walk back down: sink → … → start.
                let mut chain = vec![caller];
                let mut cur = caller;
                while cur != start {
                    cur = parent[&cur];
                    chain.push(cur);
                }
                return Some(chain);
            }
            queue.push_back(caller);
        }
    }
    None
}

/// Renders a `[sink, …, site_fn]` chain as diagnostic notes, one per hop.
fn chain_notes(graph: &SymbolGraph, chain: &[usize], what: &str) -> Vec<Note> {
    let mut notes = Vec::new();
    let sink = &graph.symbols[chain[0]];
    notes.push(Note {
        file: sink.file.clone(),
        line: sink.line,
        message: format!(
            "`{}` is a public API of sim-critical crate `{}`",
            sink.qualified(),
            sink.krate
        ),
    });
    for w in chain.windows(2) {
        let (src, dst) = (w[0], w[1]);
        let edge = graph.callees[src].iter().find(|e| e.to == dst);
        let line = edge.map_or(graph.symbols[src].line, |e| e.line);
        notes.push(Note {
            file: graph.symbols[src].file.clone(),
            line,
            message: format!("which calls `{}`", graph.symbols[dst].qualified()),
        });
    }
    let Some(&last_id) = chain.last() else {
        return notes;
    };
    let last = &graph.symbols[last_id];
    notes.push(Note {
        file: last.file.clone(),
        line: last.line,
        message: format!("`{}` contains the source: {}", last.qualified(), what),
    });
    notes
}

/// One potential panic site inside a fn body.
struct PanicSite {
    line: u32,
    col: u32,
    what: String,
    /// Indexing sites only count directly inside handler roots.
    is_indexing: bool,
}

/// Scans the body of one fn for panic sites (comment-filtered, test-aware).
fn panic_sites(pf: &ParsedFile, body: (usize, usize)) -> Vec<PanicSite> {
    let mut out = Vec::new();
    let toks: Vec<&Token> = pf.tokens[body.0..body.1]
        .iter()
        .filter(|t| !t.is_comment())
        .collect();
    let at = |k: usize| -> Option<&&Token> { toks.get(k) };
    for i in 0..toks.len() {
        let t = toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_bang = at(i + 1).is_some_and(|n| n.is_punct("!"));
        if next_bang && ["panic", "unreachable", "todo", "unimplemented"].contains(&t.text.as_str())
        {
            out.push(PanicSite {
                line: t.line,
                col: t.col,
                what: format!("`{}!` aborts the shard", t.text),
                is_indexing: false,
            });
            continue;
        }
        // `name[…]` indexing — panics when out of bounds. Direct-only: the
        // caller filters these to handler roots. Plain id-lookup indexing
        // (`pools[p]`, `peers[self.leader]`) is the arena idiom this
        // workspace is built on — ids are constructed valid — so only
        // *computed* indexes (literals, arithmetic, nesting, calls) are
        // reported; those are where off-by-one and empty-slice panics live.
        if at(i + 1).is_some_and(|n| n.is_punct("["))
            && !at(i + 2).is_some_and(|n| n.is_punct("]"))
            && !index_is_plain_path(&toks, i + 1)
        {
            out.push(PanicSite {
                line: t.line,
                col: t.col,
                what: format!("`{}[…]` computed-index panics when out of bounds", t.text),
                is_indexing: true,
            });
        }
    }
    out
}

/// True when the bracketed index expression starting at the `[` at `open`
/// is a plain path — idents joined by `.` (including `self`), nothing
/// computed. `xs[p]` and `xs[self.leader]` are plain; `xs[0]`, `xs[i + 1]`,
/// `xs[ids[k]]`, and `xs[f(k)]` are not.
fn index_is_plain_path(toks: &[&Token], open: usize) -> bool {
    debug_assert!(toks[open].is_punct("["));
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
            if depth > 1 {
                return false; // nested indexing is computed
            }
            continue;
        }
        if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return k > open + 1; // non-empty index expression
            }
            continue;
        }
        let plain = t.kind == TokenKind::Ident || t.is_punct(".");
        if !plain {
            return false;
        }
    }
    false // unbalanced: treat as computed
}

/// The handler trait `s` is a method of an impl of, if any.
fn handler_trait(s: &Symbol) -> Option<&str> {
    s.trait_name
        .as_deref()
        .filter(|t| HANDLER_TRAITS.contains(t))
}

/// Forward BFS from DES handler roots; reports reachable panic sites.
fn panic_path(files: &[ParsedFile], graph: &SymbolGraph, out: &mut Vec<Diagnostic>) {
    // Roots: Model and ShardWorld impl methods and fns that schedule kernel
    // events — in sim-critical crates only, outside tests.
    let mut roots = Vec::new();
    for (id, s) in graph.symbols.iter().enumerate() {
        if s.in_test || !SIM_CRITICAL_CRATES.contains(&s.krate.as_str()) {
            continue;
        }
        let decl = &files[s.file_idx].ast.fns[s.fn_idx];
        let schedules = decl
            .calls
            .iter()
            .any(|c| c.is_method && SCHEDULE_METHODS.contains(&c.path[0].as_str()));
        if handler_trait(s).is_some() || schedules {
            roots.push(id);
        }
    }
    // BFS with parent pointers; first reach wins (shortest chain).
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut visited = vec![false; graph.symbols.len()];
    let mut queue: VecDeque<usize> = roots.iter().copied().collect();
    for &r in &roots {
        visited[r] = true;
    }
    while let Some(id) = queue.pop_front() {
        for e in &graph.callees[id] {
            if visited[e.to] || graph.symbols[e.to].in_test {
                continue;
            }
            visited[e.to] = true;
            parent.insert(e.to, id);
            queue.push_back(e.to);
        }
    }
    let is_root = |id: usize| roots.contains(&id);
    for (id, &reached) in visited.iter().enumerate() {
        if !reached {
            continue;
        }
        let s = &graph.symbols[id];
        let pf = &files[s.file_idx];
        if pf.ctx.is_test {
            continue;
        }
        let decl = &pf.ast.fns[s.fn_idx];
        for site in panic_sites(pf, decl.body) {
            if site.is_indexing && !is_root(id) {
                continue; // transitive indexing would drown the report
            }
            // Chain: root → … → this fn.
            let mut chain = vec![id];
            let mut cur = id;
            while let Some(&p) = parent.get(&cur) {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            let root = &graph.symbols[chain[0]];
            let mut notes = vec![Note {
                file: root.file.clone(),
                line: root.line,
                message: format!(
                    "`{}` is a DES event handler ({})",
                    root.qualified(),
                    match handler_trait(root) {
                        Some(t) => format!("implements {t}::{}", root.name),
                        None => "schedules kernel events".to_string(),
                    }
                ),
            }];
            for w in chain.windows(2) {
                let (src, dst) = (w[0], w[1]);
                let edge = graph.callees[src].iter().find(|e| e.to == dst);
                let line = edge.map_or(graph.symbols[src].line, |e| e.line);
                notes.push(Note {
                    file: graph.symbols[src].file.clone(),
                    line,
                    message: format!("which calls `{}`", graph.symbols[dst].qualified()),
                });
            }
            out.push(Diagnostic {
                file: pf.ctx.rel_path.clone(),
                line: site.line,
                col: site.col,
                rule: RuleId::PanicPath,
                message: format!(
                    "{} and is reachable from DES event handler `{}`",
                    site.what,
                    graph.symbols[chain[0]].qualified()
                ),
                suggestion: Some(RuleId::PanicPath.suggestion().into()),
                notes,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symgraph::parse_sources;

    fn run(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files = parse_sources(sources);
        let graph = SymbolGraph::build(&files);
        structural_passes(&files, &graph)
    }

    #[test]
    fn cross_crate_hashmap_taint_reports_full_chain() {
        let diags = run(&[
            (
                "crates/obs/src/agg.rs",
                "use std::collections::HashMap;\n\
                 pub fn summarize(m: &HashMap<u32, u32>) -> u32 {\n\
                 \x20   let mut total = 0;\n\
                 \x20   for v in m.values() { total += v; }\n\
                 \x20   total\n\
                 }\n",
            ),
            (
                "crates/core/src/sim.rs",
                "use fabricsim_obs::agg::summarize;\n\
                 pub fn tick(m: &std::collections::HashMap<u32, u32>) -> u32 {\n\
                 \x20   summarize(m)\n\
                 }\n",
            ),
        ]);
        let taints: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::DeterminismTaint)
            .collect();
        assert_eq!(taints.len(), 1, "{diags:?}");
        let d = taints[0];
        assert_eq!(d.file, "crates/obs/src/agg.rs");
        assert_eq!(d.line, 4);
        assert!(d.message.contains("fabricsim_core::sim::tick"));
        // Chain notes: sink decl, call hop, source fn.
        assert!(d.notes.len() >= 3, "{:?}", d.notes);
        assert_eq!(d.notes[0].file, "crates/core/src/sim.rs");
        assert!(d.notes[0].message.contains("public API"));
        assert!(d.notes[1].message.contains("summarize"));
        assert_eq!(d.notes[1].line, 3, "hop note points at the call site");
    }

    #[test]
    fn unreachable_helper_is_not_tainted() {
        let diags = run(&[(
            "crates/obs/src/agg.rs",
            "use std::collections::HashMap;\n\
             fn private_summarize(m: &HashMap<u32, u32>) -> u32 {\n\
             \x20   m.values().sum()\n\
             }\n",
        )]);
        assert!(
            diags.iter().all(|d| d.rule != RuleId::DeterminismTaint),
            "{diags:?}"
        );
    }

    #[test]
    fn owned_into_iter_in_a_sim_critical_crate_is_a_source() {
        // The one hash-iteration shape clippy's `disallowed-methods` cannot
        // name (`HashMap::into_iter` is a trait method); inside a
        // sim-critical crate the pass reports it at the public API itself.
        let diags = run(&[(
            "crates/core/src/sim.rs",
            "pub fn drain_all(m: std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
             \x20   m.into_iter().map(|(_, v)| v).collect()\n\
             }\n",
        )]);
        let taints: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::DeterminismTaint)
            .collect();
        assert_eq!(taints.len(), 1, "{diags:?}");
        assert_eq!((taints[0].line, taints[0].col), (2, 5));
        assert!(taints[0].message.contains("m.into_iter()"));
    }

    #[test]
    fn pointer_to_int_cast_is_a_source_even_in_sim_crates() {
        let diags = run(&[(
            "crates/core/src/sim.rs",
            "pub fn key_of(v: &[u8]) -> usize {\n    v.as_ptr() as usize\n}\n",
        )]);
        let taints: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::DeterminismTaint)
            .collect();
        assert_eq!(taints.len(), 1, "{diags:?}");
        assert!(taints[0].message.contains("pointer-to-int"));
    }

    #[test]
    fn panic_reachable_from_deliver_is_reported_with_chain() {
        let diags = run(&[(
            "crates/core/src/world.rs",
            "impl ShardWorld for World {\n\
             \x20   fn deliver(&mut self, at: u64, msg: u64) {\n\
             \x20       step(msg);\n\
             \x20   }\n\
             }\n\
             fn step(m: u64) {\n\
             \x20   helper(m);\n\
             }\n\
             fn helper(m: u64) {\n\
             \x20   if m > 3 { panic!(\"bad msg\"); }\n\
             }\n",
        )]);
        let panics: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::PanicPath)
            .collect();
        assert_eq!(panics.len(), 1, "{diags:?}");
        let d = panics[0];
        assert_eq!(d.line, 10);
        assert!(d.message.contains("deliver"));
        assert!(d.notes[0].message.contains("ShardWorld::deliver"));
        assert!(d.notes.iter().any(|n| n.message.contains("helper")));
    }

    #[test]
    fn indexing_counts_only_directly_in_handlers() {
        let diags = run(&[(
            "crates/core/src/world.rs",
            "pub fn arm(kernel: &mut Kernel, xs: &[u64]) {\n\
             \x20   let first = xs[0];\n\
             \x20   kernel.schedule(first, move || deep(first));\n\
             }\n\
             fn deep(v: u64) {\n\
             \x20   let ys = [1u64, 2];\n\
             \x20   let _ = ys[(v % 2) as usize];\n\
             }\n",
        )]);
        let panics: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::PanicPath)
            .collect();
        assert_eq!(panics.len(), 1, "{diags:?}");
        assert_eq!(panics[0].line, 2, "only the direct indexing in the root");
    }

    #[test]
    fn unwrap_with_justified_allow_is_silently_audited() {
        // `unwrap`/`expect` belong to clippy: the audited site is one ratchet
        // count under its lint, never a panic-path diagnostic.
        let report = crate::engine::lint_parsed(&parse_sources(&[(
            "crates/core/src/world.rs",
            "impl ShardWorld for World {\n\
             \x20   fn deliver(&mut self, at: u64, msg: u64) {\n\
             \x20       #[expect(clippy::unwrap_used, reason = \"queue is non-empty: pushed above\")]\n\
             \x20       self.q.pop().unwrap();\n\
             \x20   }\n\
             }\n",
        )]));
        assert!(report.is_clean(), "{}", report.to_human());
        assert_eq!(report.suppressed, 1);
        assert_eq!(
            report.suppressed_by_rule.get("clippy::unwrap_used"),
            Some(&1)
        );
    }
}
