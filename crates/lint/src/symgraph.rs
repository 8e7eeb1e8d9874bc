//! The workspace symbol graph: every `fn` across the 16 crates, plus a
//! conservative call graph with `use`-aware name resolution.
//!
//! Resolution is deliberately *over-approximate* — an unresolved call adds no
//! edge (external std/alloc calls), an ambiguous one adds an edge to every
//! candidate. The interprocedural passes ([`crate::taint`]) are audits, so a
//! spurious edge costs a human a glance at a call chain; a missing edge
//! costs the workspace its determinism contract. The tie-breaking order:
//!
//! * `self.method(…)` resolves to the enclosing `impl` first, then to any
//!   workspace method of that name;
//! * `Type::assoc(…)` and `receiver.method(…)` resolve by `(type, name)`
//!   when the type is known, else by method name alone;
//! * free `helper(…)` resolves in the file's own module, then through its
//!   `use` imports, then to same-crate fns of that name;
//! * fully-qualified `crate::a::b::f(…)` and `fabricsim_x::f(…)` paths
//!   resolve across crates.

use std::collections::BTreeMap;

use crate::allow::{collect_allows, Allow};
use crate::engine::{FileContext, SIM_CRITICAL_CRATES};
use crate::parse::{parse, CallSite, FileAst};
use crate::tokenizer::{tokenize, Token};

/// One parsed file, ready for graph construction.
pub struct ParsedFile {
    /// Classification (crate, kind, path).
    pub ctx: FileContext,
    /// The full token stream (comments included; body ranges index into it).
    pub tokens: Vec<Token>,
    /// The recovered item structure.
    pub ast: FileAst,
    /// The file's `lint:allow` annotations.
    pub allows: Vec<Allow>,
}

impl ParsedFile {
    /// Tokenizes and parses one file's source.
    #[must_use]
    pub fn new(ctx: FileContext, src: &str) -> ParsedFile {
        let tokens = tokenize(src);
        let ast = parse(&tokens);
        let allows = collect_allows(&tokens);
        ParsedFile {
            ctx,
            tokens,
            ast,
            allows,
        }
    }
}

/// One function symbol in the workspace.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Short crate name (`core`, `obs`, …).
    pub krate: String,
    /// Module path inside the crate (file path + inline mods).
    pub module: Vec<String>,
    /// Enclosing impl/trait type, if a method.
    pub self_ty: Option<String>,
    /// Trait implemented, for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// Function name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based declaration line.
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
    /// Bare-`pub` visibility.
    pub is_pub: bool,
    /// Inside a test region.
    pub in_test: bool,
    /// Index of the owning [`ParsedFile`].
    pub file_idx: usize,
    /// Index into that file's `ast.fns`.
    pub fn_idx: usize,
}

impl Symbol {
    /// A bare-`pub`, non-test fn of a sim-critical crate: a sink of the
    /// determinism-taint pass.
    #[must_use]
    pub fn is_sim_critical_pub(&self) -> bool {
        self.is_pub && !self.in_test && SIM_CRITICAL_CRATES.contains(&self.krate.as_str())
    }

    /// `crate::module::Type::name`-style display path.
    #[must_use]
    pub fn qualified(&self) -> String {
        let mut out = format!("fabricsim_{}", self.krate.replace('-', "_"));
        for m in &self.module {
            out.push_str("::");
            out.push_str(m);
        }
        if let Some(ty) = &self.self_ty {
            out.push_str("::");
            out.push_str(ty);
        }
        out.push_str("::");
        out.push_str(&self.name);
        out
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// Callee symbol id.
    pub to: usize,
    /// Call-site line in the caller's file.
    pub line: u32,
    /// Call-site column.
    pub col: u32,
}

/// The workspace symbol + call graph.
pub struct SymbolGraph {
    /// All symbols; the id is the index.
    pub symbols: Vec<Symbol>,
    /// Forward adjacency: `callees[id]` = calls made by `id`.
    pub callees: Vec<Vec<CallEdge>>,
    /// Reverse adjacency: `callers[id]` = ids that call `id` (deduped).
    pub callers: Vec<Vec<usize>>,
}

/// Maps a `use`d extern-crate name (`fabricsim_des`) to the short crate key.
fn crate_key(segment: &str) -> Option<String> {
    segment
        .strip_prefix("fabricsim_")
        .map(|rest| rest.replace('_', "-"))
}

/// Derives a file's module path within its crate from the workspace-relative
/// path: `crates/core/src/a/b.rs` → `["a", "b"]`, `lib.rs` → `[]`,
/// `a/mod.rs` → `["a"]`.
fn file_module_path(rel_path: &str) -> Vec<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    // Find the `src` (or `tests`/`benches`) anchor and take what follows.
    let anchor = parts
        .iter()
        .position(|p| *p == "src" || *p == "tests" || *p == "benches");
    let Some(a) = anchor else { return Vec::new() };
    let mut mods: Vec<String> = Vec::new();
    for (i, part) in parts.iter().enumerate().skip(a + 1) {
        let last = i == parts.len() - 1;
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "main" && stem != "mod" {
                mods.push(stem.to_string());
            }
        } else if *part != "bin" {
            mods.push((*part).to_string());
        }
    }
    mods
}

#[expect(
    clippy::struct_field_names,
    reason = "the `by_` prefix names the lookup key"
)]
struct Index {
    /// `(crate, module-path-joined, name)` → ids (free fns).
    by_module: BTreeMap<(String, String, String), Vec<usize>>,
    /// `(type, name)` → ids (methods / assoc fns).
    by_type: BTreeMap<(String, String), Vec<usize>>,
    /// method name → ids (any impl fn).
    by_method: BTreeMap<String, Vec<usize>>,
    /// `(crate, name)` → ids (free fns anywhere in the crate).
    by_crate: BTreeMap<(String, String), Vec<usize>>,
}

impl SymbolGraph {
    /// Builds the graph from a set of parsed files. File order is the
    /// caller's (the engine sorts paths), so symbol ids are deterministic.
    #[must_use]
    pub fn build(files: &[ParsedFile]) -> SymbolGraph {
        let mut symbols: Vec<Symbol> = Vec::new();
        for (file_idx, pf) in files.iter().enumerate() {
            let krate = pf
                .ctx
                .crate_name
                .clone()
                .unwrap_or_else(|| "scratch".to_string());
            let base = file_module_path(&pf.ctx.rel_path);
            for (fn_idx, f) in pf.ast.fns.iter().enumerate() {
                let mut module = base.clone();
                module.extend(f.module.iter().cloned());
                symbols.push(Symbol {
                    krate: krate.clone(),
                    module,
                    self_ty: f.self_ty.clone(),
                    trait_name: f.trait_name.clone(),
                    name: f.name.clone(),
                    file: pf.ctx.rel_path.clone(),
                    line: f.line,
                    col: f.col,
                    is_pub: f.is_pub,
                    in_test: f.in_test,
                    file_idx,
                    fn_idx,
                });
            }
        }

        let mut index = Index {
            by_module: BTreeMap::new(),
            by_type: BTreeMap::new(),
            by_method: BTreeMap::new(),
            by_crate: BTreeMap::new(),
        };
        for (id, s) in symbols.iter().enumerate() {
            if let Some(ty) = &s.self_ty {
                index
                    .by_type
                    .entry((ty.clone(), s.name.clone()))
                    .or_default()
                    .push(id);
                index.by_method.entry(s.name.clone()).or_default().push(id);
            } else {
                index
                    .by_module
                    .entry((s.krate.clone(), s.module.join("::"), s.name.clone()))
                    .or_default()
                    .push(id);
                index
                    .by_crate
                    .entry((s.krate.clone(), s.name.clone()))
                    .or_default()
                    .push(id);
            }
        }

        let mut callees: Vec<Vec<CallEdge>> = vec![Vec::new(); symbols.len()];
        for (id, s) in symbols.iter().enumerate() {
            let pf = &files[s.file_idx];
            let decl = &pf.ast.fns[s.fn_idx];
            for call in &decl.calls {
                let targets = resolve(call, s, pf, &index);
                for to in targets {
                    if to == id {
                        continue; // self-recursion adds nothing to reachability
                    }
                    let edge = CallEdge {
                        to,
                        line: call.line,
                        col: call.col,
                    };
                    if !callees[id].contains(&edge) {
                        callees[id].push(edge);
                    }
                }
            }
        }
        let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); symbols.len()];
        for (id, edges) in callees.iter().enumerate() {
            for e in edges {
                if !reverse[e.to].contains(&id) {
                    reverse[e.to].push(id);
                }
            }
        }
        SymbolGraph {
            symbols,
            callees,
            callers: reverse,
        }
    }

    /// Symbols in sim-critical crates whose bare-`pub` fns form the
    /// determinism-taint sink set.
    #[must_use]
    pub fn public_sim_critical(&self) -> Vec<usize> {
        self.symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_sim_critical_pub())
            .map(|(id, _)| id)
            .collect()
    }
}

/// Resolves one call site to candidate symbol ids. Empty = external.
#[expect(
    clippy::too_many_lines,
    reason = "one arm per path shape; splitting obscures the order"
)]
fn resolve(call: &CallSite, caller: &Symbol, pf: &ParsedFile, index: &Index) -> Vec<usize> {
    if call.is_method {
        let name = &call.path[0];
        // `self.m(…)`: the enclosing impl wins when it has the method.
        if call.recv_self {
            if let Some(ty) = &caller.self_ty {
                if let Some(ids) = index.by_type.get(&(ty.clone(), name.clone())) {
                    return ids.clone();
                }
            }
        }
        // Any workspace method of that name (conservative).
        return index.by_method.get(name).cloned().unwrap_or_default();
    }
    match call.path.as_slice() {
        [name] => {
            // Same module first.
            let key = (caller.krate.clone(), caller.module.join("::"), name.clone());
            if let Some(ids) = index.by_module.get(&key) {
                return ids.clone();
            }
            // `use` imports binding this name.
            for u in &pf.ast.uses {
                if &u.alias == name {
                    if let Some(ids) = resolve_use_path(&u.path, caller, index) {
                        return ids;
                    }
                }
            }
            // Same crate, any module (covers `super::`-style siblings the
            // parser flattened away).
            index
                .by_crate
                .get(&(caller.krate.clone(), name.clone()))
                .cloned()
                .unwrap_or_default()
        }
        [qual, name] => {
            // `Self::assoc(…)`.
            if qual == "Self" {
                if let Some(ty) = &caller.self_ty {
                    return index
                        .by_type
                        .get(&(ty.clone(), name.clone()))
                        .cloned()
                        .unwrap_or_default();
                }
                return Vec::new();
            }
            // `Type::assoc(…)` — types are upper-camel by convention.
            if qual.chars().next().is_some_and(char::is_uppercase) {
                return index
                    .by_type
                    .get(&(qual.clone(), name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
            // `crate::f(…)` at the crate root.
            if qual == "crate" {
                return index
                    .by_module
                    .get(&(caller.krate.clone(), String::new(), name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
            // `fabricsim_x::f(…)`.
            if let Some(krate) = crate_key(qual) {
                return index
                    .by_module
                    .get(&(krate, String::new(), name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
            // `use`d module: `use fabricsim_obs::summary;` + `summary::f(…)`
            // — the alias names the module, so the call appends one segment.
            for u in &pf.ast.uses {
                if u.alias == *qual {
                    let mut full = u.path.clone();
                    full.push(name.clone());
                    if let Some(ids) = resolve_use_path(&full, caller, index) {
                        return ids;
                    }
                }
            }
            // `module::f(…)` — same crate, module named `qual` (any depth:
            // match by last segment).
            let mut out = Vec::new();
            for ((k, m, n), ids) in &index.by_module {
                if *k == caller.krate && *n == *name && m.rsplit("::").next() == Some(qual) {
                    out.extend_from_slice(ids);
                }
            }
            out
        }
        longer => {
            // Fully qualified: map the head, match the tail.
            let name = longer[longer.len() - 1].clone();
            let head = &longer[0];
            let (krate, mods): (String, &[String]) = if head == "crate" || head == "self" {
                (caller.krate.clone(), &longer[1..longer.len() - 1])
            } else if let Some(k) = crate_key(head) {
                (k, &longer[1..longer.len() - 1])
            } else if head == "std" || head == "core" || head == "alloc" {
                return Vec::new();
            } else {
                // `use`d module head: expand the alias, then retry.
                for u in &pf.ast.uses {
                    if u.alias == *head {
                        let mut full = u.path.clone();
                        full.extend_from_slice(&longer[1..]);
                        if let Some(ids) = resolve_use_path(&full, caller, index) {
                            return ids;
                        }
                    }
                }
                (caller.krate.clone(), &longer[..longer.len() - 1])
            };
            // `a::b::Type::assoc` — tail segment before the name may be a
            // type.
            if let Some(last_mod) = mods.last() {
                if last_mod.chars().next().is_some_and(char::is_uppercase) {
                    return index
                        .by_type
                        .get(&(last_mod.clone(), name.clone()))
                        .cloned()
                        .unwrap_or_default();
                }
            }
            index
                .by_module
                .get(&(krate, mods.join("::"), name))
                .cloned()
                .unwrap_or_default()
        }
    }
}

/// Resolves an imported path (from `use`) to symbol candidates; `None` when
/// the import is external (std, …) so the caller can keep searching.
fn resolve_use_path(path: &[String], caller: &Symbol, index: &Index) -> Option<Vec<usize>> {
    if path.is_empty() {
        return None;
    }
    let head = &path[0];
    if head == "std" || head == "core" || head == "alloc" {
        return Some(Vec::new()); // definitely external — no candidates
    }
    let (krate, rest): (String, &[String]) = if head == "crate" || head == "self" {
        (caller.krate.clone(), &path[1..])
    } else if let Some(k) = crate_key(head) {
        (k, &path[1..])
    } else {
        return None;
    };
    if rest.is_empty() {
        return None;
    }
    let name = rest[rest.len() - 1].clone();
    let mods = &rest[..rest.len() - 1];
    index
        .by_module
        .get(&(krate, mods.join("::"), name))
        .cloned()
}

/// Convenience for tests and fixtures: parse `(rel_path, source)` pairs into
/// [`ParsedFile`]s using the engine's classifier.
#[must_use]
pub fn parse_sources(sources: &[(&str, &str)]) -> Vec<ParsedFile> {
    sources
        .iter()
        .filter_map(|(rel, src)| Some(ParsedFile::new(crate::engine::classify(rel)?, src)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(sources: &[(&str, &str)]) -> (Vec<ParsedFile>, SymbolGraph) {
        let files = parse_sources(sources);
        let g = SymbolGraph::build(&files);
        (files, g)
    }

    fn id_of(g: &SymbolGraph, name: &str) -> usize {
        g.symbols
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("symbol {name} not in graph"))
    }

    #[test]
    fn same_module_and_cross_module_resolution() {
        let (_f, g) = graph(&[
            (
                "crates/core/src/sim.rs",
                "pub fn run() { helper(); util::deep(); }\nfn helper() {}\n",
            ),
            ("crates/core/src/util.rs", "pub fn deep() {}\n"),
        ]);
        let run = id_of(&g, "run");
        let helper = id_of(&g, "helper");
        let deep = id_of(&g, "deep");
        let tos: Vec<usize> = g.callees[run].iter().map(|e| e.to).collect();
        assert!(tos.contains(&helper));
        assert!(tos.contains(&deep));
        assert_eq!(g.callers[helper], vec![run]);
    }

    #[test]
    fn use_aware_cross_crate_resolution() {
        let (_f, g) = graph(&[
            (
                "crates/core/src/sim.rs",
                "use fabricsim_types::codec::decode;\npub fn run() { decode(); }\n",
            ),
            ("crates/types/src/codec.rs", "pub fn decode() {}\n"),
        ]);
        let run = id_of(&g, "run");
        let decode = id_of(&g, "decode");
        assert!(g.callees[run].iter().any(|e| e.to == decode));
        // The edge carries the call-site position, not the decl position.
        let edge = g.callees[run]
            .iter()
            .find(|e| e.to == decode)
            .expect("edge");
        assert_eq!(edge.line, 2);
    }

    #[test]
    fn method_resolution_prefers_enclosing_impl() {
        let (_f, g) = graph(&[(
            "crates/core/src/sim.rs",
            "struct A;\nimpl A {\n    fn step(&self) {}\n    pub fn go(&self) { self.step(); }\n}\nstruct B;\nimpl B {\n    fn step(&self) {}\n}\n",
        )]);
        let go = id_of(&g, "go");
        let a_step = g
            .symbols
            .iter()
            .position(|s| s.name == "step" && s.self_ty.as_deref() == Some("A"))
            .expect("A::step");
        let tos: Vec<usize> = g.callees[go].iter().map(|e| e.to).collect();
        assert_eq!(tos, vec![a_step], "self.step() must not edge to B::step");
    }

    #[test]
    fn unknown_receiver_methods_resolve_conservatively() {
        let (_f, g) = graph(&[(
            "crates/core/src/sim.rs",
            "struct A;\nimpl A {\n    fn feed(&self) {}\n}\npub fn run(x: &A) { x.feed(); }\n",
        )]);
        let run = id_of(&g, "run");
        let feed = id_of(&g, "feed");
        assert!(g.callees[run].iter().any(|e| e.to == feed));
    }

    #[test]
    fn type_assoc_calls_resolve_exactly() {
        let (_f, g) = graph(&[(
            "crates/core/src/sim.rs",
            "struct A;\nimpl A {\n    fn new() {}\n}\nstruct B;\nimpl B {\n    fn new() {}\n}\npub fn run() { A::new(); }\n",
        )]);
        let run = id_of(&g, "run");
        let a_new = g
            .symbols
            .iter()
            .position(|s| s.name == "new" && s.self_ty.as_deref() == Some("A"))
            .expect("A::new");
        let tos: Vec<usize> = g.callees[run].iter().map(|e| e.to).collect();
        assert_eq!(tos, vec![a_new]);
    }

    #[test]
    fn public_sim_critical_set_excludes_tests_and_non_sim_crates() {
        let (_f, g) = graph(&[
            (
                "crates/core/src/sim.rs",
                "pub fn api() {}\nfn private() {}\n",
            ),
            ("crates/obs/src/span.rs", "pub fn obs_api() {}\n"),
            (
                "crates/core/src/x.rs",
                "#[cfg(test)]\nmod tests {\n    pub fn test_pub() {}\n}\n",
            ),
        ]);
        let sinks = g.public_sim_critical();
        let names: Vec<&str> = sinks.iter().map(|&i| g.symbols[i].name.as_str()).collect();
        assert_eq!(names, vec!["api"]);
    }

    #[test]
    fn qualified_display_path() {
        let (_f, g) = graph(&[(
            "crates/des/src/sharded.rs",
            "impl Kernel {\n    pub fn run(&mut self) {}\n}\n",
        )]);
        let run = id_of(&g, "run");
        assert_eq!(
            g.symbols[run].qualified(),
            "fabricsim_des::sharded::Kernel::run"
        );
    }
}
