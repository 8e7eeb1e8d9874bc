//! A lightweight recursive-descent Rust *item* parser over the token stream.
//!
//! This is not a full Rust grammar: it recovers exactly the structure the
//! workspace symbol graph ([`crate::symgraph`]) needs — `use` declarations,
//! module nesting, `impl`/`trait` blocks, `fn` items with their body token
//! ranges, and a conservative list of call sites inside each body — while
//! staying zero-dependency like the tokenizer. The parser is loss-tolerant
//! by design: anything it does not recognize is skipped without aborting the
//! file, so a macro-heavy module degrades to "fewer edges", never to a parse
//! error.
//!
//! Structure it recovers precisely:
//! * `use a::b::{c, d as e}` trees, flattened to `(path, visible-name)`
//!   pairs for `use`-aware call resolution;
//! * `mod name { … }` nesting (module path segments) and `mod name;` file
//!   modules;
//! * `impl Type { … }` / `impl Trait for Type { … }` (the trait name is kept
//!   — the panic-path pass roots on `Model` and `ShardWorld` impls);
//! * `fn` items at any nesting depth, with `pub`-ness, `#[cfg(test)]` /
//!   `#[test]` containment, and the token range of the body;
//! * call sites: `free_fn(…)`, `path::to::fn(…)`, `Type::assoc(…)`,
//!   `receiver.method(…)` (turbofish tolerated), with `self`-receiver calls
//!   marked so method resolution can prefer the enclosing `impl`;
//! * the lints named by `#[allow(…)]` / `#[expect(…)]` outside test code,
//!   which the suppression ratchet counts.

use crate::tokenizer::{Token, TokenKind};

/// One flattened `use` import: the full path and the name it binds in scope
/// (the last segment, or the `as` alias). A glob import binds `*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// Path segments, e.g. `["std", "collections", "HashMap"]`.
    pub path: Vec<String>,
    /// The in-scope name (`HashMap`, or the `as` alias).
    pub alias: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments as written: `["helper"]`, `["util", "helper"]`,
    /// `["Type", "assoc"]`. For method calls, the single method name.
    pub path: Vec<String>,
    /// True for `receiver.method(…)` calls.
    pub is_method: bool,
    /// True when the receiver chain starts at `self` (`self.m(…)`,
    /// `self.field.m(…)` counts too — resolution prefers the enclosing impl).
    pub recv_self: bool,
    /// 1-based line of the called name.
    pub line: u32,
    /// 1-based column of the called name.
    pub col: u32,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Function name (raw-identifier prefix stripped).
    pub name: String,
    /// Inline-module path *within this file* (`mod a { mod b { fn f } }` →
    /// `["a", "b"]`). The file's own module path is prepended by the graph.
    pub module: Vec<String>,
    /// Enclosing `impl`/`trait` type name, if any.
    pub self_ty: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// True for bare `pub` (restricted `pub(crate)` visibility is not
    /// public API).
    pub is_pub: bool,
    /// True under `#[cfg(test)]` / `#[test]` (directly or via an ancestor).
    pub in_test: bool,
    /// 1-based position of the `fn` name token.
    pub line: u32,
    /// 1-based column of the `fn` name token.
    pub col: u32,
    /// Token range (into the *original* token slice, comments included) of
    /// the body, brace to brace inclusive; empty for body-less items.
    pub body: (usize, usize),
    /// Conservative call sites found in the body.
    pub calls: Vec<CallSite>,
}

/// Everything recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct FileAst {
    /// Flattened `use` imports.
    pub uses: Vec<UseDecl>,
    /// All `fn` items, in source order.
    pub fns: Vec<FnDecl>,
    /// Lint paths (`clippy::expect_used`, `unsafe_code`) named by
    /// `#[allow(…)]` / `#[expect(…)]` attributes outside test code, one
    /// entry per lint per attribute, in source order.
    pub suppressed_lints: Vec<String>,
}

/// Keywords that look like a call when followed by `(`.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "let", "ref", "mut", "box", "await", "yield",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    /// `mod name {` — carries one module segment.
    Mod,
    /// `impl …` / `trait …` block.
    Impl,
    /// A function body (index into `fns`).
    Fn(usize),
    /// Any other brace group (struct body, match arm, plain block, …).
    Other,
}

struct Scope {
    kind: ScopeKind,
    in_test: bool,
    /// `impl`/`trait` context carried by this scope (None = inherit).
    self_ty: Option<String>,
    trait_name: Option<String>,
    /// Module segment pushed by this scope, if `Mod`.
    mod_segment: Option<String>,
}

struct Parser<'a> {
    toks: &'a [Token],
    /// Indices of non-comment tokens (the parser's working view).
    code: Vec<usize>,
    ast: FileAst,
    scopes: Vec<Scope>,
}

impl<'a> Parser<'a> {
    fn new(toks: &'a [Token]) -> Self {
        let code = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        Parser {
            toks,
            code,
            ast: FileAst::default(),
            scopes: Vec::new(),
        }
    }

    /// The j-th code token (comments skipped).
    fn at(&self, j: usize) -> Option<&Token> {
        self.code.get(j).map(|&i| &self.toks[i])
    }

    fn is_punct(&self, j: usize, s: &str) -> bool {
        self.at(j).is_some_and(|t| t.is_punct(s))
    }

    fn is_kw(&self, j: usize, s: &str) -> bool {
        // Keywords must be exact identifiers; `r#fn` is *not* the keyword.
        self.at(j).is_some_and(|t| t.is_ident(s))
    }

    fn name_at(&self, j: usize) -> Option<String> {
        let t = self.at(j)?;
        if t.kind == TokenKind::Ident {
            Some(t.ident_name().to_string())
        } else {
            None
        }
    }

    fn in_test(&self) -> bool {
        self.scopes.last().is_some_and(|s| s.in_test)
    }

    fn current_module(&self) -> Vec<String> {
        self.scopes
            .iter()
            .filter_map(|s| s.mod_segment.clone())
            .collect()
    }

    fn current_impl(&self) -> (Option<String>, Option<String>) {
        for s in self.scopes.iter().rev() {
            if s.self_ty.is_some() {
                return (s.self_ty.clone(), s.trait_name.clone());
            }
        }
        (None, None)
    }

    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(idx) => Some(idx),
            _ => None,
        })
    }

    /// Skips a balanced `< … >` group starting at `j` (which must be `<` or
    /// `<<`); returns the index just past the closing `>`. Tolerates the
    /// shift tokens `<<`/`>>` counting as two. Bails (returns `j + 1`) if no
    /// balance is found within a sanity window, so a stray comparison can
    /// never desynchronize the parser.
    fn skip_angles(&self, j: usize) -> usize {
        let mut depth = 0i32;
        let mut k = j;
        let limit = j + 512;
        while k < limit {
            let Some(t) = self.at(k) else { break };
            if t.is_punct("<") || t.is_punct("<=") {
                depth += 1;
            } else if t.is_punct("<<") {
                depth += 2;
            } else if t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct(">>") {
                depth -= 2;
            } else if t.is_punct("->") || t.is_punct(";") || t.is_punct("{") {
                break;
            }
            k += 1;
            if depth <= 0 {
                return k;
            }
        }
        j + 1
    }

    /// Skips a balanced paren/bracket/brace group whose opener sits at `j`;
    /// returns the index just past the closer.
    fn skip_group(&self, j: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        let mut k = j;
        while let Some(t) = self.at(k) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            k += 1;
        }
        k
    }

    /// Parses the attribute group at `j` (`#` or `#!`); returns
    /// `(next_index, is_test_attr)`.
    fn parse_attr(&self, j: usize) -> (usize, bool) {
        // `#` [`!`] `[` … `]`
        let mut k = j + 1;
        if self.is_punct(k, "!") {
            k += 1;
        }
        if !self.is_punct(k, "[") {
            return (j + 1, false);
        }
        let end = self.skip_group(k, "[", "]");
        let mut is_test = false;
        // `#[test]`, `#[tokio::test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`
        let mut saw_cfg = false;
        for idx in k + 1..end.saturating_sub(1) {
            if self.is_kw(idx, "cfg") {
                saw_cfg = true;
            }
            if self.is_kw(idx, "test") {
                // Either the attribute *is* `test` (`#[test]`, `#[x::test]`)
                // or a cfg predicate mentions it.
                let bare = idx == k + 1 && end == k + 3;
                let qualified = self.is_punct(idx.wrapping_sub(1), "::");
                if bare || qualified || saw_cfg {
                    is_test = true;
                }
            }
        }
        (end, is_test)
    }

    /// Records the lints an `allow`/`expect` attribute spanning `j..end`
    /// names. Items that are not plain paths (`reason = "…"`) are skipped.
    fn record_suppressed_lints(&mut self, j: usize, end: usize) {
        let k = if self.is_punct(j + 1, "!") {
            j + 2
        } else {
            j + 1
        };
        if !(self.is_kw(k + 1, "allow") || self.is_kw(k + 1, "expect"))
            || !self.is_punct(k + 2, "(")
        {
            return;
        }
        // `#` `[` level `(` item, item, … `)` `]`: the items end at `end - 2`.
        let mut item = String::new();
        let mut plain = true;
        for idx in k + 3..end.saturating_sub(1) {
            let Some(t) = self.at(idx) else { break };
            if t.is_punct(",") || idx + 2 == end {
                if plain && !item.is_empty() {
                    self.ast.suppressed_lints.push(std::mem::take(&mut item));
                }
                item.clear();
                plain = true;
            } else if t.kind == TokenKind::Ident || t.is_punct("::") {
                item.push_str(&t.text);
            } else {
                plain = false;
            }
        }
    }

    /// Parses a `use` tree starting after the `use` keyword; flattens into
    /// `self.ast.uses`. Returns the index just past the terminating `;`.
    fn parse_use(&mut self, j: usize) -> usize {
        let mut end = j;
        while end < self.code.len() && !self.is_punct(end, ";") {
            end += 1;
        }
        let mut prefix: Vec<String> = Vec::new();
        self.parse_use_tree(j, end, &mut prefix);
        end + 1
    }

    /// One `use` tree level: `a::b::{c, d as e, f::*}`.
    fn parse_use_tree(&mut self, mut j: usize, end: usize, prefix: &mut Vec<String>) {
        let depth_at_entry = prefix.len();
        while j < end {
            // `as` first: it lexes as an identifier and would otherwise be
            // swallowed into the path.
            if self.is_kw(j, "as") {
                if let Some(alias) = self.name_at(j + 1) {
                    self.ast.uses.push(UseDecl {
                        path: prefix.clone(),
                        alias,
                    });
                }
                prefix.truncate(depth_at_entry);
                return;
            }
            if let Some(name) = self.name_at(j) {
                prefix.push(name);
                j += 1;
            } else if self.is_punct(j, "*") {
                let mut path = prefix.clone();
                path.push("*".into());
                self.ast.uses.push(UseDecl {
                    path,
                    alias: "*".into(),
                });
                j += 1;
            } else if self.is_punct(j, "::") {
                j += 1;
            } else if self.is_punct(j, "{") {
                let close = self.skip_group(j, "{", "}");
                let mut k = j + 1;
                // Split the group's top level on commas, recursing per item.
                while k < close - 1 {
                    let mut item_end = k;
                    let mut depth = 0usize;
                    while item_end < close - 1 {
                        if self.is_punct(item_end, "{") {
                            depth += 1;
                        } else if self.is_punct(item_end, "}") {
                            depth -= 1;
                        } else if self.is_punct(item_end, ",") && depth == 0 {
                            break;
                        }
                        item_end += 1;
                    }
                    let mut sub = prefix.clone();
                    self.parse_use_tree(k, item_end, &mut sub);
                    k = item_end + 1;
                }
                prefix.truncate(depth_at_entry);
                return; // the group consumed the rest of this tree level
            } else {
                j += 1;
            }
        }
        // Plain path (no `as`, no group): binds its last segment.
        if prefix.len() > depth_at_entry {
            if let Some(last) = prefix.last().cloned() {
                self.ast.uses.push(UseDecl {
                    path: prefix.clone(),
                    alias: last,
                });
            }
        }
        prefix.truncate(depth_at_entry);
    }

    /// Parses an `impl`/`trait` header starting at the keyword; returns
    /// `(index_of_open_brace_or_semicolon, self_ty, trait_name)`.
    fn parse_impl_header(
        &self,
        j: usize,
        is_trait: bool,
    ) -> (usize, Option<String>, Option<String>) {
        let mut k = j + 1;
        if is_trait {
            // `trait Name[<…>][: Super + …] { … }` — the name is the first
            // token; supertraits after `:` must not overwrite it.
            let name = self.name_at(k);
            while k < self.code.len() && !self.is_punct(k, "{") && !self.is_punct(k, ";") {
                k += 1;
            }
            return (k, name.clone(), name);
        }
        if self.is_punct(k, "<") {
            k = self.skip_angles(k);
        }
        // Collect path-ish tokens until `{`, `;`, or `where`.
        let mut names: Vec<String> = Vec::new();
        let mut trait_name: Option<String> = None;
        let mut last_before_generics: Option<String> = None;
        while k < self.code.len() {
            if self.is_punct(k, "{") || self.is_punct(k, ";") || self.is_kw(k, "where") {
                break;
            }
            if self.is_kw(k, "for") && !is_trait {
                // `impl Trait for Type` — what we saw so far names the trait.
                trait_name.clone_from(&last_before_generics);
                names.clear();
                last_before_generics = None;
                k += 1;
                continue;
            }
            if self.is_punct(k, "<") {
                k = self.skip_angles(k);
                continue;
            }
            if let Some(n) = self.name_at(k) {
                // Skip `dyn`, `&`, lifetimes — keep the last plain name.
                if n != "dyn" && n != "mut" {
                    last_before_generics = Some(n.clone());
                    names.push(n);
                }
            }
            k += 1;
        }
        // Skip a `where` clause to the `{`.
        while k < self.code.len() && !self.is_punct(k, "{") && !self.is_punct(k, ";") {
            k += 1;
        }
        let self_ty = last_before_generics.or_else(|| names.last().cloned());
        (k, self_ty, trait_name)
    }

    /// Parses a `fn` item starting at the `fn` keyword. Registers the
    /// declaration and returns the index of its `{` (so the caller pushes the
    /// scope) or just past the `;` for body-less declarations.
    fn parse_fn(&mut self, j: usize, is_pub: bool, is_test: bool) -> usize {
        let Some(name) = self.name_at(j + 1) else {
            return j + 1;
        };
        let tok = &self.toks[self.code[j + 1]];
        let (line, col) = (tok.line, tok.col);
        let mut k = j + 2;
        if self.is_punct(k, "<") {
            k = self.skip_angles(k);
        }
        if self.is_punct(k, "(") {
            k = self.skip_group(k, "(", ")");
        }
        // Return type + where clause: scan to the body `{` or a `;`. Angle
        // groups are skipped so `-> impl Iterator<Item = &{integer}>`-ish
        // shapes cannot eat the body brace.
        while k < self.code.len() {
            if self.is_punct(k, "{") || self.is_punct(k, ";") {
                break;
            }
            if self.is_punct(k, "<") {
                k = self.skip_angles(k);
                continue;
            }
            k += 1;
        }
        let (self_ty, trait_name) = self.current_impl();
        let decl = FnDecl {
            name,
            module: self.current_module(),
            self_ty,
            trait_name,
            is_pub,
            in_test: self.in_test() || is_test,
            line,
            col,
            body: (0, 0),
            calls: Vec::new(),
        };
        self.ast.fns.push(decl);
        k
    }

    /// Records a call site for the innermost function, walking the path
    /// backwards from the called name at `j`.
    fn record_call(&mut self, j: usize) {
        let Some(fn_idx) = self.current_fn() else {
            return;
        };
        let Some(name) = self.name_at(j) else { return };
        // Keyword check on the *raw* text: `r#match(…)` is a real call to a
        // raw-identifier fn, while bare `match (…)` is syntax.
        let raw = &self.toks[self.code[j]].text;
        if EXPR_KEYWORDS.contains(&raw.as_str()) {
            return;
        }
        let tok = &self.toks[self.code[j]];
        let (line, col) = (tok.line, tok.col);
        // Method call: `.name(` — record receiver-is-self when the chain
        // bottoms out at `self`.
        if j >= 1 && self.is_punct(j - 1, ".") {
            let mut k = j - 1;
            let mut recv_self = false;
            // Walk the receiver chain: idents, `.`, `?`, `)`/`]` stop it.
            while k >= 1 {
                if self.is_punct(k, ".") || self.is_punct(k, "?") {
                    k -= 1;
                } else if self.at(k).is_some_and(|t| t.kind == TokenKind::Ident) {
                    if self.is_kw(k, "self") {
                        recv_self = true;
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                } else {
                    break;
                }
            }
            self.ast.fns[fn_idx].calls.push(CallSite {
                path: vec![name],
                is_method: true,
                recv_self,
                line,
                col,
            });
            return;
        }
        // Free / path call: collect `seg::seg::name` going backwards.
        let mut path = vec![name];
        let mut k = j;
        while k >= 2 && self.is_punct(k - 1, "::") {
            if let Some(seg) = self.name_at(k - 2) {
                path.insert(0, seg);
                k -= 2;
            } else {
                break;
            }
        }
        self.ast.fns[fn_idx].calls.push(CallSite {
            path,
            is_method: false,
            recv_self: false,
            line,
            col,
        });
    }

    /// True when the code token at `j` (an ident) is directly followed by a
    /// call's `(`, tolerating one `::<…>` turbofish in between.
    fn is_called_at(&self, j: usize) -> Option<()> {
        if self.is_punct(j + 1, "(") {
            return Some(());
        }
        if self.is_punct(j + 1, "::") && self.is_punct(j + 2, "<") {
            let after = self.skip_angles(j + 2);
            if self.is_punct(after, "(") {
                return Some(());
            }
        }
        None
    }

    #[expect(
        clippy::too_many_lines,
        reason = "one linear dispatch loop; splitting obscures the state machine"
    )]
    fn run(mut self) -> FileAst {
        // The file root scope.
        self.scopes.push(Scope {
            kind: ScopeKind::Other,
            in_test: false,
            self_ty: None,
            trait_name: None,
            mod_segment: None,
        });
        let mut pending_pub = false;
        let mut pending_test = false;
        // Pending scope metadata to attach at the next `{`.
        let mut pending: Option<Scope> = None;
        let mut j = 0usize;
        while j < self.code.len() {
            // Attributes: `#[…]` / `#![…]`.
            if self.is_punct(j, "#") {
                let (next, is_test) = self.parse_attr(j);
                pending_test = pending_test || is_test;
                if !(self.in_test() || pending_test) {
                    self.record_suppressed_lints(j, next);
                }
                j = next;
                continue;
            }
            if self.is_kw(j, "pub") {
                // `pub(crate)` / `pub(super)` / `pub(in path)` are restricted.
                if self.is_punct(j + 1, "(") {
                    j = self.skip_group(j + 1, "(", ")");
                } else {
                    pending_pub = true;
                    j += 1;
                }
                continue;
            }
            if self.is_kw(j, "use") {
                j = self.parse_use(j + 1);
                pending_pub = false;
                pending_test = false;
                continue;
            }
            if self.is_kw(j, "mod") {
                if let Some(name) = self.name_at(j + 1) {
                    if self.is_punct(j + 2, "{") {
                        pending = Some(Scope {
                            kind: ScopeKind::Mod,
                            in_test: self.in_test() || pending_test,
                            self_ty: None,
                            trait_name: None,
                            mod_segment: Some(name),
                        });
                        j += 2; // land on `{`, handled below
                    } else {
                        j += 3; // `mod name;`
                    }
                } else {
                    j += 1;
                }
                pending_pub = false;
                pending_test = false;
                continue;
            }
            if self.is_kw(j, "impl") || self.is_kw(j, "trait") {
                let is_trait = self.is_kw(j, "trait");
                let (brace, self_ty, trait_name) = self.parse_impl_header(j, is_trait);
                let _ = is_trait; // trait headers already folded into the pair
                if self.is_punct(brace, "{") {
                    pending = Some(Scope {
                        kind: ScopeKind::Impl,
                        in_test: self.in_test() || pending_test,
                        self_ty,
                        trait_name,
                        mod_segment: None,
                    });
                    j = brace;
                } else {
                    j = brace + 1;
                }
                pending_pub = false;
                pending_test = false;
                continue;
            }
            if self.is_kw(j, "fn") {
                let body_or_semi = self.parse_fn(j, pending_pub, pending_test);
                if self.is_punct(body_or_semi, "{") {
                    let idx = self.ast.fns.len() - 1;
                    self.ast.fns[idx].body.0 = self.code[body_or_semi];
                    pending = Some(Scope {
                        kind: ScopeKind::Fn(idx),
                        in_test: self.ast.fns[idx].in_test,
                        self_ty: None,
                        trait_name: None,
                        mod_segment: None,
                    });
                    j = body_or_semi;
                } else {
                    j = body_or_semi + 1;
                }
                pending_pub = false;
                pending_test = false;
                continue;
            }
            if self.at(j).is_some_and(|t| t.is_ident("macro_rules")) {
                // `macro_rules! name { … }` — skip the whole definition so
                // its token soup never produces phantom calls.
                let mut k = j + 1;
                while k < self.code.len() && !self.is_punct(k, "{") {
                    k += 1;
                }
                j = self.skip_group(k, "{", "}");
                pending_pub = false;
                pending_test = false;
                continue;
            }
            if self.is_punct(j, "{") {
                let scope = pending.take().unwrap_or(Scope {
                    kind: ScopeKind::Other,
                    in_test: self.in_test(),
                    self_ty: None,
                    trait_name: None,
                    mod_segment: None,
                });
                self.scopes.push(scope);
                j += 1;
                continue;
            }
            if self.is_punct(j, "}") {
                if self.scopes.len() > 1 {
                    if let Some(popped) = self.scopes.pop() {
                        if let ScopeKind::Fn(idx) = popped.kind {
                            // Only set the end for the *outermost* close of
                            // this fn (nested blocks pop their own scopes).
                            if self.ast.fns[idx].body.1 == 0 {
                                self.ast.fns[idx].body.1 = self.code[j] + 1;
                            }
                        }
                    }
                }
                j += 1;
                continue;
            }
            // Call-site detection inside function bodies.
            if self.at(j).is_some_and(|t| t.kind == TokenKind::Ident)
                && self.current_fn().is_some()
                && self.is_called_at(j).is_some()
            {
                self.record_call(j);
            }
            pending_pub = false;
            pending_test = false;
            j += 1;
        }
        self.ast
    }
}

/// Parses one file's token stream into its item structure.
#[must_use]
pub fn parse(tokens: &[Token]) -> FileAst {
    Parser::new(tokens).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn ast(src: &str) -> FileAst {
        parse(&tokenize(src))
    }

    #[test]
    fn fns_with_modules_impls_and_visibility() {
        let a = ast("pub fn top() {}\nmod inner {\n    fn helper() {}\n    pub(crate) fn semi() {}\n}\nimpl Widget {\n    pub fn method(&self) {}\n}\n");
        let names: Vec<(&str, bool)> = a.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(
            names,
            vec![
                ("top", true),
                ("helper", false),
                ("semi", false), // pub(crate) is not public API
                ("method", true),
            ]
        );
        assert_eq!(a.fns[1].module, vec!["inner".to_string()]);
        assert_eq!(a.fns[3].self_ty.as_deref(), Some("Widget"));
    }

    #[test]
    fn trait_impls_carry_the_trait_name() {
        let a = ast("impl ShardWorld for EchoWorld {\n    fn deliver(&mut self) {}\n}\n");
        let f = &a.fns[0];
        assert_eq!(f.name, "deliver");
        assert_eq!(f.self_ty.as_deref(), Some("EchoWorld"));
        assert_eq!(f.trait_name.as_deref(), Some("ShardWorld"));
    }

    #[test]
    fn generic_impl_headers_resolve_the_type() {
        let a = ast("impl<'a, T: Clone> Holder<'a, T> {\n    fn get(&self) {}\n}\n");
        assert_eq!(a.fns[0].self_ty.as_deref(), Some("Holder"));
    }

    #[test]
    fn cfg_test_and_test_attrs_mark_functions() {
        let a = ast("fn real() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n    fn helper() {}\n}\n");
        assert!(!a.fns[0].in_test);
        assert!(a.fns[1].in_test);
        assert!(a.fns[2].in_test, "helpers inside cfg(test) mods are test");
    }

    #[test]
    fn use_trees_flatten_with_aliases_and_globs() {
        let a = ast("use std::collections::{HashMap, HashSet as Set};\nuse crate::util::*;\nuse fabricsim_des::Kernel;\n");
        assert!(a.uses.contains(&UseDecl {
            path: vec!["std".into(), "collections".into(), "HashMap".into()],
            alias: "HashMap".into()
        }));
        assert!(a.uses.contains(&UseDecl {
            path: vec!["std".into(), "collections".into(), "HashSet".into()],
            alias: "Set".into()
        }));
        assert!(a.uses.contains(&UseDecl {
            path: vec!["crate".into(), "util".into(), "*".into()],
            alias: "*".into()
        }));
        assert!(a.uses.contains(&UseDecl {
            path: vec!["fabricsim_des".into(), "Kernel".into()],
            alias: "Kernel".into()
        }));
    }

    #[test]
    fn call_sites_free_path_assoc_and_method() {
        let a = ast("fn f(x: &W) {\n    helper();\n    util::deep(1);\n    Widget::assoc();\n    x.method(2);\n    self_like();\n}\n");
        let calls: Vec<(Vec<String>, bool)> = a.fns[0]
            .calls
            .iter()
            .map(|c| (c.path.clone(), c.is_method))
            .collect();
        assert!(calls.contains(&(vec!["helper".into()], false)));
        assert!(calls.contains(&(vec!["util".into(), "deep".into()], false)));
        assert!(calls.contains(&(vec!["Widget".into(), "assoc".into()], false)));
        assert!(calls.contains(&(vec!["method".into()], true)));
    }

    #[test]
    fn self_receiver_and_turbofish_calls() {
        let a = ast("impl W {\n    fn go(&self) {\n        self.step();\n        self.inner.leaf();\n        parse::<u32>(\"1\");\n        it.collect::<Vec<_>>();\n    }\n}\n");
        let c = &a.fns[0].calls;
        assert!(c
            .iter()
            .any(|s| s.path == vec!["step".to_string()] && s.recv_self));
        assert!(c
            .iter()
            .any(|s| s.path == vec!["leaf".to_string()] && s.recv_self));
        assert!(c
            .iter()
            .any(|s| s.path == vec!["parse".to_string()] && !s.is_method));
        assert!(c
            .iter()
            .any(|s| s.path == vec!["collect".to_string()] && s.is_method));
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let a = ast("fn f() {\n    if (a) {}\n    while (b) {}\n    panic!(\"x\");\n    vec![1];\n    m.insert(k, v);\n}\n");
        for c in &a.fns[0].calls {
            assert_ne!(c.path.last().map(String::as_str), Some("if"));
            assert_ne!(c.path.last().map(String::as_str), Some("while"));
            assert_ne!(c.path.last().map(String::as_str), Some("panic"));
            assert_ne!(c.path.last().map(String::as_str), Some("vec"));
        }
        assert!(a.fns[0]
            .calls
            .iter()
            .any(|c| c.path == vec!["insert".to_string()]));
    }

    #[test]
    fn body_ranges_cover_nested_braces() {
        let src =
            "fn outer() {\n    let x = { inner() };\n    match x { _ => {} }\n}\nfn after() {}\n";
        let a = ast(src);
        assert_eq!(a.fns.len(), 2);
        let toks = tokenize(src);
        let (s, e) = a.fns[0].body;
        assert!(toks[s].is_punct("{"));
        assert!(toks[e - 1].is_punct("}"));
        // `after`'s body is separate and later.
        assert!(a.fns[1].body.0 > e);
        // The inner call was attributed to `outer`.
        assert!(a.fns[0]
            .calls
            .iter()
            .any(|c| c.path == vec!["inner".to_string()]));
    }

    #[test]
    fn raw_identifiers_parse_as_names() {
        let a = ast("fn r#type() { r#match(); }\n");
        assert_eq!(a.fns[0].name, "type");
        assert!(a.fns[0]
            .calls
            .iter()
            .any(|c| c.path == vec!["match".to_string()]));
    }

    #[test]
    fn where_clauses_and_return_impls_do_not_eat_the_body() {
        let a = ast("fn f<T>(t: T) -> impl Iterator<Item = T>\nwhere\n    T: Clone,\n{\n    body_call();\n    std::iter::once(t)\n}\n");
        assert_eq!(a.fns.len(), 1);
        assert!(a.fns[0]
            .calls
            .iter()
            .any(|c| c.path == vec!["body_call".to_string()]));
    }

    #[test]
    fn lint_attributes_outside_tests_are_recorded() {
        let a = ast("#![allow(unsafe_code, reason = \"x\")]\nfn f() {\n    #[expect(clippy::expect_used, clippy::unwrap_used, reason = \"y\")]\n    let v = g();\n}\n#[cfg_attr(test, allow(dead_code))]\n#[must_use]\nfn h() {}\n#[cfg(test)]\nmod tests {\n    #[expect(clippy::disallowed_methods, reason = \"z\")]\n    fn t() {}\n}\n");
        assert_eq!(
            a.suppressed_lints,
            vec!["unsafe_code", "clippy::expect_used", "clippy::unwrap_used"]
        );
    }

    #[test]
    fn macro_rules_definitions_are_skipped() {
        let a = ast("macro_rules! m {\n    ($x:expr) => { phantom_call($x) };\n}\nfn real() { actual(); }\n");
        assert_eq!(a.fns.len(), 1);
        assert!(a.fns[0]
            .calls
            .iter()
            .any(|c| c.path == vec!["actual".to_string()]));
        assert!(!a.fns[0]
            .calls
            .iter()
            .any(|c| c.path == vec!["phantom_call".to_string()]));
    }
}
