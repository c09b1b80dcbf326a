//! Workspace resolution pass: a module graph and an approximate call
//! graph over every scanned file.
//!
//! The graph is deliberately *approximate* — simlint stays
//! zero-dependency, so there is no type information and no real name
//! resolution. Instead:
//!
//! * every `fn` item in every file becomes a node (keyed by file +
//!   name + span);
//! * an identifier followed by `(` inside a function body becomes a
//!   call edge to **every** non-test function with that name, anywhere
//!   in the workspace. This over-approximates trait-method dispatch
//!   (`buffer.on_rd_cas(..)` links to every `on_rd_cas` impl) and
//!   cross-crate calls for free, at the cost of false edges between
//!   same-named functions;
//! * edges through *ubiquitous* names (`new`, `len`, `get`, ...) and
//!   through names defined in more than `AMBIGUITY_CAP` (6) files are
//!   dropped — they would connect everything to everything and drown
//!   the reachability rules in noise. The residue is what baselines and
//!   inline allows are for.
//!
//! Rules built on top ([`crate::wsrules`]) only consume the conservative
//! queries exposed here: reachability with shortest call paths, and
//! per-node direct-panic site lists.

use std::collections::{BTreeMap, VecDeque};

use crate::context::FileContext;
use crate::lexer::TokKind;

/// Call edges through these method/function names are dropped: they are
/// std-prelude-shaped names that appear on dozens of unrelated types,
/// and a name-keyed resolver would link every caller to every impl.
const UBIQUITOUS_NAMES: [&str; 32] = [
    "new", "default", "clone", "fmt", "from", "into", "len", "is_empty", "get", "get_mut", "push",
    "pop", "insert", "remove", "contains", "iter", "next", "value", "set", "add", "inc", "eq",
    "cmp", "hash", "drop", "min", "max", "write", "read", "record", "reset", "clear",
];

/// A name defined in more than this many files is treated as ambiguous
/// and produces no edges (same rationale as [`UBIQUITOUS_NAMES`]).
const AMBIGUITY_CAP: usize = 6;

/// Rust keywords that look like calls when followed by `(`.
const KEYWORDS: [&str; 8] = ["if", "while", "for", "match", "loop", "return", "fn", "in"];

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Just the file name (`device.rs`), for file-scoped entry sets.
    pub file_name: String,
    /// Function name (empty for malformed items).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Is this function inside test-only code?
    pub is_test: bool,
    /// Direct panic sites in the body: `(line, what)`.
    pub panics: Vec<(u32, &'static str)>,
    /// Callee *names* observed in the body (deduped, sorted).
    pub calls: Vec<String>,
}

/// The resolved workspace graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All nodes, in (file, span) order — deterministic.
    pub nodes: Vec<FnNode>,
    /// Resolved adjacency (caller index → callee indices).
    edges: Vec<Vec<usize>>,
}

/// The crate-qualified module path of a workspace file:
/// `crates/smartdimm/src/device.rs` → `smartdimm::device`,
/// `crates/memsys/src/lib.rs` → `memsys`, `tests/foo.rs` → `tests::foo`.
pub fn module_path(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let stem = |s: &str| s.trim_end_matches(".rs").to_string();
    match parts.as_slice() {
        ["crates", krate, "src", rest @ ..] if !rest.is_empty() => {
            let mut path = krate.to_string();
            for (i, seg) in rest.iter().enumerate() {
                let seg = if i + 1 == rest.len() {
                    stem(seg)
                } else {
                    (*seg).to_string()
                };
                if seg != "lib" && seg != "mod" {
                    path.push_str("::");
                    path.push_str(&seg);
                }
            }
            path
        }
        _ => stem(rel).replace('/', "::"),
    }
}

impl CallGraph {
    /// Builds the graph from every scanned file.
    pub fn build(files: &[(String, FileContext)]) -> CallGraph {
        let mut nodes = Vec::new();
        for (rel, ctx) in files {
            collect_nodes(rel, ctx, &mut nodes);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if !n.is_test && !n.name.is_empty() {
                by_name.entry(n.name.clone()).or_default().push(i);
            }
        }
        let edges = nodes
            .iter()
            .map(|n| {
                let mut out = Vec::new();
                for callee in &n.calls {
                    if UBIQUITOUS_NAMES.contains(&callee.as_str()) {
                        continue;
                    }
                    let Some(defs) = by_name.get(callee) else {
                        continue; // std / external — not ours to analyze
                    };
                    let distinct_files: std::collections::BTreeSet<&str> =
                        defs.iter().map(|&d| nodes[d].file.as_str()).collect();
                    if distinct_files.len() > AMBIGUITY_CAP {
                        continue;
                    }
                    out.extend(defs.iter().copied());
                }
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        CallGraph { nodes, edges }
    }

    /// Direct callees of node `i`.
    pub fn callees(&self, i: usize) -> &[usize] {
        &self.edges[i]
    }

    /// BFS from `entries`: every reachable node index mapped to its
    /// shortest call path (as node indices, starting at an entry).
    /// Deterministic: entries are visited in the given order and
    /// adjacency lists are sorted.
    pub fn reachable(&self, entries: &[usize]) -> BTreeMap<usize, Vec<usize>> {
        let mut paths: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &e in entries {
            paths.entry(e).or_insert_with(|| {
                queue.push_back(e);
                vec![e]
            });
        }
        while let Some(cur) = queue.pop_front() {
            let base = paths[&cur].clone();
            for &next in &self.edges[cur] {
                paths.entry(next).or_insert_with(|| {
                    queue.push_back(next);
                    let mut p = base.clone();
                    p.push(next);
                    p
                });
            }
        }
        paths
    }

    /// Renders a call path as `file::fn → file::fn → ...` using module
    /// paths, for diagnostics.
    pub fn render_path(&self, path: &[usize]) -> String {
        path.iter()
            .map(|&i| {
                format!(
                    "{}::{}",
                    module_path(&self.nodes[i].file),
                    self.nodes[i].name
                )
            })
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// Extracts every `fn` node of one file, with its direct panic sites
/// and callee names.
fn collect_nodes(rel: &str, ctx: &FileContext, out: &mut Vec<FnNode>) {
    let file_name = rel.rsplit('/').next().unwrap_or(rel).to_string();
    for f in ctx.all_fns() {
        let toks = &ctx.toks[f.span.start..=f.span.end];
        let is_test = ctx.in_test(f.span.start);
        let mut panics = Vec::new();
        let mut calls = Vec::new();
        for (k, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |c: char| toks.get(k + 1).is_some_and(|a| a.is_punct(c));
            let prev_is = |c: char| k > 0 && toks[k - 1].is_punct(c);
            // Direct panic sites (the PANIC-REACH token set).
            let method_call = |name: &str| t.is_ident(name) && prev_is('.') && next_is('(');
            let macro_call = |name: &str| t.is_ident(name) && next_is('!');
            let what = if method_call("unwrap") {
                Some(".unwrap()")
            } else if method_call("expect") {
                Some(".expect()")
            } else if macro_call("panic") {
                Some("panic!")
            } else if macro_call("unreachable") {
                Some("unreachable!")
            } else if macro_call("todo") {
                Some("todo!")
            } else if macro_call("unimplemented") {
                Some("unimplemented!")
            } else {
                None
            };
            if let Some(what) = what {
                panics.push((t.line, what));
                continue;
            }
            // Call sites: `ident(`, excluding keywords, macro calls and
            // the definition's own `fn name(`.
            if next_is('(')
                && !KEYWORDS.contains(&t.text.as_str())
                && !(k > 0 && toks[k - 1].is_ident("fn"))
            {
                calls.push(t.text.clone());
            }
        }
        calls.sort_unstable();
        calls.dedup();
        out.push(FnNode {
            file: rel.to_string(),
            file_name: file_name.clone(),
            name: f.name.clone(),
            line: toks.first().map_or(0, |t| t.line),
            is_test,
            panics,
            calls,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let built: Vec<(String, FileContext)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), FileContext::new(p, s)))
            .collect();
        CallGraph::build(&built)
    }

    fn idx(g: &CallGraph, file: &str, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.file == file && n.name == name)
            .unwrap_or_else(|| panic!("no node {file}::{name}"))
    }

    #[test]
    fn module_paths() {
        assert_eq!(
            module_path("crates/smartdimm/src/device.rs"),
            "smartdimm::device"
        );
        assert_eq!(module_path("crates/memsys/src/lib.rs"), "memsys");
        assert_eq!(module_path("tests/multichannel.rs"), "tests::multichannel");
    }

    #[test]
    fn cross_crate_edges_resolve_by_name() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub fn driver() { helper_step(); }"),
            (
                "crates/b/src/lib.rs",
                "pub fn helper_step() { inner_panic(); }\nfn inner_panic() { x.unwrap(); }",
            ),
        ]);
        let d = idx(&g, "crates/a/src/lib.rs", "driver");
        let reach = g.reachable(&[d]);
        let ip = idx(&g, "crates/b/src/lib.rs", "inner_panic");
        assert!(reach.contains_key(&ip), "cross-crate transitive edge");
        assert_eq!(g.nodes[ip].panics.len(), 1);
        assert_eq!(
            g.render_path(&reach[&ip]),
            "a::driver → b::helper_step → b::inner_panic"
        );
    }

    #[test]
    fn cycles_terminate_with_shortest_paths() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn ping() { pong(); }\nfn pong() { ping(); deep_call(); }\nfn deep_call() {}",
        )]);
        let p = idx(&g, "crates/a/src/lib.rs", "ping");
        let reach = g.reachable(&[p]);
        assert_eq!(reach.len(), 3, "cycle fully explored exactly once");
        let deep = idx(&g, "crates/a/src/lib.rs", "deep_call");
        assert_eq!(reach[&deep].len(), 3, "ping → pong → deep_call");
    }

    #[test]
    fn trait_method_dispatch_links_every_impl() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn caller(b: &dyn Buf) { b.on_feed_line(0); }",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Buf for X { fn on_feed_line(&self, l: u64) { y.expect(\"live\"); } }",
            ),
            (
                "crates/c/src/lib.rs",
                "impl Buf for Z { fn on_feed_line(&self, l: u64) {} }",
            ),
        ]);
        let c = idx(&g, "crates/a/src/lib.rs", "caller");
        let reach = g.reachable(&[c]);
        assert!(reach.contains_key(&idx(&g, "crates/b/src/lib.rs", "on_feed_line")));
        assert!(reach.contains_key(&idx(&g, "crates/c/src/lib.rs", "on_feed_line")));
    }

    #[test]
    fn ubiquitous_names_and_test_defs_produce_no_edges() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn caller(v: &V) { v.get(1); v.special_probe(); }"),
            ("crates/b/src/lib.rs", "pub fn get(i: u32) { x.unwrap(); }\n#[cfg(test)]\nmod t { fn special_probe() { y.unwrap(); } }"),
        ]);
        let c = idx(&g, "crates/a/src/lib.rs", "caller");
        let reach = g.reachable(&[c]);
        assert_eq!(
            reach.len(),
            1,
            "no edge through `get` (ubiquitous) or a test-only def"
        );
    }
}
