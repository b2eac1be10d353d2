//! Cross-crate call graph over the parsed workspace.
//!
//! Nodes are the fn items [`crate::parser`] extracts; edges come from a
//! conservative, name-based resolution of each call expression:
//!
//! - **Path calls** (`f(…)`, `stage1::solve_stage1(…)`,
//!   `Solver::new(…)`, `thermaware_obs::span(…)`): the target crate is
//!   taken from an explicit `thermaware_*`/`crate`/`self`/`super`
//!   prefix, or from the file's `use` imports, else the caller's own
//!   crate; within that crate the last segment resolves **by name**
//!   (module-insensitive — which is what makes re-exports transparent:
//!   `use thermaware_a::helper` finds `a`'s `inner::helper` no matter
//!   how it is re-exported). An uppercase next-to-last segment (or
//!   `Self`) constrains the match to methods of that impl type — or,
//!   when the type defines no method of that name, to the provided
//!   methods of the traits it implements (`impl Trait for Type`,
//!   matched by type name in any crate).
//! - **Method calls** (`.m(…)`): receiver types are unknown, so the
//!   call links to *every* workspace method named `m` — a deliberate
//!   over-approximation (class-hierarchy style), tempered by a stoplist
//!   of ubiquitous std method names ([`METHOD_STOPLIST`]) that would
//!   otherwise wire the graph into a near-clique through `clone`/`len`/
//!   `get`. Workspace methods that shadow a stoplisted name are the one
//!   documented blind spot.
//!
//! What stays dark, by design: calls through function pointers and
//! closures passed as values, and macro-generated code. Both are rare on
//! the solver paths this graph polices; the per-file token rules
//! (`determinism`, `panic-free`) still cover their bodies directly.
//!
//! Each node also carries the facts the graph rules consume: panic
//! sites (`.unwrap()`, `panic!`-family macros), determinism taint
//! sources (wall-clock reads, ambient entropy, `HashMap`/`HashSet` —
//! obs-gated timing exempt, same contract as the `determinism` rule),
//! and whether the body opens an `obs` span.

use crate::parser::{self, Callee, ParsedFile};
use crate::source::SourceFile;
use crate::workspace::Workspace;
use std::collections::BTreeMap;

/// Method names never resolved for `.m(…)` calls: std-prelude noise
/// that would connect everything to everything. A workspace method
/// deliberately named like one of these is invisible to the graph —
/// the per-file rules still see its body.
const METHOD_STOPLIST: [&str; 72] = [
    "abs", "and_then", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str", "borrow",
    "borrow_mut", "ceil", "chain", "clamp", "clear", "clone", "cmp", "collect", "contains",
    "contains_key", "count", "dedup", "default", "drop", "enumerate", "eq", "err", "extend",
    "filter", "finish", "first", "flush", "floor", "fmt", "get", "get_mut", "hash", "insert",
    "into_iter", "is_empty", "is_err", "is_none", "is_ok", "is_some", "iter", "iter_mut", "join",
    "last", "len", "lock", "map", "max", "min", "ne", "next", "ok", "or_else", "parse",
    "partial_cmp", "pop", "push", "read", "recv", "remove", "replace", "rev", "round", "send",
    "sort", "sort_by", "sqrt", "take", "to_string", "zip",
];

/// Node id: index into [`Graph::nodes`].
pub type NodeId = usize;

/// One fn item in the workspace graph.
pub struct Node {
    /// Index into `Workspace::files`.
    pub file: usize,
    pub crate_name: String,
    pub name: String,
    pub impl_type: Option<String>,
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True for fns in test regions / test targets — excluded from
    /// resolution and from rule scope.
    pub in_test: bool,
    /// `(line, description)` of each panic site in the body.
    pub panic_sites: Vec<(usize, String)>,
    /// `(line, description)` of each non-obs-gated determinism taint
    /// source in the body.
    pub taint_sources: Vec<(usize, String)>,
    /// Whether the body opens an `obs` span (`…::span(…)` call).
    pub opens_span: bool,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    pub to: NodeId,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
    /// Inside `catch_unwind(…)`/`spawn(…)` arguments: panics do not
    /// unwind through this edge (taint still flows).
    pub guarded: bool,
}

/// The workspace call graph.
pub struct Graph {
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[caller]` sorted by callee id (deduped).
    pub edges: Vec<Vec<Edge>>,
}

/// A step of a witness path: `(node, call line into the next step)`.
pub struct Witness {
    /// Node ids from entry to target, inclusive.
    pub path: Vec<NodeId>,
    /// `call_lines[i]` is the line in `path[i]`'s file where it calls
    /// `path[i+1]` (length `path.len() - 1`).
    pub call_lines: Vec<usize>,
}

impl Graph {
    /// Parse every file and build the resolved graph.
    pub fn build(ws: &Workspace) -> Graph {
        let parsed: Vec<ParsedFile> = ws.files.iter().map(parser::parse).collect();

        // Nodes, in file order (deterministic: ws.files is sorted).
        let mut nodes = Vec::new();
        let mut node_fns: Vec<(usize, usize)> = Vec::new(); // (file idx, fn idx)
        for (fi, (file, pf)) in ws.files.iter().zip(&parsed).enumerate() {
            for (ki, f) in pf.fns.iter().enumerate() {
                let in_test = file.test_target || file.in_test_region(f.span.0);
                let (panic_sites, taint_sources, opens_span) = body_facts(file, f);
                nodes.push(Node {
                    file: fi,
                    crate_name: file.crate_name.clone(),
                    name: f.name.clone(),
                    impl_type: f.impl_type.clone(),
                    is_pub: f.is_pub,
                    line: f.line,
                    in_test,
                    panic_sites,
                    taint_sources,
                    opens_span,
                });
                node_fns.push((fi, ki));
            }
        }

        // Resolution indices over non-test nodes.
        let mut by_crate_name: BTreeMap<(String, String), Vec<NodeId>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if n.in_test {
                continue;
            }
            by_crate_name
                .entry((n.crate_name.clone(), n.name.clone()))
                .or_default()
                .push(id);
            if n.impl_type.is_some() {
                methods_by_name.entry(n.name.clone()).or_default().push(id);
            }
        }

        // Provided trait methods reachable through an implementing type:
        // (type, method name) -> the trait's default-method nodes.
        let mut by_impl_type: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if let (false, Some(t)) = (n.in_test, &n.impl_type) {
                by_impl_type.entry(t.as_str()).or_default().push(id);
            }
        }
        let mut provided: BTreeMap<(String, String), Vec<NodeId>> = BTreeMap::new();
        for (ty, tr) in parsed.iter().flat_map(|pf| &pf.trait_impls) {
            for &id in by_impl_type.get(tr.as_str()).into_iter().flatten() {
                provided.entry((ty.clone(), nodes[id].name.clone())).or_default().push(id);
            }
        }

        // Import maps per file: bound name -> workspace crate short name.
        let crate_of_root = |root: &str, own: &str| -> Option<String> {
            if root == "crate" || root == "self" || root == "super" {
                return Some(own.to_string());
            }
            root.strip_prefix("thermaware_").map(str::to_string)
        };
        let imports: Vec<BTreeMap<String, String>> = ws
            .files
            .iter()
            .zip(&parsed)
            .map(|(file, pf)| {
                let mut m = BTreeMap::new();
                for u in &pf.uses {
                    if let Some(c) = crate_of_root(&u.root, &file.crate_name) {
                        m.insert(u.name.clone(), c);
                    }
                }
                m
            })
            .collect();

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (id, &(fi, ki)) in node_fns.iter().enumerate() {
            let file = &ws.files[fi];
            let f = &parsed[fi].fns[ki];
            let own_crate = file.crate_name.as_str();
            let own_impl = f.impl_type.as_deref();
            let mut out: Vec<Edge> = Vec::new();
            for call in &f.calls {
                let targets: Vec<NodeId> = match &call.callee {
                    Callee::Macro(_) => continue, // panic sites handled in body_facts
                    Callee::Method(m) => {
                        if METHOD_STOPLIST.contains(&m.as_str()) {
                            continue;
                        }
                        methods_by_name.get(m).cloned().unwrap_or_default()
                    }
                    Callee::Path(segs) => resolve_path(
                        segs,
                        own_crate,
                        own_impl,
                        &imports[fi],
                        &by_crate_name,
                        &provided,
                        &nodes,
                        &crate_of_root,
                    ),
                };
                for t in targets {
                    out.push(Edge { to: t, line: call.line, guarded: call.guarded });
                }
            }
            // Dedup by (callee, guarded), keeping the earliest call line;
            // an unguarded edge to the same callee must survive next to a
            // guarded one (they differ for panic reachability).
            out.sort_by_key(|e| (e.to, e.guarded, e.line));
            out.dedup_by_key(|e| (e.to, e.guarded));
            edges[id] = out;
        }

        Graph { nodes, edges }
    }

    /// Find nodes by `(crate, impl_type, name)`; `impl_type = None`
    /// matches free fns only. Test nodes are excluded.
    pub fn find(&self, crate_name: &str, impl_type: Option<&str>, name: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                !n.in_test
                    && n.crate_name == crate_name
                    && n.name == name
                    && n.impl_type.as_deref() == impl_type
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// BFS from `entries`. Returns, for each reachable node, the parent
    /// `(node, call line)` it was first discovered through (entries map
    /// to themselves). `skip_guarded` drops `catch_unwind`/`spawn`
    /// edges (panic reachability); taint traversals keep them.
    pub fn reach(&self, entries: &[NodeId], skip_guarded: bool) -> BTreeMap<NodeId, (NodeId, usize)> {
        let mut parent: BTreeMap<NodeId, (NodeId, usize)> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();
        for &e in entries {
            if parent.insert(e, (e, 0)).is_none() {
                queue.push_back(e);
            }
        }
        while let Some(u) = queue.pop_front() {
            for e in &self.edges[u] {
                if skip_guarded && e.guarded {
                    continue;
                }
                if self.nodes[e.to].in_test {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(e.to) {
                    v.insert((u, e.line));
                    queue.push_back(e.to);
                }
            }
        }
        parent
    }

    /// Reconstruct the witness path from an entry to `target` using the
    /// `reach` parent map.
    pub fn witness(&self, parents: &BTreeMap<NodeId, (NodeId, usize)>, target: NodeId) -> Witness {
        let mut path = vec![target];
        let mut lines = Vec::new();
        let mut cur = target;
        // Parent chains are acyclic by construction (BFS tree), but cap
        // the walk so a future bug cannot loop forever.
        for _ in 0..self.nodes.len() + 1 {
            match parents.get(&cur) {
                Some(&(p, line)) if p != cur => {
                    path.push(p);
                    lines.push(line);
                    cur = p;
                }
                _ => break,
            }
        }
        path.reverse();
        lines.reverse();
        Witness { path, call_lines: lines }
    }

    /// Human-readable rendering of a witness path:
    /// `crates/a/src/x.rs:10 A::f -> crates/b/src/y.rs:20 g`.
    pub fn witness_strings(&self, ws: &Workspace, w: &Witness) -> Vec<String> {
        w.path
            .iter()
            .map(|&id| {
                let n = &self.nodes[id];
                let file = &ws.files[n.file];
                format!("{}:{} {}", file.path, n.line, qualified(n))
            })
            .collect()
    }
}

/// `Type::name` or `name` label for a node.
pub fn qualified(n: &Node) -> String {
    match &n.impl_type {
        Some(t) => format!("{t}::{}", n.name),
        None => n.name.clone(),
    }
}

/// Resolve one path call to candidate node ids (possibly empty:
/// std / vendored / unresolvable).
#[allow(clippy::too_many_arguments)]
fn resolve_path(
    segs: &[String],
    own_crate: &str,
    own_impl: Option<&str>,
    imports: &BTreeMap<String, String>,
    by_crate_name: &BTreeMap<(String, String), Vec<NodeId>>,
    provided: &BTreeMap<(String, String), Vec<NodeId>>,
    nodes: &[Node],
    crate_of_root: &dyn Fn(&str, &str) -> Option<String>,
) -> Vec<NodeId> {
    let Some(name) = segs.last() else {
        return Vec::new();
    };
    // Impl-type qualifier: `Type::f`, `Self::f` — an uppercase
    // next-to-last segment names the receiver type.
    let type_qual: Option<String> = if segs.len() >= 2 {
        let q = &segs[segs.len() - 2];
        if q == "Self" {
            own_impl.map(str::to_string)
        } else if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            Some(q.clone())
        } else {
            None
        }
    } else {
        None
    };
    // Crate hint: explicit path root, or the import that bound the
    // path's first visible segment.
    let first = &segs[0];
    let crate_hint: Option<String> = if segs.len() >= 2 {
        crate_of_root(first, own_crate).or_else(|| imports.get(first).cloned())
    } else {
        imports.get(first).cloned()
    };
    let target_crate = crate_hint.unwrap_or_else(|| own_crate.to_string());

    let ids = by_crate_name
        .get(&(target_crate, name.clone()))
        .cloned()
        .unwrap_or_default();
    match &type_qual {
        Some(t) => {
            let own: Vec<NodeId> =
                ids.into_iter().filter(|&id| nodes[id].impl_type.as_deref() == Some(t.as_str())).collect();
            // Not the type's own method: a trait's provided one.
            if own.is_empty() {
                provided.get(&(t.clone(), name.clone())).cloned().unwrap_or_default()
            } else {
                own
            }
        }
        // An unqualified call never targets a method; `Solver::solve`
        // style calls always carry the type.
        None => ids
            .into_iter()
            .filter(|&id| nodes[id].impl_type.is_none())
            .collect(),
    }
}

/// `(line, what)` pairs attributing a fact to a source line.
type SiteList = Vec<(usize, String)>;

/// Extract panic sites, determinism taint sources, and span opening
/// from one fn body. Shares the obs-gating contract with the per-file
/// `determinism` rule: `Instant::now`/`SystemTime` reads with an
/// `obs::enabled()` gate within the preceding ten lines only measure.
fn body_facts(file: &SourceFile, f: &parser::FnItem) -> (SiteList, SiteList, bool) {
    let mut panics = Vec::new();
    let mut taints = Vec::new();
    let mut opens_span = false;

    for call in &f.calls {
        match &call.callee {
            Callee::Method(m) => match m.as_str() {
                "unwrap" => panics.push((call.line, ".unwrap()".to_string())),
                "from_entropy" => taints.push((call.line, "from_entropy — ambient entropy".to_string())),
                _ => {}
            },
            Callee::Macro(m) => {
                if matches!(m.as_str(), "panic" | "unreachable" | "todo" | "unimplemented") {
                    panics.push((call.line, format!("{m}!")));
                }
            }
            Callee::Path(segs) => {
                let last = segs.last().map(String::as_str).unwrap_or("");
                let prev = segs.len().checked_sub(2).map(|i| segs[i].as_str()).unwrap_or("");
                match (prev, last) {
                    (_, "span") => opens_span = true,
                    ("Instant", "now") if !obs_gated(file, call.line) => {
                        taints.push((call.line, "Instant::now — wall-clock read".to_string()));
                    }
                    ("SystemTime", "now") if !obs_gated(file, call.line) => {
                        taints.push((call.line, "SystemTime::now — wall-clock read".to_string()));
                    }
                    (_, "thread_rng") => {
                        taints.push((call.line, "thread_rng — ambient entropy".to_string()));
                    }
                    (_, "from_entropy") => {
                        taints.push((call.line, "from_entropy — ambient entropy".to_string()));
                    }
                    _ => {}
                }
            }
        }
    }

    // HashMap/HashSet anywhere in the body (type positions included —
    // iterating either is order-nondeterministic per process).
    if let Some((b0, b1)) = f.body {
        for tok in &file.tokens {
            if tok.start < b0 || tok.end > b1 {
                continue;
            }
            if tok.kind == crate::lexer::TokenKind::Ident {
                let t = tok.text(&file.text);
                if t == "HashMap" || t == "HashSet" {
                    taints.push((
                        file.line_of(tok.start),
                        format!("{t} — iteration order varies per process"),
                    ));
                }
            }
        }
    }
    taints.sort();
    taints.dedup();
    panics.sort();
    panics.dedup();
    (panics, taints, opens_span)
}

/// Same gate window as the per-file `determinism` rule.
fn obs_gated(file: &SourceFile, line: usize) -> bool {
    const GATE_WINDOW: usize = 10;
    let from = line.saturating_sub(GATE_WINDOW).max(1);
    (from..=line).any(|l| {
        let t = file.line_text(l);
        t.contains("obs::enabled()") || t.contains("enabled().then")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use std::path::Path;

    /// Build a tiny in-memory workspace from (path, crate, text) files.
    fn ws_of(files: &[(&str, &str, &str)]) -> Workspace {
        Workspace {
            root: Path::new(".").to_path_buf(),
            crates: Vec::new(),
            files: files
                .iter()
                .map(|(p, c, t)| SourceFile::new(p.to_string(), c.to_string(), t.to_string()))
                .collect(),
        }
    }

    #[test]
    fn cross_crate_resolution_through_import_and_reexport() {
        let ws = ws_of(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "mod inner { pub fn helper() { std::thread::sleep(d); } }\npub use inner::helper;\n",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
                "use thermaware_a::helper;\npub fn entry() { helper(); }\n",
            ),
        ]);
        let g = Graph::build(&ws);
        let entry = g.find("b", None, "entry");
        assert_eq!(entry.len(), 1);
        let helper = g.find("a", None, "helper");
        assert_eq!(helper.len(), 1);
        assert!(
            g.edges[entry[0]].iter().any(|e| e.to == helper[0]),
            "entry must link to a::helper through the import + re-export"
        );
    }

    #[test]
    fn method_and_self_calls_resolve() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "pub struct S;\nimpl S {\n  pub fn solve(&self) { self.inner_step(); Self::assoc(); }\n  fn inner_step(&self) { x.unwrap(); }\n  fn assoc() {}\n}\n",
        )]);
        let g = Graph::build(&ws);
        let solve = g.find("a", Some("S"), "solve")[0];
        let step = g.find("a", Some("S"), "inner_step")[0];
        let assoc = g.find("a", Some("S"), "assoc")[0];
        let out: Vec<NodeId> = g.edges[solve].iter().map(|e| e.to).collect();
        assert!(out.contains(&step));
        assert!(out.contains(&assoc));
        assert_eq!(g.nodes[step].panic_sites.len(), 1);
    }

    #[test]
    fn provided_trait_methods_resolve_through_the_implementing_type() {
        let ws = ws_of(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub trait T { fn hook(); fn shared() { Self::hook(); helper(); } }\nfn helper() { v.unwrap(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
                "use thermaware_a::T;\nstruct S;\nimpl T for S { fn hook() {} }\npub fn entry() { S::shared(); S::hook(); }\n",
            ),
        ]);
        let g = Graph::build(&ws);
        let entry = g.find("b", None, "entry")[0];
        let shared = g.find("a", Some("T"), "shared")[0];
        let own_hook = g.find("b", Some("S"), "hook")[0];
        let out: Vec<NodeId> = g.edges[entry].iter().map(|e| e.to).collect();
        let mut want = vec![shared, own_hook];
        want.sort();
        assert_eq!(out, want, "`S::shared` is T's provided method, `S::hook` S's own only");
        assert!(g.reach(&[entry], true).contains_key(&g.find("a", None, "helper")[0]));
    }

    #[test]
    fn witness_reconstructs_the_call_chain() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "pub fn entry() { mid(); }\nfn mid() { deep(); }\nfn deep() { v.unwrap(); }\n",
        )]);
        let g = Graph::build(&ws);
        let entry = g.find("a", None, "entry")[0];
        let deep = g.find("a", None, "deep")[0];
        let parents = g.reach(&[entry], true);
        assert!(parents.contains_key(&deep));
        let w = g.witness(&parents, deep);
        assert_eq!(w.path.len(), 3);
        assert_eq!(w.path[0], entry);
        assert_eq!(w.path[2], deep);
        assert_eq!(w.call_lines, vec![1, 2]);
    }

    #[test]
    fn guarded_edges_stop_panic_reachability_only() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "pub fn entry() { let _ = catch_unwind(|| risky()); }\nfn risky() { panic!(\"x\"); }\n",
        )]);
        let g = Graph::build(&ws);
        let entry = g.find("a", None, "entry")[0];
        let risky = g.find("a", None, "risky")[0];
        assert!(!g.reach(&[entry], true).contains_key(&risky), "guarded edge must not carry panics");
        assert!(g.reach(&[entry], false).contains_key(&risky), "taint still flows through guards");
    }

    #[test]
    fn stoplisted_methods_do_not_link() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "pub struct S;\nimpl S { pub fn get(&self) { x.unwrap(); } }\npub fn entry(s: &S) { s.get(); }\n",
        )]);
        let g = Graph::build(&ws);
        let entry = g.find("a", None, "entry")[0];
        assert!(g.edges[entry].is_empty(), "`.get()` is stoplisted");
    }

    #[test]
    fn obs_gated_timing_is_not_taint() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "pub fn bare() { let t = Instant::now(); }\npub fn timed() {\n  let t0 = thermaware_obs::enabled().then(Instant::now);\n  work();\n}\n",
        )]);
        let g = Graph::build(&ws);
        let timed = g.find("a", None, "timed")[0];
        let bare = g.find("a", None, "bare")[0];
        assert!(g.nodes[timed].taint_sources.is_empty(), "{:?}", g.nodes[timed].taint_sources);
        assert_eq!(g.nodes[bare].taint_sources.len(), 1);
    }
}
