//! The workspace-wide call graph.
//!
//! Name resolution is deliberately conservative and first-party-only:
//!
//! - `name(...)` resolves to free functions of that name — same file
//!   first, then same crate, then anywhere in the workspace;
//! - `Type::name(...)` resolves to functions owned by `Type` (module
//!   paths fall back to the file stem, `Self` to the caller's owner);
//! - `.name(...)` method calls resolve to *every* owned function of
//!   that name (no type inference, so all receivers are candidates) —
//!   except that a candidate sharing the caller's own impl owner needs
//!   the receiver to be literally `self` (`self.push(m)` is a
//!   same-type call; `st.queue.push(f)` on a std container is not a
//!   recursive call into the enclosing impl);
//! - every edge respects the workspace crate layering: cargo forbids
//!   dependency cycles, so a call in `net` cannot resolve into
//!   `harness` (which depends on `net`) — pruning those kills the
//!   worst method-name collisions (`drain`, `push`, `insert`);
//! - calls inside closures passed to `spawn(...)` are **not** edges —
//!   they run on another thread, so they cannot block the caller's
//!   event loop.
//!
//! Unresolved names (std, vendored crates) get no edge; the rule that
//! walks the graph treats them as leaf effects at the call site.

use crate::lexer::TokKind;
use crate::model::{self, FnInfo};
use crate::scan::SourceFile;
use std::collections::{HashMap, HashSet, VecDeque};

/// Identifier tokens that look like calls but are control flow.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "as", "in", "move", "else", "let", "unsafe",
    "break", "continue", "where", "impl", "dyn", "ref", "mut", "box", "await", "yield",
];

/// Workspace crates in dependency order: a function in crate *i* can
/// only call into crates at positions ≤ *i* (cargo forbids dependency
/// cycles, so upward resolutions are name collisions, not calls).
/// `net`/`harness` and `consensus`/`dap` are mutually independent —
/// a linear order over-approximates one direction, which only admits
/// edges, never drops real ones. Paths outside `crates/` (fixtures)
/// rank last and are never pruned as callers.
const CRATE_ORDER: &[&str] = &[
    "codes",
    "types",
    "sim",
    "consensus",
    "dap",
    "core",
    "wal",
    "net",
    "harness",
    "bench",
    "lint",
];

fn crate_rank(krate: &str) -> usize {
    CRATE_ORDER.iter().position(|c| *c == krate).unwrap_or(usize::MAX)
}

/// One resolved call edge: `fns[caller]` calls `fns[callee]` at the
/// ident token `tok` of the caller's file.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Calling function (index into [`Analysis::fns`]).
    pub caller: usize,
    /// Resolved callee (index into [`Analysis::fns`]).
    pub callee: usize,
    /// Token index of the callee name at the call site.
    pub tok: usize,
}

/// The semantic substrate of `loop-blocking-transitive`: the
/// function inventory, each function's effective body (comments,
/// nested fns and spawned closures excluded), and the call graph.
pub struct Analysis<'a> {
    /// The scanned files (the same slice the rule receives).
    pub files: &'a [SourceFile],
    /// Every first-party function with a body.
    pub fns: Vec<FnInfo>,
    /// Effective body token indices per function: comment tokens,
    /// nested function bodies, and `spawn(...)` argument regions are
    /// filtered out.
    pub body_idx: Vec<Vec<usize>>,
    /// All resolved call edges, in (caller, site) order.
    pub edges: Vec<Edge>,
    /// Outgoing edge indices per caller.
    pub out: Vec<Vec<usize>>,
    /// `(caller, site token)` pairs that resolved to ≥1 first-party
    /// callee (so the rule can treat them as descents, not leaves).
    resolved_sites: HashSet<(usize, usize)>,
}

impl<'a> Analysis<'a> {
    /// Builds the inventory, effective bodies, and call graph.
    pub fn build(files: &'a [SourceFile]) -> Analysis<'a> {
        let fns = model::inventory(files);

        let mut body_idx = Vec::with_capacity(fns.len());
        for (i, f) in fns.iter().enumerate() {
            body_idx.push(effective_body(files, &fns, i, f));
        }

        // Resolution indices.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let stem = |path: &str| -> String {
            path.rsplit('/').next().unwrap_or(path).trim_end_matches(".rs").to_string()
        };
        let krate = |path: &str| -> String {
            let mut parts = path.split('/');
            match (parts.next(), parts.next()) {
                (Some("crates"), Some(c)) => c.to_string(),
                _ => path.to_string(),
            }
        };

        let mut edges = Vec::new();
        for (caller, f) in fns.iter().enumerate() {
            let file = &files[f.file];
            let idx = &body_idx[caller];
            for w in 0..idx.len().saturating_sub(1) {
                let t = &file.toks[idx[w]];
                if t.kind != TokKind::Ident
                    || KEYWORDS.contains(&t.text.as_str())
                    || !file.toks[idx[w + 1]].is_punct('(')
                {
                    continue;
                }
                if w > 0 && file.toks[idx[w - 1]].is_ident("fn") {
                    continue; // a declaration, not a call
                }
                let qual = call_qualifier(file, idx, w);
                let name = t.text.as_str();
                let candidates: Vec<usize> = match &qual {
                    Qual::Method { recv_self } => by_name
                        .get(name)
                        .into_iter()
                        .flatten()
                        .filter(|&&c| {
                            // A same-owner candidate needs a literal
                            // `self` receiver: `self.push(m)` recurses
                            // into the impl, `st.queue.push(f)` is a
                            // std container that happens to collide.
                            fns[c].owner.is_some() && (*recv_self || fns[c].owner != f.owner)
                        })
                        .copied()
                        .collect(),
                    Qual::Path(q) => {
                        let by_owner: Vec<usize> = by_name
                            .get(name)
                            .into_iter()
                            .flatten()
                            .filter(|&&c| {
                                if q == "Self" {
                                    fns[c].owner.is_some() && fns[c].owner == f.owner
                                } else {
                                    fns[c].owner.as_deref() == Some(q.as_str())
                                }
                            })
                            .copied()
                            .collect();
                        if !by_owner.is_empty() {
                            by_owner
                        } else {
                            // A module path: match the defining file's
                            // stem (`sync::lock` → sync.rs), or the
                            // caller's crate for `crate::`/`self::`.
                            by_name
                                .get(name)
                                .into_iter()
                                .flatten()
                                .filter(|&&c| {
                                    fns[c].owner.is_none()
                                        && (stem(&files[fns[c].file].path) == *q
                                            || ((q == "crate" || q == "self")
                                                && krate(&files[fns[c].file].path)
                                                    == krate(&file.path)))
                                })
                                .copied()
                                .collect()
                        }
                    }
                    Qual::Plain => {
                        let free: Vec<usize> = by_name
                            .get(name)
                            .into_iter()
                            .flatten()
                            .filter(|&&c| fns[c].owner.is_none())
                            .copied()
                            .collect();
                        let same_file: Vec<usize> =
                            free.iter().filter(|&&c| fns[c].file == f.file).copied().collect();
                        if !same_file.is_empty() {
                            same_file
                        } else {
                            let same_crate: Vec<usize> = free
                                .iter()
                                .filter(|&&c| krate(&files[fns[c].file].path) == krate(&file.path))
                                .copied()
                                .collect();
                            if !same_crate.is_empty() {
                                same_crate
                            } else {
                                free
                            }
                        }
                    }
                };
                let caller_rank = crate_rank(&krate(&file.path));
                for callee in candidates {
                    // Crate layering: no edge may resolve upward into a
                    // crate that depends on the caller's.
                    if crate_rank(&krate(&files[fns[callee].file].path)) > caller_rank {
                        continue;
                    }
                    edges.push(Edge { caller, callee, tok: idx[w] });
                }
            }
        }

        let mut out = vec![Vec::new(); fns.len()];
        let mut resolved_sites = HashSet::new();
        for (i, e) in edges.iter().enumerate() {
            out[e.caller].push(i);
            resolved_sites.insert((e.caller, e.tok));
        }
        Analysis { files, fns, body_idx, edges, out, resolved_sites }
    }

    /// Whether the call site at `tok` inside `caller` resolved to at
    /// least one first-party function.
    pub fn site_resolves(&self, caller: usize, tok: usize) -> bool {
        self.resolved_sites.contains(&(caller, tok))
    }

    /// BFS reachability from `roots`. Returns every reachable function
    /// (roots included) and, for each non-root, the BFS parent edge —
    /// enough to reconstruct a shortest call chain for a finding.
    pub fn reachable(&self, roots: &[usize]) -> (HashSet<usize>, HashMap<usize, usize>) {
        let mut seen: HashSet<usize> = roots.iter().copied().collect();
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut q: VecDeque<usize> = roots.iter().copied().collect();
        while let Some(cur) = q.pop_front() {
            for &ei in &self.out[cur] {
                let e = &self.edges[ei];
                if seen.insert(e.callee) {
                    parent.insert(e.callee, ei);
                    q.push_back(e.callee);
                }
            }
        }
        (seen, parent)
    }

    /// The call chain `root → ... → target` as function names, using
    /// the BFS parent map from [`Analysis::reachable`].
    pub fn chain(&self, parent: &HashMap<usize, usize>, target: usize) -> Vec<String> {
        let mut names = vec![self.fns[target].name.clone()];
        let mut cur = target;
        while let Some(&ei) = parent.get(&cur) {
            cur = self.edges[ei].caller;
            names.push(self.fns[cur].name.clone());
        }
        names.reverse();
        names
    }

    /// Functions matching `(file path, fn name)` — rule roots.
    pub fn find_fns(&self, path: &str, name: &str) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| self.fns[i].name == name && self.files[self.fns[i].file].path == path)
            .collect()
    }
}

/// How a call site is qualified.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Qual {
    /// `.name(` — a method call; `recv_self` when the receiver is the
    /// literal token `self` (not a field chain ending in `.name`).
    Method { recv_self: bool },
    /// `seg::name(` — the last path segment before the name.
    Path(String),
    /// Bare `name(`.
    Plain,
}

fn call_qualifier(file: &SourceFile, idx: &[usize], w: usize) -> Qual {
    if w >= 1 && file.toks[idx[w - 1]].is_punct('.') {
        let recv_self = w >= 2
            && file.toks[idx[w - 2]].is_ident("self")
            && !(w >= 3 && file.toks[idx[w - 3]].is_punct('.'));
        return Qual::Method { recv_self };
    }
    if w >= 3
        && file.toks[idx[w - 1]].is_punct(':')
        && file.toks[idx[w - 2]].is_punct(':')
        && file.toks[idx[w - 3]].kind == TokKind::Ident
    {
        return Qual::Path(file.toks[idx[w - 3]].text.clone());
    }
    Qual::Plain
}

/// The effective body of `fns[i]`: non-comment tokens of its body
/// interior, minus nested function bodies and `spawn(...)` arguments.
fn effective_body(files: &[SourceFile], fns: &[FnInfo], i: usize, f: &FnInfo) -> Vec<usize> {
    let file = &files[f.file];
    let nested: Vec<_> = fns
        .iter()
        .enumerate()
        .filter(|(j, g)| {
            *j != i && g.file == f.file && g.body.start > f.body.start && g.body.end <= f.body.end
        })
        .map(|(_, g)| g.body.clone())
        .collect();
    let mut idx: Vec<usize> = (f.body.start + 1..f.body.end.saturating_sub(1))
        .filter(|&ti| {
            file.toks[ti].kind != TokKind::Comment && !nested.iter().any(|r| r.contains(&ti))
        })
        .collect();

    // Drop `spawn(...)` argument regions: the closure runs elsewhere.
    let mut keep = vec![true; idx.len()];
    let mut w = 0usize;
    while w + 1 < idx.len() {
        if file.toks[idx[w]].is_ident("spawn") && file.toks[idx[w + 1]].is_punct('(') {
            if let Some(close) = model::matching_paren(file, &idx, w + 1) {
                for flag in keep.iter_mut().take(close).skip(w + 2) {
                    *flag = false;
                }
                w = close;
                continue;
            }
        }
        w += 1;
    }
    idx = idx.iter().zip(keep).filter(|(_, k)| *k).map(|(&ti, _)| ti).collect();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(src: &str) -> Vec<SourceFile> {
        vec![SourceFile::new("crates/net/src/host.rs", src)]
    }

    fn names(a: &Analysis<'_>, caller: &str) -> Vec<String> {
        let c = (0..a.fns.len()).find(|&i| a.fns[i].name == caller).unwrap();
        a.out[c].iter().map(|&e| a.fns[a.edges[e].callee].name.clone()).collect()
    }

    #[test]
    fn plain_path_and_method_calls_resolve() {
        let files = host(
            "fn event_loop() { apply(); codec::encode(); pool.send(1); }\n\
             fn apply() {}\n\
             mod codec {}\n\
             fn encode() {}\n\
             impl PeerPool { fn send(&self, x: u32) {} }\n",
        );
        let a = Analysis::build(&files);
        let out = names(&a, "event_loop");
        assert!(out.contains(&"apply".into()), "plain call: {out:?}");
        assert!(out.contains(&"send".into()), "method call: {out:?}");
        // `codec::encode` falls back to the file stem — no file named
        // codec.rs here, so no edge.
        assert!(!out.contains(&"encode".into()), "{out:?}");
    }

    #[test]
    fn module_path_resolves_by_file_stem() {
        let files = vec![
            SourceFile::new("crates/net/src/host.rs", "fn apply() { crate::sync::lock(&x); }\n"),
            SourceFile::new("crates/net/src/sync.rs", "pub fn lock(m: &M) -> G { m.lock() }\n"),
        ];
        let a = Analysis::build(&files);
        assert_eq!(names(&a, "apply"), vec!["lock"]);
    }

    #[test]
    fn spawned_closures_are_not_edges() {
        let files = host(
            "fn send(&self) { std::thread::spawn(move || writer_loop(1)); self.push(); }\n\
             fn writer_loop(x: u32) {}\n\
             impl Q { fn push(&self) {} }\n",
        );
        let a = Analysis::build(&files);
        let out = names(&a, "send");
        assert!(!out.contains(&"writer_loop".into()), "spawned closure leaked: {out:?}");
        assert!(out.contains(&"push".into()), "{out:?}");
    }

    #[test]
    fn reachability_reports_a_chain() {
        let files = host(
            "fn event_loop() { apply() }\nfn apply() { helper() }\nfn helper() { leaf() }\n\
             fn leaf() {}\n",
        );
        let a = Analysis::build(&files);
        let roots = a.find_fns("crates/net/src/host.rs", "event_loop");
        let (seen, parent) = a.reachable(&roots);
        let leaf = (0..a.fns.len()).find(|&i| a.fns[i].name == "leaf").unwrap();
        assert!(seen.contains(&leaf));
        assert_eq!(a.chain(&parent, leaf), vec!["event_loop", "apply", "helper", "leaf"]);
    }

    #[test]
    fn same_owner_method_needs_a_self_receiver() {
        let files = host(
            "impl Timers {\n\
             fn clear(&self) { crate::sync::lock(&self.state).heap.clear(); self.tick(); }\n\
             fn tick(&self) {}\n\
             }\n",
        );
        let a = Analysis::build(&files);
        let out = names(&a, "clear");
        assert!(out.contains(&"tick".into()), "self receiver resolves: {out:?}");
        // `.heap.clear()` is BinaryHeap::clear, not a recursive call
        // into Timers::clear.
        assert!(!out.contains(&"clear".into()), "field-chain receiver leaked: {out:?}");
    }

    #[test]
    fn edges_cannot_resolve_upward_across_crates() {
        let files = vec![
            SourceFile::new(
                "crates/net/src/host.rs",
                "fn pop_batch(st: &mut St) { st.queue.drain(..); }\n",
            ),
            // `harness` depends on `net` — a call in net cannot land here.
            SourceFile::new(
                "crates/harness/src/store.rs",
                "impl SimInner { fn drain(&mut self) {} }\n",
            ),
            // `core` is below `net` — this candidate survives.
            SourceFile::new(
                "crates/core/src/frames.rs",
                "impl StepQueue { fn drain(&mut self) {} }\n",
            ),
        ];
        let a = Analysis::build(&files);
        let c = (0..a.fns.len()).find(|&i| a.fns[i].name == "pop_batch").unwrap();
        let callees: Vec<String> =
            a.out[c].iter().map(|&e| a.files[a.fns[a.edges[e].callee].file].path.clone()).collect();
        assert_eq!(callees, vec!["crates/core/src/frames.rs"], "{callees:?}");
    }

    #[test]
    fn self_path_resolves_to_owner() {
        let files = host("impl A { fn a(&self) { Self::b(); } fn b() {} }\nimpl C { fn b() {} }\n");
        let a = Analysis::build(&files);
        let caller = (0..a.fns.len()).find(|&i| a.fns[i].name == "a").unwrap();
        let callees: Vec<_> = a.out[caller]
            .iter()
            .map(|&e| a.fns[a.edges[e].callee].owner.clone().unwrap())
            .collect();
        assert_eq!(callees, vec!["A"], "Self:: must stay inside the owner");
    }
}
