//! `ares-lint` — workspace-native static analysis for the ARES runtime.
//!
//! Eight analyses over a hand-rolled lexer (no crates.io in this
//! environment, so no syn/dylint): four lexical, four *semantic* —
//! built on a workspace function inventory ([`model`]), a
//! conservatively name-resolved call graph ([`callgraph`]), and an
//! expression-level statement parser ([`ast`]). Each protects a
//! distributed-systems invariant the type system cannot see:
//!
//! | rule                       | invariant                                                |
//! |----------------------------|----------------------------------------------------------|
//! | `net-panic`                | hostile bytes cannot panic the process                   |
//! | `loop-blocking`            | shard event loops never block (direct sites)             |
//! | `loop-blocking-transitive` | ...nor through any first-party call chain                |
//! | `lock-order`               | the static lock-acquisition graph is acyclic             |
//! | `retry-backoff`            | timers re-armed on the retry path grow exponentially     |
//! | `completion-once`          | registered completion cells resolve exactly once per path|
//! | `unsafe-safety`            | every `unsafe` region carries a safety argument          |
//! | `drift`                    | no `todo!`/`unimplemented!`/`dbg!` in production code    |
//!
//! Audited exceptions use `// lint: allow(<rule>, reason = "...")` on
//! the offending line or the line above; malformed annotations are
//! themselves findings (`bad-allow`), and annotations whose covered
//! lines no longer trip the named rule are findings too
//! (`stale-allow`) — the escape hatch can neither rot into a blanket
//! mute nor outlive its cause. See DESIGN.md §10 for the invariant
//! catalogue.

pub mod ast;
pub mod callgraph;
pub mod findings;
pub mod json;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod scan;
pub mod workspace;

use callgraph::Analysis;
use findings::{Allows, Finding};
use scan::SourceFile;
use std::collections::HashMap;

/// Files on the hostile-input path: wire decode plus every actor
/// handler reachable from network bytes (`net-panic` scope).
pub const PANIC_SCOPE: &[&str] = &[
    "crates/net/src/codec.rs",
    "crates/net/src/faults.rs",
    "crates/net/src/host.rs",
    "crates/net/src/runtime.rs",
    "crates/net/src/testing.rs",
    "crates/net/src/wal.rs",
    "crates/wal/src/lib.rs",
    "crates/core/src/server.rs",
    "crates/core/src/client.rs",
    "crates/core/src/frames.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/repair.rs",
    "crates/dap/src/server.rs",
    "crates/dap/src/client.rs",
    "crates/consensus/src/acceptor.rs",
    "crates/consensus/src/proposer.rs",
];

/// The file holding the shard event loops (`loop-blocking` scope).
pub const EVENT_LOOP_FILE: &str = "crates/net/src/host.rs";

/// The event-loop function bodies checked by `loop-blocking`.
pub const EVENT_LOOP_FNS: &[&str] = &["event_loop", "apply"];

/// Runs every enabled rule over `files` and applies per-file allow
/// annotations. `rule` restricts the run to one rule name (`None` =
/// all); `bad-allow` findings surface whenever their file is scanned.
///
/// `stale-allow` needs the *raw* findings of every other rule (an
/// annotation is stale when nothing it covers still trips), so enabling
/// it computes all rules and then emits only the enabled ones.
pub fn run(files: &[SourceFile], rule: Option<&str>) -> Vec<Finding> {
    let enabled = |name: &str| rule.is_none_or(|r| r == name);
    // What must be *computed* (superset of what is emitted).
    let compute = |name: &str| enabled(name) || enabled("stale-allow");

    let mut raw = Vec::new();
    for f in files {
        if compute("net-panic") && PANIC_SCOPE.contains(&f.path.as_str()) {
            raw.extend(rules::panic_path::check(f));
        }
        if compute("loop-blocking") && f.path == EVENT_LOOP_FILE {
            raw.extend(rules::blocking::check(f, EVENT_LOOP_FNS));
        }
        if compute("unsafe-safety") {
            raw.extend(rules::unsafety::check(f));
        }
        if compute("drift") {
            raw.extend(rules::drift::check(f));
        }
    }

    // The interprocedural rules share one analysis build.
    let needs_analysis =
        ["loop-blocking-transitive", "lock-order", "retry-backoff", "completion-once"]
            .iter()
            .any(|r| compute(r));
    if needs_analysis {
        let a = Analysis::build(files);
        if compute("loop-blocking-transitive") {
            raw.extend(rules::blocking_transitive::check(&a, EVENT_LOOP_FILE, EVENT_LOOP_FNS));
        }
        if compute("lock-order") {
            raw.extend(rules::lock_order::check(&a));
        }
        if compute("retry-backoff") {
            raw.extend(rules::retry_backoff::check(&a));
        }
        if compute("completion-once") {
            raw.extend(rules::completion_once::check(&a));
        }
    }

    // Allow-annotation pass: suppress covered findings, surface
    // malformed annotations, and audit annotations for staleness
    // against the raw (pre-suppression) findings.
    let allows: HashMap<&str, Allows> =
        files.iter().map(|f| (f.path.as_str(), Allows::collect(f))).collect();
    let mut out: Vec<Finding> = raw
        .iter()
        .filter(|f| enabled(f.rule))
        .filter(|f| !allows.get(f.file.as_str()).is_some_and(|a| a.covers(f.rule, f.line)))
        .cloned()
        .collect();
    if enabled("bad-allow") {
        out.extend(allows.values().flat_map(|a| a.bad.iter().cloned()));
    }
    if enabled("stale-allow") {
        for (path, a) in &allows {
            for e in &a.entries {
                let live = raw.iter().any(|f| {
                    f.rule == e.rule && f.file == *path && e.covered_lines().contains(&f.line)
                });
                if !live {
                    out.push(Finding {
                        rule: "stale-allow",
                        file: (*path).to_string(),
                        line: e.line,
                        msg: format!(
                            "allow({}) no longer suppresses anything — the covered lines do not \
                             trip the rule; remove the annotation (reason was: \"{}\")",
                            e.rule, e.reason
                        ),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}
