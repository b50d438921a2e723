//! `ares-lint` — workspace-native static analysis for the ARES runtime.
//!
//! Four rules over a hand-rolled lexer (no crates.io in this
//! environment, so no syn/dylint): three lexical, and one built on a
//! workspace function inventory ([`model`]) and a conservatively
//! name-resolved call graph ([`callgraph`]).
//!
//! | rule                       | invariant                                                |
//! |----------------------------|----------------------------------------------------------|
//! | `loop-blocking`            | shard event loops never block (direct sites)             |
//! | `loop-blocking-transitive` | ...nor through any first-party call chain                |
//! | `unsafe-safety`            | every `unsafe` region carries a safety argument          |
//! | `drift`                    | no `todo!`/`unimplemented!`/`dbg!` in production code    |
//!
//! The loop rules protect the one runtime invariant the compiler cannot
//! state. `unsafe-safety` and `drift` duplicate clippy lints the
//! workspace already denies; they stay because they cost a token scan
//! each and keep both checks inside `cargo test`, which does not run
//! clippy. Every other invariant this crate once policed is held by the
//! compiler: the panic family and bare indexing on hostile-input paths
//! by clippy; exponential retry backoff and exactly-once ticket
//! resolution by types; lock order by holding one runtime guard at a
//! time (DESIGN.md §10).
//!
//! Audited exceptions use `// lint: allow(<rule>, reason = "...")` on
//! the offending line or the line above; malformed annotations are
//! themselves findings (`bad-allow`), and annotations whose covered
//! lines no longer trip the named rule are findings too
//! (`stale-allow`) — the escape hatch can neither rot into a blanket
//! mute nor outlive its cause.

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

/// The file holding the shard event loops (`loop-blocking` scope).
pub const EVENT_LOOP_FILE: &str = "crates/net/src/host.rs";

/// The event-loop function bodies checked by `loop-blocking`.
pub const EVENT_LOOP_FNS: &[&str] = &["event_loop", "apply"];

/// Runs every enabled rule over `files` and applies per-file allow
/// annotations. `rule` restricts the run to one rule name (`None` =
/// all); `bad-allow` findings surface whenever their file is scanned.
///
/// `stale-allow` needs the *raw* findings of every other rule (an
/// annotation is stale when nothing it covers still trips), so every
/// rule is always computed and only the enabled ones emitted.
pub fn run(files: &[SourceFile], rule: Option<&str>) -> Vec<Finding> {
    let enabled = |name: &str| rule.is_none_or(|r| r == name);

    let mut raw = Vec::new();
    for f in files {
        if f.path == EVENT_LOOP_FILE {
            raw.extend(rules::blocking::check(f, EVENT_LOOP_FNS));
        }
        raw.extend(rules::unsafety::check(f));
        raw.extend(rules::drift::check(f));
    }
    let a = Analysis::build(files);
    raw.extend(rules::blocking_transitive::check(&a, EVENT_LOOP_FILE, EVENT_LOOP_FNS));

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
