//! `ares-lint` — token-scan twins of two clippy lints, run inside
//! `cargo test`.
//!
//! | rule            | invariant                                             |
//! |-----------------|-------------------------------------------------------|
//! | `unsafe-safety` | every `unsafe` region carries a safety argument       |
//! | `drift`         | no `todo!`/`unimplemented!`/`dbg!` in production code |
//!
//! Both repeat clippy lints the workspace already denies
//! (`undocumented_unsafe_blocks`, `missing_safety_doc`, `todo`,
//! `unimplemented`, `dbg_macro`). They stay because they cost a token
//! scan each over a hand-rolled lexer (the workspace takes no
//! crates.io dependencies, so no syn) and keep both checks inside
//! `cargo test`,
//! which does not run clippy: `real_workspace_is_clean` runs them over
//! the tree. Every other invariant this crate once policed is held by
//! the compiler, clippy, types or a debug assertion (DESIGN.md §10);
//! "a shard event loop never blocks" is `ares_net::sync`'s debug guard.

pub mod lexer;
pub mod rules;
pub mod scan;
pub mod workspace;

use scan::SourceFile;
use std::fmt;

/// One lint finding, printed as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (`unsafe-safety` or `drift`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token or region.
    pub line: u32,
    /// Human-oriented description of the violation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Runs both rules over `files`, sorted by file, line and rule.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut out: Vec<Finding> = files
        .iter()
        .flat_map(|f| rules::unsafety::check(f).into_iter().chain(rules::drift::check(f)))
        .collect();
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}
