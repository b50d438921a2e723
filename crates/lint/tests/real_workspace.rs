//! The lint against the real tree, plus mutation tests: textually break
//! a real invariant site and assert the lint catches it. Lexical
//! analysis needs no compilation, so a mutated tree never has to build.
//!
//! Running the clean check inside `cargo test` also wires lint
//! cleanliness into tier-1 directly, independent of the CI job.

use ares_lint::scan::SourceFile;
use ares_lint::workspace::collect_files;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

fn load() -> Vec<SourceFile> {
    collect_files(&root()).expect("scan workspace")
}

/// Replaces `from` with `to` in the named file's text, panicking if the
/// pattern is absent (a silently missing pattern would turn the
/// mutation test into a no-op).
fn mutate(files: &mut [SourceFile], path: &str, from: &str, to: &str) {
    let f = files
        .iter_mut()
        .find(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} not in scanned set"));
    assert!(f.text.contains(from), "mutation pattern {from:?} not found in {path}");
    *f = SourceFile::new(path, f.text.replace(from, to));
}

#[test]
fn real_workspace_is_clean() {
    let files = load();
    let findings = ares_lint::run(&files, None);
    assert!(
        findings.is_empty(),
        "the tree must lint clean; run `cargo run -p ares-lint -- --workspace`:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

fn rule_findings(files: &[SourceFile], rule: &str) -> Vec<String> {
    ares_lint::run(files, Some(rule)).into_iter().map(|f| f.to_string()).collect()
}

#[test]
fn sleeping_in_the_send_path_fires_transitively() {
    let mut files = load();
    // A sleep inside `PeerPool::send` stalls the shard thread that
    // called it — two hops below the event loop, invisible to the
    // direct `loop-blocking` rule.
    mutate(
        &mut files,
        "crates/net/src/host.rs",
        "pub(crate) fn send(&self, to: ProcessId, frame: Bytes) {",
        "pub(crate) fn send(&self, to: ProcessId, frame: Bytes) {\n        \
         std::thread::sleep(core::time::Duration::from_millis(1));",
    );
    let out = rule_findings(&files, "loop-blocking-transitive");
    assert!(
        out.iter().any(|m| m.contains("sleep") && m.contains("send")),
        "transitive sleep must fire with its chain: {out:?}"
    );
}

#[test]
fn inverted_lock_pair_fires_as_a_cycle() {
    let mut files = load();
    // Two real-impl methods taking the same pair of Timers mutexes in
    // opposite orders, one side through a self method call.
    mutate(
        &mut files,
        "crates/net/src/host.rs",
        "impl Timers {",
        "impl Timers {\n    \
         fn audit_alpha(&self) {\n        \
         let a = crate::sync::lock(&self.alpha);\n        \
         let b = crate::sync::lock(&self.beta);\n        \
         a.merge(&b);\n    }\n    \
         fn audit_beta(&self) {\n        \
         let b = crate::sync::lock(&self.beta);\n        \
         self.audit_alpha();\n    }\n",
    );
    let out = rule_findings(&files, "lock-order");
    assert!(
        out.iter().any(|m| {
            m.contains("cycle") && m.contains("Timers::alpha") && m.contains("Timers::beta")
        }),
        "opposite-order pair must fire: {out:?}"
    );
}

#[test]
fn flattened_backoff_fires() {
    let mut files = load();
    // Strip the exponential growth from the transfer retry re-arm: the
    // PR 5 congestion-collapse shape.
    mutate(
        &mut files,
        "crates/core/src/frames.rs",
        "step.timer = Some((env.backoff_unit * 8) << self.attempts.min(6));",
        "step.timer = Some(env.backoff_unit * 8);",
    );
    let out = rule_findings(&files, "retry-backoff");
    assert!(
        out.iter().any(|m| m.contains("constant interval") && m.contains("frames.rs")),
        "flattened re-arm must fire: {out:?}"
    );
}

#[test]
fn flattened_rto_fires() {
    let mut files = load();
    // The read-next-config / put-config re-arms grow from the measured
    // RTO, which is neither a literal nor a `backoff_unit`: stripped of
    // its shift, `Some(env.rto)` must still read as a constructed
    // interval.
    mutate(
        &mut files,
        "crates/core/src/frames.rs",
        "step.timer = Some(env.rto << self.retries.min(6));",
        "step.timer = Some(env.rto);",
    );
    let out = rule_findings(&files, "retry-backoff");
    assert!(
        out.iter().any(|m| m.contains("constant interval") && m.contains("frames.rs")),
        "flattened RTO re-arm must fire: {out:?}"
    );
}

#[test]
fn dropping_the_submit_error_path_remove_fires() {
    let mut files = load();
    // Without the remove, the closed-runtime path exits with the cell
    // still registered in the router — the PR 4 class of parked waiter.
    mutate(
        &mut files,
        "crates/net/src/runtime.rs",
        "crate::sync::lock(&self.inner.shared.router).remove(&op);",
        "",
    );
    let out = rule_findings(&files, "completion-once");
    assert!(
        out.iter().any(|m| m.contains("unresolved") && m.contains("runtime.rs")),
        "leaked registration must fire: {out:?}"
    );
}
