//! The lint against the real tree, plus a mutation test: textually break
//! a real invariant site and assert the lint catches it. Lexical
//! analysis needs no compilation, so a mutated tree never has to build.
//!
//! Running the clean check inside `cargo test` keeps lint cleanliness
//! in tier-1 (CI has no separate lint job).

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
