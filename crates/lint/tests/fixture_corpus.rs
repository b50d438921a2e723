//! Fixture corpus: every rule must fire on its trip fixture and stay
//! silent on its pass fixture (allow annotations included).

use ares_lint::callgraph::Analysis;
use ares_lint::findings::{Allows, Finding};
use ares_lint::rules::{blocking, blocking_transitive, drift, unsafety};
use ares_lint::scan::SourceFile;

fn fixture(name: &str) -> SourceFile {
    let path = format!("{}/tests/fixtures/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    SourceFile::new(format!("{name}.rs"), text)
}

/// Raw rule findings filtered through the fixture's own allow
/// annotations — the same pipeline `ares_lint::run` applies.
fn with_allows(file: &SourceFile, raw: Vec<Finding>) -> Vec<Finding> {
    Allows::collect(file).filter(raw)
}

#[test]
fn loop_blocking_fires_on_trip() {
    let f = fixture("loop_blocking_trip");
    let out = with_allows(&f, blocking::check(&f, &["event_loop"]));
    assert!(out.len() >= 4, "write_all + flush + sleep + lock must fire: {out:?}");
    for found in &out {
        assert_eq!(found.rule, "loop-blocking");
    }
}

#[test]
fn loop_blocking_silent_on_pass() {
    let f = fixture("loop_blocking_pass");
    assert_eq!(with_allows(&f, blocking::check(&f, &["event_loop"])), vec![]);
}

#[test]
fn unsafe_safety_fires_on_trip() {
    let f = fixture("unsafe_safety_trip");
    let out = with_allows(&f, unsafety::check(&f));
    assert_eq!(out.len(), 2, "bare unsafe fn + bare unsafe block: {out:?}");
}

#[test]
fn unsafe_safety_silent_on_pass() {
    let f = fixture("unsafe_safety_pass");
    assert_eq!(with_allows(&f, unsafety::check(&f)), vec![]);
}

/// Runs `loop-blocking-transitive` over a single-file fixture rooted
/// at its `event_loop`, filtered through the fixture's own allow
/// annotations like `ares_lint::run`.
fn run_transitive(name: &str) -> Vec<Finding> {
    let files = vec![fixture(name)];
    let a = Analysis::build(&files);
    let raw = blocking_transitive::check(&a, &format!("{name}.rs"), &["event_loop"]);
    Allows::collect(&files[0]).filter(raw)
}

#[test]
fn loop_blocking_transitive_fires_on_trip() {
    let out = run_transitive("loop_blocking_transitive_trip");
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("flush"), "{}", out[0].msg);
    assert!(out[0].msg.contains("event_loop → apply → send"), "{}", out[0].msg);
}

#[test]
fn loop_blocking_transitive_silent_on_pass() {
    let out = run_transitive("loop_blocking_transitive_pass");
    assert_eq!(out, vec![], "allowed lock + spawned writer must stay silent: {out:?}");
}

#[test]
fn drift_fires_on_trip() {
    let f = fixture("drift_trip");
    let out = with_allows(&f, drift::check(&f));
    assert_eq!(out.len(), 3, "dbg! + todo! + unimplemented! must fire: {out:?}");
}

#[test]
fn drift_silent_on_pass() {
    let f = fixture("drift_pass");
    assert_eq!(with_allows(&f, drift::check(&f)), vec![]);
}
