//! Fixture corpus: every rule must fire on its trip fixture and stay
//! silent on its pass fixture (allow annotations included).

use ares_lint::callgraph::Analysis;
use ares_lint::findings::{Allows, Finding};
use ares_lint::rules::{
    blocking, blocking_transitive, completion_once, drift, lock_order, panic_path, retry_backoff,
    unsafety,
};
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
fn net_panic_fires_on_trip() {
    let f = fixture("net_panic_trip");
    let out = with_allows(&f, panic_path::check(&f));
    assert!(out.len() >= 5, "index + unwrap + expect + panic! + todo! must fire: {out:?}");
}

#[test]
fn net_panic_silent_on_pass() {
    let f = fixture("net_panic_pass");
    assert_eq!(with_allows(&f, panic_path::check(&f)), vec![]);
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

/// Runs an interprocedural rule over a single-file fixture, filtered
/// through the fixture's own allow annotations like `ares_lint::run`.
fn run_interprocedural(name: &str, rule: impl Fn(&Analysis<'_>) -> Vec<Finding>) -> Vec<Finding> {
    let files = vec![fixture(name)];
    let a = Analysis::build(&files);
    let raw = rule(&a);
    Allows::collect(&files[0]).filter(raw)
}

#[test]
fn loop_blocking_transitive_fires_on_trip() {
    let out = run_interprocedural("loop_blocking_transitive_trip", |a| {
        blocking_transitive::check(a, "loop_blocking_transitive_trip.rs", &["event_loop"])
    });
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("flush"), "{}", out[0].msg);
    assert!(out[0].msg.contains("event_loop → apply → send"), "{}", out[0].msg);
}

#[test]
fn loop_blocking_transitive_silent_on_pass() {
    let out = run_interprocedural("loop_blocking_transitive_pass", |a| {
        blocking_transitive::check(a, "loop_blocking_transitive_pass.rs", &["event_loop"])
    });
    assert_eq!(out, vec![], "allowed lock + spawned writer must stay silent: {out:?}");
}

#[test]
fn lock_order_fires_on_trip() {
    let out = run_interprocedural("lock_order_trip", lock_order::check);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("PeerPool::queues"), "{}", out[0].msg);
    assert!(out[0].msg.contains("PeerPool::state"), "{}", out[0].msg);
}

#[test]
fn lock_order_silent_on_pass() {
    let out = run_interprocedural("lock_order_pass", lock_order::check);
    assert_eq!(out, vec![], "consistent order / drop / extraction must stay silent: {out:?}");
}

#[test]
fn retry_backoff_fires_on_trip() {
    let out = run_interprocedural("retry_backoff_trip", retry_backoff::check);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("constant interval"), "{}", out[0].msg);
}

#[test]
fn retry_backoff_silent_on_pass() {
    let out = run_interprocedural("retry_backoff_pass", retry_backoff::check);
    assert_eq!(out, vec![], "grown delay / passthrough / disarm must stay silent: {out:?}");
}

#[test]
fn retry_backoff_fires_on_a_bare_rto() {
    let out = run_interprocedural("retry_backoff_rto_trip", retry_backoff::check);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("constant interval"), "{}", out[0].msg);
}

#[test]
fn retry_backoff_silent_on_a_grown_rto() {
    let out = run_interprocedural("retry_backoff_rto_pass", retry_backoff::check);
    assert_eq!(out, vec![], "{out:?}");
}

#[test]
fn completion_once_fires_on_trip() {
    let out = run_interprocedural("completion_once_trip", completion_once::check);
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out.iter().any(|f| f.msg.contains("unresolved")), "leak must fire: {out:?}");
    assert!(
        out.iter().any(|f| f.msg.contains("more than once")),
        "double resolve must fire: {out:?}"
    );
}

#[test]
fn completion_once_silent_on_pass() {
    let out = run_interprocedural("completion_once_pass", completion_once::check);
    assert_eq!(out, vec![], "remove + transfer + divergence must stay silent: {out:?}");
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
