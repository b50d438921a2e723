//! Fixture corpus: every rule must fire on its trip fixture and stay
//! silent on its pass fixture.

use ares_lint::rules::{drift, unsafety};
use ares_lint::scan::SourceFile;

fn fixture(name: &str) -> SourceFile {
    let path = format!("{}/tests/fixtures/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    SourceFile::new(format!("{name}.rs"), text)
}

#[test]
fn unsafe_safety_fires_on_trip() {
    let f = fixture("unsafe_safety_trip");
    let out = unsafety::check(&f);
    assert_eq!(out.len(), 2, "bare unsafe fn + bare unsafe block: {out:?}");
}

#[test]
fn unsafe_safety_silent_on_pass() {
    let f = fixture("unsafe_safety_pass");
    assert_eq!(unsafety::check(&f), vec![]);
}

#[test]
fn drift_fires_on_trip() {
    let f = fixture("drift_trip");
    let out = drift::check(&f);
    assert_eq!(out.len(), 3, "dbg! + todo! + unimplemented! must fire: {out:?}");
}

#[test]
fn drift_silent_on_pass() {
    let f = fixture("drift_pass");
    assert_eq!(drift::check(&f), vec![]);
}
