//! Both rules against the real tree. Running the clean check inside
//! `cargo test` keeps the two checks in tier-1, which does not run
//! clippy.

use ares_lint::workspace::collect_files;
use std::path::PathBuf;

#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let files = collect_files(&root).expect("scan workspace");
    let findings = ares_lint::run(&files);
    assert!(
        findings.is_empty(),
        "the tree must lint clean:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
