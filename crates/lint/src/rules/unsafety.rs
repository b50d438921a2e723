//! Rule `unsafe-safety`: every `unsafe` region must carry an adjacent
//! safety argument.
//!
//! - `unsafe { ... }` blocks need a `// SAFETY: ...` comment within the
//!   three lines above (or on the same line).
//! - `unsafe fn` / `unsafe impl` declarations need a `// SAFETY:`
//!   comment or a `# Safety` doc section within the ten lines above
//!   (doc sections sit above the attributes and signature).
//!
//! Enforced, not suggested: an unargued unsafe region is a finding.

use crate::scan::SourceFile;
use crate::Finding;

/// Lines of lookback for `unsafe { ... }` blocks.
const BLOCK_WINDOW: u32 = 3;
/// Lines of lookback for `unsafe fn` / `unsafe impl` declarations.
const DECL_WINDOW: u32 = 10;

/// Runs the rule over one file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let code = file.code_indices();
    let mut out = Vec::new();
    for (k, &ti) in code.iter().enumerate() {
        let t = &file.toks[ti];
        if !t.is_ident("unsafe") {
            continue;
        }
        let Some(&ni) = code.get(k + 1) else { continue };
        let next = &file.toks[ni];
        let (window, kind) = if next.is_punct('{') {
            (BLOCK_WINDOW, "unsafe block")
        } else if next.is_ident("fn") || next.is_ident("impl") || next.is_ident("trait") {
            (DECL_WINDOW, "unsafe declaration")
        } else {
            continue; // e.g. `unsafe extern` fn-pointer types — out of scope
        };
        if !has_safety_comment(file, t.line, window) {
            out.push(Finding {
                rule: "unsafe-safety",
                file: file.path.clone(),
                line: t.line,
                msg: format!(
                    "{kind} without an adjacent safety argument — add `// SAFETY: ...` \
                     (or a `# Safety` doc section for declarations) stating why the \
                     contract holds"
                ),
            });
        }
    }
    out
}

/// A comment containing `SAFETY:` or `# Safety` within `window` lines
/// above `line` (inclusive of `line` itself, for trailing comments).
fn has_safety_comment(file: &SourceFile, line: u32, window: u32) -> bool {
    let lo = line.saturating_sub(window);
    file.toks.iter().any(|t| {
        t.kind == crate::lexer::TokKind::Comment
            && t.line >= lo
            && t.line <= line
            && (t.text.contains("SAFETY:") || t.text.contains("# Safety"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::new("u.rs", src))
    }

    #[test]
    fn commented_block_passes() {
        let out = run("fn f() {\n    // SAFETY: ptr is non-null, checked above.\n    unsafe { \
                       deref(p) }\n}\n");
        assert_eq!(out, vec![]);
    }

    #[test]
    fn uncommented_block_fires() {
        let out = run("fn f() {\n    unsafe { deref(p) }\n}\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("unsafe block"));
    }

    #[test]
    fn far_away_comment_does_not_cover() {
        let out = run("// SAFETY: stale note\n\n\n\n\nfn f() { unsafe { deref(p) } }\n");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unsafe_fn_with_safety_doc_passes() {
        let out = run("/// Does the thing.\n///\n/// # Safety\n///\n/// Caller must check \
                       cpuid first.\npub unsafe fn kernel() {}\n");
        assert_eq!(out, vec![]);
    }

    #[test]
    fn unsafe_fn_without_doc_fires() {
        let out = run("pub unsafe fn kernel() {}\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("unsafe declaration"));
    }

    #[test]
    fn unsafe_impl_checked() {
        assert_eq!(run("unsafe impl Send for X {}\n").len(), 1);
        assert_eq!(
            run("// SAFETY: X owns no thread-affine state.\nunsafe impl Send for X {}\n"),
            vec![]
        );
    }
}
