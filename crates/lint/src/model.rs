//! The workspace function inventory: every first-party `fn` with a
//! body, its impl/trait owner, and its body token range.
//!
//! This is the name-resolution substrate of the call graph, which
//! resolves `Type::name(...)` and `.name(...)` sites against it. Items
//! inside `#[cfg(test)]` regions and `macro_rules!` definitions are out
//! of scope (tests are not runtime code; macro bodies are token soup
//! that would mint phantom functions).

use crate::lexer::TokKind;
use crate::scan::SourceFile;
use std::ops::Range;

/// One function with a body, as the call graph sees it.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index of the defining file in the scanned file slice.
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// The self type of the enclosing `impl`/`trait` block, if any —
    /// `None` for free functions.
    pub owner: Option<String>,
    /// Token range of the body, inclusive of its braces.
    pub body: Range<usize>,
}

/// Collects every in-scope function of every file. Order is
/// deterministic: file order, then token order.
pub fn inventory(files: &[SourceFile]) -> Vec<FnInfo> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        collect_file(fi, file, &mut out);
    }
    out
}

/// Token ranges of `macro_rules! name { ... }` definitions.
fn macro_def_ranges(file: &SourceFile, code: &[usize]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        if file.toks[code[k]].is_ident("macro_rules") {
            // `macro_rules ! name {` — find the body brace and skip it.
            if let Some(open) =
                (k + 1..code.len().min(k + 5)).find(|&j| file.toks[code[j]].is_punct('{'))
            {
                if let Some(close) = matching_brace(file, code, open) {
                    out.push(code[k]..code[close] + 1);
                    k = close + 1;
                    continue;
                }
            }
        }
        k += 1;
    }
    out
}

/// Index (into `code`) of the `}` matching the `{` at `code[open]`.
pub fn matching_brace(file: &SourceFile, code: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, &ti) in code.iter().enumerate().skip(open) {
        if file.toks[ti].is_punct('{') {
            depth += 1;
        } else if file.toks[ti].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index (into `code`) of the `)` matching the `(` at `code[open]`.
pub fn matching_paren(file: &SourceFile, code: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, &ti) in code.iter().enumerate().skip(open) {
        if file.toks[ti].is_punct('(') {
            depth += 1;
        } else if file.toks[ti].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// The self type named by an `impl`/`trait` header starting at
/// `code[k]` (the `impl`/`trait` keyword): for `impl Trait for Type`
/// the last path segment of `Type`, for `impl Type` / `trait Name` the
/// last path segment before generics/braces.
fn header_owner(file: &SourceFile, code: &[usize], k: usize) -> (Option<String>, Option<usize>) {
    // Collect path idents; a `for` resets the collection (the self type
    // is on its right); stop at the body `{` or an item-ending `;`.
    let mut last: Option<String> = None;
    let mut open = None;
    let mut angle = 0i64;
    for (j, &ci) in code.iter().enumerate().skip(k + 1) {
        let t = &file.toks[ci];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('{') {
            open = Some(j);
            break;
        } else if t.is_punct(';') {
            break;
        } else if angle == 0 && t.is_ident("for") {
            last = None; // the self type follows
        } else if angle == 0 && t.is_ident("where") {
            // The self type is complete; keep scanning for the brace.
        } else if angle == 0 && t.kind == TokKind::Ident && !t.is_ident("dyn") {
            last = Some(t.text.clone());
        }
    }
    (last, open)
}

fn collect_file(fi: usize, file: &SourceFile, out: &mut Vec<FnInfo>) {
    let code = file.code_indices();
    let tests = file.cfg_test_ranges();
    let macros = macro_def_ranges(file, &code);
    let excluded = |ti: usize| tests.iter().chain(macros.iter()).any(|r| r.contains(&ti));

    // Owner regions: every `impl`/`trait` block with its self type.
    let mut owners: Vec<(Range<usize>, String)> = Vec::new();
    for k in 0..code.len() {
        let t = &file.toks[code[k]];
        if (t.is_ident("impl") || t.is_ident("trait")) && !excluded(code[k]) {
            let (owner, open) = header_owner(file, &code, k);
            if let (Some(owner), Some(open)) = (owner, open) {
                if let Some(close) = matching_brace(file, &code, open) {
                    owners.push((code[open]..code[close] + 1, owner));
                }
            }
        }
    }

    for k in 0..code.len().saturating_sub(1) {
        let t = &file.toks[code[k]];
        if !t.is_ident("fn") || excluded(code[k]) {
            continue;
        }
        let name_tok = &file.toks[code[k + 1]];
        if name_tok.kind != TokKind::Ident {
            continue; // `Fn(` trait sugar and friends
        }
        // The body opens at the first `{` outside parens/brackets; a
        // `;` first means a bodiless trait declaration.
        let mut depth = 0i64;
        let mut open = None;
        for (j, &ci) in code.iter().enumerate().skip(k + 2) {
            let t = &file.toks[ci];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct('{') {
                open = Some(j);
                break;
            } else if depth == 0 && t.is_punct(';') {
                break;
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = matching_brace(file, &code, open) else { continue };
        // Owner: the innermost impl/trait region containing the fn.
        let owner = owners
            .iter()
            .filter(|(r, _)| r.contains(&code[k]))
            .min_by_key(|(r, _)| r.end - r.start)
            .map(|(_, o)| o.clone());
        out.push(FnInfo {
            file: fi,
            name: name_tok.text.clone(),
            owner,
            body: code[open]..code[close] + 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub fn free_fn(x: u32) -> u32 { helper(x) }

fn helper(x: u32) -> u32 { x + 1 }

impl PeerPool {
    pub fn send(&self, m: Msg) { self.push(m); }
    fn push(&self, m: Msg) {}
}

impl WireEncode for Msg {
    fn encode(&self, out: &mut Vec<u8>) {}
}

trait Store {
    fn id(&self) -> u32;
    fn wait(self) -> u32 { 0 }
}

macro_rules! gen {
    () => { fn phantom() {} };
}

#[cfg(test)]
mod tests {
    fn test_only() {}
}
"#;

    fn inv() -> Vec<FnInfo> {
        inventory(&[SourceFile::new("a.rs", SRC)])
    }

    #[test]
    fn free_and_owned_fns_inventoried() {
        let fns = inv();
        let names: Vec<(&str, Option<&str>)> =
            fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect();
        assert!(names.contains(&("free_fn", None)));
        assert!(names.contains(&("send", Some("PeerPool"))));
        assert!(names.contains(&("push", Some("PeerPool"))));
        assert!(names.contains(&("encode", Some("Msg"))), "trait impl owner is the self type");
        assert!(names.contains(&("wait", Some("Store"))), "default trait methods count");
    }

    #[test]
    fn bodiless_test_and_macro_fns_excluded() {
        let fns = inv();
        assert!(!fns.iter().any(|f| f.name == "id"), "bodiless trait decl");
        assert!(!fns.iter().any(|f| f.name == "test_only"), "cfg(test) fn");
        assert!(!fns.iter().any(|f| f.name == "phantom"), "macro_rules body");
    }

    #[test]
    fn body_ranges_cover_the_braces() {
        let files = [SourceFile::new("a.rs", SRC)];
        let fns = inventory(&files);
        let send = fns.iter().find(|f| f.name == "send").unwrap();
        let f = &files[0];
        assert!(f.toks[send.body.start].is_punct('{'));
        assert!(f.toks[send.body.end - 1].is_punct('}'));
    }
}
