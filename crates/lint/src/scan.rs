//! Item and region scanning over a lexed token stream.
//!
//! The rules do not need full parsing — they need to locate a handful of
//! *regions* (a function's body, a `#[cfg(test)]` module) and then ask
//! lexical questions inside them ("does this loop call `sleep`?").
//! Everything below works on token indices into [`SourceFile::toks`] so
//! findings can report exact lines.

use crate::lexer::{lex, Tok, TokKind};
use std::ops::Range;

/// One source file as the linter sees it: path, raw text, tokens.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across OSes,
    /// and what findings print).
    pub path: String,
    /// The file's full text (mutation tests rewrite this).
    pub text: String,
    /// The lexed token stream of `text`.
    pub toks: Vec<Tok>,
}

impl SourceFile {
    /// Lexes `text` into a scannable file.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        let text = text.into();
        let toks = lex(&text);
        SourceFile { path: path.into(), text, toks }
    }

    /// Indices of non-comment tokens, in order — the "code view" most
    /// scans run over.
    pub fn code_indices(&self) -> Vec<usize> {
        (0..self.toks.len()).filter(|&i| self.toks[i].kind != TokKind::Comment).collect()
    }

    /// Token ranges of every `#[cfg(test)] mod ... { ... }` region (and
    /// any item a `#[cfg(test)]` attribute directly precedes), so rules
    /// can treat test code as out of scope.
    pub fn cfg_test_ranges(&self) -> Vec<Range<usize>> {
        let code = self.code_indices();
        let mut out = Vec::new();
        let mut k = 0usize;
        while k + 6 < code.len() {
            let at = |j: usize| &self.toks[code[k + j]];
            let is_cfg_test = at(0).is_punct('#')
                && at(1).is_punct('[')
                && at(2).is_ident("cfg")
                && at(3).is_punct('(')
                && at(4).is_ident("test")
                && at(5).is_punct(')')
                && at(6).is_punct(']');
            if is_cfg_test {
                // The attribute gates the next item: find its body brace
                // (the first `{` before an item-ending `;`).
                let mut j = k + 7;
                let mut open = None;
                while j < code.len() {
                    let t = &self.toks[code[j]];
                    if t.is_punct('{') {
                        open = Some(j);
                        break;
                    }
                    if t.is_punct(';') {
                        break; // e.g. `#[cfg(test)] use ...;`
                    }
                    j += 1;
                }
                if let Some(open) = open {
                    if let Some(close) = self.matching_brace(&code, open) {
                        out.push(code[k]..code[close] + 1);
                        k = close;
                        continue;
                    }
                }
            }
            k += 1;
        }
        out
    }

    /// Index (into `code`) of the `}` matching the `{` at `code[open]`.
    fn matching_brace(&self, code: &[usize], open: usize) -> Option<usize> {
        let mut depth = 0i64;
        for (j, &ti) in code.iter().enumerate().skip(open) {
            if self.toks[ti].is_punct('{') {
                depth += 1;
            } else if self.toks[ti].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }

    /// Token range (inclusive of braces) of the body of `fn name`.
    /// Finds the first function of that name outside `#[cfg(test)]`
    /// regions.
    pub fn fn_body(&self, name: &str) -> Option<Range<usize>> {
        let code = self.code_indices();
        let tests = self.cfg_test_ranges();
        let in_tests = |ti: usize| tests.iter().any(|r| r.contains(&ti));
        for k in 0..code.len().saturating_sub(1) {
            if self.toks[code[k]].is_ident("fn")
                && self.toks[code[k + 1]].is_ident(name)
                && !in_tests(code[k])
            {
                // First `{` after the name opens the body (none of the
                // scanned signatures carry braces before it).
                let open = (k + 2..code.len()).find(|&j| self.toks[code[j]].is_punct('{'))?;
                let close = self.matching_brace(&code, open)?;
                return Some(code[open]..code[close] + 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub fn route(msg: &Msg) -> usize {
    match msg {
        Msg::Dap(_) => 1,
        Msg::Con { .. } | Msg::Plain => 0,
    }
}

#[cfg(test)]
mod tests {
    fn helper() {
        let x = vec![1][0];
        x.unwrap();
    }
}
"#;

    #[test]
    fn fn_body_found() {
        let f = SourceFile::new("a.rs", SRC);
        let body = f.fn_body("route").unwrap();
        assert!(f.toks[body.start].is_punct('{') && f.toks[body.end - 1].is_punct('}'));
        assert!(f.toks[body.clone()].iter().any(|t| t.is_ident("Plain")));
        assert!(f.fn_body("absent").is_none());
    }

    #[test]
    fn cfg_test_region_covers_test_mod() {
        let f = SourceFile::new("a.rs", SRC);
        let ranges = f.cfg_test_ranges();
        assert_eq!(ranges.len(), 1);
        // The unwrap inside the test mod falls inside the range.
        let unwrap_idx =
            (0..f.toks.len()).find(|&i| f.toks[i].is_ident("unwrap")).expect("unwrap tok");
        assert!(ranges[0].contains(&unwrap_idx));
        // The route fn does not.
        let route_idx = (0..f.toks.len()).find(|&i| f.toks[i].is_ident("route")).unwrap();
        assert!(!ranges[0].contains(&route_idx));
    }

    #[test]
    fn fn_in_test_mod_is_not_found_as_production_fn() {
        let f = SourceFile::new("a.rs", SRC);
        assert!(f.fn_body("helper").is_none(), "test-mod fns are out of scope");
    }
}
