//! Rule `drift`: no `todo!()` / `unimplemented!()` / `dbg!()` in
//! non-test production code.
//!
//! These are scaffolding tokens: each one is a promise somebody made to
//! the tree and forgot. The sweep keeps them from riding along to a
//! release (`dbg!` additionally writes to stderr from hot paths).

use crate::lexer::TokKind;
use crate::scan::SourceFile;
use crate::Finding;

/// Runs the rule over one file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let code = file.code_indices();
    let tests = file.cfg_test_ranges();
    let in_test = |ti: usize| tests.iter().any(|r| r.contains(&ti));
    let mut out = Vec::new();
    for (k, &ti) in code.iter().enumerate() {
        if in_test(ti) {
            continue;
        }
        let t = &file.toks[ti];
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "todo" | "unimplemented" | "dbg")
            && code.get(k + 1).is_some_and(|&n| file.toks[n].is_punct('!'))
        {
            out.push(Finding {
                rule: "drift",
                file: file.path.clone(),
                line: t.line,
                msg: format!("`{}!` left in production code — finish it or remove it", t.text),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaffolding_macros_flagged() {
        let f = SourceFile::new("d.rs", "fn f() { todo!() }\nfn g() { dbg!(x); }\n");
        assert_eq!(check(&f).len(), 2);
    }

    #[test]
    fn test_code_and_plain_idents_pass() {
        let f = SourceFile::new(
            "d.rs",
            "fn todo() {}\nfn f() { todo(); }\n#[cfg(test)]\nmod t { fn g() { dbg!(1); } }\n",
        );
        assert_eq!(check(&f), vec![]);
    }
}
