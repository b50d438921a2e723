//! Fuzz-style hardening of the lexer/scanner substrate.
//!
//! Both rules sit on the same foundation: a total lexer, brace
//! matching and the `#[cfg(test)]` region scan. A panic anywhere in
//! that substrate turns the lint into a CI outage on the next oddly
//! shaped source file, so these properties drive arbitrary byte
//! strings (and rust-ish fragment soup biased toward the lexer's
//! tricky states: raw strings, lifetimes vs char literals, unterminated
//! comments) through the full pipeline and assert:
//!
//! - lexing never panics and token offsets round-trip (`src[off..off+
//!   len] == text`), non-overlapping and in order, lines nondecreasing;
//! - brace matching never panics, and a reported match really is the
//!   corresponding closer;
//! - the entire rule driver (`ares_lint::run`) is total on the input.

use ares_lint::lexer::lex;
use ares_lint::scan::SourceFile;
use proptest::prelude::*;

/// Fragments biased toward lexer state transitions: string/raw-string
/// delimiters, char vs lifetime quotes, comment openers without
/// closers, glued punctuation, multi-byte characters.
const FRAGMENTS: &[&str] = &[
    "fn ", "impl ", "mod ", "let ", "match ", "lock", "spawn", "ident", "r#type", "{", "}", "(",
    ")", "[", "]", "\"", "\\\"", "r#\"", "\"#", "b\"", "'", "'a", "'x'", "b'x'", "//", "/*", "*/",
    "///", "//!", "0x1f", "1e9", "0", "42u64", "_", "::", "=>", "<<", "<", ".", ",", ";", "&", "?",
    "#", "\n", " ", "\t", "é", "🦀",
];

fn assemble(picks: &[usize]) -> String {
    picks.iter().map(|&i| FRAGMENTS[i % FRAGMENTS.len()]).collect()
}

/// Lexing totality plus the offset round-trip invariants.
fn check_stream(src: &str) {
    let toks = lex(src);
    let mut prev_end = 0usize;
    let mut prev_line = 1u32;
    for t in &toks {
        assert_eq!(
            src.as_bytes().get(t.off..t.off + t.text.len()),
            Some(t.text.as_bytes()),
            "token {t:?} does not round-trip against {src:?}"
        );
        assert!(t.off >= prev_end, "token {t:?} overlaps its predecessor in {src:?}");
        assert!(t.line >= prev_line, "token {t:?} goes backwards in lines in {src:?}");
        prev_end = t.off + t.text.len();
        prev_line = t.line;
    }
}

/// Brace matching totality: no panic, and a reported match is a real
/// closer at or after the opener.
fn check_matching(src: &str) {
    let f = SourceFile::new("fuzz.rs", src.to_string());
    let code = f.code_indices();
    for w in 0..code.len() {
        if f.toks[code[w]].is_punct('{') {
            if let Some(c) = ares_lint::scan::matching_brace(&f, &code, w) {
                assert!(c >= w && f.toks[code[c]].is_punct('}'), "bad brace match in {src:?}");
            }
        }
    }
}

/// The whole rule driver is total.
fn check_pipeline(src: &str) {
    let files = vec![SourceFile::new("fuzz.rs", src.to_string())];
    let _ = ares_lint::run(&files);
}

proptest! {
    #[test]
    fn substrate_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        check_stream(&src);
        check_matching(&src);
        check_pipeline(&src);
    }

    #[test]
    fn substrate_is_total_on_rustish_fragment_soup(picks in proptest::collection::vec(any::<usize>(), 0..64)) {
        let src = assemble(&picks);
        check_stream(&src);
        check_matching(&src);
        check_pipeline(&src);
    }
}
