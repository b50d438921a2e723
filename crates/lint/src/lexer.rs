//! A hand-rolled Rust lexer: the token stream every analysis runs over.
//!
//! The lexer is *total* — any byte sequence produces a token stream, so
//! the linter can scan fixture files that deliberately do not compile.
//! It exists to solve the one problem a regex grep cannot: knowing
//! whether `todo!` appeared as **code** or inside a string literal,
//! comment, or doc example. Comments are kept as tokens (with their
//! line numbers) because the `// SAFETY:` arguments `unsafe-safety`
//! looks for live in comments.
//!
//! Covered Rust surface: line comments, nested block comments, doc
//! comments, string / raw-string / byte-string / char literals (with
//! escapes), lifetimes vs char literals, numeric literals, identifiers
//! (including raw `r#ident`), and single-character punctuation.
//! Multi-character operators are emitted as single-character `Punct`
//! tokens (`::` is `:` `:`); the scanner matches sequences, which keeps
//! the lexer trivially correct.

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `Msg`, `unwrap`, `r#type`, ...).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal (integer or float, any base/suffix).
    Num,
    /// String, raw-string, byte-string, or char literal (quotes kept).
    Str,
    /// A single punctuation character (`.`, `{`, `!`, ...).
    Punct,
    /// Line or block comment, doc or plain (delimiters kept).
    Comment,
}

/// One token: kind, verbatim text, the 1-based line it starts on, and
/// the byte offset of its first character in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// The lexeme class.
    pub kind: TokKind,
    /// The token's text, exactly as it appears in the source.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
    /// Byte offset of the token's first character: `src[off..off +
    /// text.len()] == text` always holds (the round-trip property the
    /// scanner hardening suite checks).
    pub off: usize,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Lexes `src` into a token stream. Never fails: bytes that fit no rule
/// become single-character `Punct` tokens.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1, byte: 0, start: 0, out: Vec::new() }
        .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Byte offset of the cursor (chars advance it by their UTF-8 len).
    byte: usize,
    /// Byte offset where the token under construction began.
    start: usize,
    out: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, tracking line numbers and byte offsets.
    fn bump(&mut self, buf: &mut String) {
        if let Some(c) = self.peek(0) {
            if c == '\n' {
                self.line += 1;
            }
            buf.push(c);
            self.pos += 1;
            self.byte += c.len_utf8();
        }
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        let off = self.start;
        self.out.push(Tok { kind, text, line, off });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            self.start = self.byte;
            match c {
                c if c.is_whitespace() => {
                    let mut sink = String::new();
                    self.bump(&mut sink);
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line, '"'),
                'r' | 'b' if self.raw_or_byte_prefix() => self.prefixed_literal(line),
                '\'' => self.char_or_lifetime(line),
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => {
                    let mut text = String::new();
                    self.bump(&mut text);
                    self.push(TokKind::Punct, text, line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump(&mut text);
        }
        self.push(TokKind::Comment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        self.bump(&mut text); // '/'
        self.bump(&mut text); // '*'
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump(&mut text);
                    self.bump(&mut text);
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump(&mut text);
                    self.bump(&mut text);
                }
                (Some(_), _) => self.bump(&mut text),
                (None, _) => break, // unterminated: tolerate
            }
        }
        self.push(TokKind::Comment, text, line);
    }

    /// A `"`-delimited string with `\` escapes.
    fn string(&mut self, line: u32, quote: char) {
        let mut text = String::new();
        self.bump(&mut text); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                self.bump(&mut text);
                self.bump(&mut text);
                continue;
            }
            self.bump(&mut text);
            if c == quote {
                break;
            }
        }
        self.push(TokKind::Str, text, line);
    }

    /// Whether the cursor sits on a raw/byte string or raw identifier
    /// prefix (`r"`, `r#"`, `br"`, `b"`, `b'`, `br#"`, `r#ident`).
    fn raw_or_byte_prefix(&self) -> bool {
        let (c0, c1, c2) = (self.peek(0), self.peek(1), self.peek(2));
        match c0 {
            Some('r') => matches!(c1, Some('"') | Some('#')),
            Some('b') => match c1 {
                Some('"') | Some('\'') => true,
                Some('r') => matches!(c2, Some('"') | Some('#')),
                _ => false,
            },
            _ => false,
        }
    }

    /// Lexes `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `b'x'`, or a
    /// raw identifier `r#ident`.
    fn prefixed_literal(&mut self, line: u32) {
        let mut text = String::new();
        if self.peek(0) == Some('b') {
            self.bump(&mut text);
        }
        if self.peek(0) == Some('r') {
            self.bump(&mut text);
            // Count `#`s of the raw delimiter.
            let mut hashes = 0usize;
            while self.peek(hashes) == Some('#') {
                hashes += 1;
            }
            if self.peek(hashes) == Some('"') {
                for _ in 0..hashes {
                    self.bump(&mut text);
                }
                self.bump(&mut text); // opening quote
                loop {
                    match self.peek(0) {
                        None => break,
                        Some('"') => {
                            // Closing quote iff followed by `hashes` #s.
                            let closes = (0..hashes).all(|i| self.peek(1 + i) == Some('#'));
                            self.bump(&mut text);
                            if closes {
                                for _ in 0..hashes {
                                    self.bump(&mut text);
                                }
                                break;
                            }
                        }
                        Some(_) => self.bump(&mut text),
                    }
                }
                self.push(TokKind::Str, text, line);
            } else {
                // `r#ident` raw identifier (or a stray `r#`).
                while self.peek(0) == Some('#') {
                    self.bump(&mut text);
                }
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        self.bump(&mut text);
                    } else {
                        break;
                    }
                }
                self.push(TokKind::Ident, text, line);
            }
        } else {
            // `b"..."` or `b'x'`.
            match self.peek(0) {
                Some('"') => {
                    let mut s = text;
                    self.string_into(&mut s, '"');
                    self.push(TokKind::Str, s, line);
                }
                Some('\'') => {
                    let mut s = text;
                    self.string_into(&mut s, '\'');
                    self.push(TokKind::Str, s, line);
                }
                _ => self.push(TokKind::Ident, text, line),
            }
        }
    }

    fn string_into(&mut self, text: &mut String, quote: char) {
        self.bump(text); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                self.bump(text);
                self.bump(text);
                continue;
            }
            self.bump(text);
            if c == quote {
                break;
            }
        }
    }

    /// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal):
    /// after the quote, an identifier char NOT followed by a closing
    /// quote is a lifetime.
    fn char_or_lifetime(&mut self, line: u32) {
        let c1 = self.peek(1);
        let is_lifetime = match c1 {
            Some(c) if c.is_alphabetic() || c == '_' => self.peek(2) != Some('\''),
            _ => false,
        };
        let mut text = String::new();
        if is_lifetime {
            self.bump(&mut text); // '
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    self.bump(&mut text);
                } else {
                    break;
                }
            }
            self.push(TokKind::Lifetime, text, line);
        } else {
            self.string_into(&mut text, '\'');
            self.push(TokKind::Str, text, line);
        }
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                self.bump(&mut text);
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    /// Numeric literal: digits, underscores, base/exponent letters, and
    /// a fractional part — but `0..n` must not swallow the range dots.
    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let fractional_dot = c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit());
            if c.is_alphanumeric() || c == '_' || fractional_dot {
                self.bump(&mut text);
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_hide_code_tokens() {
        let toks = lex(r#"let x = "a.unwrap() { } // not a comment";"#);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        // Braces inside the string must not appear as puncts.
        assert!(!toks.iter().any(|t| t.is_punct('{')));
    }

    #[test]
    fn comments_are_tokens_with_lines() {
        let toks = lex("// SAFETY: fine\nunsafe { }\n");
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert!(toks[0].text.contains("SAFETY:"));
        assert_eq!(toks[0].line, 1);
        assert!(toks[1].is_ident("unsafe"));
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let toks = lex("/* a /* b */ c */ fn f() {}");
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert!(toks.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = lex(r###"let s = r#"quote " inside"#; let t = r"plain";"###);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert!(!toks.iter().any(|t| t.is_ident("inside")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn ranges_do_not_merge_into_floats() {
        let toks = lex("for i in 0..n { a[i] }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Num && t.text == "0"));
        assert!(toks.iter().any(|t| t.is_ident("n")));
        assert_eq!(kinds("1.5 + 2")[0].1, "1.5");
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let toks = lex(r#"let b = b"bytes"; let k = r#type; let c = b'x';"#);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert!(toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "r#type"));
    }

    #[test]
    fn total_on_arbitrary_bytes() {
        // Never panics, always returns. Unterminated constructs included.
        for src in ["\"unterminated", "/* open", "r#\"open", "'", "§§§", ""] {
            let _ = lex(src);
        }
    }

    #[test]
    fn offsets_round_trip_including_multibyte() {
        let src = "let s = \"héllo\"; // commént §\nfn f() { s.len() }\n";
        for t in lex(src) {
            assert_eq!(&src[t.off..t.off + t.text.len()], t.text, "offset desync at {t:?}");
        }
    }

    #[test]
    fn doc_comments_with_brackets_do_not_confuse_braces() {
        let toks = lex("/// doc { [ (\nfn f() { g[0] }\n");
        let opens = toks.iter().filter(|t| t.is_punct('{')).count();
        let closes = toks.iter().filter(|t| t.is_punct('}')).count();
        assert_eq!(opens, closes);
    }
}
