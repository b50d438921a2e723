//! Findings and the `// lint: allow(...)` annotation layer.
//!
//! A rule reports raw [`Finding`]s; the allow layer then suppresses any
//! finding whose line (or the line directly below the annotation) carries
//! an audited exception of the form:
//!
//! ```text
//! // lint: allow(net-panic, reason = "bounds checked two lines above")
//! ```
//!
//! Annotations are themselves linted: an unknown rule name or a missing /
//! empty reason is a `bad-allow` finding, so the escape hatch cannot rot
//! into a blanket mute.

use crate::lexer::TokKind;
use crate::scan::SourceFile;
use std::collections::HashMap;
use std::fmt;

/// The stable identifiers of the shipped rules.
pub const RULE_NAMES: &[&str] = &[
    "net-panic",
    "loop-blocking",
    "loop-blocking-transitive",
    "lock-order",
    "retry-backoff",
    "completion-once",
    "unsafe-safety",
    "drift",
    "bad-allow",
    "stale-allow",
];

/// Meta-rules that audit the annotation layer itself; they cannot be
/// `allow`ed (the escape hatch must not mute its own auditor).
pub const META_RULES: &[&str] = &["bad-allow", "stale-allow"];

/// One lint finding, printed as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token or region.
    pub line: u32,
    /// Human-oriented description of the violation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// One well-formed `lint: allow(rule, reason = "...")` annotation.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The suppressed rule's name.
    pub rule: String,
    /// The audited justification text.
    pub reason: String,
    /// 1-based line of the annotation comment.
    pub line: u32,
}

impl AllowEntry {
    /// Lines on which this annotation suppresses findings: its own line
    /// (trailing style) and the next (preceding-line style).
    pub fn covered_lines(&self) -> [u32; 2] {
        [self.line, self.line + 1]
    }
}

/// Parsed allow annotations for one file: rule name → lines on which
/// findings for that rule are suppressed.
#[derive(Debug, Default)]
pub struct Allows {
    by_rule: HashMap<String, Vec<u32>>,
    /// Every well-formed annotation, in line order — the substrate for
    /// `--allows` listings and the `stale-allow` audit.
    pub entries: Vec<AllowEntry>,
    /// Malformed annotations, reported as `bad-allow` findings.
    pub bad: Vec<Finding>,
}

impl Allows {
    /// Scans a file's comment tokens for `lint: allow(...)` annotations.
    pub fn collect(file: &SourceFile) -> Allows {
        let mut allows = Allows::default();
        for tok in file.toks.iter().filter(|t| t.kind == TokKind::Comment) {
            let body = tok.text.trim_start_matches('/').trim_start_matches('*').trim();
            let Some(rest) = body.strip_prefix("lint:") else { continue };
            let rest = rest.trim();
            let Some(rest) = rest.strip_prefix("allow") else {
                allows.bad.push(Finding {
                    rule: "bad-allow",
                    file: file.path.clone(),
                    line: tok.line,
                    msg: format!("unrecognized lint annotation `{body}` (expected `allow(...)`)"),
                });
                continue;
            };
            let inner = rest.trim().strip_prefix('(').and_then(|r| r.trim_end().strip_suffix(')'));
            let Some(inner) = inner else {
                allows.bad.push(Finding {
                    rule: "bad-allow",
                    file: file.path.clone(),
                    line: tok.line,
                    msg: "malformed allow annotation: expected `allow(<rule>, reason = \"...\")`"
                        .into(),
                });
                continue;
            };
            let (rule_part, reason_part) = match inner.split_once(',') {
                Some((r, rest)) => (r.trim(), Some(rest.trim())),
                None => (inner.trim(), None),
            };
            if !RULE_NAMES.contains(&rule_part) || META_RULES.contains(&rule_part) {
                allows.bad.push(Finding {
                    rule: "bad-allow",
                    file: file.path.clone(),
                    line: tok.line,
                    msg: format!("allow names unknown rule `{rule_part}`"),
                });
                continue;
            }
            let reason = reason_part
                .and_then(|r| r.strip_prefix("reason"))
                .map(|r| r.trim_start().trim_start_matches('='))
                .map(|r| r.trim().trim_matches('"').trim())
                .filter(|r| !r.is_empty())
                .map(str::to_string);
            let Some(reason) = reason else {
                allows.bad.push(Finding {
                    rule: "bad-allow",
                    file: file.path.clone(),
                    line: tok.line,
                    msg: format!(
                        "allow({rule_part}) needs a non-empty `reason = \"...\"` — audited \
                         exceptions must say why"
                    ),
                });
                continue;
            };
            // An annotation suppresses findings on its own line (trailing
            // comment style) and on the next line (preceding-line style).
            let entry = AllowEntry { rule: rule_part.to_string(), reason, line: tok.line };
            allows.by_rule.entry(rule_part.to_string()).or_default().extend(entry.covered_lines());
            allows.entries.push(entry);
        }
        allows
    }

    /// Whether findings for `rule` at `line` are suppressed.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.by_rule.get(rule).is_some_and(|lines| lines.contains(&line))
    }

    /// Applies suppression to raw findings and appends `bad-allow`
    /// findings for malformed annotations.
    pub fn filter(&self, raw: Vec<Finding>) -> Vec<Finding> {
        let mut out: Vec<Finding> =
            raw.into_iter().filter(|f| !self.covers(f.rule, f.line)).collect();
        out.extend(self.bad.iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("x.rs", src)
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let f = file("// lint: allow(net-panic, reason = \"len checked above\")\nfoo.unwrap();\n");
        let a = Allows::collect(&f);
        assert!(a.bad.is_empty());
        assert!(a.covers("net-panic", 1));
        assert!(a.covers("net-panic", 2));
        assert!(!a.covers("net-panic", 3));
        assert!(!a.covers("drift", 2));
    }

    #[test]
    fn missing_reason_is_bad_allow() {
        let f = file("// lint: allow(net-panic)\n");
        let a = Allows::collect(&f);
        assert_eq!(a.bad.len(), 1);
        assert!(!a.covers("net-panic", 2));
    }

    #[test]
    fn empty_reason_is_bad_allow() {
        let f = file("// lint: allow(drift, reason = \"\")\n");
        let a = Allows::collect(&f);
        assert_eq!(a.bad.len(), 1);
    }

    #[test]
    fn unknown_rule_is_bad_allow() {
        let f = file("// lint: allow(no-such-rule, reason = \"x\")\n");
        let a = Allows::collect(&f);
        assert_eq!(a.bad.len(), 1);
        assert!(a.bad[0].msg.contains("no-such-rule"));
    }

    #[test]
    fn filter_drops_covered_and_reports_bad() {
        let f = file(
            "foo.unwrap(); // lint: allow(net-panic, reason = \"infallible: set in new()\")\n\
             // lint: allow(net-panic)\n",
        );
        let a = Allows::collect(&f);
        let raw =
            vec![Finding { rule: "net-panic", file: "x.rs".into(), line: 1, msg: "unwrap".into() }];
        let out = a.filter(raw);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "bad-allow");
    }

    #[test]
    fn entries_record_rule_reason_and_extent() {
        let f = file("// lint: allow(net-panic, reason = \"len checked above\")\nfoo.unwrap();\n");
        let a = Allows::collect(&f);
        assert_eq!(a.entries.len(), 1);
        assert_eq!(a.entries[0].rule, "net-panic");
        assert_eq!(a.entries[0].reason, "len checked above");
        assert_eq!(a.entries[0].covered_lines(), [1, 2]);
    }

    #[test]
    fn meta_rules_cannot_be_allowed() {
        for rule in ["bad-allow", "stale-allow"] {
            let src = format!("// lint: allow({rule}, reason = \"nope\")\n");
            let a = Allows::collect(&file(&src));
            assert_eq!(a.bad.len(), 1, "{rule} must not be allowable");
            assert!(a.entries.is_empty());
        }
    }

    #[test]
    fn ordinary_comments_ignored() {
        let f = file("// just a note about allow lists\nlet x = 1;\n");
        let a = Allows::collect(&f);
        assert!(a.bad.is_empty());
        assert!(!a.covers("net-panic", 1));
    }
}
