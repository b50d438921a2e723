//! A minimal hand-rolled JSON writer for machine-readable reports.
//!
//! An explicit scope stack handles comma placement, strings are
//! escaped per RFC 8259, and the output is deterministic (insertion
//! order, no floats). No serde in this
//! environment — the report surface is small enough that a writer is
//! less code than a vendored dependency.

use crate::findings::Finding;

/// Streaming JSON writer with automatic comma placement.
#[derive(Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open scope: whether a value was already emitted
    /// (so the next one needs a comma).
    scopes: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn comma(&mut self) {
        if let Some(has) = self.scopes.last_mut() {
            if *has {
                self.buf.push(',');
            }
            *has = true;
        }
    }

    /// Opens the top-level (or an array-element) object.
    pub fn begin_object(&mut self) {
        self.comma();
        self.buf.push('{');
        self.scopes.push(false);
    }

    /// Opens `"key": [`.
    pub fn begin_array_key(&mut self, key: &str) {
        self.comma();
        self.push_string(key);
        self.buf.push_str(":[");
        self.scopes.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.scopes.pop();
        self.buf.push('}');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.scopes.pop();
        self.buf.push(']');
    }

    /// Emits `"key": "value"`.
    pub fn string(&mut self, key: &str, value: &str) {
        self.comma();
        self.push_string(key);
        self.buf.push(':');
        self.push_string(value);
    }

    /// Emits `"key": value` for an unsigned integer.
    pub fn u64(&mut self, key: &str, value: u64) {
        self.comma();
        self.push_string(key);
        self.buf.push(':');
        self.buf.push_str(&value.to_string());
    }

    fn push_string(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Finishes the document with a trailing newline.
    pub fn finish(mut self) -> String {
        self.buf.push('\n');
        self.buf
    }
}

/// Renders a findings report: rule/file/line/message per finding, plus
/// counts, in the (file, line, rule) order `run` already sorted.
pub fn findings_report(findings: &[Finding], files_scanned: usize) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.u64("files_scanned", files_scanned as u64);
    w.u64("finding_count", findings.len() as u64);
    w.begin_array_key("findings");
    for f in findings {
        w.begin_object();
        w.string("rule", f.rule);
        w.string("file", &f.file);
        w.u64("line", f.line as u64);
        w.string("message", &f.msg);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_escaping() {
        let findings = vec![Finding {
            rule: "net-panic",
            file: "crates/net/src/codec.rs".into(),
            line: 7,
            msg: "says \"boom\"\n".into(),
        }];
        let out = findings_report(&findings, 3);
        assert_eq!(
            out,
            "{\"files_scanned\":3,\"finding_count\":1,\"findings\":[{\"rule\":\"net-panic\",\
             \"file\":\"crates/net/src/codec.rs\",\"line\":7,\
             \"message\":\"says \\\"boom\\\"\\n\"}]}\n"
        );
    }

    #[test]
    fn empty_report_is_valid() {
        assert_eq!(
            findings_report(&[], 0),
            "{\"files_scanned\":0,\"finding_count\":0,\"findings\":[]}\n"
        );
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("k", "a\u{1}b");
        w.end_object();
        assert_eq!(w.finish(), "{\"k\":\"a\\u0001b\"}\n");
    }
}
