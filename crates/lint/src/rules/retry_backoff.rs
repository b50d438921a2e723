//! Rule `retry-backoff`: a timer re-armed on the retry path must grow.
//!
//! PR 5's congestion collapse came from exactly this shape: a
//! retransmit handler re-armed a constant-interval timer, so every
//! stalled operation re-amplified its broadcast at a fixed rate and the
//! overloaded quorum never drained. The fix — `backoff_unit << attempts`
//! — is a one-expression change that nothing structural protects.
//!
//! The rule walks the call graph from every `on_timer` handler (the
//! retry path by construction: anything armed there fires again) and
//! inspects each timer-arming site in the reachable set:
//! `.with_timer(expr)` calls and `timer = expr` / `timer_after = expr`
//! assignments. The armed expression — widened one level through `let`
//! definitions in the same function — must show *growth* (a `<<` shift
//! or a pow/shl method) if it *constructs* an interval (mentions a
//! backoff/interval base or a numeric literal). Pure pass-throughs
//! (`out.timer_after = timer;`, token bookkeeping) construct nothing
//! and are skipped: the producer they forward from is the site that
//! gets judged.

use crate::ast::glued;
use crate::callgraph::Analysis;
use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::model;
use crate::scan::SourceFile;
use std::collections::HashMap;

/// Methods whose presence makes an interval expression grow.
const GROWTH_CALLS: &[&str] =
    &["pow", "saturating_pow", "checked_shl", "overflowing_shl", "wrapping_shl", "saturating_shl"];

/// Identifiers that mark an expression as constructing a retry
/// interval (rather than forwarding one).
const INTERVAL_BASES: &[&str] =
    &["backoff_unit", "retry_interval", "retry_delay", "backoff", "interval", "rto"];

/// Runs the rule: every fn named `on_timer` is a root; the reachable
/// set (roots included) is the retry path.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let roots: Vec<usize> = (0..a.fns.len()).filter(|&i| a.fns[i].name == "on_timer").collect();
    let (reach, parent) = a.reachable(&roots);
    let mut reach: Vec<usize> = reach.into_iter().collect();
    reach.sort_unstable();

    let mut out = Vec::new();
    for f in reach {
        let file = &a.files[a.fns[f].file];
        let idx = &a.body_idx[f];
        let defs = let_defs(file, idx);
        for w in 0..idx.len().saturating_sub(1) {
            let t = &file.toks[idx[w]];
            let expr: Vec<usize> =
                if t.is_ident("with_timer") && file.toks[idx[w + 1]].is_punct('(') {
                    let Some(close) = model::matching_paren(file, idx, w + 1) else { continue };
                    idx[w + 2..close].to_vec()
                } else if (t.is_ident("timer") || t.is_ident("timer_after"))
                    && idx.get(w + 1).is_some_and(|&n| file.toks[n].is_punct('='))
                    && lone_eq(file, idx, w + 1)
                {
                    rhs_to_semi(file, idx, w + 2)
                } else {
                    continue;
                };
            if expr.len() == 1 && file.toks[expr[0]].is_ident("None") {
                continue; // disarming, not arming
            }
            // Widen one level through same-function `let` definitions.
            let mut toks = expr.clone();
            for &ti in &expr {
                let t = &file.toks[ti];
                if t.kind == TokKind::Ident {
                    if let Some(def) = defs.get(t.text.as_str()) {
                        toks.extend_from_slice(def);
                    }
                }
            }
            if grows(file, &toks) || !constructs(file, &toks) {
                continue;
            }
            let chain = a.chain(&parent, f).join(" → ");
            out.push(Finding {
                rule: "retry-backoff",
                file: file.path.clone(),
                line: t.line,
                msg: format!(
                    "timer re-armed with a constant interval on the retry path (`{chain}`) — \
                     fixed-rate retries re-amplify under load until the quorum never drains; \
                     grow the delay (e.g. `unit << attempts.min(cap)`)"
                ),
            });
        }
    }
    out
}

/// `name → rhs token indices` for every `let [mut] name = ...;` in the
/// body (last definition wins; one level, no recursion).
fn let_defs(file: &SourceFile, idx: &[usize]) -> HashMap<String, Vec<usize>> {
    let mut defs: HashMap<String, Vec<usize>> = HashMap::new();
    for w in 0..idx.len().saturating_sub(2) {
        if !file.toks[idx[w]].is_ident("let") {
            continue;
        }
        let mut j = w + 1;
        if file.toks[idx[j]].is_ident("mut") {
            j += 1;
        }
        let name = &file.toks[idx[j]];
        if name.kind != TokKind::Ident
            || !idx.get(j + 1).is_some_and(|&n| file.toks[n].is_punct('='))
            || !lone_eq(file, idx, j + 1)
        {
            continue; // destructuring or let-else patterns: skip
        }
        defs.insert(name.text.clone(), rhs_to_semi(file, idx, j + 2));
    }
    defs
}

/// Tokens from `idx[from]` to the `;` ending the statement (exclusive),
/// at bracket depth 0.
fn rhs_to_semi(file: &SourceFile, idx: &[usize], from: usize) -> Vec<usize> {
    let mut depth = 0i64;
    let mut out = Vec::new();
    for &ti in idx.iter().skip(from) {
        let t = &file.toks[ti];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                break; // statement ended by the enclosing block
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            break;
        }
        out.push(ti);
    }
    out
}

/// Whether the `=` at `idx[w]` is a lone assignment `=` (not `==`,
/// `!=`, `<=`, `>=`, `=>`, `+=`, ...).
fn lone_eq(file: &SourceFile, idx: &[usize], w: usize) -> bool {
    let cur = &file.toks[idx[w]];
    if let Some(&n) = idx.get(w + 1) {
        let next = &file.toks[n];
        if (next.is_punct('=') || next.is_punct('>')) && glued(cur, next) {
            return false;
        }
    }
    if w > 0 {
        let prev = &file.toks[idx[w - 1]];
        if prev.kind == TokKind::Punct && prev.text.len() == 1 && glued(prev, cur) {
            let c = prev.text.as_bytes()[0];
            if matches!(
                c,
                b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'|' | b'&' | b'^'
            ) {
                return false;
            }
        }
    }
    true
}

/// Whether the token set shows exponential growth: a `<<` shift or a
/// growth method call.
fn grows(file: &SourceFile, toks: &[usize]) -> bool {
    for w in 0..toks.len() {
        let t = &file.toks[toks[w]];
        if t.kind == TokKind::Ident && GROWTH_CALLS.contains(&t.text.as_str()) {
            return true;
        }
        if w + 1 < toks.len() {
            let n = &file.toks[toks[w + 1]];
            if t.is_punct('<') && n.is_punct('<') && glued(t, n) {
                return true;
            }
        }
    }
    false
}

/// Whether the token set *constructs* an interval — mentions a backoff
/// base or a numeric literal — as opposed to forwarding an opaque
/// value.
fn constructs(file: &SourceFile, toks: &[usize]) -> bool {
    toks.iter().any(|&ti| {
        let t = &file.toks[ti];
        t.kind == TokKind::Num
            || (t.kind == TokKind::Ident && INTERVAL_BASES.contains(&t.text.as_str()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::new("crates/core/src/frames.rs", src)];
        let a = Analysis::build(&files);
        check(&a)
    }

    #[test]
    fn constant_rearm_on_the_timer_path_fires() {
        let out = run("impl T {\n\
             fn on_timer(&mut self, env: &Env) -> FStep { self.broadcast(env) }\n\
             fn broadcast(&mut self, env: &Env) -> FStep {\n\
             let mut step = FStep::idle();\n\
             step.timer = Some(env.backoff_unit * 8);\n\
             step }\n\
             }\n");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("on_timer → broadcast"), "{}", out[0].msg);
    }

    #[test]
    fn shifted_backoff_passes() {
        let out = run("impl T {\n\
             fn on_timer(&mut self, env: &Env) -> FStep { self.broadcast(env) }\n\
             fn broadcast(&mut self, env: &Env) -> FStep {\n\
             let mut step = FStep::idle();\n\
             step.timer = Some((env.backoff_unit * 8) << self.attempts.min(6));\n\
             step }\n\
             }\n");
        assert_eq!(out, vec![]);
    }

    #[test]
    fn growth_via_a_let_definition_passes() {
        let out = run("impl P {\n\
             fn on_timer(&mut self) -> Step { self.rearm() }\n\
             fn rearm(&mut self) -> Step {\n\
             let exp = self.retries.min(6);\n\
             let delay = self.cfg.backoff_unit * (1 << exp) + 1;\n\
             Step::idle().with_timer(delay) }\n\
             }\n");
        assert_eq!(out, vec![], "{out:?}");
    }

    #[test]
    fn constant_with_timer_via_let_fires() {
        let out = run("impl P {\n\
             fn on_timer(&mut self) -> Step { self.rearm() }\n\
             fn rearm(&mut self) -> Step {\n\
             let delay = self.cfg.backoff_unit * 4;\n\
             Step::idle().with_timer(delay) }\n\
             }\n");
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn passthroughs_and_disarms_are_skipped() {
        let out = run("impl W {\n\
             fn on_timer(&mut self) { self.wrap() }\n\
             fn wrap(&mut self) {\n\
             let timer = self.step.timer_after;\n\
             self.out.timer_after = timer;\n\
             self.st.timer = None;\n\
             self.st.timer = Some(token);\n\
             }\n\
             }\n");
        assert_eq!(out, vec![], "forwarding an opaque value is not arming: {out:?}");
    }

    #[test]
    fn sites_off_the_timer_path_are_out_of_scope() {
        let out = run("impl P {\n\
             fn on_message(&mut self) -> Step {\n\
             Step::idle().with_timer(self.cfg.backoff_unit * 2) }\n\
             fn on_timer(&mut self) -> Step { Step::idle() }\n\
             }\n");
        assert_eq!(out, vec![], "first-arm sites are the actor's policy choice: {out:?}");
    }
}
