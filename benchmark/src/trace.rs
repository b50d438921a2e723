//! The traced pass's product: the trace file.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! store (spans inside the program are a later change), kept in memory
//! during the window and written when the run ends. Every timestamp is
//! on one clock, `NetStore::now_micros()`, and every span of an
//! operation carries its `OpId`.

use crate::driver::{NodeSnapshot, OpSpans, WindowResult};
use crate::json::Json;
use crate::spec::Spec;
use ares_core::store::session_of_op;
use ares_types::OpKind;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// The spans of one operation, in causal order: each is the gap
/// between two consecutive timestamp columns of the trace file.
pub const SPAN_NAMES: [&str; 4] = [
    "gen.due->submit",
    "store.submit->invoked",
    "runtime.invoked->completed",
    "driver.completed->observed",
];

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn snapshot_json(snapshot: &NodeSnapshot) -> Json {
    let nodes = snapshot
        .nodes
        .iter()
        .map(|(pid, s)| {
            let wal = s.wal.unwrap_or_default();
            Json::Obj(vec![
                ("pid".into(), num(*pid as u64)),
                (
                    "frames_routed_by_shard".into(),
                    Json::Arr(s.shards.iter().map(|sh| num(sh.frames_routed)).collect()),
                ),
                ("events_applied".into(), num(s.events_applied())),
                ("frames_sent".into(), num(s.frames_sent)),
                ("batches_flushed".into(), num(s.batches_flushed)),
                ("wal_records_appended".into(), num(wal.records_appended)),
                ("wal_fsyncs".into(), num(wal.fsyncs)),
            ])
        })
        .collect();
    Json::Obj(vec![("at".into(), num(snapshot.at)), ("nodes".into(), Json::Arr(nodes))])
}

/// Writes the traced window to `path` (see README.md, "Reading the
/// trace file").
///
/// # Errors
///
/// The file or its directory cannot be written.
pub fn write_file(path: &Path, spec: &Spec, seed: u64, window: &WindowResult) -> io::Result<()> {
    let header = Json::Obj(vec![
        ("workload".into(), Json::Str(spec.name.into())),
        ("seed".into(), num(seed)),
        (
            "clock".into(),
            Json::Str("us since the deployment's epoch (NetStore::now_micros)".into()),
        ),
        ("spans".into(), Json::Arr(SPAN_NAMES.iter().map(|s| Json::Str((*s).into())).collect())),
        (
            "columns".into(),
            Json::Arr(
                [
                    "client",
                    "session",
                    "seq",
                    "kind",
                    "due",
                    "submit",
                    "invoked",
                    "completed",
                    "observed",
                ]
                .iter()
                .map(|s| Json::Str((*s).into()))
                .collect(),
            ),
        ),
        ("node_stats".into(), Json::Arr(window.edges.iter().map(snapshot_json).collect())),
    ]);
    // One operation per line, so the file greps and diffs.
    let mut text = header.to_string();
    text.truncate(text.len() - 1);
    text.push_str(", \"ops\": [\n");
    for (i, s) in window.spans.iter().enumerate() {
        let OpSpans { op, kind, due, submit, invoked, completed, observed } = *s;
        let kind = if kind == OpKind::Read { "r" } else { "w" };
        let sep = if i + 1 == window.spans.len() { "" } else { "," };
        let _ = writeln!(
            text,
            "[{}, {}, {}, \"{kind}\", {due}, {submit}, {invoked}, {completed}, {observed}]{sep}",
            op.client.0,
            session_of_op(op).0,
            op.seq & 0xFFFF_FFFF,
        );
    }
    text.push_str("]}\n");
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, text)
}

/// Median lag between the runtime completing an operation and the
/// driver's poll seeing it, µs.
pub fn observe_lag_us(spans: &[OpSpans]) -> f64 {
    let mut lags: Vec<u64> = spans.iter().map(|s| s.observed.saturating_sub(s.completed)).collect();
    crate::stats::percentile_of(&mut lags, 0.5)
}
