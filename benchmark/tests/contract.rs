//! `BENCHMARK.json` against the registry the program prints from, and
//! both against the limits the benchmark contract sets.

use ares_benchmark::json::{self, Json};
use ares_benchmark::metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use ares_benchmark::spec::WORKLOADS;
use std::collections::HashSet;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is at most 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing in {obj}"))
}

#[test]
fn emitted_names_and_units_are_well_formed_and_within_the_limits() {
    assert!(END_TO_END.len() <= 16, "at most 16 end-to-end metrics");
    assert!(PER_LAYER.len() <= 128, "at most 128 per-layer metrics");
    let mut seen = HashSet::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_name(d.name), "{:?} is not a metric name", d.name);
        assert!(is_unit(d.unit), "{:?} is not a unit ({})", d.unit, d.name);
        assert!(seen.insert(d.name), "{} is defined twice", d.name);
    }
    for w in &WORKLOADS {
        assert!(is_name(w.name) && seen.insert(w.name), "{:?} is not a fresh name", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why is one short line", w.name);
    }
    for d in &END_TO_END {
        let bound = d.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
    }
    assert!(PER_LAYER.iter().all(|d| d.bound.is_none()), "per-layer metrics have no bound");
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let largest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
}

fn assert_metrics_match(listed: &[Json], defs: &[MetricDef], with_bound: bool) {
    assert_eq!(listed.len(), defs.len());
    for (m, d) in listed.iter().zip(defs) {
        assert_eq!(str_of(m, "name"), d.name);
        assert_eq!(str_of(m, "unit"), d.unit, "{}", d.name);
        assert_eq!(str_of(m, "better"), d.better.as_str(), "{}", d.name);
        assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
        let keys = m.as_obj().expect("a metric is an object").len();
        assert_eq!(keys, if with_bound { 4 } else { 3 }, "{}: exactly the contract's keys", d.name);
    }
}

#[test]
fn benchmark_json_restates_the_registry() {
    let doc = contract();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(str_of(listed, "name"), spec.name);
        assert_eq!(str_of(listed, "why"), spec.why);
        assert_eq!(listed.as_obj().unwrap().len(), 2);
    }
    assert_metrics_match(doc.get("end_to_end").and_then(Json::as_arr).unwrap(), &END_TO_END, true);
    assert_metrics_match(doc.get("per_layer").and_then(Json::as_arr).unwrap(), &PER_LAYER, false);
}

#[test]
fn command_paths_and_run_length_fit_the_contract() {
    let doc = contract();
    let paths: Vec<&str> =
        doc.get("paths").and_then(Json::as_arr).unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert_eq!(run_seconds, 20.0, "the timed window is 20 s");
    // 4 + 22 runs per workload, each a window plus at most 10 s of set-up,
    // warm-up, drain and checks, and two builds, inside the driver's cap.
    let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
    assert!(runs * (run_seconds + 8.0) + 2.0 * 60.0 <= 3420.0);
}

#[test]
fn a_result_line_needs_every_metric_and_only_finite_ones() {
    let mut report = Report::default();
    for d in &END_TO_END[1..] {
        report.set(d.name, 1.5);
    }
    let err = report.to_json(&END_TO_END).unwrap_err();
    assert!(err.contains("setup_s"), "{err}");
    report.set("setup_s", f64::NAN);
    assert!(report.to_json(&END_TO_END).is_err(), "NaN is not a measurement");

    let mut report = Report::default();
    for d in &END_TO_END {
        report.set(d.name, 0.1 + 0.2);
    }
    let line = report.to_json(&END_TO_END).unwrap().to_string();
    let back = json::parse(&line).unwrap();
    let first = back.get("setup_s").unwrap();
    assert_eq!(first.get("value").and_then(Json::as_f64), Some(0.1 + 0.2), "all digits survive");
    assert_eq!(str_of(first, "unit"), "s");
}

#[test]
fn json_round_trips_what_the_benchmark_writes() {
    let text = r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"y\\z\né"}, "d": []}"#;
    let doc = json::parse(text).unwrap();
    assert_eq!(doc.get("a").and_then(Json::as_arr).unwrap()[1], Json::Num(-2500.0));
    assert_eq!(doc.get("b").unwrap().get("c").and_then(Json::as_str), Some("x\"y\\z\né"));
    assert_eq!(json::parse(&doc.to_string()).unwrap(), doc);
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open"] {
        assert!(json::parse(bad).is_err(), "{bad:?} must not parse");
    }
}
