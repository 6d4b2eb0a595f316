//! Runs the built `e2e` binary the way the driver does, on the `--smoke`
//! worlds, and holds its output against `BENCHMARK.json`.

use pretium_e2e::json::{self, Value};
use pretium_e2e::manifest::benchmark_json;
use pretium_e2e::workloads::SPECS;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn manifest() -> Value {
    let text =
        std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of the manifest.
fn declared(manifest: &Value, list: &str) -> BTreeMap<String, String> {
    manifest
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}`"))
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("metric field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    status_ok: bool,
    result: Value,
}

/// Where a traced smoke run of `workload` writes its spans: under the test
/// target directory, not next to the sources.
fn span_file(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}.jsonl"))
}

fn smoke(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--trace-file")
        .arg(span_file(workload))
        .output()
        .expect("e2e runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| panic!("{workload}: no output"));
    let result = json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
    for needle in
        ["workload=", "seed=7", " R=", " S=", "nproc=", "commit=", "rustc=", "config=PretiumConfig"]
    {
        assert!(stdout.contains(needle), "{workload}: header lacks `{needle}`");
    }
    Run { status_ok: out.status.success(), result }
}

/// `name -> (value, unit)` of a result line's metrics.
fn metrics(result: &Value) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{name} has no number"));
            let unit = m.get("unit").and_then(Value::as_str).expect("unit").to_string();
            (name.clone(), (value, unit))
        })
        .collect()
}

fn assert_result_shape(workload: &str, run: &Run, declared: &BTreeMap<String, String>) {
    assert!(run.status_ok, "{workload}: exited non-zero");
    let keys: Vec<&str> = run.result.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{workload}");
    assert_eq!(run.result.get("correct").and_then(Value::as_bool), Some(true), "{workload}");
    assert_eq!(
        run.result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}: ops failed"
    );
    assert!(run.result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0, "{workload}");
    let got = metrics(&run.result);
    let got_units: BTreeMap<String, String> =
        got.iter().map(|(k, (_, u))| (k.clone(), u.clone())).collect();
    assert_eq!(
        &got_units, declared,
        "{workload}: metric names and units must equal BENCHMARK.json's"
    );
    for (name, (value, _)) in &got {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn benchmark_json_is_what_the_registry_generates() {
    let on_disk = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json");
    assert_eq!(on_disk, benchmark_json(), "regenerate with `e2e manifest > BENCHMARK.json`");
    let manifest = manifest();
    let names: Vec<&str> = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
}

#[test]
fn every_workload_prints_the_declared_end_to_end_metrics() {
    let declared = declared(&manifest(), "end_to_end");
    for spec in &SPECS {
        let run = smoke(spec.name, false);
        assert_result_shape(spec.name, &run, &declared);
        for (name, (value, _)) in metrics(&run.result) {
            assert!(value > 0.0, "{}: end-to-end metric {name} must never be 0", spec.name);
        }
    }
}

#[test]
fn every_workload_prints_the_declared_per_layer_metrics_and_writes_spans() {
    let declared = declared(&manifest(), "per_layer");
    for spec in &SPECS {
        let run = smoke(spec.name, true);
        assert_result_shape(spec.name, &run, &declared);
        let text = std::fs::read_to_string(span_file(spec.name)).expect("span file written");
        let mut lines = text.lines();
        let header = json::parse(lines.next().expect("header line")).expect("header parses");
        assert_eq!(header.get("workload").and_then(Value::as_str), Some(spec.name));
        assert!(header.get("config").is_some() && header.get("nproc").is_some());
        let spans: Vec<Value> = lines.map(|l| json::parse(l).expect("span parses")).collect();
        let count = |name: &str| {
            spans.iter().filter(|s| s.get("name").and_then(Value::as_str) == Some(name)).count()
        };
        assert_eq!(count("run"), 1);
        assert!(
            count("replay") >= 2 && count("step") > 0 && count("quote") > 0 && count("sam") > 0
        );
        assert!(count("probe:ksp") > 0 && count("probe:schedule_cold") > 0);
        // Every span but the run has a parent recorded before it.
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.get("id").and_then(Value::as_f64), Some(i as f64));
            match s.get("parent").unwrap() {
                Value::Null => assert_eq!(i, 0),
                p => assert!(p.as_f64().unwrap() < i as f64),
            }
        }
    }
}

#[test]
fn two_smoke_runs_produce_identical_counts() {
    let defs = manifest();
    let units = declared(&defs, "per_layer");
    for spec in &SPECS {
        let (a, b) = (smoke(spec.name, true), smoke(spec.name, true));
        let (ma, mb) = (metrics(&a.result), metrics(&b.result));
        for (name, unit) in &units {
            // Everything that is not a time or a share of time is a count of
            // deterministic work (steals would be timing, but nothing runs
            // in parallel on the default path).
            if matches!(unit.as_str(), "count" | "units" | "value" | "ratio") {
                assert_eq!(ma[name].0, mb[name].0, "{}: {name} must repeat exactly", spec.name);
            }
        }
        assert_eq!(a.result.get("attempted"), b.result.get("attempted"));
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "eval_month", "--trace", "2"],
        &["--workload", "eval_month", "--seed", "x"],
        &["--seed", "1"],
        &["--workload", "eval_month", "--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2e")).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
