//! Self-test of the benchmark at tiny scale: every metric BENCHMARK.json
//! names is emitted, with its unit, for every workload; and a wrong
//! serial reference fails the run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use asyncgt::obs::json::{parse, Value};
use std::process::Command;

/// Workloads the binary offers beyond those BENCHMARK.json lists.
const UNLISTED: [&str; 1] = ["im-cc"];

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// Every workload: those BENCHMARK.json lists, then the unlisted ones.
fn workloads(spec: &Value) -> Vec<String> {
    let listed = field(spec, "workloads").as_arr().expect("workload list");
    listed
        .iter()
        .map(|w| {
            field(w, "name")
                .as_str()
                .expect("workload name")
                .to_string()
        })
        .chain(UNLISTED.iter().map(|w| w.to_string()))
        .collect()
}

/// Run one tiny workload; returns the exit code and the result object.
fn run(workload: &str, trace: &str, extra: &[&str]) -> (i32, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"));
    (out.status.code().unwrap_or(-1), result)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing {key:?}"))
}

fn correct(result: &Value) -> bool {
    matches!(field(result, "correct"), Value::Bool(true))
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let spec = spec();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want: Vec<(&str, &str)> = field(&spec, list)
            .as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| field(m, k).as_str().expect("string field");
                (s("name"), s("unit"))
            })
            .collect();
        for w in workloads(&spec) {
            let w = w.as_str();
            let (code, result) = run(w, trace, &[]);
            assert_eq!(code, 0, "{w} trace {trace} exits 0");
            assert!(correct(&result), "{w} trace {trace}: outputs correct");
            assert_eq!(field(&result, "failed").as_u64(), Some(0));
            assert!(field(&result, "attempted").as_u64().unwrap() >= 1);
            let got = field(&result, "metrics").as_obj().expect("metrics object");
            let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            let want_names: Vec<&str> = want.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want_names, "{w} trace {trace}: metric names");
            for ((name, unit), (_, m)) in want.iter().zip(got) {
                assert_eq!(
                    field(m, "unit").as_str(),
                    Some(*unit),
                    "{w}: unit of {name}"
                );
                let value = field(m, "value").as_f64().expect("numeric value");
                assert!(value.is_finite(), "{w}: {name} = {value}");
                if list == "end_to_end" {
                    assert!(value > 0.0, "{w}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn wrong_reference_fails_the_run() {
    for w in workloads(&spec()) {
        let w = w.as_str();
        let (code, result) = run(w, "0", &["--wrong-reference"]);
        assert_ne!(code, 0, "{w}: a wrong reference must fail the run");
        assert!(!correct(&result), "{w}: reported as incorrect");
        let failed = field(&result, "failed").as_u64().unwrap();
        let attempted = field(&result, "attempted").as_u64().unwrap();
        assert!(
            failed > 0 && failed <= attempted,
            "{w}: failed {failed} of {attempted}"
        );
    }
}
