//! Runs every workload at a tiny size and checks the runner's contract:
//! the printed metric names and units are the ones `BENCHMARK.json`
//! lists, answers pass the correctness gate and repeat across processes,
//! a malformed seed fails with a named error, and `results/` is left as
//! it was.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use telemetry::json::{self, Value};

const WORKLOADS: [&str; 4] = ["feeder-131k", "planning-2k", "meshed-dg-4k", "fleet-2dev"];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fbs-perfbench"))
        .args(args)
        .current_dir(repo())
        .output()
        .expect("the benchmark binary runs")
}

fn tiny(workload: &str, seed: &str, trace: &str) -> (Value, String) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.1",
        "--trace",
        trace,
        "--tiny",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (
        json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e:?}")),
        stdout,
    )
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn listed(spec: &Value, key: &str) -> BTreeMap<String, String> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("name");
            (
                name.to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// `name -> unit` of the metrics a run printed.
fn printed(result: &Value) -> BTreeMap<String, String> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}: value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn digest(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.contains("answer digest"))
        .expect("a digest line")
        .to_string()
}

/// Every file under `dir` with its bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                out.extend(snapshot(&p));
            } else {
                out.insert(p.clone(), std::fs::read(&p).expect("readable"));
            }
        }
    }
    out
}

#[test]
fn every_workload_prints_the_listed_metrics_and_leaves_results_alone() {
    let results = repo().join("results");
    let before = snapshot(&results);
    let spec = json::parse(
        &std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);

    for w in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (result, stdout) = tiny(w, "7", trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}: gate");
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0,
                "{w}: attempted"
            );
            assert_eq!(
                printed(&result),
                listed(&spec, key),
                "{w} --trace {trace}: metric names and units"
            );
            if trace == "0" && w != "meshed-dg-4k" {
                let (_, again) = tiny(w, "7", trace);
                assert_eq!(
                    digest(&stdout),
                    digest(&again),
                    "{w}: answers differ between processes"
                );
            }
        }
    }
    assert!(
        snapshot(&results) == before,
        "a benchmark run changed results/"
    );
}

#[test]
fn malformed_arguments_fail_with_a_named_error() {
    for (args, named) in [
        (
            &["--workload", "feeder-131k", "--seed", "abc"][..],
            "invalid --seed",
        ),
        (
            &["--workload", "feeder-131k", "--seed", "-1"][..],
            "invalid --seed",
        ),
        (
            &["--workload", "nope", "--seed", "1"][..],
            "unknown workload",
        ),
        (
            &["--workload", "feeder-131k", "--seed", "1", "--trace", "2"][..],
            "invalid --trace",
        ),
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no result on a usage error"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
    }
}
