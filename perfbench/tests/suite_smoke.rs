//! Runs every workload named in `BENCHMARK.json` through the benchmark's own
//! entry point (`run.sh`, which builds `pcs-serve` and the benchmark in
//! release mode) at `--smoke` sizes, untraced and traced, and fails if a
//! workload or metric name in `BENCHMARK.json` is missing from the output
//! or the output has one that `BENCHMARK.json` does not name.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench/ sits in the repo root")
        .to_path_buf()
}

/// The `"name"` values of one array section of `BENCHMARK.json`.
fn names(benchmark: &str, section: &str) -> Vec<String> {
    values(benchmark, section, "name")
}

/// The string values of `key` in one array section of `BENCHMARK.json`.
fn values(benchmark: &str, section: &str, key: &str) -> Vec<String> {
    let start = benchmark
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &benchmark[start..];
    let body = &body[..body.find(']').expect("the section is an array")];
    body.split(&format!("\"{key}\":"))
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted value").to_string())
        .collect()
}

/// The metric names of a result line, sorted.
fn reported(line: &str) -> Vec<String> {
    let metrics = line
        .split("\"metrics\":")
        .nth(1)
        .expect("the result has metrics");
    // Every piece but the last ends with a metric's quoted name.
    let mut pieces: Vec<&str> = metrics.split(": {\"value\"").collect();
    pieces.pop();
    let mut names: Vec<String> = pieces
        .into_iter()
        .map(|before| {
            before
                .rsplit('"')
                .nth(1)
                .expect("a quoted name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

fn run(workload: &str, trace: &str) -> String {
    let root = repo_root();
    let output = Command::new("bash")
        .arg("perfbench/run.sh")
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(&root)
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line").to_string();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    line
}

#[test]
fn every_workload_reports_exactly_the_metrics_benchmark_json_names() {
    let root = repo_root();
    let benchmark = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let mut end_to_end = names(&benchmark, "end_to_end");
    let mut per_layer = names(&benchmark, "per_layer");
    end_to_end.sort();
    per_layer.sort();
    assert!(end_to_end.contains(&"setup_s".to_string()));

    let listed = Command::new(env!("CARGO_BIN_EXE_pcs-perfbench"))
        .arg("list")
        .output()
        .expect("the benchmark binary runs");
    let listed = String::from_utf8_lossy(&listed.stdout).into_owned();
    let workloads = names(&benchmark, "workloads");
    let expected: Vec<String> = workloads
        .iter()
        .zip(values(&benchmark, "workloads", "why"))
        .map(|(name, why)| format!("{name}\t{why}"))
        .collect();
    assert_eq!(
        listed.lines().collect::<Vec<_>>(),
        expected,
        "`list` and BENCHMARK.json give the same workloads and reasons"
    );

    for workload in &workloads {
        assert_eq!(
            reported(&run(workload, "0")),
            end_to_end,
            "{workload} --trace 0"
        );
        assert_eq!(
            reported(&run(workload, "1")),
            per_layer,
            "{workload} --trace 1"
        );
    }
}
