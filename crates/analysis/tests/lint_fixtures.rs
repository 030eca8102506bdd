//! End-to-end tests for the `pcs-lint` binary over the seeded fixture
//! programs in `tests/fixtures/` and the example programs in `programs/`,
//! ending in a golden table of every finding they produce.
//!
//! These drive the actual binary (via `CARGO_BIN_EXE_pcs-lint`), so they
//! cover argument handling, rendering, and exit codes — not just the
//! analyzer library.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../programs")
        .join(name)
}

fn lint(args: &[&Path]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pcs-lint"));
    for arg in args {
        cmd.arg(arg);
    }
    cmd.output().expect("pcs-lint runs")
}

fn lint_strict(args: &[&Path]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pcs-lint"));
    cmd.arg("--strict");
    for arg in args {
        cmd.arg(arg);
    }
    cmd.output().expect("pcs-lint runs")
}

#[test]
fn unsafe_fixture_fails_with_an_unsafe_rule_error() {
    let out = lint(&[&fixture("unsafe.pcs")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("unsafe-rule"), "stdout: {stdout}");
    assert!(stdout.contains("rule r2"), "stdout: {stdout}");
}

#[test]
fn unsat_fixture_is_flagged_but_not_an_error() {
    let out = lint(&[&fixture("unsat.pcs")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Unsatisfiable rules are warnings: the program still runs correctly.
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("unsatisfiable-rule"), "stdout: {stdout}");

    // ... but `--strict` promotes warnings to failures.
    let strict = lint_strict(&[&fixture("unsat.pcs")]);
    assert_eq!(strict.status.code(), Some(1));
}

#[test]
fn dead_fixture_reports_the_whole_cascade() {
    let out = lint(&[&fixture("dead.pcs")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("unsatisfiable-rule"), "stdout: {stdout}");
    assert!(stdout.contains("impossible-body"), "stdout: {stdout}");
    assert!(
        stdout.contains("unreachable-from-query"),
        "stdout: {stdout}"
    );
}

#[test]
fn missing_file_and_parse_error_exit_2() {
    let out = lint(&[Path::new("no/such/file.pcs")]);
    assert_eq!(out.status.code(), Some(2));

    let dir = std::env::temp_dir().join("pcs_lint_parse_error_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.pcs");
    std::fs::write(&bad, "r1: p(X :- q(X).\n").unwrap();
    let out = lint(&[bad.as_path()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error[parse]"), "stderr: {stderr}");
}

/// Every finding `pcs-lint` reports over the example programs and the
/// fixtures, in output order, as (file, line, code); the line is `None` for
/// a program-level finding, which carries no source position.
const GOLDEN: &[(&str, Option<usize>, &str)] = &[
    ("example61.pcs", Some(3), "unbounded-probe"),
    ("example61.pcs", Some(3), "unbounded-probe"),
    ("fibonacci.pcs", Some(5), "unbounded-probe"),
    ("fibonacci.pcs", Some(5), "unbounded-probe"),
    ("dead.pcs", Some(5), "unsatisfiable-rule"),
    ("dead.pcs", Some(6), "impossible-body"),
    ("dead.pcs", Some(8), "unreachable-from-query"),
    ("dead.pcs", None, "unused-predicate"),
    ("degenerate.pcs", Some(4), "unsatisfiable-rule"),
    ("unsafe.pcs", Some(4), "unsafe-rule"),
    ("unsat.pcs", Some(4), "unsatisfiable-rule"),
];

/// The (file name, line, code) of every finding line in `pcs-lint` output:
/// `path:line:column: severity[code] ...`, or `path: severity[code] ...`.
fn findings(stdout: &str) -> Vec<(String, Option<usize>, String)> {
    let mut rows = Vec::new();
    for line in stdout.lines() {
        let Some((at, len)) = [": error[", ": warning[", ": info["]
            .iter()
            .find_map(|m| line.find(m).map(|at| (at, m.len())))
        else {
            continue;
        };
        let code = &line[at + len..];
        let code = &code[..code.find(']').expect("a finding's code is closed")];
        let mut location = line[..at].split(':');
        let path = location.next().expect("a finding names its file");
        let file = Path::new(path).file_name().unwrap().to_string_lossy();
        let number = location.next().map(|n| n.parse().expect("a line number"));
        rows.push((file.into_owned(), number, code.to_string()));
    }
    rows
}

#[test]
fn lint_findings_match_the_golden_table() {
    let names = [
        "example41.pcs",
        "example42.pcs",
        "example51.pcs",
        "example61.pcs",
        "example71.pcs",
        "example72.pcs",
        "fibonacci.pcs",
        "flights.pcs",
    ];
    let examples: Vec<PathBuf> = names.iter().map(|n| example(n)).collect();
    let refs: Vec<&Path> = examples.iter().map(PathBuf::as_path).collect();
    let out = lint(&refs);
    let mut stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    // No example program produces an error-severity finding.
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    let fixtures: Vec<PathBuf> = ["dead.pcs", "degenerate.pcs", "unsafe.pcs", "unsat.pcs"]
        .iter()
        .map(|n| fixture(n))
        .collect();
    let refs: Vec<&Path> = fixtures.iter().map(PathBuf::as_path).collect();
    stdout.push_str(&String::from_utf8_lossy(&lint(&refs).stdout));
    let expected: Vec<(String, Option<usize>, String)> = GOLDEN
        .iter()
        .map(|&(file, line, code)| (file.to_string(), line, code.to_string()))
        .collect();
    assert_eq!(findings(&stdout), expected, "stdout: {stdout}");
}
