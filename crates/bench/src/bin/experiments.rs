//! Prints the paper-style tables for every experiment.
//!
//! Usage:
//!
//! ```text
//! cargo run -p pcs-bench --bin experiments            # all experiments
//! cargo run -p pcs-bench --bin experiments -- table1  # a single experiment
//! ```
//!
//! Available experiment names: `table1`, `table2`, `flights`, `ex41`, `ex42`,
//! `balbin`, `orderings`, `overlap`, `telemetry`, `analyze`, `all`.
//!
//! The `telemetry` experiment (and `all`, which includes it) additionally
//! writes the machine-readable `BENCH_9.json` artifact to the current
//! directory.

use pcs_bench::experiments;

/// Measures the telemetry-overhead experiment, writes `BENCH_9.json`, and
/// returns the printable table.
fn telemetry_with_artifact() -> String {
    let rows = experiments::telemetry_rows(
        experiments::TELEMETRY_FLIGHTS_SCALES,
        experiments::TELEMETRY_7X_EDGES,
    );
    let path = "BENCH_9.json";
    match std::fs::write(path, experiments::bench9_json(&rows)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    experiments::render_telemetry(&rows)
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let report = match which.as_str() {
        "table1" => experiments::table1(9),
        "table2" => experiments::table2(),
        "flights" => experiments::flights(&[(6, 20), (8, 60), (10, 120)]),
        "ex41" => experiments::example_41(),
        "ex42" | "decidable" => experiments::example_42(),
        "balbin" => experiments::balbin(),
        "orderings" | "optimal" => experiments::orderings(),
        "overlap" => experiments::overlap(),
        "telemetry" | "overhead" => telemetry_with_artifact(),
        "analyze" | "lint" => experiments::analyze(),
        "all" => format!("{}\n{}", experiments::all(), telemetry_with_artifact()),
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected one of table1, table2, flights, ex41, ex42, balbin, orderings, overlap, telemetry, analyze, all"
            );
            std::process::exit(2);
        }
    };
    println!("{report}");
}
