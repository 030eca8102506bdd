//! `pcs-perfbench` — the repo's benchmark (contract: `BENCHMARK.json` at the
//! repo root; guide: `perfbench/README.md`).
//!
//! ```text
//! pcs-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! pcs-perfbench list
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing and telemetry
//! off; `--trace 1` is a separate in-process run that wraps each layer call
//! in a span and prints the per-layer metrics.  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod batch;
mod scenario;
mod serve;
mod span;
mod stats;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;

use scenario::{Mode, Workload, WORKLOADS};

/// What an end-to-end run measured.
pub struct Report {
    /// Everything before the first timed operation, median of three set-ups.
    pub setup_s: f64,
    /// Latency of each successful timed operation.
    pub op_ms: Vec<f64>,
    /// Wall time of the timed phase.
    pub elapsed_s: f64,
    /// Facts in the final relations (batch) or materialized at load (serve).
    pub facts_computed: usize,
    pub peak_rss_mb: f64,
    /// Operations and correctness checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable detail, printed before the result line.
    pub notes: Vec<String>,
}

/// A named measurement with its unit, as the result line prints it.
pub type Metric = (&'static str, f64, &'static str);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: pcs-perfbench --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out FILE] | pcs-perfbench list";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be above 0 and at most 60".to_string());
    }
    Ok(args)
}

/// The result line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`.  Values keep all their digits.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    line
}

/// Runs the workload; prints the human-readable detail; returns operations
/// attempted, operations failed and the metrics of the result line.
fn measure(
    workload: &Workload,
    args: &Args,
    threads: usize,
) -> io::Result<(u64, u64, Vec<Metric>)> {
    let strategy = pcs_service::parse_strategy(workload.strategy).expect("a known strategy token");
    let shape = if args.smoke {
        workload.shape.smoke()
    } else {
        workload.shape
    };
    // Off unless the traced run switches it on around one fixpoint.
    pcs_telemetry::set_mode(pcs_telemetry::TelemetryMode::Off);
    if args.trace {
        return trace::run(workload, &strategy, shape, args.seed, args.seconds, threads);
    }
    let report = match workload.mode {
        Mode::Batch => batch::run(&strategy, shape, args.seed, args.seconds, threads),
        Mode::ServeRead | Mode::ServeChurn => {
            serve::run(workload, shape, args.seed, args.seconds, threads)?
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    println!("operation latency: {}", stats::describe_ms(&report.op_ms));
    let metrics = vec![
        ("setup_s", report.setup_s, "s"),
        ("op_p50_ms", stats::median(&report.op_ms), "ms"),
        (
            "ops_per_s",
            report.op_ms.len() as f64 / report.elapsed_s,
            "1/s",
        ),
        ("peak_rss_mb", report.peak_rss_mb, "MiB"),
        ("facts_computed", report.facts_computed as f64, "count"),
    ];
    Ok((report.attempted, report.failed, metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("list") {
        for w in &WORKLOADS {
            println!("{}\t{}", w.name, w.why);
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pcs-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = scenario::workload(&args.workload) else {
        eprintln!(
            "pcs-perfbench: unknown workload `{}`; try `list`",
            args.workload
        );
        return ExitCode::from(2);
    };
    // Evaluator threads are pinned, in-process and in the server child.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = cores.min(2);
    println!(
        "workload {} seed {} seconds {} trace {} smoke {}; {cores} cores, {threads} evaluator threads",
        workload.name, args.seed, args.seconds, args.trace, args.smoke
    );
    let (attempted, failed, metrics) = match measure(workload, &args, threads) {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("pcs-perfbench: the run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!("ops_attempted {attempted} ops_failed {failed}");
    let line = result_line(attempted, failed, &metrics);
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            workload.name, args.seed, args.trace
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| file.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("pcs-perfbench: cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
