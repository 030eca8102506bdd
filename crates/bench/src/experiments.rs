//! The experiment harness: one function per paper artifact (table, figure or
//! worked example), each returning a printable report.  `EXPERIMENTS.md`
//! records a captured run next to the paper's own numbers.

use std::fmt::Write as _;

use pcs_core::{programs, Optimizer, Strategy};
use pcs_engine::{Database, EvalOptions, Evaluator};
use pcs_lang::{parse_program, Pred, Program};
use pcs_transform::{
    apply_sequence, check_decidable_class, gen_predicate_constraints,
    gen_prop_predicate_constraints, gen_qrp_constraints, magic_rewrite, ConstraintAnalysis,
    GenOptions, MagicOptions, PropagateOptions, Step, CONSTRAINT_REWRITE,
};

/// E1 (Table 1): per-iteration derivations of the magic-rewritten Fibonacci
/// program, which diverges and generates constraint facts.
pub fn table1(iterations: usize) -> String {
    fib_trace_report(
        "Table 1: derivations in a bottom-up evaluation of P_fib^mg (diverges; capped)",
        &programs::fibonacci(5),
        iterations,
    )
}

/// E2 (Table 2): the same evaluation after the predicate constraint `$2 >= 1`
/// has been pushed into the recursive rule (program `P_fib_1^mg`); terminates.
pub fn table2() -> String {
    let program = parse_program(
        "r1: fib(0, 1).\n\
         r2: fib(1, 1).\n\
         r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), X1 >= 1, fib(N - 2, X2), X2 >= 1.\n\
         ?- fib(N, 5).",
    )
    .expect("parses");
    fib_trace_report(
        "Table 2: derivations in a bottom-up evaluation of P_fib_1^mg (terminates)",
        &program,
        50,
    )
}

fn fib_trace_report(title: &str, program: &Program, iterations: usize) -> String {
    let magic = magic_rewrite(program, &MagicOptions::full_sips()).expect("magic rewrite");
    let result =
        Evaluator::new(&magic.program, EvalOptions::traced(iterations)).evaluate(&Database::new());
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{:<10} derivations made", "iteration");
    for (i, iter) in result.stats.iterations.iter().enumerate() {
        let mut cells: Vec<String> = Vec::new();
        for record in &iter.records {
            let marker = if record.new { "" } else { "*" };
            cells.push(format!("{}{}:{}", marker, record.rule, record.fact));
        }
        let _ = writeln!(out, "{i:<10} {{{}}}", cells.join(", "));
    }
    let answers = result.answers(magic.program.query().unwrap());
    let _ = writeln!(
        out,
        "termination: {:?}; stored constraint facts: {}; answers: {}",
        result.termination,
        result.stats.constraint_facts,
        answers.len()
    );
    let _ = writeln!(
        out,
        "(* marks a derivation whose fact was subsumed and discarded)"
    );
    out
}

/// E3 (Examples 1.1/4.3): the flights program across strategies and EDB
/// sizes; reports facts computed, irrelevant flight facts, and answers.
pub fn flights(sizes: &[(usize, usize)]) -> String {
    let program = programs::flights();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Flights (Examples 1.1/4.3): facts computed per strategy; an 'irrelevant' flight has time > 240 and cost > 150"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<28} {:>8} {:>13} {:>12} {:>9} {:>8}",
        "EDB", "strategy", "answers", "flight facts", "irrelevant", "derivs", "ground"
    );
    for (cities, extra) in sizes {
        let db = programs::flights_database(*cities, *extra);
        let edb_label = format!("{}+{}", cities, extra);
        for (name, strategy) in [
            ("original", Strategy::None),
            ("pred,qrp (Constraint_rewrite)", Strategy::ConstraintRewrite),
            ("mg only", Strategy::MagicOnly),
            ("pred,qrp,mg (optimal)", Strategy::Optimal),
        ] {
            let optimized = Optimizer::new(program.clone())
                .strategy(strategy)
                .optimize()
                .unwrap();
            let result = optimized.evaluate(&db);
            let flight_pred = result
                .relations
                .keys()
                .find(|p| p.name().starts_with("flight") && !result.facts_for(p).is_empty())
                .cloned()
                .unwrap_or_else(|| Pred::new("flight"));
            let irrelevant = result
                .facts_for(&flight_pred)
                .iter()
                .filter(|f| {
                    f.ground_values().is_some_and(|v| {
                        v[2].as_num().is_some_and(|t| t > 240.into())
                            && v[3].as_num().is_some_and(|c| c > 150.into())
                    })
                })
                .count();
            let _ = writeln!(
                out,
                "{:<10} {:<28} {:>8} {:>13} {:>12} {:>9} {:>8}",
                edb_label,
                name,
                optimized.count_answers(&db),
                result.count_for(&flight_pred),
                irrelevant,
                result.stats.total_derivations(),
                result.only_ground_facts()
            );
        }
    }
    out
}

/// The minimum predicate and QRP constraints of `program` as Appendix C's
/// `Constraint_rewrite` computes them: both with the query rule
/// `q#(V̄) :- <query body>` attached, the QRP constraints once the predicate
/// constraints are propagated.
fn constraint_analyses(program: &Program) -> (ConstraintAnalysis, ConstraintAnalysis) {
    let (with_query_rule, query_pred) = program.flattened().attach_query_rule().unwrap();
    let predicate = gen_predicate_constraints(&with_query_rule, &GenOptions::default());
    let propagated = gen_prop_predicate_constraints(&with_query_rule, &predicate);
    let query_preds = [query_pred].into_iter().collect();
    let qrp = gen_qrp_constraints(&propagated, &query_preds, &GenOptions::default());
    (predicate, qrp)
}

/// E4 (Example 4.1): the computed minimum QRP constraints and the rewritten
/// program.
pub fn example_41() -> String {
    let program = programs::example_41();
    let (_, qrp) = constraint_analyses(&program);
    let mut out = String::new();
    let _ = writeln!(out, "Example 4.1: minimum QRP constraints");
    for pred in ["p1", "p2", "q"] {
        let _ = writeln!(
            out,
            "  QRP({pred}) = {}",
            qrp.constraint_for(&Pred::new(pred))
        );
    }
    let rewritten = apply_sequence(&program, &CONSTRAINT_REWRITE, &PropagateOptions::default())
        .unwrap()
        .program;
    let _ = writeln!(out, "rewritten program:\n{rewritten}");
    out
}

/// E5 (Examples 4.2/5.1): predicate constraints make the minimum QRP
/// constraint reachable; the restricted class guarantees termination.
pub fn example_42() -> String {
    let program = programs::example_42();
    let (predicate, qrp) = constraint_analyses(&program);
    let mut out = String::new();
    let _ = writeln!(out, "Example 4.2 / 5.1:");
    let _ = writeln!(
        out,
        "  minimum predicate constraint for a: {}",
        predicate.constraint_for(&Pred::new("a"))
    );
    let _ = writeln!(
        out,
        "  minimum QRP constraint for a:       {}",
        qrp.constraint_for(&Pred::new("a"))
    );
    let _ = writeln!(
        out,
        "  QRP generation converged in {} iterations",
        qrp.iterations
    );
    let report = check_decidable_class(&programs::example_51());
    let _ = writeln!(
        out,
        "  Example 5.1 in decidable class: {}; Theorem 5.1 iteration bound: {}",
        report.in_class,
        report.iteration_bound()
    );
    out
}

/// E6 (Section 6.1): the Balbin et al. C transformation misses constraints
/// that the semantic procedure derives.
pub fn balbin() -> String {
    use pcs_transform::gen_syntactic_constraints;
    let program = programs::example_41();
    let query: std::collections::BTreeSet<Pred> = [Pred::new("q")].into_iter().collect();
    let options = GenOptions::default();
    let syntactic = gen_syntactic_constraints(&program, &query, &options);
    let semantic = gen_qrp_constraints(&program, &query, &options);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Balbin et al. C transformation vs QRP constraints (Example 4.1):"
    );
    for pred in ["p1", "p2"] {
        let _ = writeln!(
            out,
            "  {pred}: C-transform pushes {:<30}  QRP pushes {}",
            syntactic.constraint_for(&Pred::new(pred)).to_string(),
            semantic.constraint_for(&Pred::new(pred))
        );
    }
    out
}

/// E8/E9/E10 (Section 7, Examples 7.1/7.2, Theorem 7.10): fact counts for the
/// different rewriting orderings.
pub fn orderings() -> String {
    let sequences: Vec<(&str, Vec<Step>)> = vec![
        ("qrp,mg", vec![Step::Qrp, Step::Magic]),
        ("mg,qrp", vec![Step::Magic, Step::Qrp]),
        ("pred,qrp,mg", vec![Step::Pred, Step::Qrp, Step::Magic]),
        ("mg,pred,qrp", vec![Step::Magic, Step::Pred, Step::Qrp]),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Section 7 ordering study (facts computed; fewer is better)"
    );
    for (name, program, db) in [
        (
            "Example 7.1 (qrp,mg preferable)",
            programs::example_71(),
            programs::example_7x_database(40, 30),
        ),
        (
            "Example 7.2 (mg,qrp preferable)",
            programs::example_72(),
            programs::example_7x_database(40, 30),
        ),
        (
            "Flights (Theorem 7.10)",
            programs::flights(),
            programs::flights_database(8, 40),
        ),
    ] {
        let _ = writeln!(out, "-- {name}");
        let _ = writeln!(
            out,
            "   {:<14} {:>12} {:>12} {:>9}",
            "sequence", "total facts", "derivations", "answers"
        );
        for (label, steps) in &sequences {
            let optimized = Optimizer::new(program.clone())
                .strategy(Strategy::Sequence(steps.clone()))
                .optimize()
                .unwrap();
            let result = optimized.evaluate(&db);
            let _ = writeln!(
                out,
                "   {:<14} {:>12} {:>12} {:>9}",
                label,
                result.total_facts(),
                result.stats.total_derivations(),
                optimized.count_answers(&db)
            );
        }
    }
    out
}

/// E12 (Section 4.6): overlapping disjuncts cause duplicate derivations; the
/// non-overlapping rewriting removes them, the single-disjunct weakening
/// loses pruning.
pub fn overlap() -> String {
    let program = programs::flights();
    let db = programs::flights_database(8, 40);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Section 4.6 disjunct-handling ablation (flights, 8 cities + 40 irrelevant legs)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>13} {:>12} {:>9}",
        "propagation", "flight facts", "derivations", "answers"
    );
    for (name, options) in [
        ("overlapping (default)", PropagateOptions::default()),
        (
            "non-overlapping",
            PropagateOptions {
                non_overlapping: true,
                ..Default::default()
            },
        ),
        (
            "single disjunct",
            PropagateOptions {
                single_disjunct: true,
                ..Default::default()
            },
        ),
    ] {
        let rewritten = apply_sequence(&program, &CONSTRAINT_REWRITE, &options)
            .unwrap()
            .program;
        let eval = Evaluator::new(&rewritten, EvalOptions::default()).evaluate(&db);
        let answers = eval.answers(program.query().unwrap()).len();
        let _ = writeln!(
            out,
            "{:<22} {:>13} {:>12} {:>9}",
            name,
            eval.count_for(&Pred::new("flight")),
            eval.stats.total_derivations(),
            answers
        );
    }
    out
}

/// A scalar cell of a machine-readable `BENCH_*.json` artifact row.
pub enum BenchField {
    /// Rendered as a quoted JSON string (the value must not need escaping).
    Str(String),
    /// Rendered as an unquoted integer.
    Int(u64),
    /// Rendered as a float with the given number of decimal places.
    Float(f64, usize),
}

impl BenchField {
    /// Shorthand for an integer field measured as a `usize`.
    fn count(value: usize) -> Self {
        Self::Int(value as u64)
    }
}

/// Serializes experiment rows as a `BENCH_*.json` artifact: one object per
/// measured configuration, machine-readable for CI trend tracking.  Shared
/// by the `telemetry` and `load` experiments so the artifact
/// framing (experiment name, issue number, row list) stays uniform.
pub fn bench_json(experiment: &str, issue: u32, rows: &[Vec<(&str, BenchField)>]) -> String {
    let mut out =
        format!("{{\n  \"experiment\": \"{experiment}\",\n  \"issue\": {issue},\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (j, (name, field)) in row.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = match field {
                BenchField::Str(value) => write!(out, "\"{name}\": \"{value}\""),
                BenchField::Int(value) => write!(out, "\"{name}\": {value}"),
                BenchField::Float(value, places) => write!(out, "\"{name}\": {value:.places$}"),
            };
        }
        out.push('}');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Default flights scales of the telemetry-overhead experiment.
pub const TELEMETRY_FLIGHTS_SCALES: &[(usize, usize)] = &[(60, 120), (100, 200)];

/// Default Example 7.1 edge counts of the telemetry-overhead experiment.
pub const TELEMETRY_7X_EDGES: &[usize] = &[400];

/// One measured configuration of the telemetry-overhead experiment (also
/// the row shape serialized into `BENCH_9.json`).
pub struct TelemetryRow {
    /// Workload label, e.g. `flights 100c/200l`.
    pub workload: String,
    /// Telemetry state under measurement: `off` (no-op fast path) or `on`
    /// (counters, phase spans and per-iteration timing).
    pub telemetry: &'static str,
    /// Median wall-clock evaluation time over the timed runs, milliseconds.
    pub median_ms: f64,
    /// Stored facts at fixpoint (a live parity check across modes).
    pub total_facts: usize,
    /// Total derivations performed.
    pub derivations: usize,
    /// Percent slowdown of this row against its `off` twin; zero on the
    /// `off` rows themselves.
    pub overhead_pct: f64,
}

/// E9 (PR 9): wall-clock overhead of the telemetry layer — hot-path
/// counters, phase spans, and per-iteration timing — on the default engine
/// configuration over the join-planning workloads.  Every workload runs
/// with the process-wide mode off and on (`pcs_telemetry::set_mode`); the
/// fact totals double as a live check that instrumentation changes no
/// answers.
pub fn telemetry_rows(
    flights_scales: &[(usize, usize)],
    ex71_edges: &[usize],
) -> Vec<TelemetryRow> {
    use std::time::Instant;

    let mut cases: Vec<(String, Program, Database)> = Vec::new();
    for &(cities, legs) in flights_scales {
        cases.push((
            format!("flights {cities}c/{legs}l"),
            programs::flights(),
            crate::workload::random_flights_database(cities, legs, 0xC0FFEE),
        ));
    }
    for &edges in ex71_edges {
        cases.push((
            format!("ex71 {edges}e"),
            programs::example_71(),
            crate::workload::random_7x_database(edges, 60, 50, 7),
        ));
    }
    let previous = pcs_telemetry::mode();
    let mut rows = Vec::new();
    for (workload, program, db) in cases {
        let optimized = Optimizer::new(program)
            .strategy(Strategy::Optimal)
            .optimize()
            .expect("optimization succeeds");
        let mut mode_facts = Vec::new();
        let mut off_median_ms = 0.0;
        for (mode_name, on) in [("off", false), ("on", true)] {
            pcs_telemetry::set_mode(if on {
                pcs_telemetry::TelemetryMode::On
            } else {
                pcs_telemetry::TelemetryMode::Off
            });
            let mut times = Vec::new();
            let (mut facts, mut derivations) = (0, 0);
            for _ in 0..5 {
                let start = Instant::now();
                let result = optimized.evaluate(&db);
                times.push(start.elapsed());
                facts = result.total_facts();
                derivations = result.stats.total_derivations();
            }
            times.sort();
            let median_ms = times[times.len() / 2].as_secs_f64() * 1e3;
            let overhead_pct = if on && off_median_ms > 0.0 {
                (median_ms - off_median_ms) / off_median_ms * 100.0
            } else {
                off_median_ms = median_ms;
                0.0
            };
            mode_facts.push(facts);
            rows.push(TelemetryRow {
                workload: workload.clone(),
                telemetry: mode_name,
                median_ms,
                total_facts: facts,
                derivations,
                overhead_pct,
            });
        }
        assert_eq!(
            mode_facts[0], mode_facts[1],
            "telemetry on and off stored different fact counts"
        );
    }
    pcs_telemetry::set_mode(previous);
    rows
}

/// Renders [`telemetry_rows`] as a printable table.
pub fn telemetry(flights_scales: &[(usize, usize)], ex71_edges: &[usize]) -> String {
    render_telemetry(&telemetry_rows(flights_scales, ex71_edges))
}

/// Renders already-measured telemetry-overhead rows as a printable table;
/// the `on` rows carry the percent overhead against their `off` twin.
pub fn render_telemetry(rows: &[TelemetryRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Telemetry overhead: counters, spans and iteration timing on vs off (median of 5)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:<10} {:>10} {:>12} {:>10} {:>9}",
        "workload", "telemetry", "median", "facts", "derivs", "overhead"
    );
    for row in rows {
        let overhead = if row.telemetry == "on" {
            format!("{:+.2}%", row.overhead_pct)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{:<22} {:<10} {:>8.2}ms {:>12} {:>10} {:>9}",
            row.workload, row.telemetry, row.median_ms, row.total_facts, row.derivations, overhead
        );
    }
    out
}

/// Serializes telemetry-overhead rows as the `BENCH_9.json` artifact via
/// [`bench_json`].
pub fn bench9_json(rows: &[TelemetryRow]) -> String {
    let rows: Vec<Vec<(&str, BenchField)>> = rows
        .iter()
        .map(|row| {
            vec![
                ("workload", BenchField::Str(row.workload.clone())),
                ("telemetry", BenchField::Str(row.telemetry.to_string())),
                ("median_ms", BenchField::Float(row.median_ms, 3)),
                ("total_facts", BenchField::count(row.total_facts)),
                ("derivations", BenchField::count(row.derivations)),
                ("overhead_pct", BenchField::Float(row.overhead_pct, 2)),
            ]
        })
        .collect();
    bench_json("telemetry_overhead", 9, &rows)
}

/// One measured operation class of the E10 concurrent-load experiment (the
/// row shape serialized into `BENCH_10.json`): per-class counts and
/// latency percentiles from the telemetry histograms plus the overall
/// sustained throughput.
pub struct LoadRow {
    /// The operation class (`query` or `update`).
    pub op: String,
    /// Concurrent client connections driving the server.
    pub clients: usize,
    /// Operations of this class completed over the run.
    pub count: u64,
    /// Operations per second of this class, over the run's wall-clock.
    pub throughput_per_sec: f64,
    /// Median latency in microseconds (upper bucket bound).
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds (upper bucket bound).
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds (upper bucket bound).
    pub p99_us: f64,
}

/// Renders load-generator rows as the printable table `pcs-load` reports
/// (also quoted in `EXPERIMENTS.md`).
pub fn render_load(rows: &[LoadRow]) -> String {
    let mut out = String::from("concurrent load (pcs-load):\n");
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "op", "clients", "count", "ops/s", "p50", "p95", "p99"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>10} {:>12.1} {:>8.0}us {:>8.0}us {:>8.0}us",
            row.op,
            row.clients,
            row.count,
            row.throughput_per_sec,
            row.p50_us,
            row.p95_us,
            row.p99_us
        );
    }
    out
}

/// Serializes load-generator rows as the `BENCH_10.json` artifact via
/// [`bench_json`].
pub fn bench10_json(rows: &[LoadRow]) -> String {
    let rows: Vec<Vec<(&str, BenchField)>> = rows
        .iter()
        .map(|row| {
            vec![
                ("op", BenchField::Str(row.op.clone())),
                ("clients", BenchField::count(row.clients)),
                ("count", BenchField::Int(row.count)),
                (
                    "throughput_per_sec",
                    BenchField::Float(row.throughput_per_sec, 1),
                ),
                ("p50_us", BenchField::Float(row.p50_us, 1)),
                ("p95_us", BenchField::Float(row.p95_us, 1)),
                ("p99_us", BenchField::Float(row.p99_us, 1)),
            ]
        })
        .collect();
    bench_json("concurrent_load", 10, &rows)
}

/// Analyzer overhead: wall-clock cost and findings of the static analysis
/// pass (which `Optimizer::optimize` runs by default) over the paper's
/// example programs.
pub fn analyze() -> String {
    let cases: Vec<(&str, Program)> = vec![
        ("flights", programs::flights()),
        ("fibonacci(5)", programs::fibonacci(5)),
        ("example_41", programs::example_41()),
        ("example_71", programs::example_71()),
        ("example_72", programs::example_72()),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Static analysis: per-program analyzer cost and findings (errors/warnings/notes)"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>5} {:>4} {:>4} {:>5} {:>6} {:>5} {:>9} {:>10}",
        "program", "rules", "err", "warn", "notes", "strata", "dead", "converged", "elapsed"
    );
    for (name, program) in cases {
        let start = std::time::Instant::now();
        let analysis = pcs_core::analysis::analyze(&program);
        let elapsed = start.elapsed();
        let (errors, warnings, notes) = analysis.counts();
        let strata = analysis.strata.values().max().copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>4} {:>4} {:>5} {:>6} {:>5} {:>9} {:>10?}",
            name,
            program.rules().len(),
            errors,
            warnings,
            notes,
            strata,
            analysis.dead_rules.len(),
            analysis.converged,
            elapsed
        );
    }
    out
}

/// Runs every experiment and concatenates the reports.
pub fn all() -> String {
    let mut out = String::new();
    for section in [
        table1(9),
        table2(),
        flights(&[(6, 20), (8, 60), (10, 120)]),
        example_41(),
        example_42(),
        balbin(),
        orderings(),
        overlap(),
        analyze(),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_diverges_and_table2_terminates() {
        let t1 = table1(6);
        assert!(t1.contains("IterationLimit"));
        let t2 = table2();
        assert!(t2.contains("Fixpoint"));
        assert!(t2.contains("answers: 1"));
    }

    #[test]
    fn flights_report_lists_all_strategies() {
        let report = flights(&[(5, 10)]);
        assert!(report.contains("original"));
        assert!(report.contains("pred,qrp,mg (optimal)"));
    }

    #[test]
    fn telemetry_rows_pair_on_with_off_and_agree_on_facts() {
        let rows = telemetry_rows(&[(6, 15)], &[40]);
        // 2 workloads × 2 telemetry modes.
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].telemetry, "off");
            assert_eq!(pair[1].telemetry, "on");
            assert_eq!(pair[0].total_facts, pair[1].total_facts);
            assert_eq!(pair[0].derivations, pair[1].derivations);
            assert!((pair[0].overhead_pct - 0.0).abs() < f64::EPSILON);
        }
        let table = render_telemetry(&rows);
        assert!(table.contains("overhead"));
        let json = bench9_json(&rows);
        assert!(json.contains("\"experiment\": \"telemetry_overhead\""));
        assert!(json.contains("\"issue\": 9"));
        assert!(json.contains("\"overhead_pct\":"));
    }

    #[test]
    fn bench_json_frames_rows_uniformly() {
        let rows = vec![
            vec![
                ("name", BenchField::Str("a".to_string())),
                ("n", BenchField::Int(3)),
            ],
            vec![("x", BenchField::Float(1.5, 3))],
        ];
        let json = bench_json("demo", 42, &rows);
        assert_eq!(
            json,
            "{\n  \"experiment\": \"demo\",\n  \"issue\": 42,\n  \"rows\": [\n    \
             {\"name\": \"a\", \"n\": 3},\n    {\"x\": 1.500}\n  ]\n}\n"
        );
    }

    #[test]
    fn ordering_report_covers_both_examples() {
        let report = orderings();
        assert!(report.contains("Example 7.1"));
        assert!(report.contains("Example 7.2"));
        assert!(report.contains("Theorem 7.10"));
    }
}
