//! The batch workloads: the library pipeline in-process, program text and
//! EDB text in, answers out.

use std::hint::black_box;
use std::time::Instant;

use pcs_core::{Optimizer, Strategy};
use pcs_engine::{naive, Database, EvalLimits, EvalOptions, EvalResult, EvalStats, Fact, Relation};
use pcs_lang::{parse_program, Program};

use crate::scenario::{Scenario, Shape};
use crate::span::Tracer;
use crate::stats::median;
use crate::{wire, Report};

/// What one pass of the pipeline computed; equal across passes on the same
/// inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub facts: usize,
    pub derivations: usize,
    pub new_facts: usize,
    pub iterations: usize,
    /// The answers to the program's query: argument tuples, sorted.
    pub answers: Vec<String>,
}

/// Renders answers without their predicate name (magic renames the query
/// predicate), sorted.
fn answer_tuples(answers: &[Fact]) -> Vec<String> {
    let mut tuples: Vec<String> = answers
        .iter()
        .map(|fact| {
            let text = fact.to_string();
            text[text.find('(').unwrap_or(0)..].to_string()
        })
        .collect();
    tuples.sort();
    tuples
}

/// The optimizer every in-process measurement uses: `threads` evaluator
/// threads, telemetry as the process has it (off, but for one traced pass).
pub fn optimizer(program: Program, strategy: &Strategy, threads: usize) -> Optimizer {
    Optimizer::new(program)
        .strategy(strategy.clone())
        .eval_options(EvalOptions::default().with_threads(threads))
}

/// Parses a generated program and a generated EDB, untimed.
pub fn parsed(program: &str, edb: &str) -> (Program, Database) {
    let program = parse_program(program).expect("the generated program parses");
    let mut db = Database::new();
    db.add_facts_str(edb).expect("the generated EDB parses");
    (program, db)
}

/// One pass, text in → answers out.  Each layer call is a span of `tracer`,
/// named after the per-layer metric it feeds, if any.
pub fn pipeline(
    scenario: &Scenario,
    strategy: &Strategy,
    threads: usize,
    tracer: &mut Tracer,
) -> Outcome {
    tracer.next_request();
    tracer.span("pipeline", |t| {
        let program = t
            .leaf("lang.parse_program_s", || parse_program(&scenario.program))
            .expect("the generated program parses");
        let mut db = Database::new();
        t.leaf("lang.parse_facts_s", || db.add_facts_str(&scenario.edb))
            .expect("the generated EDB parses");
        let optimized = t
            .leaf("core.optimize_s", || {
                optimizer(program, strategy, threads).optimize()
            })
            .expect("the program optimizes");
        let evaluator = t.leaf("engine.evaluator_new", || optimized.evaluator());
        let result = t.leaf("engine.eval.fixpoint_s", || evaluator.evaluate(&db));
        let query = optimized.program.query().expect("the program has a query");
        let answers = t.leaf("pipeline.answers", || result.answers(query));
        let answers = answer_tuples(&answers);
        assert!(result.termination.is_fixpoint(), "evaluation hit a limit");
        Outcome {
            facts: result.total_facts(),
            derivations: result.stats.total_derivations(),
            new_facts: result.stats.total_new_facts(),
            iterations: result.stats.iterations.len(),
            answers,
        }
    })
}

/// The answers the naive reference interpreter gives the *source* program
/// (no rewriting) on the scenario's EDB.
fn oracle_answers(scenario: &Scenario) -> Vec<String> {
    let (program, db) = parsed(&scenario.program, &scenario.edb);
    let oracle = naive::evaluate(&program, &db, &EvalLimits::default());
    // Wrapped as an `EvalResult` so the query is matched the same way.
    let relations = oracle
        .relations
        .into_iter()
        .map(|(pred, facts)| {
            let mut relation = Relation::new();
            for fact in facts {
                relation.insert(fact);
            }
            (pred, relation)
        })
        .collect();
    let result = EvalResult {
        relations,
        stats: EvalStats::default(),
        termination: oracle.termination,
    };
    let query = program.query().expect("the program has a query");
    answer_tuples(&result.answers(query))
}

/// Checks the rewritten pipeline against the oracle on a down-scaled EDB
/// from the same generator and seed (the oracle is far too slow for the
/// measured size).  Returns whether they agree.
pub fn agrees_with_oracle(shape: Shape, strategy: &Strategy, seed: u64) -> bool {
    let small = Scenario::generate(shape.for_oracle(), seed);
    let ours = pipeline(&small, strategy, 1, &mut Tracer::new(false));
    ours.answers == oracle_answers(&small)
}

pub fn run(strategy: &Strategy, shape: Shape, seed: u64, seconds: f64, threads: usize) -> Report {
    // Set-up: generating the inputs.  Three times, for a median.
    let mut setups = Vec::new();
    let scenario = (0..3)
        .map(|_| {
            let start = Instant::now();
            let scenario = black_box(Scenario::generate(shape, seed));
            setups.push(start.elapsed().as_secs_f64());
            scenario
        })
        .last()
        .expect("three set-ups ran");

    let mut tracer = Tracer::new(false);
    let mut mismatched = 0;
    // One untimed pass lets the allocator and the symbol table warm up.
    let first = pipeline(&scenario, strategy, threads, &mut tracer);
    // Memory is read at a fixed point of work, after exactly one pass: the
    // peak over a timed phase depends on how many passes fit in it.
    let peak_rss_mb = wire::peak_rss_mb("/proc/self/status").unwrap_or(0.0);
    let mut attempted = 1;

    let mut op_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let rep = Instant::now();
        let outcome = black_box(pipeline(
            black_box(&scenario),
            strategy,
            threads,
            &mut tracer,
        ));
        op_ms.push(rep.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        if outcome != first {
            mismatched += 1;
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    attempted += 1;
    let oracle_ok = agrees_with_oracle(shape, strategy, seed);
    let failed = mismatched + u64::from(!oracle_ok);
    Report {
        setup_s: median(&setups),
        op_ms,
        elapsed_s,
        facts_computed: first.facts,
        peak_rss_mb,
        attempted,
        failed,
        notes: vec![
            format!(
                "operation: one pipeline pass (parse_program, add_facts_str, optimize, evaluate, answers) over {} EDB facts",
                scenario.edb_facts
            ),
            format!(
                "per pass: {} facts, {} derivations, {} new facts, {} iterations, {} answers; identical on every pass: {}",
                first.facts,
                first.derivations,
                first.new_facts,
                first.iterations,
                first.answers.len(),
                mismatched == 0
            ),
            format!("answers equal the naive oracle's on a down-scaled EDB of the same generator: {oracle_ok}"),
        ],
    }
}
