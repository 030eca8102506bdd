//! Integration test for Example 1.2 / 4.4 (Tables 1 and 2): pushing the
//! predicate constraint `$2 >= 1` turns a diverging Magic Templates
//! evaluation into a terminating one, without losing answers.

use pushing_constraint_selections::prelude::*;

fn constrained_fib(target: i64) -> Program {
    parse_program(&format!(
        "r1: fib(0, 1).\n\
         r2: fib(1, 1).\n\
         r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), X1 >= 1, fib(N - 2, X2), X2 >= 1.\n\
         ?- fib(N, {target}).",
    ))
    .unwrap()
}

fn evaluate_magic(program: &Program, cap: usize) -> (Termination, usize, usize) {
    let magic = magic_rewrite(program, &MagicOptions::full_sips()).unwrap();
    let result = Evaluator::new(
        &magic.program,
        EvalOptions {
            limits: EvalLimits::capped(cap),
            trace: false,
            ..EvalOptions::default()
        },
    )
    .evaluate(&Database::new());
    let answers = result.answers(magic.program.query().unwrap()).len();
    (result.termination, answers, result.stats.constraint_facts)
}

#[test]
fn plain_magic_fibonacci_diverges_and_generates_constraint_facts() {
    // Table 1: the evaluation hits the iteration cap and has generated
    // constraint facts for the magic predicate.
    let (termination, answers, constraint_facts) = evaluate_magic(&programs::fibonacci(5), 12);
    assert_eq!(termination, Termination::IterationLimit);
    assert!(constraint_facts > 0, "magic fib generates constraint facts");
    // The answer N = 4 is nevertheless found before the cap (paper: seventh
    // iteration).
    assert_eq!(answers, 1);
}

#[test]
fn constrained_magic_fibonacci_terminates_with_the_answer() {
    // Table 2: with $2 >= 1 pushed into the recursive rule, the evaluation
    // reaches a fixpoint and answers N = 4.
    let (termination, answers, _) = evaluate_magic(&constrained_fib(5), 100);
    assert_eq!(termination, Termination::Fixpoint);
    assert_eq!(answers, 1);
}

#[test]
fn constrained_magic_fibonacci_answers_no_for_non_fibonacci_targets() {
    // ?- fib(N, 6): terminates and answers "no" (Example 4.4).
    let (termination, answers, _) = evaluate_magic(&constrained_fib(6), 100);
    assert_eq!(termination, Termination::Fixpoint);
    assert_eq!(answers, 0);
}

#[test]
fn tiny_caps_bound_the_diverging_fibonacci_inside_an_iteration() {
    // Regression: the fact and derivation caps must stop a round
    // mid-iteration.  They used to be checked only at rule-round
    // boundaries, so the diverging Table 1 evaluation could overshoot a
    // tiny cap by the size of whatever its current round derived.
    let magic = magic_rewrite(&programs::fibonacci(5), &MagicOptions::full_sips()).unwrap();
    let facts_capped = EvalOptions {
        limits: EvalLimits {
            max_facts: 25,
            ..EvalLimits::default()
        },
        ..EvalOptions::default()
    };
    let result = Evaluator::new(&magic.program, facts_capped).evaluate(&Database::new());
    assert_eq!(result.termination, Termination::FactLimit);
    assert_eq!(result.total_facts(), 25);

    let derivations_capped = EvalOptions {
        limits: EvalLimits {
            max_derivations: 40,
            ..EvalLimits::default()
        },
        ..EvalOptions::default()
    };
    let result = Evaluator::new(&magic.program, derivations_capped).evaluate(&Database::new());
    assert_eq!(result.termination, Termination::DerivationLimit);
    assert_eq!(result.stats.total_derivations(), 40);
}

#[test]
fn table2_terminates_within_the_papers_iteration_count_ballpark() {
    let magic = magic_rewrite(&constrained_fib(5), &MagicOptions::full_sips()).unwrap();
    let result =
        Evaluator::new(&magic.program, EvalOptions::traced(100)).evaluate(&Database::new());
    assert!(result.termination.is_fixpoint());
    // The paper's Table 2 terminates after 8 iterations (plus the empty
    // fixpoint round); allow a small margin for engine scheduling details.
    assert!(
        result.stats.iterations.len() <= 12,
        "took {} iterations",
        result.stats.iterations.len()
    );
}
