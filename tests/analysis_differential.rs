//! Soundness differential for the static analyzer.
//!
//! Three claims are checked here, across crates:
//!
//! * **Dead rules never fire.**  Every rule the analyzer proves dead
//!   (unsatisfiable constraints, impossible bodies) derives nothing in the
//!   production evaluator: under [`EvalOptions::traced`], no
//!   [`DerivationRecord`] carries the label of a rule in [`ProgramAnalysis::dead_rules`].  This is why the
//!   optimizer leaves such rules in the program instead of pruning them.
//! * **Clean programs stay clean.**  A generator that builds well-formed
//!   programs *by construction* (consistent arities, head variables drawn
//!   from body variables) must never trip an error-severity diagnostic —
//!   errors are reserved for genuinely broken programs.
//! * **`unsatisfiable-rule` is sound.**  Every rule the analyzer flags as
//!   unsatisfiable must derive nothing.  This is checked against the naive
//!   reference interpreter: the flagged rule's head predicate is renamed to a
//!   fresh probe predicate (its body is untouched, so everything it could
//!   consume is still derived), and the probe's relation must come out empty.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pushing_constraint_selections::engine::naive;
use pushing_constraint_selections::prelude::*;

/// A program with three kinds of dead weight on top of two live rules:
/// a directly unsatisfiable rule (`r2`), a rule whose only body predicate is
/// derived solely by that rule (`r3`), and a second unsatisfiable rule on the
/// query predicate itself (`r5`).
fn seeded_dead_program() -> Program {
    parse_program(
        "r1: p(X) :- e(X).\n\
         r2: deadpred(X) :- p(X), X > 5, X < 2.\n\
         r3: q(X) :- deadpred(X).\n\
         r4: q(X) :- p(X), X <= 50.\n\
         r5: q(X) :- p(X), X >= 100, X <= 60.\n\
         ?- q(U).",
    )
    .expect("seeded program parses")
}

fn values_db(values: &[i64]) -> Database {
    let mut db = Database::new();
    for v in values {
        db.add_ground("e", vec![Value::num(*v)]);
    }
    db
}

/// The labels of the rules that fired (every derivation attempted, new or
/// subsumed) when `program` is evaluated with tracing.
fn fired_labels(program: &Program, db: &Database) -> BTreeSet<String> {
    let result = Evaluator::new(program, EvalOptions::traced(64)).evaluate(db);
    assert!(result.termination.is_fixpoint(), "{:?}", result.termination);
    result
        .stats
        .iterations
        .iter()
        .flat_map(|iteration| &iteration.records)
        .map(|record| record.rule.clone())
        .collect()
}

/// Asserts no rule the analyzer proves dead fires.  Every rule of `program`
/// must be labelled.
fn assert_dead_rules_never_fire(program: &Program, db: &Database) {
    let analysis = analyze(program);
    let fired = fired_labels(program, db);
    for &dead in &analysis.dead_rules {
        let label = program.rules()[dead].label.as_ref().expect("labelled");
        assert!(
            !fired.contains(label),
            "dead rule {label} fired:\n{program}"
        );
    }
}

#[test]
fn the_seeded_program_has_the_expected_dead_rules() {
    let program = seeded_dead_program();
    let analysis = analyze(&program);
    assert!(!analysis.has_errors(), "{}", analysis.render());
    assert_eq!(
        analysis.dead_rules,
        [1usize, 2, 4].into_iter().collect(),
        "r2 (unsat), r3 (impossible body), and r5 (unsat) should be dead"
    );
    assert_eq!(analysis.unsat_rules, [1usize, 4].into_iter().collect());
}

#[test]
fn dead_rules_never_fire_on_the_seeded_program() {
    let program = seeded_dead_program();
    let db = values_db(&[1, 7, 42, 55, 120]);
    assert_dead_rules_never_fire(&program, &db);
    // Not vacuous: the live rules around the dead ones do fire.
    assert_eq!(
        fired_labels(&program, &db),
        ["r1", "r4"].map(String::from).into_iter().collect()
    );
}

/// A generator for random programs that are well formed *by construction*:
/// every predicate has one fixed arity, every head variable appears in a
/// body literal, and the query matches the arity of the queried predicate.
/// Constraints are random and may be unsatisfiable — that is a warning, not
/// an error.
struct ProgramGen {
    rng: StdRng,
}

impl ProgramGen {
    fn new(seed: u64) -> ProgramGen {
        ProgramGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn var(&mut self) -> &'static str {
        ["X0", "X1", "X2", "X3", "X4", "X5"][self.rng.random_range(0..6usize)]
    }

    /// Builds a random stratified program over EDB predicates `e1/1`, `e2/2`
    /// and IDB predicates `p0..pk` (each of fixed random arity), returning
    /// its source text.  When `conflicting_bounds` is set, rules may receive
    /// a `V >= hi, V <= lo` pair with `hi > lo`, seeding unsatisfiable rules.
    fn program(&mut self, conflicting_bounds: bool) -> String {
        let num_idb = self.rng.random_range(1..=4usize);
        let arity: Vec<usize> = (0..num_idb).map(|_| self.rng.random_range(1..=3)).collect();
        let mut text = String::new();
        for (i, pred_arity) in arity.iter().copied().enumerate() {
            let num_rules = self.rng.random_range(1..=2usize);
            for r in 0..num_rules {
                // Body: 1..=3 literals over the EDB predicates and strictly
                // lower-numbered IDB predicates (so the program is acyclic
                // and the naive oracle always reaches a fixpoint).
                let num_body = self.rng.random_range(1..=3usize);
                let mut body = Vec::new();
                let mut body_vars: Vec<&'static str> = Vec::new();
                for _ in 0..num_body {
                    let choice = self.rng.random_range(0..2 + i);
                    let (name, lit_arity) = match choice {
                        0 => ("e1".to_string(), 1),
                        1 => ("e2".to_string(), 2),
                        j => (format!("p{}", j - 2), arity[j - 2]),
                    };
                    let args: Vec<&'static str> = (0..lit_arity).map(|_| self.var()).collect();
                    body_vars.extend(&args);
                    body.push(format!("{name}({})", args.join(", ")));
                }
                body_vars.sort_unstable();
                body_vars.dedup();
                // Head: every argument is a variable that occurs in the body.
                let head_args: Vec<&str> = (0..pred_arity)
                    .map(|_| body_vars[self.rng.random_range(0..body_vars.len())])
                    .collect();
                let mut atoms = Vec::new();
                if conflicting_bounds && self.rng.random_range(0..3) == 0 {
                    let v = body_vars[self.rng.random_range(0..body_vars.len())];
                    let lo = self.rng.random_range(-20i64..0);
                    let hi = self.rng.random_range(1i64..20);
                    atoms.push(format!("{v} >= {hi}"));
                    atoms.push(format!("{v} <= {lo}"));
                } else if self.rng.random_range(0..2) == 0 {
                    let v = body_vars[self.rng.random_range(0..body_vars.len())];
                    let bound = self.rng.random_range(-50i64..50);
                    let op = ["<=", ">=", "<", ">"][self.rng.random_range(0..4usize)];
                    atoms.push(format!("{v} {op} {bound}"));
                }
                let constraint = if atoms.is_empty() {
                    String::new()
                } else {
                    format!(", {}", atoms.join(", "))
                };
                text.push_str(&format!(
                    "g{i}_{r}: p{i}({}) :- {}{constraint}.\n",
                    head_args.join(", "),
                    body.join(", "),
                ));
            }
        }
        // Query the last IDB predicate with distinct fresh variables.
        let last = num_idb - 1;
        let qvars: Vec<String> = (0..arity[last]).map(|k| format!("Q{k}")).collect();
        text.push_str(&format!("?- p{last}({}).\n", qvars.join(", ")));
        text
    }

    fn database(&mut self) -> Database {
        let mut db = Database::new();
        for _ in 0..self.rng.random_range(1..=8usize) {
            db.add_ground("e1", vec![Value::num(self.rng.random_range(-30i64..30))]);
        }
        for _ in 0..self.rng.random_range(1..=8usize) {
            db.add_ground(
                "e2",
                vec![
                    Value::num(self.rng.random_range(-30i64..30)),
                    Value::num(self.rng.random_range(-30i64..30)),
                ],
            );
        }
        db
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Well-formed-by-construction programs never produce error-severity
    /// diagnostics (warnings and notes are fine — random constraints can be
    /// unsatisfiable, random rules can shadow each other).
    #[test]
    fn well_formed_programs_analyze_without_errors(seed in 0u64..u64::MAX) {
        let mut gen = ProgramGen::new(seed);
        let text = gen.program(false);
        let program = parse_program(&text).expect("generated program parses");
        let analysis = analyze(&program);
        prop_assert!(
            !analysis.has_errors(),
            "errors on a well-formed program:\n{text}\n{}",
            analysis.render(),
        );
    }

    /// Every rule the analyzer flags as unsatisfiable derives nothing: with
    /// the flagged rule's head renamed to a fresh probe predicate, the naive
    /// oracle's relation for the probe stays empty.
    #[test]
    fn unsatisfiable_rules_derive_nothing(seed in 0u64..u64::MAX) {
        let mut gen = ProgramGen::new(seed);
        let text = gen.program(true);
        let program = parse_program(&text).expect("generated program parses");
        let analysis = analyze(&program);
        if analysis.unsat_rules.is_empty() {
            return;
        }
        let mut probe = Program::new().with_edb(program.edb_predicates());
        let mut probes: Vec<(usize, Pred)> = Vec::new();
        for (idx, rule) in program.rules().iter().enumerate() {
            let mut rule = rule.clone();
            if analysis.unsat_rules.contains(&idx) {
                let fresh = Pred::from(format!("unsat_probe_{idx}").as_str());
                rule.head.predicate = fresh.clone();
                probes.push((idx, fresh));
            }
            probe.add_rule(rule);
        }
        let db = gen.database();
        let oracle = naive::evaluate(&probe, &db, &EvalLimits::capped(64));
        prop_assert!(oracle.termination.is_fixpoint(), "oracle diverged on:\n{text}");
        for (idx, fresh) in probes {
            prop_assert!(
                oracle.facts_for(&fresh).is_empty(),
                "rule #{idx} was flagged unsatisfiable but derived {} fact(s):\n{text}",
                oracle.count_for(&fresh),
            );
        }
    }

    /// No rule the analyzer can prove dead fires on random programs and
    /// EDBs.
    #[test]
    fn dead_rules_never_fire_on_random_programs(seed in 0u64..u64::MAX) {
        let mut gen = ProgramGen::new(seed);
        let text = gen.program(true);
        let program = parse_program(&text).expect("generated program parses");
        assert_dead_rules_never_fire(&program, &gen.database());
    }
}
