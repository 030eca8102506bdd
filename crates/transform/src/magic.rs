//! Magic Templates and constraint magic rewriting (Appendix B, Section 7.2).
//!
//! The rewriting specializes a bottom-up evaluation to a query by introducing
//! *magic predicates* that collect the goals generated by a top-down
//! evaluation, and guarding every original rule with the corresponding magic
//! literal.  With [`MagicOptions::constraint_magic`] enabled, every magic rule
//! additionally carries all the constraint information of the rule it was
//! generated from (projected onto the magic rule's variables), which is the
//! *constraint magic rewriting* of Section 7.2.

use std::collections::{BTreeSet, VecDeque};

use pcs_constraints::Conjunction;
use pcs_lang::{Literal, Pred, Program, Query, Rule};

use crate::adorn::{Adornment, SipStrategy};
use crate::error::{Result, TransformError};

/// Options for the Magic Templates rewriting.
#[derive(Debug, Clone, Copy, Default)]
pub struct MagicOptions {
    /// The sideways information passing strategy.
    pub sips: SipStrategy,
    /// When `true` (the default is `false`), magic rules keep the constraints
    /// of the rules they were generated from (constraint magic rewriting);
    /// when `false`, magic rules carry no constraints, which keeps the magic
    /// program range restricted but propagates less information
    /// (the `mrl'` choice of Example 1.1).
    pub constraint_magic: bool,
}

impl MagicOptions {
    /// Constraint magic rewriting with complete left-to-right sips
    /// (the strategy used for the Fibonacci example of Tables 1 and 2).
    pub fn full_sips() -> Self {
        MagicOptions {
            sips: SipStrategy::FullLeftToRight,
            constraint_magic: true,
        }
    }

    /// Constraint magic rewriting with `bf` (bound-if-ground) adornments,
    /// the setting of Section 7.
    pub fn bound_if_ground() -> Self {
        MagicOptions {
            sips: SipStrategy::BoundIfGround,
            constraint_magic: true,
        }
    }
}

/// The result of the Magic Templates rewriting.
#[derive(Debug, Clone)]
pub struct MagicResult {
    /// The rewritten program (modified rules, magic rules and the seed),
    /// whose query targets the adorned query predicate.
    pub program: Program,
    /// The adorned name of the original query predicate.
    pub query_pred: Pred,
}

fn adorned_name(pred: &Pred, adornment: &Adornment, sips: SipStrategy) -> Pred {
    match sips {
        SipStrategy::FullLeftToRight => pred.clone(),
        SipStrategy::BoundIfGround => pred.adorned(&adornment.text()),
    }
}

fn magic_literal(adorned: &Pred, literal: &Literal, adornment: &Adornment) -> Literal {
    literal
        .project_positions(&adornment.bound_positions())
        .with_predicate(adorned.magic())
}

/// Applies the Magic Templates rewriting to a program with a query.
///
/// The query must consist of a single literal (as in all of the paper's
/// examples); its constants determine the query adornment under
/// [`SipStrategy::BoundIfGround`].
pub fn magic_rewrite(program: &Program, options: &MagicOptions) -> Result<MagicResult> {
    let program = program.flattened();
    let query = program.query().ok_or(TransformError::MissingQuery)?;
    if query.literals.len() != 1 {
        return Err(TransformError::UnsupportedProgram {
            reason: "magic rewriting expects a single-literal query".into(),
        });
    }
    let query_literal = &query.literals[0];
    let idb = program.idb_predicates();
    if !idb.contains(&query_literal.predicate) {
        return Err(TransformError::UnsupportedProgram {
            reason: format!(
                "query predicate `{}` is not defined by any rule",
                query_literal.predicate
            ),
        });
    }

    let query_adornment = match options.sips {
        SipStrategy::FullLeftToRight => Adornment::all_bound(query_literal.arity()),
        SipStrategy::BoundIfGround => Adornment::of_literal(query_literal, &BTreeSet::new()),
    };

    let mut output = Program::new();
    for pred in program.edb_predicates() {
        output.declare_edb(pred);
    }

    let mut worklist: VecDeque<(Pred, Adornment)> = VecDeque::new();
    let mut seen: BTreeSet<(Pred, Adornment)> = BTreeSet::new();
    worklist.push_back((query_literal.predicate.clone(), query_adornment.clone()));
    seen.insert((query_literal.predicate.clone(), query_adornment.clone()));

    while let Some((pred, adornment)) = worklist.pop_front() {
        let adorned_head_pred = adorned_name(&pred, &adornment, options.sips);
        for (rule_idx, rule) in program.rules_for(&pred).into_iter().enumerate() {
            let label = rule
                .label
                .clone()
                .unwrap_or_else(|| format!("{pred}{}", rule_idx + 1));
            // Variables bound (to ground terms) before each body literal.
            let mut bound_vars: BTreeSet<_> = adornment
                .bound_positions()
                .iter()
                .flat_map(|&i| rule.head.args[i].vars())
                .collect();

            let head_magic = magic_literal(&adorned_head_pred, &rule.head, &adornment);
            let mut adorned_body: Vec<Literal> = Vec::new();

            for (j, literal) in rule.body.iter().enumerate() {
                let is_idb = idb.contains(&literal.predicate);
                if is_idb {
                    let body_adornment = match options.sips {
                        SipStrategy::FullLeftToRight => Adornment::all_bound(literal.arity()),
                        SipStrategy::BoundIfGround => Adornment::of_literal(literal, &bound_vars),
                    };
                    let adorned_pred =
                        adorned_name(&literal.predicate, &body_adornment, options.sips);

                    // Magic rule for this occurrence.
                    let magic_head = magic_literal(&adorned_pred, literal, &body_adornment);
                    let mut magic_body = vec![head_magic.clone()];
                    magic_body.extend(adorned_body.iter().cloned());
                    let magic_constraint = if options.constraint_magic {
                        let mut keep: BTreeSet<_> = magic_head.vars().into_iter().collect();
                        for lit in &magic_body {
                            keep.extend(lit.vars());
                        }
                        rule.constraint.project(&keep).simplify()
                    } else {
                        Conjunction::truth()
                    };
                    // `m(X) :- m(X), C.` derives only facts it already
                    // holds, so a magic rule whose body is its head is not
                    // emitted.
                    if magic_body != std::slice::from_ref(&magic_head) {
                        output.add_rule(
                            Rule::new(magic_head, magic_body, magic_constraint)
                                .with_label(format!("m{label}_{}", j + 1)),
                        );
                    }

                    if seen.insert((literal.predicate.clone(), body_adornment.clone())) {
                        worklist.push_back((literal.predicate.clone(), body_adornment));
                    }
                    adorned_body.push(literal.with_predicate(adorned_pred));
                } else {
                    adorned_body.push(literal.clone());
                }
                bound_vars.extend(literal.vars());
            }

            // Modified original rule guarded by the magic literal.
            let mut modified_body = vec![head_magic.clone()];
            modified_body.extend(adorned_body);
            let modified_head = rule.head.with_predicate(adorned_head_pred.clone());
            output.add_rule(
                Rule::new(modified_head, modified_body, rule.constraint.clone()).with_label(label),
            );
        }
    }

    // Seed fact from the query.
    let adorned_query_pred = adorned_name(&query_literal.predicate, &query_adornment, options.sips);
    let seed_head = magic_literal(&adorned_query_pred, query_literal, &query_adornment);
    output.add_rule(Rule::new(seed_head, Vec::new(), query.constraint.clone()).with_label("seed"));

    // The rewritten query targets the adorned query predicate.
    let adorned_query = Query::with_constraint(
        vec![query_literal.with_predicate(adorned_query_pred.clone())],
        query.constraint.clone(),
    );
    output.set_query(adorned_query);

    Ok(MagicResult {
        program: output,
        query_pred: adorned_query_pred,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_engine::{Database, EvalOptions, Evaluator, Value};
    use pcs_lang::parse_program;

    fn fib_program() -> Program {
        parse_program(
            "r1: fib(0, 1).\n\
             r2: fib(1, 1).\n\
             r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).\n\
             ?- fib(N, 5).",
        )
        .unwrap()
    }

    #[test]
    fn fib_magic_has_the_papers_shape() {
        let result = magic_rewrite(&fib_program(), &MagicOptions::full_sips()).unwrap();
        let program = &result.program;
        // Three modified rules, two magic rules (from the two recursive body
        // occurrences of fib) and the seed.
        let fib_rules = program.rules_for(&Pred::new("fib"));
        let magic_rules = program.rules_for(&Pred::new("m_fib"));
        assert_eq!(fib_rules.len(), 3);
        assert_eq!(magic_rules.len(), 3); // two body occurrences + seed
        assert_eq!(result.query_pred, Pred::new("fib"));
        // Every modified rule starts with the magic guard.
        for rule in fib_rules {
            assert_eq!(rule.body[0].predicate, Pred::new("m_fib"));
        }
    }

    #[test]
    fn no_magic_rule_is_a_tautology() {
        // Flights reaches `flight` with `bfff` through its own first body
        // literal, which would make `m_flight_bfff(S) :- m_flight_bfff(S).`
        let sources = [
            include_str!("../../../programs/flights.pcs"),
            include_str!("../../../programs/example71.pcs"),
            include_str!("../../../programs/fibonacci.pcs"),
        ];
        for source in sources {
            let program = parse_program(source).unwrap();
            for options in [MagicOptions::full_sips(), MagicOptions::bound_if_ground()] {
                let rewritten = magic_rewrite(&program, &options).unwrap().program;
                for rule in rewritten.rules() {
                    assert_ne!(rule.body, std::slice::from_ref(&rule.head), "{rule}");
                }
            }
        }
    }

    #[test]
    fn bound_if_ground_adornments_and_seed() {
        // Example 7.2-style program with a bf query.
        let program = parse_program(
            "q(X, Y) :- a1(X, Y).\n\
             a1(X, Y) :- b1(X, Z), X <= 4, a2(Z, Y).\n\
             a2(X, Y) :- b2(X, Y).\n\
             a2(X, Y) :- b2(X, Z), a2(Z, Y).\n\
             ?- q(5, Y).",
        )
        .unwrap();
        let result = magic_rewrite(&program, &MagicOptions::bound_if_ground()).unwrap();
        assert_eq!(result.query_pred, Pred::new("q_bf"));
        let program = result.program;
        // Seed: m_q_bf(5).
        let seeds = program.rules_for(&Pred::new("m_q_bf"));
        assert_eq!(seeds.len(), 1);
        assert!(seeds[0].body.is_empty());
        // a2 is reached with a bf adornment through b1's Z.
        assert!(!program.rules_for(&Pred::new("a2_bf")).is_empty());
        assert!(!program.rules_for(&Pred::new("m_a2_bf")).is_empty());
    }

    #[test]
    fn magic_program_is_query_equivalent_on_an_edb() {
        // Transitive closure with a constraint; compare answers with and
        // without magic on a concrete EDB.
        let program = parse_program(
            "q(X, Y) :- a(X, Y), X <= 4.\n\
             a(X, Y) :- b(X, Y).\n\
             a(X, Y) :- b(X, Z), a(Z, Y).\n\
             ?- q(2, Y).",
        )
        .unwrap();
        let mut db = Database::new();
        for (x, y) in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (9, 10)] {
            db.add_ground("b", vec![Value::num(x), Value::num(y)]);
        }
        let plain = Evaluator::new(&program, EvalOptions::default()).evaluate(&db);
        let plain_answers = plain.answers(program.query().unwrap());

        let magic = magic_rewrite(&program, &MagicOptions::bound_if_ground()).unwrap();
        let magic_eval = Evaluator::new(&magic.program, EvalOptions::default()).evaluate(&db);
        let magic_answers = magic_eval.answers(magic.program.query().unwrap());

        assert_eq!(plain_answers.len(), magic_answers.len());
        assert!(!magic_answers.is_empty());
        // Magic computes no more `a`-facts than the full evaluation.
        let plain_a = plain.count_for(&Pred::new("a"));
        let magic_a = magic_eval.count_for(&Pred::new("a_bf"));
        assert!(magic_a <= plain_a);
    }
}
