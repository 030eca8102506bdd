//! Query answering over a computed [`EvalResult`]: which stored facts are
//! compatible with a query literal and its side constraints.

use std::collections::BTreeMap;

use pcs_telemetry as telemetry;

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Var};
use pcs_lang::{Literal, Query, Term};

use super::EvalResult;
use crate::fact::{Binding, Fact};
use crate::value::Value;

impl EvalResult {
    /// The answers to a query: facts for the query literal's predicate that
    /// are compatible with its ground arguments and variable-repetition
    /// pattern, and satisfiable together with the query's side constraints.
    ///
    /// This is the single query entry point — ground-argument filtering,
    /// repeated variables (`?- q(X, X)`), and side constraints
    /// (`?- q(X, Y), X <= 3`) are all handled here.  The query is expected
    /// to have exactly one literal (the shape [`pcs_lang::parse_query`]
    /// produces for interactive queries; multi-literal queries are rewritten
    /// to a single query predicate before evaluation); extra literals are
    /// ignored, and a query with no literals has no answers.
    pub fn answers(&self, query: &Query) -> Vec<Fact> {
        let Some(literal) = query.literals.first() else {
            return Vec::new();
        };
        self.facts_for(&literal.predicate)
            .into_iter()
            .filter(|fact| fact_matches_pattern(fact, literal, &query.constraint))
            .collect()
    }

    /// Facts for the predicate of `query` that are compatible with its ground
    /// arguments (the "answers" to the query).
    #[deprecated(since = "0.1.0", note = "use `answers(&Query::new(literal))` instead")]
    pub fn answers_to(&self, query: &Literal) -> Vec<Fact> {
        self.answers(&Query::new(query.clone()))
    }

    /// Like `answers_to`, but additionally requires the side constraints
    /// `side` (over the query literal's variables) to be satisfiable
    /// together with the fact.
    #[deprecated(
        since = "0.1.0",
        note = "use `answers(&Query::with_constraint(vec![literal], side))` instead"
    )]
    pub fn answers_to_constrained(&self, query: &Literal, side: &Conjunction) -> Vec<Fact> {
        self.answers(&Query::with_constraint(vec![query.clone()], side.clone()))
    }
}

/// Decides whether `fact` is compatible with the ground arguments and the
/// variable-repetition pattern of `query`.
///
/// A ground query constant against a free fact position is accepted only if
/// the fact's residual constraint is satisfiable with that position pinned to
/// the constant — `?- q(5)` must not match a fact constrained to `$1 <= 3`.
/// A query variable occurring more than once (`?- q(X, X)`) requires all its
/// positions to be able to hold one common value: equal ground values, or a
/// satisfiable conjunction of position equalities over the free slots.
/// Side constraints over the query variables (`side`) are rewritten onto the
/// fact's positions and conjoined before the final satisfiability check.
fn fact_matches_pattern(fact: &Fact, query: &Literal, side: &Conjunction) -> bool {
    if fact.arity() != query.arity() {
        return false;
    }
    let mut constraint = fact.constraint().clone();
    // A free position can hold a symbol only when the residual constraint
    // does not restrict it to numbers.
    let free_accepts_sym = |slot: usize| !fact.constraint().contains_var(&Var::position(slot));
    // Per query variable: the ground value some occurrence is bound to (if
    // any) and the 1-based free slots its occurrences cover.
    #[derive(Default)]
    struct VarGroup {
        value: Option<Value>,
        slots: Vec<usize>,
    }
    let mut groups: BTreeMap<&Var, VarGroup> = BTreeMap::new();
    // Equalities induced by expression arguments (`?- q(X + 1)`), kept
    // aside until the groups are complete so their variables can be
    // rewritten onto the fact's positions alongside the side constraints.
    let mut expr_atoms: Vec<Atom> = Vec::new();
    for (i, (binding, term)) in fact.bindings().iter().zip(&query.args).enumerate() {
        let slot = i + 1;
        match term {
            Term::Sym(s) => match binding {
                Binding::Bound(Value::Sym(fs)) if fs == s => {}
                Binding::Free => {
                    if !free_accepts_sym(slot) {
                        return false;
                    }
                }
                _ => return false,
            },
            Term::Num(n) => match binding {
                Binding::Bound(v) if v.as_num() == Some(*n) => {}
                Binding::Free => constraint.push(Atom::var_eq(Var::position(slot), *n)),
                _ => return false,
            },
            Term::Var(x) => {
                let group = groups.entry(x).or_default();
                match binding {
                    Binding::Bound(value) => match &group.value {
                        Some(existing) if existing != value => return false,
                        _ => group.value = Some(value.clone()),
                    },
                    Binding::Free => group.slots.push(slot),
                }
            }
            // An arithmetic expression argument must equal the fact's value
            // at this position; a symbol can never satisfy arithmetic.
            Term::Expr(e) => match binding {
                Binding::Bound(v) => match v.as_num() {
                    Some(n) => expr_atoms.push(Atom::compare(
                        e.clone(),
                        CmpOp::Eq,
                        LinearExpr::constant(n),
                    )),
                    None => return false,
                },
                Binding::Free => expr_atoms.push(Atom::compare(
                    e.clone(),
                    CmpOp::Eq,
                    LinearExpr::var(Var::position(slot)),
                )),
            },
        }
    }
    for group in groups.values() {
        match &group.value {
            Some(v) => match v.as_num() {
                // Pin every free slot of the group to the number.
                Some(n) => {
                    for &slot in &group.slots {
                        constraint.push(Atom::var_eq(Var::position(slot), n));
                    }
                }
                // Every free slot of the group must be able to hold the
                // symbol.
                None => {
                    if !group.slots.iter().all(|&slot| free_accepts_sym(slot)) {
                        return false;
                    }
                }
            },
            // No ground occurrence: the free slots must agree pairwise.
            None => {
                for pair in group.slots.windows(2) {
                    constraint.push(Atom::compare(
                        LinearExpr::var(Var::position(pair[0])),
                        CmpOp::Eq,
                        LinearExpr::var(Var::position(pair[1])),
                    ));
                }
            }
        }
    }
    // Rewrite the expression-argument equalities and the side constraints
    // onto the fact's positions: a query variable bound to a number
    // substitutes as a constant, one covering a free slot substitutes as
    // that slot's position variable, and one bound to a symbol cannot
    // appear in arithmetic at all.  Variables the query literal's
    // non-expression arguments do not mention stay as they are
    // (existential), linked to the rest through the conjoined atoms — so
    // `?- q(X + 1), X >= 100` pins the fact's value to `>= 101` even
    // though `X` itself covers no position.
    for atom in expr_atoms.iter().chain(side.atoms()) {
        let mut current = atom.clone();
        for var in atom.vars() {
            if let Some(group) = groups.get(var) {
                match (&group.value, group.slots.first()) {
                    (Some(v), _) => match v.as_num() {
                        Some(n) => current = current.substitute(var, &LinearExpr::constant(n)),
                        None => return false,
                    },
                    (None, Some(&slot)) => {
                        current = current.substitute(var, &LinearExpr::var(Var::position(slot)));
                    }
                    (None, None) => {}
                }
            }
        }
        constraint.push(current);
    }
    telemetry::bump(telemetry::Counter::FmSatCalls);
    constraint.is_satisfiable()
}

#[cfg(test)]
mod tests {
    use super::super::test_support::eval;
    use crate::database::Database;
    use crate::value::Value;
    use pcs_lang::{Literal, Pred, Query, Term};

    #[test]
    fn answers_to_query_filter_by_constants() {
        let mut db = Database::new();
        db.add_ground("r", vec![Value::sym("a"), Value::num(1)]);
        db.add_ground("r", vec![Value::sym("b"), Value::num(2)]);
        let result = eval("s(X, Y) :- r(X, Y).", &db);
        let query = Literal::new("s", vec![Term::sym("a"), Term::var("Y")]);
        let answers = result.answers(&Query::new(query));
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn answers_respect_constraint_fact_bounds() {
        // Regression: `?- q(5)` must not match a fact constrained to
        // `$1 <= 3`; the old pattern matcher accepted any ground constant
        // against a free position without consulting the constraint.
        let db = Database::new();
        let result = eval("q(X) :- X <= 3.", &db);
        assert_eq!(result.count_for(&Pred::new("q")), 1);
        let inside = Literal::new("q", vec![Term::num(2)]);
        let outside = Literal::new("q", vec![Term::num(5)]);
        assert_eq!(result.answers(&Query::new(inside)).len(), 1);
        assert_eq!(result.answers(&Query::new(outside)).len(), 0);
        // A symbol can never inhabit a numerically constrained position.
        let symbolic = Literal::new("q", vec![Term::sym("madison")]);
        assert_eq!(result.answers(&Query::new(symbolic)).len(), 0);
    }

    #[test]
    fn answers_to_enforces_repeated_query_variables() {
        let mut db = Database::new();
        db.add_facts_str("r(1, 1).\nr(1, 2).\nr(a, a).\nr(a, b).")
            .unwrap();
        let result = eval("s(X, Y) :- r(X, Y).", &db);
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        assert_eq!(answers("s(X, Y)"), 4);
        // Only r(1, 1) and r(a, a) repeat their argument.
        assert_eq!(answers("s(X, X)"), 2);
        assert_eq!(answers("s(1, X)"), 2);
        // Side constraints filter ground answers.
        assert_eq!(answers("s(X, Y), Y >= 2"), 1);
    }

    #[test]
    fn answers_to_repeated_variables_consult_constraint_facts() {
        let db = Database::new();
        let result = eval(
            "disjoint(X, Y) :- X <= 3, Y >= 5.\n\
             band(X, Y) :- X <= 3, Y <= 3.\n\
             half(X, Y) :- Y <= 3.",
            &db,
        );
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        // $1 <= 3 and $2 >= 5 cannot hold one common value.
        assert_eq!(answers("disjoint(X, X)"), 0);
        assert_eq!(answers("disjoint(X, Y)"), 1);
        // $1 <= 3 and $2 <= 3 can (e.g. both 2).
        assert_eq!(answers("band(X, X)"), 1);
        // A constant mixed with a constrained position pins it.
        assert_eq!(answers("band(2, X)"), 1);
        assert_eq!(answers("band(5, X)"), 0);
        // Side constraints conjoin with the fact's residual constraint.
        assert_eq!(answers("band(2, X), X >= 1"), 1);
        assert_eq!(answers("band(2, X), X >= 99"), 0);
        assert_eq!(answers("disjoint(X, Y), X = Y"), 0);
        // An unconstrained position can repeat into a constrained one...
        assert_eq!(answers("half(X, X)"), 1);
        // ...and can hold a symbol, while a constrained position cannot.
        assert_eq!(answers("half(madison, X)"), 1);
        assert_eq!(answers("half(X, madison)"), 0);
    }

    #[test]
    fn answers_to_expression_arguments_pin_the_position() {
        // Regression: `Term::Expr` query arguments used to be ignored
        // entirely, so `?- s(X + 1), X >= 100.` returned every fact.
        let mut db = Database::new();
        db.add_facts_str("r(1).\nr(7).\nr(a).").unwrap();
        let result = eval("s(X) :- r(X).\nt(X) :- X <= 5.", &db);
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        // ∃X. X + 1 = v holds for every numeric fact; never for a symbol.
        assert_eq!(answers("s(X + 1)"), 2);
        // Side constraints link through X even though X covers no position.
        assert_eq!(answers("s(X + 1), X >= 100"), 0);
        assert_eq!(answers("s(Y + 1), Y = 0"), 1);
        assert_eq!(answers("s(2 * Z), Z >= 3"), 1);
        // Expressions against a constrained free position conjoin with the
        // fact's residual constraint ($1 <= 5).
        assert_eq!(answers("t(W + 10), W <= -5"), 1);
        assert_eq!(answers("t(W + 10), W >= 0"), 0);
    }

    #[test]
    fn answers_to_repeated_variables_with_symbols() {
        let mut db = Database::new();
        // free($1, $2) unconstrained; capped(a, $2 <= 3).
        db.add_facts_str("free(X, Y).\ncapped(a, Y) :- Y <= 3.")
            .unwrap();
        let result = eval("f(X, Y) :- free(X, Y).\nc(X, Y) :- capped(X, Y).", &db);
        let answers = |src: &str| {
            let query = pcs_lang::parse_query(src).unwrap();
            result.answers(&query).len()
        };
        // Two unconstrained positions can share any value.
        assert_eq!(answers("f(X, X)"), 1);
        // The symbol `a` cannot repeat into the numeric position $2 <= 3.
        assert_eq!(answers("c(X, X)"), 0);
        assert_eq!(answers("c(a, X)"), 1);
        // A symbol-valued query variable cannot enter arithmetic.
        assert_eq!(answers("c(X, Y), X <= 3"), 0);
    }
}
