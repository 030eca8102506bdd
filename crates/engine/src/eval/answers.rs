//! Query answering over a computed [`EvalResult`] or a [`Database`]'s base
//! facts: a query is a rule body without a head, so it is compiled and
//! matched like one.

use pcs_lang::{Literal, Pred, Query};

use super::matching::Frame;
use super::EvalResult;
use crate::database::Database;
use crate::fact::Fact;
use crate::plan::compile_query;
use crate::relation::Relation;

impl EvalResult {
    /// The answers to a query: the stored facts of the query literal's
    /// predicate that a rule body `L, C` would join with — compatible with
    /// the literal's constants, repeated variables (`?- q(X, X)`) and
    /// expression arguments (`?- q(X + 1)`), and satisfiable together with
    /// the side constraints (`?- q(X, Y), X <= 3`) — in insertion order.
    ///
    /// This is the single query entry point over a materialization.  The
    /// query is expected to have exactly one literal (the shape
    /// [`pcs_lang::parse_query`] produces for interactive queries;
    /// multi-literal queries are rewritten to a single query predicate
    /// before evaluation); extra literals are ignored, and a query with no
    /// literals has no answers.  An EDB predicate's relation holds only the
    /// base facts some rule body can read; [`Database::answers`] reads them
    /// all.
    ///
    /// Every stored fact is read, whatever the relation's stable/delta/
    /// pending partition: candidates come from the index on the first
    /// argument the side constraints resolve to a value (else all facts).
    pub fn answers(&self, query: &Query) -> Vec<Fact> {
        let Some(literal) = query.literals.first() else {
            return Vec::new();
        };
        match self.relations.get(&literal.predicate) {
            Some(relation) => answers_in(relation, literal, query),
            None => Vec::new(),
        }
    }
}

impl Database {
    /// The base facts of `pred` in a relation, as an evaluation that
    /// admitted every one of them would store them: in database order,
    /// without the facts an earlier one subsumes.
    pub fn relation(&self, pred: &Pred) -> Relation {
        let mut relation = Relation::new();
        for fact in self.facts_for(pred) {
            relation.insert_ref(fact);
        }
        relation
    }

    /// [`EvalResult::answers`] over every base fact of the query literal's
    /// predicate ([`Self::relation`]), admitted or not.
    pub fn answers(&self, query: &Query) -> Vec<Fact> {
        let Some(literal) = query.literals.first() else {
            return Vec::new();
        };
        answers_in(&self.relation(&literal.predicate), literal, query)
    }
}

/// The facts of `relation` that `literal` under `query`'s side constraints
/// matches, in insertion order.
fn answers_in(relation: &Relation, literal: &Literal, query: &Query) -> Vec<Fact> {
    let plan = compile_query(literal, &query.constraint);
    let mut frame = Frame::new(&plan);
    // Resolved up front, so that `?- q(X), X = 5` probes for 5.
    if !frame.enter(&plan) {
        return Vec::new();
    }
    let step = &plan.steps[0];
    let probe = step
        .probe
        .and_then(|pos| frame.key(&step.args[pos]).map(|value| (pos, value)));
    let probe_ref = probe.as_ref().map(|(pos, value)| (*pos, value));
    let mut candidates: Vec<usize> = relation
        .candidates(0..relation.slot_count(), probe_ref)
        .collect();
    // A probe yields exact matches before the constraint-fact tail;
    // answers come back in insertion order.
    candidates.sort_unstable();
    candidates
        .into_iter()
        .filter(|&index| {
            let mark = frame.mark();
            let matched = frame.match_literal(&plan, 1, literal, relation.fact_ref(index))
                && frame.is_consistent(&plan);
            frame.undo(mark);
            matched
        })
        .map(|index| relation.fact_at(index))
        .collect()
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
        // ...but, as in a rule body, no free position holds a symbol.
        assert_eq!(answers("half(madison, X)"), 0);
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
