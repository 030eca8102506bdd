//! Programs, queries, and the program dependency structure.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use pcs_constraints::{Conjunction, Var, VarGen};

use crate::graph::RuleGraph;
use crate::literal::{Literal, Pred};
use crate::rule::Rule;
use crate::term::Term;

/// A query `?- C, p(t1, ..., tn).` on a program.
///
/// Following Section 2 of the paper, a query can be converted into an extra
/// rule defining a new query predicate with all arguments free
/// (see [`Program::attach_query_rule`]).
#[derive(Clone, PartialEq, Eq)]
pub struct Query {
    /// The literals of the query (usually one).
    pub literals: Vec<Literal>,
    /// Constraints in the query body.
    pub constraint: Conjunction,
}

impl Query {
    /// Creates a query on a single literal.
    pub fn new(literal: Literal) -> Self {
        Query {
            literals: vec![literal],
            constraint: Conjunction::truth(),
        }
    }

    /// Creates a query with constraints.
    pub fn with_constraint(literals: Vec<Literal>, constraint: Conjunction) -> Self {
        Query {
            literals,
            constraint,
        }
    }

    /// The variables of the query, in order of first occurrence.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = Vec::new();
        for lit in &self.literals {
            for v in lit.vars() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        for v in self.constraint.vars() {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// The predicates mentioned by the query.
    pub fn predicates(&self) -> BTreeSet<Pred> {
        self.literals.iter().map(|l| l.predicate.clone()).collect()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = self
            .constraint
            .atoms()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        parts.extend(self.literals.iter().map(std::string::ToString::to_string));
        write!(f, "?- {}.", parts.join(", "))
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A constraint query language program: a finite set of rules, a set of EDB
/// (database) predicate declarations, and optionally a query.
#[derive(Clone, Default)]
pub struct Program {
    rules: Vec<Rule>,
    edb: BTreeSet<Pred>,
    query: Option<Query>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Adds a rule, builder style.
    pub fn with_rule(mut self, rule: Rule) -> Self {
        self.add_rule(rule);
        self
    }

    /// Declares a predicate as an EDB (database) predicate.
    pub fn declare_edb(&mut self, pred: impl Into<Pred>) {
        self.edb.insert(pred.into());
    }

    /// Declares EDB predicates, builder style.
    pub fn with_edb<I, P>(mut self, preds: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: Into<Pred>,
    {
        for p in preds {
            self.declare_edb(p);
        }
        self
    }

    /// Sets the query.
    pub fn set_query(&mut self, query: Query) {
        self.query = Some(query);
    }

    /// Sets the query, builder style.
    pub fn with_query(mut self, query: Query) -> Self {
        self.set_query(query);
        self
    }

    /// The rules of the program.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The query, if any.
    pub fn query(&self) -> Option<&Query> {
        self.query.as_ref()
    }

    /// The declared EDB predicates plus any predicate that is used in a body
    /// but never defined by a rule.
    pub fn edb_predicates(&self) -> BTreeSet<Pred> {
        let defined: BTreeSet<Pred> = self
            .rules
            .iter()
            .map(|r| r.head.predicate.clone())
            .collect();
        let mut edb = self.edb.clone();
        for rule in &self.rules {
            for lit in &rule.body {
                if !defined.contains(&lit.predicate) {
                    edb.insert(lit.predicate.clone());
                }
            }
        }
        if let Some(q) = &self.query {
            for lit in &q.literals {
                if !defined.contains(&lit.predicate) {
                    edb.insert(lit.predicate.clone());
                }
            }
        }
        edb
    }

    /// The derived (IDB) predicates: those defined by at least one rule.
    pub fn idb_predicates(&self) -> BTreeSet<Pred> {
        self.rules
            .iter()
            .map(|r| r.head.predicate.clone())
            .collect()
    }

    /// Every predicate mentioned anywhere in the program.
    pub fn all_predicates(&self) -> BTreeSet<Pred> {
        let mut set = self.edb_predicates();
        set.extend(self.idb_predicates());
        set
    }

    /// The rules whose head predicate is `pred`.
    pub fn rules_for(&self, pred: &Pred) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(|r| &r.head.predicate == pred)
            .collect()
    }

    /// The arity of a predicate, determined from its first occurrence.
    pub fn arity(&self, pred: &Pred) -> Option<usize> {
        for rule in &self.rules {
            if &rule.head.predicate == pred {
                return Some(rule.head.arity());
            }
            for lit in &rule.body {
                if &lit.predicate == pred {
                    return Some(lit.arity());
                }
            }
        }
        if let Some(q) = &self.query {
            for lit in &q.literals {
                if &lit.predicate == pred {
                    return Some(lit.arity());
                }
            }
        }
        None
    }

    /// Flattens every rule (see [`Rule::flattened`]).
    pub fn flattened(&self) -> Program {
        let mut gen = VarGen::with_prefix("_f");
        let rules = self.rules.iter().map(|r| r.flattened(&mut gen)).collect();
        Program {
            rules,
            edb: self.edb.clone(),
            query: self.query.clone(),
        }
    }

    /// Returns `true` if every rule is range restricted.
    pub fn is_range_restricted(&self) -> bool {
        self.rules.iter().all(Rule::is_range_restricted)
    }

    /// Converts the query into a rule `q#(V̄) :- C, l1, ..., ln.` defining a
    /// new query predicate (Section 2), returning the modified program and
    /// the new query predicate.
    ///
    /// The new predicate's arguments are the distinct variables of the query,
    /// all free.  If the program has no query, `None` is returned.
    pub fn attach_query_rule(&self) -> Option<(Program, Pred)> {
        let query = self.query.as_ref()?;
        let mut name = "q#".to_string();
        while self.all_predicates().contains(&Pred::new(&name)) {
            name.push('#');
        }
        let query_pred = Pred::new(&name);
        let vars = query.vars();
        let head = Literal::new(
            query_pred.clone(),
            vars.iter().cloned().map(Term::Var).collect(),
        );
        let rule =
            Rule::new(head, query.literals.clone(), query.constraint.clone()).with_label("r_query");
        let mut program = self.clone();
        program.add_rule(rule);
        Some((program, query_pred))
    }

    /// The rule-level dependency structure of this program (dependency
    /// edges, SCCs, strata, reachability) — see [`RuleGraph`].
    pub fn graph(&self) -> RuleGraph {
        RuleGraph::new(self)
    }

    /// The predicate dependency graph: `p -> q` if `q` occurs in the body of
    /// a rule defining `p`.
    pub fn dependencies(&self) -> BTreeMap<Pred, BTreeSet<Pred>> {
        self.graph().dependencies().clone()
    }

    /// The predicates reachable from `start` in the dependency graph
    /// (including `start` itself).
    pub fn reachable_from(&self, start: &Pred) -> BTreeSet<Pred> {
        self.graph().reachable_from(start)
    }

    /// Removes rules whose head predicate no query predicate reaches; a
    /// program without a query keeps every rule.
    pub fn retain_query_reachable(&self) -> Program {
        let Some(reachable) = self.graph().reachable_from_query() else {
            return self.clone();
        };
        Program {
            rules: self
                .rules
                .iter()
                .filter(|r| reachable.contains(&r.head.predicate))
                .cloned()
                .collect(),
            edb: self.edb.clone(),
            query: self.query.clone(),
        }
    }

    /// Strongly connected components of the derived predicates, returned in a
    /// reverse topological order (every component only depends on components
    /// that appear *earlier* in the returned list).
    ///
    /// The GMT grounding procedure of Section 6.2 processes SCCs in
    /// topological order starting from the query predicate's component; use
    /// `.rev()` on the result for that order.  Delegates to
    /// [`RuleGraph::sccs`].
    pub fn sccs(&self) -> Vec<BTreeSet<Pred>> {
        self.graph().sccs()
    }

    /// Returns `true` if `p` and `q` are mutually recursive (in the same SCC).
    pub fn mutually_recursive(&self, p: &Pred, q: &Pred) -> bool {
        self.sccs().iter().any(|c| c.contains(p) && c.contains(q))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        if let Some(q) = &self.query {
            writeln!(f, "{q}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_constraints::Atom;

    fn simple_program() -> Program {
        // q(X,Y) :- a(X,Y), X <= 4.
        // a(X,Y) :- b(X,Z), a(Z,Y).
        // a(X,Y) :- b(X,Y).
        Program::new()
            .with_rule(Rule::new(
                Literal::new("q", vec![Term::var("X"), Term::var("Y")]),
                vec![Literal::new("a", vec![Term::var("X"), Term::var("Y")])],
                Conjunction::of(Atom::var_le(Var::new("X"), 4)),
            ))
            .with_rule(Rule::new(
                Literal::new("a", vec![Term::var("X"), Term::var("Y")]),
                vec![
                    Literal::new("b", vec![Term::var("X"), Term::var("Z")]),
                    Literal::new("a", vec![Term::var("Z"), Term::var("Y")]),
                ],
                Conjunction::truth(),
            ))
            .with_rule(Rule::new(
                Literal::new("a", vec![Term::var("X"), Term::var("Y")]),
                vec![Literal::new("b", vec![Term::var("X"), Term::var("Y")])],
                Conjunction::truth(),
            ))
            .with_query(Query::new(Literal::new(
                "q",
                vec![Term::var("U"), Term::var("V")],
            )))
    }

    #[test]
    fn edb_and_idb_classification() {
        let p = simple_program();
        let idb = p.idb_predicates();
        assert!(idb.contains(&Pred::new("q")));
        assert!(idb.contains(&Pred::new("a")));
        let edb = p.edb_predicates();
        assert!(edb.contains(&Pred::new("b")));
        assert!(!edb.contains(&Pred::new("a")));
        assert_eq!(p.arity(&Pred::new("b")), Some(2));
        assert_eq!(p.arity(&Pred::new("nonexistent")), None);
    }

    #[test]
    fn query_rule_attachment() {
        let p = simple_program();
        let (with_query, qpred) = p.attach_query_rule().unwrap();
        assert_eq!(with_query.rules().len(), p.rules().len() + 1);
        let rule = with_query.rules_for(&qpred);
        assert_eq!(rule.len(), 1);
        assert_eq!(rule[0].head.arity(), 2);
        assert!(rule[0].head.args_are_distinct_vars());
    }

    #[test]
    fn reachability_and_retention() {
        let mut p = simple_program();
        // Add an unreachable predicate.
        p.add_rule(Rule::new(
            Literal::new("orphan", vec![Term::var("X")]),
            vec![Literal::new("b", vec![Term::var("X"), Term::var("X")])],
            Conjunction::truth(),
        ));
        let reachable = p.reachable_from(&Pred::new("q"));
        assert!(reachable.contains(&Pred::new("a")));
        assert!(reachable.contains(&Pred::new("b")));
        assert!(!reachable.contains(&Pred::new("orphan")));
        let trimmed = p.retain_query_reachable();
        assert!(trimmed.rules_for(&Pred::new("orphan")).is_empty());
        assert_eq!(trimmed.rules().len(), p.rules().len() - 1);
        // Without a query every rule is kept.
        let mut unqueried = Program::new();
        for rule in p.rules() {
            unqueried.add_rule(rule.clone());
        }
        assert_eq!(unqueried.retain_query_reachable().rules(), p.rules());
    }

    #[test]
    fn scc_structure() {
        let p = simple_program();
        let sccs = p.sccs();
        // Two components: {a} (recursive) and {q}.
        assert_eq!(sccs.len(), 2);
        assert!(p.mutually_recursive(&Pred::new("a"), &Pred::new("a")));
        assert!(!p.mutually_recursive(&Pred::new("q"), &Pred::new("a")));
        // Reverse topological: `a` must come before `q`.
        let a_idx = sccs
            .iter()
            .position(|c| c.contains(&Pred::new("a")))
            .unwrap();
        let q_idx = sccs
            .iter()
            .position(|c| c.contains(&Pred::new("q")))
            .unwrap();
        assert!(a_idx < q_idx);
    }

    #[test]
    fn display_round_trips_structure() {
        let p = simple_program();
        let text = p.to_string();
        assert!(text.contains("q(X, Y) :-"));
        assert!(text.contains("?- q(U, V)."));
    }
}
