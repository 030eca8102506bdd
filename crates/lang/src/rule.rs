//! Rules of a constraint query language program.

use std::collections::BTreeSet;
use std::fmt;

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Var, VarGen};

use crate::literal::{Literal, Pred};
use crate::term::Term;

/// A source position (1-based line and column) attached to a parsed
/// statement, so diagnostics can point at the offending rule instead of just
/// naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Line number (1-based).
    pub line: usize,
    /// Column number (1-based).
    pub column: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// A rule `head :- C, l1, ..., ln.` where `C` is a conjunction of linear
/// arithmetic constraints and `l1..ln` are ordinary literals.
///
/// A rule with no body literals is a *constraint fact* (Section 2 of the
/// paper): a finite representation of the possibly infinite set of ground
/// facts satisfying its constraints.
#[derive(Clone)]
pub struct Rule {
    /// The head literal.
    pub head: Literal,
    /// The ordinary (non-constraint) body literals, in sip order.
    pub body: Vec<Literal>,
    /// The conjunction of constraints in the body.
    pub constraint: Conjunction,
    /// An optional label (`r1`, `mr2`, ...) used for display and statistics.
    pub label: Option<String>,
    /// The source position of the statement this rule was parsed from, if it
    /// came from the parser.  Ignored by equality: two rules that differ only
    /// in where they were written are the same rule.
    pub span: Option<Span>,
}

impl PartialEq for Rule {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head
            && self.body == other.body
            && self.constraint == other.constraint
            && self.label == other.label
    }
}

impl Eq for Rule {}

impl Rule {
    /// Creates a rule.
    pub fn new(head: Literal, body: Vec<Literal>, constraint: Conjunction) -> Self {
        Rule {
            head,
            body,
            constraint,
            label: None,
            span: None,
        }
    }

    /// Creates a fact (a rule with an empty body and no constraints).
    pub fn fact(head: Literal) -> Self {
        Rule::new(head, Vec::new(), Conjunction::truth())
    }

    /// Attaches a label to the rule.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Attaches a source position to the rule (the parser records where each
    /// statement started).
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Returns `true` if the rule has no ordinary body literals.
    pub fn is_constraint_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// All variables appearing anywhere in the rule.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut vars: BTreeSet<Var> = BTreeSet::new();
        vars.extend(self.head.vars());
        for lit in &self.body {
            vars.extend(lit.vars());
        }
        vars.extend(self.constraint.vars());
        vars
    }

    /// Variables appearing in the head.
    pub fn head_vars(&self) -> BTreeSet<Var> {
        self.head.vars().into_iter().collect()
    }

    /// Variables appearing in ordinary body literals.
    pub fn body_literal_vars(&self) -> BTreeSet<Var> {
        let mut vars = BTreeSet::new();
        for lit in &self.body {
            vars.extend(lit.vars());
        }
        vars
    }

    /// Returns `true` if every head variable occurs in an ordinary body
    /// literal (range restriction, footnote 8 of the paper).
    ///
    /// Range restriction is a sufficient syntactic condition for the
    /// bottom-up evaluation of the rule to produce only ground facts when the
    /// body facts are ground.
    pub fn is_range_restricted(&self) -> bool {
        let body_vars = self.body_literal_vars();
        self.head_vars().iter().all(|v| body_vars.contains(v))
    }

    /// Renames every variable of the rule using the given mapping.
    pub fn rename(&self, mapping: &dyn Fn(&Var) -> Var) -> Rule {
        Rule {
            head: self.head.rename(mapping),
            body: self.body.iter().map(|l| l.rename(mapping)).collect(),
            constraint: self.constraint.rename(mapping),
            label: self.label.clone(),
            span: self.span,
        }
    }

    /// Produces a variant of the rule whose variables are all fresh
    /// (standardizing apart before unfolding / rule application).
    pub fn freshened(&self, gen: &mut VarGen) -> Rule {
        let vars = self.vars();
        let mapping: std::collections::BTreeMap<Var, Var> = vars
            .into_iter()
            .map(|v| {
                let fresh = gen.fresh_named(v.name().trim_start_matches('_'));
                (v, fresh)
            })
            .collect();
        self.rename(&|v: &Var| mapping.get(v).cloned().unwrap_or_else(|| v.clone()))
    }

    /// Flattens the rule so that every literal argument (head and body) is a
    /// variable, a numeric constant, or a symbolic constant.
    ///
    /// Arithmetic-expression arguments such as `fib(N - 1, X1)` are replaced
    /// by a fresh variable plus an equality constraint `_v = N - 1` in the
    /// rule body.  Transformations and the evaluation engine assume flattened
    /// rules.
    pub fn flattened(&self, gen: &mut VarGen) -> Rule {
        let mut constraint = self.constraint.clone();
        let mut flatten_literal = |lit: &Literal, constraint: &mut Conjunction| -> Literal {
            let args = lit
                .args
                .iter()
                .map(|arg| match arg {
                    Term::Expr(e) => {
                        let fresh = gen.fresh_named("flat");
                        constraint.push(Atom::compare(
                            LinearExpr::var(fresh.clone()),
                            CmpOp::Eq,
                            e.clone(),
                        ));
                        Term::Var(fresh)
                    }
                    other => other.clone(),
                })
                .collect();
            Literal::new(lit.predicate.clone(), args)
        };
        let head = flatten_literal(&self.head, &mut constraint);
        let body = self
            .body
            .iter()
            .map(|l| flatten_literal(l, &mut constraint))
            .collect();
        Rule {
            head,
            body,
            constraint,
            label: self.label.clone(),
            span: self.span,
        }
    }

    /// Returns `true` if no literal argument is an arithmetic expression.
    pub fn is_flat(&self) -> bool {
        let check = |lit: &Literal| lit.args.iter().all(|a| !matches!(a, Term::Expr(_)));
        check(&self.head) && self.body.iter().all(check)
    }

    /// The predicates of the ordinary body literals.
    pub fn body_predicates(&self) -> BTreeSet<Pred> {
        self.body.iter().map(|l| l.predicate.clone()).collect()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(label) = &self.label {
            write!(f, "{label}: ")?;
        }
        write!(f, "{}", self.head)?;
        let mut parts: Vec<String> = Vec::new();
        if !self.constraint.is_trivially_true() {
            for atom in self.constraint.atoms() {
                parts.push(atom.to_string());
            }
        }
        for lit in &self.body {
            parts.push(lit.to_string());
        }
        if parts.is_empty() {
            write!(f, ".")
        } else {
            write!(f, " :- {}.", parts.join(", "))
        }
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fib_rule() -> Rule {
        // fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).
        let n = Var::new("N");
        let x1 = Var::new("X1");
        let x2 = Var::new("X2");
        Rule::new(
            Literal::new(
                "fib",
                vec![
                    Term::var(n.clone()),
                    Term::expr(LinearExpr::var(x1.clone()) + LinearExpr::var(x2.clone())),
                ],
            ),
            vec![
                Literal::new(
                    "fib",
                    vec![
                        Term::expr(LinearExpr::var(n.clone()) - LinearExpr::constant(1)),
                        Term::var(x1),
                    ],
                ),
                Literal::new(
                    "fib",
                    vec![
                        Term::expr(LinearExpr::var(n.clone()) - LinearExpr::constant(2)),
                        Term::var(x2),
                    ],
                ),
            ],
            Conjunction::of(Atom::var_gt(n, 1)),
        )
    }

    #[test]
    fn flattening_removes_expression_arguments() {
        let rule = fib_rule();
        assert!(!rule.is_flat());
        let mut gen = VarGen::new();
        let flat = rule.flattened(&mut gen);
        assert!(flat.is_flat());
        // Three expression arguments were replaced, adding three equalities.
        assert_eq!(flat.constraint.len(), rule.constraint.len() + 3);
        // The flat rule mentions the same predicates.
        assert_eq!(flat.body_predicates(), rule.body_predicates());
    }

    #[test]
    fn range_restriction() {
        let rr = Rule::new(
            Literal::new("q", vec![Term::var("X")]),
            vec![Literal::new("p", vec![Term::var("X"), Term::var("Y")])],
            Conjunction::truth(),
        );
        assert!(rr.is_range_restricted());
        let not_rr = Rule::new(
            Literal::new("q", vec![Term::var("Z")]),
            vec![Literal::new("p", vec![Term::var("X"), Term::var("Y")])],
            Conjunction::truth(),
        );
        assert!(!not_rr.is_range_restricted());
        // Constraint facts with variables in the head are not range restricted.
        let cf = Rule::new(
            Literal::new("q", vec![Term::var("Z")]),
            vec![],
            Conjunction::of(Atom::var_le(Var::new("Z"), 4)),
        );
        assert!(!cf.is_range_restricted());
    }

    #[test]
    fn freshening_standardizes_apart() {
        let rule = fib_rule();
        let mut gen = VarGen::new();
        let fresh = rule.freshened(&mut gen);
        let original_vars = rule.vars();
        let fresh_vars = fresh.vars();
        assert!(original_vars.is_disjoint(&fresh_vars));
        assert_eq!(original_vars.len(), fresh_vars.len());
    }

    #[test]
    fn display_shows_constraints_and_literals() {
        let rule = fib_rule().with_label("r3");
        let text = rule.to_string();
        assert!(text.starts_with("r3: fib("));
        assert!(text.contains(":-"));
        assert!(text.ends_with('.'));
    }
}
