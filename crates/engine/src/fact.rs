//! Constraint facts.
//!
//! A constraint fact `p(x̄; C)` (Section 2 of the paper) finitely represents
//! the possibly infinite set of ground facts satisfying the conjunction `C`.
//! [`Fact`] stores, per argument position, either a ground [`Value`] or a
//! *free* marker; the residual conjunction `C` is expressed over the argument
//! positions `$1..$n` of the free slots.  Ground facts (every position bound,
//! empty constraint) are the fast path throughout the engine.

use std::fmt;

use pcs_constraints::{Atom, Conjunction, LinearExpr, Var};
use pcs_lang::{Literal, Pred, Term};

use crate::value::Value;

/// One argument slot of a fact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Binding {
    /// The position holds a ground value.
    Bound(Value),
    /// The position is unconstrained or constrained only through the fact's
    /// residual conjunction.
    Free,
}

/// A constraint fact.
#[derive(Clone, PartialEq, Eq)]
pub struct Fact {
    predicate: Pred,
    bindings: Vec<Binding>,
    constraint: Conjunction,
}

impl Fact {
    /// Builds a normalized fact; returns `None` if the constraint is
    /// unsatisfiable.
    ///
    /// Normalization extracts positions that the constraint pins to a single
    /// numeric value into ground bindings and projects the residual
    /// constraint onto the remaining free positions, so that two facts
    /// denoting the same set of ground facts have the same bound positions.
    pub fn new(predicate: Pred, bindings: Vec<Binding>, constraint: Conjunction) -> Option<Fact> {
        if !constraint.is_satisfiable() {
            return None;
        }
        let mut bindings = bindings;
        let mut constraint = constraint;
        // Pin positions forced to a single value.
        let ground = constraint.ground_bindings();
        for (var, value) in &ground {
            if let Some(i) = var.position_index() {
                if i >= 1 && i <= bindings.len() {
                    if let Binding::Free = bindings[i - 1] {
                        bindings[i - 1] = Binding::Bound(Value::num(*value));
                        constraint = constraint.substitute(var, &LinearExpr::constant(*value));
                    }
                }
            }
        }
        // Keep only constraints over still-free positions.
        let keep: std::collections::BTreeSet<Var> = bindings
            .iter()
            .enumerate()
            .filter_map(|(i, b)| match b {
                Binding::Free => Some(Var::position(i + 1)),
                Binding::Bound(_) => None,
            })
            .collect();
        let constraint = constraint.project(&keep).simplify();
        if constraint == Conjunction::falsum() {
            return None;
        }
        Some(Fact {
            predicate,
            bindings,
            constraint,
        })
    }

    /// Builds a ground fact from values.
    pub fn ground(predicate: impl Into<Pred>, values: Vec<Value>) -> Fact {
        Fact {
            predicate: predicate.into(),
            bindings: values.into_iter().map(Binding::Bound).collect(),
            constraint: Conjunction::truth(),
        }
    }

    /// Builds a fully free constraint fact `p($1..$n; C)`.
    pub fn constrained(
        predicate: impl Into<Pred>,
        arity: usize,
        constraint: Conjunction,
    ) -> Option<Fact> {
        Fact::new(predicate.into(), vec![Binding::Free; arity], constraint)
    }

    /// The same fact on another predicate.
    pub fn renamed(self, predicate: Pred) -> Fact {
        Fact { predicate, ..self }
    }

    /// The predicate of this fact.
    pub fn predicate(&self) -> &Pred {
        &self.predicate
    }

    /// The arity of this fact.
    pub fn arity(&self) -> usize {
        self.bindings.len()
    }

    /// The per-position bindings.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// The ground value at `position` (0-based), or `None` if the position is
    /// free or out of range.  This is what the per-position relation indexes
    /// key on.
    pub fn bound_value(&self, position: usize) -> Option<&Value> {
        match self.bindings.get(position) {
            Some(Binding::Bound(value)) => Some(value),
            _ => None,
        }
    }

    /// The residual constraint over the free positions (`$i`).
    pub fn constraint(&self) -> &Conjunction {
        &self.constraint
    }

    /// Returns `true` if every position is bound and there is no residual
    /// constraint.
    pub fn is_ground(&self) -> bool {
        self.constraint.is_trivially_true()
            && self.bindings.iter().all(|b| matches!(b, Binding::Bound(_)))
    }

    /// The ground values, if the fact is ground.
    pub fn ground_values(&self) -> Option<Vec<Value>> {
        if !self.constraint.is_trivially_true() {
            return None;
        }
        self.bindings
            .iter()
            .map(|b| match b {
                Binding::Bound(v) => Some(v.clone()),
                Binding::Free => None,
            })
            .collect()
    }

    /// Splits a ground fact into its predicate and row of values — the form
    /// [`crate::Relation::insert_row`] stores — or hands a proper constraint
    /// fact back unchanged.
    pub fn into_ground_row(self) -> Result<(Pred, Vec<Value>), Fact> {
        if !self.is_ground() {
            return Err(self);
        }
        let row = self
            .bindings
            .into_iter()
            .map(|b| match b {
                Binding::Bound(value) => value,
                Binding::Free => unreachable!("ground facts have no free position"),
            })
            .collect();
        Ok((self.predicate, row))
    }

    /// Expresses the whole fact as a conjunction over the positions `$1..$n`
    /// (symbolic values excepted, which are reported separately).
    fn numeric_view(&self) -> (Conjunction, Vec<Option<&Value>>) {
        let mut conj = self.constraint.clone();
        let mut syms: Vec<Option<&Value>> = vec![None; self.bindings.len()];
        for (i, b) in self.bindings.iter().enumerate() {
            match b {
                Binding::Bound(v) => match v.as_num() {
                    Some(n) => conj.push(Atom::var_eq(Var::position(i + 1), n)),
                    None => syms[i] = Some(v),
                },
                Binding::Free => {}
            }
        }
        (conj, syms)
    }

    /// Decides whether this fact subsumes `other`: every ground instance of
    /// `other` is a ground instance of `self`.
    pub fn subsumes(&self, other: &Fact) -> bool {
        if self.predicate != other.predicate || self.arity() != other.arity() {
            return false;
        }
        for (i, (mine, theirs)) in self.bindings.iter().zip(&other.bindings).enumerate() {
            match (mine, theirs) {
                (Binding::Bound(a), Binding::Bound(b)) => match (a.as_sym(), b.as_sym()) {
                    (Some(x), Some(y)) => {
                        if x != y {
                            return false;
                        }
                    }
                    (Some(_), None) | (None, Some(_)) => return false,
                    (None, None) => {
                        // numeric vs numeric: handled by the implication
                        // check below
                    }
                },
                (Binding::Bound(_), Binding::Free) => return false,
                (Binding::Free, Binding::Bound(b)) if b.as_sym().is_some() => {
                    // A free position covers a symbolic value only when the
                    // residual constraint does not restrict it to numbers.
                    if self.constraint.contains_var(&Var::position(i + 1)) {
                        return false;
                    }
                }
                (Binding::Free, _) => {}
            }
        }
        let (self_conj, _) = self.numeric_view();
        let (other_conj, _) = other.numeric_view();
        other_conj.implies(&self_conj)
    }

    /// Decides whether this fact and `other` denote exactly the same set of
    /// ground facts (mutual subsumption).
    ///
    /// Normalization makes structurally equal facts the common case; the
    /// mutual-subsumption fallback also identifies facts whose residual
    /// constraints are written differently but are logically equivalent.
    /// Retraction matches the facts to delete with this relation, so a
    /// re-phrased constraint fact still names the stored fact it denotes.
    ///
    /// Two *ground* facts denote one ground fact each, so for them structural
    /// equality is the whole answer and the implication checks are skipped:
    /// a retraction's scan over an EDB of numeric ground facts compares
    /// values instead of running Fourier–Motzkin once per stored fact.
    pub fn equivalent(&self, other: &Fact) -> bool {
        self == other
            || (!(self.is_ground() && other.is_ground())
                && self.subsumes(other)
                && other.subsumes(self))
    }

    /// Deterministic estimate of the bytes this fact occupies: the struct
    /// itself, the binding vector, boxed rationals, and a flat per-atom
    /// charge for the residual constraint.  Used by the memory-footprint
    /// accounting (see `Relation::approx_fact_bytes`); comparisons between
    /// storage layouts use this same estimator on both sides.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Fact>()
            + self.bindings.len() * std::mem::size_of::<Binding>()
            + self
                .bindings
                .iter()
                .map(|b| match b {
                    Binding::Bound(v) => v.heap_bytes(),
                    Binding::Free => 0,
                })
                .sum::<usize>()
            + self.constraint.atoms().len() * 96
    }

    /// Converts the fact into a body-less rule (constraint fact) with the
    /// given variable names for the free positions, for display and
    /// re-injection into programs.
    pub fn to_literal_and_constraint(&self) -> (Literal, Conjunction) {
        let args: Vec<Term> = self
            .bindings
            .iter()
            .enumerate()
            .map(|(i, b)| match b {
                Binding::Bound(v) => match v.as_num() {
                    Some(n) => Term::num(n),
                    None => Term::Sym(*v.as_sym().expect("non-numeric value is a symbol")),
                },
                Binding::Free => Term::var(Var::position(i + 1)),
            })
            .collect();
        (
            Literal::new(self.predicate.clone(), args),
            self.constraint.clone(),
        )
    }

    /// The *parseable* rule form of the fact (no trailing period): `p(a, 1)`
    /// for ground facts, `p($1) :- $1 >= 0, $1 <= 10` for constraint facts.
    ///
    /// [`Fact`]'s `Display` (`lit; constraint`) is a listing format the fact
    /// parser does not accept; this form feeds back through
    /// [`crate::parse_facts`] unchanged, which is what the service layer's
    /// write-ahead log and snapshots persist.
    pub fn rule_text(&self) -> String {
        if self.is_ground() {
            return self.to_string();
        }
        let (literal, constraint) = self.to_literal_and_constraint();
        if constraint.is_trivially_true() {
            literal.to_string()
        } else {
            let atoms: Vec<String> = constraint.atoms().iter().map(ToString::to_string).collect();
            format!("{literal} :- {}", atoms.join(", "))
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A ground fact writes its values as they are, without building a
        // literal.
        if self.is_ground() {
            let values = self.bindings.iter().filter_map(|binding| match binding {
                Binding::Bound(value) => Some(value),
                Binding::Free => None,
            });
            return pcs_lang::write_atom(f, &self.predicate, values);
        }
        let (lit, constraint) = self.to_literal_and_constraint();
        if constraint.is_trivially_true() {
            write!(f, "{lit}")
        } else {
            write!(f, "{lit}; {constraint}")
        }
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_constraints::Atom;

    fn pos(i: usize) -> Var {
        Var::position(i)
    }

    #[test]
    fn normalization_pins_forced_positions() {
        // p($1, $2; $1 = 3 & $2 <= 5) normalizes to p(3, $2; $2 <= 5).
        let fact = Fact::constrained(
            "p",
            2,
            Conjunction::from_atoms([Atom::var_eq(pos(1), 3), Atom::var_le(pos(2), 5)]),
        )
        .unwrap();
        assert_eq!(fact.bindings()[0], Binding::Bound(Value::num(3)));
        assert_eq!(fact.bindings()[1], Binding::Free);
        assert!(!fact.is_ground());
        assert!(fact.constraint().implies_atom(&Atom::var_le(pos(2), 5)));
    }

    #[test]
    fn unsatisfiable_constraints_produce_no_fact() {
        let fact = Fact::constrained(
            "p",
            1,
            Conjunction::from_atoms([Atom::var_lt(pos(1), 0), Atom::var_gt(pos(1), 0)]),
        );
        assert!(fact.is_none());
    }

    #[test]
    fn ground_fact_round_trip() {
        let fact = Fact::ground("flight", vec![Value::sym("madison"), Value::num(100)]);
        assert!(fact.is_ground());
        assert_eq!(
            fact.ground_values(),
            Some(vec![Value::sym("madison"), Value::num(100)])
        );
        assert_eq!(fact.to_string(), "flight(madison, 100)");
    }

    #[test]
    fn subsumption_between_constraint_facts() {
        // m_fib($1; $1 > 0) subsumes m_fib(2) and m_fib($1; $1 > 1),
        // but not m_fib($1; $1 > -1) or m_fib(0).
        let broad =
            Fact::constrained("m_fib", 1, Conjunction::of(Atom::var_gt(pos(1), 0))).unwrap();
        let ground = Fact::ground("m_fib", vec![Value::num(2)]);
        let narrower =
            Fact::constrained("m_fib", 1, Conjunction::of(Atom::var_gt(pos(1), 1))).unwrap();
        let wider =
            Fact::constrained("m_fib", 1, Conjunction::of(Atom::var_gt(pos(1), -1))).unwrap();
        let zero = Fact::ground("m_fib", vec![Value::num(0)]);

        assert!(broad.subsumes(&ground));
        assert!(broad.subsumes(&narrower));
        assert!(broad.subsumes(&broad));
        assert!(!broad.subsumes(&wider));
        assert!(!broad.subsumes(&zero));
        assert!(!ground.subsumes(&broad));
    }

    #[test]
    fn subsumption_respects_symbols() {
        let a = Fact::ground("p", vec![Value::sym("x"), Value::num(1)]);
        let b = Fact::ground("p", vec![Value::sym("x"), Value::num(1)]);
        let c = Fact::ground("p", vec![Value::sym("y"), Value::num(1)]);
        assert!(a.subsumes(&b));
        assert!(!a.subsumes(&c));
        // A fully-free fact subsumes a symbolic one only if unconstrained.
        let free = Fact::constrained("p", 2, Conjunction::truth()).unwrap();
        assert!(free.subsumes(&a));
        let constrained_free =
            Fact::constrained("p", 2, Conjunction::of(Atom::var_ge(pos(1), 0))).unwrap();
        assert!(!constrained_free.subsumes(&a));
    }

    #[test]
    fn equivalence_of_ground_facts_is_equality_and_of_the_rest_is_denotation() {
        let a = Fact::ground("p", vec![Value::num(1), Value::num(2)]);
        let b = Fact::ground("p", vec![Value::num(1), Value::num(3)]);
        assert!(a.equivalent(&a.clone()));
        assert!(!a.equivalent(&b) && !b.equivalent(&a));
        // A constraint fact pinned to one point normalizes to the ground
        // fact it denotes.
        let pinned = Fact::constrained(
            "p",
            2,
            Conjunction::from_atoms([Atom::var_eq(pos(1), 1), Atom::var_eq(pos(2), 2)]),
        )
        .unwrap();
        assert!(pinned.is_ground() && pinned.equivalent(&a));
        // Proper constraint facts still go by denotation: one-way
        // subsumption is not equivalence, and none equals a ground fact.
        let narrow = Fact::constrained("p", 2, Conjunction::of(Atom::var_ge(pos(1), 1))).unwrap();
        let wide = Fact::constrained("p", 2, Conjunction::of(Atom::var_gt(pos(1), 0))).unwrap();
        assert!(wide.subsumes(&narrow) && !narrow.equivalent(&wide));
        assert!(narrow.subsumes(&a) && !narrow.equivalent(&a) && !a.equivalent(&narrow));
    }

    #[test]
    fn different_predicates_or_arities_never_subsume() {
        let a = Fact::ground("p", vec![Value::num(1)]);
        let b = Fact::ground("q", vec![Value::num(1)]);
        let c = Fact::ground("p", vec![Value::num(1), Value::num(2)]);
        assert!(!a.subsumes(&b));
        assert!(!a.subsumes(&c));
    }

    /// A ground fact renders, as a listing and as rule text, byte for byte
    /// what its literal renders: over `i64` integers at both extremes,
    /// non-integer and `i64`-overflowing rationals, symbols and arity 0.
    #[test]
    fn ground_facts_render_like_their_literal() {
        use pcs_constraints::Rational;
        use proptest::test_runner::TestRng;

        for case in 0..512 {
            let mut rng = TestRng::for_case(case);
            let arity = rng.below(5) as usize;
            let values: Vec<Value> = (0..arity)
                .map(|_| match rng.below(6) {
                    0 => Value::num(rng.below(2000) as i64 - 1000),
                    1 => Value::num(rng.next_u64() as i64),
                    2 => Value::num([i64::MIN, i64::MAX, 0, -1][rng.below(4) as usize]),
                    3 => {
                        let numer = rng.below(2001) as i128 - 1000;
                        let denom = rng.below(12) as i128 + 2;
                        Value::num(Rational::new(numer, denom).unwrap())
                    }
                    4 => Value::num(Rational::from_int(
                        i128::from(i64::MAX) + 1 + rng.below(9) as i128,
                    )),
                    _ => Value::sym(["madison", "c0", "a_b", "x"][rng.below(4) as usize]),
                })
                .collect();
            let fact = Fact::ground(["p", "flight", "q_bf"][case as usize % 3], values);
            let (literal, constraint) = fact.to_literal_and_constraint();
            assert!(constraint.is_trivially_true());
            assert_eq!(fact.to_string(), literal.to_string(), "case {case}");
            assert_eq!(fact.rule_text(), literal.to_string(), "case {case}");
        }
    }
}
