//! Constraint sets: disjunctions of conjunctions (DNF) of linear constraints.
//!
//! A *constraint set* (Definition 2.3) is a disjunction of conjunctions of
//! constraints.  Predicate constraints, QRP constraints and the constraints
//! attached to relations are all constraint sets.  This module implements the
//! operations the paper's procedures need: implication (`⟹`, the paper's
//! "`⊐`"), conjunction/disjunction, projection, redundant-disjunct
//! elimination, the non-overlapping rewriting of Section 4.6 and the
//! "bound the number of disjuncts to one" simplification.

use std::collections::BTreeSet;
use std::fmt;

use crate::atom::Atom;
use crate::conjunction::Conjunction;
use crate::linear::LinearExpr;
use crate::rational::Rational;
use crate::var::Var;

/// Default branch budget for exact DNF implication checks.
///
/// Implication of `d ⟹ (c1 ∨ ... ∨ cm)` requires case-splitting over the
/// negations of the `cᵢ`; the budget bounds the number of branches explored
/// before falling back to a sound under-approximation (see
/// [`ConstraintSet::implies_with_budget`]).
pub const DEFAULT_IMPLICATION_BUDGET: usize = 16_384;

/// A constraint set in disjunctive normal form.
///
/// The empty disjunction is `false`; the set containing the empty conjunction
/// is `true`.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ConstraintSet {
    disjuncts: Vec<Conjunction>,
}

impl ConstraintSet {
    /// The unsatisfiable constraint set (`false`).
    pub fn falsum() -> Self {
        ConstraintSet {
            disjuncts: Vec::new(),
        }
    }

    /// The trivially true constraint set (`true`).
    pub fn truth() -> Self {
        ConstraintSet {
            disjuncts: vec![Conjunction::truth()],
        }
    }

    /// A constraint set with a single disjunct.
    pub fn of(conjunction: Conjunction) -> Self {
        let mut set = ConstraintSet::falsum();
        set.add_disjunct(conjunction);
        set
    }

    /// A constraint set with a single one-atom disjunct.
    pub fn of_atom(atom: Atom) -> Self {
        ConstraintSet::of(Conjunction::of(atom))
    }

    /// Builds a constraint set from disjuncts, dropping unsatisfiable and
    /// redundant (implied) ones.
    pub fn from_disjuncts<I: IntoIterator<Item = Conjunction>>(disjuncts: I) -> Self {
        let mut set = ConstraintSet::falsum();
        for d in disjuncts {
            set.add_disjunct(d);
        }
        set
    }

    /// The disjuncts of this set.
    pub fn disjuncts(&self) -> &[Conjunction] {
        &self.disjuncts
    }

    /// Number of disjuncts.
    pub fn num_disjuncts(&self) -> usize {
        self.disjuncts.len()
    }

    /// Returns `true` if the set is syntactically `false` (no disjuncts).
    pub fn is_false(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Returns `true` if some disjunct is the empty conjunction.
    pub fn is_trivially_true(&self) -> bool {
        self.disjuncts
            .iter()
            .any(super::conjunction::Conjunction::is_trivially_true)
    }

    /// Returns `true` if some disjunct is satisfiable.
    pub fn is_satisfiable(&self) -> bool {
        self.disjuncts
            .iter()
            .any(super::conjunction::Conjunction::is_satisfiable)
    }

    /// The set of variables mentioned.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut set = BTreeSet::new();
        for d in &self.disjuncts {
            set.extend(d.vars());
        }
        set
    }

    /// Adds a disjunct unless it is unsatisfiable or implied by an existing
    /// disjunct.  Returns `true` if the disjunct was added.
    ///
    /// This is the "eliminate redundant disjuncts" step of
    /// `Gen_QRP_constraints` (Section 4.2).
    pub fn add_disjunct(&mut self, conjunction: Conjunction) -> bool {
        if !conjunction.is_satisfiable() {
            return false;
        }
        if self
            .disjuncts
            .iter()
            .any(|existing| conjunction.implies(existing))
        {
            return false;
        }
        // Drop existing disjuncts that the new one subsumes.
        self.disjuncts
            .retain(|existing| !existing.implies(&conjunction));
        self.disjuncts.push(conjunction);
        true
    }

    /// Disjunction of two constraint sets.
    pub fn or(&self, other: &ConstraintSet) -> ConstraintSet {
        let mut result = self.clone();
        for d in &other.disjuncts {
            result.add_disjunct(d.clone());
        }
        result
    }

    /// Conjunction of two constraint sets ("after conversion to DNF",
    /// Proposition 2.2).
    pub fn and(&self, other: &ConstraintSet) -> ConstraintSet {
        let mut result = ConstraintSet::falsum();
        for a in &self.disjuncts {
            for b in &other.disjuncts {
                result.add_disjunct(a.and(b));
            }
        }
        result
    }

    /// Conjoins a single conjunction onto every disjunct.
    pub fn and_conjunction(&self, conjunction: &Conjunction) -> ConstraintSet {
        ConstraintSet::from_disjuncts(self.disjuncts.iter().map(|d| d.and(conjunction)))
    }

    /// Projects every disjunct onto `keep` (existential quantifier
    /// elimination).
    pub fn project(&self, keep: &BTreeSet<Var>) -> ConstraintSet {
        ConstraintSet::from_disjuncts(self.disjuncts.iter().map(|d| d.project(keep)))
    }

    /// Eliminates the given variables from every disjunct.
    pub fn eliminate_vars<'a, I>(&self, vars: I) -> ConstraintSet
    where
        I: IntoIterator<Item = &'a Var> + Clone,
    {
        ConstraintSet::from_disjuncts(
            self.disjuncts
                .iter()
                .map(|d| d.eliminate_vars(vars.clone())),
        )
    }

    /// Substitutes a variable by a linear expression in every disjunct.
    pub fn substitute(&self, var: &Var, replacement: &LinearExpr) -> ConstraintSet {
        ConstraintSet::from_disjuncts(
            self.disjuncts
                .iter()
                .map(|d| d.substitute(var, replacement)),
        )
    }

    /// Renames variables in every disjunct.
    pub fn rename(&self, mapping: &dyn Fn(&Var) -> Var) -> ConstraintSet {
        ConstraintSet::from_disjuncts(self.disjuncts.iter().map(|d| d.rename(mapping)))
    }

    /// Simplifies each disjunct and drops redundant disjuncts.
    pub fn simplify(&self) -> ConstraintSet {
        ConstraintSet::from_disjuncts(
            self.disjuncts
                .iter()
                .map(super::conjunction::Conjunction::simplify),
        )
    }

    /// Decides whether a single conjunction implies this constraint set,
    /// i.e. `conjunction ⟹ (d1 ∨ ... ∨ dm)`.
    ///
    /// The exact decision requires case-splitting over the negations of the
    /// disjuncts; if the number of branches exceeds `budget`, a sound
    /// under-approximation is used instead (the conjunction must imply some
    /// single disjunct), which may return `false` for a true implication but
    /// never the converse.
    pub fn implied_by_conjunction_with_budget(
        &self,
        conjunction: &Conjunction,
        budget: usize,
    ) -> bool {
        if !conjunction.is_satisfiable() {
            return true;
        }
        if self.is_false() {
            return false;
        }
        // Fast path: implies a single disjunct.
        if self.disjuncts.iter().any(|d| conjunction.implies(d)) {
            return true;
        }
        // Exact: conjunction ∧ ¬d1 ∧ ... ∧ ¬dm must be unsatisfiable.
        // ¬dᵢ is a disjunction of negated atoms; distribute with a budget.
        let mut branches: Vec<Conjunction> = vec![conjunction.clone()];
        for d in &self.disjuncts {
            if d.is_trivially_true() {
                return true;
            }
            let negations: Vec<Vec<Atom>> =
                d.atoms().iter().map(super::atom::Atom::negate).collect();
            let options: Vec<Atom> = negations.into_iter().flatten().collect();
            let mut next: Vec<Conjunction> = Vec::new();
            for branch in &branches {
                for option in &options {
                    if next.len().saturating_mul(1) + branches.len() > budget
                        || next.len() >= budget
                    {
                        // Budget exceeded: fall back to the sound
                        // under-approximation (already checked above).
                        return false;
                    }
                    let candidate = branch.and(&Conjunction::of(option.clone()));
                    if candidate.is_satisfiable() {
                        next.push(candidate);
                    }
                }
            }
            branches = next;
            if branches.is_empty() {
                return true;
            }
        }
        branches.is_empty()
    }

    /// Decides whether `self ⟹ other` (Definition 2.3) with a branch budget.
    pub fn implies_with_budget(&self, other: &ConstraintSet, budget: usize) -> bool {
        self.disjuncts
            .iter()
            .all(|d| other.implied_by_conjunction_with_budget(d, budget))
    }

    /// Decides whether `self ⟹ other` with the default budget.
    pub fn implies(&self, other: &ConstraintSet) -> bool {
        self.implies_with_budget(other, DEFAULT_IMPLICATION_BUDGET)
    }

    /// Decides semantic equivalence of constraint sets.
    pub fn equivalent(&self, other: &ConstraintSet) -> bool {
        self.implies(other) && other.implies(self)
    }

    /// Evaluates the constraint set under a total assignment.
    pub fn evaluate(&self, assignment: &dyn Fn(&Var) -> Option<Rational>) -> Option<bool> {
        let mut result = false;
        for d in &self.disjuncts {
            result |= d.evaluate(assignment)?;
        }
        Some(result)
    }

    /// Rewrites the set so that no two disjuncts overlap (their pairwise
    /// conjunctions are unsatisfiable), preserving the represented set of
    /// ground instances.
    ///
    /// This is the first remedy of Section 4.6 against duplicate derivations;
    /// it can blow up the number of disjuncts exponentially, as the paper
    /// notes.
    pub fn non_overlapping(&self) -> ConstraintSet {
        let mut result: Vec<Conjunction> = Vec::new();
        for disjunct in &self.disjuncts {
            // Split `disjunct` by removing the parts already covered by the
            // accumulated result.
            let mut pieces = vec![disjunct.clone()];
            for covered in &result {
                let mut next_pieces = Vec::new();
                for piece in pieces {
                    if !piece.is_satisfiable() {
                        continue;
                    }
                    // piece ∧ ¬covered, distributed over the atoms of covered.
                    // We carve the piece along covered's atoms one at a time so
                    // that the produced fragments are pairwise disjoint.
                    let mut prefix = piece.clone();
                    for atom in covered.atoms() {
                        for negated in atom.negate() {
                            let fragment = prefix.and(&Conjunction::of(negated));
                            if fragment.is_satisfiable() {
                                next_pieces.push(fragment);
                            }
                        }
                        prefix = prefix.and(&Conjunction::of(atom.clone()));
                    }
                }
                pieces = next_pieces;
            }
            for piece in pieces {
                if piece.is_satisfiable() {
                    result.push(piece.simplify());
                }
            }
        }
        ConstraintSet { disjuncts: result }
    }

    /// Returns `true` if no two disjuncts have a satisfiable intersection.
    pub fn disjuncts_are_disjoint(&self) -> bool {
        for (i, a) in self.disjuncts.iter().enumerate() {
            for b in self.disjuncts.iter().skip(i + 1) {
                if a.and(b).is_satisfiable() {
                    return false;
                }
            }
        }
        true
    }

    /// Bounds the number of disjuncts to one by weakening: returns a single
    /// conjunction implied by every disjunct (the atoms common to all
    /// disjuncts, in the implication sense).
    ///
    /// This is the second remedy of Section 4.6; the result is a (generally
    /// non-minimum) QRP constraint.
    pub fn weaken_to_single_conjunction(&self) -> Conjunction {
        let Some(first) = self.disjuncts.first() else {
            return Conjunction::falsum();
        };
        let mut kept = Conjunction::truth();
        for atom in first.atoms() {
            if self.disjuncts.iter().all(|d| d.implies_atom(atom)) {
                kept.push(atom.clone());
            }
        }
        kept
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "false");
        }
        let parts: Vec<String> = self
            .disjuncts
            .iter()
            .map(|d| {
                if d.is_trivially_true() {
                    "true".to_string()
                } else if self.disjuncts.len() > 1 {
                    format!("({d})")
                } else {
                    d.to_string()
                }
            })
            .collect();
        write!(f, "{}", parts.join(" | "))
    }
}

impl fmt::Debug for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Conjunction> for ConstraintSet {
    fn from(c: Conjunction) -> Self {
        ConstraintSet::of(c)
    }
}

impl From<Atom> for ConstraintSet {
    fn from(a: Atom) -> Self {
        ConstraintSet::of_atom(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CmpOp;

    fn x() -> Var {
        Var::new("X")
    }
    fn pos(i: usize) -> Var {
        Var::position(i)
    }

    fn le(v: Var, c: i64) -> Conjunction {
        Conjunction::of(Atom::var_le(v, c as i128))
    }

    #[test]
    fn truth_and_falsum() {
        assert!(ConstraintSet::truth().is_trivially_true());
        assert!(ConstraintSet::truth().is_satisfiable());
        assert!(ConstraintSet::falsum().is_false());
        assert!(!ConstraintSet::falsum().is_satisfiable());
        assert!(ConstraintSet::falsum().implies(&ConstraintSet::falsum()));
        assert!(ConstraintSet::falsum().implies(&ConstraintSet::truth()));
        assert!(!ConstraintSet::truth().implies(&ConstraintSet::falsum()));
    }

    #[test]
    fn add_disjunct_drops_redundant() {
        let mut set = ConstraintSet::falsum();
        assert!(set.add_disjunct(le(x(), 10)));
        // X <= 4 is implied by... no: X<=4 implies X<=10, so it is redundant.
        assert!(!set.add_disjunct(le(x(), 4)));
        // X <= 20 subsumes the existing disjunct and replaces it.
        assert!(set.add_disjunct(le(x(), 20)));
        assert_eq!(set.num_disjuncts(), 1);
        assert!(set.disjuncts()[0].implies_atom(&Atom::var_le(x(), 20)));
        // Unsatisfiable disjuncts are never added.
        assert!(!set.add_disjunct(Conjunction::falsum()));
    }

    #[test]
    fn conjunction_distributes() {
        let a = ConstraintSet::from_disjuncts([le(x(), 4), le(x(), 10)]);
        let b = ConstraintSet::of(Conjunction::of(Atom::var_ge(x(), 0)));
        let both = a.and(&b);
        assert!(both.is_satisfiable());
        for d in both.disjuncts() {
            assert!(d.implies_atom(&Atom::var_ge(x(), 0)));
        }
    }

    #[test]
    fn dnf_implication_needs_case_split() {
        // X <= 10 implies (X <= 5) ∨ (X > 3): neither disjunct alone is
        // implied, but the disjunction is.
        let premise = Conjunction::of(Atom::var_le(x(), 10));
        let set = ConstraintSet::from_disjuncts([
            Conjunction::of(Atom::var_le(x(), 5)),
            Conjunction::of(Atom::var_gt(x(), 3)),
        ]);
        assert!(set.implied_by_conjunction_with_budget(&premise, DEFAULT_IMPLICATION_BUDGET));
        // X <= 10 does not imply (X <= 5) ∨ (X > 7).
        let gap = ConstraintSet::from_disjuncts([
            Conjunction::of(Atom::var_le(x(), 5)),
            Conjunction::of(Atom::var_gt(x(), 7)),
        ]);
        assert!(!gap.implied_by_conjunction_with_budget(&premise, DEFAULT_IMPLICATION_BUDGET));
    }

    #[test]
    fn flight_qrp_constraint_overlap_rewrite() {
        // The minimum QRP constraint for `flight` in Example 4.3:
        // (($3>0)&($3<=240)&($4>0)) ∨ (($3>0)&($4>0)&($4<=150)).
        let time = pos(3);
        let cost = pos(4);
        let d1 = Conjunction::from_atoms([
            Atom::var_gt(time.clone(), 0),
            Atom::var_le(time.clone(), 240),
            Atom::var_gt(cost.clone(), 0),
        ]);
        let d2 = Conjunction::from_atoms([
            Atom::var_gt(time.clone(), 0),
            Atom::var_gt(cost.clone(), 0),
            Atom::var_le(cost.clone(), 150),
        ]);
        let set = ConstraintSet::from_disjuncts([d1, d2]);
        assert_eq!(set.num_disjuncts(), 2);
        assert!(!set.disjuncts_are_disjoint());

        let disjoint = set.non_overlapping();
        assert!(disjoint.disjuncts_are_disjoint());
        assert!(disjoint.equivalent(&set));
        // Section 4.6 derives a 3-way non-overlapping representation.
        assert!(disjoint.num_disjuncts() >= 2);

        // Bounding to one disjunct yields ($3 > 0) & ($4 > 0) as in the paper.
        let single = set.weaken_to_single_conjunction();
        assert!(single.implies_atom(&Atom::var_gt(time.clone(), 0)));
        assert!(single.implies_atom(&Atom::var_gt(cost.clone(), 0)));
        assert!(!single.implies_atom(&Atom::var_le(time, 240)));
        assert!(!single.implies_atom(&Atom::var_le(cost, 150)));
    }

    #[test]
    fn projection_of_sets() {
        let y = Var::new("Y");
        let set = ConstraintSet::of(Conjunction::from_atoms([
            Atom::compare(
                LinearExpr::var(x()) + LinearExpr::var(y.clone()),
                CmpOp::Le,
                LinearExpr::constant(6),
            ),
            Atom::var_ge(x(), 2),
        ]));
        let keep: BTreeSet<Var> = [y.clone()].into_iter().collect();
        let projected = set.project(&keep);
        assert!(projected.implies(&ConstraintSet::of_atom(Atom::var_le(y, 4))));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(ConstraintSet::falsum().to_string(), "false");
        assert_eq!(ConstraintSet::truth().to_string(), "true");
        let set =
            ConstraintSet::from_disjuncts([le(x(), 1), Conjunction::of(Atom::var_ge(x(), 5))]);
        let text = set.to_string();
        assert!(text.contains('|'));
    }
}
