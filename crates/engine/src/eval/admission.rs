//! Admission of base facts into the EDB relations: the checks
//! [`ProgramPlans`] compiles ([`crate::plan::Admission`]), each body
//! occurrence run with one frame reused from fact to fact.

use std::collections::BTreeMap;

use pcs_lang::Pred;

use super::matching::Frame;
use crate::fact::{Binding, Fact};
use crate::plan::{JoinPlan, ProgramPlans};
use crate::relation::Relation;

/// The admission checks of one evaluator's EDB predicates, with their
/// frames.
pub(super) struct Admitter<'p> {
    checks: BTreeMap<&'p Pred, Vec<(&'p JoinPlan, Frame)>>,
}

impl<'p> Admitter<'p> {
    pub(super) fn new(plans: &'p ProgramPlans) -> Self {
        let checks = plans
            .admissions()
            .map(|(pred, admission)| {
                let occurrences = admission
                    .plans()
                    .map(|plan| (plan, Frame::new(plan)))
                    .collect();
                (pred, occurrences)
            })
            .collect();
        Admitter { checks }
    }

    /// Whether `fact` may enter its relation (see [`admits`]).
    pub(super) fn admits(&mut self, fact: &Fact) -> bool {
        self.checks
            .get_mut(fact.predicate())
            .map_or(true, |checks| admits(checks, fact))
    }

    /// Inserts into `relation`, in order, the facts of `pred` it admits.
    pub(super) fn insert_admitted<'f>(
        &mut self,
        pred: &Pred,
        relation: &mut Relation,
        facts: impl IntoIterator<Item = &'f Fact>,
    ) {
        let mut checks = self.checks.get_mut(pred);
        for fact in facts {
            if checks
                .as_deref_mut()
                .map_or(true, |checks| admits(checks, fact))
            {
                relation.insert_ref(fact);
            }
        }
    }
}

/// Whether some body occurrence could match `fact`.  A proper constraint
/// fact is always admitted: deciding it would take Fourier–Motzkin work,
/// and its relation's joins decide it anyway.
fn admits(checks: &mut [(&JoinPlan, Frame)], fact: &Fact) -> bool {
    if !fact.is_ground() {
        return true;
    }
    let values = || {
        fact.bindings().iter().map(|binding| match binding {
            Binding::Bound(value) => value,
            Binding::Free => unreachable!("ground facts have no free position"),
        })
    };
    checks
        .iter_mut()
        .any(|(plan, frame)| frame.admits(plan, values()))
}

#[cfg(test)]
mod tests {
    use super::super::test_support::eval;
    use crate::database::Database;
    use crate::value::Value;
    use pcs_constraints::Rational;
    use pcs_lang::Pred;

    fn n_database(values: &[i128]) -> Database {
        let mut db = Database::new();
        for &x in values {
            db.add_ground("n", vec![Value::num(Rational::from_int(x))]);
        }
        db
    }

    #[test]
    fn an_overflowing_check_admits_the_row_and_the_join_meets_the_overflow() {
        let db = n_database(&[1, 7, i128::MAX]);
        // `gate` has no facts and leads the join, so nothing reads `n`:
        // its relation holds what admission let in.  Doubling i128::MAX
        // overflows the check, which admits the row instead of panicking.
        let gated = eval("m(X) :- gate, n(X), X + X <= 9.", &db);
        let mut admitted: Vec<String> = gated
            .facts_for(&Pred::new("n"))
            .iter()
            .map(ToString::to_string)
            .collect();
        admitted.sort();
        assert_eq!(
            admitted,
            ["n(1)", "n(170141183460469231731687303715884105727)"]
        );
        // Without the gate the join reads the admitted row and overflows on
        // the same check, with the rational layer's message.
        let payload = std::panic::catch_unwind(|| eval("m(X) :- n(X), X + X <= 9.", &db))
            .expect_err("the join doubles i128::MAX");
        let message = payload
            .downcast_ref::<String>()
            .expect("the rational layer panics with a formatted message");
        assert!(message.contains("overflowed i128"), "{message}");
    }
}
