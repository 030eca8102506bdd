//! Evaluation statistics.
//!
//! The paper's Tables 1 and 2 report, iteration by iteration, which facts a
//! semi-naive evaluation derives and which of those are subsumed.  The
//! statistics collected here regenerate those tables and also feed the
//! comparative experiments (facts computed, derivations made) of Sections 4
//! and 7.

use std::collections::{BTreeMap, BTreeSet};

use pcs_lang::Pred;

/// A single derivation made during an iteration (recorded only when tracing
/// is enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivationRecord {
    /// The label of the rule used (or its index if unlabeled).
    pub rule: String,
    /// The derived fact, rendered as text.
    pub fact: String,
    /// `false` if the fact was subsumed by an already-known fact.
    pub new: bool,
}

/// Statistics for one iteration of the fixpoint.
#[derive(Debug, Clone, Default)]
pub struct IterationStats {
    /// Number of derivations attempted (satisfiable rule instantiations).
    pub derivations: usize,
    /// Number of derivations that produced a new fact.
    pub new_facts: usize,
    /// Number of derivations whose fact was subsumed.
    pub subsumed: usize,
    /// Total size of the per-relation deltas driving this iteration: the
    /// seeded facts of rule-defined predicates for a scratch run's opening
    /// round (EDB facts start stable), the update facts for a
    /// resumed run's first round, and the previous iteration's new facts
    /// everywhere else.
    pub delta_facts: usize,
    /// Wall-clock time of this iteration in nanoseconds, measured only while
    /// the process-wide telemetry mode is on (`pcs_telemetry::enabled()`) and
    /// zero otherwise.  Purely observational: every other field is identical
    /// with telemetry on or off (the property
    /// `tests/telemetry_differential.rs` checks), so comparisons between runs
    /// should ignore this field.
    pub wall_nanos: u64,
    /// The individual derivations (only when tracing is enabled).
    pub records: Vec<DerivationRecord>,
}

/// Aggregate statistics for a whole evaluation.
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Per-iteration statistics, in order.
    pub iterations: Vec<IterationStats>,
    /// Facts stored per predicate at the end of the evaluation.
    pub facts_per_predicate: BTreeMap<Pred, usize>,
    /// Number of stored facts that are not ground (proper constraint facts).
    pub constraint_facts: usize,
    /// Whether the evaluation resumed from a previous materialization (its
    /// iterations then cover only the update delta, not the base facts).
    pub resumed: bool,
    /// Whether the evaluation applied a batch with at least one retraction
    /// (`Evaluator::apply`).  The
    /// first entry of `iterations` is then the re-derivation round over the
    /// surviving facts, followed by the resumed fixpoint's iterations.
    pub retracted: bool,
    /// Facts the DRed over-deletion phase removed from the materialization
    /// (zero for non-retraction evaluations).  Facts the re-derivation pass
    /// put back are counted as new facts by the iteration statistics.
    pub removed_facts: usize,
    /// Which facts those were: per relation, the logical indices removed,
    /// in the index space of the relations `Evaluator::apply` was given.
    /// Together with the facts the result's relations hold past them, this
    /// is the whole effect of the pass on a materialization — a second copy
    /// of the input replays it with `Relation::catch_up` instead of
    /// evaluating again.
    pub removed_indices: BTreeMap<Pred, BTreeSet<usize>>,
}

impl EvalStats {
    /// Total derivations across all iterations.
    pub fn total_derivations(&self) -> usize {
        self.iterations.iter().map(|i| i.derivations).sum()
    }

    /// Total new facts across all iterations.
    pub fn total_new_facts(&self) -> usize {
        self.iterations.iter().map(|i| i.new_facts).sum()
    }

    /// Total subsumed derivations across all iterations.
    pub fn total_subsumed(&self) -> usize {
        self.iterations.iter().map(|i| i.subsumed).sum()
    }

    /// Total facts stored.
    pub fn total_facts(&self) -> usize {
        self.facts_per_predicate.values().sum()
    }

    /// Facts stored for one predicate.
    pub fn facts_for(&self, pred: &Pred) -> usize {
        self.facts_per_predicate.get(pred).copied().unwrap_or(0)
    }

    /// Returns `true` if the evaluation stored only ground facts.
    pub fn only_ground_facts(&self) -> bool {
        self.constraint_facts == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_iterations() {
        let stats = EvalStats {
            iterations: vec![
                IterationStats {
                    derivations: 3,
                    new_facts: 2,
                    subsumed: 1,
                    ..IterationStats::default()
                },
                IterationStats {
                    derivations: 5,
                    new_facts: 5,
                    subsumed: 0,
                    ..IterationStats::default()
                },
            ],
            facts_per_predicate: [(Pred::new("p"), 7)].into_iter().collect(),
            constraint_facts: 0,
            ..EvalStats::default()
        };
        assert_eq!(stats.total_derivations(), 8);
        assert_eq!(stats.total_new_facts(), 7);
        assert_eq!(stats.total_subsumed(), 1);
        assert_eq!(stats.total_facts(), 7);
        assert_eq!(stats.facts_for(&Pred::new("p")), 7);
        assert_eq!(stats.facts_for(&Pred::new("q")), 0);
        assert!(stats.only_ground_facts());
    }
}
