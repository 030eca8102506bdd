//! Incremental updates of a completed materialization: DRed-style
//! over-deletion and re-derivation for the retractions, then one resumed
//! fixpoint propagating them together with the insertions.

use std::collections::{BTreeMap, BTreeSet};

use pcs_telemetry as telemetry;

use pcs_lang::Pred;

use super::admission::Admitter;
use super::matching::Derived;
use super::round::{run_and_absorb, EvalTotals, Executor, RoundTask, TaskKind};
use super::{EvalResult, Evaluator, Start};
use crate::database::{Database, UpdateBatch};
use crate::fact::Fact;
use crate::relation::{FactRef, Relation};
use crate::stats::{EvalStats, IterationStats};

impl Evaluator {
    /// Applies an [`UpdateBatch`] to an already-materialized set of
    /// relations in a *single* incremental pass — the one incremental entry
    /// point: the retractions run DRed-style delete/re-derive phases, the
    /// insertions join the re-derivation delta, and one resumed semi-naive
    /// fixpoint propagates both together.
    ///
    /// `relations` is the `relations` map of a *completed* evaluation of the
    /// same program (typically a previous [`EvalResult`]); updating a
    /// *partial* materialization (one that stopped on a resource limit
    /// rather than a fixpoint) is not supported: derivations the interrupted
    /// run never attempted are not replayed.  Retractions are matched
    /// against the stored facts by [`Fact::equivalent`], so a re-phrased
    /// constraint fact still names the stored fact it denotes.
    ///
    /// Semantics are retracts-then-inserts, matching [`UpdateBatch`]:
    /// `surviving_edb` must be the extensional database after the
    /// retractions.  It is the caller's source of truth for the base facts,
    /// needed to resurrect EDB facts that a removed fact had subsumed and
    /// that were therefore not stored; an insert-only batch never reads it.
    /// It may already contain the batch's insertions (a caller that keeps
    /// one evolving EDB passes it as it stands after the whole batch): the
    /// insertions are seeded as delta facts directly, before anything is
    /// resurrected, so offering one of them to its relation a second time is
    /// `Subsumed` and changes nothing.  The result stores the same facts as
    /// evaluating the surviving EDB plus the insertions from scratch — the
    /// property `tests/resume_differential.rs` pins down across every
    /// rewriting strategy for arbitrary interleavings of inserts and
    /// retracts — and [`EvalStats::removed_indices`] names what the pass
    /// deleted.
    ///
    /// Three phases:
    ///
    /// 1. **Over-deletion** — the transitive closure of support: starting
    ///    from the stored facts equivalent to the retractions, every stored
    ///    fact with a one-step derivation consuming an already-deleted fact
    ///    (joined along the rule's over-deletion plan against the full
    ///    original materialization, so derivations touching several deleted
    ///    facts are found) is removed as well.
    /// 2. **Re-derivation round** — for every rule whose head predicate lost
    ///    facts: empty-body rules re-fire, and body rules re-join over the
    ///    survivors along their pinned plan, with the head pinned to each
    ///    removed ground fact (the unpinned full-rule plan is the fallback
    ///    when a removed fact is a proper constraint fact).  Alternative
    ///    derivations re-insert exactly the over-deleted facts that are
    ///    still derivable.  First, though, whatever a removed fact was
    ///    hiding is resurrected from `surviving_edb`: a removed ground fact
    ///    hides only its own duplicates, so it is re-inserted iff the EDB
    ///    still holds an equal fact (a multiset duplicate, or a base fact
    ///    that had also been derived); only a predicate that lost a proper
    ///    constraint fact re-offers all of its surviving EDB facts.
    /// 3. **Propagation** — the re-inserted facts and the batch insertions
    ///    that the materialization does not already subsume become the delta
    ///    of a resumed run of the semi-naive fixpoint, which proceeds exactly
    ///    as if they had been derived by a regular iteration.  Empty-body
    ///    rules do not re-fire (their facts are already stored).
    ///
    /// Statistics: every result is `resumed`.  An insert-only batch skips
    /// phases 1–2 and reports only the resumed fixpoint's iterations; a batch
    /// with any retraction is also `retracted`, counts `removed_facts`, and
    /// leads its iterations with the re-derivation round.
    ///
    /// Limits: the re-derivation round and the resumed fixpoint enforce
    /// [`EvalLimits`](crate::EvalLimits) per fact, exactly like a regular
    /// evaluation, against *one shared* derivation budget (the resumed
    /// fixpoint is pre-charged with the re-derivation round's spending, so a
    /// retraction cannot overshoot `max_derivations`).  The over-deletion
    /// joins are deliberately *exempt* from `max_derivations` and do not
    /// appear in the statistics: an over-deletion stopped halfway would leave
    /// facts whose support is gone still stored — an unsound state — and its
    /// work is already bounded by the support structure of the completed
    /// materialization being retracted from.
    pub fn apply(
        &self,
        mut relations: BTreeMap<Pred, Relation>,
        batch: UpdateBatch,
        surviving_edb: &Database,
    ) -> EvalResult {
        let UpdateBatch {
            inserts,
            retracts: deletions,
        } = batch;
        let retracted = !deletions.is_empty();
        let _phase_span = telemetry::span(if retracted {
            telemetry::Phase::Retract
        } else {
            telemetry::Phase::Resume
        });
        for pred in self.program.all_predicates() {
            relations.entry(pred).or_default();
        }
        for relation in relations.values_mut() {
            relation.seal();
        }

        // Phase 1: transitive over-deletion.  `removed` collects the stored
        // fact indices to drop; the frontier of each round holds the facts
        // newly marked in the previous round.  Joins read the full original
        // materialization (removal is deferred), so a derivation consuming
        // several deleted facts still propagates.
        let mut removed: BTreeMap<Pred, BTreeSet<usize>> = BTreeMap::new();
        let mut frontier: Vec<Fact> = Vec::new();
        for deletion in &deletions {
            if let Some(relation) = relations.get(deletion.predicate()) {
                if let Some(index) = relation.find_equivalent(deletion) {
                    if removed
                        .entry(deletion.predicate().clone())
                        .or_default()
                        .insert(index)
                    {
                        frontier.push(relation.fact_at(index));
                    }
                }
            }
        }
        while !frontier.is_empty() {
            let mut by_pred: BTreeMap<&Pred, Vec<&Fact>> = BTreeMap::new();
            for fact in &frontier {
                by_pred.entry(fact.predicate()).or_default().push(fact);
            }
            let mut next: Vec<Fact> = Vec::new();
            for (rule_index, rule) in self.program.rules().iter().enumerate() {
                if self.plans.leader(rule_index) != rule_index {
                    // Its copy group's plans run at the group's first rule.
                    continue;
                }
                for consumed in 0..rule.body.len() {
                    let Some(deleted_here) = by_pred.get(&rule.body[consumed].predicate) else {
                        continue;
                    };
                    let plan = self
                        .plans
                        .overdelete_plan(rule_index, consumed)
                        .expect("every body position has an over-deletion plan");
                    let Some(relation) = relations.get(&rule.head.predicate) else {
                        continue;
                    };
                    let mut executor = Executor::new(rule, plan, &relations, usize::MAX);
                    for deleted in deleted_here {
                        // The head of every derivation of `rule` that
                        // consumes `deleted` at this position and arbitrary
                        // stored facts (the full sealed materialization,
                        // removed facts included) at the others: one step of
                        // support propagation.
                        executor.join_from_entry(Some(FactRef::Stored(deleted)));
                        for head in executor.drain_derived() {
                            let index = match &head {
                                Derived::Row(row) => relation.find_row(row),
                                Derived::Fact(fact) => relation.find_equivalent(fact),
                            };
                            let Some(index) = index else {
                                continue;
                            };
                            if removed
                                .entry(rule.head.predicate.clone())
                                .or_default()
                                .insert(index)
                            {
                                next.push(relation.fact_at(index));
                            }
                        }
                    }
                }
            }
            frontier = next;
        }

        // The removed facts themselves (in stored order) drive the
        // resurrection and the pinned re-derivation targets below; collect
        // them before their slots die.
        let mut removed_facts: BTreeMap<Pred, Vec<Fact>> = BTreeMap::new();
        for (pred, indices) in &removed {
            let relation = &relations[pred];
            removed_facts
                .entry(pred.clone())
                .or_default()
                .extend(indices.iter().map(|&index| relation.fact_at(index)));
        }
        let mut removed_total = 0;
        for (pred, indices) in &removed {
            removed_total += relations
                .get_mut(pred)
                .expect("marked relations exist")
                .remove_indices(indices);
        }

        // The batch insertions land in the pending segment next to whatever
        // phase 2 re-derives: invisible to the re-derivation joins (which
        // read the sealed windows), they join the combined delta at the
        // phase-3 advance, so retracts and inserts share one resumed
        // fixpoint.
        let mut admitter = Admitter::new(&self.plans);
        for fact in inserts.into_iter().filter(|fact| admitter.admits(fact)) {
            relations
                .entry(fact.predicate().clone())
                .or_default()
                .insert(fact);
        }

        // Phase 2: resurrection and the re-derivation round.  Everything
        // inserted here lands in the pending segment and becomes the delta
        // of the resumed fixpoint.
        let mut rederive_stats = IterationStats::default();
        let mut totals = EvalTotals {
            derivations: 0,
            facts: relations.values().map(Relation::len).sum(),
        };
        let mut hit_limit = None;
        if removed_total > 0 {
            for (pred, lost) in &removed_facts {
                let relation = relations.get_mut(pred).expect("affected relations exist");
                let edb = surviving_edb.facts_for(pred);
                if lost.iter().any(|fact| !fact.is_ground()) {
                    // A proper constraint fact can have hidden any base fact
                    // inside its denotation.
                    admitter.insert_admitted(pred, relation, edb);
                } else {
                    // A ground fact hides exactly its own duplicates.
                    let hidden = lost
                        .iter()
                        .filter(|fact| edb.iter().any(|stored| stored.equivalent(fact)));
                    admitter.insert_admitted(pred, relation, hidden);
                }
            }
            let mut tasks: Vec<RoundTask<'_>> = Vec::new();
            for (rule_index, rule) in self.program.rules().iter().enumerate() {
                let Some(targets) = removed_facts.get(&rule.head.predicate) else {
                    continue;
                };
                if self.plans.leader(rule_index) != rule_index {
                    continue;
                }
                if rule.body.is_empty() {
                    tasks.push(self.fact_task(rule_index));
                    continue;
                }
                let entry = |plan, seed| RoundTask {
                    rule,
                    labels: &self.labels,
                    plan,
                    kind: TaskKind::Entry { seed },
                };
                if targets.iter().any(|target| !target.is_ground()) {
                    // A removed proper constraint fact could cover facts a
                    // pinned join would miss: fall back to the full join.
                    let plan = self
                        .plans
                        .full_plan(rule_index)
                        .expect("every rule with a body has a full plan");
                    tasks.push(entry(plan, None));
                } else {
                    let plan = self
                        .plans
                        .pinned_plan(rule_index)
                        .expect("every rule with a body has a pinned plan");
                    tasks.extend(targets.iter().map(|target| entry(plan, Some(target))));
                }
            }
            hit_limit = run_and_absorb(
                &tasks,
                &self.options,
                &mut relations,
                &mut rederive_stats,
                &mut totals,
            );
        }

        // Phase 3: the resurrected and re-derived facts become the delta of
        // the resumed semi-naive fixpoint (empty delta = one quiescent
        // iteration confirming the fixpoint).
        for relation in relations.values_mut() {
            relation.advance();
        }
        if let Some(limit) = hit_limit {
            let stats = EvalStats {
                iterations: vec![rederive_stats],
                resumed: true,
                retracted,
                removed_facts: removed_total,
                removed_indices: removed,
                ..EvalStats::default()
            };
            telemetry::flush_thread();
            return Evaluator::finalize(relations, stats, limit);
        }
        let mut result = self.run_fixpoint(Start::Resume(relations), rederive_stats.derivations);
        if retracted {
            result.stats.iterations.insert(0, rederive_stats);
            result.stats.retracted = true;
            result.stats.removed_facts = removed_total;
            result.stats.removed_indices = removed;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::rendered;
    use super::super::{EvalOptions, Evaluator};
    use crate::database::{Database, UpdateBatch};
    use crate::limits::{EvalLimits, Termination};
    use crate::value::Value;
    use pcs_lang::{parse_program, Literal, Pred, Query, Term};

    #[test]
    fn retracting_an_edge_matches_scratch_evaluation_of_the_surviving_edb() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut full = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 4)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(2, 3).").unwrap();
        let mut surviving = full.clone();
        assert_eq!(surviving.remove_facts(&deletions), 1);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let materialized = evaluator.evaluate(&full);
        let retracted = evaluator.apply(
            materialized.relations,
            UpdateBatch::retracting(deletions.clone()),
            &surviving,
        );
        let scratch = evaluator.evaluate(&surviving);
        assert!(retracted.stats.retracted && !scratch.stats.retracted);
        // edge(2, 3) plus the paths that only it supported are gone.
        assert!(retracted.stats.removed_facts >= 4);
        assert_eq!(retracted.termination, scratch.termination);
        assert_eq!(rendered(&retracted), rendered(&scratch));
    }

    #[test]
    fn facts_with_alternative_derivations_survive_retraction() {
        // path(1, 3) is derivable both directly from edge(1, 3) and through
        // edge(1, 2), edge(2, 3): DRed over-deletes it, re-derivation must
        // bring it back.
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut full = Database::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(1, 3).").unwrap();
        let mut surviving = full.clone();
        surviving.remove_facts(&deletions);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let retracted = evaluator.apply(
            evaluator.evaluate(&full).relations,
            UpdateBatch::retracting(deletions.clone()),
            &surviving,
        );
        let path = Literal::new("path", vec![Term::num(1), Term::num(3)]);
        assert_eq!(retracted.answers(&Query::new(path)).len(), 1);
        assert_eq!(
            rendered(&retracted),
            rendered(&evaluator.evaluate(&surviving))
        );
    }

    #[test]
    fn retracting_a_subsuming_fact_resurrects_subsumed_facts() {
        // The ground EDB fact b(5) is swallowed by the constraint fact at
        // seed time and never stored; retracting the constraint fact must
        // resurrect it (and its consequences).
        let program = parse_program("p(X) :- b(X).").unwrap();
        let mut full = Database::new();
        full.add_facts_str("b(X) :- X >= 0, X <= 10.\nb(5).\nb(99).")
            .unwrap();
        let deletions = crate::database::parse_facts("b(X) :- X >= 0, X <= 10.").unwrap();
        let mut surviving = full.clone();
        assert_eq!(surviving.remove_facts(&deletions), 1);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let materialized = evaluator.evaluate(&full);
        // The subsumed ground fact is genuinely absent beforehand.
        assert_eq!(materialized.count_for(&Pred::new("b")), 2);
        let retracted = evaluator.apply(
            materialized.relations,
            UpdateBatch::retracting(deletions.clone()),
            &surviving,
        );
        let scratch = evaluator.evaluate(&surviving);
        assert_eq!(rendered(&retracted), rendered(&scratch));
        assert_eq!(retracted.count_for(&Pred::new("b")), 2);
        assert_eq!(
            retracted
                .answers(&Query::new(Literal::new("p", vec![Term::num(5)])))
                .len(),
            1
        );
        assert!(retracted.termination.is_fixpoint());
    }

    #[test]
    fn a_removed_ground_fact_comes_back_iff_the_edb_still_holds_an_equal_one() {
        // p(1) is in the EDB twice, p(2) once, and p(3) is both a base fact
        // and derived from q(3).  Retracting one p(1), the p(2) and q(3)
        // over-deletes all three rows; only the two the surviving EDB still
        // vouches for come back — without re-offering p's other base facts.
        let program = parse_program("p(X) :- q(X).").unwrap();
        let mut full = Database::new();
        full.add_facts_str("p(1).\np(1).\np(2).\np(3).\np(7).\nq(3).\nq(4).")
            .unwrap();
        let deletions = crate::database::parse_facts("p(1).\np(2).\nq(3).").unwrap();
        let mut surviving = full.clone();
        assert_eq!(surviving.remove_facts(&deletions), 3);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let retracted = evaluator.apply(
            evaluator.evaluate(&full).relations,
            UpdateBatch::retracting(deletions),
            &surviving,
        );
        assert_eq!(retracted.stats.removed_facts, 4);
        assert_eq!(
            rendered(&retracted),
            rendered(&evaluator.evaluate(&surviving))
        );
        let p: Vec<String> = retracted.relations[&Pred::new("p")]
            .iter()
            .map(|fact| fact.to_string())
            .collect();
        // p(7) and p(4) never moved; p(1) and p(3) were re-stored behind them.
        assert_eq!(p, vec!["p(7)", "p(4)", "p(1)", "p(3)"]);
        assert_eq!(
            retracted.stats.removed_indices[&Pred::new("p")],
            [0, 1, 2].into_iter().collect()
        );
    }

    #[test]
    fn retraction_shares_one_derivation_budget_across_its_phases() {
        // The re-derivation round pre-charges the resumed fixpoint's
        // budget: capping max_derivations one below a full retraction's
        // spending must stop at exactly the cap, not grant each phase the
        // cap separately.
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        // edge(0, 1) feeds the resumed phase: path(0, 3) is over-deleted
        // (its derivation passes through the removed path(1, 3)) and only
        // comes back once the re-derived path(1, 3) enters the delta.
        let mut full = Database::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)] {
            full.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let deletions = crate::database::parse_facts("edge(1, 3).").unwrap();
        let mut surviving = full.clone();
        surviving.remove_facts(&deletions);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let unlimited = evaluator.apply(
            evaluator.evaluate(&full).relations,
            UpdateBatch::retracting(deletions.clone()),
            &surviving,
        );
        let spent = unlimited.stats.total_derivations();
        assert!(unlimited.termination.is_fixpoint() && spent >= 2, "{spent}");
        // Both the re-derivation round and the resumed fixpoint derive
        // something in this workload, so the cap spans the phase boundary.
        assert!(unlimited.stats.iterations[0].derivations >= 1);
        assert!(spent > unlimited.stats.iterations[0].derivations);
        // Materialize the base with the *unlimited* evaluator (retraction
        // from a partial materialization is out of contract); only the
        // retraction itself runs capped.
        let materialized = evaluator.evaluate(&full);
        let capped = EvalOptions {
            limits: EvalLimits {
                max_derivations: spent - 1,
                ..EvalLimits::default()
            },
            ..EvalOptions::default()
        };
        let limited = Evaluator::new(&program, capped).apply(
            materialized.relations,
            UpdateBatch::retracting(deletions.clone()),
            &surviving,
        );
        assert_eq!(limited.termination, Termination::DerivationLimit);
        assert_eq!(limited.stats.total_derivations(), spent - 1);
    }

    #[test]
    fn retracting_an_absent_fact_changes_nothing() {
        let program = parse_program("p(X) :- b(X).").unwrap();
        let mut db = Database::new();
        db.add_ground("b", vec![Value::num(1)]);
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let before = evaluator.evaluate(&db);
        let total = before.total_facts();
        let deletions = crate::database::parse_facts("b(9).").unwrap();
        let retracted = evaluator.apply(before.relations, UpdateBatch::retracting(deletions), &db);
        assert_eq!(retracted.stats.removed_facts, 0);
        assert_eq!(retracted.total_facts(), total);
        assert!(retracted.termination.is_fixpoint());
    }
}
