//! Per-iteration statistics accounting: the delta sizes driving each
//! iteration must match the new-fact counts of the previous iteration, and
//! the totals must tie out against the stored facts — on the flights
//! workload.

use pushing_constraint_selections::prelude::*;

#[test]
fn indexed_delta_accounting_matches_total_fact_deltas() {
    let program = programs::flights();
    let db = programs::flights_database(6, 20);
    let evaluator = Evaluator::new(&program, EvalOptions::default());
    let result = evaluator.evaluate(&db);
    assert!(result.termination.is_fixpoint());
    let stats = &result.stats;
    let iterations = &stats.iterations;
    assert!(iterations.len() >= 3, "flights closure iterates");

    // Iteration 0's delta is the seeded facts of rule-defined predicates:
    // EDB relations start stable.  Flights seeds none.
    let idb_seeded: usize = evaluator
        .program()
        .idb_predicates()
        .iter()
        .map(|pred| db.facts_for(pred).len())
        .sum();
    assert_eq!(idb_seeded, 0);
    assert_eq!(iterations[0].delta_facts, idb_seeded);
    // Every later delta is exactly the previous iteration's new facts.
    for k in 1..iterations.len() {
        assert_eq!(
            iterations[k].delta_facts,
            iterations[k - 1].new_facts,
            "delta of iteration {k}"
        );
    }
    // The fixpoint round derives nothing new, and the stored totals tie
    // out: seeded facts plus all new facts equals the stored facts.
    assert_eq!(iterations.last().unwrap().new_facts, 0);
    assert_eq!(db.len() + stats.total_new_facts(), stats.total_facts());
    assert_eq!(stats.total_facts(), result.total_facts());
    // Derivations split exactly into new and subsumed.
    assert_eq!(
        stats.total_derivations(),
        stats.total_new_facts() + stats.total_subsumed()
    );
}
