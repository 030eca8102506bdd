//! Helpers shared by the differential and conformance suites: the strategy
//! matrix and the two strengths of "these two evaluations agree".

// Each suite uses a subset.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use pushing_constraint_selections::engine::naive::NaiveResult;
use pushing_constraint_selections::engine::EvalResult;
use pushing_constraint_selections::prelude::*;

/// Every rewriting strategy the suites run under.
pub fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::None,
        Strategy::ConstraintRewrite,
        Strategy::MagicOnly,
        Strategy::Optimal,
        Strategy::Sequence(vec![Step::Qrp, Step::Magic]),
        Strategy::Sequence(vec![Step::Magic, Step::Qrp]),
        Strategy::Sequence(vec![Step::Magic, Step::Pred, Step::Qrp]),
    ]
}

/// Renders every relation as a sorted list of fact strings, keyed by
/// predicate, so the stored fact sets of two evaluations can be compared
/// independently of derivation order.
pub fn rendered_relations(result: &EvalResult) -> BTreeMap<String, Vec<String>> {
    result
        .relations
        .iter()
        .map(|(pred, relation)| {
            let mut facts: Vec<String> = relation.iter().map(|f| f.to_string()).collect();
            facts.sort();
            (pred.to_string(), facts)
        })
        .collect()
}

/// Asserts two evaluations that may have derived their facts in different
/// orders (an incrementally maintained run and a from-scratch one) store
/// exactly the same facts and stopped for the same reason.
pub fn assert_same_facts(a: &EvalResult, b: &EvalResult, context: &str) {
    assert_eq!(
        a.termination, b.termination,
        "termination diverged {context}"
    );
    assert_eq!(
        rendered_relations(a),
        rendered_relations(b),
        "stored relations diverged {context}"
    );
    assert_eq!(
        a.stats.facts_per_predicate, b.stats.facts_per_predicate,
        "stats-level fact counts diverged {context}"
    );
    assert_eq!(
        a.stats.constraint_facts, b.stats.constraint_facts,
        "constraint fact counts diverged {context}"
    );
}

/// Asserts the production result and the naive oracle's result store the
/// same denotations, predicate by predicate: the same termination
/// behavior, mutual single-fact coverage (both sides insert with
/// subsumption, so this is equality of the stored denotations), and — on
/// relations holding only ground facts, which have one canonical rendering
/// — the identical stored set.
pub fn assert_matches_oracle(production: &EvalResult, oracle: &NaiveResult, context: &str) {
    assert_eq!(
        production.termination.is_fixpoint(),
        oracle.termination.is_fixpoint(),
        "termination diverged {context}"
    );
    let preds: BTreeSet<&Pred> = production
        .relations
        .keys()
        .chain(oracle.relations.keys())
        .collect();
    for pred in preds {
        let prod_facts = production.facts_for(pred);
        let oracle_facts = oracle.facts_for(pred);
        for fact in &prod_facts {
            assert!(
                oracle_facts.iter().any(|o| o.subsumes(fact)),
                "production fact `{fact}` of `{pred}` is not covered by the oracle {context}\n\
                 oracle stores: {oracle_facts:?}"
            );
        }
        for fact in oracle_facts {
            assert!(
                prod_facts.iter().any(|p| p.subsumes(fact)),
                "oracle fact `{fact}` of `{pred}` is not covered by the production run {context}\n\
                 production stores: {prod_facts:?}"
            );
        }
        let ground_only =
            prod_facts.iter().all(Fact::is_ground) && oracle_facts.iter().all(Fact::is_ground);
        if ground_only {
            let mut a: Vec<String> = prod_facts.iter().map(ToString::to_string).collect();
            let mut b: Vec<String> = oracle_facts.iter().map(ToString::to_string).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "ground facts of `{pred}` diverged {context}");
        }
    }
}
