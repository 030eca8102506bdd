//! Helpers shared by the differential and conformance suites: the strategy
//! matrix and the two strengths of "these two evaluations agree".
//!
//! Both compare the relations of derived predicates exactly.  An EDB
//! predicate's relation holds only the base facts some rule body can read,
//! so it is compared with the set [`admitted_edb`] computes from the program
//! and the database alone, by the naive oracle.

// Each suite uses a subset.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use pushing_constraint_selections::engine::naive::{self, NaiveResult};
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

/// The relation an evaluation of `program` over `db` must store for each
/// EDB predicate (one no rule defines and the program query does not name),
/// rendered and sorted.  A ground base fact belongs to it when, for some
/// body occurrence `L` of the predicate, the naive oracle derives the fact
/// from `admit#(args of L) :- L, C_local` — `C_local` being the atoms of
/// the (flattened) rule whose variables all occur in `L` — or when some
/// occurrence is a literal of distinct variables with no such atom.  Proper
/// constraint facts always belong.  The members are inserted in database
/// order, so subsumption drops what a relation drops.
pub fn admitted_edb(program: &Program, db: &Database) -> BTreeMap<Pred, Vec<String>> {
    let program = program.flattened();
    let mut unfiltered = program.idb_predicates();
    unfiltered.extend(program.query().map(Query::predicates).unwrap_or_default());
    let admit = Pred::new("admit#");
    // Per EDB predicate, its admission rules; `None` once some occurrence
    // reads it in full.
    let mut occurrences: BTreeMap<Pred, Option<Program>> = BTreeMap::new();
    for pred in program.edb_predicates().iter().chain(db.predicates()) {
        if !unfiltered.contains(pred) {
            occurrences.insert(pred.clone(), Some(Program::new()));
        }
    }
    for rule in program.rules() {
        for literal in &rule.body {
            let Some(Some(rules)) = occurrences.get_mut(&literal.predicate) else {
                continue;
            };
            let vars = literal.vars();
            let local: Vec<Atom> = rule
                .constraint
                .atoms()
                .iter()
                .filter(|atom| atom.vars().all(|var| vars.contains(var)))
                .cloned()
                .collect();
            if local.is_empty() && literal.args_are_distinct_vars() {
                occurrences.insert(literal.predicate.clone(), None);
                continue;
            }
            rules.add_rule(Rule::new(
                Literal::new(admit.clone(), literal.args.clone()),
                vec![literal.clone()],
                Conjunction::from_atoms(local),
            ));
        }
    }
    occurrences
        .into_iter()
        .map(|(pred, rules)| {
            let admitted: Option<BTreeSet<String>> = rules.map(|rules| {
                let oracle = naive::evaluate(&rules, db, &EvalLimits::default());
                oracle
                    .facts_for(&admit)
                    .iter()
                    .map(|fact| fact.to_string().replacen("admit#", pred.name(), 1))
                    .collect()
            });
            let mut relation = Relation::new();
            for fact in db.facts_for(&pred) {
                if !fact.is_ground()
                    || admitted
                        .as_ref()
                        .map_or(true, |admitted| admitted.contains(&fact.to_string()))
                {
                    relation.insert(fact.clone());
                }
            }
            let mut facts: Vec<String> = relation.iter().map(|f| f.to_string()).collect();
            facts.sort();
            (pred, facts)
        })
        .collect()
}

/// Asserts that `result`'s EDB relations hold exactly `expected` (see
/// [`admitted_edb`]).
fn assert_edb(result: &EvalResult, expected: &BTreeMap<Pred, Vec<String>>, context: &str) {
    for (pred, facts) in expected {
        let mut stored: Vec<String> = result
            .facts_for(pred)
            .iter()
            .map(ToString::to_string)
            .collect();
        stored.sort();
        assert_eq!(&stored, facts, "EDB relation `{pred}` diverged {context}");
    }
}

/// Asserts two evaluations of `program` over `db` that may have derived
/// their facts in different orders (an incrementally maintained run and a
/// from-scratch one) store exactly the same facts and stopped for the same
/// reason: the same derived relations, and the EDB relations
/// [`admitted_edb`] expects.
pub fn assert_same_facts(
    a: &EvalResult,
    b: &EvalResult,
    program: &Program,
    db: &Database,
    context: &str,
) {
    assert_eq!(
        a.termination, b.termination,
        "termination diverged {context}"
    );
    let edb = admitted_edb(program, db);
    assert_edb(a, &edb, context);
    assert_edb(b, &edb, context);
    let derived = |result| {
        let mut relations = rendered_relations(result);
        relations.retain(|pred, _| !edb.contains_key(&Pred::new(pred)));
        relations
    };
    assert_eq!(
        derived(a),
        derived(b),
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

/// Asserts the production result of `program` over `db` and the naive
/// oracle's result store the same denotations, predicate by predicate: the
/// same termination behavior, mutual single-fact coverage (both sides
/// insert with subsumption, so this is equality of the stored denotations),
/// and — on relations holding only ground facts, which have one canonical
/// rendering — the identical stored set.  EDB relations hold what
/// [`admitted_edb`] expects instead.
pub fn assert_matches_oracle(
    production: &EvalResult,
    oracle: &NaiveResult,
    program: &Program,
    db: &Database,
    context: &str,
) {
    assert_eq!(
        production.termination.is_fixpoint(),
        oracle.termination.is_fixpoint(),
        "termination diverged {context}"
    );
    let edb = admitted_edb(program, db);
    assert_edb(production, &edb, context);
    let preds: BTreeSet<&Pred> = production
        .relations
        .keys()
        .chain(oracle.relations.keys())
        .filter(|pred| !edb.contains_key(pred))
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

/// A tiny deterministic generator, so the EDBs repeat run to run.
/// A small deterministic generator for the suites' random rows.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }
}

/// Rows for every EDB predicate of `program`: small integers around the
/// bounds the example programs test, and a symbol, which no arithmetic
/// position admits.
pub fn random_edb(program: &Program, seed: u64) -> Database {
    let mut rng = Lcg(seed);
    let mut db = Database::new();
    for pred in program.edb_predicates() {
        let arity = program.arity(&pred).expect("an EDB predicate occurs");
        for _ in 0..8 {
            let row = (0..arity)
                .map(|_| match rng.below(15) {
                    14 => Value::sym("a"),
                    n => Value::num(n as i64 - 1),
                })
                .collect();
            db.add_ground(pred.name(), row);
        }
    }
    db
}

/// The answers `facts` of the query predicate hold for `query`, rendered
/// without the predicate name and sorted, so that rewritings renaming the
/// query predicate compare.
pub fn rendered_answers(facts: Vec<Fact>) -> Vec<String> {
    let mut rendered: Vec<String> = facts
        .iter()
        .map(|fact| {
            let text = fact.to_string();
            text.split_once('(')
                .map_or(text.clone(), |(_, args)| args.to_string())
        })
        .collect();
    rendered.sort();
    rendered.dedup();
    rendered
}
