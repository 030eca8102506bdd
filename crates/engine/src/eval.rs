//! Bottom-up semi-naive fixpoint evaluation of CQL programs.
//!
//! The evaluator implements the rule-application semantics of Section 2: a
//! derivation picks one fact per body literal, forms the conjunction of the
//! rule's constraints with the equalities induced by the chosen facts, checks
//! satisfiability, and projects onto the head variables (quantifier
//! elimination) to obtain a new constraint fact.  Newly derived facts that
//! are subsumed by known facts are discarded, as in Tables 1 and 2 of the
//! paper.
//!
//! Ground facts and ground bindings are handled on a fast path that avoids
//! Fourier–Motzkin work entirely, so programs whose evaluation computes only
//! ground facts (Theorem 4.4) evaluate with ordinary Datalog-like cost.
//!
//! There is one way to join: every (rule × delta-position) body, and every
//! join a DRed retraction needs, is compiled once per evaluator into a
//! static [`JoinPlan`](crate::plan::JoinPlan) and executed by a single
//! recursive executor over the explicit stable/delta/pending partition of
//! [`Relation`], probing the per-position hash indexes with the values bound
//! so far and falling back to a window scan only where a constraint-fact
//! match left the planned probe column without a value.  The independent
//! reference the production path is tested against is [`crate::naive`].

use std::collections::BTreeMap;
use std::time::Instant;

use pcs_telemetry as telemetry;

use pcs_lang::{Pred, Program};

use crate::database::Database;
use crate::fact::Fact;
use crate::limits::Termination;
use crate::plan::ProgramPlans;
use crate::relation::{Relation, Window};
use crate::stats::{EvalStats, IterationStats};

mod answers;
mod dred;
mod matching;
mod options;
mod round;

pub use options::EvalOptions;
use round::{delta_candidates, run_and_absorb, EvalTotals, RoundTask, TaskKind};

/// The result of a bottom-up evaluation.
#[derive(Debug)]
pub struct EvalResult {
    /// The computed relations, per predicate (EDB relations included).
    pub relations: BTreeMap<Pred, Relation>,
    /// Evaluation statistics.
    pub stats: EvalStats,
    /// Why the evaluation stopped.
    pub termination: Termination,
}

impl EvalResult {
    /// The facts computed for a predicate, materialized in insertion order.
    pub fn facts_for(&self, pred: &Pred) -> Vec<Fact> {
        self.relations
            .get(pred)
            .map(Relation::to_facts)
            .unwrap_or_default()
    }

    /// Number of facts computed for a predicate.
    pub fn count_for(&self, pred: &Pred) -> usize {
        self.relations.get(pred).map_or(0, Relation::len)
    }

    /// Total number of facts across all predicates.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Deterministic estimate of the bytes held by the fact storage across
    /// all relations (see `Relation::approx_fact_bytes`).
    pub fn approx_fact_bytes(&self) -> usize {
        self.relations
            .values()
            .map(Relation::approx_fact_bytes)
            .sum()
    }

    /// Returns `true` if every computed fact is ground.
    pub fn only_ground_facts(&self) -> bool {
        self.relations
            .values()
            .all(|r| r.constraint_fact_count() == 0)
    }
}

/// The bottom-up semi-naive evaluator.
pub struct Evaluator {
    program: Program,
    options: EvalOptions,
    /// The static join plans of every rule, compiled once per evaluator.
    plans: ProgramPlans,
    /// Per rule, its display label in derivation records: its own label, or
    /// its 1-based index in the program.
    labels: Vec<String>,
}

impl Evaluator {
    /// Creates an evaluator for a program (which is flattened internally).
    /// Every join the evaluator can run — the (rule × delta-position) round
    /// bodies and the DRed over-deletion and re-derivation joins — is
    /// compiled into a validated static [`crate::plan::JoinPlan`] here, once.
    pub fn new(program: &Program, options: EvalOptions) -> Self {
        let program = program.flattened();
        let plans = {
            let _span = telemetry::span(telemetry::Phase::PlanCompile);
            ProgramPlans::compile(&program)
        };
        let labels = program
            .rules()
            .iter()
            .enumerate()
            .map(|(index, rule)| {
                rule.label
                    .clone()
                    .unwrap_or_else(|| format!("rule{}", index + 1))
            })
            .collect();
        Evaluator {
            program,
            options,
            plans,
            labels,
        }
    }

    /// The (flattened) program being evaluated.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs the evaluation against a database.
    pub fn evaluate(&self, db: &Database) -> EvalResult {
        self.run_fixpoint(Start::Scratch(db), 0)
    }

    /// Seeds one relation per program/EDB predicate with the database facts.
    fn seed_relations(&self, db: &Database) -> BTreeMap<Pred, Relation> {
        let mut relations: BTreeMap<Pred, Relation> = BTreeMap::new();
        for pred in self.program.all_predicates() {
            relations.entry(pred).or_default();
        }
        for pred in db.predicates() {
            let relation = relations.entry(pred.clone()).or_default();
            for fact in db.facts_for(pred) {
                relation.insert_ref(fact);
            }
        }
        relations
    }

    fn finalize(
        relations: BTreeMap<Pred, Relation>,
        mut stats: EvalStats,
        termination: Termination,
    ) -> EvalResult {
        stats.facts_per_predicate = relations
            .iter()
            .map(|(p, r)| (p.clone(), r.len()))
            .collect();
        stats.constraint_facts = relations
            .values()
            .map(Relation::constraint_fact_count)
            .sum();
        EvalResult {
            relations,
            stats,
            termination,
        }
    }

    /// The semi-naive fixpoint.
    ///
    /// Every iteration is decomposed into an ordered list of derivation
    /// [`RoundTask`]s, one per (rule, delta-position), that only *read* the
    /// relations: joins see exactly the facts visible at the iteration
    /// boundary (pending insertions are invisible to every [`Window`]).
    /// The tasks run one after another on the calling thread, each task's
    /// derivations absorbed before the next runs, so subsumption outcomes,
    /// statistics, and termination depend only on the task order.
    ///
    /// A [`Start::Scratch`] evaluation seeds the relations from a database
    /// and opens with a naive round (every initial fact is delta, empty-body
    /// rules fire).  A [`Start::Resume`] evaluation receives relations whose
    /// stable segment is a completed materialization and whose delta is the
    /// freshly inserted update facts; it opens directly with a semi-naive
    /// round over that delta.
    ///
    /// `spent_derivations` pre-charges the derivation budget: a retraction's
    /// re-derivation round has already spent that many derivations against
    /// `max_derivations`, and the resumed fixpoint must not grant the cap a
    /// second time (the count is *not* reflected in the returned iteration
    /// statistics — the caller owns that round's stats).
    fn run_fixpoint(&self, start: Start<'_>, spent_derivations: usize) -> EvalResult {
        let limits = self.options.limits;
        let resumed = matches!(start, Start::Resume(_));
        // A resumed run's wall time is already covered by the enclosing
        // resume/retract span recorded in `apply`.
        let _phase_span = (!resumed).then(|| telemetry::span(telemetry::Phase::Fixpoint));
        let mut relations = match start {
            Start::Scratch(db) => {
                let mut relations = self.seed_relations(db);
                // The EDB facts form the first delta; stable starts empty,
                // so the iteration-0 round is the naive round over the
                // initial facts.
                for relation in relations.values_mut() {
                    relation.advance();
                }
                relations
            }
            Start::Resume(relations) => relations,
        };

        let mut stats = EvalStats {
            resumed,
            ..EvalStats::default()
        };
        let mut totals = EvalTotals {
            derivations: spent_derivations,
            facts: relations.values().map(Relation::len).sum(),
        };
        let termination;
        let mut iteration = 0usize;
        loop {
            if iteration >= limits.max_iterations {
                termination = Termination::IterationLimit;
                break;
            }
            if totals.facts >= limits.max_facts {
                termination = Termination::FactLimit;
                break;
            }
            let iter_start = telemetry::enabled().then(Instant::now);
            let mut iter_stats = IterationStats {
                delta_facts: relations
                    .values()
                    .map(|r| r.window_range(Window::Delta).len())
                    .sum(),
                ..IterationStats::default()
            };

            // A resumed run's first round is already semi-naive: the seed
            // facts fired (and the naive round ran) when the materialization
            // it resumes from was first computed.
            let naive_round = iteration == 0 && !resumed;
            let tasks = self.round_tasks(naive_round, &relations);
            let hit_limit = run_and_absorb(
                &tasks,
                &self.options,
                &mut relations,
                &mut iter_stats,
                &mut totals,
            );

            let new_facts = iter_stats.new_facts;
            if let Some(started) = iter_start {
                iter_stats.wall_nanos =
                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            stats.iterations.push(iter_stats);
            for relation in relations.values_mut() {
                relation.advance();
            }
            iteration += 1;

            if let Some(limit) = hit_limit {
                termination = limit;
                break;
            }
            if new_facts == 0 {
                termination = Termination::Fixpoint;
                break;
            }
        }
        telemetry::flush_thread();
        Evaluator::finalize(relations, stats, termination)
    }

    /// Builds the derivation tasks of one iteration in the order their
    /// derivations are absorbed: rule by rule, the fact task of a body-less
    /// rule (naive round only) or one task per delta position with delta
    /// candidates.
    fn round_tasks(
        &self,
        naive_round: bool,
        relations: &BTreeMap<Pred, Relation>,
    ) -> Vec<RoundTask<'_>> {
        let mut tasks = Vec::new();
        for (rule_index, rule) in self.program.rules().iter().enumerate() {
            let label = self.labels[rule_index].as_str();
            if rule.body.is_empty() {
                // Facts and constraint facts fire only in the naive round
                // (never in a resumed run, whose materialization already
                // holds them).
                if naive_round {
                    tasks.push(self.fact_task(rule_index));
                }
                continue;
            }
            for delta_pos in 0..rule.body.len() {
                let Some(relation) = relations
                    .get(&rule.body[delta_pos].predicate)
                    .filter(|r| !r.delta_is_empty())
                else {
                    continue;
                };
                let plan = self
                    .plans
                    .plan(rule_index, delta_pos)
                    .expect("every body position has a round plan");
                let candidates = delta_candidates(plan, relation);
                if candidates.is_empty() {
                    continue;
                }
                tasks.push(RoundTask {
                    rule,
                    label,
                    plan,
                    kind: TaskKind::Delta { candidates },
                });
            }
        }
        tasks
    }

    /// The task firing the body-less rule `rule_index` (a fact or
    /// constraint fact).
    fn fact_task(&self, rule_index: usize) -> RoundTask<'_> {
        RoundTask {
            rule: &self.program.rules()[rule_index],
            label: &self.labels[rule_index],
            plan: self
                .plans
                .fact_plan(rule_index)
                .expect("every body-less rule has a fact plan"),
            kind: TaskKind::Entry { seed: None },
        }
    }
}

/// How a fixpoint run begins.
enum Start<'a> {
    /// Seed the relations from a database and open with a naive round.
    Scratch(&'a Database),
    /// Continue from a materialization whose delta is the update facts
    /// (prepared by [`Evaluator::apply`]); open with a semi-naive round.
    Resume(BTreeMap<Pred, Relation>),
}

/// Helpers shared by the unit tests of this module and its submodules.
#[cfg(test)]
mod test_support {
    use super::{EvalOptions, EvalResult, Evaluator};
    use crate::database::Database;
    use pcs_lang::parse_program;

    pub(super) fn eval(source: &str, db: &Database) -> EvalResult {
        let program = parse_program(source).unwrap();
        Evaluator::new(&program, EvalOptions::default()).evaluate(db)
    }

    /// Renders relations sorted so runs can be compared fact-for-fact.
    pub(super) fn rendered(result: &EvalResult) -> Vec<(String, Vec<String>)> {
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
}

#[cfg(test)]
mod tests {
    use super::test_support::{eval, rendered};
    use super::*;
    use crate::database::UpdateBatch;
    use crate::value::Value;
    use pcs_constraints::{Atom, Var};
    use pcs_lang::parse_program;

    #[test]
    fn transitive_closure_over_ground_edb() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let result = eval(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        assert_eq!(result.count_for(&Pred::new("path")), 6);
        assert!(result.only_ground_facts());
    }

    #[test]
    fn constraints_prune_derivations() {
        let mut db = Database::new();
        for i in 0..10 {
            db.add_ground("n", vec![Value::num(i)]);
        }
        let result = eval("small(X) :- n(X), X <= 3.", &db);
        assert_eq!(result.count_for(&Pred::new("small")), 4);
    }

    #[test]
    fn arithmetic_in_heads_and_bodies() {
        let mut db = Database::new();
        db.add_ground("start", vec![Value::num(0)]);
        // count up to 5 by adding 1
        let result = eval(
            "upto(X) :- start(X).\n\
             upto(Y) :- upto(X), X <= 4, Y = X + 1.",
            &db,
        );
        assert_eq!(result.count_for(&Pred::new("upto")), 6);
        assert!(result.only_ground_facts());
        assert!(result.termination.is_fixpoint());
    }

    #[test]
    fn symbolic_constants_join_correctly() {
        let mut db = Database::new();
        db.add_ground(
            "singleleg",
            vec![
                Value::sym("madison"),
                Value::sym("chicago"),
                Value::num(50),
                Value::num(100),
            ],
        );
        db.add_ground(
            "singleleg",
            vec![
                Value::sym("chicago"),
                Value::sym("seattle"),
                Value::num(230),
                Value::num(120),
            ],
        );
        let result = eval(
            "flight(S, D, T, C) :- singleleg(S, D, T, C), T > 0, C > 0.\n\
             flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
                 T = T1 + T2 + 30, C = C1 + C2.",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        // Two direct legs plus the madison->seattle composition.
        assert_eq!(result.count_for(&Pred::new("flight")), 3);
        let composed = result
            .facts_for(&Pred::new("flight"))
            .iter()
            .find(|f| {
                f.ground_values()
                    .is_some_and(|v| v[0] == Value::sym("madison") && v[1] == Value::sym("seattle"))
            })
            .cloned()
            .expect("composed flight exists");
        let values = composed.ground_values().unwrap();
        assert_eq!(values[2], Value::num(50 + 230 + 30));
        assert_eq!(values[3], Value::num(100 + 120));
    }

    #[test]
    fn constraint_facts_are_computed_when_needed() {
        // p(X; X <= 10) as a constraint fact in the program; q selects from it.
        let db = Database::new();
        let result = eval(
            "p(X) :- X <= 10.\n\
             q(X) :- p(X), X >= 8.",
            &db,
        );
        assert!(result.termination.is_fixpoint());
        assert_eq!(result.count_for(&Pred::new("p")), 1);
        assert_eq!(result.count_for(&Pred::new("q")), 1);
        assert!(!result.only_ground_facts());
        let q_fact = &result.facts_for(&Pred::new("q"))[0];
        assert!(q_fact
            .constraint()
            .implies_atom(&Atom::var_ge(Var::position(1), 8)));
        assert!(q_fact
            .constraint()
            .implies_atom(&Atom::var_le(Var::position(1), 10)));
    }

    #[test]
    fn subsumed_derivations_are_counted_not_stored() {
        let mut db = Database::new();
        db.add_ground("e", vec![Value::num(1), Value::num(2)]);
        db.add_ground("e", vec![Value::num(2), Value::num(1)]);
        // Both rules derive p(1) and p(2); duplicates are subsumed.
        let result = eval("p(X) :- e(X, Y).\np(X) :- e(Y, X).", &db);
        assert_eq!(result.count_for(&Pred::new("p")), 2);
        assert!(result.stats.total_subsumed() >= 2);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let db = Database::new();
        // A non-terminating counter.
        let program = parse_program("nat(0).\nnat(Y) :- nat(X), Y = X + 1.").unwrap();
        let result = Evaluator::new(&program, EvalOptions::traced(5)).evaluate(&db);
        assert_eq!(result.termination, Termination::IterationLimit);
        assert_eq!(result.stats.iterations.len(), 5);
        assert!(result.count_for(&Pred::new("nat")) >= 4);
    }

    #[test]
    fn resumed_updates_match_scratch_evaluation() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             short(X, Y) :- path(X, Y), X <= 2.",
        )
        .unwrap();
        let mut base = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            base.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let updates =
            crate::database::parse_facts("edge(4, 5).\nedge(0, 1).\nedge(9, 10).").unwrap();
        let mut full = base.clone();
        for fact in &updates {
            full.add(fact.clone());
        }
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let scratch = evaluator.evaluate(&full);
        let materialized = evaluator.evaluate(&base);
        let resumed = evaluator.apply(
            materialized.relations,
            UpdateBatch::inserting(updates.clone()),
            &Database::new(),
        );
        assert!(resumed.stats.resumed && !scratch.stats.resumed);
        assert_eq!(resumed.termination, scratch.termination);
        assert_eq!(rendered(&resumed), rendered(&scratch));
        // The resumed run only re-derives what the updates reach.
        assert!(resumed.stats.total_derivations() < scratch.stats.total_derivations());
    }

    #[test]
    fn resuming_with_subsumed_updates_reaches_fixpoint_immediately() {
        let program = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut base = Database::new();
        for (a, b) in [(1, 2), (2, 3)] {
            base.add_ground("edge", vec![Value::num(a), Value::num(b)]);
        }
        let evaluator = Evaluator::new(&program, EvalOptions::default());
        let materialized = evaluator.evaluate(&base);
        let total = materialized.total_facts();
        // Both updates are already in the materialization.
        let updates = crate::database::parse_facts("edge(1, 2).\npath(1, 3).").unwrap();
        let resumed = evaluator.apply(
            materialized.relations,
            UpdateBatch::inserting(updates),
            &Database::new(),
        );
        assert_eq!(resumed.termination, Termination::Fixpoint);
        assert_eq!(resumed.stats.total_new_facts(), 0);
        assert_eq!(resumed.total_facts(), total);
        assert_eq!(resumed.stats.iterations.len(), 1);
    }
}
