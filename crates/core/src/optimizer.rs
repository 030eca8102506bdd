//! The high-level optimizer API.
//!
//! [`Optimizer`] wraps the individual rewritings of `pcs-transform` behind a
//! builder: pick a [`Strategy`] and obtain an [`Optimized`] program that can
//! be evaluated directly against a [`Database`] whose base facts sit on EDB
//! predicates ([`Optimized::check_database`]).

use std::collections::BTreeSet;

use pcs_analysis::{analyze, Diagnostic, ProgramAnalysis};
use pcs_engine::{Database, EvalOptions, EvalResult, Evaluator, ProgramPlans};
use pcs_lang::{Literal, Pred, Program};
use pcs_transform::{
    apply_sequence, retarget_query, PropagateOptions, Result, Step, TransformError,
    CONSTRAINT_REWRITE, OPTIMAL_SEQUENCE,
};

/// Which rewriting pipeline to apply.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Strategy {
    /// No rewriting: evaluate the program as written.
    None,
    /// `Constraint_rewrite` (Section 4.5): propagate minimum predicate
    /// constraints, then minimum QRP constraints.
    ConstraintRewrite,
    /// Constraint magic rewriting only (Appendix B / Section 7.2).
    MagicOnly,
    /// The optimal sequence of Theorem 7.10: `pred, qrp, mg`.
    #[default]
    Optimal,
    /// An arbitrary sequence of `pred` / `qrp` / `mg` steps (Section 7).
    Sequence(Vec<Step>),
}

impl Strategy {
    /// The rewriting steps this strategy runs through
    /// [`pcs_transform::apply_sequence`]; `None` for [`Strategy::None`],
    /// which runs the program as written.
    pub fn steps(&self) -> Option<&[Step]> {
        match self {
            Strategy::None => None,
            Strategy::ConstraintRewrite => Some(&CONSTRAINT_REWRITE),
            Strategy::MagicOnly => Some(&[Step::Magic]),
            Strategy::Optimal => Some(&OPTIMAL_SEQUENCE),
            Strategy::Sequence(steps) => Some(steps),
        }
    }
}

/// Builder for optimizing a program-query pair.
#[derive(Debug, Clone)]
pub struct Optimizer {
    program: Program,
    strategy: Strategy,
    eval: EvalOptions,
}

impl Optimizer {
    /// Creates an optimizer for a program (which must carry a query for every
    /// strategy except [`Strategy::None`]).
    pub fn new(program: Program) -> Self {
        Optimizer {
            program,
            strategy: Strategy::default(),
            eval: EvalOptions::default(),
        }
    }

    /// The source program this optimizer was created with (before any
    /// rewriting).  Long-lived sessions use it to map interactive queries on
    /// the original query predicate onto the rewritten one.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Selects the rewriting strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The rewriting strategy currently configured.  Long-lived sessions
    /// record it so a persisted session can be re-optimized identically on
    /// recovery.
    pub fn configured_strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Sets the evaluation options the [`Optimized`] program will use
    /// (limits and tracing).
    pub fn eval_options(mut self, eval: EvalOptions) -> Self {
        self.eval = eval;
        self
    }

    /// Runs the static analyzer on the source program.
    /// [`Optimizer::optimize`] calls this itself; it is public so front-ends
    /// like the shell's `.check` command can report findings without
    /// optimizing.
    pub fn analyze(&self) -> ProgramAnalysis {
        analyze(&self.program)
    }

    /// Runs the selected rewriting pipeline.
    ///
    /// The source program is first analyzed and the findings attached to the
    /// returned [`Optimized`]; error-severity findings do not abort (the
    /// strict front-end is `pcs-lint`).  Rules the analyzer proves dead stay
    /// in the program: they derive nothing.
    ///
    /// Every strategy but [`Strategy::None`] ends with [`retarget_query`]:
    /// where the rewritten query predicate only copies another predicate,
    /// the query reads that predicate instead.
    pub fn optimize(&self) -> Result<Optimized> {
        let diagnostics = {
            let _span = pcs_telemetry::span(pcs_telemetry::Phase::Analyze);
            self.analyze().diagnostics
        };
        let program = &self.program;
        let rewrite_span = pcs_telemetry::span(pcs_telemetry::Phase::Rewrite);
        let steps = self.strategy.steps();
        let (rewritten, query_pred) = match steps {
            None => {
                let query_pred = program
                    .query()
                    .and_then(|q| q.literals.first())
                    .map(|l| l.predicate.clone())
                    .ok_or(TransformError::MissingQuery)?;
                (program.clone(), query_pred)
            }
            Some(steps) => {
                let result = apply_sequence(program, steps, &PropagateOptions::default())?;
                (result.program, result.query_pred)
            }
        };
        let mut optimized = Optimized {
            program: rewritten,
            query_pred,
            eval: self.eval.clone(),
            diagnostics,
            rule_defined: BTreeSet::new(),
            removed_query: None,
        };
        if steps.is_some() {
            optimized = optimized.retargeted();
            optimized.rule_defined = program.idb_predicates();
            optimized
                .rule_defined
                .extend(optimized.program.idb_predicates());
        }
        drop(rewrite_span);
        Ok(optimized)
    }
}

/// An optimized program ready for evaluation.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The rewritten program (query included).
    pub program: Program,
    /// The predicate holding the query answers after rewriting (the adorned
    /// query predicate when Magic Templates was applied, the copied one
    /// where [`retarget_query`] fired).
    pub query_pred: Pred,
    /// The evaluation options configured on the [`Optimizer`] (limits,
    /// tracing).
    pub eval: EvalOptions,
    /// The static-analysis findings for the source program, sorted most
    /// severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// The predicates the source or the rewritten program defines by rules,
    /// which must hold no base fact; empty under [`Strategy::None`].
    rule_defined: BTreeSet<Pred>,
    /// Where [`retarget_query`] fired, the query predicate it removed.
    removed_query: Option<RemovedQuery>,
}

/// The query predicate [`retarget_query`] removed.
#[derive(Debug, Clone)]
struct RemovedQuery {
    predicate: Pred,
    /// `answer p(X̄) from q(X̄)`, the line [`Optimized::explain`] prints.
    account: String,
    /// The literal over the retargeted query predicate whose answers are
    /// the removed query predicate's facts.
    listing: Literal,
}

impl Optimized {
    /// Applies [`retarget_query`] to the rewritten program.
    fn retargeted(self) -> Optimized {
        let Some(retarget) = retarget_query(&self.program) else {
            return self;
        };
        Optimized {
            query_pred: retarget.source.predicate.clone(),
            removed_query: Some(RemovedQuery {
                predicate: self.query_pred,
                account: retarget.render(),
                listing: retarget.listing,
            }),
            program: retarget.program,
            ..self
        }
    }

    /// Checks the one thing every rewriting assumes about the database: its
    /// base facts sit on EDB predicates.  The equivalence proofs
    /// (Theorems 4.3, 4.4 and 7.10) cover only such databases; a base fact
    /// on a rule-defined predicate is filtered by that predicate's pushed
    /// constraints, and magic rules never read it.  So under every strategy
    /// but [`Strategy::None`], which runs the program as written, this
    /// returns the first predicate that `db` holds base facts on and the
    /// source program or its rewriting (an adorned or magic predicate)
    /// defines by rules.  Write such facts as rules of the program instead
    /// (as `fibonacci.pcs` does with `r1` and `r2`).
    pub fn check_database(&self, db: &Database) -> std::result::Result<(), Pred> {
        let refused = db
            .predicates()
            .find(|pred| self.rule_defined.contains(*pred));
        refused.map_or(Ok(()), |pred| Err(pred.clone()))
    }

    /// The query predicate [`retarget_query`] removed, with the literal
    /// whose answers are its facts (the query predicate's, with the query's
    /// constants where a magic guard bound them).  `None` where the step did
    /// not fire.
    pub fn removed_query(&self) -> Option<(&Pred, &Literal)> {
        self.removed_query
            .as_ref()
            .map(|removed| (&removed.predicate, &removed.listing))
    }

    /// The evaluator for this program with the configured options — the
    /// handoff a long-lived `pcs-service` session uses: check the database
    /// ([`Optimized::check_database`]), build the evaluator once,
    /// [`Evaluator::evaluate`] to materialize, then [`Evaluator::apply`] per
    /// update batch.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator::new(&self.program, self.eval.clone())
    }

    /// Evaluates the optimized program bottom-up against a database, using
    /// the options configured via [`Optimizer::eval_options`].
    ///
    /// # Panics
    ///
    /// If `db` fails [`Optimized::check_database`].
    pub fn evaluate(&self, db: &Database) -> EvalResult {
        self.evaluate_with(db, self.eval.clone())
    }

    /// Evaluates with explicit options (limits, tracing).
    ///
    /// # Panics
    ///
    /// If `db` fails [`Optimized::check_database`].
    pub fn evaluate_with(&self, db: &Database, options: EvalOptions) -> EvalResult {
        if let Err(pred) = self.check_database(db) {
            panic!("the database holds base facts on `{pred}`, which the program defines by rules");
        }
        Evaluator::new(&self.program, options).evaluate(db)
    }

    /// Renders the compiled join plan of every (rule × delta-position) body
    /// of the rewritten program, one deterministic line per plan — the
    /// backing of the shell's `.explain` command.  Plans depend on the
    /// program alone, so what is rendered is what runs.  A retargeted query
    /// adds one first line, `answer p(X̄) from q(X̄)`.
    pub fn explain(&self) -> Vec<String> {
        let flat = self.program.flattened();
        let plans = pcs_engine::render_plans(&flat, &ProgramPlans::compile(&flat));
        self.removed_query
            .iter()
            .map(|removed| removed.account.clone())
            .chain(plans)
            .collect()
    }

    /// Evaluates and returns the number of answers to the program's query.
    ///
    /// # Panics
    ///
    /// If `db` fails [`Optimized::check_database`].
    pub fn count_answers(&self, db: &Database) -> usize {
        let result = self.evaluate(db);
        match self.program.query() {
            Some(query) => result.answers(query).len(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use pcs_engine::UpdateBatch;
    use pcs_lang::Pred;

    #[test]
    fn strategies_agree_on_answers_for_flights() {
        let program = programs::flights();
        let db = programs::flights_database(6, 20);
        let baseline = Optimizer::new(program.clone())
            .strategy(Strategy::None)
            .optimize()
            .unwrap();
        let rewritten = Optimizer::new(program.clone())
            .strategy(Strategy::ConstraintRewrite)
            .optimize()
            .unwrap();
        let optimal = Optimizer::new(program)
            .strategy(Strategy::Optimal)
            .optimize()
            .unwrap();
        let expected = baseline.count_answers(&db);
        assert_eq!(rewritten.count_answers(&db), expected);
        assert_eq!(optimal.count_answers(&db), expected);
        // The rewritten programs compute no more flight facts than the
        // baseline.
        let base_eval = baseline.evaluate(&db);
        let rewritten_eval = rewritten.evaluate(&db);
        assert!(
            rewritten_eval.count_for(&Pred::new("flight"))
                <= base_eval.count_for(&Pred::new("flight"))
        );
    }

    #[test]
    fn eval_options_thread_through_the_builder() {
        let optimized = Optimizer::new(programs::flights())
            .eval_options(EvalOptions::traced(3))
            .optimize()
            .unwrap();
        assert!(optimized.eval.trace);
        let result = optimized.evaluate(&programs::flights_database(6, 10));
        assert_eq!(result.stats.iterations.len(), 3);
        assert!(!result.stats.iterations[0].records.is_empty());
    }

    #[test]
    fn explain_renders_the_plans_evaluation_runs() {
        let optimized = Optimizer::new(programs::flights())
            .strategy(Strategy::ConstraintRewrite)
            .optimize()
            .unwrap();
        let lines = optimized.explain();
        assert!(!lines.is_empty());
        assert!(
            lines.iter().any(|l| l.starts_with("plan for rule ")),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.contains("delta")), "{lines:?}");
        // The rendering is deterministic.
        assert_eq!(lines, optimized.explain());
        // The optimized program's own options and fresh ones plan alike, so
        // both compute the same facts from the same derivations.
        let db = programs::flights_database(6, 10);
        let a = optimized.evaluate(&db);
        let b = Evaluator::new(&optimized.program, EvalOptions::default()).evaluate(&db);
        assert_eq!(a.termination, b.termination);
        assert_eq!(a.stats.facts_per_predicate, b.stats.facts_per_predicate);
        assert_eq!(a.stats.total_derivations(), b.stats.total_derivations());
    }

    #[test]
    fn optimized_insert_batches_match_scratch_across_strategies() {
        let program = programs::flights();
        let base = programs::flights_database(6, 10);
        // Five extra legs arriving later as an update batch.
        let mut full = programs::flights_database(6, 15);
        let updates: Vec<pcs_engine::Fact> = full
            .facts_for(&Pred::new("singleleg"))
            .iter()
            .filter(|fact| !base.facts_for(&Pred::new("singleleg")).contains(fact))
            .cloned()
            .collect();
        assert!(!updates.is_empty());
        full = base.clone();
        for fact in &updates {
            full.add(fact.clone());
        }
        for strategy in [
            Strategy::None,
            Strategy::ConstraintRewrite,
            Strategy::Optimal,
        ] {
            let optimized = Optimizer::new(program.clone())
                .strategy(strategy)
                .optimize()
                .unwrap();
            let scratch = optimized.evaluate(&full);
            let materialized = optimized.evaluate(&base);
            let resumed = optimized.evaluator().apply(
                materialized.relations,
                UpdateBatch::inserting(updates.clone()),
                &Database::new(),
            );
            assert_eq!(resumed.termination, scratch.termination);
            assert_eq!(
                resumed.stats.facts_per_predicate,
                scratch.stats.facts_per_predicate
            );
        }
    }

    #[test]
    fn analyzer_findings_attach_to_the_optimized_program() {
        let program = pcs_lang::parse_program(
            "q(X) :- e(X), X > 3, X < 2.\n\
             q(X) :- e(X).\n\
             ?- q(U).",
        )
        .unwrap();
        let optimized = Optimizer::new(program)
            .strategy(Strategy::None)
            .optimize()
            .unwrap();
        assert!(optimized
            .diagnostics
            .iter()
            .any(|d| d.code == pcs_analysis::Code::UnsatisfiableRule));
        // Error-severity findings are reported the same way, not refused.
        let unsafe_program = pcs_lang::parse_program("q(X, Y) :- e(X).\n?- q(U, V).").unwrap();
        let optimized = Optimizer::new(unsafe_program)
            .strategy(Strategy::None)
            .optimize()
            .unwrap();
        assert!(optimized
            .diagnostics
            .iter()
            .any(|d| d.severity == pcs_analysis::Severity::Error));
    }

    #[test]
    fn missing_query_is_an_error() {
        let program = pcs_lang::parse_program("p(X) :- b(X).").unwrap();
        let err = Optimizer::new(program).optimize().unwrap_err();
        assert_eq!(err, TransformError::MissingQuery);
    }

    #[test]
    fn sequence_strategy_exposes_section_7_orderings() {
        let program = programs::example_71();
        let db = programs::example_7x_database(20, 10);
        let qrp_mg = Optimizer::new(program.clone())
            .strategy(Strategy::Sequence(vec![Step::Qrp, Step::Magic]))
            .optimize()
            .unwrap();
        let mg_qrp = Optimizer::new(program)
            .strategy(Strategy::Sequence(vec![Step::Magic, Step::Qrp]))
            .optimize()
            .unwrap();
        let a = qrp_mg.evaluate(&db);
        let b = mg_qrp.evaluate(&db);
        assert!(a.total_facts() <= b.total_facts());
    }
}
