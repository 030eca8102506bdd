//! The high-level optimizer API.
//!
//! [`Optimizer`] wraps the individual rewritings of `pcs-transform` behind a
//! builder: pick a [`Strategy`], optionally declare EDB predicate
//! constraints, and obtain an [`Optimized`] program that can be evaluated
//! directly against a [`Database`].

use std::collections::BTreeMap;

use pcs_analysis::{analyze_with, AnalyzeOptions, Diagnostic, ProgramAnalysis};
use pcs_constraints::ConstraintSet;
use pcs_engine::{Database, EvalOptions, EvalResult, Evaluator, ProgramPlans};
use pcs_lang::{Pred, Program};
use pcs_transform::{
    apply_sequence, constraint_rewrite, MagicOptions, Result, RewriteOptions, SequenceOptions,
    Step, TransformError,
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

/// Builder for optimizing a program-query pair.
#[derive(Debug, Clone)]
pub struct Optimizer {
    program: Program,
    strategy: Strategy,
    magic: MagicOptions,
    edb_constraints: BTreeMap<Pred, ConstraintSet>,
    eval: EvalOptions,
}

impl Optimizer {
    /// Creates an optimizer for a program (which must carry a query for every
    /// strategy except [`Strategy::None`]).
    pub fn new(program: Program) -> Self {
        Optimizer {
            program,
            strategy: Strategy::default(),
            magic: MagicOptions::bound_if_ground(),
            edb_constraints: BTreeMap::new(),
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

    /// Sets the Magic Templates options (sips, constraint magic).
    pub fn magic_options(mut self, magic: MagicOptions) -> Self {
        self.magic = magic;
        self
    }

    /// Declares the minimum predicate constraint of an EDB predicate, used by
    /// `Gen_predicate_constraints`.
    pub fn edb_constraint(mut self, pred: impl Into<Pred>, constraint: ConstraintSet) -> Self {
        self.edb_constraints.insert(pred.into(), constraint);
        self
    }

    /// Runs the static analyzer on the source program, with the declared EDB
    /// constraints.  [`Optimizer::optimize`] calls this itself; it is public
    /// so front-ends like the shell's `.check` command can report findings
    /// without optimizing.
    pub fn analyze(&self) -> ProgramAnalysis {
        let options = AnalyzeOptions::new().with_edb_constraints(self.edb_constraints.clone());
        analyze_with(&self.program, &options)
    }

    /// Runs the selected rewriting pipeline.
    ///
    /// The source program is first analyzed and the findings attached to the
    /// returned [`Optimized`]; error-severity findings do not abort (the
    /// strict front-end is `pcs-lint`).  Rules the analyzer proves dead stay
    /// in the program: they derive nothing.
    pub fn optimize(&self) -> Result<Optimized> {
        let diagnostics = {
            let _span = pcs_telemetry::span(pcs_telemetry::Phase::Analyze);
            self.analyze().diagnostics
        };
        let program = &self.program;
        let rewrite_options = RewriteOptions {
            edb_constraints: self.edb_constraints.clone(),
            ..Default::default()
        };
        let query_pred = program
            .query()
            .and_then(|q| q.literals.first())
            .map(|l| l.predicate.clone());
        let rewrite_span = pcs_telemetry::span(pcs_telemetry::Phase::Rewrite);
        let mut optimized = match &self.strategy {
            Strategy::None => Optimized {
                program: program.clone(),
                query_pred: query_pred.ok_or(TransformError::MissingQuery)?,
                eval: self.eval.clone(),
                diagnostics: Vec::new(),
            },
            Strategy::ConstraintRewrite => {
                let result = constraint_rewrite(program, &rewrite_options)?;
                Optimized {
                    program: result.program,
                    query_pred: query_pred.ok_or(TransformError::MissingQuery)?,
                    eval: self.eval.clone(),
                    diagnostics: Vec::new(),
                }
            }
            Strategy::MagicOnly => self.run_sequence(program, &[Step::Magic], rewrite_options)?,
            Strategy::Optimal => {
                self.run_sequence(program, &pcs_transform::OPTIMAL_SEQUENCE, rewrite_options)?
            }
            Strategy::Sequence(steps) => self.run_sequence(program, steps, rewrite_options)?,
        };
        drop(rewrite_span);
        optimized.diagnostics = diagnostics;
        Ok(optimized)
    }

    fn run_sequence(
        &self,
        program: &Program,
        steps: &[Step],
        rewrite: RewriteOptions,
    ) -> Result<Optimized> {
        let options = SequenceOptions {
            rewrite,
            magic: self.magic,
        };
        let result = apply_sequence(program, steps, &options)?;
        Ok(Optimized {
            program: result.program,
            query_pred: result.query_pred,
            eval: self.eval.clone(),
            diagnostics: Vec::new(),
        })
    }
}

/// An optimized program ready for evaluation.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The rewritten program (query included).
    pub program: Program,
    /// The predicate holding the query answers after rewriting (the adorned
    /// query predicate when Magic Templates was applied).
    pub query_pred: Pred,
    /// The evaluation options configured on the [`Optimizer`] (limits,
    /// tracing).
    pub eval: EvalOptions,
    /// The static-analysis findings for the source program, sorted most
    /// severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Optimized {
    /// The evaluator for this program with the configured options — the
    /// handoff a long-lived `pcs-service` session uses: build the evaluator
    /// once, [`Evaluator::evaluate`] to materialize, then
    /// [`Evaluator::apply`] per update batch.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator::new(&self.program, self.eval.clone())
    }

    /// Evaluates the optimized program bottom-up against a database, using
    /// the options configured via [`Optimizer::eval_options`].
    pub fn evaluate(&self, db: &Database) -> EvalResult {
        self.evaluate_with(db, self.eval.clone())
    }

    /// Evaluates with explicit options (limits, tracing).
    pub fn evaluate_with(&self, db: &Database, options: EvalOptions) -> EvalResult {
        Evaluator::new(&self.program, options).evaluate(db)
    }

    /// Renders the compiled join plan of every (rule × delta-position) body
    /// of the rewritten program, one deterministic line per plan — the
    /// backing of the shell's `.explain` command.  Plans depend on the
    /// program alone, so what is rendered is what runs.
    pub fn explain(&self) -> Vec<String> {
        let flat = self.program.flattened();
        pcs_engine::render_plans(&flat, &ProgramPlans::compile(&flat))
    }

    /// Evaluates and returns the number of answers to the program's query.
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
