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
use pcs_lang::{Literal, Pred, Program};
use pcs_transform::{
    apply_sequence, constraint_rewrite, retarget_query, MagicOptions, Result, RewriteOptions,
    SequenceOptions, Step, TransformError,
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
                unretargeted: None,
            },
            Strategy::ConstraintRewrite => {
                let result = constraint_rewrite(program, &rewrite_options)?;
                Optimized {
                    program: result.program,
                    query_pred: query_pred.ok_or(TransformError::MissingQuery)?,
                    eval: self.eval.clone(),
                    diagnostics: Vec::new(),
                    unretargeted: None,
                }
            }
            Strategy::MagicOnly => self.run_sequence(program, &[Step::Magic], rewrite_options)?,
            Strategy::Optimal => {
                self.run_sequence(program, &pcs_transform::OPTIMAL_SEQUENCE, rewrite_options)?
            }
            Strategy::Sequence(steps) => self.run_sequence(program, steps, rewrite_options)?,
        };
        if self.strategy != Strategy::None {
            optimized = optimized.retargeted();
        }
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
            unretargeted: None,
        })
    }
}

/// An optimized program ready for evaluation.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The rewritten program (query included).  Where [`retarget_query`]
    /// fired, it is right only over a database with no base fact on the
    /// query predicate or the one it replaced; see
    /// [`Optimized::for_database`].
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
    /// Where [`retarget_query`] fired, what it replaced.
    unretargeted: Option<Box<Unretargeted>>,
}

/// The program and query predicate from before [`retarget_query`], kept for
/// databases that hold base facts its proof does not cover.
#[derive(Debug, Clone)]
struct Unretargeted {
    program: Program,
    query_pred: Pred,
    /// `answer p(X̄) from q(X̄)`, the line [`Optimized::explain`] prints.
    account: String,
    /// The literal over the retargeted query predicate whose answers are
    /// the removed query predicate's facts.
    listing: Literal,
}

impl Optimized {
    /// Applies [`retarget_query`] to the rewritten program, keeping the
    /// program it replaces.
    fn retargeted(self) -> Optimized {
        let Some(retarget) = retarget_query(&self.program) else {
            return self;
        };
        Optimized {
            query_pred: retarget.source.predicate.clone(),
            unretargeted: Some(Box::new(Unretargeted {
                program: self.program,
                query_pred: self.query_pred,
                account: retarget.render(),
                listing: retarget.listing,
            })),
            program: retarget.program,
            ..self
        }
    }

    /// Whether `db` holds a base fact on the retargeted query predicate or
    /// on the predicate it was copying: [`retarget_query`]'s proof covers
    /// derived facts only, so such a database is evaluated with the program
    /// from before the step.  Item 3 of the roadmap, which moves base facts
    /// on rule-defined predicates into the program, deletes this fallback.
    fn unretargeted_for(&self, db: &Database) -> Option<&Unretargeted> {
        self.unretargeted.as_deref().filter(|before| {
            !db.facts_for(&before.query_pred).is_empty()
                || !db.facts_for(&self.query_pred).is_empty()
        })
    }

    /// The query predicate [`retarget_query`] removed, with the literal
    /// whose answers are its facts (the query predicate's, with the query's
    /// constants where a magic guard bound them).  `None` where the step did
    /// not fire or [`Optimized::for_database`] undid it.
    pub fn removed_query(&self) -> Option<(&Pred, &Literal)> {
        self.unretargeted
            .as_deref()
            .map(|before| (&before.query_pred, &before.listing))
    }

    /// The program [`Optimized::evaluate`] runs over `db`: the rewritten
    /// one, unless `db` holds base facts the query retargeting does not
    /// cover (see [`Optimized::for_database`]).  Its query names the
    /// predicate holding the answers.
    pub fn program_for(&self, db: &Database) -> &Program {
        self.unretargeted_for(db)
            .map_or(&self.program, |before| &before.program)
    }

    /// This optimized program as it must run over `db`: unchanged, or —
    /// where `db` holds a base fact on the query predicate or on the
    /// predicate the retargeted query reads — with the query retargeting
    /// undone.  The choice holds for every later update, since only EDB
    /// predicates take updates.
    pub fn for_database(mut self, db: &Database) -> Optimized {
        if self.unretargeted_for(db).is_some() {
            let before = self.unretargeted.take().expect("it was just found");
            self.program = before.program;
            self.query_pred = before.query_pred;
        }
        self
    }

    /// The evaluator for this program with the configured options — the
    /// handoff a long-lived `pcs-service` session uses: build the evaluator
    /// once, [`Evaluator::evaluate`] to materialize, then
    /// [`Evaluator::apply`] per update batch.
    ///
    /// It runs [`Optimized::program`] and so assumes the database holds no
    /// base fact on the query predicate or on the predicate a retargeted
    /// query reads; [`Optimized::for_database`] first makes that so.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator::new(&self.program, self.eval.clone())
    }

    /// Evaluates the optimized program bottom-up against a database, using
    /// the options configured via [`Optimizer::eval_options`].
    pub fn evaluate(&self, db: &Database) -> EvalResult {
        self.evaluate_with(db, self.eval.clone())
    }

    /// Evaluates with explicit options (limits, tracing) the program
    /// [`Optimized::program_for`] picks for `db`.
    pub fn evaluate_with(&self, db: &Database, options: EvalOptions) -> EvalResult {
        Evaluator::new(self.program_for(db), options).evaluate(db)
    }

    /// Renders the compiled join plan of every (rule × delta-position) body
    /// of the rewritten program, one deterministic line per plan — the
    /// backing of the shell's `.explain` command.  Plans depend on the
    /// program alone, so what is rendered is what runs.  A retargeted query
    /// adds one first line, `answer p(X̄) from q(X̄)`.
    pub fn explain(&self) -> Vec<String> {
        let flat = self.program.flattened();
        let plans = pcs_engine::render_plans(&flat, &ProgramPlans::compile(&flat));
        self.unretargeted
            .iter()
            .map(|before| before.account.clone())
            .chain(plans)
            .collect()
    }

    /// Evaluates and returns the number of answers to the program's query.
    pub fn count_answers(&self, db: &Database) -> usize {
        let result = self.evaluate(db);
        match self.program_for(db).query() {
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
