//! The high-level optimizer API.
//!
//! [`Optimizer`] wraps the individual rewritings of `pcs-transform` behind a
//! builder: pick a [`Strategy`], optionally declare EDB predicate
//! constraints, and obtain an [`Optimized`] program that can be evaluated
//! directly against a [`Database`].

use std::collections::{BTreeMap, BTreeSet};

use pcs_analysis::{
    analyze_with, program_selectivity, selectivity_hints, AnalyzeOptions, Diagnostic,
    ProgramAnalysis,
};
use pcs_constraints::ConstraintSet;
use pcs_engine::{Database, EvalOptions, EvalResult, Evaluator};
use pcs_lang::{Pred, Program};
use pcs_transform::{
    apply_sequence, constraint_rewrite, MagicOptions, Result, RewriteOptions, SequenceOptions,
    Step, TransformError,
};

/// When the optimizer runs the static analyzer, read from the `PCS_ANALYZE`
/// environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeMode {
    /// Skip analysis entirely (dead-rule pruning still analyzes on demand).
    Off,
    /// Analyze and attach the findings to the [`Optimized`] program without
    /// failing — the default.
    #[default]
    Warn,
    /// Analyze and refuse to optimize a program with error-severity findings
    /// ([`TransformError::AnalysisRejected`]).
    Strict,
}

impl AnalyzeMode {
    /// Reads `PCS_ANALYZE` (`off`, `warn`, `strict`); unset selects
    /// [`AnalyzeMode::Warn`], an unrecognized value falls back to the
    /// default with a visible warning.
    pub fn from_env() -> Self {
        match std::env::var("PCS_ANALYZE") {
            Ok(raw) => {
                let value = raw.trim();
                match Self::parse(value) {
                    Some(mode) => mode,
                    None => {
                        eprintln!(
                            "warning: ignoring invalid PCS_ANALYZE={value:?}: expected `off`, `warn` or `strict`"
                        );
                        AnalyzeMode::default()
                    }
                }
            }
            Err(_) => AnalyzeMode::default(),
        }
    }

    /// Parses one spelling of the mode.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "off" | "0" | "false" | "none" => Some(AnalyzeMode::Off),
            "warn" | "on" | "1" | "true" => Some(AnalyzeMode::Warn),
            "strict" => Some(AnalyzeMode::Strict),
            _ => None,
        }
    }
}

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
    /// (limits, tracing, worker threads, dead-rule pruning, telemetry).
    pub fn eval_options(mut self, eval: EvalOptions) -> Self {
        self.eval = eval;
        self
    }

    /// Sets the number of evaluation worker threads the [`Optimized`]
    /// program will use (see `EvalOptions::threads`): `1` selects the exact
    /// sequential code path, larger values shard each fixpoint iteration
    /// across a worker pool with a deterministic merge.  This is a
    /// convenience over [`Optimizer::eval_options`] that preserves the other
    /// configured evaluation options.
    pub fn eval_threads(mut self, threads: usize) -> Self {
        self.eval.threads = threads.max(1);
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
    /// constraints.  [`Optimizer::optimize`] calls this automatically (per
    /// the `PCS_ANALYZE` mode); it is public so front-ends like the shell's
    /// `.check` command can report findings without optimizing.
    pub fn analyze(&self) -> ProgramAnalysis {
        let options = AnalyzeOptions::new().with_edb_constraints(self.edb_constraints.clone());
        analyze_with(&self.program, &options)
    }

    /// Runs the selected rewriting pipeline.
    ///
    /// Unless `PCS_ANALYZE=off`, the source program is first analyzed and
    /// the findings attached to the returned [`Optimized`]; with
    /// `PCS_ANALYZE=strict`, error-severity findings abort with
    /// [`TransformError::AnalysisRejected`] before any rewriting.  When the
    /// evaluation options request it ([`EvalOptions::prune_dead`]), rules the
    /// analyzer proves dead are pruned from the source program before
    /// rewriting.
    pub fn optimize(&self) -> Result<Optimized> {
        let mode = AnalyzeMode::from_env();
        let mut diagnostics = Vec::new();
        let mut program = self.program.clone();
        if mode != AnalyzeMode::Off || self.eval.prune_dead {
            let analysis = {
                let _span =
                    pcs_telemetry::span_if(self.eval.telemetry, pcs_telemetry::Phase::Analyze);
                self.analyze()
            };
            if mode == AnalyzeMode::Strict && analysis.has_errors() {
                let details = analysis
                    .errors()
                    .map(std::string::ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n");
                return Err(TransformError::AnalysisRejected {
                    errors: analysis.errors().count(),
                    details,
                });
            }
            if self.eval.prune_dead && !analysis.dead_rules.is_empty() {
                program = prune_dead_rules(&program, &analysis.dead_rules);
            }
            diagnostics = analysis.diagnostics;
        }
        let rewrite_options = RewriteOptions {
            edb_constraints: self.edb_constraints.clone(),
            ..Default::default()
        };
        let query_pred = program
            .query()
            .and_then(|q| q.literals.first())
            .map(|l| l.predicate.clone());
        let rewrite_span =
            pcs_telemetry::span_if(self.eval.telemetry, pcs_telemetry::Phase::Rewrite);
        let mut optimized = match &self.strategy {
            Strategy::None => Optimized {
                program: program.clone(),
                query_pred: query_pred.ok_or(TransformError::MissingQuery)?,
                eval: self.eval.clone(),
                diagnostics: Vec::new(),
            },
            Strategy::ConstraintRewrite => {
                let result = constraint_rewrite(&program, &rewrite_options)?;
                Optimized {
                    program: result.program,
                    query_pred: query_pred.ok_or(TransformError::MissingQuery)?,
                    eval: self.eval.clone(),
                    diagnostics: Vec::new(),
                }
            }
            Strategy::MagicOnly => self.run_sequence(&program, &[Step::Magic], rewrite_options)?,
            Strategy::Optimal => {
                self.run_sequence(&program, &pcs_transform::OPTIMAL_SEQUENCE, rewrite_options)?
            }
            Strategy::Sequence(steps) => self.run_sequence(&program, steps, rewrite_options)?,
        };
        drop(rewrite_span);
        optimized.diagnostics = diagnostics;
        // Derive the plan compiler's selectivity hints from the *rewritten*
        // program — its evaluators execute the rewritten rules, so the
        // per-position intervals must describe the rewritten predicates
        // (magic predicates included).  `PCS_ANALYZE=off` keeps the hints
        // empty; the planner then falls back to the structural order.
        if mode != AnalyzeMode::Off {
            let _span = pcs_telemetry::span_if(self.eval.telemetry, pcs_telemetry::Phase::Analyze);
            let options = AnalyzeOptions::new().with_edb_constraints(self.edb_constraints.clone());
            optimized.eval.hints =
                selectivity_hints(&program_selectivity(&optimized.program, &options));
        }
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

/// Removes the given rules from the program, except where removing every
/// defining rule of a predicate that is still referenced (by a surviving
/// rule body or the query) would turn that predicate into an implicitly
/// extensional one: such predicates keep their first defining rule (a dead
/// rule derives nothing, so keeping it is harmless).
fn prune_dead_rules(program: &Program, dead: &BTreeSet<usize>) -> Program {
    let rules = program.rules();
    let mut keep: Vec<bool> = (0..rules.len()).map(|i| !dead.contains(&i)).collect();
    loop {
        let mut referenced: BTreeSet<Pred> = program
            .query()
            .map(pcs_lang::Query::predicates)
            .unwrap_or_default();
        for (idx, rule) in rules.iter().enumerate() {
            if keep[idx] {
                referenced.extend(rule.body_predicates());
            }
        }
        let mut changed = false;
        for pred in &referenced {
            let defining: Vec<usize> = rules
                .iter()
                .enumerate()
                .filter(|(_, r)| &r.head.predicate == pred)
                .map(|(i, _)| i)
                .collect();
            if !defining.is_empty() && defining.iter().all(|&i| !keep[i]) {
                keep[defining[0]] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut pruned = Program::new().with_edb(program.edb_predicates());
    for (idx, rule) in rules.iter().enumerate() {
        if keep[idx] {
            pruned.add_rule(rule.clone());
        }
    }
    if let Some(query) = program.query() {
        pruned.set_query(query.clone());
    }
    pruned
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
    /// tracing, threads), plus the analyzer-derived selectivity hints
    /// [`Optimizer::optimize`] filled in for the plan compiler.
    pub eval: EvalOptions,
    /// The static-analysis findings for the source program, sorted most
    /// severe first.  Empty when `PCS_ANALYZE=off` (and dead-rule pruning was
    /// not requested).
    pub diagnostics: Vec<Diagnostic>,
}

impl Optimized {
    /// The evaluator for this program with the configured options — the
    /// handoff a long-lived `pcs-service` session uses: build the evaluator
    /// once, [`Evaluator::evaluate`] to materialize, then
    /// [`Evaluator::resume`] per update batch.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator::new(&self.program, self.eval.clone())
    }

    /// Evaluates the optimized program bottom-up against a database, using
    /// the options configured via [`Optimizer::eval_options`].
    pub fn evaluate(&self, db: &Database) -> EvalResult {
        self.evaluate_with(db, self.eval.clone())
    }

    /// Resumes a completed materialization of this program (the `relations`
    /// of a previous [`EvalResult`]) with a batch of update facts as the
    /// seed delta, re-running only the affected part of the fixpoint.  See
    /// [`Evaluator::resume`] for the exact contract.
    pub fn resume(
        &self,
        relations: std::collections::BTreeMap<Pred, pcs_engine::Relation>,
        updates: Vec<pcs_engine::Fact>,
    ) -> EvalResult {
        self.evaluator().resume(relations, updates)
    }

    /// Incrementally retracts facts from a completed materialization of
    /// this program (DRed-style delete/re-derive): `relations` is the
    /// `relations` map of a previous [`EvalResult`], `deletions` are the
    /// facts to retract, and `surviving_edb` is the extensional database
    /// *after* the deletions (needed to resurrect facts a retracted
    /// subsuming fact swallowed at seed time).  See [`Evaluator::retract`]
    /// for the exact contract.
    pub fn retract(
        &self,
        relations: std::collections::BTreeMap<Pred, pcs_engine::Relation>,
        deletions: Vec<pcs_engine::Fact>,
        surviving_edb: &Database,
    ) -> EvalResult {
        self.evaluator()
            .retract(relations, deletions, surviving_edb)
    }

    /// Evaluates with explicit options (limits, tracing).  Options that do
    /// not carry their own selectivity hints inherit the analyzer-derived
    /// hints of this optimized program, so an explicit-options evaluation
    /// plans with the same cost model as [`Optimized::evaluate`].
    pub fn evaluate_with(&self, db: &Database, mut options: EvalOptions) -> EvalResult {
        if options.hints.is_empty() {
            options.hints = self.eval.hints.clone();
        }
        Evaluator::new(&self.program, options).evaluate(db)
    }

    /// Renders the compiled join plan of every (rule × delta-position) body
    /// of the rewritten program, one deterministic line per plan with
    /// per-literal cost annotations — the backing of the shell's `.explain`
    /// command.  The plans are compiled with the same analyzer-derived hints
    /// the evaluators use, so what is rendered is what runs.
    pub fn explain(&self) -> Vec<String> {
        let flat = self.program.flattened();
        let plans = pcs_engine::compile_plans(&flat, &self.eval.hints);
        pcs_engine::render_plans(&flat, &plans)
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
    fn eval_threads_shard_without_changing_results() {
        let program = programs::flights();
        let db = programs::flights_database(6, 12);
        let sequential = Optimizer::new(program.clone())
            .eval_threads(1)
            .optimize()
            .unwrap();
        let parallel = Optimizer::new(program).eval_threads(4).optimize().unwrap();
        assert_eq!(sequential.eval.threads, 1);
        assert_eq!(parallel.eval.threads, 4);
        let a = sequential.evaluate(&db);
        let b = parallel.evaluate(&db);
        assert_eq!(a.termination, b.termination);
        assert_eq!(a.stats.facts_per_predicate, b.stats.facts_per_predicate);
        assert_eq!(a.stats.total_derivations(), b.stats.total_derivations());
    }

    #[test]
    fn optimize_derives_plan_hints_and_explain_renders_them() {
        // The flights program constrains leg counts, so the analyzer infers
        // intervals for the rewritten predicates and the hints are non-empty.
        let optimized = Optimizer::new(programs::flights())
            .strategy(Strategy::ConstraintRewrite)
            .optimize()
            .unwrap();
        assert!(!optimized.eval.hints.is_empty());
        let lines = optimized.explain();
        assert!(!lines.is_empty());
        assert!(
            lines.iter().any(|l| l.starts_with("plan for rule ")),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.contains("delta")), "{lines:?}");
        // The rendering is deterministic.
        assert_eq!(lines, optimized.explain());
        // Hints only reorder joins: evaluating without them computes the
        // same facts from the same derivations.
        let db = programs::flights_database(6, 10);
        let a = optimized.evaluate(&db);
        let b = Evaluator::new(&optimized.program, EvalOptions::default()).evaluate(&db);
        assert_eq!(a.termination, b.termination);
        assert_eq!(a.stats.facts_per_predicate, b.stats.facts_per_predicate);
        assert_eq!(a.stats.total_derivations(), b.stats.total_derivations());
    }

    #[test]
    fn optimized_resume_matches_scratch_across_strategies() {
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
            let resumed = optimized.resume(materialized.relations, updates.clone());
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
    }

    #[test]
    fn strict_mode_rejects_error_findings_and_passes_clean_programs() {
        std::env::set_var("PCS_ANALYZE", "strict");
        let clean = pcs_lang::parse_program("q(X) :- e(X).\n?- q(U).").unwrap();
        let ok = Optimizer::new(clean).strategy(Strategy::None).optimize();
        let unsafe_program = pcs_lang::parse_program("q(X, Y) :- e(X).\n?- q(U, V).").unwrap();
        let err = Optimizer::new(unsafe_program)
            .strategy(Strategy::None)
            .optimize();
        std::env::remove_var("PCS_ANALYZE");
        assert!(ok.is_ok());
        match err.unwrap_err() {
            TransformError::AnalysisRejected { errors, details } => {
                assert_eq!(errors, 1);
                assert!(details.contains("unsafe-rule"), "{details}");
            }
            other => panic!("expected AnalysisRejected, got {other}"),
        }
    }

    #[test]
    fn dead_rule_pruning_drops_rules_without_changing_answers() {
        let program = pcs_lang::parse_program(
            "q(X) :- e(X), X <= 4.\n\
             q(X) :- e(X), X > 10, X < 5.\n\
             ?- q(U).",
        )
        .unwrap();
        let mut db = pcs_engine::Database::new();
        for fact in pcs_engine::parse_facts("e(1). e(3). e(7).").unwrap() {
            db.add(fact);
        }
        let plain = Optimizer::new(program.clone())
            .strategy(Strategy::None)
            .optimize()
            .unwrap();
        let pruned = Optimizer::new(program)
            .strategy(Strategy::None)
            .eval_options(EvalOptions::default().with_prune_dead(true))
            .optimize()
            .unwrap();
        assert_eq!(plain.program.rules().len(), 2);
        assert_eq!(pruned.program.rules().len(), 1);
        assert_eq!(plain.count_answers(&db), pruned.count_answers(&db));
    }

    #[test]
    fn pruning_keeps_a_defining_rule_for_query_referenced_predicates() {
        // The only rule for q is dead; pruning must not turn q into an
        // implicitly extensional predicate.
        let program = pcs_lang::parse_program("q(X) :- e(X), X > 3, X < 2.\n?- q(U).").unwrap();
        let pruned = Optimizer::new(program)
            .strategy(Strategy::None)
            .eval_options(EvalOptions::default().with_prune_dead(true))
            .optimize()
            .unwrap();
        assert_eq!(pruned.program.rules().len(), 1);
        assert!(pruned.program.idb_predicates().contains(&Pred::new("q")));
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
