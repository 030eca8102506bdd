//! # pcs-analysis
//!
//! Static analysis for constraint query language programs: a multi-pass
//! analyzer over parsed [`Program`]s producing structured, severity-ranked
//! [`Diagnostic`]s, plus byproducts the rest of the system consumes — the
//! stratum number of every predicate and the set of provably dead rules.
//!
//! The five passes:
//!
//! 1. **Safety / range restriction** — every head variable must be bound by a
//!    positive body literal or pinned by an equality constraint; an
//!    inequality-only head variable is flagged (it derives proper constraint
//!    facts, which is legal but usually unintended in a rule with a body).
//! 2. **Satisfiability** — Fourier–Motzkin over each rule's accumulated
//!    constraint, strengthened with the inferred minimum predicate
//!    constraints of its body literals (Section 4.4 of the paper) when the
//!    inference converges: a rule whose constraint is unsatisfiable can never
//!    derive anything.
//! 3. **Reachability / dead code** — rules whose body predicates can never
//!    hold facts, and rules not reachable from the query.
//! 4. **Consistency lints** — arity mismatches, duplicate and subsumed
//!    rules, singleton variables, unused predicates.
//! 5. **Join planning** — every (rule × delta-position) body is compiled
//!    into the static [`pcs_engine::JoinPlan`] the evaluator runs, and
//!    structural join problems (cross-product joins, unbounded probes) are
//!    reported as diagnostics.
//!
//! ## Example
//!
//! ```
//! use pcs_analysis::{analyze, Code, Severity};
//! use pcs_lang::parse_program;
//!
//! let program = parse_program("q(X, Y) :- p(X).\n?- q(U, V).").unwrap();
//! let analysis = analyze(&program);
//! assert!(analysis.has_errors());
//! assert_eq!(analysis.diagnostics[0].code, Code::UnsafeRule);
//! assert_eq!(analysis.diagnostics[0].severity, Severity::Error);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod diagnostic;

use std::collections::{BTreeMap, BTreeSet};

use pcs_constraints::{ptol, ConstraintSet, Rel, Var};
use pcs_engine::{PlanFindingKind, ProgramPlans};
use pcs_lang::{Pred, Program, Rule, RuleGraph};
use pcs_transform::{gen_predicate_constraints, GenOptions};

pub use diagnostic::{Code, Diagnostic, Severity};

/// Iteration budget for the predicate constraint inference.  Deliberately
/// small: the analyzer runs on every optimization, constraint sets can grow
/// quickly on divergent programs, and a non-convergent inference only costs
/// precision, never soundness.
const MAX_ITERATIONS: usize = 4;

/// Per-rule cap on accumulated DNF disjuncts in the satisfiability pass;
/// rules whose accumulated constraint grows beyond it are skipped.
const MAX_DISJUNCTS: usize = 64;

/// Options for [`analyze_with`].
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Declared minimum predicate constraints for the database predicates
    /// (argument-position form), used to strengthen the satisfiability pass.
    pub edb_constraints: BTreeMap<Pred, ConstraintSet>,
}

impl AnalyzeOptions {
    /// Options with no declared EDB constraints.
    pub fn new() -> Self {
        AnalyzeOptions::default()
    }

    /// Declares the minimum predicate constraints of the database predicates.
    pub fn with_edb_constraints(mut self, edb: BTreeMap<Pred, ConstraintSet>) -> Self {
        self.edb_constraints = edb;
        self
    }
}

/// The result of analyzing a program: diagnostics plus the byproducts other
/// subsystems consume (strata, dead rules).
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// All findings, sorted most severe first (ties broken by rule index).
    pub diagnostics: Vec<Diagnostic>,
    /// The stratum number of every predicate (EDB predicates are stratum 0;
    /// each IDB strongly connected component sits one above the deepest
    /// component it depends on).
    pub strata: BTreeMap<Pred, usize>,
    /// Rule indices that provably derive nothing (unsatisfiable constraint,
    /// or a body predicate that can never hold facts).  Safe to prune.
    pub dead_rules: BTreeSet<usize>,
    /// The subset of [`ProgramAnalysis::dead_rules`] whose own accumulated
    /// constraint is unsatisfiable.
    pub unsat_rules: BTreeSet<usize>,
    /// Whether the predicate-constraint inference reached a fixpoint within
    /// the iteration budget.  When `false`, the satisfiability pass only used
    /// each rule's own constraint.
    pub converged: bool,
}

impl ProgramAnalysis {
    /// Returns `true` if any diagnostic has [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Counts of (errors, warnings, infos).
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => counts.0 += 1,
                Severity::Warning => counts.1 += 1,
                Severity::Info => counts.2 += 1,
            }
        }
        counts
    }

    /// Renders every diagnostic plus a one-line summary, for the shell's
    /// `.check` command and the `pcs-lint` CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let (e, w, i) = self.counts();
        if self.diagnostics.is_empty() {
            out.push_str("no findings");
        } else {
            out.push_str(&format!("{e} error(s), {w} warning(s), {i} note(s)"));
        }
        if !self.converged {
            out.push_str(" [constraint inference did not converge]");
        }
        out
    }
}

/// Analyzes a program with default options (no declared EDB constraints).
pub fn analyze(program: &Program) -> ProgramAnalysis {
    analyze_with(program, &AnalyzeOptions::new())
}

/// Analyzes a program: runs all five passes and collects their findings.
pub fn analyze_with(program: &Program, options: &AnalyzeOptions) -> ProgramAnalysis {
    let flat = program.flattened();
    let graph = program.graph();
    let mut diagnostics = Vec::new();

    arity_pass(program, &mut diagnostics);
    safety_pass(program, &flat, &mut diagnostics);
    let (unsat_rules, impossible, converged) =
        satisfiability_pass(program, &flat, options, &mut diagnostics);
    let mut dead_rules: BTreeSet<usize> = unsat_rules.union(&impossible).copied().collect();
    reachability_pass(program, &graph, &mut dead_rules, &mut diagnostics);
    lint_pass(program, &graph, &mut diagnostics);
    plan_pass(program, &flat, &mut diagnostics);

    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| {
                a.rule
                    .unwrap_or(usize::MAX)
                    .cmp(&b.rule.unwrap_or(usize::MAX))
            })
            .then_with(|| a.code.cmp(&b.code))
            .then_with(|| a.message.cmp(&b.message))
    });

    ProgramAnalysis {
        diagnostics,
        strata: graph.strata(),
        dead_rules,
        unsat_rules,
        converged,
    }
}

/// A diagnostic attached to one rule, carrying its label and source span.
fn rule_diagnostic(
    program: &Program,
    rule: usize,
    severity: Severity,
    code: Code,
    message: String,
) -> Diagnostic {
    let r: &Rule = &program.rules()[rule];
    Diagnostic {
        severity,
        code,
        rule: Some(rule),
        label: r.label.clone(),
        span: r.span,
        predicate: Some(r.head.predicate.clone()),
        message,
    }
}

/// Pass 4a: every use of a predicate (head, body, query) must agree on arity.
fn arity_pass(program: &Program, diagnostics: &mut Vec<Diagnostic>) {
    let mut first: BTreeMap<Pred, usize> = BTreeMap::new();
    let mut reported: BTreeSet<Pred> = BTreeSet::new();
    let mut check = |pred: &Pred,
                     arity: usize,
                     rule: Option<usize>,
                     diagnostics: &mut Vec<Diagnostic>| {
        match first.get(pred) {
            None => {
                first.insert(pred.clone(), arity);
            }
            Some(&expected) if expected != arity && !reported.contains(pred) => {
                reported.insert(pred.clone());
                let message = format!(
                    "predicate {pred} is used here with arity {arity} but with arity {expected} at its first use"
                );
                let diagnostic = match rule {
                    Some(idx) => {
                        rule_diagnostic(program, idx, Severity::Error, Code::ArityMismatch, message)
                    }
                    None => Diagnostic {
                        severity: Severity::Error,
                        code: Code::ArityMismatch,
                        rule: None,
                        label: None,
                        span: None,
                        predicate: Some(pred.clone()),
                        message: format!("in the query, {message}"),
                    },
                };
                diagnostics.push(diagnostic);
            }
            Some(_) => {}
        }
    };
    for (idx, rule) in program.rules().iter().enumerate() {
        check(
            &rule.head.predicate,
            rule.head.arity(),
            Some(idx),
            diagnostics,
        );
        for lit in &rule.body {
            check(&lit.predicate, lit.arity(), Some(idx), diagnostics);
        }
    }
    if let Some(query) = program.query() {
        for lit in &query.literals {
            check(&lit.predicate, lit.arity(), None, diagnostics);
        }
    }
}

/// Pass 1: safety / range restriction, on the flattened program (so that
/// expression arguments like `fib(N - 1, X1)` count as equality pins).
fn safety_pass(program: &Program, flat: &Program, diagnostics: &mut Vec<Diagnostic>) {
    for (idx, rule) in flat.rules().iter().enumerate() {
        let constraint_vars = rule.constraint.vars();
        if rule.is_constraint_fact() {
            // A constraint fact finitely represents an infinite relation;
            // head variables are meant to be constrained, not bound.  An
            // entirely unconstrained head variable is almost certainly a
            // mistake, but the fact still evaluates — hence Info.
            for var in rule.head_vars() {
                if !constraint_vars.contains(&var) {
                    diagnostics.push(rule_diagnostic(
                        program,
                        idx,
                        Severity::Info,
                        Code::FreeHeadVariable,
                        format!(
                            "head variable {var} of the constraint fact is not constrained: the fact holds for every value in that position"
                        ),
                    ));
                }
            }
            continue;
        }
        let bound = equality_closure(rule);
        for var in rule.head_vars() {
            if bound.contains(&var) {
                continue;
            }
            if constraint_vars.contains(&var) {
                diagnostics.push(rule_diagnostic(
                    program,
                    idx,
                    Severity::Warning,
                    Code::UnrestrictedHeadVariable,
                    format!(
                        "head variable {var} is only inequality-constrained, never bound: the rule derives proper constraint facts"
                    ),
                ));
            } else {
                diagnostics.push(rule_diagnostic(
                    program,
                    idx,
                    Severity::Error,
                    Code::UnsafeRule,
                    format!("head variable {var} does not occur in any body literal or constraint"),
                ));
            }
        }
    }
}

/// The variables bound by body literals, closed under equality constraints:
/// an equality atom with exactly one unbound variable pins that variable.
fn equality_closure(rule: &Rule) -> BTreeSet<Var> {
    let mut bound = rule.body_literal_vars();
    loop {
        let mut changed = false;
        for atom in rule.constraint.atoms() {
            if atom.rel() != Rel::Eq {
                continue;
            }
            let unbound: Vec<&Var> = atom.expr().vars().filter(|v| !bound.contains(*v)).collect();
            if let [var] = unbound[..] {
                bound.insert(var.clone());
                changed = true;
            }
        }
        if !changed {
            return bound;
        }
    }
}

/// Pass 2: Fourier–Motzkin satisfiability per rule, strengthened with the
/// inferred minimum predicate constraints of the body literals when the
/// inference converged.  Returns the unsatisfiable rule indices, the rules
/// whose body contains a provably empty predicate, and whether the inference
/// converged.
fn satisfiability_pass(
    program: &Program,
    flat: &Program,
    options: &AnalyzeOptions,
    diagnostics: &mut Vec<Diagnostic>,
) -> (BTreeSet<usize>, BTreeSet<usize>, bool) {
    let gen_options = GenOptions {
        max_iterations: MAX_ITERATIONS,
    };
    let inference = gen_predicate_constraints(program, &options.edb_constraints, &gen_options);
    let mut unsat = BTreeSet::new();
    let mut impossible = BTreeSet::new();
    for (idx, rule) in flat.rules().iter().enumerate() {
        let own = ConstraintSet::of(rule.constraint.clone());
        if !own.is_satisfiable() {
            unsat.insert(idx);
            diagnostics.push(rule_diagnostic(
                program,
                idx,
                Severity::Warning,
                Code::UnsatisfiableRule,
                "the rule's constraint is unsatisfiable: the rule can never derive anything"
                    .to_string(),
            ));
            continue;
        }
        if !inference.converged {
            continue;
        }
        // A body predicate whose inferred constraint is falsum can never hold
        // facts; report that as the more specific finding instead of letting
        // the falsum swallow the whole conjunction below.
        if let Some(pred) = rule
            .body
            .iter()
            .map(|l| &l.predicate)
            .find(|p| inference.constraint_for(p).is_false())
        {
            impossible.insert(idx);
            diagnostics.push(rule_diagnostic(
                program,
                idx,
                Severity::Warning,
                Code::ImpossibleBody,
                format!(
                    "body predicate {pred} can never hold any facts, so the rule can never fire"
                ),
            ));
            continue;
        }
        let mut acc = own;
        let mut bailed = false;
        for literal in &rule.body {
            let body_set = inference.constraint_for(&literal.predicate);
            acc = acc.and(&ptol(&literal.pos_args(), &body_set));
            if acc.num_disjuncts() > MAX_DISJUNCTS {
                bailed = true;
                break;
            }
            if acc.is_false() {
                break;
            }
        }
        if !bailed && !acc.is_satisfiable() {
            unsat.insert(idx);
            diagnostics.push(rule_diagnostic(
                program,
                idx,
                Severity::Warning,
                Code::UnsatisfiableRule,
                "the rule's constraint is unsatisfiable given the inferred constraints of its body predicates"
                    .to_string(),
            ));
        }
    }
    (unsat, impossible, inference.converged)
}

/// Pass 3: rules that can never fire because a body predicate is provably
/// empty (cascading from unsatisfiable rules), and rules unreachable from the
/// query.  Extends `dead` with the impossible-body rules; unreachable rules
/// are reported but left alone (they do derive facts).
fn reachability_pass(
    program: &Program,
    graph: &RuleGraph,
    dead: &mut BTreeSet<usize>,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let nonempty = graph.possibly_nonempty(dead);
    for (idx, rule) in program.rules().iter().enumerate() {
        if dead.contains(&idx) {
            continue;
        }
        if let Some(pred) = rule
            .body_predicates()
            .into_iter()
            .find(|p| !nonempty.contains(p))
        {
            dead.insert(idx);
            diagnostics.push(rule_diagnostic(
                program,
                idx,
                Severity::Warning,
                Code::ImpossibleBody,
                format!(
                    "body predicate {pred} can never hold any facts, so the rule can never fire"
                ),
            ));
        }
    }
    if let Some(reached) = graph.reachable_from_query() {
        for (idx, rule) in program.rules().iter().enumerate() {
            if !reached.contains(&rule.head.predicate) {
                diagnostics.push(rule_diagnostic(
                    program,
                    idx,
                    Severity::Warning,
                    Code::UnreachableFromQuery,
                    format!(
                        "predicate {} is not reachable from the query: the rule's work is never observed",
                        rule.head.predicate
                    ),
                ));
            }
        }
    }
}

/// Pass 4: consistency lints — duplicate and subsumed rules, singleton
/// variables, unused predicates.
fn lint_pass(program: &Program, graph: &RuleGraph, diagnostics: &mut Vec<Diagnostic>) {
    let rules = program.rules();
    for (idx, rule) in rules.iter().enumerate() {
        for (earlier_idx, earlier) in rules[..idx].iter().enumerate() {
            if rule.head != earlier.head || rule.body != earlier.body {
                continue;
            }
            if rule.constraint == earlier.constraint {
                diagnostics.push(rule_diagnostic(
                    program,
                    idx,
                    Severity::Warning,
                    Code::DuplicateRule,
                    format!(
                        "exact duplicate of rule {}",
                        describe_rule(earlier, earlier_idx)
                    ),
                ));
                break;
            }
            let this = ConstraintSet::of(rule.constraint.clone());
            let that = ConstraintSet::of(earlier.constraint.clone());
            if this.implies(&that) {
                diagnostics.push(rule_diagnostic(
                    program,
                    idx,
                    Severity::Warning,
                    Code::SubsumedRule,
                    format!(
                        "everything this rule derives, rule {} already derives (its constraint is weaker)",
                        describe_rule(earlier, earlier_idx)
                    ),
                ));
                break;
            }
        }
        singleton_lint(program, idx, rule, diagnostics);
    }
    if program.query().is_some() {
        let mut used: BTreeSet<Pred> = graph.query_predicates().clone();
        for bodies in graph.rule_bodies() {
            used.extend(bodies.iter().cloned());
        }
        for pred in graph.idb_predicates() {
            if !used.contains(pred) {
                diagnostics.push(Diagnostic {
                    severity: Severity::Info,
                    code: Code::UnusedPredicate,
                    rule: None,
                    label: None,
                    span: None,
                    predicate: Some(pred.clone()),
                    message: "defined but never used in any rule body or in the query".to_string(),
                });
            }
        }
    }
}

fn describe_rule(rule: &Rule, idx: usize) -> String {
    match &rule.label {
        Some(label) => label.clone(),
        None => format!("#{}", idx + 1),
    }
}

/// Flags variables that occur exactly once in the whole rule, in a body
/// literal, and are not named with a leading underscore.
fn singleton_lint(program: &Program, idx: usize, rule: &Rule, diagnostics: &mut Vec<Diagnostic>) {
    let mut count: BTreeMap<Var, usize> = BTreeMap::new();
    let mut in_body: BTreeSet<Var> = BTreeSet::new();
    for var in rule.head.vars() {
        *count.entry(var).or_insert(0) += 1;
    }
    for literal in &rule.body {
        for var in literal.vars() {
            *count.entry(var.clone()).or_insert(0) += 1;
            in_body.insert(var);
        }
    }
    for atom in rule.constraint.atoms() {
        for var in atom.vars() {
            *count.entry(var.clone()).or_insert(0) += 1;
        }
    }
    for (var, n) in count {
        if n == 1 && in_body.contains(&var) && !var.name().starts_with('_') && !var.is_generated() {
            diagnostics.push(rule_diagnostic(
                program,
                idx,
                Severity::Info,
                Code::SingletonVariable,
                format!("variable {var} occurs only once; name it _{var} if that is intentional"),
            ));
        }
    }
}

/// Pass 5: join planning.  Compiles every (rule × delta-position) body into
/// the static join plan the evaluator runs and converts the compilation
/// findings into diagnostics.  The rule indices of the flattened program map
/// 1:1 onto the source program (flattening preserves rule order, labels, and
/// spans), so the diagnostics carry the source positions.
fn plan_pass(program: &Program, flat: &Program, diagnostics: &mut Vec<Diagnostic>) {
    for finding in ProgramPlans::compile(flat).findings() {
        let code = match finding.kind {
            PlanFindingKind::CrossProductJoin => Code::CrossProductJoin,
            PlanFindingKind::UnboundedProbe => Code::UnboundedProbe,
        };
        diagnostics.push(rule_diagnostic(
            program,
            finding.rule,
            Severity::Warning,
            code,
            finding.message.clone(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_constraints::{Atom, Conjunction};
    use pcs_lang::parse_program;

    fn codes(analysis: &ProgramAnalysis) -> Vec<Code> {
        analysis.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let program = parse_program(
            "r1: q(X, Y) :- a(X, Y), X <= 4.\n\
             r2: a(X, Y) :- b1(X, Z), b2(Z, Y).\n\
             ?- q(U, V).",
        )
        .unwrap();
        let analysis = analyze(&program);
        assert!(analysis.diagnostics.is_empty(), "{}", analysis.render());
        assert!(analysis.dead_rules.is_empty());
        assert!(analysis.converged);
        assert_eq!(analysis.render(), "no findings");
    }

    #[test]
    fn unsafe_rule_is_an_error() {
        let program = parse_program("q(X, Y) :- p(X).\n?- q(U, V).").unwrap();
        let analysis = analyze(&program);
        assert!(analysis.has_errors());
        let d = &analysis.diagnostics[0];
        assert_eq!(d.code, Code::UnsafeRule);
        assert_eq!(d.rule, Some(0));
        assert!(d.message.contains('Y'), "{}", d.message);
        assert_eq!(d.span.map(|s| s.line), Some(1));
    }

    #[test]
    fn equality_pinned_head_vars_are_safe() {
        // Y is pinned through a chain of equalities rooted in a body variable.
        let program = parse_program("q(X, Y) :- p(X), Z = X + 1, Y = Z + Z.\n?- q(U, V).").unwrap();
        let analysis = analyze(&program);
        assert!(!analysis.has_errors(), "{}", analysis.render());
        // Head expressions flatten into equality pins as well.
        let fib = parse_program(
            "r1: fib(0, 0).\n\
             r2: fib(1, 1).\n\
             r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).\n\
             ?- fib(N, 5).",
        )
        .unwrap();
        let analysis = analyze(&fib);
        assert!(!analysis.has_errors(), "{}", analysis.render());
    }

    #[test]
    fn inequality_only_head_var_is_a_warning() {
        let program = parse_program("q(X, Y) :- p(X), Y >= X.\n?- q(U, V).").unwrap();
        let analysis = analyze(&program);
        assert!(!analysis.has_errors());
        assert!(codes(&analysis).contains(&Code::UnrestrictedHeadVariable));
    }

    #[test]
    fn unconstrained_constraint_fact_head_var_is_a_note() {
        let program = parse_program("p(X, Y) :- X <= 4.\n?- p(U, V).").unwrap();
        let analysis = analyze(&program);
        assert!(!analysis.has_errors());
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == Code::FreeHeadVariable)
            .unwrap();
        assert!(d.message.contains('Y'));
        // A fully constrained fact is paper-core and clean.
        let clean = parse_program("p(X) :- X <= 4.\n?- p(U).").unwrap();
        assert!(analyze(&clean).diagnostics.is_empty());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let program = parse_program("q(X) :- p(X, X), p(X).\n?- q(U).").unwrap();
        let analysis = analyze(&program);
        assert!(analysis.has_errors());
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == Code::ArityMismatch)
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("arity 1") && d.message.contains("arity 2"));
    }

    #[test]
    fn unsatisfiable_rule_is_flagged_and_dead() {
        let program = parse_program("q(X) :- p(X), X > 3, X < 2.\n?- q(U).").unwrap();
        let analysis = analyze(&program);
        assert!(codes(&analysis).contains(&Code::UnsatisfiableRule));
        assert_eq!(analysis.unsat_rules, BTreeSet::from([0]));
        assert_eq!(analysis.dead_rules, BTreeSet::from([0]));
        assert!(!analysis.has_errors());
    }

    #[test]
    fn predicate_constraints_expose_deeper_unsatisfiability() {
        // On its own the rule is satisfiable; with the declared EDB
        // constraint p($1) <= 0 it cannot fire.
        let program = parse_program("q(X) :- p(X), X > 5.\n?- q(U).").unwrap();
        let edb = BTreeMap::from([(
            Pred::new("p"),
            ConstraintSet::of(Conjunction::of(Atom::var_le(Var::position(1), 0))),
        )]);
        let options = AnalyzeOptions::new().with_edb_constraints(edb);
        let analysis = analyze_with(&program, &options);
        assert!(analysis.converged);
        assert_eq!(analysis.unsat_rules, BTreeSet::from([0]));
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == Code::UnsatisfiableRule)
            .unwrap();
        assert!(d.message.contains("body predicates"), "{}", d.message);
        // Without the declaration the rule is fine.
        assert!(analyze(&program).unsat_rules.is_empty());
    }

    #[test]
    fn impossible_bodies_cascade_from_unsatisfiable_rules() {
        let program = parse_program(
            "never(X) :- e(X), X > 1, X < 0.\n\
             dead(X) :- e(X), never(X).\n\
             q(X) :- e(X).\n\
             ?- q(U).",
        )
        .unwrap();
        let analysis = analyze(&program);
        assert_eq!(analysis.unsat_rules, BTreeSet::from([0]));
        assert_eq!(analysis.dead_rules, BTreeSet::from([0, 1]));
        assert!(codes(&analysis).contains(&Code::ImpossibleBody));
        // Both never and dead are also unreachable from the query.
        let unreachable = analysis
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::UnreachableFromQuery)
            .count();
        assert_eq!(unreachable, 2);
    }

    #[test]
    fn cross_product_joins_are_flagged_with_spans() {
        let program =
            parse_program("r1: q(X, Y) :- a(X), b(Y).\nr2: p(X) :- a(X).\n?- q(U, V).").unwrap();
        let analysis = analyze(&program);
        let cross: Vec<&Diagnostic> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::CrossProductJoin)
            .collect();
        // One finding per body literal (each is the probe-less side of the
        // other's delta position), deduplicated across delta positions.
        assert_eq!(cross.len(), 2);
        assert_eq!(cross[0].severity, Severity::Warning);
        assert_eq!(cross[0].rule, Some(0));
        assert_eq!(cross[0].label.as_deref(), Some("r1"));
        assert_eq!(cross[0].span.map(|s| s.line), Some(1));
        assert!(!analysis.has_errors());
    }

    #[test]
    fn declared_empty_edb_predicates_make_bodies_impossible() {
        // p($1) is provably empty under the declared EDB constraint, so the
        // rule joining it can never fire.
        let program = parse_program("q(X) :- p(X), e(X).\n?- q(U).").unwrap();
        let edb = BTreeMap::from([(
            Pred::new("p"),
            ConstraintSet::of(Conjunction::from_atoms([
                Atom::var_le(Var::position(1), 0),
                Atom::var_ge(Var::position(1), 1),
            ])),
        )]);
        let analysis = analyze_with(&program, &AnalyzeOptions::new().with_edb_constraints(edb));
        assert!(codes(&analysis).contains(&Code::ImpossibleBody));
    }

    #[test]
    fn unreachable_and_unused_are_reported_but_not_dead() {
        let program = parse_program("q(X) :- e(X).\norphan(X) :- e(X).\n?- q(U).").unwrap();
        let analysis = analyze(&program);
        assert!(codes(&analysis).contains(&Code::UnreachableFromQuery));
        assert!(codes(&analysis).contains(&Code::UnusedPredicate));
        // Unreachable rules still derive facts; they are not prunable.
        assert!(analysis.dead_rules.is_empty());
    }

    #[test]
    fn duplicate_and_subsumed_rules_are_flagged() {
        let program = parse_program(
            "r1: q(X) :- e(X), X <= 4.\n\
             r2: q(X) :- e(X), X <= 4.\n\
             r3: q(X) :- e(X), X <= 2.\n\
             ?- q(U).",
        )
        .unwrap();
        let analysis = analyze(&program);
        let dup = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == Code::DuplicateRule)
            .unwrap();
        assert_eq!(dup.rule, Some(1));
        assert!(dup.message.contains("r1"));
        let sub = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SubsumedRule)
            .unwrap();
        assert_eq!(sub.rule, Some(2));
        // The wider rule is not subsumed by the narrower one.
        assert_eq!(
            analysis
                .diagnostics
                .iter()
                .filter(|d| d.code == Code::SubsumedRule)
                .count(),
            1
        );
    }

    #[test]
    fn singleton_variables_are_notes_unless_underscored() {
        let program = parse_program("q(X) :- e(X, Y).\n?- q(U).").unwrap();
        let analysis = analyze(&program);
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SingletonVariable)
            .unwrap();
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains('Y'));
        let acknowledged = parse_program("q(X) :- e(X, _Y).\n?- q(U).").unwrap();
        assert!(!codes(&analyze(&acknowledged)).contains(&Code::SingletonVariable));
        let joined = parse_program("q(X) :- e(X, Y), f(Y).\n?- q(U).").unwrap();
        assert!(!codes(&analyze(&joined)).contains(&Code::SingletonVariable));
    }

    #[test]
    fn strata_are_exposed() {
        let program = parse_program(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, Z), t(Z, Y).\n\
             top(X) :- t(X, Y), Y >= 10.\n\
             ?- top(U).",
        )
        .unwrap();
        let analysis = analyze(&program);
        assert_eq!(analysis.strata[&Pred::new("e")], 0);
        assert_eq!(analysis.strata[&Pred::new("t")], 1);
        assert_eq!(analysis.strata[&Pred::new("top")], 2);
    }

    #[test]
    fn diagnostics_sort_most_severe_first() {
        let program = parse_program(
            "q(X, Y) :- e(X).\n\
             r(X) :- e(X), X > 3, X < 2.\n\
             ?- q(U, V).",
        )
        .unwrap();
        let analysis = analyze(&program);
        let severities: Vec<Severity> = analysis.diagnostics.iter().map(|d| d.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(severities, sorted);
        assert_eq!(analysis.diagnostics[0].severity, Severity::Error);
        let (e, w, _) = analysis.counts();
        assert_eq!(e, 1);
        assert!(w >= 2); // unsatisfiable + unreachable
        assert!(analysis.render().contains("error(s)"));
    }
}
