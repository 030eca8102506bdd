//! Severity-ranked diagnostics produced by the analyzer.

use std::fmt;

use pcs_lang::{Pred, Span};

/// How serious a finding is.
///
/// The ordering is by severity: `Info < Warning < Error`, so
/// `diagnostics.iter().map(|d| d.severity).max()` is the overall verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational: the program is fine, but something looks
    /// unintentional (a singleton variable, an unused predicate).
    Info,
    /// The program evaluates, but part of it provably does nothing (an
    /// unsatisfiable rule, a rule unreachable from the query) or is
    /// suspicious enough to flag.
    Warning,
    /// The program is broken: evaluating it would misbehave or the text
    /// almost certainly does not mean what was written (an unsafe rule, an
    /// arity mismatch).  `pcs-lint` exits non-zero on these.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{s}")
    }
}

/// Which analysis pass produced a diagnostic, and what kind of finding it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// A head variable of a rule with body literals appears nowhere in the
    /// body — neither in a positive literal nor in any constraint.
    UnsafeRule,
    /// A predicate is used with two different arities.
    ArityMismatch,
    /// A head variable of a rule with body literals is only
    /// inequality-constrained, not bound by a literal or pinned by an
    /// equality: the rule derives proper constraint facts.
    UnrestrictedHeadVariable,
    /// The rule's accumulated constraint (optionally strengthened with the
    /// inferred predicate constraints of its body literals) is unsatisfiable:
    /// the rule can never derive anything.
    UnsatisfiableRule,
    /// A body predicate of the rule can never hold any facts, so the rule
    /// can never fire.
    ImpossibleBody,
    /// The rule's head predicate is not reachable from the query: it does
    /// work the query never observes.
    UnreachableFromQuery,
    /// The rule is an exact duplicate of an earlier rule.
    DuplicateRule,
    /// Everything the rule derives, an earlier rule with the same head and
    /// body but a weaker constraint also derives.
    SubsumedRule,
    /// A variable occurs exactly once in the rule (a probable typo; name it
    /// with a leading underscore to acknowledge it).
    SingletonVariable,
    /// An IDB predicate is defined but never used in any body or query.
    UnusedPredicate,
    /// A head variable of a constraint fact is not constrained at all: the
    /// fact holds for every real number in that position.
    FreeHeadVariable,
    /// For some delta position, a body literal shares no variables (directly
    /// or through constraint atoms) with the literals the join plan places
    /// before it: no indexed order exists, and the join degrades to a cross
    /// product.
    CrossProductJoin,
    /// A body literal is probed with no bound column and the analyzer infers
    /// no constraint interval for any of its positions: the join step scans
    /// the whole window.
    UnboundedProbe,
    /// The inferred selectivity proves a body literal can never match, so
    /// every join plan of the rule is degenerate.
    DegeneratePlan,
}

impl Code {
    /// The stable kebab-case name printed inside `severity[name]`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::UnsafeRule => "unsafe-rule",
            Code::ArityMismatch => "arity-mismatch",
            Code::UnrestrictedHeadVariable => "unrestricted-head-variable",
            Code::UnsatisfiableRule => "unsatisfiable-rule",
            Code::ImpossibleBody => "impossible-body",
            Code::UnreachableFromQuery => "unreachable-from-query",
            Code::DuplicateRule => "duplicate-rule",
            Code::SubsumedRule => "subsumed-rule",
            Code::SingletonVariable => "singleton-variable",
            Code::UnusedPredicate => "unused-predicate",
            Code::FreeHeadVariable => "free-head-variable",
            Code::CrossProductJoin => "cross-product-join",
            Code::UnboundedProbe => "unbounded-probe",
            Code::DegeneratePlan => "degenerate-plan",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One analyzer finding: a severity, a code, the rule (by index and, when
/// the program came from the parser, source position) it concerns, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// The kind of finding.
    pub code: Code,
    /// Index of the rule concerned in [`pcs_lang::Program::rules`], if the
    /// finding is about one rule.
    pub rule: Option<usize>,
    /// The rule's label (`r3`), if it has one.
    pub label: Option<String>,
    /// Source position of the rule, when the program was parsed from text.
    pub span: Option<Span>,
    /// The predicate concerned, for predicate-level findings.
    pub predicate: Option<Pred>,
    /// The finding, in one sentence.
    pub message: String,
}

impl Diagnostic {
    /// Renders the location part of the diagnostic (`rule r3 (line 4)`,
    /// `rule #2`, `predicate p`), or an empty string for program-level
    /// findings.
    pub fn location(&self) -> String {
        let mut out = String::new();
        if let Some(rule) = self.rule {
            out.push_str("rule ");
            match &self.label {
                Some(label) => out.push_str(label),
                None => out.push_str(&format!("#{}", rule + 1)),
            }
            if let Some(span) = self.span {
                out.push_str(&format!(" (line {})", span.line));
            }
        } else if let Some(pred) = &self.predicate {
            out.push_str(&format!("predicate {pred}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        let location = self.location();
        if !location.is_empty() {
            write!(f, " {location}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_includes_code_location_and_message() {
        let d = Diagnostic {
            severity: Severity::Error,
            code: Code::UnsafeRule,
            rule: Some(2),
            label: Some("r3".to_string()),
            span: Some(Span { line: 4, column: 1 }),
            predicate: None,
            message: "head variable X is not bound".to_string(),
        };
        assert_eq!(
            d.to_string(),
            "error[unsafe-rule] rule r3 (line 4): head variable X is not bound"
        );
        let p = Diagnostic {
            severity: Severity::Info,
            code: Code::UnusedPredicate,
            rule: None,
            label: None,
            span: None,
            predicate: Some(Pred::new("helper")),
            message: "defined but never used".to_string(),
        };
        assert_eq!(
            p.to_string(),
            "info[unused-predicate] predicate helper: defined but never used"
        );
    }
}
