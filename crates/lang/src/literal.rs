//! Predicates and literals.

use std::fmt;
use std::sync::Arc;

use pcs_constraints::{PosArg, Var};

use crate::term::Term;

/// A predicate name.
///
/// Transformations derive new predicates from existing ones (magic
/// predicates, primed copies, supplementary predicates); the constructors
/// below keep that naming in one place.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(Arc<str>);

impl Pred {
    /// Creates a predicate name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Pred(Arc::from(name.as_ref()))
    }

    /// The predicate's name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// The magic predicate `m_<p>` for this predicate.
    pub fn magic(&self) -> Pred {
        Pred::new(format!("m_{}", self.0))
    }

    /// Returns `true` if this is a magic predicate (named `m_...`).
    pub fn is_magic(&self) -> bool {
        self.0.starts_with("m_")
    }

    /// The primed copy `<p>'` used when propagating constraints.
    pub fn primed(&self) -> Pred {
        Pred::new(format!("{}'", self.0))
    }

    /// A supplementary predicate `s_<k>_<p>` (GMT grounding, Section 6.2).
    pub fn supplementary(&self, k: usize) -> Pred {
        Pred::new(format!("s_{k}_{}", self.0))
    }

    /// The adorned predicate `<p>_<adornment>`.
    pub fn adorned(&self, adornment: &str) -> Pred {
        Pred::new(format!("{}_{adornment}", self.0))
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Pred {
    fn from(s: &str) -> Self {
        Pred::new(s)
    }
}

/// A literal `p(t1, ..., tn)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Literal {
    /// The predicate.
    pub predicate: Pred,
    /// The argument terms.
    pub args: Vec<Term>,
}

impl Literal {
    /// Creates a literal.
    pub fn new(predicate: impl Into<Pred>, args: Vec<Term>) -> Self {
        Literal {
            predicate: predicate.into(),
            args,
        }
    }

    /// The arity of the literal.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// All variables appearing in the arguments (with duplicates removed,
    /// in order of first occurrence).
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = Vec::new();
        for arg in &self.args {
            for v in arg.vars() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// The constraint-domain view of the argument tuple, used by PTOL/LTOP.
    pub fn pos_args(&self) -> Vec<PosArg> {
        self.args.iter().map(Term::to_pos_arg).collect()
    }

    /// Returns `true` if all argument terms are variables.
    pub fn args_are_vars(&self) -> bool {
        self.args.iter().all(|t| matches!(t, Term::Var(_)))
    }

    /// Returns `true` if the argument terms are distinct variables.
    pub fn args_are_distinct_vars(&self) -> bool {
        self.args_are_vars() && self.vars().len() == self.args.len()
    }

    /// Renames the variables of this literal.
    pub fn rename(&self, mapping: &dyn Fn(&Var) -> Var) -> Literal {
        Literal {
            predicate: self.predicate.clone(),
            args: self.args.iter().map(|t| t.rename(mapping)).collect(),
        }
    }

    /// Replaces the predicate, keeping the arguments.
    pub fn with_predicate(&self, predicate: Pred) -> Literal {
        Literal {
            predicate,
            args: self.args.clone(),
        }
    }

    /// Keeps only the argument positions listed in `positions` (0-based),
    /// preserving order.  Used to build magic literals from bound positions.
    pub fn project_positions(&self, positions: &[usize]) -> Literal {
        Literal {
            predicate: self.predicate.clone(),
            args: positions.iter().map(|&i| self.args[i].clone()).collect(),
        }
    }
}

/// Writes an atom, `name(a1, a2, …)`, or `name` alone when it has no
/// arguments: the one rendering shared by [`Literal`] and the engine's
/// ground facts.
pub fn write_atom<A: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    name: &Pred,
    args: impl IntoIterator<Item = A>,
) -> fmt::Result {
    write!(f, "{name}")?;
    let mut separator = "(";
    for arg in args {
        write!(f, "{separator}{arg}")?;
        separator = ", ";
    }
    if separator == "(" {
        Ok(())
    } else {
        f.write_str(")")
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_atom(f, &self.predicate, &self.args)
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_derivations() {
        let p = Pred::new("flight");
        assert_eq!(p.magic().name(), "m_flight");
        assert!(p.magic().is_magic());
        assert!(!p.is_magic());
        assert_eq!(p.primed().name(), "flight'");
        assert_eq!(p.supplementary(2).name(), "s_2_flight");
        assert_eq!(p.adorned("bbff").name(), "flight_bbff");
    }

    #[test]
    fn literal_vars_deduplicate() {
        let lit = Literal::new(
            "p",
            vec![Term::var("X"), Term::var("Y"), Term::var("X"), Term::num(3)],
        );
        assert_eq!(lit.arity(), 4);
        assert_eq!(lit.vars(), vec![Var::new("X"), Var::new("Y")]);
        assert!(!lit.args_are_distinct_vars());
        assert!(!lit.args_are_vars());
    }

    #[test]
    fn position_projection() {
        let lit = Literal::new("p", vec![Term::var("A"), Term::var("B"), Term::var("C")]);
        let projected = lit.project_positions(&[0, 2]);
        assert_eq!(projected.args, vec![Term::var("A"), Term::var("C")]);
    }

    #[test]
    fn display_format() {
        let lit = Literal::new("flight", vec![Term::sym("madison"), Term::var("T")]);
        assert_eq!(lit.to_string(), "flight(madison, T)");
        assert_eq!(Literal::new("q", vec![]).to_string(), "q");
    }
}
