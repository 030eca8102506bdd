//! Terms appearing as arguments of literals.

use std::cmp::Ordering;
use std::fmt;

use pcs_constraints::{LinearExpr, PosArg, Rational, Var};

use crate::intern::SymId;

/// A symbolic (non-numeric) constant, e.g. `madison`.
///
/// Symbolic constants participate only in equality tests during evaluation;
/// they never appear inside arithmetic constraints.  A `Symbol` is a
/// four-byte `Copy` wrapper around an interned [`SymId`]; equality and
/// hashing are id comparisons, while ordering resolves to the spelling so
/// sorted output stays alphabetical regardless of interning order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(SymId);

impl Symbol {
    /// Creates (interning if necessary) a symbol.
    pub fn new(name: impl AsRef<str>) -> Self {
        Symbol(SymId::intern(name.as_ref()))
    }

    /// The symbol's spelling.
    pub fn name(&self) -> &'static str {
        self.0.name()
    }

    /// The symbol's interned id.
    pub fn id(&self) -> SymId {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            Ordering::Equal
        } else {
            self.name().cmp(other.name())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

/// A term: a variable, a numeric constant, a symbolic constant, or a linear
/// arithmetic expression (e.g. `N - 1`, `X1 + X2`).
///
/// Programs are *flattened* before evaluation or transformation
/// ([`crate::rule::Rule::flattened`]), after which literal arguments are only
/// variables, numbers or symbols; arithmetic expressions are moved into the
/// rule's constraint conjunction.
#[derive(Clone, PartialEq, Eq)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A numeric constant.
    Num(Rational),
    /// A symbolic constant.
    Sym(Symbol),
    /// A linear arithmetic expression over variables.
    Expr(LinearExpr),
}

impl Term {
    /// A variable term.
    pub fn var(name: impl Into<Var>) -> Term {
        Term::Var(name.into())
    }

    /// A numeric constant term.
    pub fn num(value: impl Into<Rational>) -> Term {
        Term::Num(value.into())
    }

    /// A symbolic constant term.
    pub fn sym(name: impl AsRef<str>) -> Term {
        Term::Sym(Symbol::new(name))
    }

    /// An arithmetic expression term; collapses to simpler variants when the
    /// expression is a bare variable or a constant.
    pub fn expr(expr: LinearExpr) -> Term {
        if expr.is_constant() {
            Term::Num(expr.constant_part())
        } else if expr.num_vars() == 1 && expr.constant_part().is_zero() {
            let (v, c) = expr.terms().next().expect("one term");
            if *c == Rational::ONE {
                return Term::Var(v.clone());
            }
            Term::Expr(expr)
        } else {
            Term::Expr(expr)
        }
    }

    /// The variables mentioned by the term.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            Term::Var(v) => vec![v.clone()],
            Term::Num(_) | Term::Sym(_) => Vec::new(),
            Term::Expr(e) => e.vars().cloned().collect(),
        }
    }

    /// Returns `true` if the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Num(_) | Term::Sym(_) => true,
            Term::Expr(e) => e.is_constant(),
        }
    }

    /// Converts a numeric term into a linear expression.
    ///
    /// Returns `None` for symbolic constants.
    pub fn to_linear(&self) -> Option<LinearExpr> {
        match self {
            Term::Var(v) => Some(LinearExpr::var(v.clone())),
            Term::Num(n) => Some(LinearExpr::constant(*n)),
            Term::Expr(e) => Some(e.clone()),
            Term::Sym(_) => None,
        }
    }

    /// Converts this term into the constraint-domain view of a literal
    /// argument ([`PosArg`]): variables stay variables, numbers become
    /// constants, symbols are opaque.
    ///
    /// Arithmetic expression arguments are also treated as opaque; flattening
    /// removes them before any transformation needs this conversion.
    pub fn to_pos_arg(&self) -> PosArg {
        match self {
            Term::Var(v) => PosArg::Var(v.clone()),
            Term::Num(n) => PosArg::Constant(*n),
            Term::Sym(_) | Term::Expr(_) => PosArg::Opaque,
        }
    }

    /// Renames the variables of this term.
    pub fn rename(&self, mapping: &dyn Fn(&Var) -> Var) -> Term {
        match self {
            Term::Var(v) => Term::Var(mapping(v)),
            Term::Num(_) | Term::Sym(_) => self.clone(),
            Term::Expr(e) => Term::expr(e.rename(mapping)),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Num(n) => write!(f, "{n}"),
            Term::Sym(s) => write!(f, "{s}"),
            Term::Expr(e) => write!(f, "{e}"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<i64> for Term {
    fn from(n: i64) -> Self {
        Term::Num(Rational::from_int(n as i128))
    }
}

impl From<Rational> for Term {
    fn from(n: Rational) -> Self {
        Term::Num(n)
    }
}

impl From<Symbol> for Term {
    fn from(s: Symbol) -> Self {
        Term::Sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_collapses_to_simpler_variants() {
        assert_eq!(Term::expr(LinearExpr::constant(3)), Term::num(3));
        assert_eq!(Term::expr(LinearExpr::var(Var::new("X"))), Term::var("X"));
        let compound = Term::expr(LinearExpr::var(Var::new("X")) + LinearExpr::constant(1));
        assert!(matches!(compound, Term::Expr(_)));
    }

    #[test]
    fn groundness_and_vars() {
        assert!(Term::num(1).is_ground());
        assert!(Term::sym("madison").is_ground());
        assert!(!Term::var("X").is_ground());
        assert_eq!(Term::var("X").vars(), vec![Var::new("X")]);
        assert!(Term::sym("a").vars().is_empty());
    }

    #[test]
    fn pos_arg_conversion() {
        assert_eq!(Term::var("X").to_pos_arg(), PosArg::Var(Var::new("X")));
        assert_eq!(
            Term::num(3).to_pos_arg(),
            PosArg::Constant(Rational::from_int(3))
        );
        assert_eq!(Term::sym("madison").to_pos_arg(), PosArg::Opaque);
    }

    #[test]
    fn to_linear_rejects_symbols() {
        assert!(Term::sym("a").to_linear().is_none());
        assert!(Term::num(2).to_linear().is_some());
    }
}
