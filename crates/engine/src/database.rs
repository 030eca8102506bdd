//! Extensional databases (EDBs) and parser-backed bulk fact loading.

use std::collections::BTreeMap;
use std::fmt;

use pcs_constraints::{Atom, CmpOp, LinearExpr, Var, VarGen};
use pcs_lang::{ParseError, Pred, Rule, Term};

use crate::fact::{Binding, Fact};
use crate::value::Value;

/// An error turning fact-only source text into [`Fact`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactsError {
    /// The text did not parse as fact-only input (syntax errors, rules with
    /// body literals, queries, `edb` declarations).
    Parse(ParseError),
    /// A constraint fact's conjunction is unsatisfiable, so it denotes no
    /// ground facts at all — almost certainly a typo worth surfacing rather
    /// than silently loading nothing.
    Unsatisfiable(String),
    /// A line of signed update text ([`UpdateBatch::parse`]) carried neither
    /// a `+` nor a `-` sign, so its direction is ambiguous.
    Unsigned(String),
}

impl fmt::Display for FactsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactsError::Parse(e) => write!(f, "{e}"),
            FactsError::Unsatisfiable(rule) => {
                write!(f, "constraint fact `{rule}` is unsatisfiable")
            }
            FactsError::Unsigned(line) => {
                write!(f, "update line `{line}` must start with `+` or `-`")
            }
        }
    }
}

impl std::error::Error for FactsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FactsError::Parse(e) => Some(e),
            FactsError::Unsatisfiable(_) | FactsError::Unsigned(_) => None,
        }
    }
}

impl From<ParseError> for FactsError {
    fn from(e: ParseError) -> Self {
        FactsError::Parse(e)
    }
}

/// Parses fact-only source text into facts: ground facts (`p(a, 1).`) and
/// constraint facts (`p(X) :- X >= 0, X <= 10.`, including repeated head
/// variables like `pair(X, X).`).
///
/// This is the text front-end behind [`Database::add_facts_str`] and the
/// `+fact.` insertions of the `pcs-service` session; it is exposed
/// separately so callers that feed facts straight into a resumed evaluation
/// never have to build [`crate::value::Value`] vectors by hand.
pub fn parse_facts(source: &str) -> Result<Vec<Fact>, FactsError> {
    // Each statement is converted before the next is parsed, so the parsed
    // rules never coexist.
    let mut gen = VarGen::new();
    pcs_lang::fact_rules(source)
        .map(|rule| fact_from_rule(rule?, &mut gen))
        .collect()
}

/// Converts a body-less rule into the fact it denotes.
///
/// A rule with only constant head arguments and no constraint is already
/// normal: it becomes a ground fact directly.  Any other rule is flattened
/// (arithmetic head arguments such as `p(1 + 2).` move into the
/// constraint); then constants become bound positions, head variables
/// become free positions tied to the rule's constraints (repeated variables
/// tie their positions together), and the constraint is projected onto the
/// free positions by [`Fact::new`].
fn fact_from_rule(rule: Rule, gen: &mut VarGen) -> Result<Fact, FactsError> {
    if rule.constraint.is_trivially_true() {
        let values: Option<Vec<Value>> = rule
            .head
            .args
            .iter()
            .map(|term| match term {
                Term::Num(n) => Some(Value::num(*n)),
                Term::Sym(s) => Some(Value::Sym(*s)),
                Term::Var(_) | Term::Expr(_) => None,
            })
            .collect();
        if let Some(values) = values {
            return Ok(Fact::ground(rule.head.predicate, values));
        }
    }
    let flat = rule.flattened(gen);
    // A user may spell a variable like a position (`$2`, as
    // `Fact::rule_text` writes them): rename every variable apart before
    // the `$i = term` equalities below mention the positions.
    let renamed = flat.freshened(&mut VarGen::new());
    let mut constraint = renamed.constraint;
    let mut bindings = Vec::with_capacity(renamed.head.arity());
    for (i, term) in renamed.head.args.into_iter().enumerate() {
        let position = LinearExpr::var(Var::position(i + 1));
        match term {
            Term::Num(n) => bindings.push(Binding::Bound(Value::num(n))),
            Term::Sym(s) => bindings.push(Binding::Bound(Value::Sym(s))),
            Term::Var(v) => {
                bindings.push(Binding::Free);
                constraint.push(Atom::compare(position, CmpOp::Eq, LinearExpr::var(v)));
            }
            Term::Expr(e) => {
                bindings.push(Binding::Free);
                constraint.push(Atom::compare(position, CmpOp::Eq, e));
            }
        }
    }
    Fact::new(renamed.head.predicate, bindings, constraint)
        .ok_or_else(|| FactsError::Unsatisfiable(flat.to_string()))
}

/// An atomic batch of extensional updates: retractions applied first, then
/// insertions.
///
/// This is the single update value behind every mutation entry point:
/// [`Database::apply`] edits the stored facts transactionally,
/// [`crate::Evaluator::apply`] folds the whole batch into *one* incremental
/// delete/re-derive + resume pass over a materialization, and
/// `pcs_service::Session::apply` does both under one epoch.  The
/// fact-at-a-time helpers ([`Database::add_facts_str`],
/// [`Database::remove_facts_str`], `Session::insert`/`remove`) remain as
/// thin conveniences over a single-sided batch.
///
/// Semantics are *retracts-then-inserts*: a fact named in both lists is
/// removed (with its derivation cone) and then re-inserted.  Retractions
/// match stored facts by [`Fact::equivalent`].
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    /// Facts to insert (after the retractions).
    pub inserts: Vec<Fact>,
    /// Facts to retract, matched by [`Fact::equivalent`].
    pub retracts: Vec<Fact>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// A batch that only inserts.
    pub fn inserting(facts: Vec<Fact>) -> Self {
        UpdateBatch {
            inserts: facts,
            retracts: Vec::new(),
        }
    }

    /// A batch that only retracts.
    pub fn retracting(facts: Vec<Fact>) -> Self {
        UpdateBatch {
            inserts: Vec::new(),
            retracts: facts,
        }
    }

    /// Adds an insertion (builder-style).
    pub fn insert(mut self, fact: Fact) -> Self {
        self.inserts.push(fact);
        self
    }

    /// Adds a retraction (builder-style).
    pub fn retract(mut self, fact: Fact) -> Self {
        self.retracts.push(fact);
        self
    }

    /// Parses fact-only text (see [`parse_facts`]) and appends the facts to
    /// the insertions.
    pub fn insert_str(mut self, source: &str) -> Result<Self, FactsError> {
        self.inserts.extend(parse_facts(source)?);
        Ok(self)
    }

    /// Parses fact-only text (see [`parse_facts`]) and appends the facts to
    /// the retractions.
    pub fn retract_str(mut self, source: &str) -> Result<Self, FactsError> {
        self.retracts.extend(parse_facts(source)?);
        Ok(self)
    }

    /// Renders the batch as signed fact lines — `-fact.` retractions first
    /// (matching the retracts-then-inserts apply order), then `+fact.`
    /// insertions.  [`UpdateBatch::parse`] reads the rendering back; the
    /// `pcs-service` write-ahead log stores batches in exactly this form so
    /// replay re-seeds updates from the logged text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for fact in &self.retracts {
            out.push('-');
            out.push_str(&fact.rule_text());
            out.push_str(".\n");
        }
        for fact in &self.inserts {
            out.push('+');
            out.push_str(&fact.rule_text());
            out.push_str(".\n");
        }
        out
    }

    /// Parses signed fact lines (`+fact.` / `-fact.`, one update per line,
    /// blank lines ignored) back into a batch — the inverse of
    /// [`UpdateBatch::render`].
    pub fn parse(text: &str) -> Result<UpdateBatch, FactsError> {
        let mut batch = UpdateBatch::new();
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix('+') {
                batch.inserts.extend(parse_facts(rest)?);
            } else if let Some(rest) = trimmed.strip_prefix('-') {
                batch.retracts.extend(parse_facts(rest)?);
            } else {
                return Err(FactsError::Unsigned(trimmed.to_string()));
            }
        }
        Ok(batch)
    }

    /// Total number of updates in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.retracts.len()
    }

    /// Returns `true` if the batch contains no updates.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }
}

/// An extensional database: finite relations for the EDB predicates.
#[derive(Clone, Default)]
pub struct Database {
    facts: BTreeMap<Pred, Vec<Fact>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds a fact.
    pub fn add(&mut self, fact: Fact) {
        self.facts
            .entry(fact.predicate().clone())
            .or_default()
            .push(fact);
    }

    /// Adds a ground fact from values.
    pub fn add_ground(&mut self, pred: impl Into<Pred>, values: Vec<Value>) {
        self.add(Fact::ground(pred, values));
    }

    /// Adds a fully free constraint fact `p($1..$n; C)`; returns `false`
    /// (adding nothing) when the constraint is unsatisfiable.
    pub fn add_constrained(
        &mut self,
        pred: impl Into<Pred>,
        arity: usize,
        constraint: pcs_constraints::Conjunction,
    ) -> bool {
        match Fact::constrained(pred, arity, constraint) {
            Some(fact) => {
                self.add(fact);
                true
            }
            None => false,
        }
    }

    /// Parses fact-only text (see [`parse_facts`]) and adds every fact;
    /// returns how many facts were added.
    ///
    /// Both ground facts and constraint facts are accepted:
    ///
    /// ```
    /// use pcs_engine::Database;
    ///
    /// let mut db = Database::new();
    /// let added = db
    ///     .add_facts_str(
    ///         "singleleg(madison, chicago, 50, 100).\n\
    ///          discount(C) :- C >= 0, C <= 25.",
    ///     )
    ///     .unwrap();
    /// assert_eq!(added, 2);
    /// ```
    pub fn add_facts_str(&mut self, source: &str) -> Result<usize, FactsError> {
        let facts = parse_facts(source)?;
        let count = facts.len();
        for fact in facts {
            self.add(fact);
        }
        Ok(count)
    }

    /// Removes one stored fact equivalent to `fact` (see
    /// [`Fact::equivalent`]); returns `true` if one was found.
    ///
    /// Databases are multisets — the same fact can have been added twice —
    /// and each call removes exactly one occurrence, so retracting a
    /// duplicated fact leaves the other copy in place.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let Some(facts) = self.facts.get_mut(fact.predicate()) else {
            return false;
        };
        let Some(position) = facts.iter().position(|stored| stored.equivalent(fact)) else {
            return false;
        };
        facts.remove(position);
        if facts.is_empty() {
            self.facts.remove(fact.predicate());
        }
        true
    }

    /// Removes one occurrence of each given fact; returns how many were
    /// found and removed.
    pub fn remove_facts(&mut self, deletions: &[Fact]) -> usize {
        deletions.iter().filter(|fact| self.remove(fact)).count()
    }

    /// Parses fact-only text (see [`parse_facts`]) and removes one
    /// occurrence of each parsed fact; returns how many were found and
    /// removed.
    ///
    /// This is the text front-end behind the `-fact.` retractions of the
    /// `pcs-service` session, mirroring [`Database::add_facts_str`]:
    ///
    /// ```
    /// use pcs_engine::Database;
    ///
    /// let mut db = Database::new();
    /// db.add_facts_str("singleleg(madison, chicago, 50, 100).\nsingleleg(a, b, 1, 1).")
    ///     .unwrap();
    /// let removed = db.remove_facts_str("singleleg(a, b, 1, 1).").unwrap();
    /// assert_eq!((removed, db.len()), (1, 1));
    /// ```
    pub fn remove_facts_str(&mut self, source: &str) -> Result<usize, FactsError> {
        let deletions = parse_facts(source)?;
        Ok(self.remove_facts(&deletions))
    }

    /// Applies an update batch atomically: removes one occurrence of each
    /// retraction, then adds every insertion.
    ///
    /// All-or-nothing: if any retraction has no stored match (see
    /// [`Database::remove`]), the database is left untouched and the first
    /// unmatched fact is returned as the error.
    ///
    /// ```
    /// use pcs_engine::{Database, UpdateBatch};
    ///
    /// let mut db = Database::new();
    /// db.add_facts_str("leg(a, b). leg(b, c).").unwrap();
    /// let batch = UpdateBatch::new()
    ///     .retract_str("leg(a, b).")
    ///     .unwrap()
    ///     .insert_str("leg(a, c).")
    ///     .unwrap();
    /// db.apply(&batch).unwrap();
    /// assert_eq!(db.len(), 2);
    /// ```
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<(), Fact> {
        // Validate before touching anything: every retraction claims one
        // *distinct* stored occurrence (the first unclaimed one, which is
        // the one a sequence of `remove` calls would take), so retracting a
        // singly-stored fact twice is refused.
        let mut claimed: BTreeMap<&Pred, Vec<usize>> = BTreeMap::new();
        for fact in &batch.retracts {
            let taken = claimed.entry(fact.predicate()).or_default();
            let position = self
                .facts_for(fact.predicate())
                .iter()
                .enumerate()
                .position(|(i, stored)| stored.equivalent(fact) && !taken.contains(&i))
                .ok_or_else(|| fact.clone())?;
            taken.push(position);
        }
        for (pred, mut taken) in claimed {
            let facts = self.facts.get_mut(pred).expect("claimed facts are stored");
            taken.sort_unstable();
            for position in taken.into_iter().rev() {
                facts.remove(position);
            }
            if facts.is_empty() {
                self.facts.remove(pred);
            }
        }
        for fact in &batch.inserts {
            self.add(fact.clone());
        }
        Ok(())
    }

    /// The facts for a predicate.
    pub fn facts_for(&self, pred: &Pred) -> &[Fact] {
        self.facts.get(pred).map_or(&[], Vec::as_slice)
    }

    /// Iterates over all facts.
    pub fn all_facts(&self) -> impl Iterator<Item = &Fact> {
        self.facts.values().flatten()
    }

    /// The predicates with at least one fact.
    pub fn predicates(&self) -> impl Iterator<Item = &Pred> {
        self.facts.keys()
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.facts.values().map(Vec::len).sum()
    }

    /// Returns `true` if the database has no facts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for fact in self.all_facts() {
            writeln!(f, "{fact}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_constraints::{Atom, Var};

    #[test]
    fn facts_are_grouped_by_predicate() {
        let mut db = Database::new();
        db.add_ground("b1", vec![Value::num(1), Value::num(2)]);
        db.add_ground("b1", vec![Value::num(2), Value::num(3)]);
        db.add_ground("b2", vec![Value::num(1), Value::num(2)]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.facts_for(&Pred::new("b1")).len(), 2);
        assert_eq!(db.facts_for(&Pred::new("missing")).len(), 0);
        assert_eq!(db.predicates().count(), 2);
    }

    #[test]
    fn add_facts_str_parses_ground_and_constraint_facts() {
        let mut db = Database::new();
        let added = db
            .add_facts_str(
                "% a comment\n\
                 singleleg(madison, chicago, 50, 100).\n\
                 limit(X) :- X >= 0, X <= 10.\n\
                 pair(X, X) :- X >= 1.\n\
                 sum(1 + 2).",
            )
            .unwrap();
        assert_eq!(added, 4);
        assert_eq!(db.len(), 4);
        let leg = &db.facts_for(&Pred::new("singleleg"))[0];
        assert_eq!(leg.ground_values().unwrap()[0], Value::sym("madison"));
        let limit = &db.facts_for(&Pred::new("limit"))[0];
        assert!(!limit.is_ground());
        assert!(limit
            .constraint()
            .implies_atom(&Atom::var_le(Var::position(1), 10)));
        // Repeated head variables tie their positions together.
        let pair = &db.facts_for(&Pred::new("pair"))[0];
        assert!(pair.constraint().implies_atom(&Atom::compare(
            pcs_constraints::LinearExpr::var(Var::position(1)),
            pcs_constraints::CmpOp::Eq,
            pcs_constraints::LinearExpr::var(Var::position(2)),
        )));
        // Arithmetic head arguments are evaluated.
        let sum = &db.facts_for(&Pred::new("sum"))[0];
        assert_eq!(sum.ground_values(), Some(vec![Value::num(3)]));
    }

    #[test]
    fn add_facts_str_rejects_non_facts_and_unsatisfiable_facts() {
        let mut db = Database::new();
        assert!(matches!(
            db.add_facts_str("q(X) :- p(X)."),
            Err(FactsError::Parse(_))
        ));
        assert!(matches!(
            db.add_facts_str("?- q(1)."),
            Err(FactsError::Parse(_))
        ));
        let err = db.add_facts_str("z(X) :- X < 0, X > 1.").unwrap_err();
        assert!(matches!(err, FactsError::Unsatisfiable(_)));
        assert!(err.to_string().contains("unsatisfiable"));
        // Nothing was added by the failed calls.
        assert!(db.is_empty());
    }

    #[test]
    fn update_batches_round_trip_through_signed_text() {
        let batch = UpdateBatch::new()
            .retract_str("leg(a, b, 3).")
            .unwrap()
            .insert_str("leg(a, c, 5).\nspan(X) :- X >= 0, X <= 10.")
            .unwrap();
        let rendered = batch.render();
        let reparsed = UpdateBatch::parse(&rendered).unwrap();
        assert_eq!(reparsed.inserts.len(), batch.inserts.len());
        assert_eq!(reparsed.retracts.len(), batch.retracts.len());
        for (round, original) in reparsed
            .inserts
            .iter()
            .zip(&batch.inserts)
            .chain(reparsed.retracts.iter().zip(&batch.retracts))
        {
            assert!(round.equivalent(original), "{round} vs {original}");
        }
        // Rendering is stable under a second round trip.
        assert_eq!(reparsed.render(), rendered);
        // Empty batches render to nothing and parse back empty.
        assert!(UpdateBatch::parse(&UpdateBatch::new().render())
            .unwrap()
            .is_empty());
        // Unsigned lines are refused, not guessed at.
        let err = UpdateBatch::parse("leg(a, b, 3).").unwrap_err();
        assert!(matches!(err, FactsError::Unsigned(_)));
        assert!(err.to_string().contains("`+` or `-`"));
    }

    #[test]
    fn variables_spelled_like_positions_are_ordinary_variables() {
        // `$2` is a user variable here, not position 2: `p(0, 1)` satisfies
        // the first fact, and the second gains no `$1 = $2` equality.
        for (dollars, named) in [
            (
                "p($2, X) :- X >= $2 + 1, $2 >= 0.",
                "p(Y, X) :- X >= Y + 1, Y >= 0.",
            ),
            ("p($2, $1) :- $2 <= 3.", "p(Y, X) :- Y <= 3."),
        ] {
            let got = parse_facts(dollars).unwrap_or_else(|e| panic!("{dollars}: {e}"));
            let want = parse_facts(named).unwrap();
            assert!(
                got[0].equivalent(&want[0]),
                "{dollars}: {} vs {}",
                got[0],
                want[0]
            );
            // The parseable rendering (which spells positions `$i`) still
            // round-trips through signed update text, as WAL records and
            // snapshots rely on.
            let batch = UpdateBatch::inserting(got);
            let reparsed = UpdateBatch::parse(&batch.render()).unwrap();
            assert!(
                reparsed.inserts[0].equivalent(&batch.inserts[0]),
                "{dollars}"
            );
        }
    }

    #[test]
    fn apply_claims_one_distinct_occurrence_per_retraction() {
        let mut db = Database::new();
        db.add_facts_str("leg(a, b). leg(b, c). leg(b, c).")
            .unwrap();
        let rendered = |db: &Database| format!("{db:?}");
        let before = rendered(&db);
        // A singly-stored fact cannot be retracted twice: the whole batch is
        // refused and nothing changes, the insertion included.
        let twice = UpdateBatch::new()
            .retract_str("leg(a, b). leg(a, b).")
            .unwrap()
            .insert_str("leg(x, y).")
            .unwrap();
        let refused = db.apply(&twice).unwrap_err();
        assert_eq!(refused.to_string(), "leg(a, b)");
        assert_eq!(rendered(&db), before);
        // A doubly-stored fact can, and survivors keep their order.
        let both = UpdateBatch::new()
            .retract_str("leg(b, c). leg(b, c).")
            .unwrap()
            .insert_str("leg(x, y).")
            .unwrap();
        db.apply(&both).unwrap();
        assert_eq!(rendered(&db), "leg(a, b).\nleg(x, y).\n");
        // Emptied predicates disappear, as with `remove`.
        db.apply(
            &UpdateBatch::new()
                .retract_str("leg(a, b). leg(x, y).")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(db.predicates().count(), 0);
    }
}
