//! Parser round-trip property tests: parse → Display → parse is the
//! identity, for whole programs, fact-only input, and interactive queries.
//!
//! A seeded generator produces random source text from the concrete
//! grammar — rules with labels, constraint facts, `edb` declarations,
//! queries with side constraints, arithmetic with negative rationals
//! (decimals and fractions) — and each case checks that the rendered form
//! of the parse re-parses to the *same* rendered form.  Display is the
//! engine's wire format (the shell prints facts and programs back to
//! users), so any asymmetry between printer and parser is a user-visible
//! bug.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pushing_constraint_selections::lang::{parse_facts, parse_program, parse_query};

/// Random concrete-syntax generator.  Everything it emits must parse.
struct Source {
    rng: StdRng,
}

impl Source {
    fn new(seed: u64) -> Source {
        Source {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.rng.random_range(0..options.len())]
    }

    fn pred(&mut self) -> &'static str {
        // `edb` is a keyword at statement start; keep it out of the pool.
        ["p", "q", "r", "edge", "b1", "cheap"][self.rng.random_range(0..6usize)]
    }

    fn var(&mut self) -> &'static str {
        ["X", "Y", "Z", "W", "Time"][self.rng.random_range(0..5usize)]
    }

    fn sym(&mut self) -> &'static str {
        ["a", "b", "madison", "seattle"][self.rng.random_range(0..4usize)]
    }

    /// A numeric literal: integer, negative integer, decimal, or fraction.
    fn number(&mut self) -> String {
        match self.rng.random_range(0..4) {
            0 => format!("{}", self.rng.random_range(0..100)),
            1 => format!("-{}", self.rng.random_range(1..100)),
            2 => format!(
                "{}{}.{}",
                if self.rng.random_range(0..2) == 0 {
                    "-"
                } else {
                    ""
                },
                self.rng.random_range(0..20),
                self.rng.random_range(1..100)
            ),
            _ => format!(
                "{}{}/{}",
                if self.rng.random_range(0..2) == 0 {
                    "-"
                } else {
                    ""
                },
                self.rng.random_range(1..40),
                self.rng.random_range(1..9)
            ),
        }
    }

    /// A linear arithmetic expression over at most two variables.
    fn expr(&mut self) -> String {
        match self.rng.random_range(0..5) {
            0 => self.var().to_string(),
            1 => self.number(),
            2 => format!("{} + {}", self.var(), self.number()),
            3 => format!("{} * {} - {}", self.number(), self.var(), self.number()),
            _ => format!("-({} + {})", self.var(), self.number()),
        }
    }

    fn cmp(&mut self) -> &'static str {
        self.pick(&["<", "<=", ">", ">=", "="])
    }

    fn constraint(&mut self) -> String {
        format!("{} {} {}", self.expr(), self.cmp(), self.expr())
    }

    fn term(&mut self) -> String {
        match self.rng.random_range(0..4) {
            0 => self.var().to_string(),
            1 => self.sym().to_string(),
            2 => self.number(),
            _ => self.expr(),
        }
    }

    fn literal(&mut self) -> String {
        let arity = self.rng.random_range(0..4);
        if arity == 0 {
            return self.pred().to_string();
        }
        let args: Vec<String> = (0..arity).map(|_| self.term()).collect();
        format!("{}({})", self.pred(), args.join(", "))
    }

    /// A rule, a ground fact, or a constraint fact — optionally labeled.
    fn rule(&mut self) -> String {
        let label = if self.rng.random_range(0..3) == 0 {
            format!("r{}: ", self.rng.random_range(1..9))
        } else {
            String::new()
        };
        let head = self.literal();
        let body_literals = self.rng.random_range(0..3);
        let constraints = self.rng.random_range(0..3);
        let mut parts: Vec<String> = (0..body_literals).map(|_| self.literal()).collect();
        parts.extend((0..constraints).map(|_| self.constraint()));
        if parts.is_empty() {
            format!("{label}{head}.")
        } else {
            format!("{label}{head} :- {}.", parts.join(", "))
        }
    }

    /// A fact-only statement: ground or constraint fact (no body literals).
    fn fact(&mut self) -> String {
        let head = self.literal();
        let constraints = self.rng.random_range(0..3);
        if constraints == 0 {
            format!("{head}.")
        } else {
            let parts: Vec<String> = (0..constraints).map(|_| self.constraint()).collect();
            format!("{head} :- {}.", parts.join(", "))
        }
    }

    fn program(&mut self) -> String {
        let mut statements = Vec::new();
        if self.rng.random_range(0..2) == 0 {
            statements.push(format!(
                "edb {}/{}.",
                self.pred(),
                self.rng.random_range(1..4)
            ));
        }
        for _ in 0..self.rng.random_range(1..5) {
            statements.push(self.rule());
        }
        if self.rng.random_range(0..2) == 0 {
            statements.push(self.query());
        }
        statements.join("\n")
    }

    fn query(&mut self) -> String {
        let mut parts = vec![self.literal()];
        // Side constraints ride along in the query body.
        parts.extend((0..self.rng.random_range(0..3)).map(|_| self.constraint()));
        format!("?- {}.", parts.join(", "))
    }

    /// A statement a fact loader accepts or refuses as unsatisfiable: a
    /// ground fact over symbols and numerals (negative, `2.0`, `7/2`), a
    /// fact with an arithmetic head argument, or a constraint fact.
    fn loadable_fact(&mut self) -> String {
        let arity = self.rng.random_range(1..4);
        let args: Vec<String> = (0..arity)
            .map(|_| match self.rng.random_range(0..6) {
                0 | 1 => self.sym().to_string(),
                2 => self.number(),
                3 => self.pick(&["2.0", "7/2", "-7", "0"]).to_string(),
                4 => format!("{} + {}", self.number(), self.number()),
                _ => self.var().to_string(),
            })
            .collect();
        let head = format!("{}({})", self.pred(), args.join(", "));
        match self.rng.random_range(0..3) {
            0 => format!("{head}."),
            _ => {
                let parts: Vec<String> = (0..self.rng.random_range(0..3))
                    .map(|_| self.constraint())
                    .collect();
                if parts.is_empty() {
                    format!("{head}.")
                } else {
                    format!("{head} :- {}.", parts.join(", "))
                }
            }
        }
    }

    fn facts(&mut self) -> String {
        (0..self.rng.random_range(1..5))
            .map(|_| self.fact())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn programs_round_trip_through_display(seed in 0u64..u64::MAX) {
        let source = Source::new(seed).program();
        let program = parse_program(&source)
            .unwrap_or_else(|e| panic!("generated program failed to parse: {e}\n{source}"));
        let printed = program.to_string();
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to re-parse: {e}\n{printed}"));
        prop_assert_eq!(&printed, &reparsed.to_string(), "display unstable for\n{}", source);
    }

    #[test]
    fn facts_round_trip_through_display(seed in 0u64..u64::MAX) {
        let source = Source::new(seed.wrapping_add(0x9E37)).facts();
        let rules = parse_facts(&source)
            .unwrap_or_else(|e| panic!("generated facts failed to parse: {e}\n{source}"));
        let printed: Vec<String> = rules.iter().map(ToString::to_string).collect();
        let reparsed = parse_facts(&printed.join("\n"))
            .unwrap_or_else(|e| panic!("printed facts failed to re-parse: {e}\n{printed:?}"));
        let reprinted: Vec<String> = reparsed.iter().map(ToString::to_string).collect();
        prop_assert_eq!(&printed, &reprinted, "display unstable for\n{}", source);
        prop_assert_eq!(rules, reparsed);
    }

    #[test]
    fn queries_round_trip_through_display(seed in 0u64..u64::MAX) {
        let source = Source::new(seed.wrapping_mul(0x2545F491)).query();
        let query = parse_query(&source)
            .unwrap_or_else(|e| panic!("generated query failed to parse: {e}\n{source}"));
        let printed = query.to_string();
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("printed query failed to re-parse: {e}\n{printed}"));
        prop_assert_eq!(&printed, &reparsed.to_string(), "display unstable for\n{}", source);
        prop_assert_eq!(query, reparsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn symbols_round_trip_through_the_interner(seed in 0u64..u64::MAX) {
        // parse → intern → Display → parse is the identity on symbols: a
        // spelling interns to one stable id, the interned symbol prints its
        // exact spelling, and re-parsing the printed fact reaches the *same*
        // id (value equality on facts is id equality on their symbols).
        use pushing_constraint_selections::engine::{parse_facts as parse_engine_facts, Value};
        use pushing_constraint_selections::lang::{SymbolTable, Symbol};

        // Random lowercase spellings, `[a-z][a-z0-9_]{0,12}` by construction.
        let mut rng = StdRng::seed_from_u64(seed);
        let spellings: Vec<String> = (0..rng.random_range(1..8usize))
            .map(|_| {
                let mut s = String::new();
                s.push((b'a' + rng.random_range(0..26u8)) as char);
                for _ in 0..rng.random_range(0..12usize) {
                    let tail = b"abcdefghijklmnopqrstuvwxyz0123456789_";
                    s.push(tail[rng.random_range(0..tail.len())] as char);
                }
                s
            })
            .collect();

        let table = SymbolTable::shared();
        for spelling in &spellings {
            let symbol = Symbol::new(spelling);
            prop_assert_eq!(symbol.name(), spelling.as_str());
            prop_assert_eq!(symbol.to_string(), spelling.clone());
            prop_assert_eq!(table.intern(spelling), symbol.id());
            prop_assert_eq!(table.resolve(symbol.id()), spelling.as_str());

            let source = format!("loc({spelling}, {spelling}2, 1).");
            let facts = parse_engine_facts(&source).unwrap();
            prop_assert_eq!(facts.len(), 1);
            let fact = &facts[0];
            let values = fact.ground_values().expect("ground fact");
            let first = values[0].as_sym().expect("symbol argument");
            prop_assert_eq!(first.id(), symbol.id(), "parse reached a different id");
            prop_assert_eq!(&values[0], &Value::sym(spelling));

            // Display → parse lands on the identical interned fact.
            let (literal, _) = fact.to_literal_and_constraint();
            let reparsed = parse_engine_facts(&format!("{literal}.")).unwrap();
            prop_assert_eq!(&reparsed[0], fact, "printed fact re-parsed differently");
            prop_assert_eq!(
                reparsed[0].ground_values().unwrap()[0].as_sym().unwrap().id(),
                symbol.id()
            );
        }
    }
}

#[test]
fn engine_facts_round_trip_into_the_database_layer() {
    // The engine's `Fact` display is `literal; constraint` — the `.facts`
    // listing format.  Its rule form must round-trip through the fact
    // parser: (parse → store → render as rule → parse) preserves the
    // stored fact, constraint facts included.
    use pushing_constraint_selections::engine::{Database, Fact};
    let mut db = Database::new();
    db.add_facts_str(
        "singleleg(madison, chicago, 50, 100).\n\
         bound(X) :- X >= -3/2, X <= 7/2.\n\
         pair(X, X) :- X >= 1.\n\
         point(-1.5, 2).",
    )
    .unwrap();
    for fact in db.all_facts().cloned().collect::<Vec<Fact>>() {
        let (literal, constraint) = fact.to_literal_and_constraint();
        let rendered = if constraint.is_trivially_true() {
            format!("{literal}.")
        } else {
            let atoms: Vec<String> = constraint.atoms().iter().map(ToString::to_string).collect();
            format!("{literal} :- {}.", atoms.join(", "))
        };
        let reparsed = parse_facts(&rendered)
            .unwrap_or_else(|e| panic!("rendered fact failed to re-parse: {e}\n{rendered}"));
        assert_eq!(reparsed.len(), 1, "{rendered}");
        let mut round = Database::new();
        round.add_facts_str(&rendered).unwrap();
        let stored = round.all_facts().next().unwrap();
        assert!(
            stored.equivalent(&fact),
            "round-tripped fact diverged: {fact} vs {stored} (via {rendered})"
        );
    }
}

/// The reference conversion, without the ground fast path: flatten the
/// rule, turn head variables into free positions tied by `$i = X`, and let
/// [`Fact::new`] normalise.
fn normalised(rule: &pushing_constraint_selections::lang::Rule) -> Option<engine::Fact> {
    use pushing_constraint_selections::constraints::{Atom, CmpOp, LinearExpr, Var, VarGen};
    use pushing_constraint_selections::lang::Term;
    let flat = rule.flattened(&mut VarGen::new());
    let mut constraint = flat.constraint.clone();
    let bindings = flat
        .head
        .args
        .iter()
        .enumerate()
        .map(|(i, term)| match term {
            Term::Num(n) => engine::Binding::Bound(engine::Value::num(*n)),
            Term::Sym(s) => engine::Binding::Bound(engine::Value::Sym(*s)),
            Term::Var(v) => {
                let position = LinearExpr::var(Var::position(i + 1));
                constraint.push(Atom::compare(
                    position,
                    CmpOp::Eq,
                    LinearExpr::var(v.clone()),
                ));
                engine::Binding::Free
            }
            Term::Expr(_) => unreachable!("flattened heads hold no expressions"),
        })
        .collect();
    engine::Fact::new(flat.head.predicate.clone(), bindings, constraint)
}

use pushing_constraint_selections::engine;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fact_loading_equals_normalisation(seed in 0u64..u64::MAX) {
        let mut source = Source::new(seed ^ 0x5EED);
        let text: Vec<String> = (0..source.rng.random_range(1..12))
            .map(|_| source.loadable_fact())
            .collect();
        let text = text.join("\n");
        let rules = parse_facts(&text)
            .unwrap_or_else(|e| panic!("generated facts failed to parse: {e}\n{text}"));
        let expected: Option<Vec<engine::Fact>> = rules.iter().map(normalised).collect();
        match (engine::parse_facts(&text), expected) {
            (Ok(facts), Some(expected)) => prop_assert_eq!(facts, expected, "for\n{}", text),
            (Err(engine::FactsError::Unsatisfiable(_)), None) => {}
            (got, expected) => prop_assert!(
                false,
                "loader gave {:?}, normalisation {:?}, for\n{}",
                got.map(|facts| facts.len()),
                expected.map(|facts| facts.len()),
                text
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn a_bad_last_line_of_ten_thousand_loads_nothing(seed in 0u64..u64::MAX) {
        let mut source = Source::new(seed);
        let mut text = String::new();
        for i in 0..9_999 {
            text.push_str(&format!("leg({}, c{i}, {}).\n", source.sym(), i % 300));
        }
        let bad = source.pick(&["leg(a, b", "leg(X, b, 1) :- X < 0, X > 1.", "leg(a, b, 1) @"]);
        text.push_str(bad);
        let mut db = engine::Database::new();
        db.add_facts_str("leg(seed, fact, 0).").unwrap();
        let before = format!("{db:?}");
        prop_assert!(db.add_facts_str(&text).is_err(), "{} was accepted", bad);
        prop_assert_eq!(format!("{db:?}"), before);
    }
}
