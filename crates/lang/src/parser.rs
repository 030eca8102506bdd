//! A parser for a Prolog-like concrete syntax for CQL programs.
//!
//! The syntax follows the paper's notation as closely as ASCII allows:
//!
//! ```text
//! % Example 1.1 (computing flights)
//! r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
//! r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
//! r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost),
//!                                     Cost > 0, Time > 0.
//! r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
//!                           T = T1 + T2 + 30, C = C1 + C2.
//! ?- cheaporshort(madison, seattle, Time, Cost).
//! ```
//!
//! * Variables start with an upper-case letter; predicate names and symbolic
//!   constants start with a lower-case letter.
//! * Constraints use `<`, `<=`, `>`, `>=`, `=` over linear arithmetic with
//!   `+`, `-`, `*` (multiplication only by constants) and rational literals.
//! * `% ...` is a comment; `edb pred/arity.` optionally declares an EDB
//!   predicate; `?- ... .` sets the query.
//! * Rules may carry a label (`r1:`) which is preserved for display.
//!
//! The front end is a single streaming pass: the lexer walks the source by
//! byte offset and hands out tokens that borrow from it, and the parser pulls
//! them on demand into a three-token lookahead.  No token list is ever built,
//! so [`fact_rules`] can hand a loader each fact before the next is read.

use std::fmt;

use pcs_constraints::{Atom, CmpOp, Conjunction, LinearExpr, Rational, Var};

use crate::literal::{Literal, Pred};
use crate::program::{Program, Query};
use crate::rule::{Rule, Span};
use crate::term::Term;

/// A parse error with the (1-based) line and column where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Error description.
    pub message: String,
    /// Line number (1-based).
    pub line: usize,
    /// Column number (1-based).
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    LowerIdent(&'a str),
    UpperIdent(&'a str),
    Number(Rational),
    Punct(&'static str),
    /// The lexer failed here; the error itself is kept by the lexer, which
    /// yields nothing else afterwards.
    Error,
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::LowerIdent(s) | Token::UpperIdent(s) => write!(f, "`{s}`"),
            Token::Number(n) => write!(f, "`{n}`"),
            Token::Punct(p) => write!(f, "`{p}`"),
            Token::Error => write!(f, "invalid input"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

#[derive(Clone, Copy)]
struct Spanned<'a> {
    token: Token<'a>,
    line: usize,
    column: usize,
}

/// Two-character punctuation, longest match first, with its canonical
/// spelling.
const DIGRAPHS: [(&str, &str); 7] = [
    (":-", ":-"),
    ("?-", "?-"),
    ("<=", "<="),
    (">=", ">="),
    ("==", "="),
    ("=<", "<="),
    ("=>", ">="),
];

/// Walks the source by byte offset, decoding a char only where a byte is
/// non-ASCII; columns count chars, not bytes.
struct Lexer<'a> {
    source: &'a str,
    pos: usize,
    line: usize,
    column: usize,
    /// The first lexical error; once set, every further token is
    /// [`Token::Error`].
    error: Option<ParseError>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            source,
            pos: 0,
            line: 1,
            column: 1,
            error: None,
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            message,
            line: self.line,
            column: self.column,
        }
    }

    fn peek_char(&self) -> Option<char> {
        let byte = *self.source.as_bytes().get(self.pos)?;
        if byte.is_ascii() {
            Some(char::from(byte))
        } else {
            self.source[self.pos..].chars().next()
        }
    }

    fn bump(&mut self, c: char) {
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
    }

    fn skip_trivia(&mut self) {
        while let Some(c) = self.peek_char() {
            if c == '%' {
                let rest = &self.source[self.pos..];
                match rest.find('\n') {
                    Some(end) => {
                        self.pos += end + 1;
                        self.line += 1;
                        self.column = 1;
                    }
                    None => {
                        self.pos = self.source.len();
                        self.column += rest.chars().count();
                    }
                }
            } else if c.is_whitespace() {
                self.bump(c);
            } else {
                break;
            }
        }
    }

    fn next_token(&mut self) -> Spanned<'a> {
        self.skip_trivia();
        let (line, column) = (self.line, self.column);
        let token = if self.error.is_some() {
            Token::Error
        } else {
            self.lex().unwrap_or_else(|e| {
                self.error = Some(e);
                Token::Error
            })
        };
        Spanned {
            token,
            line,
            column,
        }
    }

    fn lex(&mut self) -> Result<Token<'a>, ParseError> {
        let Some(first) = self.peek_char() else {
            return Ok(Token::Eof);
        };
        if first.is_ascii_digit() {
            return self.number();
        }
        if first.is_alphabetic() || first == '_' || first == '$' {
            let start = self.pos;
            while let Some(c) = self.peek_char() {
                if c.is_alphanumeric() || matches!(c, '_' | '\'' | '$' | '#') {
                    self.bump(c);
                } else {
                    break;
                }
            }
            let text = &self.source[start..self.pos];
            return Ok(if first.is_uppercase() || first == '_' || first == '$' {
                Token::UpperIdent(text)
            } else {
                Token::LowerIdent(text)
            });
        }
        let rest = &self.source[self.pos..];
        if let Some(&(_, canonical)) = DIGRAPHS.iter().find(|(p, _)| rest.starts_with(p)) {
            self.pos += 2;
            self.column += 2;
            return Ok(Token::Punct(canonical));
        }
        let single = match first {
            '(' => "(",
            ')' => ")",
            ',' => ",",
            '.' => ".",
            ':' => ":",
            '<' => "<",
            '>' => ">",
            '=' => "=",
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '/' => "/",
            _ => return Err(self.error(format!("unexpected character `{first}`"))),
        };
        self.bump(first);
        Ok(Token::Punct(single))
    }

    /// A run of digits and `.`s; a `.` is part of the number only if a digit
    /// follows it (otherwise it ends the statement).  A malformed literal is
    /// reported where it ends.
    fn number(&mut self) -> Result<Token<'a>, ParseError> {
        let bytes = self.source.as_bytes();
        let start = self.pos;
        while let Some(&b) = bytes.get(self.pos) {
            let in_number = b.is_ascii_digit()
                || (b == b'.' && bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit));
            if !in_number {
                break;
            }
            self.pos += 1;
        }
        self.column += self.pos - start;
        let text = &self.source[start..self.pos];
        parse_number(text)
            .map(Token::Number)
            .ok_or_else(|| self.error(format!("invalid number literal `{text}`")))
    }
}

/// A decimal numeral: an integer takes the fast path straight to a
/// [`Rational`]; `int.frac` becomes the exact fraction.
fn parse_number(text: &str) -> Option<Rational> {
    let Some((int_part, frac)) = text.split_once('.') else {
        return parse_digits(text).map(Rational::from_int);
    };
    let int_part = parse_digits(int_part)?;
    let frac_value = parse_digits(frac)?;
    let denom = 10i128.checked_pow(u32::try_from(frac.len()).ok()?)?;
    let numer = int_part.checked_mul(denom)?.checked_add(frac_value)?;
    Rational::new(numer, denom).ok()
}

/// A non-empty run of ASCII digits as an `i128`; `None` on anything else or
/// on overflow.
fn parse_digits(text: &str) -> Option<i128> {
    if text.is_empty() {
        return None;
    }
    text.bytes().try_fold(0i128, |acc, b| {
        let digit = b.is_ascii_digit().then(|| i128::from(b - b'0'))?;
        acc.checked_mul(10)?.checked_add(digit)
    })
}

/// The parser: a recursive-descent reader over a three-token lookahead that
/// the lexer refills one token per `bump`.
pub struct Parser<'a> {
    lexer: Lexer<'a>,
    lookahead: [Spanned<'a>; 3],
    /// Index in `lookahead` of the current token.
    head: usize,
    /// The predicate of the last literal read: consecutive facts nearly
    /// always share it, and then share its allocation too.
    last_pred: Option<Pred>,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Self {
        let mut lexer = Lexer::new(source);
        let lookahead = [lexer.next_token(), lexer.next_token(), lexer.next_token()];
        Parser {
            lexer,
            lookahead,
            head: 0,
            last_pred: None,
        }
    }

    fn peek(&self) -> &Spanned<'a> {
        self.peek_ahead(0)
    }

    fn peek_ahead(&self, n: usize) -> &Spanned<'a> {
        debug_assert!(n < self.lookahead.len(), "lookahead is three tokens");
        &self.lookahead[(self.head + n) % self.lookahead.len()]
    }

    fn bump(&mut self) -> Spanned<'a> {
        let next = self.lexer.next_token();
        let current = std::mem::replace(&mut self.lookahead[self.head], next);
        self.head = (self.head + 1) % self.lookahead.len();
        current
    }

    /// An error at the current token — or, if the lexer failed there, the
    /// lexical error, which comes first in the source.
    fn error_here(&self, message: impl Into<String>) -> ParseError {
        let t = self.peek();
        match (&t.token, &self.lexer.error) {
            (Token::Error, Some(lexical)) => lexical.clone(),
            _ => ParseError {
                message: message.into(),
                line: t.line,
                column: t.column,
            },
        }
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        if self.peek().token == Token::Punct(p) {
            self.bump();
            Ok(())
        } else {
            Err(self.error_here(format!("expected `{p}`, found {}", self.peek().token)))
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        loop {
            match self.peek().token {
                Token::Eof => break,
                Token::Punct("?-") => {
                    self.bump();
                    let (literals, constraint) = self.parse_body()?;
                    self.expect_punct(".")?;
                    program.set_query(Query::with_constraint(literals, constraint));
                }
                Token::LowerIdent("edb")
                    if matches!(self.peek_ahead(1).token, Token::LowerIdent(_))
                        && self.peek_ahead(2).token == Token::Punct("/") =>
                {
                    self.bump();
                    let name = self.parse_lower_ident()?;
                    self.expect_punct("/")?;
                    let arity_token = self.bump().token;
                    if !matches!(arity_token, Token::Number(_)) {
                        return Err(self.error_here(format!(
                            "expected arity after `{name}/`, found {arity_token}"
                        )));
                    }
                    self.expect_punct(".")?;
                    program.declare_edb(name);
                }
                _ => {
                    let rule = self.parse_rule()?;
                    program.add_rule(rule);
                }
            }
        }
        Ok(program)
    }

    /// The next statement of fact-only input as a rule, or `None` at the end
    /// of the input.
    fn parse_fact(&mut self) -> Option<Result<Rule, ParseError>> {
        let Spanned {
            token,
            line,
            column,
        } = *self.peek();
        let refuse = |message: String| {
            Some(Err(ParseError {
                message,
                line,
                column,
            }))
        };
        match token {
            Token::Eof => None,
            Token::Punct("?-") => {
                refuse("queries are not allowed in fact-only input".to_string())
            }
            Token::LowerIdent("edb") if self.peek_ahead(2).token == Token::Punct("/") => {
                refuse("`edb` declarations are not allowed in fact-only input".to_string())
            }
            _ => match self.parse_rule() {
                Ok(rule) if !rule.is_constraint_fact() => refuse(format!(
                    "`{}` is not a fact: rules with body literals are not allowed in fact-only input",
                    rule.head
                )),
                result => Some(result),
            },
        }
    }

    fn parse_lower_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek().token {
            Token::LowerIdent(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error_here(format!("expected identifier, found {other}"))),
        }
    }

    fn parse_rule(&mut self) -> Result<Rule, ParseError> {
        // The statement-start position becomes the rule's span, so
        // diagnostics can point at the offending source line.
        let span = Span {
            line: self.peek().line,
            column: self.peek().column,
        };
        // Optional label: lower ident followed by ':' (but not ':-').
        let mut label = None;
        if let Token::LowerIdent(name) = self.peek().token {
            if self.peek_ahead(1).token == Token::Punct(":") {
                label = Some(name);
                self.bump();
                self.bump();
            }
        }
        let head = self.parse_literal()?;
        let (body, constraint) = if self.peek().token == Token::Punct(":-") {
            self.bump();
            self.parse_body()?
        } else {
            (Vec::new(), Conjunction::truth())
        };
        self.expect_punct(".")?;
        let mut rule = Rule::new(head, body, constraint).with_span(span);
        if let Some(label) = label {
            rule = rule.with_label(label);
        }
        Ok(rule)
    }

    fn parse_body(&mut self) -> Result<(Vec<Literal>, Conjunction), ParseError> {
        let mut literals = Vec::new();
        let mut constraint = Conjunction::truth();
        loop {
            self.parse_body_item(&mut literals, &mut constraint)?;
            if self.peek().token == Token::Punct(",") {
                self.bump();
            } else {
                break;
            }
        }
        Ok((literals, constraint))
    }

    fn parse_body_item(
        &mut self,
        literals: &mut Vec<Literal>,
        constraint: &mut Conjunction,
    ) -> Result<(), ParseError> {
        // A literal starts with a lower-case identifier followed by `(`
        // (or is a zero-ary predicate followed by `,`/`.`).
        if let Token::LowerIdent(_) = self.peek().token {
            if matches!(self.peek_ahead(1).token, Token::Punct("(" | "," | ".")) {
                literals.push(self.parse_literal()?);
                return Ok(());
            }
        }
        // Otherwise it is a constraint: arith op arith.
        let lhs = self.parse_arith()?;
        let op = match self.peek().token {
            Token::Punct(p) => CmpOp::parse(p).ok_or_else(|| {
                self.error_here(format!("expected comparison operator, found `{p}`"))
            })?,
            other => {
                return Err(self.error_here(format!("expected comparison operator, found {other}")))
            }
        };
        self.bump();
        let rhs = self.parse_arith()?;
        constraint.push(Atom::compare(lhs, op, rhs));
        Ok(())
    }

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        let name = self.parse_lower_ident()?;
        let mut args = Vec::new();
        if self.peek().token == Token::Punct("(") {
            self.bump();
            loop {
                args.push(self.parse_term()?);
                if self.peek().token == Token::Punct(",") {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let predicate = match &self.last_pred {
            Some(pred) if pred.name() == name => pred.clone(),
            _ => self.last_pred.insert(Pred::new(name)).clone(),
        };
        Ok(Literal::new(predicate, args))
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.peek().token {
            // Symbolic constant: lower identifier not followed by arithmetic.
            Token::LowerIdent(name) => {
                self.bump();
                Ok(Term::sym(name))
            }
            // A lone numeral is a constant; no expression needs building.
            Token::Number(n)
                if !matches!(
                    self.peek_ahead(1).token,
                    Token::Punct("+" | "-" | "*" | "/")
                ) =>
            {
                self.bump();
                Ok(Term::Num(n))
            }
            _ => Ok(Term::expr(self.parse_arith()?)),
        }
    }

    fn parse_arith(&mut self) -> Result<LinearExpr, ParseError> {
        let mut acc = self.parse_arith_factor()?;
        loop {
            match self.peek().token {
                Token::Punct("+") => {
                    self.bump();
                    acc = acc + self.parse_arith_factor()?;
                }
                Token::Punct("-") => {
                    self.bump();
                    acc = acc - self.parse_arith_factor()?;
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn parse_arith_factor(&mut self) -> Result<LinearExpr, ParseError> {
        let mut acc = self.parse_arith_atom()?;
        loop {
            match self.peek().token {
                Token::Punct("*") => {
                    self.bump();
                    let rhs = self.parse_arith_atom()?;
                    acc = multiply_linear(&acc, &rhs)
                        .ok_or_else(|| self.error_here("non-linear multiplication"))?;
                }
                Token::Punct("/") => {
                    self.bump();
                    let rhs = self.parse_arith_atom()?;
                    if !rhs.is_constant() || rhs.constant_part().is_zero() {
                        return Err(self.error_here("division only by non-zero constants"));
                    }
                    let factor = Rational::ONE / rhs.constant_part();
                    acc = acc.scale(factor);
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn parse_arith_atom(&mut self) -> Result<LinearExpr, ParseError> {
        match self.peek().token {
            Token::Number(n) => {
                self.bump();
                Ok(LinearExpr::constant(n))
            }
            Token::UpperIdent(name) => {
                self.bump();
                Ok(LinearExpr::var(Var::new(name)))
            }
            Token::Punct("-") => {
                self.bump();
                Ok(-self.parse_arith_atom()?)
            }
            Token::Punct("(") => {
                self.bump();
                let inner = self.parse_arith()?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            other => Err(self.error_here(format!("expected arithmetic term, found {other}"))),
        }
    }
}

fn multiply_linear(a: &LinearExpr, b: &LinearExpr) -> Option<LinearExpr> {
    if a.is_constant() {
        Some(b.scale(a.constant_part()))
    } else if b.is_constant() {
        Some(a.scale(b.constant_part()))
    } else {
        None
    }
}

/// Parses a complete program from source text.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    Parser::new(source).parse_program()
}

/// Parses fact-only source text: a sequence of ground facts (`p(a, 1).`) and
/// constraint facts (`p(X) :- X <= 3.`), i.e. rules without ordinary body
/// literals.
///
/// Anything else — a rule with body literals, a query, or an `edb`
/// declaration — is rejected with a positioned [`ParseError`], so bulk fact
/// loaders (and the interactive `+fact.` insertions of `pcs-service`) can
/// report exactly which statement was not a fact.  This is [`fact_rules`],
/// collected.
pub fn parse_facts(source: &str) -> Result<Vec<Rule>, ParseError> {
    fact_rules(source).collect()
}

/// Reads fact-only source text one statement at a time: each call to
/// [`Iterator::next`] parses exactly one more fact, so a loader converts and
/// stores a fact before the next one is read.  Accepts and refuses exactly
/// what [`parse_facts`] does; the first error ends the iteration.
pub fn fact_rules(source: &str) -> FactRules<'_> {
    FactRules {
        parser: Parser::new(source),
        failed: false,
    }
}

/// The iterator [`fact_rules`] returns.
pub struct FactRules<'a> {
    parser: Parser<'a>,
    failed: bool,
}

impl Iterator for FactRules<'_> {
    type Item = Result<Rule, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let next = self.parser.parse_fact()?;
        self.failed = next.is_err();
        Some(next)
    }
}

/// Parses an interactive query: an optional leading `?-`, one or more body
/// items (literals and constraints), and an optional trailing `.`.
///
/// This is the entry point the `pcs-service` front-ends use for `?- q(...)`
/// lines, where both the prompt prefix and the final period are a matter of
/// taste.
pub fn parse_query(source: &str) -> Result<Query, ParseError> {
    let mut parser = Parser::new(source);
    if parser.peek().token == Token::Punct("?-") {
        parser.bump();
    }
    let (literals, constraint) = parser.parse_body()?;
    if parser.peek().token == Token::Punct(".") {
        parser.bump();
    }
    if parser.peek().token != Token::Eof {
        return Err(parser.error_here("trailing input after query"));
    }
    if literals.is_empty() {
        return Err(parser.error_here("a query needs at least one literal"));
    }
    Ok(Query::with_constraint(literals, constraint))
}

/// Parses a single rule.
pub fn parse_rule(source: &str) -> Result<Rule, ParseError> {
    let mut parser = Parser::new(source);
    let rule = parser.parse_rule()?;
    if parser.peek().token != Token::Eof {
        return Err(parser.error_here("trailing input after rule"));
    }
    Ok(rule)
}

/// Parses a single literal (no trailing period).
pub fn parse_literal(source: &str) -> Result<Literal, ParseError> {
    let mut parser = Parser::new(source);
    let literal = parser.parse_literal()?;
    if parser.peek().token != Token::Eof {
        return Err(parser.error_here("trailing input after literal"));
    }
    Ok(literal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flights_program() {
        let source = r#"
            % Example 1.1
            r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
            r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
            r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
            r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                                      T = T1 + T2 + 30, C = C1 + C2.
            ?- cheaporshort(madison, seattle, Time, Cost).
        "#;
        let program = parse_program(source).unwrap();
        assert_eq!(program.rules().len(), 4);
        assert!(program.query().is_some());
        assert!(program.edb_predicates().contains(&Pred::new("singleleg")));
        assert_eq!(program.idb_predicates().len(), 2);
        let r4 = &program.rules()[3];
        assert_eq!(r4.body.len(), 2);
        assert_eq!(r4.constraint.len(), 2);
        let query = program.query().unwrap();
        assert_eq!(query.literals[0].args[0], Term::sym("madison"));
    }

    #[test]
    fn parses_fibonacci_program() {
        let source = r#"
            r1: fib(0, 1).
            r2: fib(1, 1).
            r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).
            ?- fib(N, 5).
        "#;
        let program = parse_program(source).unwrap();
        assert_eq!(program.rules().len(), 3);
        let r3 = &program.rules()[2];
        assert!(!r3.is_flat());
        assert!(matches!(r3.head.args[1], Term::Expr(_)));
        let flat = program.flattened();
        assert!(flat.rules().iter().all(Rule::is_flat));
    }

    #[test]
    fn parses_edb_declarations_and_facts() {
        let source = r#"
            edb b1/2.
            p(1, 2).
            p(X, Y) :- b1(X, Y), X <= 4.
        "#;
        let program = parse_program(source).unwrap();
        assert!(program.edb_predicates().contains(&Pred::new("b1")));
        assert!(program.rules()[0].is_constraint_fact());
        assert_eq!(program.rules()[0].head.args[0], Term::num(1));
    }

    #[test]
    fn parses_rationals_and_division() {
        let rule = parse_rule("p(X) :- q(Y), X = Y / 2, Y >= 1.5.").unwrap();
        assert_eq!(rule.constraint.len(), 2);
    }

    /// The exact message, line and (1-based, char-counted) column of every
    /// kind of parse error, through each public entry point.
    #[test]
    fn parse_errors_match_the_golden_table() {
        type Entry = fn(&str) -> Result<(), ParseError>;
        let program: Entry = |s| parse_program(s).map(drop);
        let facts: Entry = |s| parse_facts(s).map(drop);
        let rule: Entry = |s| parse_rule(s).map(drop);
        let query: Entry = |s| parse_query(s).map(drop);
        let literal: Entry = |s| parse_literal(s).map(drop);
        let overflow = "p(170141183460469231731687303715884105728).";
        let table: [(Entry, &str, &str, usize, usize); 20] = [
            (
                program,
                "p(a) :- q(a) @ r.",
                "unexpected character `@`",
                1,
                14,
            ),
            (
                program,
                "p(X) :- q(X), X ! 3.",
                "unexpected character `!`",
                1,
                17,
            ),
            (program, "p(a", "expected `)`, found end of input", 1, 4),
            (program, "1.5.", "expected identifier, found `3/2`", 1, 1),
            (
                facts,
                overflow,
                "invalid number literal `170141183460469231731687303715884105728`",
                1,
                42,
            ),
            (facts, "p(1.2.3).", "invalid number literal `1.2.3`", 1, 8),
            (
                program,
                "pé(Ünï) :- qé(Ünï), Ünï ! 1.",
                "unexpected character `!`",
                1,
                25,
            ),
            (
                program,
                "p(a).\r\n\tq(b) :-\r\n\t\tr(b) s.",
                "expected `.`, found `s`",
                3,
                8,
            ),
            (
                program,
                "p(a) % no period, then a comment",
                "expected `.`, found end of input",
                1,
                33,
            ),
            (
                program,
                "p(X) :- q(X), X =< 3 == 4.",
                "expected `.`, found `=`",
                1,
                22,
            ),
            (
                program,
                "p(X) :- q(X), X => .",
                "expected arithmetic term, found `.`",
                1,
                20,
            ),
            (
                facts,
                "p(1).\n?- p(X).",
                "queries are not allowed in fact-only input",
                2,
                1,
            ),
            (
                facts,
                "p(1).\n  edb p/1.",
                "`edb` declarations are not allowed in fact-only input",
                2,
                3,
            ),
            (
                facts,
                "p(1).\nq(X) :- p(X).",
                "`q(X)` is not a fact: rules with body literals are not allowed in fact-only input",
                2,
                1,
            ),
            (
                rule,
                "p(X) :- q(X). extra",
                "trailing input after rule",
                1,
                15,
            ),
            (query, "?- q(X). extra", "trailing input after query", 1, 10),
            (
                query,
                "?- X <= 3.",
                "a query needs at least one literal",
                1,
                11,
            ),
            (literal, "p(X) q", "trailing input after literal", 1, 6),
            (
                program,
                "edb p/x.",
                "expected arity after `p/`, found `x`",
                1,
                8,
            ),
            // Source order: the syntax error at `:-` comes before the bad
            // character, so it is the one reported.
            (program, "p(X :- q(X). @", "expected `)`, found `:-`", 1, 5),
        ];
        for (parse, source, message, line, column) in table {
            let err = parse(source).expect_err(source);
            assert_eq!(
                (err.message.as_str(), err.line, err.column),
                (message, line, column),
                "for {source:?}"
            );
        }
    }

    #[test]
    fn constraint_only_rules_parse_as_constraint_facts() {
        let rule = parse_rule("p(X) :- X >= 0, X <= 10.").unwrap();
        assert!(rule.is_constraint_fact());
        assert_eq!(rule.constraint.len(), 2);
    }

    #[test]
    fn negative_numerals_parse_in_facts_queries_and_constraints() {
        // Facts and queries with negative constant arguments.
        let program = parse_program("m(-3, -4).\n?- m(-3, X).").unwrap();
        assert_eq!(program.rules()[0].head.args[0], Term::num(-3));
        assert_eq!(program.rules()[0].head.args[1], Term::num(-4));
        let query = program.query().unwrap();
        assert_eq!(query.literals[0].args[0], Term::num(-3));
        // Negative constraint constants, on either side of the comparison.
        let rule = parse_rule("q(X) :- p(X), X <= -3, -5 <= X.").unwrap();
        let at = |v: i64| {
            rule.constraint
                .evaluate(&|_| Some(Rational::from_int(v as i128)))
                .unwrap()
        };
        assert!(at(-4));
        assert!(!at(-2), "X <= -3 must reject -2");
        assert!(!at(-6), "-5 <= X must reject -6");
        // Negative decimals.
        let rule = parse_rule("q(X) :- p(X), X >= -1.5.").unwrap();
        let c = &rule.constraint;
        assert!(c.evaluate(&|_| Some(Rational::from_int(-1))).unwrap());
        assert!(!c.evaluate(&|_| Some(Rational::from_int(-2))).unwrap());
        // Unary minus over parenthesized expressions and double negation.
        let rule = parse_rule("q(Y) :- p(X), Y = -(X + 1) - -2.").unwrap();
        let sat = rule.constraint.evaluate(&|v: &Var| {
            Some(Rational::from_int(match v.name() {
                "X" => 3,
                // Y = -(3 + 1) + 2 = -2
                "Y" => -2,
                _ => return None,
            }))
        });
        assert_eq!(sat, Some(true));
    }

    #[test]
    fn programs_round_trip_through_display() {
        // Rendered programs must re-parse to the same rendering, including
        // negative numerals, rationals, labels, EDB declarations, and the
        // query.
        let sources = [
            "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
             flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0.\n\
             ?- cheaporshort(madison, seattle, Time, Cost).",
            "edb b1/2.\np(-1, 2.5).\nq(X) :- b1(X, Y), X <= -3, Y = X - 1.\n?- q(-1).",
            "fib(0, 1).\nfib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).\n\
             ?- fib(N, 5).",
            "bounds(X) :- X >= -1.5, X <= 7/2.",
        ];
        for source in sources {
            let program = parse_program(source).unwrap();
            let printed = program.to_string();
            let reparsed = parse_program(&printed)
                .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
            assert_eq!(printed, reparsed.to_string(), "for source {source:?}");
        }
    }

    #[test]
    fn parse_facts_accepts_ground_and_constraint_facts_only() {
        let rules = parse_facts(
            "flight(madison, chicago, 50, 100).\n\
             bound(X) :- X >= 0, X <= 10.\n\
             pair(X, X) :- X >= 1.",
        )
        .unwrap();
        assert_eq!(rules.len(), 3);
        assert!(rules.iter().all(Rule::is_constraint_fact));
        assert_eq!(rules[0].head.args[0], Term::sym("madison"));
        assert_eq!(rules[1].constraint.len(), 2);

        // Rules with body literals, queries, and edb declarations are
        // rejected, with positions.
        let err = parse_facts("p(1).\nq(X) :- p(X).").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("not a fact"));
        let err = parse_facts("p(1).\n?- p(X).").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("queries"));
        let err = parse_facts("edb p/1.").unwrap_err();
        assert!(err.message.contains("edb"));
    }

    #[test]
    fn parse_query_accepts_prompt_prefix_and_trailing_period() {
        for source in [
            "?- cheaporshort(madison, seattle, T, C).",
            "cheaporshort(madison, seattle, T, C)",
            "?- cheaporshort(madison, seattle, T, C)",
        ] {
            let query = parse_query(source).unwrap();
            assert_eq!(query.literals.len(), 1);
            assert_eq!(query.literals[0].predicate, Pred::new("cheaporshort"));
        }
        // Constraints ride along, and repeated variables survive.
        let query = parse_query("?- q(X, X), X <= 3.").unwrap();
        assert_eq!(query.constraint.len(), 1);
        assert_eq!(query.literals[0].args[0], query.literals[0].args[1]);
        // No literal, or trailing junk, is an error.
        assert!(parse_query("?- X <= 3.").is_err());
        assert!(parse_query("?- q(X). extra").is_err());
    }

    #[test]
    fn nonlinear_multiplication_is_rejected() {
        assert!(parse_rule("p(X) :- q(Y), X = Y * Y.").is_err());
        assert!(parse_rule("p(X) :- q(Y), X = 2 * Y.").is_ok());
    }
}
