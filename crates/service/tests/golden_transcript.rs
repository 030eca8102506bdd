//! Golden-transcript tests for the shell's error paths.
//!
//! Each test drives one [`Shell`] through a scripted exchange and compares
//! the *complete* transcript — every response line, in order — against a
//! golden expectation, with wall-clock durations masked as `<t>`.  The
//! scripts focus on the paths where a user slips: a `.strategy` typo, a
//! malformed `+fact.`/`-fact.` line, retracting a fact that is not in the
//! extensional database, and updates against a partial (limit-terminated)
//! materialization.  An error must be a single, precisely worded line, and
//! it must leave the session answering queries exactly as before.

use std::sync::Arc;

use pcs_core::{Optimizer, Strategy};
use pcs_engine::{Database, EvalLimits, EvalOptions};
use pcs_service::{Session, SessionHub, Shell};

/// Replaces duration tokens (`688.526µs`, `1.2ms`, `3s`, …) with `<t>` so
/// transcripts compare deterministically.
fn mask_durations(line: &str) -> String {
    let chars: Vec<char> = line.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_digit() {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                i += 1;
            }
            let unit = ["ns", "µs", "ms", "s"]
                .into_iter()
                .find(|unit| chars[i..].starts_with(&unit.chars().collect::<Vec<_>>()[..]));
            match unit {
                Some(unit)
                    if !chars
                        .get(i + unit.chars().count())
                        .is_some_and(|c| c.is_alphanumeric()) =>
                {
                    out.push_str("<t>");
                    i += unit.chars().count();
                }
                _ => out.extend(&chars[start..i]),
            }
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

/// Runs `script` through `shell`, echoing each input line as `>>> line` and
/// collecting every (duration-masked) response line.
fn transcript(shell: &mut Shell, script: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for line in script {
        out.push(format!(">>> {line}"));
        for response in shell.execute(line).lines {
            out.push(mask_durations(&response));
        }
    }
    out
}

#[test]
fn golden_error_paths_and_recovery() {
    let mut shell = Shell::new();
    let actual = transcript(
        &mut shell,
        &[
            ".strategy optimla",
            ".retract",
            "+nonsense((",
            "-nonsense((",
            ".load",
            "r1: p(X) :- b(X), X >= 0.",
            "+b(1).",
            "+b(2).",
            "?- p(X).",
            ".end",
            "+bad((",
            "-bad((",
            "-b(9).",
            "-c(1).",
            "-b(2).",
            "?- p(X).",
            ".retract b(1).",
            "?- p(X).",
        ],
    );
    let expected = vec![
        ">>> .strategy optimla",
        "error: unknown strategy `optimla`; expected none, constraint, magic, optimal, or a comma list of pred/qrp/mg",
        ">>> .retract",
        "error: usage: .retract p(a, 1). (equivalent to a leading `-` line)",
        ">>> +nonsense((",
        "error: no session loaded; use .load first",
        ">>> -nonsense((",
        "error: no session loaded; use .load first",
        ">>> .load",
        "loading program; finish with .end (`+fact.` lines feed the base database)",
        ">>> r1: p(X) :- b(X), X >= 0.",
        ">>> +b(1).",
        ">>> +b(2).",
        ">>> ?- p(X).",
        ">>> .end",
        "ok: materialized 5 facts (0 constraint facts) across 3 relations in <t>; strategy optimal (pred,qrp,mg); answers in `p_f`",
        ">>> +bad((",
        "error: invalid facts: parse error at 1:6: expected arithmetic term, found end of input",
        ">>> -bad((",
        "error: invalid facts: parse error at 1:6: expected arithmetic term, found end of input",
        ">>> -b(9).",
        "error: `b(9)` is not in the extensional database; nothing was retracted",
        ">>> -c(1).",
        "error: `c` is not an EDB predicate; only database facts can be inserted or retracted",
        ">>> -b(2).",
        "ok: epoch 1; -2 removed, +0 re-derived (0 derivations over 2 iterations, Fixpoint, <t>)",
        ">>> ?- p(X).",
        "answers: 1 (predicate p_f, epoch 1)",
        "  p_f(1)",
        ">>> .retract b(1).",
        "ok: epoch 2; -2 removed, +0 re-derived (0 derivations over 2 iterations, Fixpoint, <t>)",
        ">>> ?- p(X).",
        "answers: 0 (predicate p_f, epoch 2)",
    ];
    assert_eq!(actual, expected, "transcript diverged from the golden copy");
}

#[test]
fn golden_updates_against_a_partial_materialization() {
    // A diverging counter capped at two iterations: the base materialization
    // is partial, so both inserts and retracts must be refused with the
    // same precise explanation, at epoch 0, while queries keep working.
    let program =
        pcs_lang::parse_program("nat(0).\nnat(Y) :- seed(X), nat(X), Y = X + 1.\n?- nat(5).")
            .unwrap();
    let mut db = Database::new();
    db.add_facts_str("seed(0).\nseed(1).").unwrap();
    let optimizer = Optimizer::new(program)
        .strategy(Strategy::None)
        .eval_options(EvalOptions {
            limits: EvalLimits::capped(2),
            ..EvalOptions::default()
        });
    let hub = Arc::new(SessionHub::new());
    hub.install(Session::materialize(&optimizer, &db).unwrap());
    let mut shell = Shell::with_hub(hub);
    let refusal = "error: cannot apply updates: the current materialization is partial \
                   (IterationLimit); resuming would silently drop derivations the interrupted \
                   run never attempted";
    let actual = transcript(&mut shell, &["-seed(0).", ".retract seed(1).", "+seed(4)."]);
    let expected = vec![
        ">>> -seed(0).".to_string(),
        refusal.to_string(),
        ">>> .retract seed(1).".to_string(),
        refusal.to_string(),
        ">>> +seed(4).".to_string(),
        refusal.to_string(),
    ];
    assert_eq!(actual, expected, "transcript diverged from the golden copy");
}

#[test]
fn golden_explain_renders_the_compiled_plans() {
    // `.explain` before any `.load` is a plain error; after a
    // materialization it prints one header per rule and one plan line per
    // delta position, with probe columns, existence shortcuts, bound-argument
    // counts and — in braces — the slot program of each step (the variables it binds, the constraint atoms it checks or
    // defines a variable from) — all deterministic, no durations.
    let mut shell = Shell::new();
    let actual = transcript(
        &mut shell,
        &[
            ".explain",
            ".load",
            "r1: p(X) :- b(X), c(X, Y), X >= 0.",
            "+b(1).",
            "+b(2).",
            "+c(1, 5).",
            "?- p(X).",
            ".end",
            ".explain",
        ],
    );
    let expected = vec![
        ">>> .explain",
        "error: no session loaded; use .load first",
        ">>> .load",
        "loading program; finish with .end (`+fact.` lines feed the base database)",
        ">>> r1: p(X) :- b(X), c(X, Y), X >= 0.",
        ">>> +b(1).",
        ">>> +b(2).",
        ">>> +c(1, 5).",
        ">>> ?- p(X).",
        ">>> .end",
        "ok: materialized 5 facts (0 constraint facts) across 4 relations in <t>; strategy \
         optimal (pred,qrp,mg); answers in `p_f`",
        ">>> .explain",
        "plan for rule r1: r1: p_f(X) :- -X <= 0, m_p_f, b(X), c(X, Y).",
        "  delta m_p_f@1: m_p_f@1 delta scan [bound 0/0] -> b@2 known scan [bound 0/1] \
         {bind X; check -X <= 0} -> c@3 known probe $1 [bound 1/2] {bind Y}",
        "  delta b@2: b@2 delta scan [bound 0/1] {bind X; check -X <= 0} -> c@3 known probe $1 \
         [bound 1/2] {bind Y} -> m_p_f@1 stable scan exists [bound 0/0]",
        "  delta c@3: c@3 delta scan [bound 0/2] {bind X, Y; check -X <= 0} -> b@2 stable probe \
         $1 exists [bound 1/1] -> m_p_f@1 stable scan exists [bound 0/0]",
    ];
    assert_eq!(actual, expected, "transcript diverged from the golden copy");
}

#[test]
fn duration_masking_touches_only_duration_tokens() {
    assert_eq!(
        mask_durations("ok: materialized 5 facts across 3 relations in 688.526µs; x"),
        "ok: materialized 5 facts across 3 relations in <t>; x"
    );
    assert_eq!(mask_durations("Fixpoint, 103.121µs)"), "Fixpoint, <t>)");
    assert_eq!(
        mask_durations("answers: 12 (epoch 3)"),
        "answers: 12 (epoch 3)"
    );
    assert_eq!(
        mask_durations("1.5ms and 30ns and 2s"),
        "<t> and <t> and <t>"
    );
    // `s` inside an identifier is not a unit boundary.
    assert_eq!(mask_durations("b1(3, 10001)"), "b1(3, 10001)");
}
