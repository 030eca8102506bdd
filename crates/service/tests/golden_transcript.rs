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
        "error: `c` is not an EDB predicate, one the program reads and no rule defines (write \
         a rule-defined predicate's facts as rules of the program, as fibonacci.pcs does with \
         r1 and r2)",
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
    // defines a variable from) — all deterministic, no durations.  One
    // `admit` line per EDB predicate follows: the check a base fact passes
    // to enter its relation, one disjunct per body occurrence.
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
        "admit b: b($1) {check -$1 <= 0}",
        "admit c: c($1, $2) {check -$1 <= 0}",
    ];
    assert_eq!(actual, expected, "transcript diverged from the golden copy");
}

#[test]
fn golden_a_retargeted_flights_session() {
    // Under the constraint rewrite `cheaporshort` only copies `flight`, whose
    // rules carry `T <= 240 ∨ C <= 150`: the query reads `flight`, answers
    // print under it, and `.explain` opens with the `answer` line.
    // `.facts cheaporshort` lists what the dropped relation would hold.  A
    // base fact on a rule-defined predicate falls outside every rewriting's
    // proof, so the second `.load` is refused, naming the first such
    // predicate, and the first session serves on.
    let rules = [
        "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.",
        "r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.",
        "r3: flight(S, D, T, C) :- singleleg(S, D, T, C), T > 0, C > 0.",
        "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
         T = T1 + T2 + 30, C = C1 + C2.",
    ];
    let mut script = vec![".strategy constraint", ".load"];
    script.extend(rules);
    script.extend([
        "+singleleg(b, c, 10, 10).",
        "+singleleg(c, d, 300, 100).",
        "?- cheaporshort(S, D, T, C).",
        ".end",
        "?- cheaporshort(b, D, T, C).",
        ".facts cheaporshort",
        ".explain",
        ".load",
    ]);
    script.extend(rules);
    script.extend([
        "+singleleg(b, c, 10, 10).",
        "+flight(a, b, 500, 500).",
        "+cheaporshort(x, y, 1, 1).",
        "?- cheaporshort(S, D, T, C).",
        ".end",
        "?- cheaporshort(S, D, T, C).",
    ]);
    let mut shell = Shell::new();
    let actual = transcript(&mut shell, &script);
    let loading = "loading program; finish with .end (`+fact.` lines feed the base database)";
    let mut expected = vec![
        ">>> .strategy constraint".to_string(),
        "strategy set to constraint-rewrite (pred,qrp) (takes effect at the next .load)"
            .to_string(),
        ">>> .load".to_string(),
        loading.to_string(),
    ];
    let echoed = |lines: &[&str]| lines.iter().map(|l| format!(">>> {l}")).collect::<Vec<_>>();
    expected.extend(echoed(&rules));
    expected.extend(
        [
            ">>> +singleleg(b, c, 10, 10).",
            ">>> +singleleg(c, d, 300, 100).",
            ">>> ?- cheaporshort(S, D, T, C).",
            ">>> .end",
            "ok: materialized 5 facts (0 constraint facts) across 2 relations in <t>; strategy \
             constraint-rewrite (pred,qrp); answers in `flight`",
            ">>> ?- cheaporshort(b, D, T, C).",
            "answers: 2 (predicate flight, epoch 0)",
            "  flight(b, c, 10, 10)",
            "  flight(b, d, 340, 110)",
            ">>> .facts cheaporshort",
            "cheaporshort: 3 facts",
            "  cheaporshort(b, c, 10, 10)",
            "  cheaporshort(b, d, 340, 110)",
            "  cheaporshort(c, d, 300, 100)",
            ">>> .explain",
            "answer cheaporshort(S, D, T, C) from flight(S, D, T, C)",
            "plan for rule r3 with copies r3_2: r3: flight(S, D, T, C) :- -T < 0, -C < 0, \
             T <= 240, singleleg(S, D, T, C).",
            "  delta singleleg@1: singleleg@1 delta scan [bound 0/4] {bind S, D, T, C; check -T < 0; \
             check -C < 0; check T <= 240 [r3]; check C <= 150 [r3_2]}",
            "plan for rule r4 with copies r4_2: r4: flight(S, D, T, C) :- T - T1 - T2 = 30, \
             C - C1 - C2 = 0, -T1 < 0, -C1 < 0, -T2 < 0, -C2 < 0, T <= 240, \
             flight(S, D1, T1, C1), flight(D1, D, T2, C2).",
            "  delta flight@1: flight@1 delta scan [bound 0/4] {bind S, D1, T1, C1; check -T1 < 0; \
             check -C1 < 0} -> flight@2 known probe $1 [bound 1/4] {bind D, T2, C2; \
             T := T1 + T2 + 30; C := C1 + C2; check -T2 < 0; check -C2 < 0; check T <= 240 [r4]; \
             check C <= 150 [r4_2]}",
            "  delta flight@2: flight@2 delta scan [bound 0/4] {bind D1, D, T2, C2; check -T2 < 0; \
             check -C2 < 0} -> flight@1 stable probe $2 [bound 1/4] {bind S, T1, C1; \
             T := T1 + T2 + 30; C := C1 + C2; check -T1 < 0; check -C1 < 0; check T <= 240 [r4]; \
             check C <= 150 [r4_2]}",
            "admit singleleg: singleleg($1, $2, $3, $4) {check -$3 < 0; check -$4 < 0; \
             check $3 <= 240} ∨ singleleg($1, $2, $3, $4) {check -$3 < 0; check -$4 < 0; \
             check $4 <= 150}",
            ">>> .load",
            loading,
        ]
        .map(String::from),
    );
    expected.extend(echoed(&rules));
    expected.extend(
        [
            ">>> +singleleg(b, c, 10, 10).",
            ">>> +flight(a, b, 500, 500).",
            ">>> +cheaporshort(x, y, 1, 1).",
            ">>> ?- cheaporshort(S, D, T, C).",
            ">>> .end",
            "error: `cheaporshort` is not an EDB predicate, one the program reads and no rule \
             defines (write a rule-defined predicate's facts as rules of the program, as \
             fibonacci.pcs does with r1 and r2)",
            ">>> ?- cheaporshort(S, D, T, C).",
            "answers: 3 (predicate flight, epoch 0)",
            "  flight(b, c, 10, 10)",
            "  flight(b, d, 340, 110)",
            "  flight(c, d, 300, 100)",
        ]
        .map(String::from),
    );
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
