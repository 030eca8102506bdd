//! The interactive command language shared by the REPL and the TCP server.
//!
//! One command per line.  Program loading is the only multi-line construct:
//! `.load` opens a block that `.end` closes, with `+`-prefixed lines inside
//! the block feeding the base database and everything else feeding the
//! program source (rules, `edb` declarations, and the `?- ...` query).
//!
//! ```text
//! .strategy optimal
//! .load
//! r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
//! ...
//! +singleleg(madison, chicago, 50, 100).
//! ?- cheaporshort(madison, seattle, Time, Cost).
//! .end
//! ?- cheaporshort(madison, seattle, T, C).
//! +singleleg(chicago, seattle, 60, 40).
//! -singleleg(madison, chicago, 50, 100).
//! .stats
//! .quit
//! ```
//!
//! Every command produces zero or more response lines; the TCP server
//! additionally terminates each response with a lone `.` so clients can
//! frame it.  Shells created from one [`SessionHub`] share the hub's
//! session: a `.load` in one client is visible to all of them, which is how
//! the TCP server exposes one materialization to many connections.

use std::sync::Arc;
use std::time::Instant;

use pcs_core::{Optimizer, Strategy};
use pcs_engine::{parse_facts, Database, UpdateBatch};
use pcs_lang::{parse_program, parse_query};

use crate::hub::{SessionHub, DEFAULT_SESSION};
use crate::session::Session;

/// The response to one command line.
#[derive(Debug, Clone, Default)]
pub struct Response {
    /// Lines to print, in order.
    pub lines: Vec<String>,
    /// Whether the front-end should close this input stream (`.quit`).
    pub quit: bool,
}

impl Response {
    fn say(text: impl Into<String>) -> Response {
        Response {
            lines: vec![text.into()],
            quit: false,
        }
    }

    fn error(text: impl std::fmt::Display) -> Response {
        Response::say(format!("error: {text}"))
    }

    fn empty() -> Response {
        Response::default()
    }
}

/// A program being accumulated between `.load` and `.end`.
#[derive(Default)]
struct LoadBuffer {
    program: String,
    facts: String,
}

/// The stateful command interpreter: one per input stream (REPL process or
/// TCP connection), sharing a [`SessionHub`] with its siblings.
pub struct Shell {
    hub: Arc<SessionHub>,
    /// The hub slot this shell reads and loads into (`.session attach`);
    /// starts at [`DEFAULT_SESSION`], so single-session scripts are
    /// unchanged.
    session_name: String,
    strategy: Strategy,
    loading: Option<LoadBuffer>,
    /// An update batch being accumulated between `.batch` and `.commit`:
    /// while open, `+`/`-` lines collect here instead of each paying their
    /// own incremental pass, and `.commit` applies the whole mixed batch
    /// atomically as one epoch ([`Session::apply`]).
    batch: Option<UpdateBatch>,
}

impl Default for Shell {
    fn default() -> Self {
        Shell::new()
    }
}

impl Shell {
    /// A shell with a private hub (the REPL case).
    pub fn new() -> Shell {
        Shell::with_hub(Arc::new(SessionHub::new()))
    }

    /// A shell sharing an existing hub (the TCP server case).
    pub fn with_hub(hub: Arc<SessionHub>) -> Shell {
        Shell {
            hub,
            session_name: DEFAULT_SESSION.to_string(),
            strategy: Strategy::Optimal,
            loading: None,
            batch: None,
        }
    }

    /// The hub this shell operates on.
    pub fn hub(&self) -> &Arc<SessionHub> {
        &self.hub
    }

    /// The hub slot this shell is attached to.
    pub fn session_name(&self) -> &str {
        &self.session_name
    }

    /// Executes one command line and returns its response.
    pub fn execute(&mut self, line: &str) -> Response {
        if self.loading.is_some() {
            return self.execute_loading(line);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            return Response::empty();
        }
        if let Some(rest) = trimmed.strip_prefix('+') {
            return self.insert(rest);
        }
        if let Some(rest) = trimmed.strip_prefix('-') {
            return self.remove(rest);
        }
        if trimmed.starts_with("?-") || trimmed.starts_with('?') {
            return self.query(trimmed);
        }
        let (command, arg) = match trimmed.split_once(char::is_whitespace) {
            Some((command, arg)) => (command, arg.trim()),
            None => (trimmed, ""),
        };
        match command {
            ".help" => Response {
                lines: HELP.lines().map(str::to_string).collect(),
                quit: false,
            },
            ".strategy" => self.set_strategy(arg),
            ".session" => self.session_command(arg),
            ".echo" => Response::say(arg.to_string()),
            ".load" => {
                self.loading = Some(LoadBuffer::default());
                Response::say(
                    "loading program; finish with .end (`+fact.` lines feed the base database)",
                )
            }
            ".end" => Response::error("no .load in progress"),
            ".retract" => {
                if arg.is_empty() {
                    Response::error("usage: .retract p(a, 1). (equivalent to a leading `-` line)")
                } else {
                    self.remove(arg)
                }
            }
            ".batch" => self.begin_batch(),
            ".commit" => self.commit_batch(),
            ".abort" => self.abort_batch(),
            ".stats" => self.stats(),
            ".metrics" => metrics(arg),
            ".check" => self.check(),
            ".explain" => self.explain(),
            ".facts" => self.facts(arg),
            ".answers" => self.program_answers(),
            ".quit" | ".exit" => Response {
                lines: vec!["bye".to_string()],
                quit: true,
            },
            other => Response::error(format!("unknown command `{other}`; try .help")),
        }
    }

    fn execute_loading(&mut self, line: &str) -> Response {
        let trimmed = line.trim();
        if trimmed == ".end" {
            let buffer = self.loading.take().expect("loading mode has a buffer");
            return self.finish_load(buffer);
        }
        let buffer = self.loading.as_mut().expect("loading mode has a buffer");
        if let Some(fact) = trimmed.strip_prefix('+') {
            buffer.facts.push_str(fact);
            buffer.facts.push('\n');
        } else {
            buffer.program.push_str(line);
            buffer.program.push('\n');
        }
        Response::empty()
    }

    fn finish_load(&mut self, buffer: LoadBuffer) -> Response {
        let program = match parse_program(&buffer.program) {
            Ok(program) => program,
            Err(e) => return Response::error(format!("program: {e}")),
        };
        let mut db = Database::new();
        if let Err(e) = db.add_facts_str(&buffer.facts) {
            return Response::error(format!("facts: {e}"));
        }
        let optimizer = Optimizer::new(program).strategy(self.strategy.clone());
        let start = Instant::now();
        let session = match Session::materialize(&optimizer, &db) {
            Ok(session) => session,
            Err(e) => return Response::error(e),
        };
        let session = match self.hub.install_named(&self.session_name, session) {
            Ok(session) => session,
            Err(e) => return Response::error(e),
        };
        let stats = session.stats();
        Response::say(format!(
            "ok: materialized {} facts ({} constraint facts) across {} relations in {:?}; strategy {}; answers in `{}`",
            stats.total_facts,
            stats.constraint_facts,
            stats.relations.len(),
            start.elapsed(),
            strategy_label(&self.strategy),
            stats.query_pred,
        ))
    }

    fn set_strategy(&mut self, arg: &str) -> Response {
        if arg.is_empty() {
            return Response::say(format!("strategy: {}", strategy_label(&self.strategy)));
        }
        match parse_strategy(arg) {
            Some(strategy) => {
                self.strategy = strategy;
                Response::say(format!(
                    "strategy set to {} (takes effect at the next .load)",
                    strategy_label(&self.strategy)
                ))
            }
            None => Response::error(format!(
                "unknown strategy `{arg}`; expected none, constraint, magic, optimal, or a comma list of pred/qrp/mg"
            )),
        }
    }

    fn session(&self) -> Result<Arc<Session>, Response> {
        match self.hub.named(&self.session_name) {
            Ok(Some(session)) => Ok(session),
            Ok(None) => Err(Response::error("no session loaded; use .load first")),
            Err(e) => Err(Response::error(e)),
        }
    }

    /// The `.session` command: `list` (default), `new <name>`,
    /// `attach <name>`, `drop <name>`.
    fn session_command(&mut self, arg: &str) -> Response {
        let (verb, name) = match arg.split_once(char::is_whitespace) {
            Some((verb, name)) => (verb, name.trim()),
            None => (arg, ""),
        };
        match (verb, name) {
            ("" | "list", "") => {
                let mut lines = Vec::new();
                for (slot, summary) in self.hub.list() {
                    let marker = if slot == self.session_name { "*" } else { " " };
                    let detail = match summary {
                        Some((epoch, facts)) => {
                            format!("epoch {epoch}, {facts} facts")
                        }
                        None => "empty".to_string(),
                    };
                    lines.push(format!("{marker} {slot}: {detail}"));
                }
                Response { lines, quit: false }
            }
            ("new", name) if !name.is_empty() => match self.hub.create(name) {
                Ok(()) => {
                    self.session_name = name.to_string();
                    Response::say(format!(
                        "ok: created session `{name}` and attached (it is empty; .load fills it)"
                    ))
                }
                Err(e) => Response::error(e),
            },
            ("attach", name) if !name.is_empty() => {
                if !self.hub.has_slot(name) {
                    return Response::error(format!(
                        "no session named `{name}`; try .session list"
                    ));
                }
                self.session_name = name.to_string();
                Response::say(format!("ok: attached to session `{name}`"))
            }
            ("drop", name) if !name.is_empty() => match self.hub.drop_session(name) {
                Ok(()) => {
                    if self.session_name == name && !self.hub.has_slot(name) {
                        self.session_name = DEFAULT_SESSION.to_string();
                    }
                    Response::say(format!(
                        "ok: dropped session `{name}` (now attached to `{}`)",
                        self.session_name
                    ))
                }
                Err(e) => Response::error(e),
            },
            _ => Response::error(
                "usage: .session [list] | .session new <name> | .session attach <name> | .session drop <name>",
            ),
        }
    }

    fn query(&mut self, text: &str) -> Response {
        let session = match self.session() {
            Ok(session) => session,
            Err(response) => return response,
        };
        let query = match parse_query(text) {
            Ok(query) => query,
            Err(e) => return Response::error(e),
        };
        match session.query(&query) {
            Ok(answered) => answers_response(answered),
            Err(e) => Response::error(e),
        }
    }

    fn begin_batch(&mut self) -> Response {
        if self.batch.is_some() {
            return Response::error("a .batch is already open; .commit or .abort it first");
        }
        if let Err(response) = self.session() {
            return response;
        }
        self.batch = Some(UpdateBatch::new());
        Response::say("batching updates; `+`/`-` lines accumulate until .commit (or .abort)")
    }

    fn commit_batch(&mut self) -> Response {
        let Some(batch) = self.batch.take() else {
            return Response::error("no .batch in progress");
        };
        if batch.is_empty() {
            return Response::say("ok: empty batch, nothing to apply");
        }
        let session = match self.session() {
            Ok(session) => session,
            Err(response) => return response,
        };
        let (inserts, retracts) = (batch.inserts.len(), batch.retracts.len());
        match session.apply(batch) {
            Ok(outcome) => Response::say(format!(
                "ok: epoch {}; batch of +{}/-{} applied, -{} removed, +{} new facts \
                 ({} derivations over {} iterations, {:?}, {:?}){}",
                outcome.epoch,
                inserts,
                retracts,
                outcome.removed,
                outcome.new_facts,
                outcome.derivations,
                outcome.iterations,
                outcome.termination,
                outcome.elapsed,
                coalesce_suffix(outcome.coalesced),
            )),
            Err(e) => Response::error(e),
        }
    }

    fn abort_batch(&mut self) -> Response {
        match self.batch.take() {
            Some(batch) => Response::say(format!(
                "aborted: dropped +{}/-{} pending updates",
                batch.inserts.len(),
                batch.retracts.len()
            )),
            None => Response::error("no .batch in progress"),
        }
    }

    /// Parses one `+`/`-` line's facts into the open batch, reporting the
    /// pending totals (parse errors surface immediately; nothing of an
    /// unparsable line enters the batch).
    fn buffer_update(&mut self, text: &str, retract: bool) -> Response {
        let facts = match parse_facts(text) {
            Ok(facts) => facts,
            Err(e) => return Response::error(e),
        };
        let batch = self.batch.as_mut().expect("buffer_update requires a batch");
        if retract {
            batch.retracts.extend(facts);
        } else {
            batch.inserts.extend(facts);
        }
        Response::say(format!(
            "batched: +{}/-{} pending",
            batch.inserts.len(),
            batch.retracts.len()
        ))
    }

    fn insert(&mut self, text: &str) -> Response {
        if self.batch.is_some() {
            return self.buffer_update(text, false);
        }
        let session = match self.session() {
            Ok(session) => session,
            Err(response) => return response,
        };
        match session.insert_str(text) {
            Ok(outcome) => Response::say(format!(
                "ok: epoch {}; +{} inserted, +{} new facts ({} derivations over {} iterations, {:?}, {:?}){}",
                outcome.epoch,
                outcome.inserted,
                outcome.new_facts,
                outcome.derivations,
                outcome.iterations,
                outcome.termination,
                outcome.elapsed,
                coalesce_suffix(outcome.coalesced),
            )),
            Err(e) => Response::error(e),
        }
    }

    fn remove(&mut self, text: &str) -> Response {
        if self.batch.is_some() {
            return self.buffer_update(text, true);
        }
        let session = match self.session() {
            Ok(session) => session,
            Err(response) => return response,
        };
        match session.remove_str(text) {
            Ok(outcome) => Response::say(format!(
                "ok: epoch {}; -{} removed, +{} re-derived ({} derivations over {} iterations, {:?}, {:?}){}",
                outcome.epoch,
                outcome.removed,
                outcome.new_facts,
                outcome.derivations,
                outcome.iterations,
                outcome.termination,
                outcome.elapsed,
                coalesce_suffix(outcome.coalesced),
            )),
            Err(e) => Response::error(e),
        }
    }

    fn stats(&mut self) -> Response {
        let session = match self.session() {
            Ok(session) => session,
            Err(response) => return response,
        };
        let stats = session.stats();
        let mut lines = vec![
            format!("strategy: {}", strategy_label(&self.strategy)),
            format!("epoch: {}", stats.epoch),
            format!(
                "facts: {} total, {} constraint facts, {} relations",
                stats.total_facts,
                stats.constraint_facts,
                stats.relations.len()
            ),
            format!("termination: {:?}", stats.termination),
            format!("query predicate: {}", stats.query_pred),
            format!("update queue depth: {}", stats.update_queue_depth),
            format!("epoch lag: {}", stats.epoch_lag),
        ];
        for (pred, count) in &stats.relations {
            lines.push(format!("  {pred}: {count}"));
        }
        Response { lines, quit: false }
    }

    fn check(&mut self) -> Response {
        let session = match self.session() {
            Ok(session) => session,
            Err(response) => return response,
        };
        let analysis = session.check();
        let mut lines: Vec<String> = analysis.render().lines().map(str::to_string).collect();
        if !analysis.dead_rules.is_empty() {
            lines.push(format!(
                "dead rules (prunable): {}",
                analysis
                    .dead_rules
                    .iter()
                    .map(|i| format!("#{}", i + 1))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        Response { lines, quit: false }
    }

    fn explain(&mut self) -> Response {
        let session = match self.session() {
            Ok(session) => session,
            Err(response) => return response,
        };
        Response {
            lines: session.explain(),
            quit: false,
        }
    }

    fn facts(&mut self, arg: &str) -> Response {
        if arg.is_empty() {
            return Response::error(".facts needs a predicate name");
        }
        let session = match self.session() {
            Ok(session) => session,
            Err(response) => return response,
        };
        let pred = pcs_lang::Pred::new(arg);
        let facts = match session.facts(&pred) {
            Ok(facts) => facts,
            Err(e) => return Response::error(e),
        };
        let mut rendered: Vec<String> = facts.iter().map(|fact| format!("  {fact}")).collect();
        rendered.sort();
        let mut lines = vec![format!("{}: {} facts", pred, rendered.len())];
        lines.extend(rendered);
        Response { lines, quit: false }
    }

    fn program_answers(&mut self) -> Response {
        let session = match self.session() {
            Ok(session) => session,
            Err(response) => return response,
        };
        match session.program_answers() {
            Ok(answered) => answers_response(answered),
            Err(e) => Response::error(e),
        }
    }
}

/// The suffix update responses carry when server-side coalescing folded
/// more than one queued batch into the reported epoch; solo updates (the
/// common, uncontended case) keep their historical message byte-for-byte.
fn coalesce_suffix(coalesced: usize) -> String {
    if coalesced > 1 {
        format!("; coalesced {coalesced} batches")
    } else {
        String::new()
    }
}

/// Renders the process-wide telemetry registry (`.metrics`): the human
/// table by default, the Prometheus text exposition with `.metrics prom`.
/// The registry is shared by every shell and session of the process, so the
/// command needs no loaded session.
fn metrics(arg: &str) -> Response {
    let rendered = match arg {
        "" | "table" => pcs_telemetry::render_table(),
        "prom" | "prometheus" => pcs_telemetry::render_prometheus(),
        other => {
            return Response::error(format!(
                "unknown .metrics mode `{other}`; expected no argument (table) or `prom`"
            ))
        }
    };
    Response {
        lines: rendered.lines().map(str::to_string).collect(),
        quit: false,
    }
}

/// Renders an answered query: a `answers: N (predicate P, epoch E)` header
/// followed by the matching facts, sorted for stable output.
fn answers_response(
    (resolved, snapshot, answers): (
        pcs_lang::Query,
        crate::session::Snapshot,
        Vec<pcs_engine::Fact>,
    ),
) -> Response {
    let mut lines = vec![format!(
        "answers: {} (predicate {}, epoch {})",
        answers.len(),
        resolved.literals[0].predicate,
        snapshot.epoch()
    )];
    let mut rendered: Vec<String> = answers.iter().map(|fact| format!("  {fact}")).collect();
    rendered.sort();
    lines.extend(rendered);
    Response { lines, quit: false }
}

/// Parses a strategy name: `none`, `constraint`, `magic`, `optimal`, or a
/// comma-separated sequence of `pred`/`qrp`/`mg` steps (Section 7 orderings).
pub fn parse_strategy(name: &str) -> Option<Strategy> {
    use pcs_core::transform::Step;
    match name {
        "none" | "original" => Some(Strategy::None),
        "constraint" | "constraint-rewrite" | "rewrite" => Some(Strategy::ConstraintRewrite),
        "magic" => Some(Strategy::MagicOnly),
        "optimal" => Some(Strategy::Optimal),
        sequence => {
            let steps: Option<Vec<Step>> = sequence
                .split(',')
                .map(|step| match step.trim() {
                    "pred" => Some(Step::Pred),
                    "qrp" => Some(Step::Qrp),
                    "mg" => Some(Step::Magic),
                    _ => None,
                })
                .collect();
            steps.filter(|s| !s.is_empty()).map(Strategy::Sequence)
        }
    }
}

/// A short, stable label for a strategy (shown by `.strategy` and `.stats`).
pub fn strategy_label(strategy: &Strategy) -> String {
    use pcs_core::transform::Step;
    match strategy {
        Strategy::None => "none".to_string(),
        Strategy::ConstraintRewrite => "constraint-rewrite (pred,qrp)".to_string(),
        Strategy::MagicOnly => "magic".to_string(),
        Strategy::Optimal => "optimal (pred,qrp,mg)".to_string(),
        Strategy::Sequence(steps) => steps
            .iter()
            .map(|step| match step {
                Step::Pred => "pred",
                Step::Qrp => "qrp",
                Step::Magic => "mg",
            })
            .collect::<Vec<_>>()
            .join(","),
    }
}

/// The canonical, machine-readable token of a strategy, chosen so that
/// `parse_strategy(strategy_token(s))` reproduces `s`.  This is the form
/// persisted in snapshot headers ([`crate::wal`]); [`strategy_label`] is the
/// human form and does *not* round-trip.
pub fn strategy_token(strategy: &Strategy) -> String {
    use pcs_core::transform::Step;
    match strategy {
        Strategy::None => "none".to_string(),
        Strategy::ConstraintRewrite => "constraint".to_string(),
        Strategy::MagicOnly => "magic".to_string(),
        Strategy::Optimal => "optimal".to_string(),
        Strategy::Sequence(steps) => steps
            .iter()
            .map(|step| match step {
                Step::Pred => "pred",
                Step::Qrp => "qrp",
                Step::Magic => "mg",
            })
            .collect::<Vec<_>>()
            .join(","),
    }
}

const HELP: &str = "commands:
  .load              start a program block; finish with .end
                     (inside the block, `+fact.` lines feed the base database;
                     they name EDB predicates, which no rule defines)
  .strategy [name]   show or set the rewriting strategy for the next .load:
                     none, constraint, magic, optimal, or pred/qrp/mg lists
  .session           list the named sessions of this server (`*` = attached)
  .session new N     create an empty session named N and attach to it
  .session attach N  switch this connection to session N
  .session drop N    drop session N (the default session is emptied, not
                     removed; durable sessions lose their on-disk data)
  .echo <text>       write <text> back verbatim (wire-framing check)
  ?- q(a, X).        answer a query from the materialization (no evaluation)
  +p(a, 1).          insert EDB facts; resumes the fixpoint incrementally
  -p(a, 1).          retract EDB facts; DRed delete/re-derive incrementally
  .retract p(a, 1).  same as a leading `-` line
  .batch             start collecting `+`/`-` lines into one atomic batch
  .commit            apply the open batch in a single incremental pass/epoch
  .abort             drop the open batch without applying it
  .answers           answer the loaded program's own query
  .facts <pred>      list the stored facts of one predicate
  .stats             materialization statistics
  .metrics [prom]    process-wide telemetry (counters, phase timers, latency
                     histograms); `prom` renders Prometheus text exposition
  .check             static analysis of the loaded program (safety,
                     satisfiability, dead rules, reachability)
  .explain           the compiled join plan of every rule body, with
                     per-literal cost annotations
  .help              this text
  .quit              close this session";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(shell: &mut Shell, script: &str) -> Vec<String> {
        let mut lines = Vec::new();
        for line in script.lines() {
            let response = shell.execute(line);
            lines.extend(response.lines);
        }
        lines
    }

    const FLIGHTS: &str = "\
.strategy constraint
.load
r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
r3: flight(S, D, T, C) :- singleleg(S, D, T, C), T > 0, C > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), T = T1 + T2 + 30, C = C1 + C2.
+singleleg(madison, chicago, 50, 100).
+singleleg(chicago, seattle, 60, 40).
?- cheaporshort(madison, seattle, Time, Cost).
.end
";

    #[test]
    fn scripted_load_query_insert_requery() {
        let mut shell = Shell::new();
        let out = run(&mut shell, FLIGHTS);
        assert!(
            out.iter().any(|l| l.starts_with("ok: materialized")),
            "{out:?}"
        );

        // One composed madison→seattle flight (140, 140) qualifies.
        let out = run(&mut shell, "?- cheaporshort(madison, seattle, T, C).");
        assert!(out[0].starts_with("answers: 1"), "{out:?}");

        // A new direct leg is cheap AND short: one more answer.
        let out = run(&mut shell, "+singleleg(madison, seattle, 45, 30).");
        assert!(out[0].starts_with("ok: epoch 1"), "{out:?}");
        let out = run(&mut shell, "?- cheaporshort(madison, seattle, T, C).");
        assert!(out[0].starts_with("answers: 2"), "{out:?}");
        assert!(out[0].contains("epoch 1"), "{out:?}");

        let out = run(&mut shell, ".stats");
        assert!(out.iter().any(|l| l.starts_with("epoch: 1")), "{out:?}");

        let out = run(&mut shell, ".facts singleleg");
        assert!(out[0].starts_with("singleleg: 3 facts"), "{out:?}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut shell = Shell::new();
        assert!(run(&mut shell, "?- q(X).")[0].contains("no session loaded"));
        assert!(run(&mut shell, ".strategy bogus")[0].contains("unknown strategy"));
        assert!(run(&mut shell, ".end")[0].contains("no .load"));
        assert!(run(&mut shell, ".nonsense")[0].contains("unknown command"));
        let mut shell = Shell::new();
        run(&mut shell, FLIGHTS);
        assert!(run(&mut shell, "+flight(a, b, 1, 1).")[0].contains("not an EDB"));
        assert!(run(&mut shell, "?- nosuch(X).")[0].contains("unknown predicate"));
        assert!(run(&mut shell, "+nonsense((")[0].starts_with("error:"));
    }

    #[test]
    fn facts_of_a_predicate_the_materialization_does_not_hold_are_an_error() {
        let mut shell = Shell::new();
        run(
            &mut shell,
            &FLIGHTS.replace(".strategy constraint", ".strategy optimal"),
        );
        // Under `optimal` the flight facts live in `flight_bbff`.
        for pred in ["nosuch", "flight"] {
            assert_eq!(
                run(&mut shell, &format!(".facts {pred}")),
                [format!(
                    "error: unknown predicate `{pred}` in the materialization"
                )]
            );
        }
        let out = run(&mut shell, ".facts flight_bbff");
        assert!(out[0].starts_with("flight_bbff: "), "{out:?}");
    }

    #[test]
    fn check_reports_analysis_findings() {
        let mut shell = Shell::new();
        assert!(run(&mut shell, ".check")[0].contains("no session loaded"));
        run(&mut shell, FLIGHTS);
        let out = run(&mut shell, ".check");
        assert!(out.iter().any(|l| l == "no findings"), "{out:?}");

        // A program with an unsatisfiable rule and an unreachable predicate.
        let out = run(
            &mut shell,
            ".load\n\
             q(X) :- e(X), X > 3, X < 2.\n\
             q(X) :- e(X).\n\
             orphan(X) :- e(X).\n\
             +e(1).\n\
             ?- q(U).\n\
             .end\n\
             .check",
        );
        assert!(
            out.iter().any(|l| l.contains("unsatisfiable-rule")),
            "{out:?}"
        );
        assert!(
            out.iter().any(|l| l.contains("unreachable-from-query")),
            "{out:?}"
        );
        assert!(
            out.iter()
                .any(|l| l.starts_with("dead rules (prunable): #1")),
            "{out:?}"
        );
    }

    #[test]
    fn batched_mixed_updates_apply_as_one_epoch() {
        let mut shell = Shell::new();
        run(&mut shell, FLIGHTS);
        let out = run(
            &mut shell,
            ".batch\n\
             +singleleg(madison, seattle, 45, 30).\n\
             -singleleg(madison, chicago, 50, 100).\n\
             .commit",
        );
        assert!(
            out.iter().any(|l| l.contains("batching updates")),
            "{out:?}"
        );
        assert!(out.iter().any(|l| l == "batched: +1/-0 pending"), "{out:?}");
        assert!(out.iter().any(|l| l == "batched: +1/-1 pending"), "{out:?}");
        // The whole mixed batch lands in one epoch, not one per line.
        assert!(
            out.iter()
                .any(|l| l.starts_with("ok: epoch 1; batch of +1/-1")),
            "{out:?}"
        );
        // The retracted leg kills the composed madison→seattle flight; the
        // inserted direct leg qualifies on its own.
        let out = run(&mut shell, "?- cheaporshort(madison, seattle, T, C).");
        assert!(out[0].starts_with("answers: 1"), "{out:?}");
        assert!(out[0].contains("epoch 1"), "{out:?}");
    }

    #[test]
    fn batch_command_errors_and_abort() {
        let mut shell = Shell::new();
        assert!(run(&mut shell, ".commit")[0].contains("no .batch"));
        assert!(run(&mut shell, ".abort")[0].contains("no .batch"));
        assert!(run(&mut shell, ".batch")[0].contains("no session loaded"));
        run(&mut shell, FLIGHTS);
        run(&mut shell, ".batch");
        assert!(run(&mut shell, ".batch")[0].contains("already open"));
        assert!(run(&mut shell, "+nonsense((")[0].starts_with("error:"));
        run(&mut shell, "+singleleg(a, b, 1, 1).");
        let out = run(&mut shell, ".abort");
        assert!(out[0].contains("dropped +1/-0"), "{out:?}");
        // The aborted batch changed nothing.
        let out = run(&mut shell, ".stats");
        assert!(out.iter().any(|l| l.starts_with("epoch: 0")), "{out:?}");
        // A refused batch (retracting an absent fact) also changes nothing.
        run(&mut shell, ".batch");
        run(&mut shell, "-singleleg(nope, nope, 1, 1).");
        assert!(run(&mut shell, ".commit")[0].contains("not in the extensional database"));
        let out = run(&mut shell, ".stats");
        assert!(out.iter().any(|l| l.starts_with("epoch: 0")), "{out:?}");
    }

    #[test]
    fn strategies_parse_and_label() {
        for name in [
            "none",
            "constraint",
            "magic",
            "optimal",
            "pred,qrp,mg",
            "mg,qrp",
        ] {
            let strategy = parse_strategy(name).unwrap();
            assert!(!strategy_label(&strategy).is_empty());
            // The machine token round-trips back to the same strategy —
            // the property snapshot recovery depends on.
            let token = strategy_token(&strategy);
            assert_eq!(parse_strategy(&token), Some(strategy), "{name} -> {token}");
        }
        assert!(parse_strategy("definitely-not").is_none());
        assert!(parse_strategy("").is_none());
    }

    #[test]
    fn echo_writes_the_argument_back() {
        let mut shell = Shell::new();
        assert_eq!(
            shell.execute(".echo hello there").lines,
            vec!["hello there"]
        );
        // The degenerate payload the framing test cares about: a lone dot.
        assert_eq!(shell.execute(".echo .").lines, vec!["."]);
    }

    #[test]
    fn named_sessions_isolate_and_share_materializations() {
        let hub = Arc::new(SessionHub::new());
        let mut shell = Shell::with_hub(hub.clone());
        run(&mut shell, FLIGHTS);
        assert_eq!(shell.session_name(), "default");

        // A new session is empty and independent of the default one.
        let out = run(&mut shell, ".session new side");
        assert!(out[0].starts_with("ok: created session `side`"), "{out:?}");
        assert!(run(&mut shell, "?- cheaporshort(a, b, T, C).")[0].contains("no session loaded"));
        run(&mut shell, FLIGHTS);
        run(&mut shell, "+singleleg(madison, seattle, 45, 30).");
        let out = run(&mut shell, "?- cheaporshort(madison, seattle, T, C).");
        assert!(out[0].starts_with("answers: 2"), "{out:?}");

        // Reattaching to the default session sees its unmodified state.
        run(&mut shell, ".session attach default");
        let out = run(&mut shell, "?- cheaporshort(madison, seattle, T, C).");
        assert!(out[0].starts_with("answers: 1"), "{out:?}");

        // Another shell on the same hub can attach to the named session.
        let mut other = Shell::with_hub(hub);
        run(&mut other, ".session attach side");
        let out = run(&mut other, "?- cheaporshort(madison, seattle, T, C).");
        assert!(out[0].starts_with("answers: 2"), "{out:?}");

        // .session list marks the attachment point.
        let out = run(&mut other, ".session list");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(
            out.iter().any(|l| l.starts_with("  default: epoch 0")),
            "{out:?}"
        );
        assert!(
            out.iter().any(|l| l.starts_with("* side: epoch 1")),
            "{out:?}"
        );

        // Dropping the attached session falls back to the default slot.
        let out = run(&mut other, ".session drop side");
        assert!(out[0].contains("now attached to `default`"), "{out:?}");
        assert!(run(&mut other, ".session attach side")[0].contains("no session named"));
    }

    #[test]
    fn session_command_errors() {
        let mut shell = Shell::new();
        assert!(run(&mut shell, ".session bogus")[0].contains("usage:"));
        assert!(run(&mut shell, ".session new")[0].contains("usage:"));
        assert!(run(&mut shell, ".session attach nowhere")[0].contains("no session named"));
        assert!(run(&mut shell, ".session new bad name")[0].contains("invalid session name"));
        run(&mut shell, ".session new twice");
        assert!(run(&mut shell, ".session new twice")[0].contains("already exists"));
    }

    #[test]
    fn hubs_share_sessions_across_shells() {
        let hub = Arc::new(SessionHub::new());
        let mut loader = Shell::with_hub(hub.clone());
        run(&mut loader, FLIGHTS);
        let mut reader = Shell::with_hub(hub);
        let out = run(&mut reader, "?- cheaporshort(madison, seattle, T, C).");
        assert!(out[0].starts_with("answers: 1"), "{out:?}");
    }

    #[test]
    fn quit_sets_the_flag() {
        let mut shell = Shell::new();
        assert!(shell.execute(".quit").quit);
        assert!(!shell.execute(".help").quit);
    }
}
