//! The traced run: every layer measured from outside, on the workload's own
//! inputs, by wrapping calls into its public functions in spans.
//!
//! The run is in-process and single-client (only the coalescing measurement
//! uses two threads).  It visits the layers bottom-up — language, analysis
//! and rewriting, plans, fixpoint, relations, constraints, session, WAL,
//! shell, server, hub — so every workload reports every per-layer metric,
//! measured on that workload's program, EDB, query mix and update pool.
//!
//! A span carries the name of the metric it feeds; the metric is the median
//! duration of its spans.  Spans cannot see inside the program, so a layer's
//! self time is derived: its span minus separately measured calls, on the
//! same inputs, into the layers beneath it (`transform.rewrite_s`,
//! `service.session.apply_self_s`, `service.shell.query_self_s`).

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pcs_constraints::{Conjunction, Var};
use pcs_core::{Optimized, Optimizer, Strategy};
use pcs_engine::{
    compile_plans, parse_facts, Database, EvalResult, Fact, Relation, UpdateBatch, Value, Window,
};
use pcs_lang::{parse_query, parse_rule, Query};
use pcs_service::wal::{
    recover_dir, render_facts, write_snapshot, SnapshotFile, SNAPSHOT_FILE, WAL_FILE,
};
use pcs_service::{Persistence, Server, ServerOptions, Session, SessionHub, SessionLimits, Shell};
use pcs_telemetry::{counter, Counter, TelemetryMode};

use crate::batch::{optimizer, parsed, pipeline, Outcome};
use crate::scenario::{Rng, Scenario, Shape, Workload, UPDATE_POOLS};
use crate::serve::scratch_dir;
use crate::span::Tracer;
use crate::stats::median;
use crate::wire::{answer_count, refused, Client};
use crate::Metric;

/// Queries of the mix each query-path layer is timed on.
const QUERY_SAMPLE: usize = 128;
/// Insert/retract pairs sent through the shell, and again over the wire.
/// Fixed, because they stay in the WAL that the hub recovery replays.
const WIRE_UPDATES: usize = 8;
/// WAL records appended and then read back: one snapshot interval's worth.
/// Fixed, so that the recovery read replays the same log on every commit.
const WAL_RECORDS: usize = 64;

/// The spans, checks and metrics of a traced run.
struct Layers {
    t: Tracer,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Time a measurement may use beyond its minimum number of repetitions.
    budget: Duration,
}

impl Layers {
    /// Counts a correctness check or an operation that must not be refused.
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Calls `f(self, i)` for `i = 0, 1, …`: at least `min` times, then until
    /// the budget is spent or `max` calls are made.
    fn repeat(&mut self, min: usize, max: usize, mut f: impl FnMut(&mut Layers, usize)) {
        let start = Instant::now();
        for i in 0..max {
            if i >= min && start.elapsed() >= self.budget {
                break;
            }
            f(self, i);
        }
    }

    fn value(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The median duration of the spans called `name`, as the metric `name`.
    fn seconds(&mut self, name: &'static str) -> f64 {
        let median = self.t.median_s(name);
        self.value(name, median, "s");
        median
    }

    /// The median duration of the spans called `span`, each of which covered
    /// `items` items, as nanoseconds per item.
    fn ns_per_item(&mut self, name: &'static str, span: &str, items: usize) {
        let ns = self.t.median_s(span) / items as f64 * 1e9;
        self.value(name, ns, "ns");
    }
}

pub fn run(
    workload: &Workload,
    strategy: &Strategy,
    shape: Shape,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> io::Result<(u64, u64, Vec<Metric>)> {
    let mut l = Layers {
        t: Tracer::new(true),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        // Eight measurements below repeat for as long as the budget lasts.
        budget: Duration::from_secs_f64(seconds / 8.0),
    };
    let scenario = Scenario::generate(shape, seed);
    let queries = &scenario.queries[..QUERY_SAMPLE];
    let fresh: Vec<Fact> = scenario.updates[0]
        .iter()
        .map(|(fact, _)| {
            parse_facts(fact)
                .expect("a generated fact parses")
                .remove(0)
        })
        .collect();
    let (program, db) = parsed(&scenario.program, &scenario.edb);
    let optimizer = optimizer(program, strategy, threads);
    let optimized = optimizer.optimize().expect("the program optimizes");

    let first = whole_pipeline(&mut l, &scenario, strategy, threads);
    let parsed = front_end(&mut l, queries, &optimizer, &optimized);
    let result = fixpoint_counters(&mut l, &optimized, &db, &first);
    incremental_engine(&mut l, &optimized, &db, &result, &fresh, &first);
    relations(&mut l, &db, &result, seed);
    constraints(&mut l, seed);
    let session = session_layer(&mut l, &optimizer, &db, &parsed, &fresh, &scenario, &first)?;

    let dir = scratch_dir(&format!("trace-{}", workload.name))?;
    let served = (|| {
        wal(&mut l, &dir.join("wal"), workload, &scenario, &db, &fresh)?;
        durable_front_ends(
            &mut l,
            &dir.join("data"),
            session,
            queries,
            &scenario,
            &first,
        )
    })();
    let trace_path = dir.with_file_name(format!("trace-{}.json", workload.name));
    std::fs::write(&trace_path, l.t.to_json())?;
    std::fs::remove_dir_all(&dir)?;
    served?;

    println!(
        "spans wrap public calls from outside; self times (transform.rewrite_s, \
         service.session.apply_self_s, service.shell.query_self_s) are a span minus separately \
         measured same-input calls beneath it, not nested tracing"
    );
    println!("spans written to {}", trace_path.display());
    Ok((l.attempted, l.failed, l.metrics))
}

/// The whole pipeline, traced and untraced in turn; its spans give the
/// language and fixpoint metrics, the pair gives the tracing overhead.
fn whole_pipeline(
    l: &mut Layers,
    scenario: &Scenario,
    strategy: &Strategy,
    threads: usize,
) -> Outcome {
    let mut untraced = Tracer::new(false);
    let first = pipeline(scenario, strategy, threads, &mut untraced);
    let mut untraced_s = Vec::new();
    l.repeat(3, 16, |l, _| {
        let outcome = pipeline(scenario, strategy, threads, &mut l.t);
        l.check(outcome == first);
        let start = Instant::now();
        let outcome = pipeline(scenario, strategy, threads, &mut untraced);
        untraced_s.push(start.elapsed().as_secs_f64());
        l.check(outcome == first);
    });
    l.seconds("lang.parse_program_s");
    l.seconds("lang.parse_facts_s");
    l.value("lang.facts_parsed", scenario.edb_facts as f64, "count");
    let fixpoint_s = l.seconds("engine.eval.fixpoint_s");
    l.value("engine.eval.derivations", first.derivations as f64, "count");
    l.value("engine.eval.iterations", first.iterations as f64, "count");
    l.value("engine.eval.facts_total", first.facts as f64, "count");
    l.value(
        "engine.eval.derivations_per_s",
        first.derivations as f64 / fixpoint_s,
        "1/s",
    );
    // New facts per derivation: the share of join work that was not wasted.
    let useful = first.new_facts as f64 / first.derivations.max(1) as f64;
    l.value("engine.eval.useful_ratio", useful, "ratio");
    let overhead = (l.t.median_s("pipeline") / median(&untraced_s) - 1.0) * 100.0;
    l.value("bench.trace_overhead_pct", overhead, "%");
    first
}

/// Query parsing, analysis, rewriting and plan compilation.
fn front_end(
    l: &mut Layers,
    queries: &[String],
    optimizer: &Optimizer,
    optimized: &Optimized,
) -> Vec<Query> {
    let parsed = queries
        .iter()
        .map(|text| {
            l.t.leaf("lang.parse_query_s", || parse_query(text))
                .expect("a generated query parses")
        })
        .collect();
    l.repeat(3, 64, |l, _| {
        black_box(l.t.leaf("analysis.analyze_s", || optimizer.analyze()));
    });
    let flat = optimized.program.flattened();
    let mut plans = 0;
    l.repeat(3, 64, |l, _| {
        let compiled = l.t.leaf("engine.plan.compile_s", || {
            compile_plans(&flat, &optimized.eval.hints)
        });
        plans = compiled
            .planned_rules()
            .iter()
            .map(|&rule| compiled.plans_for(rule).len())
            .sum();
    });
    l.seconds("lang.parse_query_s");
    let analyze_s = l.seconds("analysis.analyze_s");
    // `optimize` analyzes, then rewrites: the pipeline's span minus analysis.
    let rewrite_s = (l.t.median_s("core.optimize_s") - analyze_s).max(0.0);
    l.value("transform.rewrite_s", rewrite_s, "s");
    l.value(
        "transform.rules_out",
        optimized.program.rules().len() as f64,
        "count",
    );
    l.seconds("engine.plan.compile_s");
    l.value("engine.plan.plans", plans as f64, "count");
    parsed
}

/// One fixpoint with telemetry on, for the engine's own counters.  Returns
/// the materialization the later sections update and query.
fn fixpoint_counters(
    l: &mut Layers,
    optimized: &Optimized,
    db: &Database,
    first: &Outcome,
) -> EvalResult {
    pcs_telemetry::set_mode(TelemetryMode::On);
    pcs_telemetry::reset();
    let result = optimized.evaluator().evaluate(db);
    pcs_telemetry::flush_thread();
    pcs_telemetry::set_mode(TelemetryMode::Off);
    let (hits, misses) = (counter(Counter::ProbeHits), counter(Counter::ProbeMisses));
    l.value(
        "engine.eval.index_probes",
        counter(Counter::IndexProbes) as f64,
        "count",
    );
    l.value(
        "engine.eval.probe_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    l.value(
        "engine.eval.subsumption_checks",
        counter(Counter::SubsumptionChecks) as f64,
        "count",
    );
    l.value(
        "constraints.fm_sat_calls",
        counter(Counter::FmSatCalls) as f64,
        "count",
    );
    l.check(result.total_facts() == first.facts);
    result
}

/// Resume and retract, with the clones every published epoch pays today.
/// Each round inserts one fresh fact into a clone of the materialization and
/// retracts it again; the session section repeats the same updates.
fn incremental_engine(
    l: &mut Layers,
    optimized: &Optimized,
    db: &Database,
    result: &EvalResult,
    fresh: &[Fact],
    first: &Outcome,
) {
    let evaluator = optimized.evaluator();
    let mut removed = Vec::new();
    l.repeat(3, fresh.len(), |l, i| {
        let relations =
            l.t.leaf("engine.relation.clone_s", || result.relations.clone());
        let surviving = l.t.leaf("engine.database.clone_s", || db.clone());
        let batch = UpdateBatch::inserting(vec![fresh[i].clone()]);
        let grown = l.t.leaf("engine.eval.resume_s", || {
            evaluator.apply(relations, batch, &surviving)
        });
        let batch = UpdateBatch::retracting(vec![fresh[i].clone()]);
        let shrunk = l.t.leaf("engine.eval.retract_s", || {
            evaluator.apply(grown.relations, batch, &surviving)
        });
        removed.push(shrunk.stats.removed_facts as f64);
        l.check(shrunk.total_facts() == first.facts);
    });
    l.seconds("engine.eval.resume_s");
    l.seconds("engine.eval.retract_s");
    l.value("engine.eval.retract_removed", median(&removed), "count");
    l.seconds("engine.relation.clone_s");
    l.seconds("engine.database.clone_s");
}

/// `Relation::insert` (fresh, then again as duplicates) and `::probe`, on
/// the EDB's largest predicate, as `evaluate` loads it.
fn relations(l: &mut Layers, db: &Database, result: &EvalResult, seed: u64) {
    let rows = db
        .predicates()
        .map(|pred| db.facts_for(pred))
        .max_by_key(|facts| facts.len())
        .expect("the EDB is not empty");
    let mut rng = Rng::new(seed);
    let keys: Vec<Value> = (0..1024)
        .filter_map(|_| rows[rng.below(rows.len())].bound_value(0).cloned())
        .collect();
    l.repeat(2, 8, |l, _| {
        let mut relation = Relation::new();
        let (fill, duplicates) = (rows.to_vec(), rows.to_vec());
        l.t.leaf("engine.relation.insert", || {
            for fact in fill {
                black_box(relation.insert(fact));
            }
        });
        l.t.leaf("engine.relation.insert_dup", || {
            for fact in duplicates {
                black_box(relation.insert(fact));
            }
        });
        relation.seal();
        let found = l.t.leaf("engine.relation.probe", || {
            keys.iter()
                .map(|key| relation.probe(Window::Known, 0, key).count())
                .sum::<usize>()
        });
        l.check(relation.len() == rows.len() && found >= keys.len());
    });
    l.ns_per_item(
        "engine.relation.insert_ns",
        "engine.relation.insert",
        rows.len(),
    );
    l.ns_per_item(
        "engine.relation.insert_dup_ns",
        "engine.relation.insert_dup",
        rows.len(),
    );
    l.ns_per_item(
        "engine.relation.probe_ns",
        "engine.relation.probe",
        keys.len(),
    );
    let bytes_per_fact = result.approx_fact_bytes() as f64 / result.total_facts() as f64;
    l.value("engine.relation.bytes_per_fact", bytes_per_fact, "B");
}

/// Fourier–Motzkin satisfiability and projection on seeded residuals shaped
/// like rule r4's once both body flights are bound.
fn constraints(l: &mut Layers, seed: u64) {
    let mut rng = Rng::new(seed);
    let corpus: Vec<Conjunction> = (0..256)
        .map(|_| {
            let mut n = || 20 + rng.below(400);
            let rule = format!(
                "x(T, C) :- T = T1 + T2 + 30, C = C1 + C2, T1 = {}, T2 = {}, C1 = {}, C2 = {}, \
                 T <= 480, C > 0.",
                n(),
                n(),
                n(),
                n()
            );
            parse_rule(&rule)
                .expect("a generated rule parses")
                .constraint
        })
        .collect();
    let keep: BTreeSet<Var> = [Var::new("T"), Var::new("C")].into();
    l.repeat(3, 64, |l, _| {
        l.t.leaf("constraints.fm_sat", || {
            corpus
                .iter()
                .filter(|c| black_box(c.is_satisfiable()))
                .count()
        });
        l.t.leaf("constraints.fm_project", || {
            corpus
                .iter()
                .map(|c| black_box(c.project(&keep)).len())
                .sum::<usize>()
        });
    });
    l.ns_per_item("constraints.fm_sat_ns", "constraints.fm_sat", corpus.len());
    l.ns_per_item(
        "constraints.fm_project_ns",
        "constraints.fm_project",
        corpus.len(),
    );
}

/// The session in-process, without persistence: materialize, query, apply,
/// and two concurrent appliers.
fn session_layer(
    l: &mut Layers,
    optimizer: &Optimizer,
    db: &Database,
    parsed: &[Query],
    fresh: &[Fact],
    scenario: &Scenario,
    first: &Outcome,
) -> io::Result<Session> {
    let session =
        l.t.leaf("service.session.materialize_s", || {
            Session::materialize(optimizer, db)
        })
        .map_err(io::Error::other)?;
    let snapshot = session.snapshot();
    for query in parsed {
        let answered = l.t.leaf("service.session.query_s", || session.query(query));
        let Ok((resolved, _, answers)) = answered else {
            l.check(false);
            continue;
        };
        let direct = l.t.leaf("engine.eval.answers_s", || {
            snapshot.result().answers(&resolved)
        });
        l.check(direct.len() == answers.len());
    }
    l.repeat(3, fresh.len(), |l, i| {
        l.t.next_request();
        let grown = l.t.leaf("service.session.apply_insert_s", || {
            session.insert(vec![fresh[i].clone()])
        });
        let shrunk = l.t.leaf("service.session.apply_retract_s", || {
            session.remove(vec![fresh[i].clone()])
        });
        l.check(grown.is_ok() && shrunk.is_ok_and(|o| o.total_facts == first.facts));
    });
    // Two concurrent appliers: batches per evaluation pass (epoch).
    let epoch = session.snapshot().epoch();
    let rounds = 4;
    std::thread::scope(|scope| {
        for pool in &scenario.updates {
            let session = &session;
            scope.spawn(move || {
                for (fact, _) in &pool[pool.len() - rounds..] {
                    let fact = parse_facts(fact).expect("a generated fact parses");
                    session.insert(fact.clone()).expect("a fresh fact inserts");
                    session.remove(fact).expect("an inserted fact retracts");
                }
            });
        }
    });
    let passes = session.snapshot().epoch() - epoch;
    l.seconds("service.session.materialize_s");
    l.seconds("service.session.query_s");
    l.seconds("engine.eval.answers_s");
    let apply_s =
        l.seconds("service.session.apply_insert_s") + l.seconds("service.session.apply_retract_s");
    let engine_s = l.t.median_s("engine.eval.resume_s") + l.t.median_s("engine.eval.retract_s");
    l.value("service.session.apply_self_s", apply_s - engine_s, "s");
    let batches = (2 * rounds * UPDATE_POOLS) as f64;
    l.value(
        "service.session.coalesced_ratio",
        batches / passes.max(1) as f64,
        "ratio",
    );
    Ok(session)
}

/// The WAL on its own: append + `sync_data`, snapshot write, recovery read.
fn wal(
    l: &mut Layers,
    dir: &Path,
    workload: &Workload,
    scenario: &Scenario,
    db: &Database,
    fresh: &[Fact],
) -> io::Result<()> {
    let persistence = Persistence::create(dir, workload.strategy, &scenario.program, 64, 0, db)?;
    for (i, fact) in fresh.iter().take(WAL_RECORDS).enumerate() {
        let batch = UpdateBatch::inserting(vec![fact.clone()]);
        let recorded = l.t.leaf("service.wal.append_s", || {
            persistence.record(i as u64 + 1, &batch)
        });
        l.check(recorded.is_ok());
    }
    let wal_bytes = std::fs::metadata(dir.join(WAL_FILE))?.len();
    let snapshot = SnapshotFile {
        strategy: workload.strategy.to_string(),
        epoch: 0,
        program: scenario.program.clone(),
        facts: render_facts(db),
    };
    let path = dir.join(SNAPSHOT_FILE);
    l.repeat(3, 16, |l, _| {
        let written = l.t.leaf("service.wal.snapshot_write_s", || {
            write_snapshot(&path, &snapshot)
        });
        l.check(written.is_ok());
    });
    let snapshot_bytes = std::fs::metadata(&path)?.len();
    l.repeat(3, 16, |l, _| {
        let recovered = l.t.leaf("service.wal.recover_read_s", || recover_dir(dir));
        let facts = recovered.ok().flatten().map(|r| r.db.len());
        l.check(facts == Some(db.len() + WAL_RECORDS));
    });
    l.seconds("service.wal.append_s");
    l.value(
        "service.wal.bytes_per_update",
        wal_bytes as f64 / WAL_RECORDS as f64,
        "B",
    );
    l.seconds("service.wal.snapshot_write_s");
    l.value(
        "service.wal.snapshot_bytes_per_fact",
        snapshot_bytes as f64 / db.len() as f64,
        "B",
    );
    l.seconds("service.wal.recover_read_s");
    Ok(())
}

/// Shell and server over a durable hub, as `pcs-serve` runs them, then the
/// hub's recovery of what they left on disk.
fn durable_front_ends(
    l: &mut Layers,
    data_dir: &Path,
    session: Session,
    queries: &[String],
    scenario: &Scenario,
    first: &Outcome,
) -> io::Result<()> {
    let updates: Vec<String> = scenario.updates[0][..WIRE_UPDATES]
        .iter()
        .flat_map(|(fact, _)| [format!("+{fact}"), format!("-{fact}")])
        .collect();
    let limits = SessionLimits::default();
    let hub = Arc::new(SessionHub::with_store(data_dir, 64, limits)?);
    hub.install_named("default", session)
        .map_err(io::Error::other)?;

    let mut shell = Shell::with_hub(hub.clone());
    for text in queries {
        let response =
            l.t.leaf("service.shell.execute_query_s", || shell.execute(text));
        l.check(answer_count(&response.lines).is_some());
    }
    for line in &updates {
        let response =
            l.t.leaf("service.shell.execute_update_s", || shell.execute(line));
        l.check(!refused(&response.lines));
    }
    let shell_query_s = l.seconds("service.shell.execute_query_s");
    l.seconds("service.shell.execute_update_s");
    let session_query_s = l.t.median_s("service.session.query_s");
    l.value(
        "service.shell.query_self_s",
        shell_query_s - session_query_s,
        "s",
    );

    let options = ServerOptions {
        workers: 3,
        ..ServerOptions::default()
    };
    let handle = Server::bind_with_hub("127.0.0.1:0", hub.clone())?
        .with_options(options)
        .spawn()?;
    let mut client = Client::connect(handle.addr())?;
    for _ in 0..QUERY_SAMPLE {
        let echoed =
            l.t.leaf("service.server.echo_rtt_s", || client.send(".echo ping"))?;
        l.check(echoed == ["ping"]);
    }
    // The reply with the most rows measures dot-stuffed framing.
    let mut widest = (0, 0.0);
    for text in queries {
        l.t.next_request();
        let start = Instant::now();
        let frame =
            l.t.leaf("service.server.query_rtt_s", || client.send(text))?;
        let rtt = start.elapsed().as_secs_f64();
        let rows = answer_count(&frame);
        l.check(rows.is_some());
        if rows.unwrap_or(0) >= widest.0 {
            widest = (rows.unwrap_or(0), rtt);
        }
    }
    for line in &updates {
        l.t.next_request();
        let frame =
            l.t.leaf("service.server.update_rtt_s", || client.send(line))?;
        l.check(!refused(&frame));
    }
    drop(client);
    handle.shutdown();
    l.seconds("service.server.echo_rtt_s");
    l.seconds("service.server.query_rtt_s");
    l.seconds("service.server.update_rtt_s");
    l.value(
        "service.server.reply_rows_per_s",
        widest.0.max(1) as f64 / widest.1,
        "1/s",
    );

    drop(shell);
    drop(hub);
    let hub = SessionHub::with_store(data_dir, 64, limits)?;
    let recovered = l.t.leaf("service.hub.recover_s", || hub.recover())?;
    l.check(recovered.len() == 1 && recovered[0].starts_with("recovered session"));
    let facts = hub
        .session()
        .map(|session| session.snapshot().result().total_facts());
    l.check(facts == Some(first.facts));
    l.seconds("service.hub.recover_s");
    Ok(())
}
