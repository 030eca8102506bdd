//! The serving workloads: the real `pcs-serve` binary as a child process,
//! driven over one closed-loop connection (the caller waits for each reply
//! before sending its next request).
//!
//! One connection, because two were measured first and could not be made
//! steady on two cores: the scheduler sometimes runs both server workers on
//! one core, so latencies fall into two modes of about equal weight (3.4 ms
//! and 7 ms for a point query) and the median jumps between them from run
//! to run.  Concurrent updaters are measured per layer instead
//! (`service.session.coalesced_ratio`).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pcs_lang::parse_query;

use crate::batch::{optimizer, parsed};
use crate::scenario::{Mode, Scenario, Shape, Workload, WINDOW};
use crate::stats::{describe_ms, median};
use crate::wire::{answer_count, refused, serve_binary, Client, ServerChild};
use crate::Report;

/// A scratch directory beside the executable (inside the build directory,
/// so inside the checkout), unique to this process.
pub fn scratch_dir(tag: &str) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| io::Error::other("the executable has no build directory"))?
        .join("perfbench-data")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// What the timed phases measured.
#[derive(Default)]
struct Timings {
    /// Latency of each operation: a query (`serve-read`) or a whole cycle
    /// (`serve-churn`).
    op_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    retract_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Sends one line; returns the frame and its latency in ms.  A refusal or a
/// closed socket counts as a failure.
fn timed(client: &mut Client, line: &str, t: &mut Timings) -> Option<(Vec<String>, f64)> {
    t.attempted += 1;
    let start = Instant::now();
    let frame = client.send(line);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match frame {
        Ok(frame) if !refused(&frame) => Some((frame, ms)),
        _ => {
            t.failed += 1;
            None
        }
    }
}

fn frame_hash(frame: &[String]) -> u64 {
    let mut hasher = DefaultHasher::new();
    frame[1..].hash(&mut hasher);
    hasher.finish()
}

/// Queries only, cycling through the pool.  Nobody is updating, so the
/// same query must always get the same answers.
fn read_loop(client: &mut Client, queries: &[String], deadline: Instant, t: &mut Timings) {
    let mut seen: HashMap<usize, u64> = HashMap::new();
    let mut next = 0;
    while Instant::now() < deadline {
        let index = next % queries.len();
        next += 1;
        let Some((frame, ms)) = timed(client, &queries[index], t) else {
            continue;
        };
        let hash = frame_hash(&frame);
        let same = *seen.entry(index).or_insert(hash) == hash;
        if answer_count(&frame).is_some() && same {
            t.op_ms.push(ms);
        } else {
            t.failed += 1;
        }
    }
}

/// Pre-inserts the window as one batch.
fn fill_window(client: &mut Client, pool: &[(String, String)]) -> io::Result<bool> {
    let window: Vec<String> = pool[..WINDOW]
        .iter()
        .map(|(fact, _)| format!("+{fact}"))
        .collect();
    let lines = [".batch"]
        .into_iter()
        .chain(window.iter().map(String::as_str))
        .chain([".commit"]);
    let frame = client.send_all(lines)?;
    Ok(frame
        .first()
        .is_some_and(|line| line.starts_with("ok: epoch")))
}

/// Rolling-window cycles: insert the next fresh fact, retract the window's
/// oldest, query the pair just inserted.  Returns the pool indices of the
/// facts still inserted at the end.
fn churn_loop(
    client: &mut Client,
    pool: &[(String, String)],
    deadline: Instant,
    t: &mut Timings,
) -> VecDeque<usize> {
    let mut window: VecDeque<usize> = (0..WINDOW).collect();
    let mut next = WINDOW;
    while Instant::now() < deadline {
        let (fact, query) = &pool[next % pool.len()];
        let oldest = &pool[window[0]].0;
        let insert = timed(client, &format!("+{fact}"), t);
        let retract = timed(client, &format!("-{oldest}"), t);
        let answer = timed(client, query, t);
        let (Some(insert), Some(retract), Some(answer)) = (insert, retract, answer) else {
            break;
        };
        window.pop_front();
        window.push_back(next % pool.len());
        next += 1;
        let acknowledged = |frame: &[String]| frame[0].starts_with("ok: epoch");
        if acknowledged(&insert.0) && acknowledged(&retract.0) && answer_count(&answer.0).is_some()
        {
            t.insert_ms.push(insert.1);
            t.retract_ms.push(retract.1);
            t.op_ms.push(insert.1 + retract.1 + answer.1);
        } else {
            t.failed += 1;
        }
    }
    window
}

/// The probe queries' answer lines, as the server renders them.
fn probe(client: &mut Client, probes: &[String]) -> io::Result<Vec<Vec<String>>> {
    probes
        .iter()
        .map(|query| client.send(query).map(|frame| frame[1..].to_vec()))
        .collect()
}

/// The probe queries' answers from a from-scratch in-process evaluation of
/// `edb`, rendered the way the shell renders them.
fn expected_probes(
    scenario: &Scenario,
    edb: &str,
    strategy: &str,
    threads: usize,
) -> Vec<Vec<String>> {
    let (program, db) = parsed(&scenario.program, edb);
    let strategy = pcs_service::parse_strategy(strategy).expect("a known strategy token");
    let optimized = optimizer(program, &strategy, threads)
        .optimize()
        .expect("the program optimizes");
    let result = optimized.evaluate(&db);
    scenario
        .probes
        .iter()
        .map(|text| {
            let mut query = parse_query(text).expect("the generated probe parses");
            // Under magic the answers live in the rewritten query predicate.
            query.literals[0].predicate = optimized.query_pred.clone();
            let mut lines: Vec<String> = result
                .answers(&query)
                .iter()
                .map(|fact| format!("  {fact}"))
                .collect();
            lines.sort();
            lines
        })
        .collect()
}

/// Server instances a run sets up and measures, each for a third of the
/// time.  Each gives a sample of `setup_s` and of `peak_rss_mb`, and the
/// latencies are pooled: how a process happens to be laid out in memory can
/// shift everything it serves by a few percent, and the pool averages over
/// that.
const SERVERS: usize = 3;

pub fn run(
    workload: &Workload,
    shape: Shape,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> io::Result<Report> {
    let binary = serve_binary()?;
    let dir = scratch_dir(workload.name)?;
    let result = measure(workload, shape, seed, seconds, threads, &binary, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(
    workload: &Workload,
    shape: Shape,
    seed: u64,
    seconds: f64,
    threads: usize,
    binary: &Path,
    dir: &Path,
) -> io::Result<Report> {
    let churn = workload.mode == Mode::ServeChurn;
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut ops = Timings::default();
    let (mut elapsed_s, mut snapshots) = (0.0, 0);
    let mut last = None;
    for _ in 0..SERVERS {
        // Ends the previous server.
        drop(last.take());
        // Set-up: input generation, server start, wire load and materialize.
        let start = Instant::now();
        let scenario = Scenario::generate(shape, seed);
        let _ = std::fs::remove_dir_all(dir);
        let server = ServerChild::spawn(binary, dir, threads)?;
        let mut client = Client::connect(server.addr)?;
        let facts = client.load(workload.strategy, &scenario.program, &scenario.edb)?;
        setups.push(start.elapsed().as_secs_f64());

        let pool = &scenario.updates[0];
        if churn {
            ops.attempted += 1;
            ops.failed += u64::from(!fill_window(&mut client, pool)?);
        }
        // Memory is read at a fixed point of work, before the timed phase:
        // how much a timed phase allocates depends on how many operations
        // fit in it.
        rss.push(server.peak_rss_mb()?);

        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds / SERVERS as f64);
        let updates_before = ops.insert_ms.len() + ops.retract_ms.len();
        let window = if churn {
            churn_loop(&mut client, pool, deadline, &mut ops)
        } else {
            read_loop(&mut client, &scenario.queries, deadline, &mut ops);
            VecDeque::new()
        };
        elapsed_s += start.elapsed().as_secs_f64();
        // Each server snapshots every 64 WAL records; the window fill was
        // its first.
        snapshots += (ops.insert_ms.len() + ops.retract_ms.len() - updates_before + 1) / 64;
        last = Some((server, client, scenario, window, facts));
    }
    let (server, mut client, scenario, window, facts) = last.expect("a server was measured");
    let before = probe(&mut client, &scenario.probes)?;

    // Crash and recover the last server: SIGKILL, restart on the same
    // directory, time to the first answered query.  SIGKILL keeps the OS
    // page cache, so this checks a process crash, not a power loss.
    drop(server);
    let restart = Instant::now();
    let server = ServerChild::spawn(binary, dir, threads)?;
    let mut client = Client::connect(server.addr)?;
    let first_answered = answer_count(&client.send(&scenario.probes[0])?).is_some();
    let recovery_s = restart.elapsed().as_secs_f64();
    let after = probe(&mut client, &scenario.probes)?;
    drop(server);

    // The final EDB: the base plus what the window still holds.
    let mut edb = scenario.edb.clone();
    for &index in &window {
        edb.push_str(&scenario.updates[0][index].0);
        edb.push('\n');
    }
    let expected = expected_probes(&scenario, &edb, workload.strategy, threads);
    let checks = [first_answered, before == expected, after == expected];

    let mut notes = vec![format!(
        "server: pcs-serve child, --workers 3, {threads} evaluator threads, telemetry off; \
         one sync_data per WAL record, a snapshot every 64 records; one closed-loop connection \
         (the caller waits for each reply), TCP_NODELAY; {SERVERS} servers set up and measured \
         in turn, timings pooled"
    )];
    if churn {
        let updates = ops.insert_ms.len() + ops.retract_ms.len();
        notes.push(format!(
            "operation: one cycle (insert a fresh leg, retract the oldest of the {WINDOW}-leg \
             window, point query); {updates} updates, {snapshots} snapshots"
        ));
        notes.push(format!("insert  {}", describe_ms(&ops.insert_ms)));
        notes.push(format!("retract {}", describe_ms(&ops.retract_ms)));
        let both: Vec<f64> = ops
            .insert_ms
            .iter()
            .chain(&ops.retract_ms)
            .copied()
            .collect();
        notes.push(format!("update  {}", describe_ms(&both)));
    } else {
        notes.push(
            "operation: one query round trip (60% point, 35% source-bound, 5% range); \
             updates issued: 0"
                .to_string(),
        );
    }
    notes.push(format!(
        "recovery_s {recovery_s:.4} (SIGKILL, restart on the same --data-dir, first answered \
         query; the OS cache survives, so a process crash, not a power loss)"
    ));
    notes.push(format!(
        "probe answers before the kill / after recovery equal a from-scratch evaluation of the \
         final EDB: {} / {}",
        checks[1], checks[2]
    ));
    Ok(Report {
        setup_s: median(&setups),
        op_ms: ops.op_ms,
        elapsed_s,
        facts_computed: facts,
        peak_rss_mb: median(&rss),
        attempted: ops.attempted + checks.len() as u64,
        failed: ops.failed + checks.iter().filter(|ok| !**ok).count() as u64,
        notes,
    })
}
