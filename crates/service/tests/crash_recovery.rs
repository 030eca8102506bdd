//! Crash-recovery differential tests: kill a real `pcs-serve --data-dir`
//! process, restart it on the same directory, and require answers
//! identical to a server that was never killed.
//!
//! The scenarios cover both ends of the durability pipeline — a snapshot
//! cadence so long the restart replays pure WAL, and one so short the
//! restart is mostly snapshot.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// A spawned `pcs-serve` process plus everything it printed before the
/// listening line (the recovery report).
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
    startup_lines: Vec<String>,
}

impl ServerProcess {
    /// Spawns the real binary on an ephemeral port over `data_dir` and
    /// waits for its listening line.
    fn spawn(data_dir: &Path, snapshot_every: u64) -> ServerProcess {
        let mut command = Command::new(env!("CARGO_BIN_EXE_pcs-serve"));
        command
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--snapshot-every")
            .arg(snapshot_every.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = command.spawn().expect("spawn pcs-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut startup_lines = Vec::new();
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read server stdout");
            assert!(n > 0, "server exited before listening: {startup_lines:?}");
            let line = line.trim();
            if let Some(addr) = line.strip_prefix("pcs-serve: listening on ") {
                break addr.parse().expect("parse listen address");
            }
            startup_lines.push(line.to_string());
        };
        ServerProcess {
            child,
            addr,
            startup_lines,
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A minimal dot-unstuffing line-protocol client (mirrors the wire client
/// in the server unit tests).
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
        };
        client.read_frame(); // greeting
        client
    }

    fn read_frame(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read line");
            assert!(n > 0, "server closed mid-frame: {lines:?}");
            let line = line.trim_end_matches('\n');
            if line == "." {
                return lines;
            }
            let line = line.strip_prefix('.').unwrap_or(line);
            lines.push(line.to_string());
        }
    }

    fn send(&mut self, line: &str) -> Vec<String> {
        writeln!(self.writer, "{line}").expect("write");
        self.writer.flush().expect("flush");
        self.read_frame()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pcs-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const LOAD: &[&str] = &[
    ".strategy constraint",
    ".load",
    "r1: path(X, Y) :- edge(X, Y).",
    "r2: path(X, Y) :- edge(X, Z), path(Z, Y).",
    "+edge(1, 2).",
    "+edge(2, 3).",
    "?- path(1, Y).",
    ".end",
];

/// The acknowledged update churn both the crashed and the control server
/// apply: inserts, a retraction, and a re-insertion, so the WAL carries
/// every record shape.
const CHURN: &[&str] = &[
    "+edge(3, 4).",
    "+edge(4, 5).",
    "-edge(2, 3).",
    "+edge(2, 3).",
    "+edge(5, 6).",
];

const QUERIES: &[&str] = &["?- path(1, Y).", "?- path(2, Y).", "?- path(4, Y)."];

fn load_and_churn(client: &mut Client) {
    for line in LOAD {
        client.send(line);
    }
    for (i, line) in CHURN.iter().enumerate() {
        let out = client.send(line);
        assert!(
            out[0].starts_with(&format!("ok: epoch {}", i + 1)),
            "churn `{line}` not acknowledged: {out:?}"
        );
    }
}

fn answers(client: &mut Client) -> Vec<Vec<String>> {
    QUERIES
        .iter()
        .map(|query| {
            let mut frame = client.send(query);
            assert!(frame[0].starts_with("answers:"), "{frame:?}");
            // The header carries the epoch, which legitimately differs
            // between a restarted server and the control; compare the
            // answer count and the facts themselves.
            let header = frame.remove(0);
            let count = header
                .strip_prefix("answers: ")
                .and_then(|rest| rest.split(' ').next())
                .expect("answer count")
                .to_string();
            frame.sort();
            frame.insert(0, count);
            frame
        })
        .collect()
}

fn crash_and_recover_scenario(tag: &str, snapshot_every: u64) {
    let crash_dir = temp_dir(&format!("{tag}-crashed"));
    let control_dir = temp_dir(&format!("{tag}-control"));

    // The victim: load, churn with every update acknowledged, then die
    // without any shutdown grace.
    let mut victim = ServerProcess::spawn(&crash_dir, snapshot_every);
    let mut client = Client::connect(victim.addr);
    load_and_churn(&mut client);
    victim.kill();
    drop(client);

    // The control: same program, same churn, never killed.
    let control = ServerProcess::spawn(&control_dir, snapshot_every);
    let mut control_client = Client::connect(control.addr);
    load_and_churn(&mut control_client);
    let expected = answers(&mut control_client);

    // The survivor: a fresh process over the crashed directory must report
    // the recovery and answer exactly like the control.
    let survivor = ServerProcess::spawn(&crash_dir, snapshot_every);
    assert!(
        survivor
            .startup_lines
            .iter()
            .any(|line| line.contains("recovered session `default` at epoch 5")),
        "no recovery report: {:?}",
        survivor.startup_lines
    );
    let mut survivor_client = Client::connect(survivor.addr);
    assert_eq!(answers(&mut survivor_client), expected, "{tag}");

    // The recovered session keeps serving updates (and re-persisting them).
    let out = survivor_client.send("+edge(6, 7).");
    assert!(out[0].starts_with("ok: epoch 6"), "{out:?}");

    let _ = std::fs::remove_dir_all(&crash_dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

#[test]
fn killed_server_answers_identically_after_wal_replay() {
    // Cadence far beyond the churn: recovery is pure WAL replay.
    crash_and_recover_scenario("wal", 1000);
}

#[test]
fn killed_server_answers_identically_after_snapshot_plus_wal() {
    // Cadence of 2: recovery mixes a recent snapshot with WAL tail records.
    crash_and_recover_scenario("snap", 2);
}

#[test]
fn an_unacknowledged_update_never_tears() {
    // Fire one update and kill the server without reading the response:
    // the restarted server must hold either the pre-update state or the
    // complete post-update state — never half a batch.
    let dir = temp_dir("torn");
    let mut victim = ServerProcess::spawn(&dir, 1000);
    let mut client = Client::connect(victim.addr);
    for line in LOAD {
        client.send(line);
    }
    // One mixed batch, unacknowledged: retract one edge, insert another.
    writeln!(client.writer, ".batch\n-edge(2, 3).\n+edge(2, 9).\n.commit").expect("write");
    client.writer.flush().expect("flush");
    victim.kill();
    drop(client);

    let survivor = ServerProcess::spawn(&dir, 1000);
    let mut client = Client::connect(survivor.addr);
    let out = client.send("?- path(2, Y).");
    let has_old = out.iter().any(|l| l.contains("path(2, 3)"));
    let has_new = out.iter().any(|l| l.contains("path(2, 9)"));
    assert!(
        has_old != has_new,
        "torn batch after recovery (old={has_old}, new={has_new}): {out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flights rules of Example 1.1, asked about flights from `a`.
const FLIGHTS_FROM_A: &[&str] = &[
    "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.",
    "r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.",
    "r3: flight(S, D, T, C) :- singleleg(S, D, T, C), T > 0, C > 0.",
    "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
     T = T1 + T2 + 30, C = C1 + C2.",
    "?- cheaporshort(a, D, T, C).",
];

#[test]
fn a_load_with_base_facts_on_a_rule_defined_predicate_is_refused_in_one_frame() {
    let dir = temp_dir("refused-load");
    let server = ServerProcess::spawn(&dir, 1000);
    let mut client = Client::connect(server.addr);
    // Under the default strategy (optimal) a base `flight` fact is refused.
    client.send(".load");
    for line in FLIGHTS_FROM_A {
        client.send(line);
    }
    client.send("+singleleg(b, c, 10, 10).");
    client.send("+flight(a, b, -5, 10).");
    let out = client.send(".end");
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(
        out[0].starts_with("error: `flight` is not an EDB predicate, "),
        "{out:?}"
    );
    // The same connection loads the fact as a rule and is answered.
    client.send(".load");
    for line in FLIGHTS_FROM_A {
        client.send(line);
    }
    client.send("+singleleg(b, c, 10, 10).");
    client.send("flight(a, b, -5, 10).");
    let out = client.send(".end");
    assert!(out[0].starts_with("ok: materialized"), "{out:?}");
    let out = client.send("?- cheaporshort(a, D, T, C).");
    assert!(out[0].starts_with("answers: 2 "), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_with_base_facts_on_a_rule_defined_predicate_is_not_recovered() {
    use pcs_service::wal::{write_snapshot, SnapshotFile, SNAPSHOT_FILE};
    // A data directory as a build that accepted such facts would have left
    // it: `stale` holds a base `flight` fact under `optimal`, `fine` only
    // `singleleg` facts.
    let dir = temp_dir("stale-snapshot");
    let program = FLIGHTS_FROM_A.join("\n");
    for (name, facts) in [
        ("stale", "singleleg(b, c, 10, 10).\nflight(a, b, -5, 10).\n"),
        (
            "fine",
            "singleleg(a, b, 10, 10).\nsingleleg(b, c, 10, 10).\n",
        ),
    ] {
        std::fs::create_dir_all(dir.join(name)).expect("session directory");
        let snapshot = SnapshotFile {
            strategy: "optimal".to_string(),
            epoch: 3,
            program: program.clone(),
            facts: facts.to_string(),
        };
        write_snapshot(&dir.join(name).join(SNAPSHOT_FILE), &snapshot).expect("snapshot");
    }
    let server = ServerProcess::spawn(&dir, 1000);
    let report = &server.startup_lines;
    assert!(
        report.iter().any(|line| line.contains(
            "warning: session `stale` not recovered: re-materialization failed: \
             `flight` is not an EDB predicate"
        )),
        "{report:?}"
    );
    assert!(
        report
            .iter()
            .any(|line| line.contains("recovered session `fine` at epoch 3")),
        "{report:?}"
    );
    let mut client = Client::connect(server.addr);
    let out = client.send(".session attach fine");
    assert!(out[0].starts_with("ok:"), "{out:?}");
    let out = client.send("?- cheaporshort(a, D, T, C).");
    assert!(out[0].starts_with("answers: 2 "), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
