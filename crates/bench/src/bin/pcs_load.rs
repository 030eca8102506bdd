//! `pcs-load` — a concurrent load generator for the `pcs-service` TCP
//! front-end (experiment E10).
//!
//! ```text
//! cargo run --release -p pcs-bench --bin pcs-load -- [--clients N] [--ops N] [--addr HOST:PORT]
//! ```
//!
//! By default the binary spawns an in-process server on an ephemeral port,
//! loads the flights workload over the wire, then drives `--clients`
//! concurrent connections through `--ops` mixed cycles each (two point
//! queries, one insert, one retract per cycle).  It reports sustained
//! throughput and p50/p95/p99 latency from the `pcs-telemetry` histograms
//! the session layer already feeds, prints the table, and writes the
//! machine-readable `BENCH_10.json` artifact to the current directory.
//!
//! With `--addr`, an external already-running `pcs-serve` is driven
//! instead; latencies are then measured client-side (wire round-trip) and
//! fed into this process's telemetry histograms, so the report shape is
//! identical.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use pcs_bench::experiments::{bench10_json, render_load, LoadRow};
use pcs_core::programs;
use pcs_service::{Server, ServerOptions};
use pcs_telemetry::{Hist, TelemetryMode};

struct Args {
    clients: usize,
    ops: usize,
    addr: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 8,
        ops: 25,
        addr: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|_| "--clients needs a number".to_string())?;
            }
            "--ops" => {
                args.ops = value("--ops")?
                    .parse()
                    .map_err(|_| "--ops needs a number".to_string())?;
            }
            "--addr" => args.addr = Some(value("--addr")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.clients == 0 || args.ops == 0 {
        return Err("--clients and --ops must be at least 1".to_string());
    }
    Ok(args)
}

/// A dot-unstuffing line-protocol client.
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

/// Loads the flights workload (program + base facts) over the wire.
fn load_workload(client: &mut Client) {
    client.send(".strategy constraint");
    client.send(".load");
    for line in programs::flights().to_string().lines() {
        if !line.trim().is_empty() {
            client.send(line);
        }
    }
    for fact in programs::flights_database(6, 10).all_facts() {
        client.send(&format!("+{}.", fact.rule_text()));
    }
    let out = client.send(".end");
    assert!(
        out.first()
            .is_some_and(|l| l.starts_with("ok: materialized")),
        "workload load failed: {out:?}"
    );
}

/// One client's share of the run: `ops` cycles of two queries, one unique
/// insert, and the matching retract (so the EDB ends where it began).
/// Returns (queries, updates, errors) issued.
fn drive(client: &mut Client, id: usize, ops: usize, client_side_timing: bool) -> (u64, u64, u64) {
    let query = "?- cheaporshort(madison, seattle, T, C).";
    let mut queries = 0;
    let mut updates = 0;
    let mut errors = 0;
    let op = |client: &mut Client, line: &str, hist: Hist| {
        let start = Instant::now();
        let out = client.send(line);
        if client_side_timing {
            pcs_telemetry::observe(
                hist,
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        if out.first().is_some_and(|l| l.starts_with("error:")) {
            1
        } else {
            0
        }
    };
    for i in 0..ops {
        errors += op(client, query, Hist::QueryLatency);
        errors += op(client, query, Hist::QueryLatency);
        queries += 2;
        let fact = format!("singleleg(load{id}, dst{id}x{i}, 10, 10).");
        errors += op(client, &format!("+{fact}"), Hist::UpdateLatency);
        errors += op(client, &format!("-{fact}"), Hist::UpdateLatency);
        updates += 2;
    }
    (queries, updates, errors)
}

fn percentiles_us(hist: Hist) -> (f64, f64, f64) {
    let snapshot = pcs_telemetry::hist_snapshot(hist);
    let (p50, p95, p99) = snapshot.percentiles().unwrap_or((0, 0, 0));
    (
        p50 as f64 / 1_000.0,
        p95 as f64 / 1_000.0,
        p99 as f64 / 1_000.0,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pcs-load: {e}");
            eprintln!("usage: pcs-load [--clients N] [--ops N] [--addr HOST:PORT]");
            std::process::exit(1);
        }
    };
    pcs_telemetry::set_mode(TelemetryMode::On);
    pcs_telemetry::reset();

    // Default: an in-process server (session latencies land in this
    // process's histograms directly).  With --addr, drive a remote server
    // and time the wire round-trips client-side instead.
    let client_side_timing = args.addr.is_some();
    let (addr, _handle) = match &args.addr {
        Some(addr) => (addr.parse().expect("parse --addr"), None),
        None => {
            // Every load client holds its connection for the whole run, so
            // the worker pool must cover all of them at once.
            let server = Server::bind("127.0.0.1:0")
                .expect("bind in-process server")
                .with_options(ServerOptions {
                    workers: args.clients + 1,
                    queue_depth: args.clients + 1,
                    ..ServerOptions::default()
                });
            let handle = server.spawn().expect("spawn in-process server");
            (handle.addr(), Some(handle))
        }
    };

    let mut loader = Client::connect(addr);
    load_workload(&mut loader);
    // Free the loader's worker before the load clients claim theirs.
    drop(loader);

    // All clients connect first, then start their cycles together.
    let barrier = Arc::new(Barrier::new(args.clients + 1));
    let threads: Vec<_> = (0..args.clients)
        .map(|id| {
            let barrier = barrier.clone();
            let ops = args.ops;
            let mut client = Client::connect(addr);
            std::thread::spawn(move || {
                barrier.wait();
                drive(&mut client, id, ops, client_side_timing)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let mut queries = 0;
    let mut updates = 0;
    let mut errors = 0;
    for thread in threads {
        let (q, u, e) = thread.join().expect("client thread");
        queries += q;
        updates += u;
        errors += e;
    }
    let elapsed = start.elapsed().as_secs_f64();

    if errors > 0 {
        eprintln!("pcs-load: {errors} operations answered with an error");
        std::process::exit(1);
    }

    let (qp50, qp95, qp99) = percentiles_us(Hist::QueryLatency);
    let (up50, up95, up99) = percentiles_us(Hist::UpdateLatency);
    let rows = vec![
        LoadRow {
            op: "query".to_string(),
            clients: args.clients,
            count: queries,
            throughput_per_sec: queries as f64 / elapsed,
            p50_us: qp50,
            p95_us: qp95,
            p99_us: qp99,
        },
        LoadRow {
            op: "update".to_string(),
            clients: args.clients,
            count: updates,
            throughput_per_sec: updates as f64 / elapsed,
            p50_us: up50,
            p95_us: up95,
            p99_us: up99,
        },
    ];
    print!("{}", render_load(&rows));
    println!(
        "total: {} ops in {elapsed:.2}s ({:.1} ops/s), {} coalesced update batches",
        queries + updates,
        (queries + updates) as f64 / elapsed,
        pcs_telemetry::counter(pcs_telemetry::Counter::CoalescedUpdates),
    );

    let path = "BENCH_10.json";
    match std::fs::write(path, bench10_json(&rows)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
