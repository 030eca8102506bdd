//! The client side of the `pcs-service` line protocol, and the `pcs-serve`
//! child process the serving workloads drive.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Whether a response frame is an `error:` frame or a refusal — `busy:` (no
/// free worker) or `idle:` (read timeout).  All three count as a failed
/// operation.
pub fn refused(frame: &[String]) -> bool {
    frame.first().is_some_and(|line| {
        ["error:", "busy:", "idle:"]
            .iter()
            .any(|prefix| line.starts_with(prefix))
    })
}

/// A dot-unstuffing line-protocol client with `TCP_NODELAY` set, so a
/// round trip is timed from the write to the end of the response frame
/// without Nagle's delay in it.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects and consumes the greeting frame.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        let greeting = client.read_frame()?;
        if refused(&greeting) {
            return Err(io::Error::other(format!("refused: {greeting:?}")));
        }
        Ok(client)
    }

    fn read_frame(&mut self) -> io::Result<Vec<String>> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-frame",
                ));
            }
            let line = line.trim_end_matches('\n');
            if line == "." {
                return Ok(lines);
            }
            lines.push(line.strip_prefix('.').unwrap_or(line).to_string());
        }
    }

    /// One closed-loop round trip: sends `line`, returns the response frame.
    pub fn send(&mut self, line: &str) -> io::Result<Vec<String>> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_frame()
    }

    /// Sends `lines` pipelined, in chunks small enough that neither side's
    /// socket buffer fills, and returns the last response frame.
    pub fn send_all<'a>(
        &mut self,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> io::Result<Vec<String>> {
        let mut last = Vec::new();
        let mut pending = 0;
        for line in lines {
            writeln!(self.writer, "{line}")?;
            pending += 1;
            if pending == 512 {
                self.writer.flush()?;
                for _ in 0..pending {
                    last = self.read_frame()?;
                }
                pending = 0;
            }
        }
        self.writer.flush()?;
        for _ in 0..pending {
            last = self.read_frame()?;
        }
        Ok(last)
    }

    /// Loads a program and its EDB over the wire (`.strategy`, `.load` …
    /// `.end`) and returns the number of facts the server materialized.
    pub fn load(&mut self, strategy: &str, program: &str, edb: &str) -> io::Result<usize> {
        let head = [format!(".strategy {strategy}"), ".load".to_string()];
        let facts: Vec<String> = edb.lines().map(|fact| format!("+{fact}")).collect();
        let lines = head
            .iter()
            .map(String::as_str)
            .chain(program.lines())
            .chain(facts.iter().map(String::as_str))
            .chain([".end"]);
        let reply = self.send_all(lines)?;
        materialized_facts(&reply)
            .ok_or_else(|| io::Error::other(format!("load was not acknowledged: {reply:?}")))
    }
}

/// Parses `ok: materialized N facts …`.
fn materialized_facts(frame: &[String]) -> Option<usize> {
    frame
        .first()?
        .strip_prefix("ok: materialized ")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

/// The number `N` of an `answers: N (…)` frame, if the frame is one and
/// carries exactly `N` answer lines.
pub fn answer_count(frame: &[String]) -> Option<usize> {
    let count: usize = frame
        .first()?
        .strip_prefix("answers: ")?
        .split(' ')
        .next()?
        .parse()
        .ok()?;
    (frame.len() == count + 1).then_some(count)
}

/// A running `pcs-serve` child on an ephemeral port.
pub struct ServerChild {
    child: Child,
    // Held so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Spawns `pcs-serve 127.0.0.1:0 --data-dir DIR --workers 3` with the
    /// default flush policy (one `sync_data` per WAL record, a snapshot
    /// every 64 records), telemetry off and `threads` evaluator threads, and
    /// waits until it listens.  A non-empty `data_dir` is recovered first.
    pub fn spawn(binary: &Path, data_dir: &Path, threads: usize) -> io::Result<ServerChild> {
        let mut child = Command::new(binary)
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--workers", "3"])
            .env("PCS_EVAL_THREADS", threads.to_string())
            .env_remove("PCS_TELEMETRY")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = loop {
            let mut line = String::new();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.wait();
                return Err(io::Error::other("pcs-serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("pcs-serve: listening on ") {
                break addr.parse().map_err(io::Error::other)?;
            }
        };
        Ok(ServerChild {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Peak resident set size of the child so far, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

/// Dropping the server `SIGKILL`s the child and waits until it has ended,
/// so no path out of a run, a panic included, leaves a process behind.
impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}

/// The `pcs-serve` binary: `$PCS_SERVE_BIN`, or the one built beside this
/// executable by `run.sh`.
pub fn serve_binary() -> io::Result<PathBuf> {
    if let Some(path) = std::env::var_os("PCS_SERVE_BIN") {
        return Ok(PathBuf::from(path));
    }
    let path = std::env::current_exe()?.with_file_name("pcs-serve");
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::other(format!(
            "{} not found: build it with `cargo build --release -p pcs-service --bin pcs-serve` \
             (perfbench/run.sh does) or set PCS_SERVE_BIN",
            path.display()
        )))
    }
}
