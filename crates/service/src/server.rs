//! A std-only, line-protocol TCP front-end over a shared [`SessionHub`].
//!
//! The wire protocol is the shell's command language, framed for machines:
//! after the greeting, every request line produces the shell's response
//! lines followed by a lone `.` terminator line.  Response *payload* lines
//! that themselves begin with `.` are dot-stuffed (an extra leading `.` is
//! prepended, SMTP-style) so the terminator is unambiguous; clients strip
//! one leading `.` from any line starting with `..`.  All connections share
//! one [`SessionHub`] — a `.load` performed by one client installs the
//! session every other client queries — while each connection keeps its own
//! [`Shell`] (strategy selection, attached session, and `.load` blocks stay
//! per-client).
//!
//! Connections are served by a **bounded worker pool**
//! ([`ServerOptions::workers`]) with a bounded accept queue
//! ([`ServerOptions::queue_depth`]): a flood of connections cannot spawn an
//! unbounded number of threads, and clients beyond capacity get an explicit
//! `busy:` frame instead of an unacknowledged hang.  Sockets carry a read
//! timeout ([`ServerOptions::read_timeout`]), so a stalled or vanished
//! client releases its worker with an `idle:` frame instead of pinning it
//! forever, and `TCP_NODELAY`, so a reply never waits on the client's
//! delayed ACK.  A command that panics ends its connection, not its worker.
//!
//! Queries from other connections proceed while one connection's insert
//! materializes: the session publishes epochs via immutable snapshots, so
//! the server needs no global lock around evaluation.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::hub::SessionHub;
use crate::shell::Shell;

/// The response terminator line of the wire protocol.
pub const TERMINATOR: &str = ".";

/// Tuning knobs of the serving layer.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads, i.e. the maximum number of concurrently *served*
    /// connections (clamped to at least 1).
    pub workers: usize,
    /// Per-socket read timeout: a connection that sends no complete command
    /// for this long is disconnected with an `idle:` frame.  `None`
    /// disables the timeout.
    pub read_timeout: Option<Duration>,
    /// Accepted connections waiting for a free worker beyond this depth are
    /// refused with a `busy:` frame.
    pub queue_depth: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 8,
            read_timeout: Some(Duration::from_secs(300)),
            queue_depth: 32,
        }
    }
}

/// A bound-but-not-yet-serving TCP front-end.
pub struct Server {
    listener: TcpListener,
    hub: Arc<SessionHub>,
    options: ServerOptions,
}

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:7474`, or port `0` for an ephemeral
    /// port) over a fresh hub with default options.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Server> {
        Server::bind_with_hub(addr, Arc::new(SessionHub::new()))
    }

    /// Binds to `addr` serving an existing hub (so a program can
    /// pre-materialize a session before accepting clients).
    pub fn bind_with_hub(addr: impl ToSocketAddrs, hub: Arc<SessionHub>) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            hub,
            options: ServerOptions::default(),
        })
    }

    /// Replaces the serving options (worker count, read timeout, queue
    /// depth); call before [`Server::run`] or [`Server::spawn`].
    pub fn with_options(mut self, options: ServerOptions) -> Server {
        self.options = options;
        self
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The hub shared by every connection.
    pub fn hub(&self) -> &Arc<SessionHub> {
        &self.hub
    }

    /// Serves connections on the calling thread until accept fails; workers
    /// run on background threads.
    pub fn run(self) -> io::Result<()> {
        let pool = Pool::start(self.hub, &self.options);
        accept_loop(self.listener, &pool, None)
    }

    /// Serves connections on background threads; the returned handle stops
    /// the accept loop and the idle workers on [`ServerHandle::shutdown`].
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let pool = Pool::start(self.hub, &self.options);
        let accept_pool = pool.clone();
        let listener = self.listener;
        let thread = std::thread::spawn(move || {
            let _ = accept_loop(listener, &accept_pool, Some(accept_stop));
        });
        Ok(ServerHandle {
            addr,
            stop,
            pool,
            thread,
        })
    }
}

/// The worker pool shared between the accept loop and the worker threads:
/// a bounded queue of accepted-but-unserved connections plus the condvar
/// idle workers sleep on.
struct Pool {
    hub: Arc<SessionHub>,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    stop: AtomicBool,
    queue_depth: usize,
    read_timeout: Option<Duration>,
}

impl Pool {
    /// Spawns the worker threads and returns the shared pool state.
    fn start(hub: Arc<SessionHub>, options: &ServerOptions) -> Arc<Pool> {
        let pool = Arc::new(Pool {
            hub,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            queue_depth: options.queue_depth,
            read_timeout: options.read_timeout,
        });
        for _ in 0..options.workers.max(1) {
            let pool = pool.clone();
            std::thread::spawn(move || pool.work());
        }
        pool
    }

    /// Hands an accepted connection to the pool, or refuses it with a
    /// `busy:` frame when the wait queue is full.
    fn submit(&self, stream: TcpStream) {
        let mut queue = self.lock_queue();
        if queue.len() >= self.queue_depth.max(1) {
            drop(queue);
            // Refusal is a best-effort courtesy; the close is the message.
            let mut writer = BufWriter::new(stream);
            let _ = writeln!(writer, "busy: server at connection capacity; retry later");
            let _ = writeln!(writer, "{TERMINATOR}");
            let _ = writer.flush();
            return;
        }
        queue.push_back(stream);
        drop(queue);
        self.available.notify_one();
    }

    /// One worker thread: serve queued connections until told to stop.
    fn work(&self) {
        loop {
            let stream = {
                let mut queue = self.lock_queue();
                loop {
                    if let Some(stream) = queue.pop_front() {
                        break stream;
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self
                        .available
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Client I/O errors just end that connection, and so does a
            // panic while serving it (an update whose exact arithmetic
            // overflows): the stream is dropped and this worker lives on.
            let hub = self.hub.clone();
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                serve_client(stream, hub, self.read_timeout)
            }));
        }
    }

    /// Wakes every idle worker so it can observe the stop flag.  Workers
    /// mid-connection finish their client first, as before.
    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<TcpStream>> {
        // A worker that panics while *holding* the queue lock has already
        // popped its connection; the queue itself is still consistent.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The shared connection-accept loop, feeding the worker pool.  With a
/// `stop` flag the loop exits cleanly after the next accepted connection
/// once the flag is set ([`ServerHandle::shutdown`] sets it and
/// self-connects to unblock the accept).
fn accept_loop(
    listener: TcpListener,
    pool: &Arc<Pool>,
    stop: Option<Arc<AtomicBool>>,
) -> io::Result<()> {
    loop {
        let (stream, _) = listener.accept()?;
        if stop
            .as_ref()
            .is_some_and(|stop| stop.load(Ordering::SeqCst))
        {
            return Ok(());
        }
        pool.submit(stream);
    }
}

/// Handle to a background server; dropping it leaves the server running
/// detached, [`ServerHandle::shutdown`] stops it.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pool: Arc<Pool>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop, joins the server thread, and releases the
    /// idle workers.  Connections that are already established keep their
    /// workers until the client disconnects (or times out).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
        self.pool.shutdown();
    }
}

/// Writes one framed response: payload lines dot-stuffed, then the
/// terminator.  The frame stays in the writer's buffer: the caller decides
/// when it goes out.
fn write_frame(writer: &mut impl Write, lines: &[String]) -> io::Result<()> {
    for line in lines {
        if line.starts_with('.') {
            // Dot-stuffing: a payload line may *be* `.` (e.g. `.echo .`),
            // which unstuffed would read as the end of the frame.
            writeln!(writer, ".{line}")?;
        } else {
            writeln!(writer, "{line}")?;
        }
    }
    writeln!(writer, "{TERMINATOR}")
}

/// The settings every accepted socket gets: replies leave at once instead of
/// waiting out the client's delayed ACK (`TCP_NODELAY`), and a read that
/// sees no complete command within `read_timeout` fails.
fn configure(stream: &TcpStream, read_timeout: Option<Duration>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)
}

/// Runs the shell loop over one client connection.
fn serve_client(
    stream: TcpStream,
    hub: Arc<SessionHub>,
    read_timeout: Option<Duration>,
) -> io::Result<()> {
    configure(&stream, read_timeout)?;
    let mut shell = Shell::with_hub(hub);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_frame(
        &mut writer,
        &["pcs-service ready; one command per line, .help for help".to_string()],
    )?;
    writer.flush()?;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // The read timeout elapsed without a complete command: free
                // the worker for a client that is actually talking.
                let timeout = read_timeout.unwrap_or_default();
                write_frame(
                    &mut writer,
                    &[format!(
                        "idle: no complete command in {timeout:?}; disconnecting"
                    )],
                )?;
                return writer.flush();
            }
            Err(e) => return Err(e),
        }
        let response = shell.execute(line.trim_end_matches(['\n', '\r']));
        write_frame(&mut writer, &response.lines)?;
        // A client that pipelines (a `.load` block of thousands of lines)
        // gets its replies in as few segments as they fit: the frames go out
        // once no complete command is left to read — so before this thread
        // can block on the socket — or earlier whenever the buffer fills.  A
        // closed-loop client's lone request is answered at once.
        if response.quit || !reader.buffer().contains(&b'\n') {
            writer.flush()?;
        }
        if response.quit {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal line-protocol client for the tests; `read_frame` reverses
    /// the server's dot-stuffing.
    struct Client {
        reader: BufReader<TcpStream>,
        writer: BufWriter<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let mut client = Client::connect_raw(addr);
            // Consume the greeting frame.
            client.read_frame();
            client
        }

        /// Connects without consuming the greeting (it is not sent until a
        /// worker picks the connection up).
        fn connect_raw(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone stream"));
            Client {
                reader,
                writer: BufWriter::new(stream),
            }
        }

        fn read_frame(&mut self) -> Vec<String> {
            let mut lines = Vec::new();
            loop {
                let mut line = String::new();
                let n = self.reader.read_line(&mut line).expect("read line");
                assert!(n > 0, "server closed mid-frame: {lines:?}");
                let line = line.trim_end_matches('\n');
                if line == TERMINATOR {
                    return lines;
                }
                // Undo dot-stuffing: any non-terminator line starting with
                // `.` was stuffed by the server; drop one leading dot.
                let line = line.strip_prefix('.').unwrap_or(line);
                lines.push(line.to_string());
            }
        }

        fn send(&mut self, line: &str) -> Vec<String> {
            writeln!(self.writer, "{line}").expect("write");
            self.writer.flush().expect("flush");
            self.read_frame()
        }

        /// Reads until EOF, asserting the server closed the connection.
        fn expect_eof(&mut self) {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read line");
            assert_eq!(n, 0, "expected EOF, got {line:?}");
        }
    }

    #[test]
    fn two_clients_share_one_session() {
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let handle = server.spawn().expect("spawn");
        let addr = handle.addr();

        let mut loader = Client::connect(addr);
        for line in [
            ".strategy constraint",
            ".load",
            "r1: path(X, Y) :- edge(X, Y).",
            "r2: path(X, Y) :- edge(X, Z), path(Z, Y).",
            "+edge(1, 2).",
            "+edge(2, 3).",
            "?- path(1, Y).",
        ] {
            loader.send(line);
        }
        let out = loader.send(".end");
        assert!(out[0].starts_with("ok: materialized"), "{out:?}");

        // The second client sees the session the first one loaded.
        let mut reader = Client::connect(addr);
        let out = reader.send("?- path(1, Y).");
        assert!(out[0].starts_with("answers: 2"), "{out:?}");

        // An insert from one client is visible to the other.
        let out = loader.send("+edge(3, 4).");
        assert!(out[0].starts_with("ok: epoch 1"), "{out:?}");
        let out = reader.send("?- path(1, Y).");
        assert!(out[0].starts_with("answers: 3"), "{out:?}");
        let out = reader.send(".stats");
        assert!(out.iter().any(|l| l.starts_with("epoch: 1")), "{out:?}");

        // So is a retraction: deleting edge(2, 3) takes path(1, 3),
        // path(1, 4), path(2, *) with it, DRed-style.
        let out = reader.send("-edge(2, 3).");
        assert!(out[0].starts_with("ok: epoch 2; -"), "{out:?}");
        let out = loader.send("?- path(1, Y).");
        assert!(out[0].starts_with("answers: 1"), "{out:?}");
        let out = loader.send("-edge(9, 9).");
        assert!(
            out[0].contains("not in the extensional database"),
            "{out:?}"
        );

        // The process-wide telemetry registry is reachable over the wire in
        // both renderings, and `.stats` carries the service gauges.
        let out = reader.send(".metrics");
        assert!(out[0].starts_with("telemetry:"), "{out:?}");
        assert!(out.iter().any(|l| l.contains("index_probes")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("slow queries")), "{out:?}");
        let out = reader.send(".metrics prom");
        assert!(
            out.iter().any(|l| l.starts_with("pcs_queries_total")),
            "{out:?}"
        );
        let out = reader.send(".metrics csv");
        assert!(
            out[0].starts_with("error: unknown .metrics mode"),
            "{out:?}"
        );
        let out = reader.send(".stats");
        assert!(
            out.iter().any(|l| l.starts_with("update queue depth:")),
            "{out:?}"
        );
        assert!(out.iter().any(|l| l.starts_with("epoch lag:")), "{out:?}");

        // Clean quits, then shutdown.
        assert_eq!(loader.send(".quit"), vec!["bye".to_string()]);
        assert_eq!(reader.send(".quit"), vec!["bye".to_string()]);
        handle.shutdown();
    }

    #[test]
    fn dot_payload_lines_are_stuffed_not_terminating() {
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut client = Client::connect(handle.addr());

        // A payload line that IS the terminator character: without
        // dot-stuffing the frame would end early (the pre-fix bug) and this
        // frame would come back empty, desynchronizing every later frame.
        let out = client.send(".echo .");
        assert_eq!(out, vec![".".to_string()]);
        // Payload lines merely *starting* with `.` survive too.
        let out = client.send(".echo .load me not");
        assert_eq!(out, vec![".load me not".to_string()]);
        // The stream is still in sync: an ordinary command works after.
        let out = client.send(".strategy");
        assert!(out[0].starts_with("strategy:"), "{out:?}");
        assert_eq!(client.send(".quit"), vec!["bye".to_string()]);
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_and_a_lone_one_at_once() {
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut client = Client::connect(handle.addr());
        // A reply the server sat on would otherwise hang the test.
        let timeout = Some(Duration::from_secs(20));
        client.reader.get_ref().set_read_timeout(timeout).unwrap();

        // One write of 1 000 commands: the replies may share segments, but
        // every command gets its own frame, in order.
        let block: String = (0..1000).map(|i| format!(".echo line {i}\n")).collect();
        client.writer.write_all(block.as_bytes()).expect("write");
        client.writer.flush().expect("flush");
        for i in 0..1000 {
            assert_eq!(client.read_frame(), vec![format!("line {i}")]);
        }

        // A lone request is answered without a second one being sent.
        assert_eq!(client.send(".echo alone"), vec!["alone".to_string()]);

        // So is a complete command followed by the start of the next: the
        // server does not wait for the rest before replying to the first.
        client.writer.write_all(b".echo first\n.echo sec").unwrap();
        client.writer.flush().expect("flush");
        assert_eq!(client.read_frame(), vec!["first".to_string()]);
        assert_eq!(client.send("ond"), vec!["second".to_string()]);
        assert_eq!(client.send(".quit"), vec!["bye".to_string()]);
        handle.shutdown();
    }

    #[test]
    fn accepted_sockets_send_without_delay_and_time_out_reads() -> io::Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let _client = TcpStream::connect(listener.local_addr()?)?;
        let (stream, _) = listener.accept()?;
        configure(&stream, Some(Duration::from_millis(250)))?;
        assert!(stream.nodelay()?);
        // The kernel rounds the timeout to its clock tick.
        assert!(stream.read_timeout()?.is_some());
        Ok(())
    }

    #[test]
    fn a_panicking_connection_does_not_take_its_worker_with_it() {
        let server = Server::bind("127.0.0.1:0")
            .expect("bind")
            .with_options(ServerOptions {
                workers: 1,
                ..ServerOptions::default()
            });
        let handle = server.spawn().expect("spawn");
        let addr = handle.addr();

        let mut doomed = Client::connect(addr);
        for line in [
            ".strategy none",
            ".load",
            "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.",
            "r3: flight(S, D, T, C) :- singleleg(S, D, T, C), T > 0, C > 0.",
            "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
             T = T1 + T2 + 30, C = C1 + C2.",
            "+singleleg(madison, chicago, 50, 100).",
            "+singleleg(chicago, seattle, 60, 40).",
            "?- cheaporshort(madison, seattle, T, C).",
        ] {
            doomed.send(line);
        }
        let out = doomed.send(".end");
        assert!(out[0].starts_with("ok: materialized"), "{out:?}");
        // `T = T1 + T2 + 30` over this leg overflows i128 in the evaluation
        // the insert runs: the connection is dropped without a reply.
        let max = i128::MAX;
        writeln!(doomed.writer, "+singleleg(overflow, madison, {max}, 1).").unwrap();
        doomed.writer.flush().expect("flush");
        doomed.expect_eof();

        // The one worker survived: the next client is greeted and answered
        // from the epoch the failed update never published.
        let mut next = Client::connect_raw(addr);
        // A dead worker would leave this greeting unsent forever.
        let timeout = Some(Duration::from_secs(20));
        next.reader.get_ref().set_read_timeout(timeout).unwrap();
        let greeting = next.read_frame();
        assert!(greeting[0].starts_with("pcs-service ready"), "{greeting:?}");
        let out = next.send("?- cheaporshort(madison, seattle, T, C).");
        assert!(out[0].starts_with("answers: 1 "), "{out:?}");
        assert!(out[0].contains("epoch 0"), "{out:?}");
        assert_eq!(out[1].trim(), "cheaporshort(madison, seattle, 140, 140)");
        assert_eq!(next.send(".quit"), vec!["bye".to_string()]);
        handle.shutdown();
    }

    #[test]
    fn stalled_clients_are_disconnected_after_the_read_timeout() {
        let server = Server::bind("127.0.0.1:0")
            .expect("bind")
            .with_options(ServerOptions {
                read_timeout: Some(Duration::from_millis(150)),
                ..ServerOptions::default()
            });
        let handle = server.spawn().expect("spawn");

        // Connect and hang without sending anything.
        let mut stalled = Client::connect(handle.addr());
        let frame = stalled.read_frame();
        assert!(
            frame[0].starts_with("idle: no complete command"),
            "{frame:?}"
        );
        stalled.expect_eof();

        // The freed worker serves the next client normally.
        let mut live = Client::connect(handle.addr());
        assert_eq!(live.send(".quit"), vec!["bye".to_string()]);
        handle.shutdown();
    }

    #[test]
    fn connections_beyond_the_queue_depth_are_refused() {
        let server = Server::bind("127.0.0.1:0")
            .expect("bind")
            .with_options(ServerOptions {
                workers: 1,
                queue_depth: 1,
                read_timeout: None,
            });
        let handle = server.spawn().expect("spawn");
        let addr = handle.addr();

        // `first` owns the single worker (greeting received = being served).
        let mut first = Client::connect(addr);
        // `second` occupies the whole wait queue; no worker is free to greet
        // it yet.
        let second = Client::connect_raw(addr);
        // `third` finds the queue full and is refused outright.
        let mut third = Client::connect_raw(addr);
        let frame = third.read_frame();
        assert!(
            frame[0].starts_with("busy: server at connection capacity"),
            "{frame:?}"
        );
        third.expect_eof();

        // When `first` leaves, the worker picks `second` up.
        assert_eq!(first.send(".quit"), vec!["bye".to_string()]);
        let mut second = second;
        let greeting = second.read_frame();
        assert!(greeting[0].starts_with("pcs-service ready"), "{greeting:?}");
        assert_eq!(second.send(".quit"), vec!["bye".to_string()]);
        handle.shutdown();
    }
}
