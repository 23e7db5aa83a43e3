//! The socket server: N resident reader threads answering the line
//! protocol over TCP or unix-domain sockets.
//!
//! Each reader is a long-lived [`ThreadPool::spawn_resident`] task owning
//! a clone of the listener: it accepts a connection, answers request
//! lines until the peer hangs up, then accepts the next — so `readers`
//! bounds the number of concurrently served connections. The listener is
//! non-blocking and accepted streams get a short read timeout, so every
//! reader observes the stop signal within tens of milliseconds of
//! [`ServerHandle`] dropping; no thread is ever parked unwakeably in a
//! syscall.
//!
//! The hot path holds no locks: readers share the immutable
//! [`crate::QueryPlanner`] (an `Arc` of the published index) and a
//! per-thread reusable output buffer. The serving counters go into the
//! planner's [`HealthGauges`], the same registry `health` reports, so
//! a static, primary or follower daemon starts the same way and only
//! differs in the registry's role and whether a writer is attached.
//!
//! # Overload and failure behavior
//!
//! [`ServeOptions`] bounds every way a connection can consume the
//! server:
//!
//! - **Connection cap** — a connection accepted beyond `max_conns` is
//!   turned away with a single `err busy` line and closed; the readers
//!   serving within the cap are unaffected.
//! - **Expensive-verb shedding** — while demand exceeds the cap, the
//!   ranked top-k (`partners`) and multi-month history (`pair`) verbs
//!   answer `err busy` before touching the index; point lookups and
//!   liveness keep answering.
//! - **Per-request deadline** — a request line that dribbles in slower
//!   than `request_deadline` (slow-loris) gets `err timeout` and the
//!   connection is closed.
//! - **Idle timeout** — a connection with no traffic for `idle_timeout`
//!   is closed (with a final `err timeout` courtesy line).
//! - **Panic isolation** — a panic while answering kills only that
//!   connection; the reader accepts the next one.
//! - **Graceful drain** — [`ServerHandle::drain`] stops accepting,
//!   lets in-flight requests finish (bounded by `drain_deadline`), then
//!   joins the readers and reports the final counters.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use sibling_dns::SnapshotDelta;
use sibling_executor::{ResidentCtx, ThreadPool};

use crate::ingest::IngestSink;
use crate::planner::QueryPlanner;
use crate::protocol::{parse_request, ProtocolError, Request};
use crate::replicate::HealthGauges;

/// How long an accept/read blocks before re-checking the stop signal.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// How long a shed connection lingers after its `err busy` line so the
/// client can read it before the close (see [`shed_conn`]).
const SHED_LINGER: Duration = Duration::from_millis(100);

/// How long a reader waits for the writer thread to apply one delta
/// before answering `err timeout`. Generous: an ingest rescoring many
/// dirty shards legitimately takes seconds at paper scale.
const INGEST_DEADLINE: Duration = Duration::from_secs(120);

/// Where to serve.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP listen address, e.g. `127.0.0.1:7700` (port `0` picks one).
    Tcp(String),
    /// A unix-domain socket path (removed on shutdown).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Resource bounds for a serving session (see the module docs for the
/// semantics of each knob).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Connections served concurrently before new ones are shed with
    /// `err busy`. `0` (the default) means "as many as there are
    /// readers" — the natural capacity, since each reader serves one
    /// connection at a time.
    pub max_conns: usize,
    /// How long one request line may take to fully arrive before the
    /// connection gets `err timeout` and is closed.
    pub request_deadline: Duration,
    /// How long a connection may sit with no traffic before it is
    /// closed (slow-loris/abandoned-peer protection).
    pub idle_timeout: Duration,
    /// How long [`ServerHandle::drain`] waits for in-flight connections
    /// to finish before joining the readers regardless.
    pub drain_deadline: Duration,
    /// Shed expensive verbs (`partners`, `pair`) when at least this
    /// many connections are active. `0` (the default) resolves to
    /// `max_conns + 1`: shedding starts only while demand exceeds the
    /// connection cap.
    pub shed_expensive_at: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_conns: 0,
            request_deadline: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            shed_expensive_at: 0,
        }
    }
}

/// A point-in-time copy of the serving counters in a daemon's
/// [`HealthGauges`] (readable while running via [`ServerHandle::stats`],
/// final values in the [`DrainReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStatsSnapshot {
    /// Requests answered (including `err` answers).
    pub served: u64,
    /// Connections turned away at the cap.
    pub shed_connections: u64,
    /// Expensive-verb requests shed under pressure.
    pub shed_requests: u64,
    /// Connections closed by the request deadline or idle timeout.
    pub timeouts: u64,
    /// Connections killed by a panic while answering.
    pub panics: u64,
    /// Deltas handed to the writer thread (accepted `ingest` requests).
    pub ingests: u64,
    /// Ingests that failed to apply (validation, journal, publication,
    /// or a panic in the sink) and were rolled back.
    pub ingest_failures: u64,
    /// Epochs published by successful ingests (excludes the initial
    /// epoch the daemon starts on).
    pub epochs: u64,
}

impl std::fmt::Display for ServeStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} request(s), shed {} connection(s) and {} request(s), \
             {} timeout(s), {} panic(s), ingested {} delta(s) ({} failed, \
             {} epoch(s) published)",
            self.served,
            self.shed_connections,
            self.shed_requests,
            self.timeouts,
            self.panics,
            self.ingests,
            self.ingest_failures,
            self.epochs
        )
    }
}

/// What [`ServerHandle::drain`] observed.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Whether every in-flight connection finished within the drain
    /// deadline (`false`: the readers were joined anyway — they close
    /// their connections at the next poll tick).
    pub drained: bool,
    /// Final serving counters.
    pub stats: ServeStatsSnapshot,
}

/// A bound listener of either flavor.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn try_clone(&self) -> io::Result<Listener> {
        Ok(match self {
            Listener::Tcp(l) => Listener::Tcp(l.try_clone()?),
            #[cfg(unix)]
            Listener::Unix(l) => Listener::Unix(l.try_clone()?),
        })
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        Ok(match self {
            Listener::Tcp(l) => Conn::Tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix(l) => Conn::Unix(l.accept()?.0),
        })
    }
}

/// An accepted connection of either flavor.
pub(crate) enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Half-closes the write side, signalling EOF to the peer while its
    /// pending bytes can still be drained.
    fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    fn prepare(&self, read_timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(read_timeout)?;
                // Request/response round-trips: answer latency beats
                // segment coalescing.
                s.set_nodelay(true)
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(read_timeout)
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// One queued `ingest` request: the decoded delta and the channel the
/// waiting reader blocks on for the writer's verdict (the new epoch, or
/// the rendered failure).
struct IngestJob {
    delta: SnapshotDelta,
    reply: mpsc::SyncSender<Result<u64, String>>,
}

/// State every reader shares: the planner (whose health registry the
/// counters go to), the stop signal and the active connection gauge.
struct Shared {
    planner: QueryPlanner,
    stop: AtomicBool,
    active: AtomicUsize,
    max_conns: usize,
    /// Active-connection count at which expensive verbs shed.
    pressure_at: usize,
    request_deadline: Duration,
    idle_timeout: Duration,
    drain_deadline: Duration,
    /// The writer thread's inbox — `None` on read-only daemons, where
    /// `ingest` answers `err read-only`. The mutex serializes senders;
    /// it is held only for the (non-blocking) enqueue.
    ingest: Option<Mutex<mpsc::Sender<IngestJob>>>,
}

impl Shared {
    fn stopping(&self, ctx: &ResidentCtx) -> bool {
        self.stop.load(Ordering::Acquire) || ctx.stopping()
    }
}

/// A bound-but-not-yet-serving server. Binding is split from serving so
/// the caller can print the resolved endpoint (e.g. the picked TCP port)
/// before the readers start.
pub struct Server {
    listener: Listener,
    endpoint: String,
    socket_path: Option<PathBuf>,
}

impl Server {
    /// Binds the endpoint. A stale unix socket file at the path is
    /// replaced (the previous daemon is assumed dead; a live one would
    /// have the file open, and its readers keep serving their fd).
    pub fn bind(endpoint: &Endpoint) -> io::Result<Server> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let endpoint = format!("tcp://{}", listener.local_addr()?);
                Ok(Server {
                    listener: Listener::Tcp(listener),
                    endpoint,
                    socket_path: None,
                })
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Ok(Server {
                    listener: Listener::Unix(listener),
                    endpoint: format!("unix://{}", path.display()),
                    socket_path: Some(path.clone()),
                })
            }
        }
    }

    /// The resolved endpoint (`tcp://HOST:PORT` or `unix://PATH`) — what
    /// [`crate::Client::connect`] accepts.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Starts `readers` resident reader threads on `pool` and returns
    /// the running server's handle. The pool is moved in: the server owns
    /// it for the rest of its life, and dropping the handle stops the
    /// readers and joins them (via the pool's own shutdown signal).
    pub fn start_with(
        self,
        planner: QueryPlanner,
        pool: ThreadPool,
        readers: usize,
        options: ServeOptions,
    ) -> io::Result<ServerHandle> {
        self.launch(planner, pool, readers, options, None)
    }

    /// [`Server::start_with`] plus a writer: one extra resident thread
    /// owns `sink` and applies queued `ingest` deltas strictly in
    /// arrival order, so readers stay lock-free while the window
    /// advances epoch by epoch.
    pub fn start_live(
        self,
        planner: QueryPlanner,
        pool: ThreadPool,
        readers: usize,
        options: ServeOptions,
        sink: Box<dyn IngestSink>,
    ) -> io::Result<ServerHandle> {
        self.launch(planner, pool, readers, options, Some(sink))
    }

    fn launch(
        self,
        planner: QueryPlanner,
        pool: ThreadPool,
        readers: usize,
        options: ServeOptions,
        sink: Option<Box<dyn IngestSink>>,
    ) -> io::Result<ServerHandle> {
        self.listener.set_nonblocking(true)?;
        let readers = readers.max(1);
        let max_conns = match options.max_conns {
            0 => readers,
            n => n,
        };
        let (ingest, writer) = match sink {
            Some(sink) => {
                let (tx, rx) = mpsc::channel();
                (Some(Mutex::new(tx)), Some((sink, rx)))
            }
            None => (None, None),
        };
        let shared = Arc::new(Shared {
            planner,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_conns,
            pressure_at: match options.shed_expensive_at {
                0 => max_conns + 1,
                n => n,
            },
            request_deadline: options.request_deadline,
            idle_timeout: options.idle_timeout,
            drain_deadline: options.drain_deadline,
            ingest,
        });
        if let Some((sink, rx)) = writer {
            let shared = Arc::clone(&shared);
            pool.spawn_resident(move |ctx| writer_loop(sink, rx, shared, ctx));
        }
        for _ in 0..readers {
            let listener = self.listener.try_clone()?;
            let shared = Arc::clone(&shared);
            pool.spawn_resident(move |ctx| reader_loop(listener, shared, ctx));
        }
        Ok(ServerHandle {
            pool: Some(pool),
            shared,
            endpoint: self.endpoint,
            socket_path: self.socket_path,
        })
    }
}

/// A running server. Dropping it stops and joins every reader thread and
/// removes the unix socket file, if any.
pub struct ServerHandle {
    pool: Option<ThreadPool>,
    shared: Arc<Shared>,
    endpoint: String,
    socket_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The resolved endpoint (see [`Server::endpoint`]).
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The serving counters so far.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.shared.planner.gauges().snapshot()
    }

    /// Blocks the calling thread until the process is killed — the
    /// daemon's steady state after printing its readiness line.
    pub fn park_forever(&self) -> ! {
        loop {
            std::thread::park();
        }
    }

    /// Gracefully winds the server down: stops accepting, waits (up to
    /// the drain deadline) for in-flight connections to finish their
    /// current request, then joins the readers and reports the final
    /// counters.
    pub fn drain(mut self) -> DrainReport {
        self.shared.stop.store(true, Ordering::Release);
        let deadline = Instant::now() + self.shared.drain_deadline;
        while self.shared.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let drained = self.shared.active.load(Ordering::Acquire) == 0;
        // Joins the readers; they poll the stop flag at least every
        // POLL_INTERVAL, so this returns promptly even when not drained.
        drop(self.pool.take());
        DrainReport {
            drained,
            stats: self.shared.planner.gauges().snapshot(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Joins workers then residents; readers poll the stop flag at
        // least every POLL_INTERVAL, so this returns promptly.
        drop(self.pool.take());
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One reader thread: accept, serve the connection to EOF, repeat. A
/// connection beyond the cap is turned away with `err busy`; a panic
/// while serving kills only that connection.
fn reader_loop(listener: Listener, shared: Arc<Shared>, ctx: ResidentCtx) {
    let mut out = String::new();
    while !shared.stopping(&ctx) {
        // Failpoint: a transient accept failure (e.g. peer reset
        // mid-handshake) — same handling as the real thing below.
        if sibling_failpoint::point("service::accept") {
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }
        match listener.accept() {
            Ok(conn) => {
                let active = shared.active.fetch_add(1, Ordering::AcqRel) + 1;
                if active > shared.max_conns {
                    HealthGauges::bump(&shared.planner.gauges().shed_connections);
                    let _ = shed_conn(conn, active, shared.max_conns);
                } else {
                    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // Transport errors end the connection, never the
                        // reader.
                        let _ = serve_conn(&shared, conn, &mut out, &ctx);
                    }));
                    if served.is_err() {
                        HealthGauges::bump(&shared.planner.gauges().panics);
                        out = String::new();
                    }
                }
                shared.active.fetch_sub(1, Ordering::AcqRel);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            // Transient accept failures (e.g. peer reset mid-handshake).
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// The writer thread: applies queued deltas through the sink, strictly
/// in arrival order, and always answers the waiting reader. A panic in
/// the sink is caught and reported as a failed ingest — the sink is
/// expected to have rolled back to its last published epoch (see
/// [`sibling_core::EpochState`]), so the thread keeps serving.
fn writer_loop(
    mut sink: Box<dyn IngestSink>,
    jobs: mpsc::Receiver<IngestJob>,
    shared: Arc<Shared>,
    ctx: ResidentCtx,
) {
    loop {
        match jobs.recv_timeout(POLL_INTERVAL) {
            Ok(job) => {
                HealthGauges::bump(&shared.planner.gauges().ingests);
                let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    sink.ingest(&job.delta)
                }));
                let outcome = match applied {
                    Ok(Ok(epoch)) => {
                        HealthGauges::bump(&shared.planner.gauges().epochs);
                        Ok(epoch)
                    }
                    Ok(Err(detail)) => {
                        HealthGauges::bump(&shared.planner.gauges().ingest_failures);
                        Err(detail)
                    }
                    Err(payload) => {
                        HealthGauges::bump(&shared.planner.gauges().ingest_failures);
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        Err(format!("ingest panicked: {msg}"))
                    }
                };
                // The reader may have timed out and gone; that loses
                // only the notification, never the applied epoch.
                let _ = job.reply.send(outcome);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.stopping(&ctx) {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Answers one `ingest` line: decode, enqueue to the writer, block for
/// its verdict. Runs on the reader thread; the ingest itself runs on
/// the writer thread so a second connection's point queries never queue
/// behind a rescore.
fn answer_ingest(shared: &Shared, line: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.clear();
    let outcome = (|| {
        let request = parse_request(line)?;
        let Request::Ingest(delta) = request else {
            // Verb-sniffed by the caller; parse can only agree.
            return Err(ProtocolError::Usage {
                verb: "ingest",
                usage: "HEX-ENCODED-DELTA",
            });
        };
        let sender = shared.ingest.as_ref().ok_or(ProtocolError::ReadOnly)?;
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        sender
            .lock()
            .expect("ingest sender poisoned")
            .send(IngestJob {
                delta,
                reply: reply_tx,
            })
            .map_err(|_| ProtocolError::IngestFailed {
                detail: "writer thread is gone".into(),
            })?;
        match reply_rx.recv_timeout(INGEST_DEADLINE) {
            Ok(Ok(epoch)) => Ok(epoch),
            Ok(Err(detail)) => Err(ProtocolError::IngestFailed { detail }),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ProtocolError::Timeout {
                what: "ingest",
                budget_ms: INGEST_DEADLINE.as_millis() as u64,
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ProtocolError::IngestFailed {
                detail: "writer thread died before answering".into(),
            }),
        }
    })();
    match outcome {
        Ok(epoch) => {
            let _ = write!(out, "ok 1\n{epoch}\n");
        }
        Err(error) => {
            let _ = writeln!(out, "err {} {}", error.code(), error);
        }
    }
}

/// Turns away a connection beyond the cap: one `err busy` line, close.
fn shed_conn(mut conn: Conn, active: usize, max: usize) -> io::Result<()> {
    conn.prepare(Some(POLL_INTERVAL))?;
    let error = ProtocolError::Busy {
        what: "connection",
        active,
        max,
    };
    conn.write_all(format!("err {} {}\n", error.code(), error).as_bytes())?;
    // Half-close, then briefly drain whatever request the client had in
    // flight: dropping the socket outright would RST past the un-read
    // busy line on most TCP stacks, turning a typed shed into an opaque
    // connection reset. Bounded so a client that keeps sending cannot
    // pin the reader.
    conn.shutdown_write()?;
    let deadline = Instant::now() + SHED_LINGER;
    let mut sink = [0u8; 256];
    while Instant::now() < deadline {
        match conn.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    Ok(())
}

/// Serves one connection until EOF, transport error, deadline or drain.
fn serve_conn(shared: &Shared, conn: Conn, out: &mut String, ctx: &ResidentCtx) -> io::Result<()> {
    conn.prepare(Some(POLL_INTERVAL))?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    // Last completed request (or connection start): both deadlines are
    // measured from here.
    let mut last_done = Instant::now();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {
                // Failpoint: a panic mid-answer (isolated by the reader
                // loop's catch_unwind — only this connection dies).
                let _ = sibling_failpoint::point("service::answer");
                let active = shared.active.load(Ordering::Acquire);
                let pressure = (active >= shared.pressure_at).then_some((active, shared.max_conns));
                if line.split_whitespace().next() == Some("ingest") {
                    // Writes bypass the read planner (and read-pressure
                    // shedding): the writer thread serializes them.
                    answer_ingest(shared, &line, out);
                } else {
                    // Failpoint: the primary dies (or the connection
                    // tears) instead of answering a feed poll — the
                    // follower must resync from its cursor.
                    if line.split_whitespace().next() == Some("sub") {
                        sibling_failpoint::io_point("replication::send")
                            .map_err(|e| io::Error::new(io::ErrorKind::ConnectionReset, e))?;
                    }
                    shared
                        .planner
                        .answer_line_under_pressure(&line, out, pressure);
                }
                if out.starts_with("err busy ") {
                    HealthGauges::bump(&shared.planner.gauges().shed_requests);
                }
                // Failpoint: a stalled or failed response write.
                sibling_failpoint::io_point("service::write")
                    .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e))?;
                reader.get_mut().write_all(out.as_bytes())?;
                HealthGauges::bump(&shared.planner.gauges().served);
                line.clear();
                last_done = Instant::now();
                // Drain: the in-flight request just finished; close
                // instead of reading the next one.
                if shared.stopping(ctx) {
                    return Ok(());
                }
            }
            // Timeout: `read_line` keeps any partial line in `line`
            // (documented for `read_until`), so resuming is lossless.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stopping(ctx) {
                    return Ok(());
                }
                let waited = last_done.elapsed();
                if !line.is_empty() && waited >= shared.request_deadline {
                    // Slow-loris: the request line is dribbling in
                    // slower than the deadline.
                    HealthGauges::bump(&shared.planner.gauges().timeouts);
                    return close_timed_out(reader.get_mut(), "request", shared.request_deadline);
                }
                if line.is_empty() && waited >= shared.idle_timeout {
                    HealthGauges::bump(&shared.planner.gauges().timeouts);
                    return close_timed_out(
                        reader.get_mut(),
                        "idle connection",
                        shared.idle_timeout,
                    );
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Sends the courtesy `err timeout` line and ends the connection.
fn close_timed_out(conn: &mut Conn, what: &'static str, budget: Duration) -> io::Result<()> {
    let error = ProtocolError::Timeout {
        what,
        budget_ms: budget.as_millis() as u64,
    };
    conn.write_all(format!("err {} {}\n", error.code(), error).as_bytes())
}
