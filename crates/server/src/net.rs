//! Listeners and session loops for the line protocol.
//!
//! One thread accepts, one detached thread per connection runs the session.
//! Everything polls with short timeouts against a shared shutdown flag, so
//! [`ServeHandle::shutdown`] stops the server without wedging on a blocked
//! `accept(2)` or `read(2)` — important for the in-process servers the soak
//! driver and tests host.
//!
//! Sessions are defended against misbehaving peers: an idle timeout closes
//! silent connections (and, separately, connections stalled mid-request), a
//! per-write socket deadline disconnects clients that stop draining their
//! replies, a request line is capped at [`MAX_REQUEST_LINE_BYTES`] (a longer
//! one gets an `ERR` line and the session ends), reply buffers are capped at
//! [`MAX_REPLY_BYTES`] (an oversized answer becomes an `ERR` line, not
//! unbounded memory), and a write failure (`EPIPE`, reset, timed
//! out) tears down *only* that session with a structured [`SessionEnd`]
//! reason — one log line, no panic, no per-byte spam. [`NetStats`] counts
//! every outcome so tests and operators can see what connections did.

use crate::health::ServerState;
use crate::proto::{err_line, parse_request, Request, MAX_REQUEST_LINE_BYTES};
use crate::service::{QueryService, ServerError};
use alexander_core::Strategy;
use alexander_ir::Symbol;
use alexander_parser::parse_atom;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often blocked reads/accepts re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// The largest reply a session buffers, in bytes; a larger one is replaced
/// by a one-line `ERR`.
pub const MAX_REPLY_BYTES: usize = 16 << 20;

/// Why a session ended. `Quit`/`Eof`/`Shutdown` are clean; the rest are
/// defects of the connection (and get exactly one log line each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client said QUIT.
    Quit,
    /// The client closed the connection (clean EOF at a line boundary).
    Eof,
    /// The server is shutting down.
    Shutdown,
    /// No bytes for longer than the idle timeout.
    Idle,
    /// A request line started but never finished within the idle timeout
    /// (half-open socket or a peer trickling a frame forever).
    Stalled,
    /// A request line ran past [`MAX_REQUEST_LINE_BYTES`] without a
    /// newline; the peer got one `ERR` line.
    Oversized,
    /// The peer stopped draining replies; a socket write missed its
    /// deadline.
    SlowClient,
    /// The peer vanished mid-reply (`EPIPE` / connection reset).
    ClientGone,
    /// Some other read-side IO error.
    ReadError,
    /// Some other write-side IO error.
    WriteError,
}

impl SessionEnd {
    /// True for the outcomes worth a log line.
    pub fn is_abnormal(self) -> bool {
        !matches!(
            self,
            SessionEnd::Quit | SessionEnd::Eof | SessionEnd::Shutdown
        )
    }
}

/// Connection counters for one listener: how many sessions are live and how
/// every finished one ended.
#[derive(Debug, Default)]
pub struct NetStats {
    active: AtomicUsize,
    accepted: AtomicU64,
    /// Finished sessions per outcome, by the outcome's position in `ENDS`.
    ended: [AtomicU64; 10],
}

impl NetStats {
    /// Sessions currently running.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Connections accepted since the listener started.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// How many sessions ended with `end`.
    pub fn ended(&self, end: SessionEnd) -> u64 {
        self.counter(end).load(Ordering::Relaxed)
    }

    fn counter(&self, end: SessionEnd) -> &AtomicU64 {
        // invariant: `ENDS` lists every outcome.
        let i = Self::ENDS.iter().position(|&(e, _)| e == end);
        &self.ended[i.expect("every session end is in ENDS")]
    }

    /// Every session-end outcome with its wire name, for `STATS` lines.
    const ENDS: [(SessionEnd, &'static str); 10] = [
        (SessionEnd::Quit, "quit"),
        (SessionEnd::Eof, "eof"),
        (SessionEnd::Shutdown, "shutdown"),
        (SessionEnd::Idle, "idle"),
        (SessionEnd::Stalled, "stalled"),
        (SessionEnd::Oversized, "oversized"),
        (SessionEnd::SlowClient, "slow_client"),
        (SessionEnd::ClientGone, "client_gone"),
        (SessionEnd::ReadError, "read_error"),
        (SessionEnd::WriteError, "write_error"),
    ];
}

/// A running server; dropping it (or calling [`ServeHandle::shutdown`])
/// stops the accept loop and lets session threads drain.
pub struct ServeHandle {
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    stats: Arc<NetStats>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ServeHandle {
    /// The bound TCP address (useful after binding port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound unix-socket path.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// This listener's connection counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Stops accepting, signals sessions to finish, joins the accept loop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Graceful variant: stops accepting, then waits up to `drain` for
    /// in-flight sessions to finish before removing the socket file.
    /// Returns true when every session drained within the deadline.
    /// Sessions notice the flag at their next 50ms read poll; one blocked
    /// on a slow client's write may take up to the write deadline.
    pub fn shutdown_graceful(mut self, drain: Duration) -> bool {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            t.join().ok();
        }
        let deadline = Instant::now() + drain;
        while self.stats.active() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let drained = self.stats.active() == 0;
        if let Some(p) = self.unix_path.take() {
            std::fs::remove_file(p).ok();
        }
        drained
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            t.join().ok();
        }
        if let Some(p) = self.unix_path.take() {
            std::fs::remove_file(p).ok();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Non-blocking accept abstracted over listener types.
trait Acceptor: Send + 'static {
    type Stream: Read + Write + Send + 'static;
    /// `Ok(None)` when no connection is pending right now.
    fn poll_accept(&self, write_timeout: Option<Duration>) -> io::Result<Option<Self::Stream>>;
}

impl Acceptor for TcpListener {
    type Stream = std::net::TcpStream;
    fn poll_accept(&self, write_timeout: Option<Duration>) -> io::Result<Option<Self::Stream>> {
        match self.accept() {
            Ok((s, _)) => {
                s.set_read_timeout(Some(POLL))?;
                s.set_write_timeout(write_timeout)?;
                // Responses are written as one buffered chunk; without
                // NODELAY, Nagle + delayed ACK can stall every reply ~40ms.
                s.set_nodelay(true)?;
                Ok(Some(s))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Acceptor for UnixListener {
    type Stream = std::os::unix::net::UnixStream;
    fn poll_accept(&self, write_timeout: Option<Duration>) -> io::Result<Option<Self::Stream>> {
        match self.accept() {
            Ok((s, _)) => {
                s.set_read_timeout(Some(POLL))?;
                s.set_write_timeout(write_timeout)?;
                Ok(Some(s))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Serves the protocol on a TCP address (`"127.0.0.1:0"` picks a port).
pub fn serve_tcp(service: Arc<QueryService>, addr: &str) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(NetStats::default());
    let accept = spawn_accept_loop(listener, service, shutdown.clone(), stats.clone());
    Ok(ServeHandle {
        shutdown,
        accept: Some(accept),
        stats,
        tcp_addr: Some(local),
        unix_path: None,
    })
}

/// Serves the protocol on a unix socket. A stale socket file (nothing
/// accepting on it) is replaced; a path with a live server behind it is
/// refused with `AddrInUse` rather than stolen out from under it.
pub fn serve_unix(service: Arc<QueryService>, path: &Path) -> io::Result<ServeHandle> {
    if path.exists() {
        match std::os::unix::net::UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} already has a live server", path.display()),
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                std::fs::remove_file(path)?;
            }
            Err(e) => return Err(e),
        }
    }
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(NetStats::default());
    let accept = spawn_accept_loop(listener, service, shutdown.clone(), stats.clone());
    Ok(ServeHandle {
        shutdown,
        accept: Some(accept),
        stats,
        tcp_addr: None,
        unix_path: Some(path.to_path_buf()),
    })
}

fn spawn_accept_loop<A: Acceptor>(
    listener: A,
    service: Arc<QueryService>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<NetStats>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let write_timeout = service.config().write_timeout;
        while !shutdown.load(Ordering::SeqCst) {
            match listener.poll_accept(write_timeout) {
                Ok(Some(stream)) => {
                    let service = service.clone();
                    let shutdown = shutdown.clone();
                    let stats = stats.clone();
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    stats.active.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        let end = session(&service, wrap_stream(stream), &shutdown, &stats);
                        stats.counter(end).fetch_add(1, Ordering::Relaxed);
                        stats.active.fetch_sub(1, Ordering::SeqCst);
                        if end.is_abnormal() {
                            // One structured line per abnormal teardown; a
                            // dropped connection is the client's business,
                            // not a server failure.
                            eprintln!("session closed: {end:?}");
                        }
                    });
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
    })
}

/// Interposes the socket failpoints when they are compiled in.
fn wrap_stream<S: Read + Write>(stream: S) -> impl Read + Write {
    #[cfg(feature = "failpoints")]
    return crate::faults::FaultStream::new(stream);
    #[cfg(not(feature = "failpoints"))]
    stream
}

/// A reply buffer with a hard size cap: past the cap it stops storing and
/// remembers the overflow, and [`CappedBuf::take`] substitutes a one-line
/// `ERR` so a pathological answer can't balloon server memory (the query
/// itself is still bounded by the session budget).
struct CappedBuf {
    buf: Vec<u8>,
    cap: usize,
    overflowed: bool,
}

impl CappedBuf {
    fn new(cap: usize) -> CappedBuf {
        CappedBuf {
            buf: Vec::new(),
            cap: cap.max(256),
            overflowed: false,
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.overflowed = false;
    }

    /// The bytes to put on the wire for this reply.
    fn wire(&mut self) -> &[u8] {
        if self.overflowed {
            self.buf.clear();
            self.buf.extend_from_slice(
                format!("ERR reply exceeds {} bytes; narrow the query\n", self.cap).as_bytes(),
            );
            self.overflowed = false;
        }
        &self.buf
    }
}

impl Write for CappedBuf {
    fn write(&mut self, chunk: &[u8]) -> io::Result<usize> {
        if !self.overflowed {
            if self.buf.len() + chunk.len() > self.cap {
                self.overflowed = true;
            } else {
                self.buf.extend_from_slice(chunk);
            }
        }
        // Report success either way: protocol formatting must finish so the
        // session can substitute the ERR line and keep running.
        Ok(chunk.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn classify_write_error(e: &io::Error) -> SessionEnd {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => SessionEnd::SlowClient,
        io::ErrorKind::BrokenPipe
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted => SessionEnd::ClientGone,
        _ => SessionEnd::WriteError,
    }
}

/// One connection's lifetime: read a line, answer it, until QUIT/EOF — or
/// until a deadline or the peer's misbehaviour ends it (see [`SessionEnd`]).
fn session<S: Read + Write>(
    service: &QueryService,
    stream: S,
    shutdown: &AtomicBool,
    net: &NetStats,
) -> SessionEnd {
    let idle_timeout = service.config().idle_timeout;
    let mut reply = CappedBuf::new(MAX_REPLY_BYTES);
    let mut reader = BufReader::new(stream);
    let mut tenant = String::from("anon");
    let mut line = Vec::new();
    let mut last_progress = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return SessionEnd::Shutdown;
        }
        let before = line.len();
        // Read at most one byte past the cap: a line that never ends costs
        // bounded memory and is refused as soon as it passes the cap.
        let room = (MAX_REQUEST_LINE_BYTES + 1 - before) as u64;
        let eof = match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => true,
            // Without a trailing newline the read stopped at the cap or at
            // EOF; the cap is checked below.
            Ok(_) => !line.ends_with(b"\n"),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // The poll timeout fired mid-line; any bytes already read
                // were appended to `line`. Keep them and keep accumulating —
                // clearing here would corrupt a request that straddles a
                // stall and desynchronise the reply stream.
                if line.len() > before {
                    last_progress = Instant::now();
                } else if let Some(limit) = idle_timeout {
                    if last_progress.elapsed() >= limit {
                        // Silent with an empty buffer = idle; silent with a
                        // half-read request = stalled mid-frame.
                        return if line.is_empty() {
                            SessionEnd::Idle
                        } else {
                            SessionEnd::Stalled
                        };
                    }
                }
                continue;
            }
            Err(_) => return SessionEnd::ReadError,
        };
        last_progress = Instant::now();
        if eof && line.len() > MAX_REQUEST_LINE_BYTES {
            let refusal = format!("ERR request line exceeds {MAX_REQUEST_LINE_BYTES} bytes\n");
            let stream = reader.get_mut();
            // The session ends either way; a failed write changes nothing.
            stream
                .write_all(refusal.as_bytes())
                .and_then(|()| stream.flush())
                .ok();
            return SessionEnd::Oversized;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return SessionEnd::ReadError;
        };
        if text.trim().is_empty() {
            if eof {
                return SessionEnd::Eof;
            }
            line.clear();
            continue;
        }
        // Build the whole response first, then write it as one chunk: a
        // multi-line answer must not trickle out as per-line segments.
        reply.clear();
        // invariant: CappedBuf never returns an IO error.
        let quit = respond(service, &mut tenant, text, &mut reply, net).expect("infallible buffer");
        let wire = reply.wire();
        let wrote = reader
            .get_mut()
            .write_all(wire)
            .and_then(|()| reader.get_mut().flush());
        if let Err(e) = wrote {
            return classify_write_error(&e);
        }
        line.clear();
        if quit {
            return SessionEnd::Quit;
        }
        if eof {
            return SessionEnd::Eof;
        }
    }
}

/// The wire form of a service error. `BUSY` and `DEGRADED` carry machine-
/// readable markers clients key their retry behaviour off; everything else
/// is a flattened human-readable `ERR` line.
fn error_reply(e: &ServerError) -> String {
    match e {
        ServerError::Busy { retry_after_ms } => {
            format!("ERR BUSY retry-after-ms={retry_after_ms}")
        }
        ServerError::Degraded(reason) => err_line(&format!("DEGRADED {reason}")),
        other => err_line(&other.to_string()),
    }
}

/// Handles one request line; returns `true` when the session should close.
fn respond<W: Write>(
    service: &QueryService,
    tenant: &mut String,
    line: &str,
    w: &mut W,
    net: &NetStats,
) -> io::Result<bool> {
    let mut quit = false;
    match parse_request(line) {
        Err(e) => writeln!(w, "{}", err_line(&e))?,
        Ok(Request::Hello { tenant: t }) => {
            *tenant = t;
            writeln!(w, "OK tenant {tenant} epoch {}", service.generation())?;
        }
        Ok(Request::Query { atom, strategy }) => {
            match run_query(service, tenant, &atom, strategy) {
                Ok(r) => {
                    for a in &r.answers {
                        writeln!(w, "ANSWER {a}")?;
                    }
                    if r.complete {
                        writeln!(w, "OK {} epoch {} complete", r.answers.len(), r.generation)?;
                    } else {
                        writeln!(
                            w,
                            "OK {} epoch {} partial: {}",
                            r.answers.len(),
                            r.generation,
                            r.completion
                        )?;
                    }
                }
                Err(e) => writeln!(w, "{}", error_reply(&e))?,
            }
        }
        Ok(Request::Insert { fact }) => match mutate(service, &fact, true) {
            Ok(n) => writeln!(w, "OK pending {n}")?,
            Err(e) => writeln!(w, "{}", error_reply(&e))?,
        },
        Ok(Request::Delete { fact }) => match mutate(service, &fact, false) {
            Ok(n) => writeln!(w, "OK pending {n}")?,
            Err(e) => writeln!(w, "{}", error_reply(&e))?,
        },
        Ok(Request::Commit) => match service.commit() {
            Ok(info) => writeln!(
                w,
                "OK epoch {} committed {}",
                info.generation, info.committed
            )?,
            Err(e) => writeln!(w, "{}", error_reply(&e))?,
        },
        Ok(Request::Epoch) => writeln!(w, "OK epoch {}", service.generation())?,
        Ok(Request::Health) => match service.state() {
            ServerState::Healthy => {
                writeln!(w, "OK healthy epoch {}", service.generation())?;
            }
            ServerState::Degraded { reason } => {
                let flat = reason.replace('\n', "; ");
                writeln!(w, "OK degraded epoch {} {flat}", service.generation())?;
            }
        },
        Ok(Request::Stats) => {
            let n = write_stats(service, net, w)?;
            writeln!(w, "OK {n} epoch {}", service.generation())?;
        }
        Ok(Request::Ping) => writeln!(w, "OK pong")?,
        Ok(Request::Quit) => {
            writeln!(w, "OK bye")?;
            quit = true;
        }
    }
    w.flush()?;
    Ok(quit)
}

/// Writes the `STAT <section>.<key> <value>` lines for a `STATS` request:
/// this listener's connection counters ([`NetStats`]), the admission
/// controller's live occupancy and shed total, and the health state
/// machine's transition counts, and how many symbols the process-global
/// interner holds (it only grows, so a rising value between two `STATS`
/// names a path that interns per request). Returns how many lines were
/// written (the terminal `OK` line echoes it, mirroring `QUERY`'s answer
/// count).
fn write_stats<W: Write>(service: &QueryService, net: &NetStats, w: &mut W) -> io::Result<usize> {
    let adm = service.admission();
    let health = service.health();
    let mut stats: Vec<(String, u64)> = vec![
        ("net.active".into(), net.active() as u64),
        ("net.accepted".into(), net.accepted()),
    ];
    for (end, name) in NetStats::ENDS {
        stats.push((format!("net.{name}"), net.ended(end)));
    }
    stats.extend([
        ("admission.active".into(), adm.active() as u64),
        ("admission.waiting".into(), adm.waiting() as u64),
        ("admission.shed".into(), adm.shed_total()),
        ("health.degradations".into(), health.degradations()),
        ("health.heals".into(), health.heals()),
        ("interner.symbols".into(), Symbol::interned() as u64),
    ]);
    for (key, value) in &stats {
        writeln!(w, "STAT {key} {value}")?;
    }
    Ok(stats.len())
}

fn run_query(
    service: &QueryService,
    tenant: &str,
    atom: &str,
    strategy: Option<String>,
) -> Result<crate::service::QueryResponse, ServerError> {
    let query = parse_atom(atom).map_err(|e| ServerError::Parse(e.to_string()))?;
    let strategy = strategy
        .map(|name| Strategy::from_name(&name))
        .transpose()
        .map_err(ServerError::Parse)?;
    service.query(tenant, &query, strategy)
}

fn mutate(service: &QueryService, fact: &str, insert: bool) -> Result<usize, ServerError> {
    let atom = parse_atom(fact).map_err(|e| ServerError::Parse(e.to_string()))?;
    if insert {
        service.insert(&atom)
    } else {
        service.delete(&atom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServerConfig;
    use alexander_parser::parse;
    use alexander_storage::Database;
    use proptest::prelude::*;

    fn service() -> Arc<QueryService> {
        let program =
            parse("anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y). par(adam, seth).")
                .unwrap()
                .program;
        Arc::new(
            QueryService::open(program, Database::new(), None, ServerConfig::default()).unwrap(),
        )
    }

    fn service_with(config: ServerConfig) -> Arc<QueryService> {
        let program =
            parse("anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y). par(adam, seth).")
                .unwrap()
                .program;
        Arc::new(QueryService::open(program, Database::new(), None, config).unwrap())
    }

    /// Drives one request through `respond` and returns the reply text.
    fn roundtrip(s: &QueryService, tenant: &mut String, line: &str) -> String {
        let mut out = Vec::new();
        respond(s, tenant, line, &mut out, &NetStats::default()).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn the_full_verb_set_responds_in_protocol_form() {
        let s = service();
        let mut tenant = String::from("anon");
        assert_eq!(
            roundtrip(&s, &mut tenant, "HELLO acme"),
            "OK tenant acme epoch 0\n"
        );
        assert_eq!(tenant, "acme");
        assert_eq!(roundtrip(&s, &mut tenant, "PING"), "OK pong\n");
        assert_eq!(roundtrip(&s, &mut tenant, "EPOCH"), "OK epoch 0\n");
        assert_eq!(roundtrip(&s, &mut tenant, "HEALTH"), "OK healthy epoch 0\n");
        assert_eq!(
            roundtrip(&s, &mut tenant, "INSERT par(seth, enos)"),
            "OK pending 1\n"
        );
        assert_eq!(
            roundtrip(&s, &mut tenant, "COMMIT"),
            "OK epoch 1 committed 1\n"
        );
        let q = roundtrip(&s, &mut tenant, "QUERY anc(adam, X)");
        assert_eq!(
            q,
            "ANSWER anc(adam, enos)\nANSWER anc(adam, seth)\nOK 2 epoch 1 complete\n"
        );
        let q = roundtrip(&s, &mut tenant, "QUERY anc(adam, X) STRATEGY oldt");
        assert!(q.ends_with("OK 2 epoch 1 complete\n"), "{q}");
        assert_eq!(roundtrip(&s, &mut tenant, "QUIT"), "OK bye\n");
    }

    #[test]
    fn stats_reports_every_counter_section_with_an_ok_terminal() {
        let s = service();
        let mut tenant = String::from("anon");
        let net = NetStats::default();
        net.accepted.fetch_add(3, Ordering::Relaxed);
        net.counter(SessionEnd::Quit)
            .fetch_add(2, Ordering::Relaxed);
        s.health().degrade("io");
        s.health().heal();
        let mut out = Vec::new();
        respond(&s, &mut tenant, "STATS", &mut out, &net).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let (stat_lines, terminal) = lines.split_at(lines.len() - 1);
        assert!(stat_lines.iter().all(|l| l.starts_with("STAT ")), "{text}");
        assert_eq!(terminal[0], format!("OK {} epoch 0", stat_lines.len()));
        for expected in [
            "STAT net.accepted 3",
            "STAT net.quit 2",
            "STAT net.active 0",
            "STAT admission.active 0",
            "STAT admission.shed 0",
            "STAT health.degradations 1",
            "STAT health.heals 1",
        ] {
            assert!(stat_lines.contains(&expected), "missing {expected}: {text}");
        }
        let symbols = stat_lines
            .iter()
            .find_map(|l| l.strip_prefix("STAT interner.symbols "))
            .unwrap_or_else(|| panic!("missing STAT interner.symbols: {text}"));
        assert!(symbols.parse::<u64>().unwrap() > 0, "{text}");
    }

    #[test]
    fn a_shed_query_answers_err_busy_with_the_hint() {
        let s = service_with(ServerConfig {
            max_concurrent: 1,
            tenant_cap: 1,
            max_queue: 0,
            ..ServerConfig::default()
        });
        let _hog = s.admission().admit("hog").expect("a free slot admits");
        let mut tenant = String::from("anon");
        let out = roundtrip(&s, &mut tenant, "QUERY anc(adam, X)");
        assert_eq!(
            out,
            format!(
                "ERR BUSY retry-after-ms={}\n",
                crate::admission::RETRY_AFTER_BASE_MS
            )
        );
    }

    /// Input arrives in scripted fragments; an `Err` entry simulates the
    /// 50ms poll timeout firing mid-line.
    struct ScriptedStream {
        input: std::collections::VecDeque<io::Result<Vec<u8>>>,
        out: Arc<std::sync::Mutex<Vec<u8>>>,
    }

    impl Read for ScriptedStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.input.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(chunk)) => {
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
            }
        }
    }

    impl Write for ScriptedStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_straddling_read_timeouts_is_not_corrupted() {
        let s = service();
        let out = Arc::new(std::sync::Mutex::new(Vec::new()));
        let stream = ScriptedStream {
            input: std::collections::VecDeque::from([
                Ok(b"QUE".to_vec()),
                Err(io::Error::new(io::ErrorKind::WouldBlock, "poll")),
                Ok(b"RY anc".to_vec()),
                Err(io::Error::new(io::ErrorKind::TimedOut, "poll")),
                Ok(b"(adam, X)\n".to_vec()),
                // EOF lands mid-line: the final partial request still runs.
                Ok(b"PING".to_vec()),
            ]),
            out: out.clone(),
        };
        let shutdown = AtomicBool::new(false);
        let end = session(&s, stream, &shutdown, &NetStats::default());
        assert_eq!(end, SessionEnd::Eof);
        let reply = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert_eq!(
            reply,
            "ANSWER anc(adam, seth)\nOK 1 epoch 0 complete\nOK pong\n"
        );
    }

    #[test]
    fn an_idle_session_is_closed_and_a_mid_frame_stall_is_distinguished() {
        let config = ServerConfig {
            idle_timeout: Some(Duration::from_millis(0)),
            ..ServerConfig::default()
        };
        let s = service_with(config);
        // Only timeouts: the very first poll exceeds the zero idle budget.
        let stream = ScriptedStream {
            input: std::collections::VecDeque::from([Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "poll",
            ))]),
            out: Arc::new(std::sync::Mutex::new(Vec::new())),
        };
        let shutdown = AtomicBool::new(false);
        assert_eq!(
            session(&s, stream, &shutdown, &NetStats::default()),
            SessionEnd::Idle
        );

        // A half-read request line turns the same timeout into Stalled.
        let stream = ScriptedStream {
            input: std::collections::VecDeque::from([
                Ok(b"QUERY anc(".to_vec()),
                Err(io::Error::new(io::ErrorKind::WouldBlock, "poll")),
                Err(io::Error::new(io::ErrorKind::WouldBlock, "poll")),
            ]),
            out: Arc::new(std::sync::Mutex::new(Vec::new())),
        };
        assert_eq!(
            session(&s, stream, &shutdown, &NetStats::default()),
            SessionEnd::Stalled
        );
    }

    /// Writes fail like a vanished peer after the first chunk.
    struct GonePeer {
        input: std::collections::VecDeque<Vec<u8>>,
    }

    impl Read for GonePeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.input.pop_front() {
                None => Ok(0),
                Some(chunk) => {
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
            }
        }
    }

    impl Write for GonePeer {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "EPIPE"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_write_failure_ends_the_session_as_client_gone() {
        let s = service();
        let stream = GonePeer {
            input: std::collections::VecDeque::from([b"PING\n".to_vec()]),
        };
        let shutdown = AtomicBool::new(false);
        assert_eq!(
            session(&s, stream, &shutdown, &NetStats::default()),
            SessionEnd::ClientGone
        );
    }

    /// An in-memory peer: `input` is what it sends, `out` what it received.
    struct MemoryPeer {
        input: io::Cursor<Vec<u8>>,
        out: Vec<u8>,
    }

    impl Read for MemoryPeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for MemoryPeer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn an_endless_request_line_is_refused_after_reading_a_bounded_prefix() {
        let s = service();
        let mut peer = MemoryPeer {
            input: io::Cursor::new(vec![b'a'; 4 * MAX_REQUEST_LINE_BYTES]),
            out: Vec::new(),
        };
        let net = NetStats::default();
        let end = session(&s, &mut peer, &AtomicBool::new(false), &net);
        net.counter(end).fetch_add(1, Ordering::Relaxed);
        assert_eq!(end, SessionEnd::Oversized);
        let reply = String::from_utf8(peer.out).unwrap();
        assert_eq!(
            reply,
            format!("ERR request line exceeds {MAX_REQUEST_LINE_BYTES} bytes\n")
        );
        // Reading stopped just past the cap: at most one buffer-fill more.
        let read = peer.input.position() as usize;
        let buffer = BufReader::new(io::empty()).capacity();
        assert!(read <= MAX_REQUEST_LINE_BYTES + buffer, "read {read} bytes");
        // `STATS` reports it.
        let mut out = Vec::new();
        respond(&s, &mut String::new(), "STATS", &mut out, &net).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("STAT net.oversized 1\n"), "{text}");
    }

    #[test]
    fn a_request_line_at_the_cap_is_served() {
        let s = service();
        let pad = " ".repeat(MAX_REQUEST_LINE_BYTES - "PING".len());
        let mut peer = MemoryPeer {
            input: io::Cursor::new(format!("PING{pad}\nPING\n").into_bytes()),
            out: Vec::new(),
        };
        let end = session(&s, &mut peer, &AtomicBool::new(false), &NetStats::default());
        assert_eq!(end, SessionEnd::Eof);
        assert_eq!(String::from_utf8(peer.out).unwrap(), "OK pong\nOK pong\n");
    }

    #[test]
    fn an_oversized_reply_becomes_an_err_line_not_unbounded_memory() {
        let mut capped = CappedBuf::new(300);
        for _ in 0..100 {
            writeln!(capped, "ANSWER p(aaaaaaaaaaaaaaaaaaaaaaaa)").unwrap();
        }
        writeln!(capped, "OK 100 epoch 0 complete").unwrap();
        let wire = capped.wire();
        let text = String::from_utf8(wire.to_vec()).unwrap();
        assert!(text.starts_with("ERR reply exceeds 300 bytes"), "{text}");
        assert!(!text.contains("--"), "no flag sets the cap: {text}");
        assert_eq!(text.lines().count(), 1);
        // The buffer is reusable and small replies pass through untouched.
        capped.clear();
        writeln!(capped, "OK pong").unwrap();
        assert_eq!(capped.wire(), b"OK pong\n");
    }

    /// What `session` must do with `input`: the number of non-blank request
    /// lines it serves, and how it ends. A line that is not UTF-8 ends the
    /// session unserved; a served `QUIT` ends it after its reply.
    fn expected_session(input: &[u8]) -> (usize, SessionEnd) {
        let mut served = 0;
        for line in input.split_inclusive(|&b| b == b'\n') {
            let Ok(text) = std::str::from_utf8(line) else {
                return (served, SessionEnd::ReadError);
            };
            if text.trim().is_empty() {
                continue;
            }
            served += 1;
            if parse_request(text) == Ok(Request::Quit) {
                return (served, SessionEnd::Quit);
            }
        }
        (served, SessionEnd::Eof)
    }

    /// Serves `input` over a [`MemoryPeer`] and checks the framing contract:
    /// every reply line is an `ANSWER`, `STAT`, `OK` or `ERR` line, and each
    /// served request gets exactly one `OK`/`ERR` terminal line.
    fn check_framing(input: Vec<u8>) -> Result<(), TestCaseError> {
        let (served, expected_end) = expected_session(&input);
        let s = service();
        let mut peer = MemoryPeer {
            input: io::Cursor::new(input),
            out: Vec::new(),
        };
        let end = session(&s, &mut peer, &AtomicBool::new(false), &NetStats::default());
        prop_assert_eq!(end, expected_end);
        let out = String::from_utf8(peer.out).expect("replies to UTF-8 requests are UTF-8");
        let mut terminals = 0;
        for line in out.lines() {
            let terminal = line.starts_with("OK") || line.starts_with("ERR");
            prop_assert!(
                terminal || line.starts_with("ANSWER ") || line.starts_with("STAT "),
                "unframed reply line {line:?} in {out:?}"
            );
            terminals += usize::from(terminal);
        }
        prop_assert_eq!(terminals, served, "terminal lines in {:?}", out);
        Ok(())
    }

    /// The pieces request-shaped input is built from, `|`-separated:
    /// verbs, atom fragments and strategy names, and line ends. Some pieces
    /// are not UTF-8, and an empty line end runs two lines together.
    const VERBS: &[u8] =
        b"HELLO |QUERY |query |QUERY |INSERT |DELETE |COMMIT|EPOCH|HEALTH|STATS|PING|QUIT|";
    const FRAGMENTS: &[u8] = b"anc(adam, X)|anc(X, Y)|par(adam, seth)|par(seth, enos)|par(X, X)|\
        par('a b', -7)|lt(X, 3)|neq(adam, seth)|anc|anc(|par(|X|adam|'a b'|'|-7|99999999999999999999|\
        , |)|(|.|!|:-| |\t| STRATEGY |STRATEGY|alexander|supmagic|magic|oldt|qsqr|naive|seminaive|\
        stratified|conditional|quantum|\xff|\xc3|\xed\xa0\x80";
    const LINE_ENDS: &[u8] = b"\n|\n|\n|\n|\r\n||\xff\n";

    fn pieces(table: &'static [u8]) -> Vec<&'static [u8]> {
        table.split(|&b| b == b'|').collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn arbitrary_bytes_keep_the_reply_framing(
            bytes in proptest::collection::vec(0u16..256, 0..300),
        ) {
            check_framing(bytes.into_iter().map(|b| b as u8).collect())?;
        }

        #[test]
        fn a_request_soup_keeps_the_reply_framing(
            lines in proptest::collection::vec(
                (0..64usize, proptest::collection::vec(0..64usize, 0..6), 0..64usize),
                0..12,
            ),
        ) {
            let (verbs, fragments, ends) = (pieces(VERBS), pieces(FRAGMENTS), pieces(LINE_ENDS));
            let mut input = Vec::new();
            for (verb, args, end) in lines {
                input.extend_from_slice(verbs[verb % verbs.len()]);
                for f in args {
                    input.extend_from_slice(fragments[f % fragments.len()]);
                }
                input.extend_from_slice(ends[end % ends.len()]);
            }
            check_framing(input)?;
        }
    }

    #[test]
    fn protocol_errors_are_err_lines_not_disconnects() {
        let s = service();
        let mut tenant = String::from("anon");
        for bad in [
            "EXPLODE",
            "QUERY anc(adam,",                     // unparseable atom
            "QUERY anc(adam, X) STRATEGY quantum", // unknown strategy
            "INSERT anc(a, b)",                    // intensional target
            "INSERT par(a, X)",                    // non-ground
        ] {
            let out = roundtrip(&s, &mut tenant, bad);
            assert!(out.starts_with("ERR "), "{bad}: {out}");
            assert_eq!(out.lines().count(), 1, "{bad}: {out}");
        }
    }
}
