//! The serve socket layer: accepts TCP or Unix-socket connections and
//! speaks the JSONL protocol ([`crate::proto`]) over them, with one
//! HTTP affordance — `GET /metrics` answered in Prometheus text form so
//! a stock `curl` or scraper needs no protocol client.
//!
//! The edge is hardened against misbehaving peers: reads are bounded by
//! [`crate::proto::MAX_FRAME_LEN`] (an oversized frame gets a typed
//! error, not an unbounded buffer), connections idle past the timeout
//! are dropped, writes carry a timeout so a stalled reader cannot wedge
//! a handler thread, and accepts beyond the connection cap are refused
//! with a retryable error frame. Each frame goes out in one write and
//! TCP streams set `TCP_NODELAY`, so a keep-alive exchange never waits
//! on the peer's delayed ACK. The client side pairs with
//! [`run_client_with_retry`]: capped exponential backoff with
//! deterministic jitter over transient connect failures and retryable
//! error frames.
//!
//! The accept loop blocks in `accept`, so a connect is served as soon
//! as it arrives. A `shutdown` request sets the stop flag and then
//! connects to the listener itself; that wake connection, or any real
//! one that arrives first, returns the blocked `accept`, and the loop
//! sees the flag and exits.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use spotlight_obs::seeded;

use crate::proto::{Request, Response, MAX_FRAME_LEN};
use crate::scheduler::Server;
use crate::spec::RunSpec;

/// A bound serve socket: TCP (`host:port`) or Unix (`unix:/path`).
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (socket file removed on bind).
    Unix(UnixListener),
}

impl Listener {
    /// Blocks until a client connects.
    fn accept(&self) -> std::io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(Box::new(stream))
            }
            Listener::Unix(l) => Ok(Box::new(l.accept()?.0)),
        }
    }

    /// Where a connect reaches this listener: its TCP address, with an
    /// unspecified IP replaced by loopback, or its socket path.
    fn wake_addr(&self) -> std::io::Result<WakeAddr> {
        match self {
            Listener::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(if addr.is_ipv4() {
                        Ipv4Addr::LOCALHOST.into()
                    } else {
                        Ipv6Addr::LOCALHOST.into()
                    });
                }
                Ok(WakeAddr::Tcp(addr))
            }
            Listener::Unix(l) => l
                .local_addr()?
                .as_pathname()
                .map(|path| WakeAddr::Unix(path.to_path_buf()))
                .ok_or_else(|| {
                    std::io::Error::new(
                        ErrorKind::InvalidInput,
                        "unix listener has no socket path to wake it on",
                    )
                }),
        }
    }
}

/// The address a shutdown connects to in order to wake the accept loop.
enum WakeAddr {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

/// The serve loop's stop flag and how to wake the loop once it is set.
struct Stop {
    flag: AtomicBool,
    wake: WakeAddr,
}

impl Stop {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sets the flag, then opens and drops one connection to the
    /// listener so a blocked `accept` returns and sees it. The store
    /// must come first: a wake that lands before it would leave the loop
    /// blocked again.
    fn raise(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = match &self.wake {
            WakeAddr::Tcp(addr) => TcpStream::connect(addr).map(drop),
            WakeAddr::Unix(path) => UnixStream::connect(path).map(drop),
        };
    }
}

/// Binds the address a `--listen` flag names. `unix:/path` binds a Unix
/// socket (replacing a stale socket file); anything else is a TCP
/// `host:port`, where port 0 picks a free port. Returns the listener
/// and its resolved address string (`host:port` or `unix:/path`).
///
/// # Errors
///
/// Propagates bind failures.
pub fn bind(listen: &str) -> std::io::Result<(Listener, String)> {
    if let Some(path) = listen.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        Ok((Listener::Unix(listener), format!("unix:{path}")))
    } else {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        Ok((Listener::Tcp(listener), addr.to_string()))
    }
}

/// Edge-hardening knobs for [`serve_loop`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Drop a connection that sends no complete frame for this long.
    pub idle_timeout: Duration,
    /// Longest frame accepted from a client, in bytes.
    pub max_frame_len: usize,
    /// Concurrent connections accepted; excess connects are answered
    /// with a retryable error frame and closed.
    pub max_connections: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            idle_timeout: Duration::from_secs(30),
            max_frame_len: MAX_FRAME_LEN,
            max_connections: 64,
        }
    }
}

/// One accepted connection, unified over both transports.
trait Conn: Read + Write + Send {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

impl Conn for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_write_timeout(self, timeout)
    }
}

/// Runs the accept loop until a client issues `shutdown`. The loop
/// blocks in `accept` and checks the stop flag each time it returns; a
/// shutdown wakes it with a connection of its own (see `Stop::raise`),
/// and the connection accepted after the flag is set is dropped unread.
/// Each connection gets its own thread; connection threads poll the stop
/// flag so a shutdown drains them promptly even mid-session. Handles of
/// finished connection threads are dropped at each accept, so a
/// long-lived daemon holds handles only for threads still running; those
/// are joined before the server shuts down. A connection thread's panic
/// is ignored.
///
/// # Errors
///
/// Propagates accept failures, and refuses a Unix listener without a
/// socket path, which no shutdown could wake.
pub fn serve_loop(
    listener: Listener,
    server: Arc<Server>,
    opts: ServeOptions,
) -> std::io::Result<()> {
    let stop = Arc::new(Stop {
        flag: AtomicBool::new(false),
        wake: listener.wake_addr()?,
    });
    let active = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    loop {
        let mut conn = listener.accept()?;
        if stop.is_set() {
            break;
        }
        let _ = conn.set_write_timeout(Some(Duration::from_secs(10)));
        if active.load(Ordering::SeqCst) >= opts.max_connections.max(1) {
            // Over the cap: answer one retryable error frame and close,
            // so the client backs off instead of hanging.
            let resp = Response::Error {
                message: format!(
                    "server at connection capacity ({}); retry later",
                    opts.max_connections
                ),
                retryable: true,
            };
            let _ = write_frame(conn.as_mut(), &resp.to_line());
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let server = server.clone();
        let stop = stop.clone();
        let active = active.clone();
        let conn_opts = opts.clone();
        let handle = std::thread::spawn(move || {
            let _ = handle_connection(conn, &server, &stop, &conn_opts);
            active.fetch_sub(1, Ordering::SeqCst);
        });
        track(&mut handles, handle);
    }
    for h in handles {
        let _ = h.join();
    }
    server.shutdown();
    Ok(())
}

/// Keeps a new connection thread's handle for the join at shutdown,
/// first dropping the handles of threads that have already finished.
fn track(handles: &mut Vec<JoinHandle<()>>, handle: JoinHandle<()>) {
    handles.retain(|h| !h.is_finished());
    handles.push(handle);
}

/// Writes one frame, line and newline, in a single write so a small
/// frame never waits on the peer's delayed ACK.
fn write_frame(conn: &mut dyn Conn, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    conn.write_all(&frame)
}

/// What one bounded read produced.
enum ReadOutcome {
    /// A complete frame (newline stripped).
    Line(String),
    /// Peer closed, the stop flag was raised, or the idle timeout hit.
    Closed,
    /// The peer exceeded the frame bound without sending a newline.
    Oversized,
}

/// Reads one `\n`-terminated line, waking every poll interval to honour
/// the stop flag, bounding both the frame length and the idle time.
fn read_line(
    conn: &mut dyn Conn,
    buf: &mut Vec<u8>,
    stop: &Stop,
    opts: &ServeOptions,
) -> std::io::Result<ReadOutcome> {
    let poll = Duration::from_millis(200);
    let mut idle = Duration::ZERO;
    loop {
        if let Some(pos) = buf.iter().position(|b| *b == b'\n') {
            if pos > opts.max_frame_len {
                return Ok(ReadOutcome::Oversized);
            }
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            return Ok(ReadOutcome::Line(text));
        }
        if buf.len() > opts.max_frame_len {
            return Ok(ReadOutcome::Oversized);
        }
        if stop.is_set() || idle >= opts.idle_timeout {
            return Ok(ReadOutcome::Closed);
        }
        let mut chunk = [0u8; 4096];
        match conn.read(&mut chunk) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                idle = Duration::ZERO;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                idle += poll;
            }
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(
    mut conn: Box<dyn Conn>,
    server: &Server,
    stop: &Stop,
    opts: &ServeOptions,
) -> std::io::Result<()> {
    conn.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut buf = Vec::new();
    let first = match read_line(conn.as_mut(), &mut buf, stop, opts)? {
        ReadOutcome::Line(line) => line,
        ReadOutcome::Closed => return Ok(()),
        ReadOutcome::Oversized => return reject_oversized(conn.as_mut(), opts),
    };
    if first.starts_with("GET ") || first.starts_with("HEAD ") {
        return handle_http(conn.as_mut(), server, stop, &first, &mut buf, opts);
    }
    let mut line = Some(first);
    while let Some(text) = line {
        if !text.trim().is_empty() && !process_request(conn.as_mut(), server, stop, &text)? {
            return Ok(());
        }
        line = match read_line(conn.as_mut(), &mut buf, stop, opts)? {
            ReadOutcome::Line(l) => Some(l),
            ReadOutcome::Closed => None,
            ReadOutcome::Oversized => return reject_oversized(conn.as_mut(), opts),
        };
    }
    Ok(())
}

/// Answers one typed error frame for an oversized frame and closes the
/// connection (the frame boundary is lost, so resyncing is hopeless).
fn reject_oversized(conn: &mut dyn Conn, opts: &ServeOptions) -> std::io::Result<()> {
    let resp = Response::Error {
        message: format!(
            "frame exceeds the {} byte limit; connection closed",
            opts.max_frame_len
        ),
        retryable: false,
    };
    write_frame(conn, &resp.to_line())?;
    conn.flush()
}

/// Executes one JSONL request; returns `false` when the connection
/// should close (shutdown).
fn process_request(
    conn: &mut dyn Conn,
    server: &Server,
    stop: &Stop,
    text: &str,
) -> std::io::Result<bool> {
    fn send(conn: &mut dyn Conn, resp: Response) -> std::io::Result<()> {
        write_frame(conn, &resp.to_line())
    }
    fn fail(conn: &mut dyn Conn, message: String) -> std::io::Result<()> {
        send(
            conn,
            Response::Error {
                message,
                retryable: false,
            },
        )
    }
    let request = match Request::parse_line(text) {
        Ok(r) => r,
        Err(message) => {
            fail(conn, message)?;
            return Ok(true);
        }
    };
    match request {
        Request::Submit { spec, key } => match RunSpec::parse_str(&spec) {
            Err(e) => fail(conn, e.to_string())?,
            Ok(parsed) => match server.submit(parsed, key.as_deref()) {
                Ok((job, deduped)) => send(conn, Response::Submitted { job, deduped })?,
                Err(e) => send(
                    conn,
                    Response::Error {
                        message: e.message().to_string(),
                        retryable: e.retryable(),
                    },
                )?,
            },
        },
        Request::Status { job } => match server.status(job) {
            Some(status) => send(conn, Response::Status(status))?,
            None => fail(conn, format!("no such job {job}"))?,
        },
        Request::Cancel { job } => match server.cancel(job) {
            Ok(ok) => send(conn, Response::Cancelled { job, ok })?,
            Err(e) => fail(conn, e.to_string())?,
        },
        Request::List => {
            let rows = server.list();
            let count = rows.len() as u64;
            for row in rows {
                send(conn, Response::Job(row))?;
            }
            send(conn, Response::End { count })?;
        }
        Request::StreamJournal { job } => match server.journal_path(job) {
            Some(path) => {
                send(conn, Response::StreamStart { job })?;
                let mut lines = 0u64;
                if let Ok(file) = std::fs::File::open(&path) {
                    for line in BufReader::new(file).lines() {
                        let line = line?;
                        // Journal lines are themselves flat JSON
                        // objects, so they pass through verbatim; an
                        // unterminated crash scar has no newline and is
                        // skipped by `lines()` semantics only at EOF
                        // with content, which `String` reads include —
                        // forward it too, clients see what resume sees.
                        write_frame(conn, &line)?;
                        lines += 1;
                    }
                }
                send(conn, Response::StreamEnd { lines })?;
            }
            None => fail(conn, format!("no such job {job}"))?,
        },
        Request::Metrics => send(
            conn,
            Response::Metrics {
                text: server.metrics_text(),
            },
        )?,
        Request::Report { job } => match (server.status(job), server.report(job)) {
            (_, Some(text)) => send(conn, Response::Report { job, text })?,
            (Some(status), None) => fail(
                conn,
                format!("job {job} is {}, not completed", status.state),
            )?,
            (None, None) => fail(conn, format!("no such job {job}"))?,
        },
        Request::Ping => send(conn, Response::Pong)?,
        Request::Shutdown => {
            send(conn, Response::ShuttingDown)?;
            conn.flush()?;
            stop.raise();
            return Ok(false);
        }
    }
    conn.flush()?;
    Ok(true)
}

/// Minimal HTTP/1.0 answer for scrapers: `GET /metrics` serves the
/// Prometheus page, anything else is 404. The connection closes after
/// one response.
fn handle_http(
    conn: &mut dyn Conn,
    server: &Server,
    stop: &Stop,
    request_line: &str,
    buf: &mut Vec<u8>,
    opts: &ServeOptions,
) -> std::io::Result<()> {
    // Drain the header block so well-behaved clients see a clean close.
    while let ReadOutcome::Line(line) = read_line(conn, buf, stop, opts)? {
        if line.trim_end_matches('\r').is_empty() {
            break;
        }
    }
    let target = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = if target == "/metrics" {
        ("200 OK", server.metrics_text())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes())?;
    if !request_line.starts_with("HEAD ") {
        conn.write_all(body.as_bytes())?;
    }
    conn.flush()
}

/// Connects to a serve address, sends one request line, and returns
/// every response line until the server closes or the response
/// terminator arrives. The CLI `client` subcommand is a thin wrapper.
///
/// # Errors
///
/// Propagates connect/read/write failures.
pub fn run_client(addr: &str, request_line: &str) -> std::io::Result<Vec<String>> {
    let mut conn: Box<dyn Conn> = if let Some(path) = addr.strip_prefix("unix:") {
        Box::new(UnixStream::connect(path)?)
    } else {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Box::new(stream)
    };
    write_frame(conn.as_mut(), request_line)?;
    conn.flush()?;
    let expects_many = matches!(
        Request::parse_line(request_line),
        Ok(Request::List | Request::StreamJournal { .. })
    );
    let mut out = Vec::new();
    let mut reader = BufReader::new(conn);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end_matches('\n').to_string();
        let done = match Response::parse_line(&line) {
            Ok(Response::End { .. } | Response::StreamEnd { .. }) => true,
            Ok(_) => !expects_many,
            // Mid-stream journal lines are not Response frames.
            Err(_) => false,
        };
        out.push(line);
        if done {
            break;
        }
    }
    Ok(out)
}

/// Retry shape for [`run_client_with_retry`]: capped exponential
/// backoff. Delay for attempt *n* (0-based) is
/// `min(base_delay · 2ⁿ, max_delay)` scaled by a deterministic jitter
/// factor in `[0.5, 1.0)` derived from the process id and the attempt,
/// so a fleet of clients retrying the same outage fans out instead of
/// stampeding in lockstep.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Retries after the first try (so `attempts + 1` tries total).
    pub attempts: u32,
    /// First retry delay.
    pub base_delay: Duration,
    /// Backoff ceiling (before jitter).
    pub max_delay: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl ReconnectPolicy {
    /// The sleep before retry `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        let capped = exp.min(self.max_delay);
        capped.mul_f64(jitter_factor(
            u64::from(std::process::id()) ^ (u64::from(attempt) << 32),
        ))
    }
}

/// SplitMix64 of `seed`, mapped to `[0.5, 1.0)`.
fn jitter_factor(seed: u64) -> f64 {
    0.5 + seeded::unit(seeded::splitmix64(seed)) / 2.0
}

/// [`run_client`] with a reconnect policy: transient connect/IO
/// failures and `retryable` error frames are retried with capped
/// exponential backoff and jitter; a permanent error frame or a
/// successful response returns immediately.
///
/// # Errors
///
/// The last I/O failure once every attempt is exhausted.
pub fn run_client_with_retry(
    addr: &str,
    request_line: &str,
    policy: &ReconnectPolicy,
) -> std::io::Result<Vec<String>> {
    let mut attempt = 0u32;
    loop {
        match run_client(addr, request_line) {
            Ok(lines) => {
                let transient = matches!(
                    lines.first().map(|l| Response::parse_line(l)),
                    Some(Ok(Response::Error {
                        retryable: true,
                        ..
                    }))
                );
                if !transient || attempt >= policy.attempts {
                    return Ok(lines);
                }
            }
            Err(e) => {
                if attempt >= policy.attempts {
                    return Err(e);
                }
            }
        }
        std::thread::sleep(policy.delay(attempt));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_doubling_and_caps() {
        let policy = ReconnectPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(1),
        };
        for attempt in 0..8u32 {
            let raw = Duration::from_millis(100 * (1u64 << attempt)).min(Duration::from_secs(1));
            let d = policy.delay(attempt);
            assert!(
                d >= raw.mul_f64(0.5) && d < raw,
                "attempt {attempt}: {d:?} outside [{:?}, {raw:?})",
                raw.mul_f64(0.5)
            );
        }
        // Past the cap the pre-jitter delay stays pinned at max_delay.
        assert!(policy.delay(30) <= Duration::from_secs(1));
    }

    #[test]
    fn finished_connection_handles_are_reaped() {
        let mut handles = Vec::new();
        for _ in 0..32 {
            let handle = std::thread::spawn(|| {});
            while !handle.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            track(&mut handles, handle);
        }
        assert_eq!(handles.len(), 1, "only the newest handle may remain");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let f = jitter_factor(seed);
            assert_eq!(f, jitter_factor(seed), "same seed, same factor");
            assert!((0.5..1.0).contains(&f), "seed {seed}: {f}");
        }
        assert_ne!(jitter_factor(1), jitter_factor(2), "seeds must spread");
        for (seed, bits) in [
            (0u64, 0x3fee_220a_8397_b1dcu64),
            (1, 0x3fe9_10a2_dec8_9026),
            (42, 0x3feb_dd73_2262_feb6),
            (u64::MAX, 0x3fee_4d97_1771_b652),
        ] {
            assert_eq!(jitter_factor(seed).to_bits(), bits, "seed {seed}");
        }
    }
}
