//! End-to-end serve sessions over real sockets: the JSONL protocol on
//! TCP and Unix transports, the HTTP `/metrics` affordance, keep-alive
//! latency, and the shutdown wake of the blocking accept loop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spotlight_runtime::{
    bind, metric_value, run_client, run_job, serve_loop, validate_metrics, Response, RunSpec,
    SchedulerOptions, ServeOptions, Server,
};

struct Workdir(std::path::PathBuf);

impl Workdir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spotlight-srv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp workdir creates");
        Workdir(dir)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn server(dir: &Workdir) -> Arc<Server> {
    Arc::new(
        Server::new(SchedulerOptions {
            workers: 2,
            slice: 2,
            dir: dir.0.join("state"),
            kill_after: None,
            max_jobs: None,
            disk_faults: None,
        })
        .expect("server starts"),
    )
}

/// Starts a serve loop whose result arrives on a channel, so
/// [`shut_down`] can wait for it with a deadline: a loop that never
/// wakes fails the test instead of hanging it.
fn start(dir: &Workdir, listen: &str) -> (String, mpsc::Receiver<std::io::Result<()>>) {
    let server = server(dir);
    let (listener, addr) = bind(listen).expect("socket binds");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(serve_loop(listener, server, ServeOptions::default()));
    });
    (addr, rx)
}

/// Sends `shutdown` and requires the serve loop to return `Ok` within
/// 5 s.
fn shut_down(addr: &str, done: mpsc::Receiver<std::io::Result<()>>) {
    assert_eq!(
        single_response(addr, "{\"type\":\"shutdown\"}"),
        Response::ShuttingDown
    );
    match done.recv_timeout(Duration::from_secs(5)) {
        Ok(result) => result.expect("serve loop returns Ok"),
        Err(_) => panic!("serve loop still running 5 s after shutdown"),
    }
}

/// One JSONL exchange over an already open connection.
fn exchange(reader: &mut impl BufRead, writer: &mut impl Write, request: &str) -> Response {
    writer
        .write_all(format!("{request}\n").as_bytes())
        .expect("request writes");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response reads");
    Response::parse_line(line.trim_end_matches('\n')).expect("response parses")
}

fn single_response(addr: &str, request: &str) -> Response {
    let lines = run_client(addr, request).expect("request round-trips");
    assert_eq!(lines.len(), 1, "{lines:?}");
    Response::parse_line(&lines[0]).expect("response parses")
}

#[test]
fn tcp_session_submits_runs_and_scrapes() {
    let dir = Workdir::new("tcp");
    let (addr, done) = start(&dir, "127.0.0.1:0");

    assert_eq!(
        single_response(&addr, "{\"type\":\"ping\"}"),
        Response::Pong
    );

    // A malformed frame is rejected, not half-understood — and a parse
    // failure is permanent, not retryable.
    match single_response(&addr, "{\"type\":\"status\"}") {
        Response::Error { message, retryable } => {
            assert!(message.contains("job"), "{message}");
            assert!(!retryable);
        }
        other => panic!("expected error, got {other:?}"),
    }

    let spec = "--model transformer --hw 4 --sw 6 --seed 3";
    let expected = run_job(&RunSpec::parse_str(spec).unwrap(), None, false)
        .unwrap()
        .report();

    let submit = format!("{{\"type\":\"submit\",\"spec\":\"{spec}\",\"key\":\"session-1\"}}");
    let job = match single_response(&addr, &submit) {
        Response::Submitted { job, deduped } => {
            assert!(!deduped, "first submit is fresh");
            job
        }
        other => panic!("expected submitted, got {other:?}"),
    };

    // The same idempotency key returns the same job, marked deduped.
    match single_response(&addr, &submit) {
        Response::Submitted {
            job: again,
            deduped,
        } => {
            assert_eq!(again, job);
            assert!(deduped, "duplicate key must dedupe");
        }
        other => panic!("expected submitted, got {other:?}"),
    }

    // Poll status until the job completes.
    let status_req = format!("{{\"type\":\"status\",\"job\":{job}}}");
    let mut completed = false;
    for _ in 0..600 {
        match single_response(&addr, &status_req) {
            Response::Status(s) if s.state.is_terminal() => {
                assert_eq!(s.state.as_str(), "completed");
                assert!(s.best_cost.is_some());
                completed = true;
                break;
            }
            Response::Status(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
            other => panic!("expected status, got {other:?}"),
        }
    }
    assert!(completed, "job never completed");

    // The served report is byte-identical to a standalone run's.
    match single_response(&addr, &format!("{{\"type\":\"report\",\"job\":{job}}}")) {
        Response::Report { text, .. } => assert_eq!(text, expected),
        other => panic!("expected report, got {other:?}"),
    }

    // list emits one row per job plus the end marker.
    let lines = run_client(&addr, "{\"type\":\"list\"}").unwrap();
    assert_eq!(lines.len(), 2);
    assert!(matches!(
        Response::parse_line(&lines[1]).unwrap(),
        Response::End { count: 1 }
    ));

    // stream-journal brackets the raw journal (which must itself start
    // with the run manifest) between start/end frames.
    let lines = run_client(
        &addr,
        &format!("{{\"type\":\"stream-journal\",\"job\":{job}}}"),
    )
    .unwrap();
    assert!(matches!(
        Response::parse_line(&lines[0]).unwrap(),
        Response::StreamStart { .. }
    ));
    assert!(
        lines[1].contains("\"type\":\"run_started\""),
        "{}",
        lines[1]
    );
    match Response::parse_line(lines.last().unwrap()).unwrap() {
        Response::StreamEnd { lines: n } => assert_eq!(n as usize, lines.len() - 2),
        other => panic!("expected stream-end, got {other:?}"),
    }

    // The metrics frame carries a valid Prometheus page.
    match single_response(&addr, "{\"type\":\"metrics\"}") {
        Response::Metrics { text } => {
            validate_metrics(&text).expect("exposition text validates");
            assert_eq!(
                metric_value(&text, "spotlight_jobs_completed_total"),
                Some(1.0)
            );
            assert!(metric_value(&text, "spotlight_evaluations_total").unwrap() > 0.0);
        }
        other => panic!("expected metrics, got {other:?}"),
    }

    // Plain HTTP GET works for scrapers; unknown paths 404.
    let http = |path: &str| -> String {
        let mut conn = TcpStream::connect(&addr).expect("http connect");
        write!(conn, "GET {path} HTTP/1.0\r\nHost: spotlight\r\n\r\n").unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).expect("http response reads");
        body
    };
    let page = http("/metrics");
    assert!(page.starts_with("HTTP/1.0 200 OK\r\n"), "{page}");
    assert!(page.contains("text/plain; version=0.0.4"));
    let body = page.split("\r\n\r\n").nth(1).expect("http body");
    validate_metrics(body).expect("scraped page validates");
    assert!(http("/jobs").starts_with("HTTP/1.0 404"));

    shut_down(&addr, done);
}

#[test]
fn unix_socket_speaks_the_same_protocol() {
    let dir = Workdir::new("unix");
    let sock = dir.0.join("serve.sock");
    let (addr, done) = start(&dir, &format!("unix:{}", sock.display()));
    assert!(addr.starts_with("unix:"), "{addr}");

    assert_eq!(
        single_response(&addr, "{\"type\":\"ping\"}"),
        Response::Pong
    );
    match single_response(&addr, "{\"type\":\"status\",\"job\":99}") {
        Response::Error { message, .. } => assert!(message.contains("no such job"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }
    shut_down(&addr, done);
}

#[test]
fn keep_alive_exchanges_do_not_wait_on_delayed_acks() {
    let dir = Workdir::new("keepalive");
    let (addr, done) = start(&dir, "127.0.0.1:0");
    let mut writer = TcpStream::connect(&addr).expect("connects");
    let mut reader = BufReader::new(writer.try_clone().expect("stream clones"));
    let ping = "{\"type\":\"ping\"}";
    // The first exchange waits for the accept; time only the rest.
    assert_eq!(exchange(&mut reader, &mut writer, ping), Response::Pong);
    let started = Instant::now();
    for _ in 0..20 {
        assert_eq!(exchange(&mut reader, &mut writer, ping), Response::Pong);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "20 keep-alive pings took {elapsed:?}"
    );
    drop((reader, writer));
    shut_down(&addr, done);
}

/// `shutdown` must end a serve loop that is blocked in `accept`, even
/// while another client holds an idle connection open.
fn shutdown_wakes_the_accept_loop(dir: &Workdir, listen: &str) {
    let (addr, done) = start(dir, listen);
    // A listener bound to an unspecified address is reached on loopback.
    let addr = addr.replace("0.0.0.0", "127.0.0.1");
    let ping = "{\"type\":\"ping\"}";
    // Exchange one frame first so the idle connection is surely accepted.
    let _idle: Box<dyn std::any::Any> = if let Some(path) = addr.strip_prefix("unix:") {
        let mut writer = UnixStream::connect(path).expect("connects");
        let mut reader = BufReader::new(writer.try_clone().expect("stream clones"));
        assert_eq!(exchange(&mut reader, &mut writer, ping), Response::Pong);
        Box::new(writer)
    } else {
        let mut writer = TcpStream::connect(&addr).expect("connects");
        let mut reader = BufReader::new(writer.try_clone().expect("stream clones"));
        assert_eq!(exchange(&mut reader, &mut writer, ping), Response::Pong);
        Box::new(writer)
    };
    shut_down(&addr, done);
}

#[test]
fn shutdown_wakes_a_loopback_listener() {
    shutdown_wakes_the_accept_loop(&Workdir::new("wake-loopback"), "127.0.0.1:0");
}

#[test]
fn shutdown_wakes_an_unspecified_address_listener() {
    shutdown_wakes_the_accept_loop(&Workdir::new("wake-any"), "0.0.0.0:0");
}

#[test]
fn shutdown_wakes_a_unix_listener() {
    let dir = Workdir::new("wake-unix");
    let sock = dir.0.join("serve.sock");
    shutdown_wakes_the_accept_loop(&dir, &format!("unix:{}", sock.display()));
}
