//! The `serve_mix` workload, and the serve probe of the co-design
//! workloads' traced runs.
//!
//! An in-process `Server` with `serve_loop` on a loopback TCP port and a
//! fresh state directory: two workers, slices of two hardware samples.
//! Two closed-loop clients each keep one job outstanding: submit, poll
//! `status`, fetch `report`, one connection per request as the shipped
//! client makes them. Every served report is compared with the one-shot
//! `run_job` report for its spec.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spotlight_runtime::{
    bind, metric_value, run_client, run_job, serve_loop, JobState, Request, Response, RunSpec,
    SchedulerOptions, ServeOptions, Server,
};

use crate::codesign::trace_codesign;
use crate::layers::timed;
use crate::{describe, stats, Metrics, Outcome, Scratch};

const WORKERS: usize = 2;
const SLICE: usize = 2;
/// Closed-loop clients, one outstanding job and at most one open
/// connection each.
const CLIENTS: usize = 2;
/// Pause between two `status` polls of one job.
const POLL: Duration = Duration::from_millis(1);
/// Server start-ups timed per run; the median is reported.
const SETUP_REPS: usize = 9;
/// Jobs run before the measured window: every cached-class seed fills
/// the shared cache once.
const WARMUP_JOBS: u64 = 8;
/// Jobs per latency sample at the least: a p90 with ten beyond it.
const MIN_JOBS: u64 = 120;
/// Best-so-far EDP the cached-class job's `search.samples_to_target`
/// counts up to.
const CACHED_TARGET_EDP: f64 = 2.0e14;

/// Dominated by fixed per-job cost: spec parse, store create, a fsynced
/// WAL line per transition, the checked journal, the atomic report write.
fn tiny_spec(seed: u64) -> String {
    format!("--model transformer --hw 2 --sw 4 --backend maestro --seed {seed}")
}

/// Four of these seeds cycle, so after warm-up the shared memo cache
/// answers most of their queries.
fn cached_spec(seed: u64) -> String {
    format!("--model transformer --hw 4 --sw 8 --backend sim --seed {seed}")
}

fn cached_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(4).wrapping_add(k)
}

fn unique_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i)
}

/// Job `i` of the mix: even jobs tiny with a unique seed, odd jobs of
/// the cached class.
fn mix_spec(seed: u64, i: u64) -> String {
    if i.is_multiple_of(2) {
        tiny_spec(unique_seed(seed, i))
    } else {
        cached_spec(cached_seed(seed, (i / 2) % 4))
    }
}

/// One request over a fresh connection, the way the shipped client
/// talks to the server; returns the first response frame and the round
/// trip in seconds.
fn call(addr: &str, req: &Request) -> Result<(Response, f64), String> {
    let (lines, rtt) = timed(|| run_client(addr, &req.to_line()));
    let lines = lines.map_err(|e| format!("{addr}: {e}"))?;
    let first = lines.first().ok_or("server closed without a reply")?;
    Ok((Response::parse_line(first)?, rtt))
}

/// A running server and its accept loop.
struct Daemon {
    server: Arc<Server>,
    addr: String,
    serve: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        let server = Arc::new(
            Server::new(SchedulerOptions {
                workers: WORKERS,
                slice: SLICE,
                dir: dir.to_path_buf(),
                kill_after: None,
                max_jobs: None,
                disk_faults: None,
            })
            .map_err(|e| e.to_string())?,
        );
        let (listener, addr) = bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let for_loop = server.clone();
        let serve =
            std::thread::spawn(move || serve_loop(listener, for_loop, ServeOptions::default()));
        Ok(Daemon {
            server,
            addr,
            serve,
        })
    }

    /// Shuts the server down over the protocol, then waits for the
    /// accept loop, its connection threads and the worker pool.
    fn stop(self) -> Result<(), String> {
        match call(&self.addr, &Request::Shutdown)?.0 {
            Response::ShuttingDown => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        self.serve
            .join()
            .map_err(|_| "serve loop panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// Starts `SETUP_REPS` servers on fresh state directories, timing each
/// start; keeps the last one running.
fn timed_start(scratch: &Scratch) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for r in 0..SETUP_REPS {
        let (daemon, secs) = timed(|| Daemon::start(&scratch.path(&format!("state{r}"))));
        let daemon = daemon?;
        times.push(secs);
        if r + 1 == SETUP_REPS {
            return Ok((daemon, times));
        }
        daemon.stop()?;
    }
    unreachable!("SETUP_REPS is positive")
}

/// What one served job cost, seen from its client.
struct JobRecord {
    spec: String,
    latency_s: f64,
    submit_rtt_s: f64,
    status_rtts_s: Vec<f64>,
    queue_wait_s: f64,
    slices: u64,
    report: String,
}

fn run_one(addr: &str, spec: String) -> Result<JobRecord, String> {
    let start = Instant::now();
    let submit = Request::Submit {
        spec: spec.clone(),
        key: None,
    };
    let (reply, submit_rtt_s) = call(addr, &submit)?;
    let job = match reply {
        Response::Submitted { job, .. } => job,
        other => return Err(format!("submit of `{spec}` answered {other:?}")),
    };
    let acked = Instant::now();
    let mut status_rtts_s = Vec::new();
    let mut queue_wait_s = None;
    let status = loop {
        let (reply, rtt) = call(addr, &Request::Status { job })?;
        status_rtts_s.push(rtt);
        let Response::Status(status) = reply else {
            return Err(format!("status of job {job} answered {reply:?}"));
        };
        if status.state != JobState::Queued && queue_wait_s.is_none() {
            queue_wait_s = Some(acked.elapsed().as_secs_f64());
        }
        if status.state.is_terminal() {
            break status;
        }
        std::thread::sleep(POLL);
    };
    if status.state != JobState::Completed {
        return Err(format!(
            "job {job} ended {}: {:?}",
            status.state, status.error
        ));
    }
    let report = match call(addr, &Request::Report { job })?.0 {
        Response::Report { text, .. } => text,
        other => return Err(format!("report of job {job} answered {other:?}")),
    };
    Ok(JobRecord {
        spec,
        latency_s: start.elapsed().as_secs_f64(),
        submit_rtt_s,
        status_rtts_s,
        queue_wait_s: queue_wait_s.expect("set before any terminal state"),
        slices: status.slices,
        report,
    })
}

/// Runs jobs `next, next + 1, ...` from `CLIENTS` closed-loop clients
/// until `stop(i)` holds for the next job index.
fn drive(
    addr: &str,
    next: &AtomicU64,
    stop: &(dyn Fn(u64) -> bool + Sync),
    spec_for: &(dyn Fn(u64) -> String + Sync),
) -> Vec<Result<JobRecord, String>> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if stop(i) {
                            break;
                        }
                        let record = run_one(addr, spec_for(i));
                        let failed = record.is_err();
                        done.push(record);
                        // One failure makes the run incorrect; more from
                        // the same cause would only repeat it.
                        if failed {
                            break;
                        }
                    }
                    done
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread does not panic"))
            .collect()
    })
}

/// Counts each job as one operation: it must have completed with the
/// report the one-shot `run_job` path writes for the same spec.
fn verify(records: &[Result<JobRecord, String>], out: &mut Outcome) {
    let mut expected: HashMap<&str, Result<String, String>> = HashMap::new();
    for record in records {
        out.check(match record {
            Err(e) => Err(e.clone()),
            Ok(job) => match expected
                .entry(job.spec.as_str())
                .or_insert_with(|| one_shot(&job.spec))
            {
                Ok(want) if *want == job.report => Ok(()),
                Ok(_) => Err(format!(
                    "served report for `{}` differs from run_job",
                    job.spec
                )),
                Err(e) => Err(e.clone()),
            },
        });
    }
}

fn one_shot(spec: &str) -> Result<String, String> {
    let spec = RunSpec::parse_str(spec).map_err(|e| e.to_string())?;
    run_job(&spec, None, false)
        .map(|o| o.report())
        .map_err(|e| e.to_string())
}

/// The client's completed jobs must equal the server's own counter.
fn check_completed(server: &Server, records: &[Result<JobRecord, String>], out: &mut Outcome) {
    let client = records.iter().filter(|r| r.is_ok()).count() as f64;
    let served = metric_value(&server.metrics_text(), "spotlight_jobs_completed_total");
    if served != Some(client) {
        out.fail(format!(
            "client completed {client} jobs, spotlight_jobs_completed_total is {served:?}"
        ));
    }
}

/// Protocol and scheduler metrics from the client's view of `records`.
fn runtime_metrics(records: &[&JobRecord], server: &Server, m: &mut Metrics) -> Result<(), String> {
    let ms = |f: &dyn Fn(&JobRecord) -> f64| records.iter().map(|r| f(r) * 1e3).collect::<Vec<_>>();
    let latency = ms(&|r| r.latency_s);
    let p90 = stats::tail_percentile(&latency, 90.0)
        .ok_or_else(|| format!("{} jobs are too few for a p90", latency.len()))?;
    describe("submit_to_report_ms", &latency);
    m.put("runtime.submit_to_report_p50_ms", stats::median(&latency));
    m.put("runtime.submit_to_report_p90_ms", p90);
    m.put(
        "runtime.submit_rtt_ms",
        stats::median(&ms(&|r| r.submit_rtt_s)),
    );
    m.put(
        "runtime.queue_wait_ms",
        stats::median(&ms(&|r| r.queue_wait_s)),
    );
    let status: Vec<f64> = records
        .iter()
        .flat_map(|r| r.status_rtts_s.iter().map(|s| s * 1e3))
        .collect();
    m.put("runtime.status_rtt_ms", stats::median(&status));
    let slices: u64 = records.iter().map(|r| r.slices).sum();
    m.put(
        "runtime.slices_per_job",
        slices as f64 / records.len() as f64,
    );
    m.put("runtime.busy_rejects", server.jobs_rejected() as f64);
    Ok(())
}

/// The served mix: warm-up, then a measured window of at least
/// `seconds` and `MIN_JOBS` jobs.
struct Mix {
    daemon: Daemon,
    setup: Vec<f64>,
    warmup: Vec<Result<JobRecord, String>>,
    window: Vec<Result<JobRecord, String>>,
    window_s: f64,
}

fn run_mix(seed: u64, seconds: f64, scratch: &Scratch) -> Result<Mix, String> {
    let (daemon, setup) = timed_start(scratch)?;
    let next = AtomicU64::new(0);
    let spec_for = |i| mix_spec(seed, i);
    let warmup = drive(&daemon.addr, &next, &|i| i >= WARMUP_JOBS, &spec_for);
    let first = next.load(Ordering::Relaxed);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let stop = |i: u64| i >= first + MIN_JOBS && Instant::now() >= deadline;
    let window = drive(&daemon.addr, &next, &stop, &spec_for);
    let window_s = start.elapsed().as_secs_f64();
    Ok(Mix {
        daemon,
        setup,
        warmup,
        window,
        window_s,
    })
}

impl Mix {
    /// Cross-checks and verifies every job, then stops the server.
    fn finish(self, out: &mut Outcome) -> Result<(), String> {
        let all: Vec<_> = self.warmup.into_iter().chain(self.window).collect();
        check_completed(&self.daemon.server, &all, out);
        self.daemon.stop()?;
        verify(&all, out);
        Ok(())
    }
}

/// The untraced `serve_mix` run.
pub fn measure(seed: u64, seconds: f64, scratch: &Scratch) -> Result<Outcome, String> {
    let mix = run_mix(seed, seconds, scratch)?;
    let latency: Vec<f64> = mix
        .window
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|j| j.latency_s))
        .collect();
    let (setup, window_s) = (mix.setup.clone(), mix.window_s);
    let mut out = Outcome::default();
    mix.finish(&mut out)?;
    if latency.is_empty() {
        return Err("no job completed in the measured window".into());
    }
    describe("setup_s", &setup);
    describe("run_s", &latency);
    out.metrics.put("setup_s", stats::median(&setup));
    out.metrics.put("run_s", stats::median(&latency));
    out.metrics
        .put("jobs_per_s", latency.len() as f64 / window_s);
    Ok(out)
}

/// The traced `serve_mix` run: the cached-class job traced one-shot for
/// the search-side layers, then the served mix for the runtime layer
/// and the shared cache.
pub fn trace(seed: u64, seconds: f64, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = RunSpec::parse_str(&cached_spec(cached_seed(seed, 0))).expect("mix spec parses");
    trace_codesign(&spec, false, CACHED_TARGET_EDP, seed, scratch, &mut out)?;

    let mix = run_mix(seed, seconds, scratch)?;
    let text = mix.daemon.server.metrics_text();
    let counter = |name| metric_value(&text, name).ok_or(format!("{name} missing from /metrics"));
    let hits = counter("spotlight_cache_hits_total")?;
    let evaluations = counter("spotlight_evaluations_total")?;
    out.metrics.put("eval.cache_hit_ratio", hits / evaluations);
    let window: Vec<&JobRecord> = mix.window.iter().filter_map(|r| r.as_ref().ok()).collect();
    runtime_metrics(&window, &mix.daemon.server, &mut out.metrics)?;
    mix.finish(&mut out)?;
    out.finish_trace();
    Ok(out)
}

/// The serve probe of a co-design workload's traced run: `MIN_JOBS` tiny
/// jobs through a fresh server, for the runtime layer's metrics.
pub fn probe_serve(seed: u64, scratch: &Scratch, out: &mut Outcome) -> Result<(), String> {
    let daemon = Daemon::start(&scratch.path("probe-state"))?;
    let next = AtomicU64::new(0);
    let spec_for = |i| tiny_spec(unique_seed(seed, i));
    let records = drive(&daemon.addr, &next, &|i| i >= MIN_JOBS, &spec_for);
    let done: Vec<&JobRecord> = records.iter().filter_map(|r| r.as_ref().ok()).collect();
    runtime_metrics(&done, &daemon.server, &mut out.metrics)?;
    check_completed(&daemon.server, &records, out);
    daemon.stop()?;
    verify(&records, out);
    Ok(())
}
