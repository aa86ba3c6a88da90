//! The serve scheduler: a worker pool round-robining checkpoint-sized
//! slices across every queued job, backed by a durable job store.
//!
//! Fairness comes from the slice unit: a worker advances one job by at
//! most `slice` hardware samples, parks it at the checkpoint its
//! journal just recorded, and requeues it behind every other waiting
//! job. Preemption *is* checkpointing — a parked job's journal is
//! byte-indistinguishable from a killed run's journal, so the next
//! slice (on any worker) recovers it through the same tolerant-parse /
//! scar-truncate / replay path `spotlight resume` uses. A worker panic
//! therefore costs at most one slice of work: the job requeues and a
//! replacement worker thread picks it up.
//!
//! Durability extends the same argument to the whole process: every
//! lifecycle transition is appended to the job's WAL in the
//! [`JobStore`] before the scheduler moves on, so a `kill -9` of the
//! daemon loses at most the slice in flight. [`Server::new`] performs
//! recovery — terminal jobs reload with their persisted reports,
//! everything else re-enqueues and resumes from its journal.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use spotlight_eval::{GlobalEvalStats, SharedCache};
use spotlight_obs::io::StoreIo;
use spotlight_obs::{DiskFaultPlan, FaultFs, RealFs};

use crate::job::{Job, JobId, JobState, JobStatus};
use crate::metrics::{render_metrics, ServerCounters};
use crate::runner::{advance_job, RuntimeError, SliceProgress, JOURNAL_INTEGRITY_PREFIX};
use crate::spec::RunSpec;
use crate::store::{job_dir, JobStore, StoreError};

/// Scheduler shape: pool size, slice length, and the state directory.
#[derive(Debug, Clone)]
pub struct SchedulerOptions {
    /// Worker threads executing slices.
    pub workers: usize,
    /// Hardware samples one slice may run before the job is preempted.
    pub slice: usize,
    /// State directory holding the job store (specs, WALs, journals,
    /// reports). Restarting a daemon on the same directory recovers
    /// every job in it.
    pub dir: PathBuf,
    /// Fault-injection hook for the resilience tests: the worker
    /// executing the n-th slice (1-based, pool-wide) panics instead,
    /// exercising the requeue-and-respawn path.
    pub kill_after: Option<u64>,
    /// Admission cap: submits are rejected with a retryable error while
    /// this many jobs are non-terminal. `None` is unbounded.
    pub max_jobs: Option<usize>,
    /// Deterministic disk-fault schedule (`--disk-faults`): every
    /// durable store and journal write goes through a seeded
    /// [`FaultFs`] instead of the real filesystem. `None` injects
    /// nothing.
    pub disk_faults: Option<DiskFaultPlan>,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            workers: 2,
            slice: 2,
            dir: std::env::temp_dir().join("spotlight-serve"),
            kill_after: None,
            max_jobs: None,
            disk_faults: None,
        }
    }
}

/// Why a submit was refused. The split is the retry contract: `Busy` is
/// a transient server condition worth retrying with backoff, `Invalid`
/// means the spec itself can never be accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Over capacity or shutting down; retry later.
    Busy(String),
    /// The spec failed validation; retrying cannot help.
    Invalid(String),
}

impl SubmitError {
    /// Whether a client should retry this submit.
    pub fn retryable(&self) -> bool {
        matches!(self, SubmitError::Busy(_))
    }

    /// The user-facing message.
    pub fn message(&self) -> &str {
        match self {
            SubmitError::Busy(m) | SubmitError::Invalid(m) => m,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for SubmitError {}

/// Mutable scheduler state, guarded by one mutex. The store lives here
/// too: WAL appends happen under the same lock as the in-memory
/// transition they record, so the disk order matches the state order.
struct State {
    jobs: BTreeMap<JobId, Job>,
    queue: VecDeque<JobId>,
    shutdown: bool,
    store: JobStore,
    /// Shared memo caches keyed by evaluation signature: jobs whose
    /// engines answer queries identically pool their results.
    caches: HashMap<String, SharedCache>,
    /// Worker threads, replacements included, joined at shutdown.
    handles: Vec<JoinHandle<()>>,
}

/// Everything workers and the front end share.
struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    global: Arc<GlobalEvalStats>,
    opts: SchedulerOptions,
    started: Instant,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_recovered: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_quarantined: AtomicU64,
    slices_run: AtomicU64,
    workers_started: AtomicU64,
    workers_died: AtomicU64,
    /// Pool-wide slice ordinal, used only by the kill hook.
    slice_counter: AtomicU64,
    /// Latched when a WAL append fails with `ENOSPC`: the job that hit
    /// it parks, and new submits shed with the retryable `Busy` frame
    /// until the daemon restarts with space available.
    disk_degraded: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A store write failed after the in-memory transition was decided.
/// The scheduler keeps going — losing durability for one transition
/// degrades recovery to redoing a slice, it does not corrupt anything —
/// but the operator should know their disk is unhappy.
fn note_store(result: Result<(), StoreError>) {
    if let Err(e) = result {
        eprintln!("spotlight-serve: job store write failed: {e}");
    }
}

/// The long-lived co-design server: owns the job table, the worker
/// pool, the shared caches, and the metrics counters. The wire layer
/// ([`crate::serve`]) is a thin adapter over these methods.
pub struct Server {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.lock();
        f.debug_struct("Server")
            .field("jobs", &st.jobs.len())
            .field("queued", &st.queue.len())
            .field("shutdown", &st.shutdown)
            .finish()
    }
}

impl Server {
    /// Opens (or creates) the job store under `opts.dir`, recovers every
    /// persisted job, and starts the worker pool. Terminal jobs reload
    /// with their reports; queued and in-flight jobs re-enqueue and
    /// resume from their journals at the first free worker. A job whose
    /// WAL or journal fails integrity verification is quarantined in
    /// the `corrupt` state — recovery keeps going for everything else.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another live daemon holds the state
    /// directory; propagates I/O failures of the store itself (per-job
    /// corruption is not fatal).
    pub fn new(opts: SchedulerOptions) -> Result<Server, StoreError> {
        let io: Arc<dyn StoreIo> = match opts.disk_faults {
            Some(plan) => Arc::new(FaultFs::new(plan)),
            None => Arc::new(RealFs),
        };
        let store = JobStore::open_with(&opts.dir, io)?;
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut recovered = 0u64;
        let mut quarantined = 0u64;
        for (id, loaded) in store.load_all()? {
            let mut job = match loaded {
                Ok(job) => job,
                Err(e) => {
                    // Quarantine: mark the WAL (so the diagnosis
                    // survives the next restart), surface the job as
                    // `corrupt`, and keep serving everything else.
                    let reason = e.to_string();
                    eprintln!("spotlight-serve: quarantining job {id}: {reason}");
                    note_store(store.record_corrupt(id, &reason));
                    let journal = job_dir(&opts.dir, id).join("journal.jsonl");
                    jobs.insert(id, Job::quarantined(id, journal, reason));
                    quarantined += 1;
                    continue;
                }
            };
            if job.state == JobState::Corrupt {
                // Quarantined on an earlier restart; still counts as
                // quarantined in this process's metrics.
                quarantined += 1;
            }
            if !job.state.is_terminal() {
                recovered += 1;
                if job.cancel_requested {
                    // The daemon died between the cancel request and its
                    // slice boundary; the boundary is now.
                    job.state = JobState::Cancelled;
                    note_store(store.record_state(
                        job.id,
                        JobState::Cancelled,
                        job.slices,
                        job.samples_done,
                    ));
                } else {
                    if job.state == JobState::Running {
                        // Its worker died with the process; the journal
                        // ends at the last flushed checkpoint.
                        note_store(store.record_state(
                            job.id,
                            JobState::Queued,
                            job.slices,
                            job.samples_done,
                        ));
                    }
                    job.state = JobState::Queued;
                    queue.push_back(job.id);
                }
            }
            jobs.insert(job.id, job);
        }

        let workers = opts.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs,
                queue,
                shutdown: false,
                store,
                caches: HashMap::new(),
                handles: Vec::new(),
            }),
            wake: Condvar::new(),
            global: Arc::new(GlobalEvalStats::default()),
            opts,
            started: Instant::now(),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_recovered: AtomicU64::new(recovered),
            jobs_rejected: AtomicU64::new(0),
            jobs_quarantined: AtomicU64::new(quarantined),
            slices_run: AtomicU64::new(0),
            workers_started: AtomicU64::new(0),
            workers_died: AtomicU64::new(0),
            slice_counter: AtomicU64::new(0),
            disk_degraded: AtomicBool::new(false),
        });
        for _ in 0..workers {
            spawn_worker(&shared);
        }
        Ok(Server { shared })
    }

    /// The server's global evaluation counters (shared with every
    /// worker's engine).
    pub fn global_stats(&self) -> Arc<GlobalEvalStats> {
        self.shared.global.clone()
    }

    /// Validates, persists, and enqueues a spec. A duplicate
    /// idempotency key returns the existing job instead of forking a
    /// new one; the returned flag says which happened (`true` =
    /// deduplicated against an earlier submit).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for specs that fail validation;
    /// [`SubmitError::Busy`] (retryable) when shutting down, over the
    /// admission cap, or the store write fails.
    pub fn submit(&self, spec: RunSpec, key: Option<&str>) -> Result<(JobId, bool), SubmitError> {
        spec.resolve_models()
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        spec.to_codesign_config()
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        let mut st = self.shared.lock();
        if st.shutdown {
            return Err(SubmitError::Busy("server is shutting down".into()));
        }
        if self.shared.disk_degraded.load(Ordering::Relaxed) {
            self.shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Busy(
                "state disk is full; shedding new submits — retry after space is freed".into(),
            ));
        }
        if let Some(k) = key {
            if let Some(existing) = st.store.lookup_key(k) {
                return Ok((existing, true));
            }
        }
        if let Some(cap) = self.shared.opts.max_jobs {
            let active = st.jobs.values().filter(|j| !j.state.is_terminal()).count();
            if active >= cap {
                self.shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Busy(format!(
                    "server at capacity ({active}/{cap} active jobs); retry later"
                )));
            }
        }
        let (id, journal) = st.store.create(&spec, key).map_err(|e| {
            if e.is_disk_full() {
                self.shared.disk_degraded.store(true, Ordering::Relaxed);
            }
            SubmitError::Busy(format!("job store write failed: {e}"))
        })?;
        st.jobs.insert(
            id,
            Job {
                id,
                spec,
                key: key.map(String::from),
                journal,
                state: JobState::Queued,
                slices: 0,
                samples_done: 0,
                cancel_requested: false,
                report: None,
                best_cost: None,
                error: None,
            },
        );
        st.queue.push_back(id);
        self.shared.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.shared.wake.notify_one();
        Ok((id, false))
    }

    /// The status row for one job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.lock().jobs.get(&id).map(Job::status)
    }

    /// Status rows for every job, in submission order.
    pub fn list(&self) -> Vec<JobStatus> {
        self.shared.lock().jobs.values().map(Job::status).collect()
    }

    /// Requests cancellation. A queued job cancels immediately; a
    /// running one is cancelled at its next slice boundary (its journal
    /// keeps the checkpoints it already earned). The request itself is
    /// WAL-logged first, so it survives a crash that lands before the
    /// boundary. Returns `false` when the job was already terminal.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for an unknown job id.
    pub fn cancel(&self, id: JobId) -> Result<bool, RuntimeError> {
        let mut st = self.shared.lock();
        let job = st
            .jobs
            .get_mut(&id)
            .ok_or_else(|| RuntimeError(format!("no such job {id}")))?;
        if job.state.is_terminal() {
            return Ok(false);
        }
        job.cancel_requested = true;
        let was_queued = job.state == JobState::Queued;
        if was_queued {
            job.state = JobState::Cancelled;
        }
        let (slices, samples) = (job.slices, job.samples_done);
        note_store(st.store.record_cancel_requested(id));
        if was_queued {
            st.queue.retain(|q| *q != id);
            note_store(
                st.store
                    .record_state(id, JobState::Cancelled, slices, samples),
            );
            self.shared.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        Ok(true)
    }

    /// The final report of a completed job.
    pub fn report(&self, id: JobId) -> Option<String> {
        self.shared
            .lock()
            .jobs
            .get(&id)
            .and_then(|j| j.report.clone())
    }

    /// The journal path backing a job (for `stream-journal`).
    pub fn journal_path(&self, id: JobId) -> Option<PathBuf> {
        self.shared.lock().jobs.get(&id).map(|j| j.journal.clone())
    }

    /// Whether every submitted job has reached a terminal state.
    pub fn is_idle(&self) -> bool {
        self.shared
            .lock()
            .jobs
            .values()
            .all(|j| j.state.is_terminal())
    }

    /// Renders the Prometheus text exposition of every counter.
    pub fn metrics_text(&self) -> String {
        let mut by_state: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Corrupt,
        ] {
            by_state.insert(s.as_str(), 0);
        }
        for job in self.shared.lock().jobs.values() {
            *by_state.entry(job.state.as_str()).or_insert(0) += 1;
        }
        let counters = ServerCounters {
            jobs_submitted: self.shared.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.shared.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.shared.jobs_failed.load(Ordering::Relaxed),
            jobs_cancelled: self.shared.jobs_cancelled.load(Ordering::Relaxed),
            jobs_recovered: self.shared.jobs_recovered.load(Ordering::Relaxed),
            jobs_rejected: self.shared.jobs_rejected.load(Ordering::Relaxed),
            jobs_quarantined: self.shared.jobs_quarantined.load(Ordering::Relaxed),
            slices: self.shared.slices_run.load(Ordering::Relaxed),
            workers_started: self.shared.workers_started.load(Ordering::Relaxed),
            workers_died: self.shared.workers_died.load(Ordering::Relaxed),
        };
        let uptime = self.shared.started.elapsed().as_secs_f64();
        render_metrics(&self.shared.global.snapshot(), &counters, uptime, &by_state)
    }

    /// Worker threads that have died to a panic so far.
    pub fn workers_died(&self) -> u64 {
        self.shared.workers_died.load(Ordering::Relaxed)
    }

    /// Jobs recovered from the store at startup (non-terminal records
    /// that were re-enqueued or resolved).
    pub fn jobs_recovered(&self) -> u64 {
        self.shared.jobs_recovered.load(Ordering::Relaxed)
    }

    /// Submits refused by the admission cap so far.
    pub fn jobs_rejected(&self) -> u64 {
        self.shared.jobs_rejected.load(Ordering::Relaxed)
    }

    /// Jobs quarantined in the `corrupt` state — at startup recovery or
    /// when a slice trips on journal corruption.
    pub fn jobs_quarantined(&self) -> u64 {
        self.shared.jobs_quarantined.load(Ordering::Relaxed)
    }

    /// Whether the daemon is shedding submits after an `ENOSPC` WAL
    /// append (cleared only by a restart with space available).
    pub fn disk_degraded(&self) -> bool {
        self.shared.disk_degraded.load(Ordering::Relaxed)
    }

    /// Stops accepting work, wakes every worker, and joins the pool —
    /// the graceful drain. Running slices finish and park at their next
    /// checkpoint; the parked (queued) WAL state marks them for
    /// recovery, so a restart on the same state directory resumes them
    /// with nothing lost.
    pub fn shutdown(&self) {
        let handles = {
            let mut st = self.shared.lock();
            st.shutdown = true;
            std::mem::take(&mut st.handles)
        };
        self.shared.wake.notify_all();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns one worker thread and records its handle for shutdown.
fn spawn_worker(shared: &Arc<Shared>) {
    shared.workers_started.fetch_add(1, Ordering::Relaxed);
    let for_thread = shared.clone();
    let handle = std::thread::spawn(move || worker_loop(for_thread));
    shared.lock().handles.push(handle);
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        // Wait for a runnable job (or shutdown).
        let job_id = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    break id;
                }
                st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };

        // Claim the job and gather the slice inputs.
        let (spec, journal, cache, io) = {
            let mut st = shared.lock();
            let Some(job) = st.jobs.get_mut(&job_id) else {
                continue;
            };
            if job.cancel_requested {
                job.state = JobState::Cancelled;
                let (slices, samples) = (job.slices, job.samples_done);
                note_store(
                    st.store
                        .record_state(job_id, JobState::Cancelled, slices, samples),
                );
                shared.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            job.state = JobState::Running;
            job.slices += 1;
            let sig = job.spec.eval_signature();
            let cap = job.spec.cache_cap;
            let spec = job.spec.clone();
            let journal = job.journal.clone();
            let (slices, samples) = (job.slices, job.samples_done);
            note_store(
                st.store
                    .record_state(job_id, JobState::Running, slices, samples),
            );
            let cache = st
                .caches
                .entry(sig)
                .or_insert_with(|| SharedCache::new(cap))
                .clone();
            let io = st.store.io();
            (spec, journal, cache, io)
        };
        shared.slices_run.fetch_add(1, Ordering::Relaxed);

        let slice = shared.opts.slice.max(1);
        let kill_after = shared.opts.kill_after;
        let global = shared.global.clone();
        let counter = &shared.slice_counter;
        let result = catch_unwind(AssertUnwindSafe(|| {
            // The kill hook fires *inside* the protected region so the
            // panic takes the same path a real worker crash would.
            if let Some(n) = kill_after {
                if counter.fetch_add(1, Ordering::SeqCst) + 1 == n {
                    panic!("injected worker kill on slice {n}");
                }
            }
            advance_job(
                &spec,
                &journal,
                slice,
                Some(&cache),
                Some(global),
                Some(&io),
            )
        }));

        let mut st = shared.lock();
        let Some(job) = st.jobs.get_mut(&job_id) else {
            continue;
        };
        match result {
            Ok(Ok(SliceProgress::Paused { completed, .. })) => {
                job.samples_done = completed as u64;
                let (slices, samples) = (job.slices, job.samples_done);
                if job.cancel_requested {
                    job.state = JobState::Cancelled;
                    note_store(
                        st.store
                            .record_state(job_id, JobState::Cancelled, slices, samples),
                    );
                    shared.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Back of the line: every other waiting job runs a
                    // slice before this one runs again. The queued WAL
                    // line doubles as the drain marker — a daemon that
                    // stops here recovers the job on restart.
                    job.state = JobState::Queued;
                    match st
                        .store
                        .record_state(job_id, JobState::Queued, slices, samples)
                    {
                        Err(e) if e.is_disk_full() => {
                            // ENOSPC mid-WAL-append: park the job (it
                            // stays queued in memory but is never
                            // rescheduled — its checkpoints are safe)
                            // and shed new submits until a restart
                            // finds space again.
                            shared.disk_degraded.store(true, Ordering::Relaxed);
                            eprintln!(
                                "spotlight-serve: WAL append for job {job_id} hit ENOSPC; \
                                 parking the job and shedding new submits: {e}"
                            );
                        }
                        other => {
                            note_store(other);
                            st.queue.push_back(job_id);
                            drop(st);
                            shared.wake.notify_one();
                        }
                    }
                }
            }
            Ok(Ok(SliceProgress::Finished(out))) => {
                job.samples_done = job.spec.hw_samples as u64;
                job.best_cost = Some(out.outcome.best_cost);
                job.report = Some(out.report());
                job.state = JobState::Completed;
                let (slices, samples) = (job.slices, job.samples_done);
                let (report, best) = (out.report(), out.outcome.best_cost);
                note_store(
                    st.store
                        .record_completed(job_id, &report, best, slices, samples),
                );
                shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Err(e)) if e.to_string().starts_with(JOURNAL_INTEGRITY_PREFIX) => {
                // The job's own journal failed verification mid-flight
                // (rot landed after startup recovery checked it).
                // Quarantine rather than fail: the data is suspect, not
                // the search.
                job.state = JobState::Corrupt;
                job.error = Some(e.to_string());
                let msg = e.to_string();
                note_store(st.store.record_corrupt(job_id, &msg));
                shared.jobs_quarantined.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Err(e)) => {
                job.state = JobState::Failed;
                job.error = Some(e.to_string());
                let (slices, msg) = (job.slices, e.to_string());
                note_store(st.store.record_failed(job_id, &msg, slices));
                shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // The worker is considered dead. Requeue the job — its
                // journal ends at the last flushed checkpoint, exactly
                // like a killed process — spawn a replacement thread,
                // and let this one exit so the job provably resumes on
                // a different worker.
                job.state = JobState::Queued;
                let (slices, samples) = (job.slices, job.samples_done);
                note_store(
                    st.store
                        .record_state(job_id, JobState::Queued, slices, samples),
                );
                st.queue.push_back(job_id);
                shared.workers_died.fetch_add(1, Ordering::Relaxed);
                if !st.shutdown {
                    drop(st);
                    spawn_worker(&shared);
                    shared.wake.notify_one();
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_job;

    fn options(name: &str, workers: usize, kill_after: Option<u64>) -> SchedulerOptions {
        let dir =
            std::env::temp_dir().join(format!("spotlight-sched-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        SchedulerOptions {
            workers,
            slice: 2,
            dir,
            kill_after,
            max_jobs: None,
            disk_faults: None,
        }
    }

    fn wait_idle(server: &Server) {
        for _ in 0..600 {
            if server.is_idle() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("server never drained: {:?}", server.list());
    }

    #[test]
    fn concurrent_jobs_match_standalone_runs_byte_for_byte() {
        let spec_a = RunSpec::parse_str("--model transformer --hw 5 --sw 6 --seed 7").unwrap();
        let spec_b = RunSpec::parse_str(
            "--model vgg16 --hw 4 --sw 5 --seed 9 --faults seed=2,transient=0.2",
        )
        .unwrap();
        let standalone_a = run_job(&spec_a, None, false).unwrap().report();
        let standalone_b = run_job(&spec_b, None, false).unwrap().report();

        let opts = options("concurrent", 2, None);
        let dir = opts.dir.clone();
        let server = Server::new(opts).unwrap();
        let (a, _) = server.submit(spec_a, None).unwrap();
        let (b, _) = server.submit(spec_b, None).unwrap();
        wait_idle(&server);

        assert_eq!(server.report(a).as_deref(), Some(standalone_a.as_str()));
        assert_eq!(server.report(b).as_deref(), Some(standalone_b.as_str()));
        let statuses = server.list();
        assert!(statuses.iter().all(|s| s.state == JobState::Completed));
        assert!(
            statuses.iter().all(|s| s.slices >= 2),
            "slice=2 must preempt"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_worker_resumes_the_job_on_another_thread_byte_identically() {
        let spec = RunSpec::parse_str("--model transformer --hw 5 --sw 6 --seed 3").unwrap();
        let standalone = run_job(&spec, None, false).unwrap().report();

        let opts = options("killed", 1, Some(2));
        let dir = opts.dir.clone();
        let server = Server::new(opts).unwrap();
        let (id, _) = server.submit(spec, None).unwrap();
        wait_idle(&server);

        assert_eq!(server.workers_died(), 1, "the kill hook must have fired");
        let status = server.status(id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(server.report(id).as_deref(), Some(standalone.as_str()));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_submissions_are_rejected_and_queued_jobs_cancel() {
        let opts = options("reject", 1, None);
        let dir = opts.dir.clone();
        let server = Server::new(opts).unwrap();
        let bad = RunSpec::parse_str("--hw 3").unwrap();
        match server.submit(bad, None) {
            Err(e) => assert!(!e.retryable(), "an invalid spec is not retryable"),
            Ok(_) => panic!("no models must be rejected"),
        }
        assert!(server.cancel(42).is_err(), "unknown id must error");

        // Saturate the single worker, then cancel a queued job before
        // it ever runs.
        let long = RunSpec::parse_str("--model transformer --hw 6 --sw 6 --seed 1").unwrap();
        let queued = RunSpec::parse_str("--model transformer --hw 6 --sw 6 --seed 2").unwrap();
        let (first, _) = server.submit(long, None).unwrap();
        let (second, _) = server.submit(queued, None).unwrap();
        assert!(server.cancel(second).unwrap());
        wait_idle(&server);
        assert_eq!(server.status(first).unwrap().state, JobState::Completed);
        assert_eq!(server.status(second).unwrap().state, JobState::Cancelled);
        assert!(server.report(second).is_none());
        assert!(
            !server.cancel(second).unwrap(),
            "terminal cancel is a no-op"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_idempotency_key_returns_the_original_job() {
        let opts = options("idem", 1, None);
        let dir = opts.dir.clone();
        let server = Server::new(opts).unwrap();
        let spec = RunSpec::parse_str("--model transformer --hw 3 --sw 4 --seed 5").unwrap();
        let (first, deduped) = server.submit(spec.clone(), Some("run-42")).unwrap();
        assert!(!deduped);
        let (again, deduped) = server.submit(spec.clone(), Some("run-42")).unwrap();
        assert_eq!(again, first, "same key must return the same job");
        assert!(deduped);
        let (other, deduped) = server.submit(spec, Some("run-43")).unwrap();
        assert_ne!(other, first, "a different key is a different job");
        assert!(!deduped);
        wait_idle(&server);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_cap_rejects_with_a_retryable_error() {
        let mut opts = options("cap", 1, None);
        opts.max_jobs = Some(2);
        let dir = opts.dir.clone();
        let server = Server::new(opts).unwrap();
        let spec = |seed: u64| {
            RunSpec::parse_str(&format!("--model transformer --hw 6 --sw 6 --seed {seed}")).unwrap()
        };
        server.submit(spec(1), None).unwrap();
        server.submit(spec(2), None).unwrap();
        match server.submit(spec(3), None) {
            Err(e) => assert!(e.retryable(), "over-capacity must be retryable"),
            Ok(_) => panic!("third active job must be rejected at cap 2"),
        }
        assert_eq!(server.jobs_rejected(), 1);
        wait_idle(&server);
        // Terminal jobs free capacity.
        server.submit(spec(4), None).unwrap();
        wait_idle(&server);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_recovers_parked_jobs_byte_identically() {
        // Big enough that shutdown reliably lands while slices remain.
        let spec = RunSpec::parse_str("--model transformer --hw 12 --sw 12 --seed 11").unwrap();
        let standalone = run_job(&spec, None, false).unwrap().report();

        let opts = options("restart", 1, None);
        let dir = opts.dir.clone();
        let server = Server::new(opts.clone()).unwrap();
        let (id, _) = server.submit(spec, None).unwrap();
        // Let at least one slice land, then drain gracefully mid-job.
        for _ in 0..2000 {
            if server.status(id).map(|s| s.samples_done >= 2) == Some(true) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        server.shutdown();
        drop(server);

        let server = Server::new(opts).unwrap();
        assert_eq!(server.jobs_recovered(), 1, "the parked job must recover");
        wait_idle(&server);
        assert_eq!(server.status(id).unwrap().state, JobState::Completed);
        assert_eq!(server.report(id).as_deref(), Some(standalone.as_str()));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
