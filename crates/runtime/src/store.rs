//! The durable job store: every submitted job persisted as an on-disk
//! record, so a daemon crash or host reboot loses nothing.
//!
//! Layout under the state directory (`spotlight serve --state-dir`):
//!
//! ```text
//! <state-dir>/
//!   LOCK                      pid of the daemon holding the store
//!   jobs/
//!     job-000001/
//!       spec.json             one flat JSON line: id, idempotency key,
//!                             canonical spec string (written once,
//!                             atomically, at submit)
//!       wal.jsonl             state transitions, appended + fsynced
//!       journal.jsonl         the run journal (PR 4 checkpoint format)
//!       report.txt            the final report, written atomically
//!                             before the `completed` WAL line
//! ```
//!
//! The write-ahead log is the recovery contract: the *last* `state` line
//! is the job's authoritative lifecycle state. A `completed` line is
//! only appended after `report.txt` is durably on disk, so a crash
//! between the two replays the job's journal — the same
//! recompute-the-winner path a worker death takes — and regenerates the
//! byte-identical report. [`JobStore::load_all`] rebuilds every
//! [`Job`] from its files; its caller re-enqueues any job whose last WAL
//! state is non-terminal (`queued` or `running`). Such a job's journal
//! ends at the last flushed checkpoint, exactly like a killed one-shot
//! run's, and resumes through the tolerant-parse / scar-truncate path.
//!
//! The lock file makes the store single-writer: a second daemon pointed
//! at the same state directory refuses to start while the first's pid is
//! alive, and a stale lock (the pid is gone — a `kill -9`'d daemon) is
//! reclaimed silently so restart recovery needs no manual cleanup.
//!
//! # Integrity
//!
//! Every durable write goes through a [`StoreIo`] (the production
//! [`RealFs`], or a seeded
//! [`FaultFs`](spotlight_obs::FaultFs) under `--disk-faults`). WAL lines
//! are CRC32C-framed (see [`spotlight_obs::crc`]), with the first line
//! carrying the `integrity` marker so the file declares its own
//! discipline; pre-CRC WALs still fold. [`fold_wal`] localizes damage
//! to individual [`CorruptRecord`]s instead of rejecting the file.
//!
//! Restart recovery and `spotlight fsck` read a job through one scan
//! (spec record, WAL fold, journal, report) and differ only in policy.
//! Recovery first truncates a torn WAL tail, so the next append cannot
//! fuse onto the scar; then a job whose fold ends in verified corruption
//! — or whose journal fails verification while the job is still
//! runnable — loads as an error the scheduler turns into a quarantined
//! `corrupt` state. `fsck` reports every finding instead (see
//! [`crate::fsck`]).

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spotlight_obs::crc::{frame_line, INTEGRITY_CRC32C};
use spotlight_obs::io::StoreIo;
use spotlight_obs::json::{parse_flat_object, Fields, JsonObj};
use spotlight_obs::{
    parse_journal_tolerant_bytes, CorruptRecord, FramedLines, JournalError, ParsedJournal, RealFs,
};

use crate::job::{Job, JobId, JobState};
use crate::spec::RunSpec;

/// A job-store failure, with a user-facing message.
#[derive(Debug)]
pub enum StoreError {
    /// Another live daemon holds the state directory.
    Locked {
        /// The lock file that refused us.
        path: PathBuf,
        /// The pid recorded in it.
        pid: u32,
    },
    /// An I/O failure reading or writing the store.
    Io(String),
    /// A persisted record failed to parse back.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Locked { path, pid } => write!(
                f,
                "state dir is locked by live pid {pid} ({}); \
                 refusing to run two daemons against one store",
                path.display()
            ),
            StoreError::Io(msg) => write!(f, "job store I/O error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "job store record corrupt: {msg}"),
        }
    }
}

impl StoreError {
    /// True for `ENOSPC`-class failures: the write failed because the
    /// disk is full, a condition the daemon degrades under (parks the
    /// job, sheds new submits) rather than treating as corruption.
    pub fn is_disk_full(&self) -> bool {
        matches!(self, StoreError::Io(msg)
            if msg.contains("No space left on device") || msg.contains("os error 28"))
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// The single-writer durable job store. Owns the state-directory lock
/// for its lifetime; dropping the store releases the lock.
#[derive(Debug)]
pub struct JobStore {
    root: PathBuf,
    lock: PathBuf,
    next_id: JobId,
    keys: HashMap<String, JobId>,
    io: Arc<dyn StoreIo>,
}

impl JobStore {
    /// Opens (creating if absent) the store at `root` and takes the
    /// single-writer lock.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when a live process holds the lock;
    /// propagates I/O failures.
    pub fn open(root: &Path) -> Result<JobStore, StoreError> {
        JobStore::open_with(root, Arc::new(RealFs))
    }

    /// Like [`JobStore::open`], but with an explicit [`StoreIo`] — the
    /// seam `--disk-faults` and the integrity tests inject through.
    ///
    /// # Errors
    ///
    /// Same contract as [`JobStore::open`].
    pub fn open_with(root: &Path, io: Arc<dyn StoreIo>) -> Result<JobStore, StoreError> {
        std::fs::create_dir_all(root.join("jobs"))?;
        let lock = root.join("LOCK");
        acquire_lock(io.as_ref(), &lock)?;
        let mut store = JobStore {
            root: root.to_path_buf(),
            lock,
            next_id: 1,
            keys: HashMap::new(),
            io,
        };
        for id in job_ids(root)? {
            // Ids arrive sorted: the last one fixes the next id.
            store.next_id = id + 1;
            if let Ok(fields) = read_spec_record(store.io.as_ref(), &job_dir(root, id)) {
                if let Ok(Some(key)) = fields.opt_str("key") {
                    store.keys.insert(key, id);
                }
            }
        }
        Ok(store)
    }

    /// The state directory this store persists into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The I/O seam every durable write of this store goes through.
    /// Journal writers for this store's jobs must share it, so injected
    /// disk faults cover the journal too.
    pub fn io(&self) -> Arc<dyn StoreIo> {
        self.io.clone()
    }

    /// The job a previously submitted idempotency key maps to.
    pub fn lookup_key(&self, key: &str) -> Option<JobId> {
        self.keys.get(key).copied()
    }

    /// Persists a new job: allocates the next monotonic id, writes the
    /// spec record atomically, and appends the initial `queued` WAL
    /// line. Returns the id and the journal path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; nothing is half-created (the record file
    /// appears only via rename).
    pub fn create(
        &mut self,
        spec: &RunSpec,
        key: Option<&str>,
    ) -> Result<(JobId, PathBuf), StoreError> {
        let id = self.next_id;
        let dir = job_dir(&self.root, id);
        std::fs::create_dir_all(&dir)?;
        let mut rec = JsonObj::typed("job");
        rec.push_u64("id", id);
        rec.push_str("key", key.unwrap_or(""));
        rec.push_str("spec", &spec.to_spec_string());
        self.io
            .write_atomic(&dir.join("spec.json"), rec.finish().as_bytes())?;
        append_wal(self.io.as_ref(), &dir, |o| {
            o.push_str("state", JobState::Queued.as_str());
            // The first line declares the WAL's framing discipline, so
            // a flip that erases a later line's frame is still caught.
            o.push_str("integrity", INTEGRITY_CRC32C);
        })?;
        self.next_id = id + 1;
        if let Some(key) = key {
            self.keys.insert(key.to_string(), id);
        }
        Ok((id, dir.join("journal.jsonl")))
    }

    /// Appends one state transition to a job's WAL and fsyncs it.
    /// `slices`/`samples_done` ride along so a restart restores the
    /// progress counters the status rows report.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn record_state(
        &self,
        id: JobId,
        state: JobState,
        slices: u64,
        samples_done: u64,
    ) -> Result<(), StoreError> {
        self.append(id, |o| {
            o.push_str("state", state.as_str());
            o.push_u64("slices", slices);
            o.push_u64("samples", samples_done);
        })
    }

    /// Records a cancel request (distinct from the `cancelled` state:
    /// the request survives a crash even when it arrives mid-slice and
    /// has not reached a slice boundary yet).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn record_cancel_requested(&self, id: JobId) -> Result<(), StoreError> {
        self.append(id, |o| {
            o.push_bool("cancel_requested", true);
        })
    }

    /// Persists a completed job: the report is durably on disk *before*
    /// the `completed` WAL line, so a crash between the two recovers by
    /// replaying the journal rather than trusting a half-written report.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn record_completed(
        &self,
        id: JobId,
        report: &str,
        best_cost: f64,
        slices: u64,
        samples_done: u64,
    ) -> Result<(), StoreError> {
        self.io.write_atomic(
            &job_dir(&self.root, id).join("report.txt"),
            report.as_bytes(),
        )?;
        self.append(id, |o| {
            o.push_str("state", JobState::Completed.as_str());
            o.push_u64("slices", slices);
            o.push_u64("samples", samples_done);
            o.push_f64("best_cost", best_cost);
        })
    }

    /// Persists a failed job with its terminal error.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn record_failed(&self, id: JobId, error: &str, slices: u64) -> Result<(), StoreError> {
        self.append(id, |o| {
            o.push_str("state", JobState::Failed.as_str());
            o.push_u64("slices", slices);
            o.push_str("error", error);
        })
    }

    /// Quarantines a job: appends a terminal `corrupt` WAL line naming
    /// the verification failure. The marker is what makes quarantine
    /// idempotent — the next restart folds straight to `corrupt`
    /// without re-diagnosing (or re-counting) the damage.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. The caller treats a failed marker write
    /// as in-memory-only quarantine (the next restart re-diagnoses).
    pub fn record_corrupt(&self, id: JobId, reason: &str) -> Result<(), StoreError> {
        self.append(id, |o| {
            o.push_str("state", JobState::Corrupt.as_str());
            o.push_str("error", reason);
        })
    }

    /// Loads every persisted job for startup recovery, in id order.
    /// Records that fail verification are reported alongside their id,
    /// not silently skipped — the caller (the scheduler) quarantines
    /// them while everything else recovers. A torn final WAL line is
    /// truncated away first, so the caller's next append starts a
    /// fresh line.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan I/O failures; per-job corruption is
    /// returned in the `Err` side of each element.
    #[allow(clippy::type_complexity)]
    pub fn load_all(&self) -> Result<Vec<(JobId, Result<Job, StoreError>)>, StoreError> {
        Ok(job_ids(&self.root)?
            .into_iter()
            .map(|id| (id, self.load_one(id)))
            .collect())
    }

    /// Recovery's policy over a [`JobScan`]: heal a torn WAL tail, then
    /// fail on the first finding, checking the journal only for a
    /// runnable job.
    fn load_one(&self, id: JobId) -> Result<Job, StoreError> {
        let dir = job_dir(&self.root, id);
        let scan = JobScan::read(self.io.as_ref(), &dir, false);
        // The caller's next transition (or quarantine marker) appends
        // to this WAL; left in place, a torn tail would fuse with it
        // into one line that fails its checksum on the next restart.
        if scan.wal.torn_tail.is_some() {
            self.io
                .set_len(&dir.join("wal.jsonl"), scan.wal.valid_bytes)?;
        }
        let fold = scan.wal;
        // A trailing `corrupt` marker wins over the damage it records,
        // a damaged spec record included: the job was already
        // quarantined, and reloading it as terminal `Corrupt` without
        // re-diagnosing is what makes quarantine idempotent. Unmarked
        // corruption is an error the caller quarantines now.
        if fold.state == JobState::Corrupt {
            let reason = fold.error.unwrap_or_default();
            return Ok(Job::quarantined(id, dir.join("journal.jsonl"), reason));
        }
        let corrupt = |what: String| StoreError::Corrupt(format!("job {id}: {what}"));
        let fields = scan.record?;
        let spec = spec_of(&fields).map_err(corrupt)?;
        let key = Some(fields.str("key").map_err(corrupt)?).filter(|k| !k.is_empty());
        if let Some(c) = fold.corrupt.first() {
            return Err(corrupt(format!("WAL {c}")));
        }
        // A runnable job is about to have its journal replayed; verify
        // it now so a rotted checkpoint quarantines the job at startup
        // instead of failing its first slice.
        if let Some(read) = scan.journal {
            let parsed = read?.map_err(|e| corrupt(format!("journal {e}")))?;
            if let Some(c) = parsed.corrupt.first() {
                return Err(corrupt(format!("journal {c}")));
            }
        }
        let report = match scan.report {
            Some(read) => {
                let bytes =
                    read.map_err(|e| corrupt(format!("completed but report unreadable: {e}")))?;
                Some(
                    String::from_utf8(bytes)
                        .map_err(|e| corrupt(format!("report is not UTF-8: {e}")))?,
                )
            }
            None => None,
        };
        Ok(Job {
            id,
            spec,
            key,
            journal: dir.join("journal.jsonl"),
            state: fold.state,
            slices: fold.slices,
            samples_done: fold.samples_done,
            cancel_requested: fold.cancel_requested,
            report,
            best_cost: fold.best_cost,
            error: fold.error,
        })
    }

    fn append(&self, id: JobId, fill: impl FnOnce(&mut JsonObj)) -> Result<(), StoreError> {
        append_wal(self.io.as_ref(), &job_dir(&self.root, id), fill)
    }
}

/// Everything one job directory says, read once through a [`StoreIo`]:
/// the one integrity scan behind restart recovery and `fsck`. The scan
/// judges nothing; each caller applies its own policy to it.
pub(crate) struct JobScan {
    /// The spec record's fields, or why the record cannot be read.
    pub record: Result<Fields, StoreError>,
    /// The folded WAL (a missing WAL folds as empty).
    pub wal: WalFold,
    /// The journal: `None` when absent or not asked for; the outer
    /// result is I/O, the inner one the schema check.
    pub journal: Option<std::io::Result<Result<ParsedJournal, JournalError>>>,
    /// The report bytes, read only for a completed job.
    pub report: Option<std::io::Result<Vec<u8>>>,
}

impl JobScan {
    /// Scans the job at `dir`. The journal is read when the job is
    /// runnable, or always with `every_journal` (a terminal job's
    /// journal is never replayed, but `fsck` still verifies it).
    pub fn read(io: &dyn StoreIo, dir: &Path, every_journal: bool) -> JobScan {
        let wal = fold_wal(&io.read(&dir.join("wal.jsonl")).unwrap_or_default());
        let journal = dir.join("journal.jsonl");
        let journal = ((every_journal || !wal.state.is_terminal()) && journal.exists())
            .then(|| io.read(&journal).map(|b| parse_journal_tolerant_bytes(&b)));
        let report = (wal.state == JobState::Completed).then(|| io.read(&dir.join("report.txt")));
        JobScan {
            record: read_spec_record(io, dir),
            wal,
            journal,
            report,
        }
    }
}

/// The spec string of a readable record, re-parsed through the submit
/// path.
pub(crate) fn spec_of(fields: &Fields) -> Result<RunSpec, String> {
    RunSpec::parse_str(&fields.str("spec")?).map_err(|e| format!("spec re-parse failed: {e}"))
}

/// The outcome of folding one WAL file: the authoritative lifecycle
/// state plus every integrity finding, so callers (recovery, `fsck`)
/// can localize damage by byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFold {
    /// Last state line's state (`Queued` when the WAL is empty).
    pub state: JobState,
    /// Whether any line recorded a cancel request (sticky).
    pub cancel_requested: bool,
    /// Slices recorded by the last state line.
    pub slices: u64,
    /// Samples recorded by the last state line.
    pub samples_done: u64,
    /// Best cost recorded by the last state line, if finite.
    pub best_cost: Option<f64>,
    /// Error recorded by the last state line, if any.
    pub error: Option<String>,
    /// Terminated lines that failed verification, by byte offset.
    pub corrupt: Vec<CorruptRecord>,
    /// Byte offset of a final line cut mid-write (the crash scar), if
    /// the WAL ends in one. Everything before it folded normally.
    pub torn_tail: Option<u64>,
    /// Byte length of the terminated prefix (the scar starts here).
    pub valid_bytes: u64,
    /// Whether the WAL uses CRC32C framing.
    pub checked: bool,
}

/// Folds WAL bytes: the *last* `state` line wins, a cancel request is
/// sticky, a final line cut mid-write is a crash scar (skipped), and —
/// in a framed WAL — terminated lines that fail verification become
/// localized [`CorruptRecord`]s rather than poisoning the fold (the
/// [`FramedLines`] walk the journal reader shares). The fold itself is
/// total; deciding whether corruption is fatal is the caller's job
/// (recovery quarantines, `fsck` reports).
pub fn fold_wal(bytes: &[u8]) -> WalFold {
    let mut state = JobState::Queued;
    let (mut cancel_requested, mut slices, mut samples_done) = (false, 0, 0);
    let (mut best_cost, mut error) = (None, None);
    let mut lines = FramedLines::new(bytes, "WAL");
    while let Some(line) = lines.next() {
        let f = match parse_flat_object(line.text) {
            Ok(parsed) => Fields(parsed),
            Err(e) => {
                lines.reject(&line, format!("unparseable WAL line: {e}"));
                continue;
            }
        };
        if let Ok(Some(true)) = f.opt_bool("cancel_requested") {
            cancel_requested = true;
        }
        let Ok(Some(name)) = f.opt_str("state") else {
            continue;
        };
        match JobState::from_str_name(&name) {
            Ok(s) => {
                state = s;
                slices = f.opt_u64("slices").unwrap_or(None).unwrap_or(slices);
                samples_done = f.opt_u64("samples").unwrap_or(None).unwrap_or(samples_done);
                best_cost = f
                    .opt_f64("best_cost")
                    .unwrap_or(None)
                    .filter(|c| c.is_finite());
                error = f.opt_str("error").unwrap_or(None).filter(|e| !e.is_empty());
            }
            Err(e) => lines.reject(&line, e),
        }
    }
    let scan = lines.finish();
    WalFold {
        state,
        cancel_requested,
        slices,
        samples_done,
        best_cost,
        error,
        corrupt: scan.corrupt,
        torn_tail: scan.torn_tail.map(|_| scan.valid_bytes),
        valid_bytes: scan.valid_bytes,
        checked: scan.checked,
    }
}

impl Drop for JobStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock);
    }
}

/// Takes the pid lock: creates `LOCK` exclusively, reclaiming it when
/// the recorded pid is no longer alive (a `kill -9`'d daemon). Write
/// and fsync failures on the lock propagate — a lock that might not be
/// on disk is a lock another daemon might not see.
fn acquire_lock(io: &dyn StoreIo, lock: &Path) -> Result<(), StoreError> {
    for _ in 0..2 {
        match io.create_exclusive(lock, std::process::id().to_string().as_bytes()) {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if let Some(pid) = live_lock_pid(io, lock) {
                    return Err(StoreError::Locked {
                        path: lock.to_path_buf(),
                        pid,
                    });
                }
                // Stale: the holder is gone. Reclaim and retry once.
                let _ = std::fs::remove_file(lock);
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(StoreError::Io(format!(
        "could not acquire lock {} after reclaiming a stale holder",
        lock.display()
    )))
}

/// The pid recorded in the lock file at `lock`, when that process is
/// still alive. A missing, unreadable or dead pid is a stale lock.
pub(crate) fn live_lock_pid(io: &dyn StoreIo, lock: &Path) -> Option<u32> {
    let text = String::from_utf8(io.read(lock).ok()?).ok()?;
    let pid: u32 = text.trim().parse().ok()?;
    (pid != 0 && Path::new(&format!("/proc/{pid}")).exists()).then_some(pid)
}

/// The ids of every job directory under `root`, in id order.
pub(crate) fn job_ids(root: &Path) -> Result<Vec<JobId>, StoreError> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(root.join("jobs"))? {
        let name = entry?.file_name();
        if let Some(id) = name
            .to_string_lossy()
            .strip_prefix("job-")
            .and_then(|n| n.parse().ok())
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// The directory holding job `id`'s files under the state dir `root`.
pub(crate) fn job_dir(root: &Path, id: JobId) -> PathBuf {
    root.join("jobs").join(format!("job-{id:06}"))
}

/// Appends one CRC32C-framed WAL line (built by `fill`) to the job at
/// `dir` durably, so the transition is on disk before the caller moves
/// on. The one WAL writer: the store's transitions and `fsck`'s
/// quarantine marker both go through it.
pub(crate) fn append_wal(
    io: &dyn StoreIo,
    dir: &Path,
    fill: impl FnOnce(&mut JsonObj),
) -> Result<(), StoreError> {
    let mut o = JsonObj::typed("wal");
    fill(&mut o);
    let mut line = frame_line(&o.finish());
    line.push('\n');
    io.append_line_durable(&dir.join("wal.jsonl"), line.as_bytes())?;
    Ok(())
}

fn read_spec_record(io: &dyn StoreIo, dir: &Path) -> Result<Fields, StoreError> {
    let path = dir.join("spec.json");
    let text = std::io::read_to_string(io.read(&path)?.as_slice())?;
    parse_flat_object(text.trim())
        .map(Fields)
        .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spotlight-store-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> RunSpec {
        RunSpec::parse_str("--model transformer --hw 4 --sw 5 --seed 3").unwrap()
    }

    #[test]
    fn create_persists_and_reloads_across_reopen() {
        let root = tmp("reload");
        let (a, b) = {
            let mut store = JobStore::open(&root).unwrap();
            let (a, journal) = store.create(&spec(), Some("key-a")).unwrap();
            assert!(journal.starts_with(&root));
            let (b, _) = store.create(&spec(), None).unwrap();
            store.record_state(a, JobState::Running, 1, 0).unwrap();
            store.record_state(a, JobState::Queued, 1, 2).unwrap();
            store.record_completed(b, "the report", 42.5, 2, 4).unwrap();
            (a, b)
        };
        // Lock released by drop; reopening scans the records back.
        let store = JobStore::open(&root).unwrap();
        assert_eq!(store.lookup_key("key-a"), Some(a));
        assert_eq!(store.lookup_key("other"), None);
        let jobs: Vec<Job> = store
            .load_all()
            .unwrap()
            .into_iter()
            .map(|(_, j)| j.unwrap())
            .collect();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, a);
        assert_eq!(jobs[0].state, JobState::Queued);
        assert_eq!(jobs[0].samples_done, 2);
        assert_eq!(jobs[0].spec, spec());
        assert_eq!(jobs[1].id, b);
        assert_eq!(jobs[1].state, JobState::Completed);
        assert_eq!(jobs[1].best_cost, Some(42.5));
        assert_eq!(jobs[1].report.as_deref(), Some("the report"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ids_stay_monotonic_across_reopen() {
        let root = tmp("monotonic");
        let last = {
            let mut store = JobStore::open(&root).unwrap();
            store.create(&spec(), None).unwrap();
            store.create(&spec(), None).unwrap().0
        };
        let mut store = JobStore::open(&root).unwrap();
        let (next, _) = store.create(&spec(), None).unwrap();
        assert_eq!(next, last + 1, "ids never reuse after restart");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn live_lock_refuses_a_second_store() {
        let root = tmp("lock");
        let _held = JobStore::open(&root).unwrap();
        match JobStore::open(&root) {
            Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("second open must refuse: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_lock_is_reclaimed() {
        let root = tmp("stale");
        std::fs::create_dir_all(&root).unwrap();
        // No live process has pid 0; u32::MAX is far beyond pid_max.
        std::fs::write(root.join("LOCK"), format!("{}", u32::MAX)).unwrap();
        let store = JobStore::open(&root).expect("stale lock must be reclaimed");
        drop(store);
        assert!(!root.join("LOCK").exists(), "drop releases the lock");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cancel_request_survives_a_wal_fold() {
        let root = tmp("cancel");
        let mut store = JobStore::open(&root).unwrap();
        let (id, _) = store.create(&spec(), None).unwrap();
        store.record_state(id, JobState::Running, 1, 0).unwrap();
        store.record_cancel_requested(id).unwrap();
        let jobs = store.load_all().unwrap();
        let job = jobs[0].1.as_ref().unwrap();
        assert_eq!(job.id, id);
        assert_eq!(job.state, JobState::Running);
        assert!(job.cancel_requested);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_final_wal_line_is_a_scar_not_an_error() {
        let root = tmp("scar");
        let mut store = JobStore::open(&root).unwrap();
        let (id, _) = store.create(&spec(), None).unwrap();
        store.record_state(id, JobState::Running, 1, 0).unwrap();
        // Simulate dying mid-append: a partial line with no newline.
        let wal = root
            .join("jobs")
            .join(format!("job-{id:06}"))
            .join("wal.jsonl");
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(b"{\"type\":\"wal\",\"sta").unwrap();
        drop(f);
        let jobs = store.load_all().unwrap();
        let job = jobs[0].1.as_ref().unwrap();
        assert_eq!(
            job.state,
            JobState::Running,
            "scar must not mask the prefix"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    fn wal_path(root: &Path, id: JobId) -> PathBuf {
        root.join("jobs")
            .join(format!("job-{id:06}"))
            .join("wal.jsonl")
    }

    #[test]
    fn wal_lines_are_framed_and_fold_back_clean() {
        let root = tmp("framed");
        let mut store = JobStore::open(&root).unwrap();
        let (id, _) = store.create(&spec(), None).unwrap();
        store.record_state(id, JobState::Running, 1, 0).unwrap();
        let bytes = std::fs::read(wal_path(&root, id)).unwrap();
        let fold = fold_wal(&bytes);
        assert!(fold.checked, "new WALs declare framing");
        assert!(fold.corrupt.is_empty());
        assert_eq!(fold.state, JobState::Running);
        let first = std::str::from_utf8(&bytes).unwrap().lines().next().unwrap();
        assert!(first.contains("\"integrity\":\"crc32c\""));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn flipped_wal_byte_is_localized_and_fails_the_load() {
        let root = tmp("walflip");
        let mut store = JobStore::open(&root).unwrap();
        let (id, _) = store.create(&spec(), None).unwrap();
        store.record_state(id, JobState::Running, 1, 0).unwrap();
        store.record_state(id, JobState::Queued, 1, 2).unwrap();
        let path = wal_path(&root, id);
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[first_len + 10] ^= 0x04; // one bit, second line
        std::fs::write(&path, &bytes).unwrap();

        let fold = fold_wal(&bytes);
        assert_eq!(fold.corrupt.len(), 1, "damage localized to one record");
        assert_eq!(fold.corrupt[0].offset as usize, first_len);
        assert_eq!(fold.state, JobState::Queued, "clean lines still fold");

        let jobs = store.load_all().unwrap();
        let (got_id, res) = &jobs[0];
        assert_eq!(*got_id, id);
        let err = res.as_ref().unwrap_err();
        assert!(err.to_string().contains("WAL"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_marker_reloads_as_terminal_quarantine() {
        let root = tmp("marker");
        let mut store = JobStore::open(&root).unwrap();
        let (id, _) = store.create(&spec(), None).unwrap();
        // Damage the WAL, then quarantine it the way the scheduler does.
        let path = wal_path(&root, id);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_all().unwrap()[0].1.is_err());
        store.record_corrupt(id, "WAL checksum mismatch").unwrap();

        let jobs = store.load_all().unwrap();
        let job = jobs[0].1.as_ref().expect("marker makes the load clean");
        assert_eq!(job.state, JobState::Corrupt);
        assert_eq!(job.error.as_deref(), Some("WAL checksum mismatch"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_journal_fails_the_load_of_a_runnable_job() {
        let root = tmp("journalrot");
        let mut store = JobStore::open(&root).unwrap();
        let (id, journal) = store.create(&spec(), None).unwrap();
        // A framed journal line whose payload was then damaged on disk.
        let line = spotlight_obs::frame_line(r#"{"type":"best_improved","cost":1}"#);
        std::fs::write(&journal, format!("{}\n", line.replace("cost", "c0st"))).unwrap();
        let err = store.load_all().unwrap()[0]
            .1
            .as_ref()
            .unwrap_err()
            .to_string();
        assert!(err.contains("journal"), "{err}");

        // The same damage on a *completed* job is not a load error: its
        // journal is never replayed (fsck still reports it).
        store.record_completed(id, "report", 1.0, 1, 1).unwrap();
        assert!(store.load_all().unwrap()[0].1.is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn legacy_unframed_wal_still_folds() {
        // A PR 8 store written before CRC framing: plain lines.
        let fold = fold_wal(
            b"{\"type\":\"wal\",\"state\":\"queued\"}\n\
              {\"type\":\"wal\",\"state\":\"running\",\"slices\":2,\"samples\":1}\n",
        );
        assert!(!fold.checked);
        assert!(fold.corrupt.is_empty());
        assert_eq!(fold.state, JobState::Running);
        assert_eq!(fold.slices, 2);
    }

    #[test]
    fn failed_jobs_reload_with_their_error() {
        let root = tmp("failed");
        let mut store = JobStore::open(&root).unwrap();
        let (id, _) = store.create(&spec(), None).unwrap();
        store.record_failed(id, "backend exploded", 3).unwrap();
        let jobs = store.load_all().unwrap();
        let job = jobs[0].1.as_ref().unwrap();
        assert_eq!(job.state, JobState::Failed);
        assert_eq!(job.error.as_deref(), Some("backend exploded"));
        assert_eq!(job.slices, 3);
        let _ = std::fs::remove_dir_all(&root);
    }
}
