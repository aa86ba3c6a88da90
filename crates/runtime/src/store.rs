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
//! byte-identical report. Any job whose last WAL state is non-terminal
//! (`queued` or `running`) is re-enqueued by [`JobStore::load_all`]'s
//! caller; its journal ends at the last flushed checkpoint, exactly like
//! a killed one-shot run's, and resumes through the tolerant-parse /
//! scar-truncate path.
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
//! to individual [`CorruptRecord`]s instead of rejecting the file, and
//! a job whose fold ends in verified corruption — or whose journal
//! fails verification while the job is still runnable — loads as an
//! error the scheduler turns into a quarantined `corrupt` state.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spotlight_obs::crc::{check_line, claims_framing, frame_line, LineIntegrity, INTEGRITY_CRC32C};
use spotlight_obs::io::StoreIo;
use spotlight_obs::json::{parse_flat_object, Fields, JsonObj};
use spotlight_obs::{parse_journal_tolerant_bytes, CorruptRecord, RealFs};

use crate::job::{JobId, JobState};
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

/// One job as the store persists it, returned by [`JobStore::load_all`]
/// for startup recovery.
#[derive(Debug, Clone)]
pub struct PersistedJob {
    /// Store-assigned monotonic identifier.
    pub id: JobId,
    /// The validated run description, re-parsed from the canonical spec
    /// string through the normal submit path.
    pub spec: RunSpec,
    /// Client-supplied idempotency key, if any.
    pub key: Option<String>,
    /// The last WAL state.
    pub state: JobState,
    /// Whether a cancel request was recorded before the crash.
    pub cancel_requested: bool,
    /// Scheduler slices recorded by the last WAL line.
    pub slices: u64,
    /// Hardware samples recorded by the last WAL line.
    pub samples_done: u64,
    /// Best aggregate cost (completed jobs).
    pub best_cost: Option<f64>,
    /// Terminal error message (failed jobs).
    pub error: Option<String>,
    /// The final report text (completed jobs).
    pub report: Option<String>,
    /// The job's journal path inside the store.
    pub journal: PathBuf,
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
        for entry in std::fs::read_dir(store.root.join("jobs"))? {
            let entry = entry?;
            let Some(id) = parse_job_dir(&entry.file_name().to_string_lossy()) else {
                continue;
            };
            store.next_id = store.next_id.max(id + 1);
            if let Ok(fields) = read_spec_record(&entry.path()) {
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
        let dir = self.job_dir(id);
        std::fs::create_dir_all(&dir)?;
        let mut rec = JsonObj::typed("job");
        rec.push_u64("id", id);
        rec.push_str("key", key.unwrap_or(""));
        rec.push_str("spec", &spec.to_spec_string());
        self.io
            .write_atomic(&dir.join("spec.json"), rec.finish().as_bytes())?;
        self.append_wal(&dir, |o| {
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
        self.append_wal(&self.job_dir(id), |o| {
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
        self.append_wal(&self.job_dir(id), |o| {
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
        let dir = self.job_dir(id);
        self.io
            .write_atomic(&dir.join("report.txt"), report.as_bytes())?;
        self.append_wal(&dir, |o| {
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
        self.append_wal(&self.job_dir(id), |o| {
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
        self.append_wal(&self.job_dir(id), |o| {
            o.push_str("state", JobState::Corrupt.as_str());
            o.push_str("error", reason);
        })
    }

    /// Loads every persisted job for startup recovery, in id order.
    /// Records that fail verification are reported alongside their id,
    /// not silently skipped — the caller (the scheduler) quarantines
    /// them while everything else recovers.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan I/O failures; per-job corruption is
    /// returned in the `Err` side of each element.
    #[allow(clippy::type_complexity)]
    pub fn load_all(&self) -> Result<Vec<(JobId, Result<PersistedJob, StoreError>)>, StoreError> {
        let mut ids: Vec<JobId> = Vec::new();
        for entry in std::fs::read_dir(self.root.join("jobs"))? {
            if let Some(id) = parse_job_dir(&entry?.file_name().to_string_lossy()) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids.into_iter().map(|id| (id, self.load_one(id))).collect())
    }

    fn load_one(&self, id: JobId) -> Result<PersistedJob, StoreError> {
        let dir = self.job_dir(id);
        let fields = read_spec_record(&dir)?;
        let spec_str = fields
            .str("spec")
            .map_err(|e| StoreError::Corrupt(format!("job {id}: {e}")))?;
        let spec = RunSpec::parse_str(&spec_str)
            .map_err(|e| StoreError::Corrupt(format!("job {id}: spec re-parse failed: {e}")))?;
        let key = match fields
            .str("key")
            .map_err(|e| StoreError::Corrupt(format!("job {id}: {e}")))?
        {
            k if k.is_empty() => None,
            k => Some(k),
        };

        let wal = self.io.read(&dir.join("wal.jsonl")).unwrap_or_default();
        let fold = fold_wal(&wal);
        // A trailing `corrupt` marker wins over the damage it records:
        // the job was already quarantined, and reloading it as terminal
        // `Corrupt` is what makes quarantine idempotent. Unmarked
        // corruption is an error the caller quarantines now.
        if fold.state != JobState::Corrupt {
            if let Some(c) = fold.corrupt.first() {
                return Err(StoreError::Corrupt(format!("job {id}: WAL {c}")));
            }
        }
        // A runnable job is about to have its journal replayed; verify
        // it now so a rotted checkpoint quarantines the job at startup
        // instead of failing its first slice.
        if !fold.state.is_terminal() {
            let journal = dir.join("journal.jsonl");
            if journal.exists() {
                match parse_journal_tolerant_bytes(&self.io.read(&journal)?) {
                    Ok(parsed) => {
                        if let Some(c) = parsed.corrupt.first() {
                            return Err(StoreError::Corrupt(format!("job {id}: journal {c}")));
                        }
                    }
                    Err(e) => {
                        return Err(StoreError::Corrupt(format!("job {id}: journal {e}")));
                    }
                }
            }
        }
        let report = if fold.state == JobState::Completed {
            Some(
                String::from_utf8(self.io.read(&dir.join("report.txt")).map_err(|e| {
                    StoreError::Corrupt(format!("job {id}: completed but report unreadable: {e}"))
                })?)
                .map_err(|e| StoreError::Corrupt(format!("job {id}: report is not UTF-8: {e}")))?,
            )
        } else {
            None
        };
        Ok(PersistedJob {
            id,
            spec,
            key,
            state: fold.state,
            cancel_requested: fold.cancel_requested,
            slices: fold.slices,
            samples_done: fold.samples_done,
            best_cost: fold.best_cost,
            error: fold.error,
            report,
            journal: dir.join("journal.jsonl"),
        })
    }

    fn job_dir(&self, id: JobId) -> PathBuf {
        self.root.join("jobs").join(format!("job-{id:06}"))
    }

    /// Appends one CRC32C-framed WAL line (built by `fill`) durably, so
    /// the transition is on disk before the in-memory state moves on.
    fn append_wal(&self, dir: &Path, fill: impl FnOnce(&mut JsonObj)) -> Result<(), StoreError> {
        let mut o = JsonObj::typed("wal");
        fill(&mut o);
        let mut line = frame_line(&o.finish());
        line.push('\n');
        self.io
            .append_line_durable(&dir.join("wal.jsonl"), line.as_bytes())?;
        Ok(())
    }
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
/// localized [`CorruptRecord`]s rather than poisoning the fold. The
/// fold itself is total; deciding whether corruption is fatal is the
/// caller's job (recovery quarantines, `fsck` reports).
pub fn fold_wal(bytes: &[u8]) -> WalFold {
    let mut fold = WalFold {
        state: JobState::Queued,
        cancel_requested: false,
        slices: 0,
        samples_done: 0,
        best_cost: None,
        error: None,
        corrupt: Vec::new(),
        torn_tail: None,
        valid_bytes: 0,
        checked: false,
    };
    let mut offset = 0u64;
    for (idx, segment) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        if segment.last() != Some(&b'\n') {
            fold.torn_tail = Some(offset);
            break;
        }
        let corrupt = |reason: String, fold: &mut WalFold| {
            fold.corrupt.push(CorruptRecord {
                line: idx + 1,
                offset,
                len: segment.len() as u64,
                reason,
            });
        };
        let mut line_end = segment.len() - 1;
        if segment[..line_end].last() == Some(&b'\r') {
            line_end -= 1;
        }
        match std::str::from_utf8(&segment[..line_end]) {
            Err(e) => corrupt(format!("invalid UTF-8 ({e})"), &mut fold),
            Ok(line) if line.trim().is_empty() => {}
            Ok(line) => {
                let verdict = check_line(line);
                let accepted = match verdict {
                    LineIntegrity::Valid => {
                        fold.checked = true;
                        true
                    }
                    LineIntegrity::Mismatch { stored, computed } => {
                        fold.checked = true;
                        corrupt(
                            format!(
                                "checksum mismatch (stored {stored:08x}, computed {computed:08x})"
                            ),
                            &mut fold,
                        );
                        false
                    }
                    LineIntegrity::Unframed if fold.checked || claims_framing(line) => {
                        fold.checked = true;
                        corrupt(
                            "unframed line in a checksummed WAL (damaged or stripped crc)"
                                .to_string(),
                            &mut fold,
                        );
                        false
                    }
                    // A pre-CRC legacy line: folded on faith.
                    LineIntegrity::Unframed => true,
                };
                if accepted {
                    match parse_flat_object(line) {
                        Ok(parsed) => {
                            let f = Fields(parsed);
                            if let Ok(Some(true)) = f.opt_bool("cancel_requested") {
                                fold.cancel_requested = true;
                            }
                            if let Ok(Some(name)) = f.opt_str("state") {
                                match JobState::from_str_name(&name) {
                                    Ok(state) => {
                                        fold.state = state;
                                        fold.slices = f
                                            .opt_u64("slices")
                                            .unwrap_or(None)
                                            .unwrap_or(fold.slices);
                                        fold.samples_done = f
                                            .opt_u64("samples")
                                            .unwrap_or(None)
                                            .unwrap_or(fold.samples_done);
                                        fold.best_cost = f
                                            .opt_f64("best_cost")
                                            .unwrap_or(None)
                                            .filter(|c| c.is_finite());
                                        fold.error = f
                                            .opt_str("error")
                                            .unwrap_or(None)
                                            .filter(|e| !e.is_empty());
                                    }
                                    Err(e) => corrupt(e, &mut fold),
                                }
                            }
                        }
                        Err(e) => corrupt(format!("unparseable WAL line: {e}"), &mut fold),
                    }
                }
            }
        }
        offset += segment.len() as u64;
        fold.valid_bytes = offset;
    }
    fold
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
                let pid: u32 = std::fs::read_to_string(lock)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(0);
                if pid != 0 && Path::new(&format!("/proc/{pid}")).exists() {
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

pub(crate) fn parse_job_dir(name: &str) -> Option<JobId> {
    name.strip_prefix("job-")?.parse().ok()
}

pub(crate) fn read_spec_record(dir: &Path) -> Result<Fields, StoreError> {
    let text = std::fs::read_to_string(dir.join("spec.json"))?;
    parse_flat_object(text.trim())
        .map(Fields)
        .map_err(|e| StoreError::Corrupt(format!("{}: {e}", dir.join("spec.json").display())))
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
        let jobs: Vec<PersistedJob> = store
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
