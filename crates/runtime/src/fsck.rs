//! `spotlight fsck`: offline integrity verification and repair for a
//! serve state directory.
//!
//! Scans every job under `<state-dir>/jobs/`, verifying what the daemon
//! verifies at startup — and what it never looks at:
//!
//! * the spec record parses back into a [`RunSpec`](crate::spec::RunSpec),
//! * the WAL folds with every framed line verifying,
//! * the journal parses with every framed record verifying (for *every*
//!   job, not just runnable ones — a completed job's rotted journal is
//!   invisible to restart recovery but not to fsck),
//! * a completed job's report is present and UTF-8.
//!
//! The files are read by the same per-job scan restart recovery runs
//! (see [`crate::store`]); only the policy differs. Recovery stops at
//! the first finding, while fsck reports every one.
//!
//! Findings come in two classes. A *scar* is a final line cut mid-write
//! — the ordinary signature of a crash, recoverable by truncating to
//! the valid prefix, and not counted against the exit code (the daemon
//! heals scars on its own: it truncates a torn WAL tail at startup, and
//! a runnable job's torn journal tail before its next slice).
//! *Corruption* is a checksum mismatch, a stripped frame, or non-UTF-8
//! rot in the middle of a file: evidence the disk changed bytes after
//! they were written. Like
//! `spotlight journal --strict`, fsck exits non-zero when corruption is
//! present.
//!
//! `--repair` truncates scars and damaged journal suffixes to their
//! last valid prefix, and quarantines jobs whose WAL, spec, or report
//! cannot be saved that way by appending a terminal `corrupt` WAL
//! marker — after which a re-scan (and the daemon's next restart) is
//! clean. Repair refuses to touch a store whose lock is held by a live
//! daemon.

use std::path::Path;

use spotlight_obs::io::StoreIo;
use spotlight_obs::RealFs;

use crate::job::{JobId, JobState};
use crate::store::{append_wal, job_dir, job_ids, live_lock_pid, spec_of, JobScan, StoreError};

/// Everything fsck found (and did) for one job directory.
#[derive(Debug, Clone, Default)]
pub struct JobVerdict {
    /// The job's store id.
    pub id: JobId,
    /// The folded WAL state, as recovery would see it.
    pub state: Option<JobState>,
    /// Corruption findings: damage that changes what the files say.
    /// Each line names the file and the byte range.
    pub corruption: Vec<String>,
    /// Crash scars: torn final lines, recoverable by truncation.
    pub scars: Vec<String>,
    /// Damage recorded by an existing `corrupt` quarantine marker.
    /// Informational: the job is already terminal, the daemon already
    /// counts it, and a re-scan must not keep failing on it.
    pub notes: Vec<String>,
    /// Repair actions taken (only under `--repair`).
    pub repairs: Vec<String>,
}

impl JobVerdict {
    /// True when the job carries no live corruption (scars and an
    /// existing quarantine marker are fine).
    pub fn is_clean(&self) -> bool {
        self.corruption.is_empty()
    }
}

/// The outcome of one fsck pass over a state directory.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Per-job verdicts, in id order.
    pub jobs: Vec<JobVerdict>,
    /// Pid of a live daemon holding the store lock, if any. The scan
    /// still ran (read-only), but findings may be transient.
    pub live_pid: Option<u32>,
    /// Whether repairs were requested (and therefore attempted).
    pub repaired: bool,
}

impl FsckReport {
    /// True when no job carries live corruption — the exit-0 condition.
    pub fn is_clean(&self) -> bool {
        self.jobs.iter().all(JobVerdict::is_clean)
    }

    /// Total corruption findings across all jobs.
    pub fn corruption_count(&self) -> usize {
        self.jobs.iter().map(|j| j.corruption.len()).sum()
    }

    /// Renders the human report: one block per job, then a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(pid) = self.live_pid {
            out.push_str(&format!(
                "warning: store is locked by live pid {pid}; scanning read-only\n"
            ));
        }
        let mut corrupt_jobs = 0usize;
        let mut scarred = 0usize;
        let mut quarantined = 0usize;
        for job in &self.jobs {
            let verdict = if !job.corruption.is_empty() {
                corrupt_jobs += 1;
                "CORRUPT"
            } else if job.state == Some(JobState::Corrupt) {
                quarantined += 1;
                "quarantined"
            } else if !job.scars.is_empty() {
                scarred += 1;
                "scarred"
            } else {
                "ok"
            };
            out.push_str(&format!("job {:06}: {verdict}\n", job.id));
            for line in &job.corruption {
                out.push_str(&format!("  corrupt: {line}\n"));
            }
            for line in &job.scars {
                out.push_str(&format!("  scar: {line}\n"));
            }
            for line in &job.notes {
                out.push_str(&format!("  note: {line}\n"));
            }
            for line in &job.repairs {
                out.push_str(&format!("  repair: {line}\n"));
            }
        }
        out.push_str(&format!(
            "checked {} job(s): {} corrupt, {} scarred, {} quarantined, {} finding(s)\n",
            self.jobs.len(),
            corrupt_jobs,
            scarred,
            quarantined,
            self.corruption_count(),
        ));
        out
    }
}

/// Scans (and with `repair`, fixes) the state directory at `root`.
///
/// # Errors
///
/// [`StoreError::Locked`] when `repair` is requested against a store a
/// live daemon holds; [`StoreError::Io`] when `root` is not a state
/// directory or the scan itself cannot read it.
pub fn fsck_store(root: &Path, repair: bool) -> Result<FsckReport, StoreError> {
    if !root.join("jobs").is_dir() {
        return Err(StoreError::Io(format!(
            "{} has no jobs/ directory; not a spotlight state dir",
            root.display()
        )));
    }
    let io = RealFs;
    let lock = root.join("LOCK");
    let live_pid = live_lock_pid(&io, &lock);
    if let Some(pid) = live_pid {
        if repair {
            return Err(StoreError::Locked { path: lock, pid });
        }
    }
    let ids = job_ids(root)?;
    let mut report = FsckReport {
        jobs: Vec::with_capacity(ids.len()),
        live_pid,
        repaired: repair,
    };
    for id in ids {
        report
            .jobs
            .push(fsck_job(id, &job_dir(root, id), repair, &io)?);
    }
    Ok(report)
}

/// Fsck's policy over a [`JobScan`]: every finding is reported (as a
/// note when the job is already quarantined), and under `repair` scars
/// and damaged journal suffixes are truncated and whatever truncation
/// cannot fix is quarantined.
fn fsck_job(
    id: JobId,
    dir: &Path,
    repair: bool,
    io: &dyn StoreIo,
) -> Result<JobVerdict, StoreError> {
    let scan = JobScan::read(io, dir, true);
    let fold = &scan.wal;
    // The WAL's fold decides whether the job is already quarantined,
    // which downgrades every other finding to a note.
    let quarantined = fold.state == JobState::Corrupt;
    let mut v = JobVerdict {
        id,
        state: Some(fold.state),
        ..JobVerdict::default()
    };
    let finding = |v: &mut JobVerdict, line: String| {
        if quarantined {
            v.notes.push(line);
        } else {
            v.corruption.push(line);
        }
    };
    for c in &fold.corrupt {
        finding(&mut v, format!("wal.jsonl: {c}"));
    }
    if let Some(offset) = fold.torn_tail {
        v.scars.push(format!(
            "wal.jsonl: final line cut mid-write at byte {offset}"
        ));
        if repair {
            io.set_len(&dir.join("wal.jsonl"), fold.valid_bytes)?;
            v.repairs
                .push(format!("wal.jsonl truncated to {} bytes", fold.valid_bytes));
        }
    }

    // The spec record must still parse into a spec string.
    if let Err(e) = scan
        .record
        .and_then(|f| spec_of(&f).map_err(StoreError::Corrupt))
    {
        finding(&mut v, format!("spec.json: {e}"));
    }

    // The journal — for every job, not just runnable ones.
    let journal_path = dir.join("journal.jsonl");
    if let Some(read) = scan.journal {
        match read? {
            Ok(parsed) => {
                for c in &parsed.corrupt {
                    finding(&mut v, format!("journal.jsonl: {c}"));
                }
                if let Some(tail) = &parsed.truncated_tail {
                    v.scars.push(format!(
                        "journal.jsonl: final line cut mid-write at byte {} ({} bytes)",
                        parsed.valid_bytes,
                        tail.text.len()
                    ));
                }
                if repair && !quarantined {
                    // Truncate to the last byte before the damage: the
                    // first corrupt record when there is one, else the
                    // scar. The surviving prefix replays cleanly.
                    let keep = parsed
                        .corrupt
                        .first()
                        .map(|c| c.offset)
                        .or_else(|| parsed.truncated_tail.as_ref().map(|_| parsed.valid_bytes));
                    if let Some(keep) = keep {
                        io.set_len(&journal_path, keep)?;
                        v.repairs
                            .push(format!("journal.jsonl truncated to {keep} bytes"));
                    }
                }
            }
            // Schema drift in an unframed journal: no byte offset to
            // truncate to, so only quarantine can make this safe.
            Err(e) => finding(&mut v, format!("journal.jsonl: {e}")),
        }
    }

    // A completed job promises its report is durably on disk.
    match scan.report {
        Some(Ok(bytes)) if std::str::from_utf8(&bytes).is_err() => {
            v.corruption.push("report.txt: not UTF-8".to_string());
        }
        Some(Err(e)) => v.corruption.push(format!(
            "report.txt: completed job but report unreadable: {e}"
        )),
        _ => {}
    }

    // Whatever truncation could not fix gets quarantined: a terminal
    // `corrupt` marker that makes the next scan (and the daemon's next
    // restart) clean.
    if repair && !v.corruption.is_empty() {
        let journal_fixed = v
            .repairs
            .iter()
            .any(|r| r.starts_with("journal.jsonl truncated"));
        let unfixed = v
            .corruption
            .iter()
            .find(|c| !(journal_fixed && c.starts_with("journal.jsonl:")));
        if let Some(first) = unfixed {
            append_wal(io, dir, |o| {
                o.push_str("state", JobState::Corrupt.as_str());
                o.push_str("error", &format!("fsck: {first}"));
            })?;
            v.repairs
                .push("quarantined (corrupt WAL marker appended)".to_string());
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunSpec;
    use crate::store::JobStore;
    use spotlight_obs::frame_line;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spotlight-fsck-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> RunSpec {
        RunSpec::parse_str("--model transformer --hw 4 --sw 5 --seed 3").unwrap()
    }

    fn seed_store(root: &Path, jobs: usize) -> Vec<(JobId, PathBuf)> {
        let mut store = JobStore::open(root).unwrap();
        (0..jobs)
            .map(|_| {
                let (id, journal) = store.create(&spec(), None).unwrap();
                store.record_state(id, JobState::Running, 1, 0).unwrap();
                (id, journal)
            })
            .collect()
    }

    #[test]
    fn clean_store_scans_clean() {
        let root = tmp("clean");
        seed_store(&root, 2);
        let report = fsck_store(&root, false).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.jobs.len(), 2);
        assert!(
            report.render().contains("job 000001: ok"),
            "{}",
            report.render()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn flipped_wal_byte_is_found_and_repair_quarantines_it() {
        let root = tmp("walrot");
        let jobs = seed_store(&root, 2);
        let wal = root
            .join("jobs")
            .join(format!("job-{:06}", jobs[1].0))
            .join("wal.jsonl");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[10] ^= 0x20;
        std::fs::write(&wal, &bytes).unwrap();

        let report = fsck_store(&root, false).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.corruption_count(), 1, "{}", report.render());
        assert!(report.jobs[0].is_clean(), "neighbor is untouched");
        assert!(report.render().contains("bytes"), "{}", report.render());

        // Repair quarantines; the re-scan is clean.
        let repaired = fsck_store(&root, true).unwrap();
        assert!(repaired
            .render()
            .contains("quarantined (corrupt WAL marker"));
        let rescan = fsck_store(&root, false).unwrap();
        assert!(rescan.is_clean(), "{}", rescan.render());
        assert_eq!(rescan.jobs[1].state, Some(JobState::Corrupt));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_wal_tail_is_a_scar_and_repair_truncates_it() {
        let root = tmp("scar");
        let jobs = seed_store(&root, 1);
        let wal = root
            .join("jobs")
            .join(format!("job-{:06}", jobs[0].0))
            .join("wal.jsonl");
        let before = std::fs::read(&wal).unwrap().len() as u64;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(b"{\"type\":\"wal\",\"sta").unwrap();
        drop(f);

        let report = fsck_store(&root, false).unwrap();
        assert!(
            report.is_clean(),
            "a scar alone is exit-0: {}",
            report.render()
        );
        assert_eq!(report.jobs[0].scars.len(), 1);

        fsck_store(&root, true).unwrap();
        assert_eq!(std::fs::read(&wal).unwrap().len() as u64, before);
        let rescan = fsck_store(&root, false).unwrap();
        assert!(rescan.jobs[0].scars.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_journal_is_truncated_to_its_valid_prefix() {
        let root = tmp("journalrot");
        let jobs = seed_store(&root, 1);
        let journal = &jobs[0].1;
        let good = frame_line(r#"{"type":"best_improved","cost":1}"#);
        let bad = good.replace("cost", "c0st");
        std::fs::write(journal, format!("{good}\n{bad}\n{good}\n")).unwrap();

        let report = fsck_store(&root, false).unwrap();
        assert_eq!(report.corruption_count(), 1);

        fsck_store(&root, true).unwrap();
        let kept = std::fs::read_to_string(journal).unwrap();
        assert_eq!(kept, format!("{good}\n"), "truncated to the valid prefix");
        let rescan = fsck_store(&root, false).unwrap();
        assert!(rescan.is_clean(), "{}", rescan.render());
        // Truncation sufficed: the job is still runnable, not quarantined.
        assert_ne!(rescan.jobs[0].state, Some(JobState::Corrupt));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_report_on_a_completed_job_is_corruption() {
        let root = tmp("noreport");
        let id = {
            let mut store = JobStore::open(&root).unwrap();
            let (id, _) = store.create(&spec(), None).unwrap();
            store.record_completed(id, "the report", 1.0, 1, 4).unwrap();
            id
        };
        let report_path = root
            .join("jobs")
            .join(format!("job-{id:06}"))
            .join("report.txt");
        std::fs::remove_file(&report_path).unwrap();
        let report = fsck_store(&root, false).unwrap();
        assert!(!report.is_clean());
        assert!(
            report.render().contains("report.txt"),
            "{}",
            report.render()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn repair_refuses_a_live_locked_store() {
        let root = tmp("livelock");
        std::fs::create_dir_all(root.join("jobs")).unwrap();
        std::fs::write(root.join("LOCK"), format!("{}", std::process::id())).unwrap();
        match fsck_store(&root, true) {
            Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("repair must refuse a live store: {other:?}"),
        }
        // The read-only scan still runs, with a warning.
        let report = fsck_store(&root, false).unwrap();
        assert_eq!(report.live_pid, Some(std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
    }
}
