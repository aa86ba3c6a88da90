//! Executes runs and run slices: the orchestration that used to be
//! inlined in the CLI binary, extracted so the one-shot CLI and the
//! serve scheduler drive the exact same code path.

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spotlight::codesign::{
    CodesignOutcome, ResumeError, SampleCheckpoint, SliceOutcome, Spotlight,
};
use spotlight::report::final_report;
use spotlight_eval::{GlobalEvalStats, SharedCache};
use spotlight_maestro::Objective;
use spotlight_obs::io::StoreIo;
use spotlight_obs::{
    parse_journal_tolerant_bytes, Event, EventSink, JournalError, JournalWriter, Observer,
    ParsedJournal, ProgressSink, RealFs, Record, RunManifest,
};

use crate::spec::{RunSpec, SpecError};

/// Any error on the run path, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError(pub String);

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RuntimeError {}

impl From<SpecError> for RuntimeError {
    fn from(e: SpecError) -> Self {
        RuntimeError(e.0)
    }
}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError(e.to_string())
    }
}

impl From<JournalError> for RuntimeError {
    fn from(e: JournalError) -> Self {
        RuntimeError(e.to_string())
    }
}

impl From<spotlight::codesign::ConfigError> for RuntimeError {
    fn from(e: spotlight::codesign::ConfigError) -> Self {
        RuntimeError(e.to_string())
    }
}

impl From<ResumeError> for RuntimeError {
    fn from(e: ResumeError) -> Self {
        RuntimeError(e.to_string())
    }
}

/// Prefix carried by every journal-integrity refusal, so the scheduler
/// can tell "the journal rotted on disk" (quarantine the job) apart
/// from an ordinary slice failure (fail the job).
pub const JOURNAL_INTEGRITY_PREFIX: &str = "journal integrity: ";

/// Refuses to extend a journal whose checksummed records failed
/// verification. A crash scar (truncated tail) is recoverable damage —
/// a mid-file checksum mismatch is not: the checkpoints it held are
/// gone, and replaying around the hole would silently change the run.
fn refuse_corrupt(parsed: &ParsedJournal, path: &Path) -> Result<(), RuntimeError> {
    match parsed.corrupt.first() {
        None => Ok(()),
        Some(first) => Err(RuntimeError(format!(
            "{JOURNAL_INTEGRITY_PREFIX}{}: {} damaged record(s), first at {}; \
             refusing to extend a damaged journal (run `spotlight fsck --repair`)",
            path.display(),
            parsed.corrupt.len(),
            first,
        ))),
    }
}

/// A finished run: the outcome plus the objective it minimized (which
/// the report renderers need).
#[derive(Debug)]
pub struct RunOutput {
    /// The co-design outcome.
    pub outcome: CodesignOutcome,
    /// The objective the run minimized.
    pub objective: Objective,
}

impl RunOutput {
    /// The deterministic final report (see
    /// [`spotlight::report::final_report`]): byte-comparable across
    /// kill/resume, re-slicing, and thread counts.
    pub fn report(&self) -> String {
        final_report(&self.outcome, self.objective)
    }
}

/// What one scheduler slice produced.
#[derive(Debug)]
pub enum SliceProgress {
    /// The slice budget ran out; the job is parked at a checkpoint.
    Paused {
        /// Hardware samples checkpointed so far.
        completed: usize,
        /// Total hardware samples the spec asks for.
        total: usize,
    },
    /// The run finished during this slice.
    Finished(Box<RunOutput>),
}

/// Deterministic crash hook for the kill-and-resume tests: when
/// `SPOTLIGHT_CRASH_AFTER_CHECKPOINT=n` is set, the process flushes the
/// journal after the n-th checkpoint, scars it with a partial line (as
/// a kill mid-write would), and aborts.
pub struct CrashAfterCheckpoint {
    inner: Arc<dyn EventSink>,
    path: String,
    after: u64,
    seen: AtomicU64,
}

impl EventSink for CrashAfterCheckpoint {
    fn record(&self, rec: &Record) {
        self.inner.record(rec);
        if matches!(rec.event, Event::Checkpoint { .. })
            && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.after
        {
            self.inner.flush();
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&self.path) {
                let _ = f.write_all(b"{\"type\":\"checkpoint\",\"cut");
                let _ = f.flush();
            }
            std::process::abort();
        }
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// Builds the observer a `--journal` / `--progress` invocation asks
/// for, installing the crash hook around the journal writer when the
/// test environment requests it.
///
/// # Errors
///
/// Propagates journal-creation I/O errors (and a malformed crash-hook
/// count).
pub fn build_observer(
    journal: Option<&str>,
    progress: bool,
) -> Result<Observer, Box<dyn std::error::Error>> {
    let mut sinks: Vec<Arc<dyn EventSink>> = Vec::new();
    if let Some(path) = journal {
        let writer: Arc<dyn EventSink> = Arc::new(JournalWriter::create(path)?);
        let writer = match std::env::var("SPOTLIGHT_CRASH_AFTER_CHECKPOINT") {
            Ok(n) => Arc::new(CrashAfterCheckpoint {
                inner: writer,
                path: path.to_string(),
                after: n.parse()?,
                seen: AtomicU64::new(0),
            }) as Arc<dyn EventSink>,
            Err(_) => writer,
        };
        sinks.push(writer);
    }
    if progress {
        sinks.push(Arc::new(ProgressSink::stderr()));
    }
    Ok(Observer::multi(sinks))
}

/// Runs one spec start-to-finish — the `spotlight codesign` path.
/// Announces the run shape on stderr exactly as the CLI always has.
///
/// # Errors
///
/// Returns a [`RuntimeError`] for unresolvable models, invalid configs,
/// or journal I/O failures.
pub fn run_job(
    spec: &RunSpec,
    journal: Option<&str>,
    progress: bool,
) -> Result<RunOutput, RuntimeError> {
    let models = spec.resolve_models()?;
    let cfg = spec.to_codesign_config()?;
    let engine = spec.build_engine()?;
    let observer = build_observer(journal, progress).map_err(|e| RuntimeError(e.to_string()))?;
    eprintln!(
        "co-designing for {} model(s), {} hw x {} sw samples ({}, {} backend, {} thread(s))...",
        models.len(),
        cfg.hw_samples(),
        cfg.sw_samples(),
        spec.variant.name(),
        engine.backend_name(),
        cfg.threads(),
    );
    let outcome = Spotlight::with_engine(cfg, engine)
        .with_observer(observer)
        .codesign(&models);
    Ok(RunOutput {
        outcome,
        objective: cfg.objective(),
    })
}

/// Continues a killed run from its journal — the `spotlight resume`
/// path. Truncates the crash scar, replays the checkpoints, and runs
/// the remaining samples live.
///
/// # Errors
///
/// Returns a [`RuntimeError`] when the journal is unreadable, carries
/// no manifest, or already ends in `run_finished`.
pub fn resume_job(path: &str, progress: bool) -> Result<RunOutput, RuntimeError> {
    let fs: Arc<dyn StoreIo> = Arc::new(RealFs);
    let (manifest, checkpoints, writer) = recover_journal(&fs, Path::new(path), |parsed, _| {
        if let Some(tail) = &parsed.truncated_tail {
            eprintln!(
                "journal ends in a line cut mid-write at line {} ({} bytes): \
                 truncating to the valid prefix",
                tail.line,
                tail.text.len()
            );
        }
        if parsed
            .records
            .iter()
            .any(|r| matches!(r.event, Event::RunFinished { .. }))
        {
            return Err(RuntimeError(
                "journal already ends in run_finished; nothing to resume".into(),
            ));
        }
        Ok(())
    })?
    .ok_or_else(|| RuntimeError("journal has no run_started manifest; nothing to resume".into()))?;
    let spec = RunSpec::from_manifest(&manifest)?;
    if spec.models.is_empty() {
        return Err(RuntimeError(
            "manifest names no models; cannot resume".into(),
        ));
    }
    let models = spec.resolve_models()?;
    let cfg = spec.to_codesign_config()?;
    let engine = spec.build_engine()?;
    let mut sinks: Vec<Arc<dyn EventSink>> = vec![Arc::new(writer)];
    if progress {
        sinks.push(Arc::new(ProgressSink::stderr()));
    }
    eprintln!(
        "resuming from {}: {} of {} hardware samples checkpointed...",
        path,
        checkpoints.len(),
        cfg.hw_samples(),
    );
    let outcome = Spotlight::with_engine(cfg, engine)
        .with_observer(Observer::multi(sinks))
        .resume(&models, &checkpoints)?;
    Ok(RunOutput {
        outcome,
        objective: cfg.objective(),
    })
}

/// A recovered journal's manifest and checkpoints, and a writer that
/// appends after its valid prefix.
type Recovered = (Box<RunManifest>, Vec<SampleCheckpoint>, JournalWriter);

/// Recovers the journal at `path` for appending: parses it tolerantly,
/// refuses a corrupt one, and finds its manifest and checkpoints. Once
/// the caller's `check` accepts the parse and manifest, it drops the
/// crash scar and opens a writer after the valid prefix, in the framing
/// the file already uses (a daemon journal resumed from the CLI stays
/// checked). `None`, with the file untouched, when no manifest reached
/// the disk.
fn recover_journal(
    fs: &Arc<dyn StoreIo>,
    path: &Path,
    check: impl FnOnce(&ParsedJournal, &RunManifest) -> Result<(), RuntimeError>,
) -> Result<Option<Recovered>, RuntimeError> {
    let parsed = parse_journal_tolerant_bytes(&fs.read(path)?)?;
    refuse_corrupt(&parsed, path)?;
    let Some(manifest) = parsed.records.iter().find_map(|r| match &r.event {
        Event::RunStarted { manifest } => Some(manifest.clone()),
        _ => None,
    }) else {
        return Ok(None);
    };
    check(&parsed, &manifest)?;
    let checkpoints = parsed
        .records
        .iter()
        .filter_map(|r| SampleCheckpoint::from_event(&r.event))
        .collect();
    fs.set_len(path, parsed.valid_bytes)?;
    let writer = JournalWriter::append_with(fs, path, parsed.checked)?;
    Ok(Some((manifest, checkpoints, writer)))
}

/// Truncates a recovered journal at its first epilogue line
/// (`phase_timing` / `run_finished`), if any. A worker can die in the
/// window between writing the epilogue and reporting its result; the
/// replacement slice then replays every checkpoint — the same
/// recompute-the-winner path a resume from the final checkpoint takes —
/// so the epilogue must not be left to confuse the recovery parse.
/// Relies on `type` always being serialized first.
fn strip_epilogue(fs: &Arc<dyn StoreIo>, path: &Path) -> Result<(), RuntimeError> {
    // Raw bytes: a non-UTF-8 rotted byte must not hide the epilogue of
    // the lines around it (the tolerant parser will judge it later).
    let bytes = match fs.read(path) {
        Ok(b) => b,
        Err(_) => return Ok(()),
    };
    let mut offset = 0u64;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        if line.starts_with(b"{\"type\":\"phase_timing\"")
            || line.starts_with(b"{\"type\":\"run_finished\"")
        {
            fs.set_len(path, offset)?;
            return Ok(());
        }
        offset += line.len() as u64;
    }
    Ok(())
}

/// Advances one job by at most `live_budget` hardware samples — the
/// scheduler's unit of work. The journal is the only state carried
/// between slices: a fresh journal starts the run (manifest first), an
/// existing one is recovered exactly as `spotlight resume` would
/// (crash-scar truncation included), so a slice after a worker kill is
/// indistinguishable from a voluntary preemption.
///
/// `shared_cache` / `global` attach the serve-level sharing layer; pass
/// `None` for the isolated single-job behaviour. A shared cache replaces
/// the spec's `--cache-cap` (the scheduler caps the shared cache itself).
///
/// `io` routes every journal read/write/truncate through a [`StoreIo`]
/// (the daemon's path: checksummed framing on fresh journals, and
/// disk-fault injection under `--disk-faults`). With `None` the journal
/// is written unframed through the real filesystem, byte-identical to
/// the pre-CRC format.
///
/// # Errors
///
/// Returns a [`RuntimeError`] for spec, journal, or resume failures
/// (RNG drift, excess checkpoints). A journal whose checksummed records
/// fail verification is refused with a [`JOURNAL_INTEGRITY_PREFIX`]
/// message so the scheduler quarantines rather than retries.
pub fn advance_job(
    spec: &RunSpec,
    journal: &Path,
    live_budget: usize,
    shared_cache: Option<&SharedCache>,
    global: Option<Arc<GlobalEvalStats>>,
    io: Option<&Arc<dyn StoreIo>>,
) -> Result<SliceProgress, RuntimeError> {
    let models = spec.resolve_models()?;
    let cfg = spec.to_codesign_config()?;
    let engine = spec.build_shared_engine(shared_cache, global)?;
    let real: Arc<dyn StoreIo> = Arc::new(RealFs);
    let fs = io.unwrap_or(&real);

    let recovered = if journal.exists() {
        strip_epilogue(fs, journal)?;
        recover_journal(fs, journal, |_, manifest| {
            // Cheap observations checkpointed under one ladder must not
            // be replayed under another: the journal's manifest pins the
            // fidelity spec for the rest of the job's life.
            let spec_fidelity = spec.fidelity.as_deref().unwrap_or("");
            if manifest.fidelity != spec_fidelity {
                return Err(RuntimeError(format!(
                    "journal was started with fidelity {:?} but the job spec says {:?}; \
                     refusing to resume under a different ladder",
                    manifest.fidelity, spec_fidelity,
                )));
            }
            Ok(())
        })?
    } else {
        None
    };
    let (writer, replay) = match recovered {
        Some((_, checkpoints, writer)) => (writer, checkpoints),
        // A new job, or one that died before the manifest reached the
        // disk: start over.
        None => (
            JournalWriter::create_with(fs, journal, io.is_some())?,
            Vec::new(),
        ),
    };

    let outcome = Spotlight::with_engine(cfg, engine)
        .with_observer(Observer::new(Arc::new(writer)))
        .run_slice(&models, &replay, Some(live_budget))?;
    Ok(match outcome {
        SliceOutcome::Paused { completed } => SliceProgress::Paused {
            completed,
            total: cfg.hw_samples(),
        },
        SliceOutcome::Finished(outcome) => SliceProgress::Finished(Box::new(RunOutput {
            outcome: *outcome,
            objective: cfg.objective(),
        })),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spotlight-runner-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn sliced_run_matches_single_shot_byte_for_byte() {
        let spec = RunSpec::parse_str("--model transformer --hw 5 --sw 6 --seed 11").unwrap();
        let dir = tmp("sliced");
        let whole = run_job(&spec, None, false).unwrap().report();

        let journal = dir.join("job.jsonl");
        let mut slices = 0;
        let report = loop {
            match advance_job(&spec, &journal, 2, None, None, None).unwrap() {
                SliceProgress::Paused { completed, total } => {
                    assert!(completed < total);
                    slices += 1;
                    assert!(slices < 10, "slicing never finished");
                }
                SliceProgress::Finished(out) => break out.report(),
            }
        };
        assert_eq!(slices, 2, "5 samples at slice=2 pause twice");
        assert_eq!(whole, report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_recovery_survives_a_stale_epilogue() {
        let spec = RunSpec::parse_str("--model transformer --hw 3 --sw 5 --seed 2").unwrap();
        let dir = tmp("epilogue");
        let journal = dir.join("job.jsonl");
        // Run to completion in one slice, leaving a full epilogue...
        let finished = match advance_job(&spec, &journal, 99, None, None, None).unwrap() {
            SliceProgress::Finished(out) => out.report(),
            other => panic!("expected finish, got {other:?}"),
        };
        // ...then pretend the worker died before reporting: the next
        // slice must strip the epilogue, replay every checkpoint, and
        // reproduce the identical report.
        let again = match advance_job(&spec, &journal, 99, None, None, None).unwrap() {
            SliceProgress::Finished(out) => out.report(),
            other => panic!("expected finish, got {other:?}"),
        };
        assert_eq!(finished, again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_under_a_different_fidelity_ladder_is_refused() {
        let base = "--model transformer --hw 4 --sw 5 --seed 7 --replicates 3";
        let spec = RunSpec::parse_str(&format!(
            "{base} --fidelity fidelity=replicate:0.25,rungs=2"
        ))
        .unwrap();
        let dir = tmp("fidelity-mismatch");
        let journal = dir.join("job.jsonl");
        match advance_job(&spec, &journal, 2, None, None, None).unwrap() {
            SliceProgress::Paused { .. } => {}
            other => panic!("expected pause, got {other:?}"),
        }
        // Same job, but the next slice arrives without the ladder (and
        // then with a different one): both must be refused, not silently
        // mixed into the checkpointed observations.
        let bare = RunSpec::parse_str(base).unwrap();
        let err = advance_job(&bare, &journal, 2, None, None, None).unwrap_err();
        assert!(err.0.contains("different ladder"), "{err}");
        let other =
            RunSpec::parse_str(&format!("{base} --fidelity fidelity=replicate:0.5,rungs=3"))
                .unwrap();
        let err = advance_job(&other, &journal, 2, None, None, None).unwrap_err();
        assert!(err.0.contains("different ladder"), "{err}");
        // The matching spec still resumes and finishes.
        let mut done = false;
        for _ in 0..4 {
            if let SliceProgress::Finished(_) =
                advance_job(&spec, &journal, 2, None, None, None).unwrap()
            {
                done = true;
                break;
            }
        }
        assert!(done, "matching spec should finish the job");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_cache_does_not_change_the_report() {
        let spec = RunSpec::parse_str("--model transformer --hw 4 --sw 6 --seed 3").unwrap();
        let dir = tmp("shared");
        let isolated = run_job(&spec, None, false).unwrap().report();
        let cache = SharedCache::new(None);
        let global = Arc::new(GlobalEvalStats::default());
        // Two jobs with the same spec share the cache; the second is
        // served almost entirely from the first's entries.
        for name in ["a.jsonl", "b.jsonl"] {
            let journal = dir.join(name);
            match advance_job(
                &spec,
                &journal,
                99,
                Some(&cache),
                Some(global.clone()),
                None,
            )
            .unwrap()
            {
                SliceProgress::Finished(out) => assert_eq!(isolated, out.report()),
                other => panic!("expected finish, got {other:?}"),
            }
        }
        assert!(!cache.is_empty());
        let snap = global.snapshot();
        assert!(
            snap.cache_hits > 0,
            "second job should hit the shared cache"
        );
        assert_eq!(snap.evaluations, snap.cache_hits + snap.cache_misses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_spec_on_a_shared_cache_matches_the_one_shot_report() {
        // The scheduler hands a capped spec a shared cache carrying the
        // same cap; the engine must take it in place of its own cap (two
        // cache choices are a build error) and evict exactly as the
        // one-shot run does.
        let spec = RunSpec::parse_str("--model mobilenetv2 --hw 4 --sw 6 --seed 3 --cache-cap 64")
            .unwrap();
        let dir = tmp("capped-shared");
        let isolated = run_job(&spec, None, false).unwrap();
        let evictions = isolated.outcome.stats.evictions;
        assert!(evictions > 0, "cap 64 should evict");
        let cache = SharedCache::new(spec.cache_cap);
        let global = Arc::new(GlobalEvalStats::default());
        let journal = dir.join("job.jsonl");
        match advance_job(
            &spec,
            &journal,
            99,
            Some(&cache),
            Some(global.clone()),
            None,
        )
        .unwrap()
        {
            SliceProgress::Finished(out) => {
                assert_eq!(isolated.report(), out.report());
                assert_eq!(out.outcome.stats.evictions, evictions);
            }
            other => panic!("expected finish, got {other:?}"),
        }
        assert_eq!(cache.len(), 64);
        assert!(global.snapshot().evictions > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
