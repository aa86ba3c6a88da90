//! Storage-integrity integration tests: the CRC framing must catch any
//! single bit flipped anywhere in a WAL or a daemon journal, ENOSPC on a
//! WAL append must park the job and shed new submits with a retryable
//! error, and a daemon restart over a corrupted store must quarantine
//! exactly the damaged job while every other job recovers byte-identical.
//! The exact `fsck` text for every kind of damage, and the exact reason a
//! restart quarantines a job with, are pinned too.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use spotlight_obs::{parse_journal_tolerant_bytes, DiskFaultPlan, FaultFs, RealFs, StoreIo};
use spotlight_runtime::{
    advance_job, fold_wal, fsck_store, metric_value, run_job, JobState, JobStore, RunSpec,
    SchedulerOptions, Server, SliceProgress, SubmitError,
};

struct Workdir(PathBuf);

impl Workdir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("spotlight-integrity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Workdir(dir)
    }

    fn options(&self, workers: usize, disk_faults: Option<DiskFaultPlan>) -> SchedulerOptions {
        SchedulerOptions {
            workers,
            slice: 2,
            dir: self.0.clone(),
            kill_after: None,
            max_jobs: None,
            disk_faults,
        }
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn wait_idle(server: &Server) {
    for _ in 0..1200 {
        if server.is_idle() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("server never drained: {:?}", server.list());
}

/// A real on-disk WAL, written once through the store so the fixture
/// tracks the production framing format exactly.
fn framed_wal() -> &'static [u8] {
    static WAL: OnceLock<Vec<u8>> = OnceLock::new();
    WAL.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("spotlight-integrity-walfix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = JobStore::open(&dir).unwrap();
        let spec = RunSpec::parse_str("--model transformer --hw 4 --sw 4 --seed 7").unwrap();
        let (id, _) = store.create(&spec, None).unwrap();
        store.record_state(id, JobState::Running, 0, 0).unwrap();
        store.record_state(id, JobState::Queued, 1, 2).unwrap();
        store.record_state(id, JobState::Running, 1, 2).unwrap();
        store
            .record_completed(id, "report text", 1.5, 2, 4)
            .unwrap();
        let bytes = std::fs::read(dir.join("jobs/job-000001/wal.jsonl")).unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// A real framed daemon journal: `advance_job` with a store io runs the
/// search slice-by-slice to completion, framing every record.
fn framed_journal() -> &'static [u8] {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("spotlight-integrity-jfix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");
        let spec = RunSpec::parse_str("--model transformer --hw 4 --sw 4 --seed 7").unwrap();
        let io: Arc<dyn StoreIo> = Arc::new(RealFs);
        while let SliceProgress::Paused { .. } =
            advance_job(&spec, &journal, 2, None, None, Some(&io)).unwrap()
        {}
        let bytes = std::fs::read(&journal).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

proptest! {
    /// Any single-bit flip anywhere in a framed WAL is detected, and the
    /// damage is localized: at most two records read as corrupt (a flip
    /// that *becomes* a newline splits one line in two; a flip *of* the
    /// final newline reads as a torn tail, the same scar a crashed
    /// append leaves).
    #[test]
    fn any_single_bit_flip_in_a_wal_is_detected(
        i in 0usize..framed_wal().len(),
        bit in 0u8..8,
    ) {
        let clean = framed_wal();
        let base = fold_wal(clean);
        prop_assert!(base.corrupt.is_empty() && base.torn_tail.is_none());
        prop_assert!(base.checked, "the fixture must be a framed WAL");

        let mut bytes = clean.to_vec();
        bytes[i] ^= 1 << bit;
        let fold = fold_wal(&bytes);
        prop_assert!(
            !fold.corrupt.is_empty() || fold.torn_tail.is_some(),
            "flip of bit {} at byte {} slipped through undetected",
            bit, i,
        );
        prop_assert!(
            fold.corrupt.len() <= 2,
            "one flipped bit must damage at most two records, got {:?}",
            fold.corrupt,
        );
    }

    /// Any single-bit flip anywhere in a framed daemon journal is
    /// detected by the tolerant parser — as a localized corrupt record,
    /// a torn tail, or (when the flip mangles structure outright, e.g.
    /// the manifest line) a hard parse error.
    #[test]
    fn any_single_bit_flip_in_a_journal_is_detected(
        i in 0usize..framed_journal().len(),
        bit in 0u8..8,
    ) {
        let clean = framed_journal();
        let base = parse_journal_tolerant_bytes(clean).unwrap();
        prop_assert!(base.corrupt.is_empty() && base.truncated_tail.is_none());
        prop_assert!(base.checked, "the fixture must be a framed journal");

        let mut bytes = clean.to_vec();
        bytes[i] ^= 1 << bit;
        let detected = match parse_journal_tolerant_bytes(&bytes) {
            Err(_) => true,
            Ok(parsed) => !parsed.corrupt.is_empty() || parsed.truncated_tail.is_some(),
        };
        prop_assert!(detected, "flip of bit {} at byte {} slipped through undetected", bit, i);
    }
}

/// ENOSPC on the WAL append at a slice boundary parks the job (its
/// checkpoints are safe; it is simply never rescheduled) and latches
/// degraded mode: new submits shed with a retryable `Busy`.
#[test]
fn enospc_mid_wal_parks_the_job_and_sheds_submits() {
    let dir = Workdir::new("enospc");
    // Per-path warm-up of 2 operations: the job's `queued` and
    // `running` WAL appends land, the `queued` append at the first
    // slice boundary is the third operation on the WAL and fails.
    let plan: DiskFaultPlan = "seed=1,enospc=1.0,after=2".parse().unwrap();
    let server = Server::new(dir.options(1, Some(plan))).unwrap();
    let spec = RunSpec::parse_str("--model transformer --hw 8 --sw 4 --seed 9").unwrap();
    let (id, _) = server.submit(spec, None).unwrap();

    for _ in 0..2000 {
        if server.disk_degraded() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        server.disk_degraded(),
        "an ENOSPC WAL append must latch degraded mode"
    );

    // Parked, not failed, not rescheduled: the job stays queued with
    // its progress short of the target.
    std::thread::sleep(Duration::from_millis(100));
    let status = server.status(id).unwrap();
    assert_eq!(status.state, JobState::Queued, "{status:?}");
    assert!(
        status.samples_done < status.hw_samples,
        "a parked job must not keep running: {status:?}"
    );

    let err = server
        .submit(
            RunSpec::parse_str("--model resnet50 --hw 4 --sw 4 --seed 2").unwrap(),
            None,
        )
        .unwrap_err();
    assert!(matches!(err, SubmitError::Busy(_)), "{err:?}");
    assert!(err.retryable(), "shedding must be retryable");
    assert!(err.message().contains("disk"), "{err}");
    server.shutdown();
}

/// A daemon restarted over a store with one flipped WAL byte
/// quarantines exactly that job — terminal `corrupt`, counted in
/// `spotlight_jobs_quarantined_total` — while the untouched job's
/// report survives byte-identical. A second restart changes nothing.
#[test]
fn restart_quarantines_only_the_corrupted_job() {
    let specs = [
        "--model transformer --hw 6 --sw 6 --seed 51",
        "--model resnet50 --hw 6 --sw 6 --seed 52",
    ];
    let expected: Vec<String> = specs
        .iter()
        .map(|s| {
            run_job(&RunSpec::parse_str(s).unwrap(), None, false)
                .unwrap()
                .report()
        })
        .collect();

    let dir = Workdir::new("quarantine");
    let server = Server::new(dir.options(2, None)).unwrap();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| {
            server
                .submit(RunSpec::parse_str(s).unwrap(), None)
                .unwrap()
                .0
        })
        .collect();
    wait_idle(&server);
    for id in &ids {
        assert_eq!(server.status(*id).unwrap().state, JobState::Completed);
    }
    server.shutdown();
    drop(server);

    // One bit of rot in job 2's WAL. XOR with 0x01 can never fabricate
    // a newline, and we step off any newline byte, so the flip is
    // always mid-record — a guaranteed checksum mismatch.
    let wal = dir.0.join("jobs").join("job-000002").join("wal.jsonl");
    let mut bytes = std::fs::read(&wal).unwrap();
    let mut i = bytes.len() / 2;
    while bytes[i] == b'\n' {
        i -= 1;
    }
    bytes[i] ^= 0x01;
    std::fs::write(&wal, &bytes).unwrap();

    let server = Server::new(dir.options(2, None)).unwrap();
    assert_eq!(server.jobs_quarantined(), 1, "exactly one job quarantined");
    assert_eq!(
        metric_value(&server.metrics_text(), "spotlight_jobs_quarantined_total"),
        Some(1.0),
    );
    assert_eq!(
        server.status(ids[1]).unwrap().state,
        JobState::Corrupt,
        "the damaged job lands in the terminal corrupt state"
    );
    assert_eq!(
        server.status(ids[0]).unwrap().state,
        JobState::Completed,
        "the clean job must not be touched by its neighbor's rot"
    );
    assert_eq!(
        server.report(ids[0]).as_deref(),
        Some(expected[0].as_str()),
        "the clean job's report must survive byte-identical"
    );
    server.shutdown();
    drop(server);

    // Quarantine is idempotent across restarts: still exactly one.
    let server = Server::new(dir.options(2, None)).unwrap();
    assert_eq!(server.jobs_quarantined(), 1);
    assert_eq!(server.status(ids[1]).unwrap().state, JobState::Corrupt);
    server.shutdown();
}

/// End to end through the fault injector: a scheduled bit flip lands
/// silently (the write reports success), the framing catches it on the
/// next read, `fsck` reports it with a non-zero-exit verdict, and
/// `fsck --repair` leaves a store a re-scan calls clean.
#[test]
fn injected_bitflip_is_detected_and_fsck_repair_cleans_the_store() {
    let dir = Workdir::new("bitflip");
    let plan: DiskFaultPlan = "seed=3,bitflip=1.0,after=1".parse().unwrap();
    let io: Arc<dyn StoreIo> = Arc::new(FaultFs::new(plan));
    let mut store = JobStore::open_with(&dir.0, io).unwrap();
    let spec = RunSpec::parse_str("--model transformer --hw 4 --sw 4 --seed 7").unwrap();
    let (id, _) = store.create(&spec, None).unwrap();
    // The second WAL append is past the warm-up: its line lands with
    // one bit flipped while the call still reports success.
    store.record_state(id, JobState::Running, 0, 0).unwrap();
    drop(store);

    let fold = fold_wal(&std::fs::read(dir.0.join("jobs/job-000001/wal.jsonl")).unwrap());
    assert!(
        !fold.corrupt.is_empty(),
        "the flipped record must fail its checksum: {fold:?}"
    );

    let report = fsck_store(&dir.0, false).unwrap();
    assert!(
        !report.is_clean(),
        "fsck must flag the rot:\n{}",
        report.render()
    );
    assert!(report.corruption_count() > 0);

    let repaired = fsck_store(&dir.0, true).unwrap();
    assert!(
        repaired.repaired,
        "repair mode must act:\n{}",
        repaired.render()
    );

    let rescan = fsck_store(&dir.0, false).unwrap();
    assert!(
        rescan.is_clean(),
        "a repaired store must re-scan clean:\n{}",
        rescan.render()
    );
}

fn job_file(root: &std::path::Path, id: u64, name: &str) -> PathBuf {
    root.join("jobs").join(format!("job-{id:06}")).join(name)
}

/// Flips one bit in the second line of a job's WAL. XOR with 0x01 on a
/// JSON text byte can never fabricate a newline, so the damage is
/// always a mid-record checksum mismatch.
fn flip_second_wal_line(root: &std::path::Path, id: u64) {
    let wal = job_file(root, id, "wal.jsonl");
    let mut bytes = std::fs::read(&wal).unwrap();
    let first_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[first_len + 10] ^= 0x01;
    std::fs::write(&wal, &bytes).unwrap();
}

/// A framed journal whose middle record no longer matches its checksum.
fn mismatched_journal() -> String {
    let good = spotlight_obs::frame_line(r#"{"type":"best_improved","cost":1}"#);
    let bad = good.replace("cost", "c0st");
    format!("{good}\n{bad}\n{good}\n")
}

/// A store with one job per kind of damage, in id order: clean, WAL
/// checksum mismatch, stripped WAL frame, torn WAL tail, journal
/// checksum mismatch, torn journal tail, completed without a report,
/// completed with a non-UTF-8 report, and a job quarantined earlier
/// whose old damage (a WAL flip and a journal mismatch) is still on
/// disk.
fn damaged_store(root: &std::path::Path) {
    let spec = RunSpec::parse_str("--model transformer --hw 4 --sw 4 --seed 7").unwrap();
    let mut store = JobStore::open(root).unwrap();
    let running = |store: &mut JobStore| {
        let (id, journal) = store.create(&spec, None).unwrap();
        store.record_state(id, JobState::Running, 1, 2).unwrap();
        (id, journal)
    };
    running(&mut store);

    let (id, _) = running(&mut store);
    flip_second_wal_line(root, id);

    let (id, _) = running(&mut store);
    let wal = job_file(root, id, "wal.jsonl");
    let first = std::fs::read_to_string(&wal)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    std::fs::write(
        &wal,
        format!("{first}\n{{\"type\":\"wal\",\"state\":\"running\",\"slices\":1,\"samples\":2}}\n"),
    )
    .unwrap();

    let (id, _) = running(&mut store);
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(job_file(root, id, "wal.jsonl"))
        .unwrap();
    std::io::Write::write_all(&mut wal, b"{\"type\":\"wal\",\"sta").unwrap();

    let (_, journal) = running(&mut store);
    std::fs::write(&journal, mismatched_journal()).unwrap();

    let (_, journal) = running(&mut store);
    let good = spotlight_obs::frame_line(r#"{"type":"best_improved","cost":1}"#);
    std::fs::write(&journal, format!("{good}\n{{\"type\":\"best_im")).unwrap();

    let (id, _) = running(&mut store);
    store.record_completed(id, "the report", 1.5, 2, 4).unwrap();
    std::fs::remove_file(job_file(root, id, "report.txt")).unwrap();

    let (id, _) = running(&mut store);
    store.record_completed(id, "the report", 1.5, 2, 4).unwrap();
    std::fs::write(job_file(root, id, "report.txt"), [b'r', 0xff, 0xfe, b'\n']).unwrap();

    let (id, journal) = running(&mut store);
    flip_second_wal_line(root, id);
    std::fs::write(&journal, mismatched_journal()).unwrap();
    store.record_corrupt(id, "WAL checksum mismatch").unwrap();
}

/// The exact `fsck` text for every kind of damage: the scan, the
/// `--repair` pass, and the re-scan after it.
#[test]
fn fsck_renders_every_kind_of_damage_exactly() {
    let dir = Workdir::new("fsck-pin");
    damaged_store(&dir.0);
    let scan = fsck_store(&dir.0, false).unwrap().render();
    let repair = fsck_store(&dir.0, true).unwrap().render();
    let rescan = fsck_store(&dir.0, false).unwrap().render();
    let want_scan = concat!(
        "job 000001: ok\n",
        "job 000002: CORRUPT\n",
        "  corrupt: wal.jsonl: line 2 (bytes 70..143): checksum mismatch (stored 33a55ccc, computed 5d35787d)\n",
        "job 000003: CORRUPT\n",
        "  corrupt: wal.jsonl: line 2 (bytes 70..126): unframed line in a checksummed WAL (damaged or stripped crc)\n",
        "job 000004: scarred\n",
        "  scar: wal.jsonl: final line cut mid-write at byte 143\n",
        "job 000005: CORRUPT\n",
        "  corrupt: journal.jsonl: line 2 (bytes 51..102): checksum mismatch (stored f73a0dba, computed 421ebdbc)\n",
        "job 000006: scarred\n",
        "  scar: journal.jsonl: final line cut mid-write at byte 51 (16 bytes)\n",
        "job 000007: CORRUPT\n",
        "  corrupt: report.txt: completed job but report unreadable: No such file or directory (os error 2)\n",
        "job 000008: CORRUPT\n",
        "  corrupt: report.txt: not UTF-8\n",
        "job 000009: quarantined\n",
        "  note: wal.jsonl: line 2 (bytes 70..143): checksum mismatch (stored 33a55ccc, computed 5d35787d)\n",
        "  note: journal.jsonl: line 2 (bytes 51..102): checksum mismatch (stored f73a0dba, computed 421ebdbc)\n",
        "checked 9 job(s): 5 corrupt, 2 scarred, 1 quarantined, 5 finding(s)\n",
    );
    let want_repair = concat!(
        "job 000001: ok\n",
        "job 000002: CORRUPT\n",
        "  corrupt: wal.jsonl: line 2 (bytes 70..143): checksum mismatch (stored 33a55ccc, computed 5d35787d)\n",
        "  repair: quarantined (corrupt WAL marker appended)\n",
        "job 000003: CORRUPT\n",
        "  corrupt: wal.jsonl: line 2 (bytes 70..126): unframed line in a checksummed WAL (damaged or stripped crc)\n",
        "  repair: quarantined (corrupt WAL marker appended)\n",
        "job 000004: scarred\n",
        "  scar: wal.jsonl: final line cut mid-write at byte 143\n",
        "  repair: wal.jsonl truncated to 143 bytes\n",
        "job 000005: CORRUPT\n",
        "  corrupt: journal.jsonl: line 2 (bytes 51..102): checksum mismatch (stored f73a0dba, computed 421ebdbc)\n",
        "  repair: journal.jsonl truncated to 51 bytes\n",
        "job 000006: scarred\n",
        "  scar: journal.jsonl: final line cut mid-write at byte 51 (16 bytes)\n",
        "  repair: journal.jsonl truncated to 51 bytes\n",
        "job 000007: CORRUPT\n",
        "  corrupt: report.txt: completed job but report unreadable: No such file or directory (os error 2)\n",
        "  repair: quarantined (corrupt WAL marker appended)\n",
        "job 000008: CORRUPT\n",
        "  corrupt: report.txt: not UTF-8\n",
        "  repair: quarantined (corrupt WAL marker appended)\n",
        "job 000009: quarantined\n",
        "  note: wal.jsonl: line 2 (bytes 70..143): checksum mismatch (stored 33a55ccc, computed 5d35787d)\n",
        "  note: journal.jsonl: line 2 (bytes 51..102): checksum mismatch (stored f73a0dba, computed 421ebdbc)\n",
        "checked 9 job(s): 5 corrupt, 2 scarred, 1 quarantined, 5 finding(s)\n",
    );
    let want_rescan = concat!(
        "job 000001: ok\n",
        "job 000002: quarantined\n",
        "  note: wal.jsonl: line 2 (bytes 70..143): checksum mismatch (stored 33a55ccc, computed 5d35787d)\n",
        "job 000003: quarantined\n",
        "  note: wal.jsonl: line 2 (bytes 70..126): unframed line in a checksummed WAL (damaged or stripped crc)\n",
        "job 000004: ok\n",
        "job 000005: ok\n",
        "job 000006: ok\n",
        "job 000007: quarantined\n",
        "job 000008: quarantined\n",
        "job 000009: quarantined\n",
        "  note: wal.jsonl: line 2 (bytes 70..143): checksum mismatch (stored 33a55ccc, computed 5d35787d)\n",
        "  note: journal.jsonl: line 2 (bytes 51..102): checksum mismatch (stored f73a0dba, computed 421ebdbc)\n",
        "checked 9 job(s): 0 corrupt, 0 scarred, 5 quarantined, 0 finding(s)\n",
    );
    assert_eq!(scan, want_scan);
    assert_eq!(repair, want_repair);
    assert_eq!(rescan, want_rescan);
}

/// The exact quarantine reasons a restart gives a runnable job whose WAL
/// has a flipped bit, and one whose journal has.
#[test]
fn restart_quarantine_reasons_are_exact() {
    let dir = Workdir::new("reason-pin");
    {
        let spec = RunSpec::parse_str("--model transformer --hw 4 --sw 4 --seed 7").unwrap();
        let mut store = JobStore::open(&dir.0).unwrap();
        let (wal_id, _) = store.create(&spec, None).unwrap();
        store.record_state(wal_id, JobState::Running, 1, 2).unwrap();
        flip_second_wal_line(&dir.0, wal_id);
        let (_, journal) = store.create(&spec, None).unwrap();
        std::fs::write(&journal, mismatched_journal()).unwrap();
    }
    let server = Server::new(dir.options(1, None)).unwrap();
    let wal = server.status(1).unwrap();
    let journal = server.status(2).unwrap();
    server.shutdown();
    assert_eq!(wal.state, JobState::Corrupt);
    assert_eq!(
        wal.error.as_deref(),
        Some(
            "job store record corrupt: job 1: WAL line 2 (bytes 70..143): \
             checksum mismatch (stored 33a55ccc, computed 5d35787d)"
        )
    );
    assert_eq!(journal.state, JobState::Corrupt);
    assert_eq!(
        journal.error.as_deref(),
        Some(
            "job store record corrupt: job 2: journal line 2 (bytes 51..102): \
             checksum mismatch (stored f73a0dba, computed 421ebdbc)"
        )
    );
}

/// A job whose `spec.json` is damaged is quarantined once. Every restart
/// after the first loads it from its `corrupt` marker without
/// re-diagnosing it, so the WAL bytes, the `fsck` text and the
/// quarantine reason stay identical, and each restart still counts it
/// as quarantined.
#[test]
fn quarantine_of_a_damaged_spec_is_idempotent() {
    let dir = Workdir::new("spec-quarantine");
    let id = {
        let spec = RunSpec::parse_str("--model transformer --hw 4 --sw 4 --seed 7").unwrap();
        let mut store = JobStore::open(&dir.0).unwrap();
        let (id, _) = store.create(&spec, None).unwrap();
        store.record_state(id, JobState::Running, 1, 2).unwrap();
        let path = job_file(&dir.0, id, "spec.json");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        id
    };
    let wal = job_file(&dir.0, id, "wal.jsonl");
    let restarts: Vec<_> = (0..3)
        .map(|restart| {
            let server = Server::new(dir.options(1, None)).unwrap();
            assert_eq!(server.jobs_quarantined(), 1, "restart {restart}");
            let status = server.status(id).unwrap();
            server.shutdown();
            assert_eq!(status.state, JobState::Corrupt, "restart {restart}");
            (
                std::fs::read(&wal).unwrap(),
                fsck_store(&dir.0, false).unwrap().render(),
                status.error,
            )
        })
        .collect();
    assert!(
        restarts[0].2.as_deref().is_some_and(|e| e.contains("spec")),
        "{:?}",
        restarts[0].2
    );
    assert_eq!(restarts[1], restarts[0], "second restart changed the store");
    assert_eq!(restarts[2], restarts[0], "third restart changed the store");
}

/// Restart recovery heals a torn WAL tail before anything appends to
/// it. The WAL is cut at every byte that leaves its last line
/// unterminated; after a restart records a transition, the next
/// restart must load exactly that transition instead of a line fused
/// onto the scar.
#[test]
fn recovery_heals_a_wal_torn_at_every_cut_point() {
    let dir = Workdir::new("cut-points");
    let spec = RunSpec::parse_str("--model transformer --hw 4 --sw 4 --seed 7").unwrap();
    let id = {
        let mut store = JobStore::open(&dir.0).unwrap();
        let (id, _) = store.create(&spec, None).unwrap();
        store.record_state(id, JobState::Running, 1, 2).unwrap();
        store.record_state(id, JobState::Queued, 1, 2).unwrap();
        id
    };
    let wal = job_file(&dir.0, id, "wal.jsonl");
    let full = std::fs::read(&wal).unwrap();
    let mut cuts = 0;
    for cut in (1..full.len()).filter(|&cut| full[cut - 1] != b'\n') {
        std::fs::write(&wal, &full[..cut]).unwrap();
        {
            let store = JobStore::open(&dir.0).unwrap();
            let loaded = store.load_all().unwrap();
            assert!(loaded[0].1.is_ok(), "cut at {cut}: {:?}", loaded[0].1);
            store.record_state(id, JobState::Running, 3, 4).unwrap();
        }
        let store = JobStore::open(&dir.0).unwrap();
        let job = match store.load_all().unwrap().remove(0).1 {
            Ok(job) => job,
            Err(e) => panic!("cut at {cut}: {e}"),
        };
        assert_eq!(
            (job.state, job.slices, job.samples_done),
            (JobState::Running, 3, 4),
            "cut at {cut}"
        );
        cuts += 1;
    }
    assert_eq!(cuts, full.len() - 3, "every byte but the three newlines");
}
