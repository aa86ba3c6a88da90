//! A faulted run's journal is the same at 1, 2 and 4 threads, line for
//! line and in order, apart from the records that carry wall time or the
//! thread count (`run_started`, `phase_timing`, `run_finished`).
//!
//! Workers search layers concurrently and their events reach the journal
//! in layer-ordinal order, partly while the pool still runs; injected
//! worker panics are retried after it joins. A test that sorted the
//! records would miss a reordering, so this compares the raw lines.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spotlight-cli");

/// The journal of a small faulted run at `threads`, without the
/// records that legitimately differ between thread counts.
fn journal_at(dir: &Path, threads: &str) -> Vec<String> {
    let journal = dir.join(format!("j{threads}.jsonl"));
    let status = Command::new(BIN)
        .args([
            "codesign",
            "--model",
            "mobilenetv2",
            "--hw",
            "4",
            "--sw",
            "6",
            "--seed",
            "11",
            "--faults",
            "seed=5,panic=0.05",
            "--threads",
            threads,
            "--journal",
            journal.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary runs")
        .status;
    assert!(status.success(), "{threads} threads: run failed");
    let text = std::fs::read_to_string(&journal).expect("journal written");
    text.lines()
        .filter(|line| {
            !["run_started", "phase_timing", "run_finished"]
                .iter()
                .any(|kind| line.contains(&format!("\"type\":\"{kind}\"")))
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn faulted_journal_is_line_for_line_thread_invariant() {
    let dir = std::env::temp_dir().join(format!("spotlight-jt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp workdir creates");
    let base = journal_at(&dir, "1");
    // Vacuity guards: layers were searched, and some worker panicked
    // and was retried.
    assert!(base
        .iter()
        .any(|l| l.contains("\"type\":\"schedule_evaluated\"")));
    assert!(base
        .iter()
        .any(|l| l.contains("\"type\":\"worker_panic\"") && l.contains("\"retrying\":true")));
    for threads in ["2", "4"] {
        let got = journal_at(&dir, threads);
        assert_eq!(got.len(), base.len(), "{threads} threads: record count");
        for (i, (a, b)) in base.iter().zip(&got).enumerate() {
            assert_eq!(a, b, "{threads} threads: journal line {i} differs");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
