//! Pins the refactored CLI to pre-refactor golden artifacts.
//!
//! `tests/golden/` (repo root) holds a report and journal produced by
//! the binary *before* run orchestration moved into the runtime crate.
//! The same invocation must still produce a byte-identical report, and
//! a journal identical up to the only two non-deterministic byte
//! ranges: `wall_ms` timing fields and the manifest's `git` stamp.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spotlight-cli");

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Zeroes the journal's non-deterministic bytes: every `"wall_ms":<n>`
/// becomes `"wall_ms":0`, and the manifest's `"git":"<stamp>"` becomes
/// `"git":""`.
fn normalize(journal: &str) -> String {
    let mut out = String::with_capacity(journal.len());
    let mut rest = journal;
    while let Some(pos) = rest.find("\"wall_ms\":") {
        let (head, tail) = rest.split_at(pos + "\"wall_ms\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);

    let mut scrubbed = String::with_capacity(out.len());
    let mut rest = out.as_str();
    while let Some(pos) = rest.find("\"git\":\"") {
        let (head, tail) = rest.split_at(pos + "\"git\":\"".len());
        scrubbed.push_str(head);
        let end = tail.find('"').expect("git value is a terminated string");
        rest = &tail[end..];
    }
    scrubbed.push_str(rest);
    scrubbed
}

#[test]
fn refactored_cli_reproduces_the_pre_refactor_golden_run() {
    let dir = std::env::temp_dir().join(format!("spotlight-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp workdir creates");
    let report = dir.join("report.txt");
    let journal = dir.join("run.jsonl");

    let status = Command::new(BIN)
        .args([
            "codesign",
            "--model",
            "transformer",
            "--hw",
            "4",
            "--sw",
            "6",
            "--seed",
            "3",
            "--out",
            report.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .status()
        .expect("binary runs");
    assert!(status.success());

    let golden_report =
        std::fs::read_to_string(golden_dir().join("report.txt")).expect("golden report exists");
    let got_report = std::fs::read_to_string(&report).expect("report written");
    assert_eq!(
        got_report, golden_report,
        "final report must be byte-identical to the pre-refactor golden"
    );

    let golden_journal =
        std::fs::read_to_string(golden_dir().join("run.jsonl")).expect("golden journal exists");
    let got_journal = std::fs::read_to_string(&journal).expect("journal written");
    assert_eq!(
        normalize(&got_journal),
        normalize(&golden_journal),
        "journal must match the golden up to wall_ms and the git stamp"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_backend_reproduces_its_golden_report() {
    // Every other golden run uses the analytical backend; this one pins
    // the tile simulator's output end to end.
    let dir = std::env::temp_dir().join(format!("spotlight-golden-sim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp workdir creates");
    let report = dir.join("sim_report.txt");

    let status = Command::new(BIN)
        .args([
            "codesign",
            "--model",
            "transformer",
            "--backend",
            "sim",
            "--hw",
            "4",
            "--sw",
            "8",
            "--seed",
            "3",
            "--out",
            report.to_str().unwrap(),
        ])
        .status()
        .expect("binary runs");
    assert!(status.success());

    let golden = std::fs::read_to_string(golden_dir().join("sim_report.txt"))
        .expect("golden sim report exists");
    let got = std::fs::read_to_string(&report).expect("report written");
    assert_eq!(
        got, golden,
        "sim-backend report must be byte-identical to its golden"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn robust_sim_run_reproduces_its_golden_report() {
    // A noisy 3-replicate median on the tile simulator: every replicate
    // re-costs the same (hw, schedule, layer) triple, so this pins what
    // the engine's replication sees from a deterministic backend.
    let dir = std::env::temp_dir().join(format!(
        "spotlight-golden-sim-robust-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp workdir creates");
    let report = dir.join("sim_robust_report.txt");

    let status = Command::new(BIN)
        .args([
            "codesign",
            "--model",
            "transformer",
            "--backend",
            "sim",
            "--hw",
            "4",
            "--sw",
            "8",
            "--seed",
            "3",
            "--noise",
            "seed=7,model=gauss,sigma=0.1",
            "--replicates",
            "3",
            "--robust-agg",
            "median",
            "--out",
            report.to_str().unwrap(),
        ])
        .status()
        .expect("binary runs");
    assert!(status.success());

    let golden = std::fs::read_to_string(golden_dir().join("sim_robust_report.txt"))
        .expect("golden robust sim report exists");
    let got = std::fs::read_to_string(&report).expect("report written");
    assert_eq!(
        got, golden,
        "robust sim-backend report must be byte-identical to its golden"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resnet50_sim_run_reproduces_its_golden_report() {
    // The benchmark's noisy 3-replicate median on the tile simulator,
    // on ResNet-50: its early layers have outer loop nests of tens of
    // thousands of iterations, where the Transformer goldens' walks are
    // short.
    let dir = std::env::temp_dir().join(format!(
        "spotlight-golden-sim-resnet50-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp workdir creates");
    let report = dir.join("sim_resnet50_report.txt");

    let status = Command::new(BIN)
        .args([
            "codesign",
            "--model",
            "resnet50",
            "--scale",
            "edge",
            "--backend",
            "sim",
            "--hw",
            "4",
            "--sw",
            "12",
            "--seed",
            "1",
            "--noise",
            "model=gauss,sigma=0.1,seed=1",
            "--replicates",
            "3",
            "--robust-agg",
            "median",
            "--out",
            report.to_str().unwrap(),
        ])
        .status()
        .expect("binary runs");
    assert!(status.success());

    let golden = std::fs::read_to_string(golden_dir().join("sim_resnet50_report.txt"))
        .expect("golden ResNet-50 sim report exists");
    let got = std::fs::read_to_string(&report).expect("report written");
    assert_eq!(
        got, golden,
        "ResNet-50 sim-backend report must be byte-identical to its golden"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_run_reproduces_its_golden_report() {
    // Seeded worker panics: the fault schedule decides which backend
    // calls panic and are retried, so this pins every injected fault
    // end to end (the same invocation as CI's fault-injection smoke).
    let dir = std::env::temp_dir().join(format!("spotlight-golden-faulted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp workdir creates");
    let report = dir.join("faulted_report.txt");

    let status = Command::new(BIN)
        .args([
            "codesign",
            "--model",
            "mobilenetv2",
            "--hw",
            "5",
            "--sw",
            "6",
            "--seed",
            "11",
            "--faults",
            "seed=5,panic=0.02",
            "--out",
            report.to_str().unwrap(),
        ])
        .status()
        .expect("binary runs");
    assert!(status.success());

    let golden = std::fs::read_to_string(golden_dir().join("faulted_report.txt"))
        .expect("golden faulted report exists");
    let got = std::fs::read_to_string(&report).expect("report written");
    assert_eq!(
        got, golden,
        "faulted report must be byte-identical to its golden"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evaluate_reproduces_its_golden_stdout() {
    // `evaluate` costs a hand-designed baseline under the layerwise
    // software optimizer; its stdout is the plan and the evaluation
    // count, one edge-scale and one cloud-scale run in that order.
    let runs = [
        "--baseline eyeriss --model transformer --sw 10",
        "--baseline maeri --model mobilenetv2 --sw 10 --scale cloud",
    ];
    let mut got = String::new();
    for args in runs {
        let out = Command::new(BIN)
            .arg("evaluate")
            .args(args.split_whitespace())
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "evaluate {args} failed");
        got.push_str(&String::from_utf8(out.stdout).expect("stdout is UTF-8"));
    }
    let golden = std::fs::read_to_string(golden_dir().join("evaluate_report.txt"))
        .expect("golden evaluate report exists");
    assert_eq!(
        got, golden,
        "evaluate stdout must be byte-identical to its golden"
    );
}

#[test]
fn golden_report_still_contains_the_pinned_result() {
    // Belt and braces: the golden file itself must carry the expected
    // search result, so a regeneration that changed the outcome (rather
    // than the formatting) cannot slip through unnoticed.
    let golden =
        std::fs::read_to_string(golden_dir().join("report.txt")).expect("golden report exists");
    assert!(golden.contains("597544319801551.1"), "pinned best cost");
    assert!(golden.contains("179PE (179x1) simd12 RF176KiB L2104KiB BW119"));
    assert!(
        !golden.contains("hit rate"),
        "report must exclude cache stats"
    );
    assert!(
        !golden.contains("phase "),
        "report must exclude wall timers"
    );
}
