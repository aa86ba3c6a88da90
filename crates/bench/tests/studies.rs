//! Pins every paper study's CSV output byte for byte.
//!
//! Each study runs as `spotlight-bench <study>` at a tiny budget
//! (`SPOTLIGHT_TRIALS=1 SPOTLIGHT_HW=2 SPOTLIGHT_SW=3`), with every other
//! `SPOTLIGHT_*` variable removed from its environment and a fresh
//! working directory, and its stdout must equal
//! `tests/golden/<study>.csv`. Regenerate a golden only for a deliberate
//! change of a study's output.
//!
//! At this budget some searches find no feasible design, and their cells
//! read `inf`: they pin only that the configuration stays infeasible, not
//! a cost. These are fig6_edge's MAERI-like and HASCO rows on ResNet-50,
//! fig7_cloud's MAERI-like rows on ResNet-50 (EDP and delay), and 18 of
//! fig10_ablation's `best_so_far` points: the first point of the
//! Spotlight, Spotlight-F and Spotlight-V curves on ResNet-50, the first
//! of Spotlight-R and Spotlight-GA on Transformer, and the whole HASCO
//! curve on ResNet-50 and Spotlight-F curve on Transformer, for both
//! metrics.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spotlight-bench");

/// Runs `study` at the pin budget in a fresh working directory,
/// returning its stdout and, when `journal` names a file there for
/// `SPOTLIGHT_JOURNAL`, what the study journaled.
fn run(study: &str, journal: Option<&str>) -> (String, Option<String>) {
    let dir = std::env::temp_dir().join(format!("spotlight-study-{study}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create working directory");
    let mut cmd = Command::new(BIN);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SPOTLIGHT_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .arg(study)
        .env("SPOTLIGHT_TRIALS", "1")
        .env("SPOTLIGHT_HW", "2")
        .env("SPOTLIGHT_SW", "3")
        .envs(journal.map(|file| ("SPOTLIGHT_JOURNAL", file)))
        .current_dir(&dir)
        .output()
        .expect("run study");
    let journaled =
        journal.map(|file| std::fs::read_to_string(dir.join(file)).expect("read journal"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "{study} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf-8 output"),
        journaled,
    )
}

fn check(study: &str) {
    let (got, _) = run(study, None);
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{study}.csv"));
    let want = std::fs::read_to_string(&golden).expect("read golden");
    assert!(got == want, "{study} drifted from its golden:\n{got}");
}

macro_rules! study_tests {
    ($($study:ident),* $(,)?) => {
        $(
            #[test]
            fn $study() {
                check(stringify!($study));
            }
        )*
    };
}

study_tests!(
    fig3_space,
    fig6_edge,
    fig7_cloud,
    fig8_general,
    fig9_importance,
    fig10_ablation,
    fig11_cdf,
    secc_discussion,
    secd_surrogate,
    secf_timeloop,
    noc_analysis,
    ablation_design,
);

/// `SPOTLIGHT_JOURNAL` records every run a study makes: fig6_edge runs
/// Spotlight on ResNet-50 and Transformer and ConfuciuX and HASCO on
/// ResNet-50, four runs in all, and its output does not change.
#[test]
fn journal_records_every_study_run() {
    let (got, journal) = run("fig6_edge", Some("study.jsonl"));
    let journal = journal.expect("journal requested");
    let finished = journal
        .lines()
        .filter(|l| l.contains("\"type\":\"run_finished\""))
        .count();
    assert_eq!(finished, 4, "{journal}");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig6_edge.csv");
    assert_eq!(got, std::fs::read_to_string(golden).expect("read golden"));
}
