//! Fault-tolerance integration tests: deterministic fault schedules,
//! stats invariants under concurrency, and checkpoint/resume through a
//! real on-disk journal (the full JSONL serialization round-trip).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use spotlight_repro::conv::ConvLayer;
use spotlight_repro::eval::{EvalEngine, RetryPolicy};
use spotlight_repro::models::Model;
use spotlight_repro::obs::{
    read_journal_tolerant, Event, JournalWriter, MemorySink, Observer, Record,
};
use spotlight_repro::spotlight::codesign::{
    CodesignConfig, CodesignOutcome, RunStatus, SampleCheckpoint, Spotlight,
};

fn tiny_model() -> Model {
    Model::from_layers(
        "ftol",
        vec![
            ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
            ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
        ],
    )
}

fn config(threads: usize, seed: u64) -> CodesignConfig {
    CodesignConfig::edge()
        .hw_samples(6)
        .sw_samples(10)
        .seed(seed)
        .threads(threads)
        .build()
        .expect("test config is valid")
}

/// An engine with the given fault plan and a fast, sleep-free retry
/// schedule so tests never wait on backoff.
fn faulty_engine(spec: &str) -> EvalEngine {
    EvalEngine::builder()
        .backend("maestro")
        .faults(Some(spec.parse().expect("valid spec")))
        .retry(RetryPolicy {
            max_attempts: 2,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        })
        .build()
        .expect("maestro backend exists")
}

/// A partial panic rate: some layers panic once and recover on the
/// retry, others panic twice and fail.
const PANIC_SPEC: &str = "seed=5,panic=0.05";

fn faulty_run(spec: &str, threads: usize, seed: u64) -> CodesignOutcome {
    Spotlight::with_engine(config(threads, seed), faulty_engine(spec)).codesign(&[tiny_model()])
}

#[test]
fn fault_schedule_is_thread_invariant() {
    let spec = "seed=3,transient=0.15,poison=0.05";
    let base = faulty_run(spec, 1, 21);
    for threads in [2usize, 4] {
        let out = faulty_run(spec, threads, 21);
        assert_eq!(out.best_cost.to_bits(), base.best_cost.to_bits());
        assert_eq!(out.best_hw, base.best_hw);
        assert_eq!(out.hw_history, base.hw_history);
        assert_eq!(out.evaluations, base.evaluations);
        assert_eq!(out.stats.quarantined, base.stats.quarantined);
        assert_eq!(out.stats.infeasible, base.stats.infeasible);
        assert_eq!(out.status, base.status);
    }
}

/// Panicked layers are retried inline after the worker pool joins, in
/// ordinal order. With more layers than threads, the report, the
/// counters, and the ordered event stream must not depend on which
/// worker claimed which layer.
#[test]
fn panic_retries_are_thread_invariant() {
    let model = Model::from_layers(
        "panics",
        vec![
            ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
            ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
            ConvLayer::new(1, 24, 24, 3, 3, 7, 7),
            ConvLayer::new(1, 8, 32, 1, 1, 28, 28),
            ConvLayer::new(1, 48, 16, 3, 3, 14, 14),
        ],
    );
    assert_eq!(model.layers().len(), 5);
    let run = |threads: usize| {
        let sink = Arc::new(MemorySink::new());
        let out = Spotlight::with_engine(config(threads, 4), faulty_engine(PANIC_SPEC))
            .with_observer(Observer::new(sink.clone()))
            .codesign(std::slice::from_ref(&model));
        // The manifest records the thread count and phase timings are
        // wall time; every other event must match in order.
        let events: Vec<Record> = sink
            .records()
            .into_iter()
            .filter(|r| {
                !matches!(
                    r.event,
                    Event::RunStarted { .. } | Event::PhaseTiming { .. }
                )
            })
            .map(|mut r| {
                if let Event::RunFinished { wall_ms, .. } = &mut r.event {
                    *wall_ms = 0;
                }
                r
            })
            .collect();
        (out, events)
    };
    let (base, base_events) = run(1);

    // Vacuity guard: some layer panicked, and at least one of those
    // recovered on its retry.
    let span = |r: &Record| (r.hw_sample, r.layer);
    let retried: Vec<_> = base_events
        .iter()
        .filter(|r| matches!(r.event, Event::WorkerPanic { retrying: true }))
        .map(span)
        .collect();
    assert!(!retried.is_empty(), "no layer panicked");
    let recovered = retried.iter().any(|s| {
        !base_events
            .iter()
            .any(|r| span(r) == *s && matches!(r.event, Event::WorkerPanic { retrying: false }))
    });
    assert!(recovered, "no panicked layer recovered on retry");

    for threads in [2usize, 4] {
        let (out, events) = run(threads);
        assert_eq!(out.best_cost.to_bits(), base.best_cost.to_bits());
        let bits = |h: &[f64]| h.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.hw_history), bits(&base.hw_history));
        assert_eq!(out.evaluations, base.evaluations);
        assert_eq!(out.stats.failed_layers, base.stats.failed_layers);
        assert_eq!(out.status, base.status);
        assert_eq!(events, base_events, "{threads} threads: event stream");
    }
}

#[test]
fn resume_round_trips_through_a_real_journal_file() {
    // Unlike the in-memory resume tests, this one forces every
    // checkpoint through JSONL serialization and back. The f64 bit
    // patterns in checkpoints exceed 2^53, so this catches any f64
    // detour in the journal's number parsing.
    let spec = "seed=2,transient=0.2";
    let path = std::env::temp_dir().join(format!("spotlight-ftol-{}.jsonl", std::process::id()));
    let path = path.to_str().expect("temp path is utf-8").to_string();

    let writer = JournalWriter::create(&path).expect("journal file creates");
    let full = Spotlight::with_engine(config(1, 7), faulty_engine(spec))
        .with_observer(Observer::new(Arc::new(writer)))
        .codesign(&[tiny_model()]);

    let parsed = read_journal_tolerant(&path)
        .expect("journal file reads")
        .expect("journal parses");
    assert!(parsed.truncated_tail.is_none());
    let checkpoints: Vec<SampleCheckpoint> = parsed
        .records
        .iter()
        .filter_map(|r| SampleCheckpoint::from_event(&r.event))
        .collect();
    assert_eq!(checkpoints.len(), 6);
    let _ = std::fs::remove_file(&path);

    // Resume from a mid-run kill: 2 of 6 samples survived the crash.
    let resumed = Spotlight::with_engine(config(1, 7), faulty_engine(spec))
        .resume(&[tiny_model()], &checkpoints[..2])
        .expect("recorded prefix replays");
    assert_eq!(resumed.best_cost.to_bits(), full.best_cost.to_bits());
    assert_eq!(resumed.best_hw, full.best_hw);
    assert_eq!(resumed.best_plans, full.best_plans);
    assert_eq!(resumed.frontier.points(), full.frontier.points());
    assert_eq!(resumed.evaluations, full.evaluations);
    assert_eq!(resumed.status, full.status);
}

#[test]
fn degraded_runs_journal_their_status() {
    let sink = Arc::new(MemorySink::new());
    let out = Spotlight::with_engine(config(1, 5), faulty_engine("seed=5,transient=1"))
        .with_observer(Observer::new(sink.clone()))
        .codesign(&[tiny_model()]);
    assert_eq!(out.status, RunStatus::Degraded);
    assert!(out.stats.quarantined > 0);
    let records = sink.records();
    match &records.last().expect("events recorded").event {
        Event::RunFinished { status, .. } => assert_eq!(status, "degraded"),
        other => panic!("last event should be run_finished, got {other:?}"),
    }
}

#[test]
fn scarred_journals_report_a_truncated_tail() {
    let path = std::env::temp_dir().join(format!("spotlight-scar-{}.jsonl", std::process::id()));
    let path = path.to_str().expect("temp path is utf-8").to_string();
    let writer = JournalWriter::create(&path).expect("journal file creates");
    Spotlight::with_engine(config(1, 3), EvalEngine::default())
        .with_observer(Observer::new(Arc::new(writer)))
        .codesign(&[tiny_model()]);
    let clean = read_journal_tolerant(&path)
        .expect("reads")
        .expect("parses");

    // A kill mid-write leaves a final line with no newline: the reader
    // must keep every terminated record and report the scar.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("journal reopens");
    f.write_all(b"{\"type\":\"checkpoint\",\"cost_bi")
        .expect("scar writes");
    drop(f);
    let scarred = read_journal_tolerant(&path)
        .expect("reads")
        .expect("parses despite the scar");
    assert_eq!(scarred.records.len(), clean.records.len());
    assert!(scarred.truncated_tail.is_some());
    assert_eq!(scarred.valid_bytes, clean.valid_bytes);
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the fault mix, thread count, and seed, the engine's
    /// books must balance: every evaluation is either a cache hit or a
    /// miss, and failure counts never exceed the work performed.
    #[test]
    fn stats_invariants_hold_under_faults(
        seed in 0u64..64,
        fault_seed in 0u64..64,
        transient in 0.0f64..0.5,
        poison in 0.0f64..0.3,
        threads in 1usize..4,
    ) {
        let spec = format!("seed={fault_seed},transient={transient},poison={poison}");
        let out = faulty_run(&spec, threads, seed);
        let s = &out.stats;
        prop_assert_eq!(s.evaluations, s.cache_hits + s.cache_misses);
        prop_assert!(s.infeasible + s.quarantined <= s.evaluations);
        prop_assert!(s.failed_layers == 0);
        if s.quarantined > 0 {
            prop_assert_eq!(out.status, RunStatus::Degraded);
        }
    }
}
