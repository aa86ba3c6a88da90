//! Pinning tests for the observability layer (tracing + run journal).
//!
//! These tests pin the ISSUE's acceptance criteria: the trace-event
//! multiset of a fixed-seed co-design run is byte-identical at 1, 2,
//! and 4 worker threads after the canonical `(hw_sample, layer)` sort,
//! and a JSONL journal round-trips losslessly through the reader.

use std::sync::Arc;

use spotlight_repro::conv::ConvLayer;
use spotlight_repro::models::Model;
use spotlight_repro::obs::{
    parse_journal_tolerant_bytes, Event, JournalWriter, MemorySink, Observer, Record, EVENT_KINDS,
};
use spotlight_repro::spotlight::codesign::{CodesignConfig, Spotlight};

fn model() -> Model {
    Model::from_layers(
        "obs-test",
        vec![
            ConvLayer::new(1, 64, 32, 3, 3, 28, 28),
            ConvLayer::new(1, 128, 64, 1, 1, 14, 14),
            ConvLayer::new(1, 32, 16, 3, 3, 14, 14),
        ],
    )
}

fn config(threads: usize) -> CodesignConfig {
    CodesignConfig::edge()
        .hw_samples(6)
        .sw_samples(12)
        .seed(13)
        .threads(threads)
        .build()
        .expect("test config is valid")
}

/// The canonical event serialization: trace events only (the manifest
/// records the thread count and `run_finished` records nondeterministic
/// wall time), sorted by `(hw_sample, layer)` span and then JSON text.
fn canonical_trace(records: &[Record]) -> Vec<String> {
    let mut lines: Vec<(Option<u64>, Option<u64>, String)> = records
        .iter()
        .filter(|r| r.event.is_trace())
        .map(|r| (r.hw_sample, r.layer, r.to_json()))
        .collect();
    lines.sort();
    lines.into_iter().map(|(_, _, json)| json).collect()
}

#[test]
fn trace_events_are_identical_across_thread_counts() {
    let run = |threads: usize| -> Vec<String> {
        let sink = Arc::new(MemorySink::new());
        Spotlight::new(config(threads))
            .with_observer(Observer::new(sink.clone()))
            .codesign(&[model()]);
        canonical_trace(&sink.records())
    };
    let baseline = run(1);
    assert!(!baseline.is_empty(), "observed run produced no events");
    for threads in [2, 4] {
        assert_eq!(run(threads), baseline, "{threads} threads diverged");
    }
}

#[test]
fn journal_round_trips_through_the_reader() {
    let path = std::env::temp_dir().join(format!("spotlight-obs-{}.jsonl", std::process::id()));
    {
        let writer = Arc::new(JournalWriter::create(&path).expect("temp journal"));
        Spotlight::new(config(2))
            .with_observer(Observer::new(writer))
            .codesign(&[model()]);
    }
    let text = std::fs::read_to_string(&path).expect("journal written");
    let parsed =
        parse_journal_tolerant_bytes(text.as_bytes()).expect("every line parses as a known event");
    assert!(parsed.truncated_tail.is_none(), "the journal ends cleanly");
    assert!(parsed.corrupt.is_empty(), "{:?}", parsed.corrupt);
    let records = parsed.records;
    let _ = std::fs::remove_file(&path);

    // Lossless round-trip: re-serializing each parsed record reproduces
    // the journal byte-for-byte, line-for-line.
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(records.len(), lines.len());
    for (record, line) in records.iter().zip(&lines) {
        assert_eq!(record.to_json(), *line);
    }

    // The run is bracketed: manifest first, run_finished last.
    assert!(matches!(
        records.first().map(|r| &r.event),
        Some(Event::RunStarted { .. })
    ));
    assert!(matches!(
        records.last().map(|r| &r.event),
        Some(Event::RunFinished { .. })
    ));
    // Every kind that appears is a known kind (schema-drift guard).
    for r in &records {
        assert!(EVENT_KINDS.contains(&r.event.kind()));
    }
    // A healthy run proposes hardware and evaluates schedules.
    assert!(records
        .iter()
        .any(|r| matches!(r.event, Event::HwProposed { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r.event, Event::ScheduleEvaluated { .. })));
}

#[test]
fn observed_and_unobserved_runs_agree_bit_for_bit() {
    // Attaching an observer must not perturb the search: same seed, same
    // best cost, same history, with or without a sink.
    let plain = Spotlight::new(config(1)).codesign(&[model()]);
    let sink = Arc::new(MemorySink::new());
    let observed = Spotlight::new(config(1))
        .with_observer(Observer::new(sink.clone()))
        .codesign(&[model()]);
    assert_eq!(plain.best_hw, observed.best_hw);
    assert_eq!(plain.best_cost.to_bits(), observed.best_cost.to_bits());
    assert_eq!(plain.evaluations, observed.evaluations);
    // And the journal accounts for exactly the evaluations performed.
    let evaluated = sink
        .records()
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                Event::ScheduleEvaluated { .. } | Event::Infeasible { .. }
            )
        })
        .count() as u64;
    assert_eq!(evaluated, observed.evaluations);
}
