//! Pluggable event sinks: where observer records go.
//!
//! Four implementations cover the spectrum: [`NullSink`] (discard,
//! zero-cost), [`MemorySink`] (buffer for tests and for the
//! deterministic per-worker merge), [`JournalWriter`](crate::JournalWriter)
//! (JSONL file), and [`ProgressSink`] (human-readable progress lines).

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::event::{Event, Record};

/// Destination for observer records. Implementations must be cheap and
/// thread-safe: sinks are shared across search workers behind an `Arc`.
pub trait EventSink: Send + Sync {
    /// Accepts one record. Called on the search hot path — implementations
    /// should do bounded work per call.
    fn record(&self, rec: &Record);

    /// Flushes any buffering. Called once at the end of a run.
    fn flush(&self) {}
}

/// Discards everything. [`Observer::null`](crate::Observer::null) skips
/// sink dispatch entirely, so this type exists for call sites that need
/// an explicit sink value (e.g. composing a `MultiSink`).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _rec: &Record) {}
}

/// Buffers records in memory. Doubles as the per-worker staging buffer
/// for the deterministic merge (workers record here; the parent drains
/// buffers in `(hw_sample, layer)` ordinal order once the worker pool
/// joins) and as the oracle in tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
    recorded: AtomicU64,
}

impl MemorySink {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Total records accepted since creation (monotone; survives
    /// [`MemorySink::drain`]).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// A copy of the currently buffered records.
    pub fn records(&self) -> Vec<Record> {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Removes and returns the buffered records.
    pub fn drain(&self) -> Vec<Record> {
        std::mem::take(&mut *self.records.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl EventSink for MemorySink {
    fn record(&self, rec: &Record) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(rec.clone());
    }
}

/// Fans one record out to several sinks, in order.
pub struct MultiSink {
    sinks: Vec<std::sync::Arc<dyn EventSink>>,
}

impl MultiSink {
    /// Combines `sinks`; records are delivered in the given order.
    pub fn new(sinks: Vec<std::sync::Arc<dyn EventSink>>) -> Self {
        MultiSink { sinks }
    }
}

impl EventSink for MultiSink {
    fn record(&self, rec: &Record) {
        for sink in &self.sinks {
            sink.record(rec);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// Renders run-level progress as human-readable lines (one per hardware
/// sample, plus best-so-far improvements). Schedule-level events are
/// intentionally ignored: at paper scale they arrive tens of thousands
/// of times per run.
pub struct ProgressSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl ProgressSink {
    /// Progress onto standard error (the conventional channel, keeping
    /// stdout clean for machine-readable results).
    pub fn stderr() -> Self {
        ProgressSink::to_writer(Box::new(io::stderr()))
    }

    /// Progress onto an arbitrary writer (used by tests).
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        ProgressSink {
            out: Mutex::new(out),
        }
    }
}

impl EventSink for ProgressSink {
    fn record(&self, rec: &Record) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // Write errors on a progress channel are not worth failing the
        // search over; drop them like eprintln! would.
        let _ = match &rec.event {
            Event::RunStarted { manifest } => writeln!(
                out,
                "run: seed={} variant={} backend={} hw={}x sw={} threads={} git={}",
                manifest.seed,
                manifest.variant,
                manifest.backend,
                manifest.hw_samples,
                manifest.sw_samples,
                manifest.threads,
                manifest.git,
            ),
            Event::HwProposed { hw, admitted } => {
                let verdict = if *admitted { "" } else { "  [over budget]" };
                writeln!(
                    out,
                    "hw[{}] {hw}{verdict}",
                    rec.hw_sample.unwrap_or_default()
                )
            }
            Event::BestImproved { cost } => writeln!(
                out,
                "hw[{}] best -> {cost:.4e}",
                rec.hw_sample.unwrap_or_default()
            ),
            Event::ParetoUpdated { frontier_len } => writeln!(
                out,
                "hw[{}] pareto frontier now {frontier_len} points",
                rec.hw_sample.unwrap_or_default()
            ),
            Event::RungPromoted { rung, cost } => writeln!(
                out,
                "hw[{}] promoted to rung {rung} (cost {cost:.4e})",
                rec.hw_sample.unwrap_or_default()
            ),
            Event::RungDemoted { rung, cost } => writeln!(
                out,
                "hw[{}] dropped at rung {rung} (cost {cost:.4e})",
                rec.hw_sample.unwrap_or_default()
            ),
            Event::PhaseTiming { phase, wall_ms } => {
                writeln!(out, "phase {phase}: {wall_ms}ms")
            }
            Event::WorkerPanic { retrying } => {
                let action = if *retrying { "retrying" } else { "layer failed" };
                writeln!(
                    out,
                    "hw[{}] worker panic ({action})",
                    rec.hw_sample.unwrap_or_default()
                )
            }
            Event::Checkpoint { evaluations, .. } => writeln!(
                out,
                "hw[{}] checkpoint (evaluations={evaluations})",
                rec.hw_sample.unwrap_or_default()
            ),
            Event::RunFinished {
                best_cost,
                evaluations,
                wall_ms,
                status,
            } => writeln!(
                out,
                "done: best={best_cost:.4e} evaluations={evaluations} wall={wall_ms}ms status={status}"
            ),
            Event::ScheduleEvaluated { .. }
            | Event::Infeasible { .. }
            | Event::Quarantined { .. }
            | Event::ReplicateSummary { .. }
            | Event::OutlierRejected { .. } => return,
        };
    }

    fn flush(&self) {
        let _ = self
            .out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rec(hw: u64, cost: f64) -> Record {
        Record {
            hw_sample: Some(hw),
            layer: None,
            event: Event::BestImproved { cost },
        }
    }

    #[test]
    fn memory_sink_buffers_and_counts() {
        let sink = MemorySink::new();
        sink.record(&rec(0, 1.0));
        sink.record(&rec(1, 0.5));
        assert_eq!(sink.recorded(), 2);
        assert_eq!(sink.records().len(), 2);
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert!(sink.records().is_empty());
        // The monotone counter survives draining.
        assert_eq!(sink.recorded(), 2);
    }

    #[test]
    fn multi_sink_fans_out_in_order() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let multi = MultiSink::new(vec![a.clone(), b.clone()]);
        multi.record(&rec(3, 2.0));
        assert_eq!(a.records(), b.records());
        assert_eq!(a.recorded(), 1);
    }

    #[test]
    fn progress_sink_renders_run_level_events() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = ProgressSink::to_writer(Box::new(Shared(buf.clone())));
        sink.record(&rec(2, 6.25e8));
        sink.record(&Record {
            hw_sample: Some(2),
            layer: Some(0),
            event: Event::ScheduleEvaluated {
                step: 0,
                delay_cycles: 1.0,
                energy_nj: 1.0,
            },
        });
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("hw[2] best -> 6.2500e8"), "{text}");
        // Schedule-level noise is suppressed.
        assert_eq!(text.lines().count(), 1);
    }
}
