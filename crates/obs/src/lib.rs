//! Structured observability for Spotlight searches.
//!
//! A co-design run is a nested search — `run → hw_sample → layer →
//! sw_step` — and this crate turns it from a black box into an event
//! stream. An [`Observer`] handle threads through the search drivers and
//! emits typed [`Event`]s into a pluggable [`EventSink`]:
//!
//! * [`NullSink`] / [`Observer::null`] — disabled, zero allocations on
//!   the hot path (the default everywhere).
//! * [`MemorySink`] — in-memory buffer, used by tests and by the
//!   deterministic per-worker merge.
//! * [`JournalWriter`] — a JSONL run journal, manifest first.
//! * [`ProgressSink`] — human-readable progress lines.
//!
//! # Determinism
//!
//! Trace events carry only data derived from the seeded search state, so
//! a fixed seed yields the same trace-event multiset at any thread
//! count. Parallel layer searches record into per-worker [`MemorySink`]
//! buffers which the parent drains in `(hw_sample, layer)` ordinal order
//! — the journal's line order is thread-invariant too.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use spotlight_obs::{Event, MemorySink, Observer};
//!
//! let sink = Arc::new(MemorySink::new());
//! let obs = Observer::new(sink.clone());
//! let layer_obs = obs.with_hw_sample(3).with_layer(1);
//! layer_obs.emit_with(|| Event::ScheduleEvaluated {
//!     step: 0,
//!     delay_cycles: 1.0e6,
//!     energy_nj: 2.0e3,
//! });
//! let records = sink.records();
//! assert_eq!(records[0].hw_sample, Some(3));
//! assert_eq!(records[0].layer, Some(1));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod crc;
mod event;
pub mod io;
mod journal;
pub mod json;
pub mod seeded;
mod sink;

pub use crc::{check_line, crc32c, frame_line, LineIntegrity, INTEGRITY_CRC32C};
pub use event::{Event, Record, RunManifest, EVENT_KINDS};
pub use io::{DiskFaultPlan, FaultFs, RealFs, StoreIo};
pub use journal::{
    parse_journal_tolerant_bytes, read_journal_tolerant, CorruptRecord, FramedLine, FramedLines,
    JournalError, JournalWriter, LineScan, ParsedJournal, TruncatedTail,
};
pub use sink::{EventSink, MemorySink, MultiSink, NullSink, ProgressSink};

use std::sync::Arc;

/// A cheap, cloneable handle carrying the current span context and the
/// destination sink. A disabled observer (no sink) costs one branch per
/// emission and performs no allocation — searches default to it.
#[derive(Clone, Default)]
pub struct Observer {
    sink: Option<Arc<dyn EventSink>>,
    hw_sample: Option<u64>,
    layer: Option<u64>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("enabled", &self.sink.is_some())
            .field("hw_sample", &self.hw_sample)
            .field("layer", &self.layer)
            .finish()
    }
}

impl Observer {
    /// The disabled observer: every emission is a no-op.
    pub fn null() -> Self {
        Observer::default()
    }

    /// An observer delivering to `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        Observer {
            sink: Some(sink),
            hw_sample: None,
            layer: None,
        }
    }

    /// Builds an observer over zero, one, or many sinks (zero → null,
    /// many → [`MultiSink`]).
    pub fn multi(mut sinks: Vec<Arc<dyn EventSink>>) -> Self {
        match sinks.len() {
            0 => Observer::null(),
            1 => Observer::new(sinks.pop().expect("len checked")),
            _ => Observer::new(Arc::new(MultiSink::new(sinks))),
        }
    }

    /// Whether a sink is attached. Callers with costly event payloads
    /// should prefer [`Observer::emit_with`] over checking this.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A child observer scoped to hardware sample `index`.
    pub fn with_hw_sample(&self, index: u64) -> Observer {
        Observer {
            sink: self.sink.clone(),
            hw_sample: Some(index),
            layer: self.layer,
        }
    }

    /// A child observer scoped to layer ordinal `index`.
    pub fn with_layer(&self, index: u64) -> Observer {
        Observer {
            sink: self.sink.clone(),
            hw_sample: self.hw_sample,
            layer: Some(index),
        }
    }

    /// Emits an already-built event under the current span context.
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.record(&Record {
                hw_sample: self.hw_sample,
                layer: self.layer,
                event,
            });
        }
    }

    /// Emits the event produced by `build` — but only constructs it when
    /// a sink is attached. This keeps `String`-carrying events free on
    /// the disabled path, the search hot loop's contract.
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if self.sink.is_some() {
            self.emit(build());
        }
    }

    /// A worker-local observer buffering into a fresh [`MemorySink`]
    /// (returned alongside), or `(null, None)` when disabled. Parents
    /// pass the buffered observer into a worker thread, then call
    /// [`Observer::forward`] on the buffers in deterministic order once
    /// the workers join.
    pub fn buffered(&self) -> (Observer, Option<Arc<MemorySink>>) {
        match &self.sink {
            None => (Observer::null(), None),
            Some(_) => {
                let buffer = Arc::new(MemorySink::new());
                let obs = Observer {
                    sink: Some(buffer.clone() as Arc<dyn EventSink>),
                    hw_sample: self.hw_sample,
                    layer: self.layer,
                };
                (obs, Some(buffer))
            }
        }
    }

    /// Drains a worker buffer into this observer's sink, preserving each
    /// record's own span context verbatim.
    pub fn forward(&self, buffer: &MemorySink) {
        if let Some(sink) = &self.sink {
            for rec in buffer.drain() {
                sink.record(&rec);
            }
        }
    }

    /// Flushes the attached sink, if any. Call once at the end of a run.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a repository. Cached for the process lifetime; stamped into
/// the [`RunManifest`] so a journal identifies the code that wrote it.
pub fn git_describe() -> &'static str {
    use std::sync::OnceLock;
    static CACHE: OnceLock<String> = OnceLock::new();
    CACHE.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluated(step: u64) -> Event {
        Event::ScheduleEvaluated {
            step,
            delay_cycles: 1.0,
            energy_nj: 1.0,
        }
    }

    #[test]
    fn null_observer_is_disabled_and_silent() {
        let obs = Observer::null();
        assert!(!obs.is_enabled());
        obs.emit(evaluated(0));
        let mut built = false;
        obs.emit_with(|| {
            built = true;
            evaluated(1)
        });
        // The builder closure never runs on the disabled path.
        assert!(!built);
        let (child, buffer) = obs.buffered();
        assert!(!child.is_enabled());
        assert!(buffer.is_none());
    }

    #[test]
    fn span_context_nests_and_sticks() {
        let sink = Arc::new(MemorySink::new());
        let obs = Observer::new(sink.clone());
        obs.emit(Event::BestImproved { cost: 1.0 });
        obs.with_hw_sample(4)
            .emit(Event::BestImproved { cost: 2.0 });
        obs.with_hw_sample(4)
            .with_layer(2)
            .emit(Event::BestImproved { cost: 3.0 });
        let recs = sink.records();
        assert_eq!(recs[0].span_key(), (None, None));
        assert_eq!(recs[1].span_key(), (Some(4), None));
        assert_eq!(recs[2].span_key(), (Some(4), Some(2)));
    }

    #[test]
    fn buffered_workers_merge_in_forward_order() {
        let sink = Arc::new(MemorySink::new());
        let parent = Observer::new(sink.clone()).with_hw_sample(0);
        let (a, buf_a) = parent.with_layer(0).buffered();
        let (b, buf_b) = parent.with_layer(1).buffered();
        // Workers emit out of order; the parent forwards in ordinal order.
        b.emit(evaluated(10));
        a.emit(evaluated(20));
        parent.forward(&buf_a.unwrap());
        parent.forward(&buf_b.unwrap());
        let recs = sink.records();
        assert_eq!(recs[0].layer, Some(0));
        assert_eq!(recs[1].layer, Some(1));
    }

    #[test]
    fn multi_builds_the_right_shape() {
        assert!(!Observer::multi(Vec::new()).is_enabled());
        let one = Observer::multi(vec![Arc::new(MemorySink::new()) as Arc<dyn EventSink>]);
        assert!(one.is_enabled());
    }

    #[test]
    fn git_describe_is_cached_and_nonempty() {
        let a = git_describe();
        assert!(!a.is_empty());
        assert_eq!(a, git_describe());
    }
}
