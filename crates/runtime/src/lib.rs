//! The Spotlight job runtime: everything between the search library and
//! a front end.
//!
//! The CLI used to own run orchestration — flag parsing, engine
//! construction, journal recovery — inline in its `main`. This crate
//! extracts that into reusable layers so a one-shot `spotlight
//! codesign` and a long-lived `spotlight serve` daemon drive the
//! *identical* code path:
//!
//! * [`spec`] — [`spec::RunSpec`], the single validated description of
//!   a run. CLI flags, `submit` frames on the serve socket, and journal
//!   manifests all parse into one.
//! * [`job`] — a submitted run bound to its journal and lifecycle
//!   state.
//! * [`runner`] — executes runs ([`runner::run_job`] /
//!   [`runner::resume_job`]) and checkpoint-bounded slices
//!   ([`runner::advance_job`]); the journal is the only state carried
//!   between slices, so preemption, worker death, and process kills all
//!   recover through the same path.
//! * [`scheduler`] — a worker pool round-robining slices across jobs
//!   fairly, with panic isolation (a dead worker's job resumes on a
//!   replacement thread) and memo caches shared between jobs whose
//!   evaluation semantics match.
//! * [`store`] — the durable job store: each job's spec, state WAL,
//!   journal, and report persisted under a state directory, so a
//!   daemon restart recovers every job ([`scheduler::Server::new`]).
//! * [`proto`] / [`serve`] — the line-delimited JSON wire protocol and
//!   the TCP/Unix socket front end, plus `GET /metrics`.
//! * [`metrics`] — Prometheus text exposition of the evaluation and
//!   scheduler counters.

#![warn(missing_docs)]

pub mod fsck;
pub mod job;
pub mod metrics;
pub mod proto;
pub mod runner;
pub mod scheduler;
pub mod serve;
pub mod spec;
pub mod store;

pub use fsck::{fsck_store, FsckReport, JobVerdict};
pub use job::{Job, JobId, JobState, JobStatus};
pub use metrics::{metric_value, render_metrics, validate_metrics, ServerCounters};
pub use proto::{Request, Response, MAX_FRAME_LEN};
pub use runner::advance_job;
pub use runner::JOURNAL_INTEGRITY_PREFIX;
pub use runner::{
    build_observer, resume_job, run_job, CrashAfterCheckpoint, RunOutput, RuntimeError,
    SliceProgress,
};
pub use scheduler::{SchedulerOptions, Server, SubmitError};
pub use serve::{
    bind, run_client, run_client_with_retry, serve_loop, Listener, ReconnectPolicy, ServeOptions,
};
pub use spec::{parse_variant, resolve_model, RunSpec, SpecError};
pub use store::{fold_wal, JobStore, StoreError, WalFold};
