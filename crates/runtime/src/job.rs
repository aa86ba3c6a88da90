//! Jobs: one validated [`RunSpec`] bound to a
//! journal path and a lifecycle state.

use std::fmt;
use std::path::PathBuf;

use crate::spec::RunSpec;

/// Identifies one submitted job for the lifetime of a server.
pub type JobId = u64;

/// Where a job sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker (fresh, or parked between slices).
    Queued,
    /// A worker is executing one of its slices right now.
    Running,
    /// Finished; the final report is available.
    Completed,
    /// A slice returned an error the scheduler cannot recover from.
    Failed,
    /// Cancelled by request; will not be scheduled again.
    Cancelled,
    /// Quarantined: the job's on-disk WAL or journal failed integrity
    /// verification. The daemon keeps serving everything else; the job
    /// is never scheduled again (repair happens offline via
    /// `spotlight fsck --repair`).
    Corrupt,
}

impl JobState {
    /// Stable lowercase name, used on the wire and in metrics labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Corrupt => "corrupt",
        }
    }

    /// Parses the wire name back into a state.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn from_str_name(s: &str) -> Result<JobState, String> {
        Ok(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            "corrupt" => JobState::Corrupt,
            other => return Err(format!("unknown job state `{other}`")),
        })
    }

    /// Whether the job can never run again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled | JobState::Corrupt
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One submitted co-design run: its spec, its journal (the sole
/// persistent state — everything a slice needs to continue is recovered
/// from it), and its bookkeeping.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned identifier.
    pub id: JobId,
    /// The validated run description.
    pub spec: RunSpec,
    /// Client-supplied idempotency key: re-submitting it returns this
    /// job instead of forking a duplicate.
    pub key: Option<String>,
    /// The job's journal; every slice appends to it and every
    /// resumption replays it.
    pub journal: PathBuf,
    /// Lifecycle state.
    pub state: JobState,
    /// Scheduler slices executed so far (including one that died with
    /// its worker).
    pub slices: u64,
    /// Hardware samples checkpointed so far.
    pub samples_done: u64,
    /// Cancellation request flag; honoured at the next slice boundary.
    pub cancel_requested: bool,
    /// The deterministic final report, once completed.
    pub report: Option<String>,
    /// Best aggregate cost, once completed.
    pub best_cost: Option<f64>,
    /// Terminal error message, once failed.
    pub error: Option<String>,
}

/// The status row `status`/`list` responses carry: everything about a
/// job except its report text.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Server-assigned identifier.
    pub id: JobId,
    /// Lifecycle state.
    pub state: JobState,
    /// Scheduler slices executed so far.
    pub slices: u64,
    /// Hardware samples checkpointed, out of `hw_samples`.
    pub samples_done: u64,
    /// Total hardware samples the spec asks for.
    pub hw_samples: u64,
    /// Best aggregate cost (completed jobs only).
    pub best_cost: Option<f64>,
    /// Terminal error message (failed jobs only).
    pub error: Option<String>,
}

impl Job {
    /// The status row describing this job right now.
    pub fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            state: self.state,
            slices: self.slices,
            samples_done: self.samples_done,
            hw_samples: self.spec.hw_samples as u64,
            best_cost: self.best_cost,
            error: self.error.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_round_trip_their_wire_names() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Corrupt,
        ] {
            assert_eq!(JobState::from_str_name(s.as_str()).unwrap(), s);
        }
        assert!(JobState::from_str_name("zombie").is_err());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Corrupt.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }
}
