//! The nested layerwise co-design driver (Section VI-A), with the
//! fault-tolerance machinery around it: per-layer panic isolation,
//! per-sample checkpoints, deadline cut-off, and checkpoint replay
//! (resume).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use spotlight_accel::{Budget, HardwareConfig};
use spotlight_conv::ConvLayer;
use spotlight_dabo::{Search, Trace};
use spotlight_eval::{EvalEngine, EvalStats, Fidelity, FidelityMode, FidelitySpec, RobustPolicy};
use spotlight_maestro::{CostReport, Objective};
use spotlight_models::{Model, ModelId};
use spotlight_obs::{Event, Observer, RunManifest};
use spotlight_space::{ParamRanges, Schedule};

use crate::hwsearch::build_hw_search;
use crate::pareto::{DesignPoint, ParetoFrontier};
use crate::swsearch::{optimize_schedule_observed_at, SwResult, SwSearchConfig};
use crate::variants::Variant;

/// Why a [`CodesignConfigBuilder`] refused to produce a configuration.
///
/// Each variant names a mistake that previously surfaced only as silent
/// downstream misbehavior (a zero-sample run "finding" nothing, a budget
/// no point in the parameter ranges can satisfy spinning through every
/// hardware sample without ever searching software).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `hw_samples` was zero — the run would evaluate no hardware.
    ZeroHwSamples,
    /// `sw_samples` was zero — every layer search would be empty.
    ZeroSwSamples,
    /// `threads` was zero — the layerwise search would have no workers.
    ZeroThreads,
    /// Even the smallest configuration in `ranges` violates `budget`:
    /// every proposal would be rejected before any software search.
    BudgetRangesMismatch {
        /// Area of the smallest in-range configuration.
        area_mm2: f64,
        /// The budget's area ceiling.
        max_area_mm2: f64,
        /// Peak power of the smallest in-range configuration.
        power_w: f64,
        /// The budget's power ceiling.
        max_power_w: f64,
    },
    /// The ranges describe no legal hardware configuration at all.
    InvalidRanges(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroHwSamples => write!(f, "hw_samples must be at least 1"),
            ConfigError::ZeroSwSamples => write!(f, "sw_samples must be at least 1"),
            ConfigError::ZeroThreads => write!(f, "threads must be at least 1"),
            ConfigError::BudgetRangesMismatch {
                area_mm2,
                max_area_mm2,
                power_w,
                max_power_w,
            } => write!(
                f,
                "budget admits no point in the parameter ranges: the smallest \
                 in-range configuration needs {area_mm2:.3} mm^2 / {power_w:.3} W \
                 against a budget of {max_area_mm2:.3} mm^2 / {max_power_w:.3} W"
            ),
            ConfigError::InvalidRanges(reason) => {
                write!(f, "parameter ranges describe no legal hardware: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a full co-design run.
///
/// Constructed exclusively through the validating builder —
/// [`CodesignConfig::edge`] or [`CodesignConfig::cloud`] — so an
/// instance that exists is known to describe a runnable search:
///
/// ```
/// use spotlight::codesign::CodesignConfig;
///
/// let config = CodesignConfig::edge()
///     .sw_samples(200)
///     .threads(4)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(config.sw_samples(), 200);
/// assert!(CodesignConfig::edge().hw_samples(0).build().is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CodesignConfig {
    pub(crate) hw_samples: usize,
    pub(crate) sw_samples: usize,
    pub(crate) objective: Objective,
    pub(crate) variant: Variant,
    pub(crate) seed: u64,
    pub(crate) ranges: ParamRanges,
    pub(crate) budget: Budget,
    pub(crate) threads: usize,
    pub(crate) deadline: Option<Duration>,
}

impl CodesignConfig {
    /// Builder seeded with the paper's edge-scale defaults: 100 hardware
    /// samples, 100 software samples per layer, EDP objective, the edge
    /// parameter ranges and budget, one worker thread.
    pub fn edge() -> CodesignConfigBuilder {
        CodesignConfigBuilder {
            hw_samples: 100,
            sw_samples: 100,
            objective: Objective::Edp,
            variant: Variant::Spotlight,
            seed: 0,
            ranges: ParamRanges::edge(),
            budget: Budget::edge(),
            threads: 1,
            deadline: None,
        }
    }

    /// Builder seeded with the cloud-scale defaults: identical except
    /// for the parameter ranges and budget ("the only change to
    /// Spotlight was to change the range of parameters").
    pub fn cloud() -> CodesignConfigBuilder {
        CodesignConfig::edge()
            .ranges(ParamRanges::cloud())
            .budget(Budget::cloud())
    }

    /// A builder pre-populated with this configuration's values, for
    /// deriving variations (re-validation happens at `build`).
    pub fn to_builder(self) -> CodesignConfigBuilder {
        CodesignConfigBuilder {
            hw_samples: self.hw_samples,
            sw_samples: self.sw_samples,
            objective: self.objective,
            variant: self.variant,
            seed: self.seed,
            ranges: self.ranges,
            budget: self.budget,
            threads: self.threads,
            deadline: self.deadline,
        }
    }

    /// Hardware configurations evaluated (paper default: 100).
    pub fn hw_samples(&self) -> usize {
        self.hw_samples
    }

    /// Software samples per layer per hardware configuration (paper
    /// default: 100).
    pub fn sw_samples(&self) -> usize {
        self.sw_samples
    }

    /// Metric to minimize.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Search machinery (Spotlight or an ablation variant).
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// RNG seed; every run is deterministic given the seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hardware parameter ranges (edge or cloud scale).
    pub fn ranges(&self) -> ParamRanges {
        self.ranges
    }

    /// Area/power envelope.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Worker threads for the layerwise software search. Results are
    /// bit-identical at any thread count: every layer search draws from
    /// its own RNG stream derived from `(seed, hw_sample, layer)`.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Wall-clock budget, if any. A run that reaches it stops proposing
    /// hardware and returns the best-so-far frontier as
    /// [`RunStatus::Degraded`].
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    fn sw_config(&self) -> SwSearchConfig {
        SwSearchConfig {
            samples: self.sw_samples,
            objective: self.objective,
            variant: self.variant,
        }
    }

    fn manifest(
        &self,
        backend: &str,
        faults: Option<String>,
        noise: Option<String>,
        robust: RobustPolicy,
        fidelity: Option<String>,
        models: &[Model],
    ) -> RunManifest {
        // The canonical names below are what `resume` parses back out of
        // the journal to rebuild this configuration; keep them stable.
        let objective = match self.objective {
            Objective::Delay => "delay",
            Objective::Edp => "edp",
        };
        let scale = if self.ranges == ParamRanges::edge() {
            "edge"
        } else if self.ranges == ParamRanges::cloud() {
            "cloud"
        } else {
            "custom"
        };
        RunManifest {
            seed: self.seed,
            variant: self.variant.to_string(),
            backend: backend.to_string(),
            ranges: format!("{:?}", self.ranges),
            budget: format!("{:?}", self.budget),
            hw_samples: self.hw_samples as u64,
            sw_samples: self.sw_samples as u64,
            threads: self.threads as u64,
            git: spotlight_obs::git_describe().to_string(),
            objective: objective.to_string(),
            scale: scale.to_string(),
            models: models
                .iter()
                .map(|m| m.id().as_str())
                .collect::<Vec<_>>()
                .join(","),
            faults: faults.unwrap_or_default(),
            noise: noise.unwrap_or_default(),
            replicates: robust.replicates as u64,
            robust_agg: robust.aggregation.as_str().to_string(),
            fidelity: fidelity.unwrap_or_default(),
        }
    }
}

/// Validating builder for [`CodesignConfig`]; see
/// [`CodesignConfig::edge`] / [`CodesignConfig::cloud`] for entry points.
#[derive(Debug, Clone, Copy)]
pub struct CodesignConfigBuilder {
    hw_samples: usize,
    sw_samples: usize,
    objective: Objective,
    variant: Variant,
    seed: u64,
    ranges: ParamRanges,
    budget: Budget,
    threads: usize,
    deadline: Option<Duration>,
}

impl CodesignConfigBuilder {
    /// Sets the number of hardware configurations to evaluate.
    pub fn hw_samples(mut self, hw_samples: usize) -> Self {
        self.hw_samples = hw_samples;
        self
    }

    /// Sets the software samples per layer per hardware configuration.
    pub fn sw_samples(mut self, sw_samples: usize) -> Self {
        self.sw_samples = sw_samples;
        self
    }

    /// Sets the metric to minimize.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the search machinery (Spotlight or an ablation variant).
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hardware parameter ranges.
    pub fn ranges(mut self, ranges: ParamRanges) -> Self {
        self.ranges = ranges;
        self
    }

    /// Sets the area/power envelope.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the worker-thread count for the layerwise software search.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets (or clears) the wall-clock budget for the run.
    pub fn deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Validates and produces the configuration. Zero sample or thread
    /// counts and budgets that no in-range configuration can satisfy are
    /// rejected with a typed [`ConfigError`].
    pub fn build(self) -> Result<CodesignConfig, ConfigError> {
        if self.hw_samples == 0 {
            return Err(ConfigError::ZeroHwSamples);
        }
        if self.sw_samples == 0 {
            return Err(ConfigError::ZeroSwSamples);
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        // The cheapest point of the search space: every parameter at its
        // range minimum. If even that violates the budget, no sample can
        // ever be admitted and the run would be a guaranteed no-op.
        let minimal = HardwareConfig::new(
            self.ranges.pes.0,
            self.ranges.pes.0,
            self.ranges.simd_lanes.0,
            self.ranges.rf_kib.0,
            self.ranges.l2_kib.0,
            self.ranges.noc_bandwidth.0,
        )
        .map_err(|e| ConfigError::InvalidRanges(e.to_string()))?;
        if !self.budget.admits(&minimal) {
            return Err(ConfigError::BudgetRangesMismatch {
                area_mm2: self.budget.area_mm2(&minimal),
                max_area_mm2: self.budget.max_area_mm2,
                power_w: self.budget.peak_power_w(&minimal),
                max_power_w: self.budget.max_power_w,
            });
        }
        Ok(CodesignConfig {
            hw_samples: self.hw_samples,
            sw_samples: self.sw_samples,
            objective: self.objective,
            variant: self.variant,
            seed: self.seed,
            ranges: self.ranges,
            budget: self.budget,
            threads: self.threads,
            deadline: self.deadline,
        })
    }
}

/// The optimized schedule found for one unique layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// The layer shape.
    pub layer: ConvLayer,
    /// Multiplicity in the model.
    pub count: u32,
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its cost report.
    pub report: CostReport,
}

/// One model's optimized execution on a fixed accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPlan {
    /// Owned model identifier (user-defined models included).
    pub model_name: ModelId,
    /// Per-unique-layer plans.
    pub layers: Vec<LayerPlan>,
    /// Total delay in cycles, weighted by layer multiplicity.
    pub total_delay: f64,
    /// Total energy in nJ, weighted by layer multiplicity.
    pub total_energy: f64,
}

impl ModelPlan {
    /// Aggregate objective value: summed delay, or summed-delay x
    /// summed-energy for EDP ("the layerwise energies and delays are then
    /// summed", Section VI-A).
    pub fn objective_value(&self, obj: Objective) -> f64 {
        match obj {
            Objective::Delay => self.total_delay,
            Objective::Edp => self.total_delay * self.total_energy,
        }
    }
}

/// How a co-design run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every requested hardware sample ran and the failure machinery
    /// never engaged.
    Complete,
    /// The run finished, but lost something along the way: quarantined
    /// evaluation points, layers abandoned after repeated worker panics,
    /// or a deadline that cut the search short. The result is still the
    /// best over everything that did run.
    Degraded,
}

impl RunStatus {
    /// The canonical lowercase name journaled in `run_finished` events.
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Complete => "complete",
            RunStatus::Degraded => "degraded",
        }
    }

    /// Whether the run degraded.
    pub fn is_degraded(self) -> bool {
        self == RunStatus::Degraded
    }
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed hardware sample as recovered from a journal's
/// `checkpoint` events — everything [`Spotlight::resume`] needs to
/// replay the sample without re-running its software search.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCheckpoint {
    /// Whether the budget admitted the sample.
    pub admitted: bool,
    /// Aggregate objective of the sample (infinite when rejected or
    /// infeasible).
    pub cost: f64,
    /// Total delay in cycles across models.
    pub delay_cycles: f64,
    /// Total energy in nJ across models.
    pub energy_nj: f64,
    /// Cumulative logical evaluations after the sample.
    pub evaluations: u64,
    /// Cumulative software searches after the sample.
    pub sw_searches: u64,
    /// Cumulative infeasible proposals after the sample.
    pub infeasible: u64,
    /// Cumulative quarantined evaluations after the sample.
    pub quarantined: u64,
    /// Cumulative failed layers after the sample.
    pub failed_layers: u64,
    /// Cumulative outlier-rejected replicates after the sample.
    pub outliers_rejected: u64,
    /// The hardware searcher RNG's word position after the sample's
    /// `suggest`, for drift detection on replay.
    pub rng_word_pos: u64,
    /// Per-rung costs this sample observed climbing the fidelity
    /// ladder, cheapest rung first. Empty for full-fidelity runs. When
    /// the sample reached the full rung the last entry is the exact
    /// cost; otherwise the sample was demoted after its last entry.
    pub rung_costs: Vec<f64>,
}

impl SampleCheckpoint {
    /// Decodes a journal `checkpoint` event (the f64 bit patterns
    /// included); `None` for any other event kind. Malformed rung words
    /// decode to no entries, and replay refuses a rung list longer than
    /// the configured ladder ([`ResumeError::TooManyRungs`]), so a
    /// hand-edited journal is replayed or refused instead of panicking.
    pub fn from_event(event: &Event) -> Option<SampleCheckpoint> {
        match event {
            Event::Checkpoint {
                admitted,
                cost_bits,
                delay_bits,
                energy_bits,
                evaluations,
                sw_searches,
                infeasible,
                quarantined,
                failed_layers,
                outliers_rejected,
                rng_word_pos,
                rungs,
            } => Some(SampleCheckpoint {
                admitted: *admitted,
                cost: f64::from_bits(*cost_bits),
                delay_cycles: f64::from_bits(*delay_bits),
                energy_nj: f64::from_bits(*energy_bits),
                evaluations: *evaluations,
                sw_searches: *sw_searches,
                infeasible: *infeasible,
                quarantined: *quarantined,
                failed_layers: *failed_layers,
                outliers_rejected: *outliers_rejected,
                rng_word_pos: *rng_word_pos,
                rung_costs: rungs
                    .split(':')
                    .filter_map(|w| w.parse().ok())
                    .map(f64::from_bits)
                    .collect(),
            }),
            _ => None,
        }
    }

    /// Encodes the checkpoint as the journal event [`Self::from_event`]
    /// decodes. Metrics travel as f64 bit patterns for an exact round-trip,
    /// infinities included; rung costs as `:`-joined bit patterns, cheapest
    /// first. Without a ladder the list is empty and the field is omitted
    /// from the journal line, as in pre-fidelity journals.
    pub(crate) fn to_event(&self) -> Event {
        Event::Checkpoint {
            admitted: self.admitted,
            cost_bits: self.cost.to_bits(),
            delay_bits: self.delay_cycles.to_bits(),
            energy_bits: self.energy_nj.to_bits(),
            evaluations: self.evaluations,
            sw_searches: self.sw_searches,
            infeasible: self.infeasible,
            quarantined: self.quarantined,
            failed_layers: self.failed_layers,
            outliers_rejected: self.outliers_rejected,
            rng_word_pos: self.rng_word_pos,
            rungs: self
                .rung_costs
                .iter()
                .map(|c| c.to_bits().to_string())
                .collect::<Vec<_>>()
                .join(":"),
        }
    }
}

/// Why [`Spotlight::resume`] refused to replay a checkpoint prefix.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The journal holds more checkpoints than the configured
    /// `hw_samples` — it came from a different configuration.
    TooManyCheckpoints {
        /// Checkpoints found in the journal.
        checkpoints: usize,
        /// Hardware samples the configuration asks for.
        hw_samples: usize,
    },
    /// Replaying the seeded searcher diverged from the recorded RNG
    /// word position — the journal was written by different code, a
    /// different configuration, or a different seed.
    RngDrift {
        /// Zero-based hardware-sample index where replay diverged.
        sample: usize,
        /// Word position the checkpoint recorded.
        expected: u64,
        /// Word position the replay reached.
        actual: u64,
    },
    /// A checkpoint lists more rung costs than the configured ladder has
    /// rungs (none without a ladder): another ladder, or an edited journal.
    TooManyRungs {
        /// Zero-based hardware-sample index of the checkpoint.
        sample: usize,
        /// Rung costs the checkpoint records.
        rungs: usize,
        /// Rungs the configured ladder has; 0 without a ladder.
        configured: usize,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::TooManyCheckpoints {
                checkpoints,
                hw_samples,
            } => write!(
                f,
                "journal has {checkpoints} checkpoints but the configuration \
                 runs only {hw_samples} hardware samples"
            ),
            ResumeError::RngDrift {
                sample,
                expected,
                actual,
            } => write!(
                f,
                "replay diverged at hardware sample {sample}: checkpoint \
                 recorded RNG word position {expected}, replay reached {actual}"
            ),
            ResumeError::TooManyRungs {
                sample,
                rungs,
                configured,
            } => write!(
                f,
                "checkpoint for hardware sample {sample} records {rungs} fidelity \
                 rungs but the configured ladder has {configured}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// The outcome of a co-design run.
#[derive(Debug, Clone)]
pub struct CodesignOutcome {
    /// Best hardware configuration found (None only if every sample was
    /// infeasible on every layer).
    pub best_hw: Option<HardwareConfig>,
    /// Per-model plans on the best hardware.
    pub best_plans: Vec<ModelPlan>,
    /// Aggregate objective of the best configuration.
    pub best_cost: f64,
    /// Aggregate cost of every hardware sample in evaluation order
    /// (drives the Figure 11 CDFs).
    pub hw_history: Vec<f64>,
    /// Best-so-far trace over hardware samples (Figure 10's y-axis).
    pub trace: Trace,
    /// Total cost-model evaluations spent (Figure 10's x-axis analogue).
    pub evaluations: u64,
    /// `(cumulative evaluations, best-so-far)` pairs, one per hardware
    /// sample.
    pub eval_trace: Vec<(u64, f64)>,
    /// Delay/energy/area Pareto frontier over the evaluated hardware
    /// samples (Section VI-B's selection pool).
    pub frontier: ParetoFrontier,
    /// Engine counter snapshot for this run: cache hits/misses,
    /// infeasible proposals, software searches, per-phase wall time.
    pub stats: EvalStats,
    /// Whether the run completed cleanly or degraded (quarantined
    /// points, failed layers, or a deadline cut).
    pub status: RunStatus,
}

/// The result of one bounded slice of a run (see
/// [`Spotlight::run_slice`]).
#[derive(Debug)]
pub enum SliceOutcome {
    /// The run reached its final hardware sample (or its deadline) and
    /// produced the complete outcome, epilogue journaled.
    Finished(Box<CodesignOutcome>),
    /// The slice's live-sample budget ran out first. The journal ends at
    /// the checkpoint for sample `completed - 1`; recover its
    /// checkpoints and pass them as `replay` to continue.
    Paused {
        /// Hardware samples checkpointed so far (replayed + live).
        completed: usize,
    },
}

/// What evaluating one hardware sample produced, before checkpointing.
struct SampleResult {
    /// Final cost: exact when `plans` is `Some`, otherwise the last cheap
    /// estimate of a demoted sample, or infinity for a rejected one.
    cost: f64,
    /// Total delay and energy across models; infinite without `plans`.
    delay_cycles: f64,
    energy_nj: f64,
    /// Exact per-model plans; `Some` only when the sample reached the
    /// full rung.
    plans: Option<Vec<ModelPlan>>,
    /// Cost observed at each rung climbed, cheapest first; empty without
    /// a fidelity ladder.
    rung_costs: Vec<f64>,
}

impl SampleResult {
    /// The exact result of `plans`, costed by their aggregate objective
    /// (infinite when any model has an infeasible layer).
    fn exact(plans: Vec<ModelPlan>, objective: Objective) -> SampleResult {
        SampleResult {
            cost: plans.iter().map(|p| p.objective_value(objective)).sum(),
            delay_cycles: plans.iter().map(|p| p.total_delay).sum(),
            energy_nj: plans.iter().map(|p| p.total_energy).sum(),
            plans: Some(plans),
            rung_costs: Vec::new(),
        }
    }

    /// A cost with no realizable design behind it.
    fn estimate(cost: f64) -> SampleResult {
        SampleResult {
            cost,
            delay_cycles: f64::INFINITY,
            energy_nj: f64::INFINITY,
            plans: None,
            rung_costs: Vec::new(),
        }
    }
}

/// The co-design loop's state between hardware samples. Replayed and
/// live samples alike advance it through [`LoopState::observe`], so a
/// resumed run rebuilds exactly the state the killed run had reached.
struct LoopState {
    hw_search: Box<dyn Search<HardwareConfig>>,
    fidelity: Option<FidelitySpec>,
    budget: Budget,
    frontier: ParetoFrontier,
    /// The winning sample's hardware, its plans when it ran live (a
    /// replayed winner's are recomputed once at the end, off the books),
    /// its cost and its stream index.
    best: Option<(HardwareConfig, Option<Vec<ModelPlan>>, f64, u64)>,
    /// Per-rung cost histories for the successive-halving ladder, one
    /// per cheap rung, that promotion ranks each new sample against.
    rung_histories: Vec<Vec<f64>>,
    eval_trace: Vec<(u64, f64)>,
}

impl LoopState {
    /// The per-sample transition: folds checkpoint `cp` of sample `sample`,
    /// proposed as `hw`, into the frontier, the best design (with `plans`
    /// when it ran live), the rung histories, the hardware surrogate and
    /// the eval trace. Returns whether the sample joined the frontier and
    /// whether it became the best.
    fn observe(
        &mut self,
        sample: usize,
        hw: HardwareConfig,
        cp: &SampleCheckpoint,
        plans: Option<Vec<ModelPlan>>,
    ) -> Result<(bool, bool), ResumeError> {
        let rungs = self.fidelity.as_ref().map_or(0, |spec| spec.rungs as usize);
        if cp.rung_costs.len() > rungs {
            return Err(ResumeError::TooManyRungs {
                sample,
                rungs: cp.rung_costs.len(),
                configured: rungs,
            });
        }
        // Infeasible samples (any layer without a feasible schedule),
        // rejected and demoted samples carry non-finite metrics and must
        // not join the frontier of realizable designs.
        let grew = cp.admitted
            && cp.delay_cycles.is_finite()
            && cp.energy_nj.is_finite()
            && self.frontier.insert(DesignPoint {
                hw,
                delay_cycles: cp.delay_cycles,
                energy_nj: cp.energy_nj,
                area_mm2: self.budget.area_mm2(&hw),
            });
        // A demoted sample's checkpoint carries its (finite) cheap
        // estimate for the surrogate, but only a sample that reached the
        // full rung may become the best.
        let reached_full = cp.rung_costs.is_empty() || cp.rung_costs.len() == rungs;
        let improved = reached_full
            && cp.cost.is_finite()
            && self.best.as_ref().is_none_or(|(_, _, b, _)| cp.cost < *b);
        if improved {
            self.best = Some((hw, plans, cp.cost, sample as u64));
        }
        // Every cheap rung the sample was ranked at records its cost.
        // There is one history per cheap rung, so the full rung's cost,
        // the last entry of a sample that reached it, is left out.
        for (history, cost) in self.rung_histories.iter_mut().zip(&cp.rung_costs) {
            history.push(*cost);
        }
        // A demoted sample's cheap estimate reaches the hardware
        // surrogate with its rung's calibrated variance inflation, so the
        // searcher trusts it less — never equally, never not at all (the
        // PRIME lesson).
        match &self.fidelity {
            Some(spec) if !reached_full => {
                let inflation = spec.variance_inflation((cp.rung_costs.len() - 1) as u8);
                self.hw_search.observe_noisy(hw, cp.cost, inflation);
            }
            _ => self.hw_search.observe(hw, cp.cost),
        }
        let best_so_far = self.best.as_ref().map_or(f64::INFINITY, |(_, _, c, _)| *c);
        self.eval_trace.push((cp.evaluations, best_so_far));
        Ok((grew, improved))
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the RNG seed for one layer's software search from the run
/// seed, the hardware-sample stream, and the layer's ordinal within the
/// flattened `(model, layer)` work list. Each search therefore owns an
/// independent ChaCha8 stream, which is what makes the parallel
/// layerwise search bit-reproducible at any thread count.
pub fn layer_stream_seed(seed: u64, stream: u64, layer_ordinal: u64) -> u64 {
    let z = mix64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let z = mix64(z.wrapping_add(stream));
    mix64(z.wrapping_add(layer_ordinal))
}

/// The Spotlight co-design tool (Figure 5): accepts a hardware budget and
/// a set of DL models, performs the nested daBO_HW x daBO_SW search, and
/// produces optimized microarchitecture parameters plus per-layer
/// software schedules.
#[derive(Debug)]
pub struct Spotlight {
    config: CodesignConfig,
    engine: EvalEngine,
    observer: Observer,
}

impl Spotlight {
    /// Creates the tool with the default analytical evaluation engine.
    pub fn new(config: CodesignConfig) -> Self {
        Spotlight::with_engine(config, EvalEngine::default())
    }

    /// Creates the tool around an arbitrary evaluation engine (any
    /// backend, cache on or off).
    pub fn with_engine(config: CodesignConfig, engine: EvalEngine) -> Self {
        Spotlight {
            config,
            engine,
            observer: Observer::null(),
        }
    }

    /// Attaches an observer; every search event flows into its sink. The
    /// default is the disabled observer, which costs one branch per
    /// would-be event.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CodesignConfig {
        &self.config
    }

    /// The evaluation engine in use.
    pub fn engine(&self) -> &EvalEngine {
        &self.engine
    }

    /// The observer in use.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Optimizes software schedules for every unique layer of `models` on
    /// a fixed accelerator, returning per-model plans and the number of
    /// cost-model evaluations spent. This is daBO_SW alone — used for the
    /// inner loop, for evaluating hand-designed accelerators fairly, and
    /// for the generalization scenario.
    ///
    /// `stream` labels the RNG stream (the hardware-sample index inside
    /// [`Spotlight::codesign`]); every layer search seeds its own ChaCha8
    /// stream via [`layer_stream_seed`], so results are bit-identical at
    /// any `config.threads` count.
    ///
    /// Up to `config.threads` workers claim layers one at a time from a
    /// shared list; at one thread the caller is the only worker. Every
    /// layer is always searched, so the evaluation counters and the
    /// observer's event stream never depend on which worker ran which
    /// layer. Observer events from workers buffer locally and merge in
    /// layer-ordinal order once every layer is done, so the journal is
    /// thread-invariant too.
    pub fn optimize_software(
        &self,
        hw: &HardwareConfig,
        models: &[Model],
        stream: u64,
    ) -> (Vec<ModelPlan>, u64) {
        self.optimize_software_with(&self.observer, hw, models, stream, Fidelity::Full)
    }

    /// [`Spotlight::optimize_software`] against an explicit base
    /// observer and at an explicit fidelity (a replicate or backend
    /// ladder's rung); resume's best-plan recomputation passes the null
    /// observer so the replayed sample's events are not journaled twice.
    fn optimize_software_with(
        &self,
        base_observer: &Observer,
        hw: &HardwareConfig,
        models: &[Model],
        stream: u64,
        fidelity: Fidelity,
    ) -> (Vec<ModelPlan>, u64) {
        // Flatten the per-model layer lists into one indexed work list.
        let items: Vec<&spotlight_models::LayerEntry> =
            models.iter().flat_map(|m| m.layers().iter()).collect();
        let ordinals: Vec<usize> = (0..items.len()).collect();
        let results =
            self.optimize_layer_set(base_observer, hw, &items, &ordinals, stream, fidelity);
        let evals = results.iter().map(|r| r.evaluations).sum();
        (self.assemble_plans(models, results.into_iter()), evals)
    }

    /// Runs the per-layer software search for the given layer `ordinals`
    /// (indices into the flattened `(model, layer)` work list `items`)
    /// at one evaluation fidelity, through one work-claiming worker pool
    /// per call: each layer's RNG stream is keyed by its ordinal, so
    /// results and the journaled event stream are identical at any
    /// thread count and for any subset. Results come back in `ordinals`
    /// order.
    #[allow(clippy::too_many_arguments)]
    fn optimize_layer_set(
        &self,
        base_observer: &Observer,
        hw: &HardwareConfig,
        items: &[&spotlight_models::LayerEntry],
        ordinals: &[usize],
        stream: u64,
        fidelity: Fidelity,
    ) -> Vec<SwResult> {
        let sw_cfg = self.config.sw_config();
        let threads = self.config.threads.max(1);
        let observer = base_observer.with_hw_sample(stream);

        let run_item = |ordinal: usize| {
            let (obs, buffer) = observer.with_layer(ordinal as u64).buffered();
            let seed = layer_stream_seed(self.config.seed, stream, ordinal as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let result = optimize_schedule_observed_at(
                &self.engine,
                hw,
                &items[ordinal].layer,
                &sw_cfg,
                fidelity,
                &mut rng,
                &obs,
            );
            (result, buffer)
        };
        // A panicking worker must fail one layer, not the run. The
        // worker's partial event buffer drops with the panic payload, so
        // a retry's buffer never duplicates events. The payload itself is
        // discarded: the injected-fault message already reaches stderr
        // through the default panic hook.
        let run_guarded =
            |ordinal: usize| catch_unwind(AssertUnwindSafe(|| run_item(ordinal))).ok();

        // One pool per call: workers claim layers from a shared cursor
        // until the list runs out, so no worker waits on another's
        // slowest layer. Each result lands in its own slot; a slot left
        // empty marks a panicked layer.
        let slots: Vec<OnceLock<_>> = ordinals.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let work = || loop {
            // Relaxed: the cursor only hands out indices; results publish
            // through the slots and the scope's join.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&ordinal) = ordinals.get(i) else {
                break;
            };
            if let Some(done) = run_guarded(ordinal) {
                let _ = slots[i].set(done);
            }
        };
        // At one thread the caller runs the loop itself. Otherwise it only
        // waits: on the process's main thread the caller allocates from
        // glibc's main arena, which spawned workers also end up drawing
        // from, and a caller searching layers beside them made the
        // allocation-heavy candidate sampler contend on that arena's lock.
        if threads == 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads.min(ordinals.len()) {
                    scope.spawn(work);
                }
            });
        }

        let mut results: Vec<SwResult> = Vec::with_capacity(ordinals.len());
        for (&ordinal, slot) in ordinals.iter().zip(slots) {
            // Retries run inline after the pool joins, in ordinal order,
            // so the merged event stream stays thread-invariant under a
            // deterministic fault plan.
            let (r, buffer) = match slot.into_inner() {
                Some(done) => done,
                None => {
                    let layer_obs = observer.with_layer(ordinal as u64);
                    layer_obs.emit_with(|| Event::WorkerPanic { retrying: true });
                    match run_guarded(ordinal) {
                        Some(done) => done,
                        None => {
                            layer_obs.emit_with(|| Event::WorkerPanic { retrying: false });
                            self.engine.count_failed_layer();
                            let failed = SwResult {
                                best: None,
                                trace: Trace::from_costs(&[]),
                                evaluations: 0,
                            };
                            (failed, None)
                        }
                    }
                }
            };
            if let Some(buffer) = buffer {
                observer.forward(&buffer);
            }
            results.push(r);
        }
        results
    }

    /// Reassembles per-model plans from per-layer results in work-list
    /// order. A model with an infeasible layer aggregates to infinity.
    fn assemble_plans(
        &self,
        models: &[Model],
        mut cursor: impl Iterator<Item = SwResult>,
    ) -> Vec<ModelPlan> {
        let mut plans = Vec::with_capacity(models.len());
        for model in models {
            let mut layers = Vec::with_capacity(model.layers().len());
            let mut total_delay = 0.0;
            let mut total_energy = 0.0;
            for entry in model.layers() {
                let r = cursor.next().expect("one result slot per layer");
                match r.best {
                    Some((schedule, report)) => {
                        total_delay += report.delay_cycles * entry.count as f64;
                        total_energy += report.energy_nj * entry.count as f64;
                        layers.push(LayerPlan {
                            layer: entry.layer,
                            count: entry.count,
                            schedule,
                            report,
                        });
                    }
                    None => {
                        total_delay = f64::INFINITY;
                        total_energy = f64::INFINITY;
                    }
                }
            }
            plans.push(ModelPlan {
                model_name: model.id().clone(),
                layers,
                total_delay,
                total_energy,
            });
        }
        plans
    }

    /// Runs one admitted hardware sample's software search, reporting
    /// to `observer`: the plain nested search, or with a fidelity ladder
    /// a successive-halving climb. The climb evaluates at the cheapest
    /// rung and promotes only while the sample's cost ranks inside the
    /// top `ceil(n / eta)` of its rung's `histories` plus itself. Only a
    /// sample that reaches the full rung produces exact plans; a demoted
    /// one returns its last cheap estimate for the surrogate. The
    /// histories are read, not extended: [`LoopState::observe`] records
    /// every sample's rung costs. The climb is sequential in
    /// hardware-sample order and the per-layer searches are deterministic
    /// per layer ordinal, so promotions are identical at any thread count.
    fn search_sample(
        &self,
        fidelity: Option<&FidelitySpec>,
        models: &[Model],
        hw: &HardwareConfig,
        stream: u64,
        histories: &[Vec<f64>],
        observer: &Observer,
    ) -> SampleResult {
        let Some(spec) = fidelity else {
            let (plans, _) =
                self.optimize_software_with(observer, hw, models, stream, Fidelity::Full);
            return SampleResult::exact(plans, self.config.objective);
        };
        let sample_obs = observer.with_hw_sample(stream);
        let items: Vec<&spotlight_models::LayerEntry> =
            models.iter().flat_map(|m| m.layers().iter()).collect();
        let full_rung = spec.full_rung();
        // Proxy mode accumulates per-layer results across rungs: the
        // layer subsets are nested, so a promoted sample only searches
        // the layers the next rung adds.
        let mut done: Vec<Option<SwResult>> = vec![None; items.len()];
        let mut rung_costs = Vec::with_capacity(spec.rungs as usize);
        for rung in 0..=full_rung {
            let result = match spec.mode {
                FidelityMode::Proxy => self.evaluate_proxy_rung(
                    spec, models, &items, rung, hw, stream, observer, &mut done,
                ),
                FidelityMode::Replicate | FidelityMode::Backend => {
                    let fidelity = spec.fidelity_for(rung);
                    let (plans, _) =
                        self.optimize_software_with(observer, hw, models, stream, fidelity);
                    SampleResult::exact(plans, self.config.objective)
                }
            };
            let cost = result.cost;
            rung_costs.push(cost);
            if rung == full_rung {
                return SampleResult {
                    rung_costs,
                    ..result
                };
            }
            // Rank among everything this rung has seen, self included;
            // ties break toward promotion, which is order-independent
            // and therefore deterministic. `ceil(n / eta)` lets the
            // first sample through, bootstrapping the ladder.
            let hist = &histories[rung as usize];
            let rank = hist.iter().filter(|c| **c < cost).count() + 1;
            let promote = cost.is_finite() && rank <= spec.promote_quota(hist.len() + 1);
            if promote {
                sample_obs.emit_with(|| Event::RungPromoted {
                    rung: (rung + 1) as u64,
                    cost,
                });
            } else {
                sample_obs.emit_with(|| Event::RungDemoted {
                    rung: rung as u64,
                    cost,
                });
                return SampleResult {
                    rung_costs,
                    ..SampleResult::estimate(cost)
                };
            }
        }
        unreachable!("the full rung returns from inside the loop")
    }

    /// Evaluates one proxy rung, reporting to `observer`: searches the
    /// layers in this rung's nested subset (reusing results from cheaper
    /// rungs via `done`), all at full per-triple fidelity, and
    /// extrapolates each model's delay/energy by its MACs coverage ratio.
    /// The full rung covers every layer, so its result is exactly the
    /// full-fidelity answer.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_proxy_rung(
        &self,
        spec: &FidelitySpec,
        models: &[Model],
        items: &[&spotlight_models::LayerEntry],
        rung: u8,
        hw: &HardwareConfig,
        stream: u64,
        observer: &Observer,
        done: &mut [Option<SwResult>],
    ) -> SampleResult {
        let subset: Vec<usize> = if rung == spec.full_rung() {
            (0..items.len()).collect()
        } else {
            self.proxy_subset(spec, models, rung)
        };
        let missing: Vec<usize> = subset
            .iter()
            .copied()
            .filter(|&o| done[o].is_none())
            .collect();
        let results =
            self.optimize_layer_set(observer, hw, items, &missing, stream, Fidelity::Full);
        for (&ordinal, result) in missing.iter().zip(results) {
            done[ordinal] = Some(result);
        }
        if rung == spec.full_rung() {
            // Exact: assemble the plans the no-ladder path would have
            // produced (same per-layer seeds, same engine semantics).
            let plans = self.assemble_plans(
                models,
                done.iter_mut()
                    .map(|slot| slot.take().expect("full rung covers every layer")),
            );
            return SampleResult::exact(plans, self.config.objective);
        }
        // Cheap estimate: per-model partial sums over the subset, scaled
        // by the model's MACs coverage; a model whose covered layers
        // include an infeasible one estimates to infinity.
        let mut cost = 0.0;
        let mut ordinal = 0;
        for model in models {
            let mut covered_delay = 0.0;
            let mut covered_energy = 0.0;
            let mut covered_macs = 0.0;
            let mut total_macs = 0.0;
            let mut feasible = true;
            for entry in model.layers() {
                let weight = entry.layer.macs() as f64 * entry.count as f64;
                total_macs += weight;
                if let Some(result) = &done[ordinal] {
                    match &result.best {
                        Some((_, report)) => {
                            covered_delay += report.delay_cycles * entry.count as f64;
                            covered_energy += report.energy_nj * entry.count as f64;
                            covered_macs += weight;
                        }
                        None => feasible = false,
                    }
                }
                ordinal += 1;
            }
            if !feasible || covered_macs == 0.0 {
                cost = f64::INFINITY;
                continue;
            }
            let scale = total_macs / covered_macs;
            let est = ModelPlan {
                model_name: model.id().clone(),
                layers: Vec::new(),
                total_delay: covered_delay * scale,
                total_energy: covered_energy * scale,
            };
            cost += est.objective_value(self.config.objective);
        }
        SampleResult::estimate(cost)
    }

    /// The layer ordinals a proxy rung evaluates: per model, the minimal
    /// prefix of a seed-keyed layer permutation whose cumulative MACs
    /// reach the rung's cost fraction (at least one layer per model).
    /// The permutation depends only on the run seed, so subsets are
    /// identical for every hardware sample (estimates stay comparable)
    /// and nested across rungs (promotion only adds layers).
    fn proxy_subset(&self, spec: &FidelitySpec, models: &[Model], rung: u8) -> Vec<usize> {
        let fraction = spec.fraction_at(rung);
        let key_base = mix64(self.config.seed ^ 0x0070_726f_7879); // "proxy"
        let mut subset = Vec::new();
        let mut base_ordinal = 0;
        for model in models {
            let entries = model.layers();
            let mut order: Vec<usize> = (0..entries.len()).collect();
            order.sort_by_key(|&i| (mix64(key_base.wrapping_add((base_ordinal + i) as u64)), i));
            let total: f64 = entries
                .iter()
                .map(|e| e.layer.macs() as f64 * e.count as f64)
                .sum();
            let mut cum = 0.0;
            for (taken, &i) in order.iter().enumerate() {
                let e = &entries[i];
                cum += e.layer.macs() as f64 * e.count as f64;
                subset.push(base_ordinal + i);
                if taken + 1 == entries.len() || cum >= fraction * total {
                    break;
                }
            }
            base_ordinal += entries.len();
        }
        subset.sort_unstable();
        subset
    }

    /// Runs the full nested co-design of Section VI-A over `models`.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn codesign(&self, models: &[Model]) -> CodesignOutcome {
        self.resume(models, &[])
            .expect("a fresh run replays nothing and cannot fail to resume")
    }

    /// Continues a killed run from the checkpoints recovered out of its
    /// journal. The `replay` prefix is not re-searched: the seeded
    /// hardware searcher re-draws the same proposals (verified against
    /// each checkpoint's recorded RNG word position) and observes the
    /// recorded costs, then the remaining samples run live. Given the
    /// same seed and configuration, the final outcome is identical to an
    /// uninterrupted run's.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn resume(
        &self,
        models: &[Model],
        replay: &[SampleCheckpoint],
    ) -> Result<CodesignOutcome, ResumeError> {
        match self.run_slice(models, replay, None)? {
            SliceOutcome::Finished(outcome) => Ok(*outcome),
            SliceOutcome::Paused { .. } => {
                unreachable!("an unbounded slice always runs to completion")
            }
        }
    }

    /// Runs at most `live_budget` live hardware samples past the replayed
    /// prefix, then pauses at the sample-boundary checkpoint. `None`
    /// means unbounded — identical to [`Spotlight::codesign`] /
    /// [`Spotlight::resume`].
    ///
    /// Every hardware sample takes one step: propose, evaluate (live) or
    /// take the recorded checkpoint (replay), observe, and — live only —
    /// journal the checkpoint. Replayed and live samples share the
    /// observe transition, so replay rebuilds the exact loop state.
    ///
    /// A paused slice leaves the journal flushed through its last
    /// [`Event::Checkpoint`] and emits no `phase_timing` or
    /// `run_finished` record, so the journal is exactly what a killed
    /// run would have left behind: the next slice recovers the
    /// checkpoints and continues via the same replay path as
    /// [`Spotlight::resume`]. Preemption is therefore just an early,
    /// voluntary kill — the final outcome is byte-identical to an
    /// uninterrupted run at any slicing.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn run_slice(
        &self,
        models: &[Model],
        replay: &[SampleCheckpoint],
        live_budget: Option<usize>,
    ) -> Result<SliceOutcome, ResumeError> {
        assert!(!models.is_empty(), "co-design needs at least one model");
        if replay.len() > self.config.hw_samples {
            return Err(ResumeError::TooManyCheckpoints {
                checkpoints: replay.len(),
                hw_samples: self.config.hw_samples,
            });
        }
        // Counters describe exactly this run; the memo cache survives
        // across runs on the same engine.
        self.engine.reset_stats();
        let run_start = std::time::Instant::now();
        // Mirror the wall-clock deadline into the engine so retry
        // backoff pauses give up instead of sleeping past it. `None`
        // clears any deadline a previous run left behind.
        self.engine
            .set_deadline(self.config.deadline.map(|d| run_start + d));
        // A resumed run appends to a journal that already carries the
        // original run's manifest.
        if replay.is_empty() {
            self.observer.emit_with(|| Event::RunStarted {
                manifest: Box::new(self.config.manifest(
                    self.engine.backend_name(),
                    self.engine.faults(),
                    self.engine.noise(),
                    self.engine.robust_policy(),
                    self.engine.fidelity(),
                    models,
                )),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let fidelity = self.engine.fidelity_spec().cloned();
        let cheap_rungs = fidelity
            .as_ref()
            .map_or(0, |spec| spec.full_rung() as usize);
        let mut state = LoopState {
            hw_search: build_hw_search(self.config.variant, self.config.ranges, self.config.budget),
            rung_histories: vec![Vec::new(); cheap_rungs],
            fidelity,
            budget: self.config.budget,
            frontier: ParetoFrontier::new(),
            best: None,
            eval_trace: Vec::with_capacity(self.config.hw_samples),
        };

        for (sample, cp) in replay.iter().enumerate() {
            let hw = state.hw_search.suggest(&mut rng);
            let actual = rng.word_pos();
            if actual != cp.rng_word_pos {
                return Err(ResumeError::RngDrift {
                    sample,
                    expected: cp.rng_word_pos,
                    actual,
                });
            }
            state.observe(sample, hw, cp, None)?;
        }
        if let Some(last) = replay.last() {
            self.engine.restore_logical_counters(
                last.evaluations,
                last.sw_searches,
                last.infeasible,
                last.quarantined,
                last.failed_layers,
                last.outliers_rejected,
            );
        }

        let mut deadline_hit = false;
        for hw_sample in replay.len()..self.config.hw_samples {
            // Live samples completed this slice; the checkpoint at the
            // bottom of the loop makes every iteration count.
            let live_done = hw_sample - replay.len();
            if live_budget.is_some_and(|budget| live_done >= budget) {
                // Slice budget spent with samples still to go: stop at
                // the checkpoint boundary without writing the run's
                // epilogue, leaving a journal indistinguishable from a
                // kill at this exact point.
                return Ok(SliceOutcome::Paused {
                    completed: hw_sample,
                });
            }
            if self
                .config
                .deadline
                .is_some_and(|d| run_start.elapsed() >= d)
            {
                // Out of wall-clock budget: stop proposing hardware and
                // report the best-so-far frontier as a degraded run.
                deadline_hit = true;
                break;
            }
            let sample_obs = self.observer.with_hw_sample(hw_sample as u64);
            let hw = self
                .engine
                .time_phase("hw_search", || state.hw_search.suggest(&mut rng));
            let admitted = self.config.budget.admits(&hw);
            sample_obs.emit_with(|| Event::HwProposed {
                hw: hw.to_string(),
                admitted,
            });
            let result = if admitted {
                self.engine.time_phase("sw_search", || {
                    self.search_sample(
                        state.fidelity.as_ref(),
                        models,
                        &hw,
                        hw_sample as u64,
                        &state.rung_histories,
                        &self.observer,
                    )
                })
            } else {
                // Out-of-budget configurations are rejected without
                // spending the software budget.
                SampleResult::estimate(f64::INFINITY)
            };
            let s = self.engine.stats();
            let checkpoint = SampleCheckpoint {
                admitted,
                cost: result.cost,
                delay_cycles: result.delay_cycles,
                energy_nj: result.energy_nj,
                evaluations: s.evaluations,
                sw_searches: s.sw_searches,
                infeasible: s.infeasible,
                quarantined: s.quarantined,
                failed_layers: s.failed_layers,
                outliers_rejected: s.outliers_rejected,
                rng_word_pos: rng.word_pos(),
                rung_costs: result.rung_costs,
            };
            let (grew, improved) = state.observe(hw_sample, hw, &checkpoint, result.plans)?;
            if grew {
                sample_obs.emit_with(|| Event::ParetoUpdated {
                    frontier_len: state.frontier.len() as u64,
                });
            }
            if improved {
                sample_obs.emit_with(|| Event::BestImproved {
                    cost: checkpoint.cost,
                });
            }
            // Checkpoint at the sample boundary and flush, so a killed
            // process loses at most the in-flight sample.
            sample_obs.emit_with(|| checkpoint.to_event());
            self.observer.flush();
        }

        let best_cost = state.best.as_ref().map_or(f64::INFINITY, |(_, _, c, _)| *c);
        let hw_history = state.hw_search.history().to_vec();
        let trace = Trace::from_costs(&hw_history);
        // The hardware searcher times its own fit/acquisition split; fold
        // it into the engine's phase accounting before the snapshot. These
        // are sub-phases of `hw_search` wall time, not additional time.
        if let Some(timers) = state.hw_search.surrogate_timers() {
            self.engine.add_phase_wall("surrogate_fit", timers.fit);
            self.engine
                .add_phase_wall("acquisition", timers.acquisition);
        }
        let stats = self.engine.stats();
        let evaluations = stats.evaluations;
        let status = if deadline_hit || stats.quarantined > 0 || stats.failed_layers > 0 {
            RunStatus::Degraded
        } else {
            RunStatus::Complete
        };
        for (phase, wall) in &stats.phase_wall {
            let phase = phase.to_string();
            let wall_ms = wall.as_millis() as u64;
            self.observer
                .emit_with(|| Event::PhaseTiming { phase, wall_ms });
        }
        self.observer.emit_with(|| Event::RunFinished {
            best_cost,
            evaluations,
            wall_ms: run_start.elapsed().as_millis() as u64,
            status: status.as_str().to_string(),
        });
        self.observer.flush();
        let (best_hw, best_plans) = match state.best {
            // A replayed winner has no plans: re-run its software search
            // (same seed, same stream, same engine semantics), climbing
            // every rung again, as cheap measurements advance the per-key
            // noise and fault schedules the full rung sees. Empty
            // histories promote every finite cost, as the winner's were.
            // This follows the stats snapshot and journals nothing.
            Some((hw, plans, _, stream)) => (
                Some(hw),
                plans.unwrap_or_else(|| {
                    let histories = vec![Vec::new(); state.rung_histories.len()];
                    let fidelity = state.fidelity.as_ref();
                    self.search_sample(fidelity, models, &hw, stream, &histories, &Observer::null())
                        .plans
                        .expect("the winner reached the full rung")
                }),
            ),
            None => (None, Vec::new()),
        };
        Ok(SliceOutcome::Finished(Box::new(CodesignOutcome {
            best_hw,
            best_plans,
            best_cost,
            hw_history,
            trace,
            evaluations,
            eval_trace: state.eval_trace,
            frontier: state.frontier,
            stats,
            status,
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlight_conv::ConvLayer;

    fn tiny_model() -> Model {
        Model::from_layers(
            "tiny",
            vec![
                ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
                ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
            ],
        )
    }

    fn small_config(variant: Variant, seed: u64) -> CodesignConfig {
        CodesignConfig::edge()
            .hw_samples(8)
            .sw_samples(15)
            .variant(variant)
            .seed(seed)
            .build()
            .expect("test config is valid")
    }

    #[test]
    fn codesign_finds_feasible_design() {
        let out = Spotlight::new(small_config(Variant::Spotlight, 0)).codesign(&[tiny_model()]);
        let hw = out.best_hw.expect("a feasible design exists");
        assert!(Budget::edge().admits(&hw));
        assert!(out.best_cost.is_finite());
        assert_eq!(out.best_plans.len(), 1);
        assert_eq!(out.best_plans[0].layers.len(), 2);
    }

    #[test]
    fn evaluations_accounting_is_exact() {
        let cfg = small_config(Variant::SpotlightR, 1);
        let out = Spotlight::new(cfg).codesign(&[tiny_model()]);
        // Exact accounting via the engine counters: every software
        // search spends exactly sw_samples evaluations, and every
        // evaluation is either a cache hit or a backend call.
        assert_eq!(
            out.evaluations,
            out.stats.sw_searches * cfg.sw_samples as u64
        );
        assert_eq!(
            out.stats.cache_hits + out.stats.cache_misses,
            out.evaluations
        );
        // At most one search per (hw sample, unique layer) pair.
        let per_hw = (cfg.sw_samples * 2) as u64;
        assert!(out.evaluations <= cfg.hw_samples as u64 * per_hw);
        assert!(out.evaluations > 0);
        assert_eq!(out.eval_trace.len(), cfg.hw_samples);
        assert_eq!(out.hw_history.len(), cfg.hw_samples);
        // The cumulative eval trace ends at the total.
        assert_eq!(out.eval_trace.last().unwrap().0, out.evaluations);
    }

    #[test]
    fn trace_is_monotone() {
        let out = Spotlight::new(small_config(Variant::Spotlight, 2)).codesign(&[tiny_model()]);
        let b = out.trace.best_so_far();
        assert!(b.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Spotlight::new(small_config(Variant::Spotlight, 3)).codesign(&[tiny_model()]);
        let b = Spotlight::new(small_config(Variant::Spotlight, 3)).codesign(&[tiny_model()]);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.best_hw, b.best_hw);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let a = Spotlight::new(small_config(Variant::Spotlight, 4)).codesign(&[tiny_model()]);
        let b = Spotlight::new(small_config(Variant::Spotlight, 5)).codesign(&[tiny_model()]);
        assert_ne!(a.hw_history, b.hw_history);
    }

    #[test]
    fn multi_model_aggregates_across_models() {
        let m2 = Model::from_layers("second", vec![ConvLayer::new(1, 8, 8, 3, 3, 7, 7)]);
        let out = Spotlight::new(small_config(Variant::Spotlight, 6)).codesign(&[tiny_model(), m2]);
        assert_eq!(out.best_plans.len(), 2);
        let sum: f64 = out
            .best_plans
            .iter()
            .map(|p| p.objective_value(Objective::Edp))
            .sum();
        assert!((sum - out.best_cost).abs() < 1e-6 * sum);
    }

    #[test]
    fn delay_objective_sums_layer_delays() {
        let cfg = small_config(Variant::Spotlight, 7)
            .to_builder()
            .objective(Objective::Delay)
            .build()
            .unwrap();
        let out = Spotlight::new(cfg).codesign(&[tiny_model()]);
        let plan = &out.best_plans[0];
        let manual: f64 = plan
            .layers
            .iter()
            .map(|l| l.report.delay_cycles * l.count as f64)
            .sum();
        assert!((plan.total_delay - manual).abs() < 1e-9);
        assert_eq!(plan.objective_value(Objective::Delay), plan.total_delay);
    }

    #[test]
    fn frontier_is_populated_and_consistent() {
        let out = Spotlight::new(small_config(Variant::Spotlight, 9)).codesign(&[tiny_model()]);
        assert!(!out.frontier.is_empty());
        // The best design's metrics must not be dominated by any frontier
        // point under the EDP objective: the lowest frontier EDP equals
        // the reported best cost.
        let best_edp = out
            .frontier
            .points()
            .iter()
            .map(|p| p.edp())
            .fold(f64::INFINITY, f64::min);
        assert!((best_edp - out.best_cost).abs() <= 1e-9 * out.best_cost);
        // Budget selection picks something admissible.
        let sel = out.frontier.select_for_budget(&Budget::edge());
        assert!(sel.is_some());
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn empty_model_list_rejected() {
        let _ = Spotlight::new(small_config(Variant::Spotlight, 8)).codesign(&[]);
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::variants::Variant;
    use spotlight_conv::ConvLayer;

    #[test]
    fn impossible_budget_yields_no_design() {
        // The builder refuses budgets no in-range point can satisfy, so
        // this runtime path needs the crate-private literal — external
        // callers can no longer construct such a run at all.
        let model = Model::from_layers("m", vec![ConvLayer::new(1, 16, 8, 3, 3, 14, 14)]);
        let valid = CodesignConfig::edge()
            .hw_samples(5)
            .sw_samples(5)
            .variant(Variant::SpotlightR)
            .build()
            .unwrap();
        let cfg = CodesignConfig {
            budget: Budget::new(1e-9, 1e-9, 1.0),
            ..valid
        };
        let out = Spotlight::new(cfg).codesign(&[model]);
        assert!(out.best_hw.is_none());
        assert!(out.best_cost.is_infinite());
        assert!(out.frontier.is_empty());
        // No software search was spent on rejected hardware.
        assert_eq!(out.evaluations, 0);
        // Every hardware sample is recorded as infeasible.
        assert!(out.hw_history.iter().all(|c| c.is_infinite()));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use spotlight_conv::ConvLayer;
    use spotlight_eval::{FaultPlan, RetryPolicy};
    use std::sync::Arc;

    fn tiny_model() -> Model {
        Model::from_layers(
            "tiny",
            vec![
                ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
                ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
            ],
        )
    }

    fn config(threads: usize) -> CodesignConfig {
        CodesignConfig::edge()
            .hw_samples(8)
            .sw_samples(12)
            .seed(21)
            .threads(threads)
            .build()
            .expect("test config is valid")
    }

    fn journaled_run(cfg: CodesignConfig) -> (CodesignOutcome, Vec<spotlight_obs::Record>) {
        let sink = Arc::new(spotlight_obs::MemorySink::new());
        let out = Spotlight::new(cfg)
            .with_observer(Observer::new(sink.clone()))
            .codesign(&[tiny_model()]);
        (out, sink.records())
    }

    #[test]
    fn every_sample_checkpoints_and_clean_runs_complete() {
        let cfg = config(1);
        let (out, records) = journaled_run(cfg);
        assert_eq!(out.status, RunStatus::Complete);
        let checkpoints: Vec<_> = records
            .iter()
            .filter_map(|r| SampleCheckpoint::from_event(&r.event))
            .collect();
        assert_eq!(checkpoints.len(), cfg.hw_samples());
        // Cumulative counters are non-decreasing and end at the totals.
        assert!(checkpoints
            .windows(2)
            .all(|w| w[0].evaluations <= w[1].evaluations));
        assert_eq!(
            checkpoints.last().expect("nonempty").evaluations,
            out.evaluations
        );
        match &records.last().expect("events recorded").event {
            Event::RunFinished { status, .. } => assert_eq!(status, "complete"),
            other => panic!("last event should be run_finished, got {other:?}"),
        }
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_run() {
        for threads in [1usize, 4] {
            let cfg = config(threads);
            let (full, records) = journaled_run(cfg);
            let checkpoints: Vec<_> = records
                .iter()
                .filter(|r| matches!(r.event, Event::Checkpoint { .. }))
                .collect();
            let replay: Vec<_> = checkpoints
                .iter()
                .filter_map(|r| SampleCheckpoint::from_event(&r.event))
                .collect();
            // Every kill point: before the first checkpoint, between any
            // two, and after the last, where everything is replayed and
            // the winner's plans must be recomputed bit-identically.
            for cut in 0..=replay.len() {
                let (resumed, tail) = {
                    let sink = Arc::new(spotlight_obs::MemorySink::new());
                    let out = Spotlight::new(cfg)
                        .with_observer(Observer::new(sink.clone()))
                        .resume(&[tiny_model()], &replay[..cut])
                        .expect("replay matches the recorded run");
                    (out, sink.records())
                };
                assert_eq!(resumed.best_cost.to_bits(), full.best_cost.to_bits());
                assert_eq!(resumed.best_hw, full.best_hw, "cut {cut}");
                assert_eq!(resumed.best_plans, full.best_plans, "cut {cut}");
                assert_eq!(resumed.hw_history, full.hw_history, "cut {cut}");
                assert_eq!(resumed.eval_trace, full.eval_trace, "cut {cut}");
                assert_eq!(resumed.frontier.points(), full.frontier.points());
                assert_eq!(resumed.evaluations, full.evaluations, "cut {cut}");
                assert_eq!(resumed.status, full.status, "cut {cut}");
                assert_eq!(resumed.stats.sw_searches, full.stats.sw_searches);
                assert_eq!(resumed.stats.infeasible, full.stats.infeasible);
                // The live tail journals exactly the checkpoints the
                // uninterrupted run wrote past the cut.
                let resumed_checkpoints: Vec<_> = tail
                    .iter()
                    .filter(|r| matches!(r.event, Event::Checkpoint { .. }))
                    .collect();
                assert_eq!(resumed_checkpoints, checkpoints[cut..], "cut {cut}");
            }
        }
    }

    #[test]
    fn resume_rejects_oversized_checkpoint_lists() {
        let cfg = config(1);
        let (_, records) = journaled_run(cfg);
        let mut checkpoints: Vec<_> = records
            .iter()
            .filter_map(|r| SampleCheckpoint::from_event(&r.event))
            .collect();
        let extra = checkpoints.last().expect("nonempty").clone();
        checkpoints.push(extra);
        let err = Spotlight::new(cfg)
            .resume(&[tiny_model()], &checkpoints)
            .unwrap_err();
        assert_eq!(
            err,
            ResumeError::TooManyCheckpoints {
                checkpoints: 9,
                hw_samples: 8
            }
        );
        assert!(err.to_string().contains("9 checkpoints"), "{err}");
    }

    #[test]
    fn always_transient_backend_degrades_but_finishes() {
        let plan: FaultPlan = "seed=5,transient=1".parse().expect("valid spec");
        let engine = spotlight_eval::EvalEngine::builder()
            .faults(Some(plan))
            .retry(RetryPolicy {
                max_attempts: 2,
                base: std::time::Duration::ZERO,
                cap: std::time::Duration::ZERO,
            })
            .build()
            .expect("known backend");
        let sink = Arc::new(spotlight_obs::MemorySink::new());
        let out = Spotlight::with_engine(config(1), engine)
            .with_observer(Observer::new(sink.clone()))
            .codesign(&[tiny_model()]);
        assert_eq!(out.status, RunStatus::Degraded);
        assert!(out.best_hw.is_none());
        assert!(out.stats.quarantined > 0);
        // The degraded status round-trips through the event stream.
        let records = sink.records();
        match &records.last().expect("events recorded").event {
            Event::RunFinished { status, .. } => assert_eq!(status, "degraded"),
            other => panic!("last event should be run_finished, got {other:?}"),
        }
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::Quarantined { .. })));
    }

    #[test]
    fn panicking_workers_fail_layers_not_the_run() {
        let plan: FaultPlan = "seed=9,panic=1".parse().expect("valid spec");
        let engine = spotlight_eval::EvalEngine::builder()
            .faults(Some(plan))
            .build()
            .expect("known backend");
        let sink = Arc::new(spotlight_obs::MemorySink::new());
        let out = Spotlight::with_engine(config(1), engine)
            .with_observer(Observer::new(sink.clone()))
            .codesign(&[tiny_model()]);
        // Every worker panics on its first evaluation and again on the
        // retry; every layer fails, but the run itself survives.
        assert_eq!(out.status, RunStatus::Degraded);
        assert!(out.best_hw.is_none());
        assert!(out.stats.failed_layers > 0);
        let records = sink.records();
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::WorkerPanic { retrying: true })));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::WorkerPanic { retrying: false })));
        match &records.last().expect("events recorded").event {
            Event::RunFinished { status, .. } => assert_eq!(status, "degraded"),
            other => panic!("last event should be run_finished, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_returns_best_so_far_immediately() {
        let cfg = config(1)
            .to_builder()
            .deadline(Some(std::time::Duration::ZERO))
            .build()
            .expect("deadline config is valid");
        let out = Spotlight::new(cfg).codesign(&[tiny_model()]);
        assert_eq!(out.status, RunStatus::Degraded);
        assert!(out.hw_history.is_empty());
        assert_eq!(out.evaluations, 0);
        assert!(out.best_hw.is_none());
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;

    #[test]
    fn zero_counts_are_rejected_with_typed_errors() {
        assert_eq!(
            CodesignConfig::edge().hw_samples(0).build().unwrap_err(),
            ConfigError::ZeroHwSamples
        );
        assert_eq!(
            CodesignConfig::edge().sw_samples(0).build().unwrap_err(),
            ConfigError::ZeroSwSamples
        );
        assert_eq!(
            CodesignConfig::cloud().threads(0).build().unwrap_err(),
            ConfigError::ZeroThreads
        );
    }

    #[test]
    fn budget_ranges_mismatch_is_rejected() {
        // Cloud-scale parameter ranges can never fit an edge budget:
        // the smallest cloud configuration alone blows the 8 mm^2 cap.
        let err = CodesignConfig::cloud()
            .budget(Budget::edge())
            .build()
            .unwrap_err();
        match err {
            ConfigError::BudgetRangesMismatch {
                area_mm2,
                max_area_mm2,
                ..
            } => {
                assert!(area_mm2 > max_area_mm2);
            }
            other => panic!("expected BudgetRangesMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("mm^2"), "{err}");
    }

    #[test]
    fn default_scales_validate_and_round_trip_through_to_builder() {
        for builder in [CodesignConfig::edge(), CodesignConfig::cloud()] {
            let cfg = builder.build().expect("paper defaults are valid");
            assert_eq!(cfg.hw_samples(), 100);
            assert_eq!(cfg.sw_samples(), 100);
            let again = cfg
                .to_builder()
                .seed(42)
                .threads(4)
                .build()
                .expect("derived config is valid");
            assert_eq!(again.seed(), 42);
            assert_eq!(again.threads(), 4);
            assert_eq!(again.hw_samples(), cfg.hw_samples());
        }
    }

    #[test]
    fn observed_run_journals_manifest_and_trace() {
        use spotlight_conv::ConvLayer;
        use std::sync::Arc;

        let sink = Arc::new(spotlight_obs::MemorySink::new());
        let cfg = CodesignConfig::edge()
            .hw_samples(4)
            .sw_samples(6)
            .seed(11)
            .build()
            .unwrap();
        let model = Model::from_layers("obs", vec![ConvLayer::new(1, 16, 8, 3, 3, 14, 14)]);
        let out = Spotlight::new(cfg)
            .with_observer(Observer::new(sink.clone()))
            .codesign(&[model]);
        let records = sink.records();
        // Manifest first, run_finished last.
        match &records.first().expect("events recorded").event {
            Event::RunStarted { manifest } => {
                assert_eq!(manifest.seed, 11);
                assert_eq!(manifest.backend, "maestro");
                assert_eq!(manifest.hw_samples, 4);
            }
            other => panic!("first event should be the manifest, got {other:?}"),
        }
        match &records.last().unwrap().event {
            Event::RunFinished {
                best_cost,
                evaluations,
                ..
            } => {
                assert_eq!(best_cost.to_bits(), out.best_cost.to_bits());
                assert_eq!(*evaluations, out.evaluations);
            }
            other => panic!("last event should be run_finished, got {other:?}"),
        }
        // One hw_proposed per hardware sample, each tagged with its span.
        let proposed: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.event, Event::HwProposed { .. }))
            .collect();
        assert_eq!(proposed.len(), 4);
        for (i, rec) in proposed.iter().enumerate() {
            assert_eq!(rec.hw_sample, Some(i as u64));
        }
        // Every admitted sample's schedule evaluations are attributable.
        let evaluated = records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    Event::ScheduleEvaluated { .. } | Event::Infeasible { .. }
                )
            })
            .count() as u64;
        assert_eq!(evaluated, out.evaluations);
        assert!(records
            .iter()
            .filter(|r| r.event.is_trace())
            .all(|r| r.hw_sample.is_some()));
    }
}
