//! Unified evaluation engine for every Spotlight search driver.
//!
//! Historically each driver — the Spotlight co-design loop, the ablation
//! variants, and the restricted ConfuciuX/HASCO baselines — called
//! [`CostModel::evaluate`] directly and hand-threaded its own
//! `evaluations += ...` bookkeeping. This crate centralizes that plumbing
//! behind two abstractions:
//!
//! * [`CostBackend`] — a pluggable "what does a (hardware, schedule,
//!   layer) triple cost" oracle. Three implementations ship here:
//!   [`MaestroBackend`] (the analytical MAESTRO-like model),
//!   [`SimBackend`] (the cycle-approximate tile simulator, falling back
//!   to the analytical model when a loop nest exceeds the iteration
//!   cap), and [`TimeloopBackend`] (the independent loop-centric model
//!   used for cross-model validation).
//! * [`EvalEngine`] — owns a backend, a memoized cache keyed by the full
//!   `(HardwareConfig, Schedule, ConvLayer)` triple, and the
//!   instrumentation counters (logical evaluations, cache hits/misses,
//!   infeasible proposals, software searches, per-phase wall time) that
//!   searchers previously tracked ad hoc.
//!
//! The engine is `Sync`: the cache sits behind a `Mutex` and every
//! counter is an `AtomicU64`, so scoped worker threads in the parallel
//! layerwise search share one engine by reference.
//!
//! # Determinism
//!
//! `evaluate` is a pure function of its arguments for every shipped
//! backend, so memoization never changes a search result — a cached
//! replay returns bit-identical `CostReport`s. The *logical* counters
//! (`evaluations`, `infeasible`, `sw_searches`) count queries, not
//! backend invocations, and are therefore reproducible across thread
//! counts and cache settings. `cache_hits`/`cache_misses` describe the
//! physical cache and may shift by a few counts under concurrent access
//! (two threads can race to fill the same key — both then record a
//! miss), which is harmless because both compute the same value.
//!
//! # Failure model
//!
//! Backends may fail transiently ([`EvalError::Transient`]), return
//! NaN-poisoned reports (sanitized into [`EvalError::Poisoned`]), or
//! panic. The engine retries transients inline with a bounded
//! deterministic backoff ([`RetryPolicy`]) and quarantines keys that
//! exhaust their retries or poison: later queries for a quarantined key
//! short-circuit to [`EvalError::Quarantined`] without touching the
//! backend. Panics are *not* caught here — the parallel layerwise
//! search isolates them per worker. [`FaultInjectingBackend`] injects
//! all four failure modes from a seeded, replayable schedule.
//!
//! # Noise model
//!
//! Orthogonally to hard failures, backends may return *noisy* scalars —
//! correct in expectation but wrong per sample. [`NoisyBackend`] injects
//! seeded multiplicative noise (Gaussian or heavy-tailed) for rehearsal,
//! and [`RobustPolicy`] configures the engine's countermeasure:
//! k-replicate measurement, MAD-based outlier rejection with bounded
//! re-measurement, configurable aggregation (mean / median / trimmed
//! mean), and a per-point dispersion estimate
//! ([`ReplicateSummary::dispersion`]) that flows to heteroscedastic
//! surrogates. The single-shot default reproduces plain evaluation
//! exactly.
//!
//! # Fidelity model
//!
//! A [`FidelitySpec`] turns the engine multi-fidelity: searches may
//! evaluate through [`EvalEngine::measure`] with a [`Fidelity`] tag,
//! and cheap rungs measure with fewer replicates or a coarser backend.
//! The memo cache is keyed by the tag, so cheap and full observations
//! never alias, and cheap reports carry the rung's calibrated variance
//! inflation in their dispersion so surrogates trust them less.
//!
//! # Construction
//!
//! [`EvalEngineBuilder`] (via [`EvalEngine::builder`]) is the one way to
//! assemble a configured engine. It composes, in canonical order:
//! backend → fault injection → measurement noise → robust measurement →
//! fidelity ladder → cache, and rejects invalid combinations with a
//! typed [`BuildError`] instead of silently misbehaving.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod fault;
mod fidelity;
mod memo;
mod noise;
mod robust;

pub use fault::{key_fingerprint, FaultDecision, FaultInjectingBackend, FaultPlan};
pub use fidelity::{Fidelity, FidelityMode, FidelitySpec};
pub use noise::{NoiseModel, NoisePlan, NoisyBackend};
pub use robust::{
    mad, median, outlier_flags, relative_dispersion, trimmed_mean, Aggregation, AggregationError,
    ReplicateSummary, RobustPolicy, MAD_SCALE,
};

use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use spotlight_accel::HardwareConfig;
use spotlight_conv::ConvLayer;
use spotlight_maestro::sim::{simulate, SimError};
use spotlight_maestro::{CostModel, CostReport, MappingError};
use spotlight_obs::{Event, Observer};
use spotlight_space::Schedule;
use spotlight_timeloop::{TimeloopError, TimeloopModel};

/// Stable names of every shipped backend, in CLI display order.
pub const BACKEND_NAMES: [&str; 3] = ["maestro", "sim", "timeloop"];

/// Error for [`backend_by_name`]: the requested backend does not
/// exist. The `Display` form lists every valid name, so front ends (the
/// CLI included) print this instead of maintaining their own copy of the
/// backend menu.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    /// The name that failed to resolve.
    pub requested: String,
}

impl fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend {:?} (valid backends: {})",
            self.requested,
            BACKEND_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownBackend {}

/// Why a proposal could not be costed. Wraps the originating model's
/// error so callers can still inspect overflow byte counts etc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalError {
    /// The analytical model rejected the mapping.
    Mapping(MappingError),
    /// The Timeloop-like model rejected the mapping.
    Timeloop(TimeloopError),
    /// The backend failed transiently; the same query may succeed on
    /// retry. Never cached.
    Transient,
    /// The backend produced a non-finite (NaN/inf) delay or energy —
    /// a corrupted report the engine refuses to propagate. Never cached.
    Poisoned,
    /// The key exhausted its retries (or poisoned) earlier in this run
    /// and is quarantined: the backend is no longer consulted for it.
    Quarantined,
}

impl EvalError {
    /// True for errors that mean "this mapping is genuinely infeasible"
    /// — a deterministic property of the triple, safe to memoize.
    /// False for the failure-model errors (transient / poisoned /
    /// quarantined), which describe the run, not the design point.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, EvalError::Mapping(_) | EvalError::Timeloop(_))
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Mapping(e) => write!(f, "{e}"),
            EvalError::Timeloop(e) => write!(f, "{e}"),
            EvalError::Transient => write!(f, "transient backend failure"),
            EvalError::Poisoned => write!(f, "backend returned a non-finite cost report"),
            EvalError::Quarantined => write!(f, "point quarantined after repeated failures"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<MappingError> for EvalError {
    fn from(e: MappingError) -> Self {
        EvalError::Mapping(e)
    }
}

/// A pluggable cost oracle for one `(hardware, schedule, layer)` triple.
///
/// Implementations must be pure: the same arguments must always produce
/// the same result, because [`EvalEngine`] memoizes on the arguments
/// alone. `Send + Sync` lets one backend serve scoped worker threads.
pub trait CostBackend: Send + Sync {
    /// Short stable name for reports and CLI selection.
    fn name(&self) -> &'static str;

    /// The canonical fault-plan spec when this backend injects faults
    /// (see [`FaultInjectingBackend`]); `None` for real backends. The
    /// run manifest records this so `resume` rebuilds the identical
    /// fault schedule.
    fn faults(&self) -> Option<String> {
        None
    }

    /// The canonical noise-plan spec when this backend injects
    /// measurement noise (see [`NoisyBackend`]); `None` for real
    /// backends. Recorded in the run manifest like `faults`.
    fn noise(&self) -> Option<String> {
        None
    }

    /// Costs the triple, or explains why it is infeasible.
    fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError>;
}

/// The analytical MAESTRO-like model — the paper's primary fidelity.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaestroBackend {
    model: CostModel,
}

impl MaestroBackend {
    pub fn new(model: CostModel) -> Self {
        MaestroBackend { model }
    }
}

impl CostBackend for MaestroBackend {
    fn name(&self) -> &'static str {
        "maestro"
    }

    fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        self.model
            .evaluate(hw, sched, layer)
            .map_err(EvalError::Mapping)
    }
}

/// The cycle-approximate tile simulator, with an analytical fallback.
///
/// Feasibility rules match the analytical model. For feasible mappings
/// the simulated delay and DRAM traffic replace the analytical
/// estimates (energy, area, and the breakdown fields stay analytical —
/// the simulator does not model them). Loop nests whose outer
/// iteration count exceeds `max_iterations` fall back to the purely
/// analytical report instead of erroring, so searches never lose a
/// feasible point to the simulation cap.
///
/// The simulator is deterministic, so each thread keeps the last triple
/// it costed and that result (errors and fallbacks included): the
/// engine's consecutive replicates of one point reuse a single walk
/// but each still counts as one backend call. The memo lives here, not
/// in the engine, so fault and noise decorators above the backend keep
/// advancing their per-key attempt ordinals once per replicate.
#[derive(Debug, Clone, Copy)]
pub struct SimBackend {
    model: CostModel,
    max_iterations: u64,
}

impl SimBackend {
    pub fn new(model: CostModel, max_iterations: u64) -> Self {
        SimBackend {
            model,
            max_iterations,
        }
    }

    fn evaluate_uncached(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        let analytical = self
            .model
            .evaluate(hw, sched, layer)
            .map_err(EvalError::Mapping)?;
        match simulate(
            &self.model,
            &analytical,
            hw,
            sched,
            layer,
            self.max_iterations,
        ) {
            Ok(sim) => Ok(CostReport {
                delay_cycles: sim.delay_cycles,
                dram_bytes: sim.dram_bytes,
                ..analytical
            }),
            Err(SimError::TooLarge { .. }) => Ok(analytical),
        }
    }
}

impl Default for SimBackend {
    fn default() -> Self {
        SimBackend::new(CostModel::default(), 1 << 20)
    }
}

/// What a [`SimBackend`] result depends on: the backend's own
/// parameters and the costed triple.
#[derive(Clone, Copy, PartialEq)]
struct SimKey {
    hw: HardwareConfig,
    sched: Schedule,
    layer: ConvLayer,
    max_iterations: u64,
    model: CostModel,
}

thread_local! {
    /// The last triple this thread's [`SimBackend`]s costed, and the result.
    static LAST_SIM: Cell<Option<(SimKey, Result<CostReport, EvalError>)>> =
        const { Cell::new(None) };
}

impl CostBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        let key = SimKey {
            hw: *hw,
            sched: *sched,
            layer: *layer,
            max_iterations: self.max_iterations,
            model: self.model,
        };
        LAST_SIM.with(|last| match last.get() {
            Some((k, result)) if k == key => result,
            _ => {
                let result = self.evaluate_uncached(hw, sched, layer);
                last.set(Some((key, result)));
                result
            }
        })
    }
}

/// The independent Timeloop-like model (Section VII-F cross-check).
///
/// Only delay, energy, and DRAM traffic are modeled; the remaining
/// `CostReport` fields are zero. Searches driven by this backend
/// optimize the same EDP/delay objectives the report exposes.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeloopBackend {
    model: TimeloopModel,
}

impl TimeloopBackend {
    pub fn new(model: TimeloopModel) -> Self {
        TimeloopBackend { model }
    }
}

impl CostBackend for TimeloopBackend {
    fn name(&self) -> &'static str {
        "timeloop"
    }

    fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        let r = self
            .model
            .evaluate(hw, sched, layer)
            .map_err(EvalError::Timeloop)?;
        Ok(CostReport {
            delay_cycles: r.delay_cycles,
            energy_nj: r.energy_nj,
            dram_bytes: r.dram_bytes,
            ..CostReport::zeroed_for_tests(0.0, 0.0)
        })
    }
}

/// Builds the boxed backend named by `name` (see [`BACKEND_NAMES`]).
/// The building block behind [`EvalEngineBuilder::backend`], exposed so
/// front ends can validate a name up front and callers can decorate the
/// backend before handing it to [`EvalEngineBuilder::custom_backend`].
/// The error's `Display` lists the valid names:
///
/// ```
/// use spotlight_eval::backend_by_name;
/// let err = backend_by_name("verilator").err().unwrap();
/// assert!(err.to_string().contains("maestro, sim, timeloop"));
/// ```
pub fn backend_by_name(name: &str) -> Result<Box<dyn CostBackend>, UnknownBackend> {
    match name {
        "maestro" => Ok(Box::new(MaestroBackend::default())),
        "sim" => Ok(Box::new(SimBackend::default())),
        "timeloop" => Ok(Box::new(TimeloopBackend::default())),
        _ => Err(UnknownBackend {
            requested: name.to_string(),
        }),
    }
}

type CacheKey = (HardwareConfig, Schedule, ConvLayer, Fidelity);
type CacheValue = Result<(CostReport, ReplicateSummary), EvalError>;

/// The engine's memo cache (see [`memo`]).
type MemoCache = memo::MemoCache<CacheKey, CacheValue>;

/// A memo-cache handle that several [`EvalEngine`]s can share.
///
/// Concurrent jobs evaluating overlapping design points reuse each
/// other's backend results through it; each engine still keeps its own
/// hit/miss counters, so per-job accounting is unaffected by who warmed
/// the cache. Sharing is only sound between engines with identical
/// evaluation semantics (same backend, fault plan, noise plan, and
/// robust policy) — a caller pairing engines with different semantics
/// would cross-contaminate their memoized costs.
#[derive(Clone)]
pub struct SharedCache {
    inner: Arc<Mutex<MemoCache>>,
}

impl fmt::Debug for SharedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCache")
            .field("len", &self.len())
            .finish()
    }
}

impl SharedCache {
    /// A fresh cache, FIFO-bounded to `cap` entries when given.
    pub fn new(cap: Option<usize>) -> Self {
        SharedCache {
            inner: Arc::new(Mutex::new(MemoCache::new(cap))),
        }
    }

    /// Number of memoized triples currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A named span of a search's wall time that [`EvalEngine::time_phase`]
/// and [`EvalEngine::add_phase_wall`] charge. Declared in name order,
/// which is the order [`EvalStats::phase_wall`] lists phases in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The surrogate's candidate ranking, harvested from a model-based
    /// searcher's own timers; part of `hw_search` or `sw_search` time.
    Acquisition,
    /// Proposing the next hardware configuration.
    HwSearch,
    /// The surrogate's refits, harvested like `acquisition`.
    SurrogateFit,
    /// The software searches of one hardware sample.
    SwSearch,
}

impl Phase {
    /// Phase names, indexed by discriminant.
    const NAMES: [&'static str; 4] = ["acquisition", "hw_search", "surrogate_fit", "sw_search"];

    /// The phase's name in reports, journals and `/metrics`.
    pub fn as_str(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// The counters and phase timers behind [`EvalStats`], held once per
/// engine and once per [`GlobalEvalStats`] mirror.
#[derive(Default)]
struct Counters {
    evaluations: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    infeasible: AtomicU64,
    quarantined: AtomicU64,
    transient_retries: AtomicU64,
    failed_layers: AtomicU64,
    sw_searches: AtomicU64,
    evictions: AtomicU64,
    replicate_measurements: AtomicU64,
    outliers_rejected: AtomicU64,
    fidelity_cheap_evals: AtomicU64,
    fidelity_full_evals: AtomicU64,
    /// Wall time per [`Phase`], indexed by discriminant; `None` until
    /// the phase is first charged.
    phase_wall: Mutex<[Option<Duration>; Phase::NAMES.len()]>,
}

impl Counters {
    fn snapshot(&self) -> EvalStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        EvalStats {
            evaluations: load(&self.evaluations),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            infeasible: load(&self.infeasible),
            quarantined: load(&self.quarantined),
            transient_retries: load(&self.transient_retries),
            failed_layers: load(&self.failed_layers),
            sw_searches: load(&self.sw_searches),
            evictions: load(&self.evictions),
            replicate_measurements: load(&self.replicate_measurements),
            outliers_rejected: load(&self.outliers_rejected),
            fidelity_cheap_evals: load(&self.fidelity_cheap_evals),
            fidelity_full_evals: load(&self.fidelity_full_evals),
            phase_wall: Phase::NAMES
                .iter()
                .zip(*self.walls())
                .filter_map(|(name, wall)| Some((name.to_string(), wall?)))
                .collect(),
        }
    }

    fn reset(&self) {
        for c in [
            &self.evaluations,
            &self.cache_hits,
            &self.cache_misses,
            &self.infeasible,
            &self.quarantined,
            &self.transient_retries,
            &self.failed_layers,
            &self.sw_searches,
            &self.evictions,
            &self.replicate_measurements,
            &self.outliers_rejected,
            &self.fidelity_cheap_evals,
            &self.fidelity_full_evals,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        *self.walls() = Default::default();
    }

    fn charge(&self, phase: Phase, elapsed: Duration) {
        *self.walls()[phase as usize].get_or_insert(Duration::ZERO) += elapsed;
    }

    fn walls(&self) -> MutexGuard<'_, [Option<Duration>; Phase::NAMES.len()]> {
        self.phase_wall
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Monotonic, process-lifetime counters aggregated across every engine
/// that carries a handle to them (see [`EvalEngineBuilder::global_stats`]).
///
/// Unlike an engine's own counters these are never reset or restored:
/// `reset_stats` / `restore_logical_counters` rewrite per-run logical
/// accounting, while these record operational totals — what the process
/// actually did — which is what a metrics endpoint should export. A
/// crash-recovered job therefore double-counts its replayed work here,
/// deliberately: the work really was performed twice.
#[derive(Default)]
pub struct GlobalEvalStats {
    counters: Counters,
}

impl fmt::Debug for GlobalEvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalEvalStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl GlobalEvalStats {
    /// Snapshot of the aggregated counters, in [`EvalStats`] form.
    pub fn snapshot(&self) -> EvalStats {
        self.counters.snapshot()
    }
}

/// Snapshot of an engine's instrumentation counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalStats {
    /// Logical cost queries answered (cache hits included).
    pub evaluations: u64,
    /// Queries answered without invoking the backend (memo cache, or
    /// the quarantine short-circuit).
    pub cache_hits: u64,
    /// Queries that invoked the backend.
    pub cache_misses: u64,
    /// Queries that returned an infeasibility error.
    pub infeasible: u64,
    /// Queries that ended in a failure-model error (transient retries
    /// exhausted, poisoned report, or quarantine short-circuit).
    pub quarantined: u64,
    /// Transient backend failures that were retried inline.
    pub transient_retries: u64,
    /// Layers abandoned after a worker panicked twice.
    pub failed_layers: u64,
    /// Software-schedule searches driven through the engine.
    pub sw_searches: u64,
    /// Cache entries evicted by the capacity bound.
    pub evictions: u64,
    /// Backend measurements taken for replicated queries (initial
    /// replicates plus re-measures); zero under the single-shot default.
    pub replicate_measurements: u64,
    /// Replicate measurements discarded as outliers.
    pub outliers_rejected: u64,
    /// Logical queries answered at a cheap fidelity rung; zero unless a
    /// [`FidelitySpec`] is attached.
    pub fidelity_cheap_evals: u64,
    /// Logical queries answered at full fidelity while a
    /// [`FidelitySpec`] is attached; zero otherwise. The ratio of a
    /// no-fidelity baseline's `evaluations` to this number is the
    /// full-fidelity-evaluation saving the ladder bought.
    pub fidelity_full_evals: u64,
    /// Accumulated wall time per [`Phase`] charged at least once, in
    /// name order.
    pub phase_wall: Vec<(String, Duration)>,
}

/// Bounded, deterministic retry schedule for [`EvalError::Transient`].
///
/// Backoff for retry `n` (1-based) is `base << (n - 1)`, capped at
/// `cap`. The schedule is a pure function of the attempt number — no
/// jitter — so retried runs consume identical wall-clock *structure*
/// and fault schedules stay replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per query, initial call included. 1 disables
    /// retries. Must be at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `retry` (1-based).
    pub fn backoff(&self, retry: u32) -> Duration {
        let shifted = self
            .base
            .checked_mul(1u32 << (retry - 1).min(16))
            .unwrap_or(self.cap);
        shifted.min(self.cap)
    }
}

impl EvalStats {
    /// Fraction of queries served from cache, or 0 when nothing ran.
    pub fn hit_rate(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.evaluations as f64
        }
    }
}

/// Memoizing, instrumented front door to a [`CostBackend`].
///
/// ```
/// use spotlight_eval::EvalEngine;
/// use spotlight_accel::{DataflowStyle, HardwareConfig};
/// use spotlight_conv::ConvLayer;
/// use spotlight_space::dataflows::dataflow_schedule;
///
/// let engine = EvalEngine::default();
/// let hw = HardwareConfig::new(256, 16, 2, 128, 256, 128).unwrap();
/// let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
/// let sched = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
/// let a = engine.evaluate(&hw, &sched, &layer);
/// let b = engine.evaluate(&hw, &sched, &layer);
/// assert_eq!(a, b);
/// let stats = engine.stats();
/// assert_eq!(stats.evaluations, 2);
/// assert_eq!(stats.cache_hits, 1);
/// ```
pub struct EvalEngine {
    backend: Box<dyn CostBackend>,
    cache: Option<Arc<Mutex<MemoCache>>>,
    /// Process-wide counter mirror; every local increment and phase
    /// charge is repeated here when attached (see
    /// [`EvalEngineBuilder::global_stats`]).
    global: Option<Arc<GlobalEvalStats>>,
    retry: RetryPolicy,
    robust: RobustPolicy,
    /// The multi-fidelity ladder, when one is attached; shapes how
    /// [`EvalEngine::measure`] measures cheap rungs.
    fidelity: Option<FidelitySpec>,
    /// The coarse backend cheap rungs dispatch to in
    /// [`FidelityMode::Backend`]; `None` in the other modes.
    cheap_backend: Option<Box<dyn CostBackend>>,
    /// Wall-clock point past which retry backoff must not sleep; set by
    /// deadline-bounded drivers so a latency-spike fault schedule cannot
    /// stall a worker past the budget.
    deadline: Mutex<Option<Instant>>,
    /// Fingerprints of keys whose retries were exhausted (or poisoned).
    quarantine: Mutex<HashSet<u64>>,
    /// Mirror of `quarantine.len()`: lets the fault-free hot path skip
    /// the quarantine lock with a single relaxed load.
    quarantine_len: AtomicU64,
    counters: Counters,
}

impl fmt::Debug for EvalEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalEngine")
            .field("backend", &self.backend.name())
            .field("cache_enabled", &self.cache.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for EvalEngine {
    /// The analytical (maestro) engine with a private unbounded cache.
    fn default() -> Self {
        EvalEngine::builder()
            .build()
            .expect("the default maestro engine always builds")
    }
}

impl EvalEngine {
    /// Starts a builder: the one construction path for configured
    /// engines (faults, noise, robust measurement, fidelity, cache).
    /// See [`EvalEngineBuilder`] for the composition order.
    pub fn builder() -> EvalEngineBuilder {
        EvalEngineBuilder::new()
    }

    /// The active replicated-measurement policy.
    pub fn robust_policy(&self) -> RobustPolicy {
        self.robust
    }

    /// The attached multi-fidelity ladder, if any.
    pub fn fidelity_spec(&self) -> Option<&FidelitySpec> {
        self.fidelity.as_ref()
    }

    /// The canonical fidelity spec string for the run manifest, `None`
    /// when no ladder is attached.
    pub fn fidelity(&self) -> Option<String> {
        self.fidelity.as_ref().map(|s| s.to_string())
    }

    /// Sets (or clears) the wall-clock deadline the retry backoff must
    /// respect: once a backoff sleep would cross it, the retry loop
    /// gives up immediately instead of sleeping. Drivers set this at
    /// run start from their `--deadline` budget.
    pub fn set_deadline(&self, deadline: Option<Instant>) {
        *self.deadline.lock().unwrap_or_else(PoisonError::into_inner) = deadline;
    }

    /// The backend's stable name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The backend's fault-plan spec, if it injects faults.
    pub fn faults(&self) -> Option<String> {
        self.backend.faults()
    }

    /// The backend's noise-plan spec, if it injects measurement noise.
    pub fn noise(&self) -> Option<String> {
        self.backend.noise()
    }

    /// Bumps the counter `pick` selects by `n` and, when a
    /// [`GlobalEvalStats`] mirror is attached, the mirror's as well.
    fn count(&self, pick: fn(&Counters) -> &AtomicU64, n: u64) {
        pick(&self.counters).fetch_add(n, Ordering::Relaxed);
        if let Some(global) = &self.global {
            pick(&global.counters).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Costs one triple at full fidelity, unobserved: what
    /// [`EvalEngine::measure`] returns at [`Fidelity::Full`] with the
    /// disabled observer, minus the [`ReplicateSummary`].
    pub fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        self.lookup(hw, sched, layer, Fidelity::Full)
            .map(|(r, _)| r)
    }

    /// Costs one triple at `fidelity`, consulting the quarantine list and
    /// the memo cache before the backend, and reports the outcome to
    /// `obs` tagged with the search `step`.
    ///
    /// - **Failures.** Transient backend failures are retried per
    ///   [`RetryPolicy`]; a query that exhausts its retries (or comes back
    ///   poisoned) quarantines its key, and later queries for it
    ///   short-circuit to [`EvalError::Quarantined`]. Only deterministic
    ///   outcomes (success / infeasibility) are memoized.
    /// - **Replicates.** The [`ReplicateSummary`] says how many replicates
    ///   were taken, how many were rejected, and the residual dispersion
    ///   that heteroscedastic surrogates consume as observation noise.
    ///   Under the single-shot default it is [`ReplicateSummary::single`].
    /// - **Fidelity.** The memo cache is keyed by the tag, so a cheap
    ///   rung's report is never served for a full-fidelity request (or
    ///   vice versa). Cheap rungs measure per the attached
    ///   [`FidelitySpec`] — fewer replicates or the coarse backend — and
    ///   their dispersion is inflated by the rung's calibrated variance.
    ///   Without an attached spec, `Fidelity::Full` is the plain path.
    /// - **Events.** One [`Event::ScheduleEvaluated`], [`Event::Infeasible`]
    ///   or [`Event::Quarantined`] per call, plus `replicate_summary` /
    ///   `outlier_rejected` when replication actually happened. This is
    ///   the single point where every observed search driver attributes
    ///   an evaluation to its enclosing `(hw_sample, layer)` span; with a
    ///   disabled observer it costs one branch per would-be event and
    ///   never changes what is measured or counted.
    pub fn measure(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
        fidelity: Fidelity,
        obs: &Observer,
        step: u64,
    ) -> Result<(CostReport, ReplicateSummary), EvalError> {
        let result = self.lookup(hw, sched, layer, fidelity);
        match &result {
            Ok((report, summary)) => {
                obs.emit_with(|| Event::ScheduleEvaluated {
                    step,
                    delay_cycles: report.delay_cycles,
                    energy_nj: report.energy_nj,
                });
                if summary.measurements > 1 {
                    let s = *summary;
                    obs.emit_with(|| Event::ReplicateSummary {
                        step,
                        measurements: s.measurements,
                        rejected: s.rejected,
                        dispersion: s.dispersion,
                    });
                    if s.rejected > 0 {
                        obs.emit_with(|| Event::OutlierRejected {
                            step,
                            count: s.rejected,
                        });
                    }
                }
            }
            Err(e) if e.is_infeasible() => obs.emit_with(|| Event::Infeasible {
                step,
                reason: e.to_string(),
            }),
            Err(e) => obs.emit_with(|| Event::Quarantined {
                step,
                reason: e.to_string(),
            }),
        }
        result
    }

    /// The counted, quarantine- and cache-aware query behind
    /// [`EvalEngine::measure`].
    fn lookup(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
        fidelity: Fidelity,
    ) -> CacheValue {
        self.count(|c| &c.evaluations, 1);
        if self.fidelity.is_some() {
            match fidelity {
                Fidelity::Full => self.count(|c| &c.fidelity_full_evals, 1),
                Fidelity::Rung(_) => self.count(|c| &c.fidelity_cheap_evals, 1),
            }
        }
        // Fault-free runs pay one relaxed load here and never touch the
        // quarantine lock.
        if self.quarantine_len.load(Ordering::Relaxed) > 0 {
            let fp = key_fingerprint(hw, sched, layer);
            let hit = self
                .quarantine
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .contains(&fp);
            if hit {
                // Answered without the backend: counts as a cache hit so
                // `evaluations == cache_hits + cache_misses` stays exact.
                self.count(|c| &c.cache_hits, 1);
                self.count(|c| &c.quarantined, 1);
                return Err(EvalError::Quarantined);
            }
        }
        let result = match &self.cache {
            Some(cache) => {
                let key = (*hw, *sched, *layer, fidelity);
                let cached = cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(&key)
                    .copied();
                match cached {
                    Some(r) => {
                        self.count(|c| &c.cache_hits, 1);
                        r
                    }
                    None => {
                        // Compute outside the lock: evaluation dominates
                        // and workers must not serialize on it. Two
                        // threads may race on one key; both store the
                        // same pure value, so last-write-wins is safe.
                        self.count(|c| &c.cache_misses, 1);
                        let r = self.replicate_measurement(hw, sched, layer, fidelity);
                        let deterministic = match &r {
                            Ok(_) => true,
                            Err(e) => e.is_infeasible(),
                        };
                        if deterministic {
                            let evicted = cache
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .insert(key, r);
                            if evicted > 0 {
                                self.count(|c| &c.evictions, evicted);
                            }
                        }
                        r
                    }
                }
            }
            None => {
                self.count(|c| &c.cache_misses, 1);
                self.replicate_measurement(hw, sched, layer, fidelity)
            }
        };
        match result {
            Err(e) if e.is_infeasible() => {
                self.count(|c| &c.infeasible, 1);
            }
            Err(EvalError::Transient) | Err(EvalError::Poisoned) => {
                // Retries exhausted or report corrupted: quarantine the
                // key so the run degrades instead of hammering it.
                self.count(|c| &c.quarantined, 1);
                let fp = key_fingerprint(hw, sched, layer);
                let mut q = self
                    .quarantine
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if q.insert(fp) {
                    self.quarantine_len.store(q.len() as u64, Ordering::Relaxed);
                }
            }
            _ => {}
        }
        result
    }

    /// Measures one point per the [`RobustPolicy`]: single-shot when
    /// `replicates == 1` (bit-identical to the historical path), else
    /// k replicates, one MAD outlier-rejection pass, a bounded round of
    /// replacement measurements (accepted only when they fall inside
    /// the surviving replicates' cutoff), and configurable aggregation
    /// of the survivors' delay/energy. The remaining report fields come
    /// from the first surviving replicate.
    ///
    /// A cheap [`Fidelity::Rung`] measurement (only reachable with a
    /// [`FidelitySpec`] attached) scales the replicate count down or
    /// dispatches to the coarse backend, per the spec's mode, and
    /// inflates the summary's dispersion by the rung's calibrated
    /// variance so surrogates trust the cheap number proportionally
    /// less.
    fn replicate_measurement(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
        fidelity: Fidelity,
    ) -> Result<(CostReport, ReplicateSummary), EvalError> {
        let cheap_rung = match (fidelity, &self.fidelity) {
            (Fidelity::Rung(r), Some(spec)) => Some((r, spec)),
            _ => None,
        };
        let backend: &dyn CostBackend = match cheap_rung {
            Some((_, spec)) if spec.mode == FidelityMode::Backend => self
                .cheap_backend
                .as_deref()
                .unwrap_or(self.backend.as_ref()),
            _ => self.backend.as_ref(),
        };
        let inflate = |mut summary: ReplicateSummary| {
            if let Some((r, spec)) = cheap_rung {
                let variance = summary.dispersion * summary.dispersion;
                summary.dispersion = (variance + spec.variance_inflation(r)).sqrt();
            }
            summary
        };
        let k = match cheap_rung {
            Some((r, spec)) if spec.mode == FidelityMode::Replicate => {
                spec.replicates_at(r, self.robust.replicates)
            }
            _ => self.robust.replicates,
        };
        if k <= 1 {
            return self
                .invoke_backend(backend, hw, sched, layer)
                .map(|r| (r, inflate(ReplicateSummary::single())));
        }
        let mut reports = Vec::with_capacity(k);
        for _ in 0..k {
            reports.push(self.invoke_backend(backend, hw, sched, layer)?);
        }
        let mut measurements = k as u64;
        let mut rejected = 0u64;

        // One rejection pass over the initial replicates: a replicate
        // is an outlier when either metric is flagged. Never discard a
        // majority — keep the least-deviant strict majority.
        let delays: Vec<f64> = reports.iter().map(|r| r.delay_cycles).collect();
        let energies: Vec<f64> = reports.iter().map(|r| r.energy_nj).collect();
        let fd = outlier_flags(&delays, self.robust.mad_threshold);
        let fe = outlier_flags(&energies, self.robust.mad_threshold);
        let mut flagged: Vec<usize> = (0..reports.len()).filter(|&i| fd[i] || fe[i]).collect();
        let max_reject = reports.len() - (reports.len() / 2 + 1);
        flagged.truncate(max_reject);
        let mut survivors: Vec<CostReport> = reports
            .iter()
            .enumerate()
            .filter(|(i, _)| !flagged.contains(i))
            .map(|(_, r)| *r)
            .collect();
        rejected += flagged.len() as u64;

        if !flagged.is_empty() {
            // Bounded re-measurement: replace what was rejected, but a
            // replacement only joins the pool if it sits inside the
            // survivors' own cutoff (otherwise it is rejected too).
            let s_delays: Vec<f64> = survivors.iter().map(|r| r.delay_cycles).collect();
            let s_energies: Vec<f64> = survivors.iter().map(|r| r.energy_nj).collect();
            let cutoff = |xs: &[f64], x: f64| {
                let med = median(xs);
                let scale = MAD_SCALE * mad(xs, med);
                let dev = (x - med).abs();
                if scale > 0.0 {
                    dev > self.robust.mad_threshold * scale
                } else {
                    dev > 0.0
                }
            };
            let refill = flagged.len().min(self.robust.max_remeasures);
            for _ in 0..refill {
                let r = self.invoke_backend(backend, hw, sched, layer)?;
                measurements += 1;
                if cutoff(&s_delays, r.delay_cycles) || cutoff(&s_energies, r.energy_nj) {
                    rejected += 1;
                } else {
                    survivors.push(r);
                }
            }
        }

        let delays: Vec<f64> = survivors.iter().map(|r| r.delay_cycles).collect();
        let energies: Vec<f64> = survivors.iter().map(|r| r.energy_nj).collect();
        let report = CostReport {
            delay_cycles: self.robust.aggregation.apply(&delays),
            energy_nj: self.robust.aggregation.apply(&energies),
            ..survivors[0]
        };
        let summary = inflate(ReplicateSummary {
            measurements,
            rejected,
            dispersion: relative_dispersion(&delays).max(relative_dispersion(&energies)),
        });
        self.count(|c| &c.replicate_measurements, measurements);
        if rejected > 0 {
            self.count(|c| &c.outliers_rejected, rejected);
        }
        Ok((report, summary))
    }

    /// One backend invocation with inline transient retries and report
    /// sanitization. Panics from the backend propagate (the layerwise
    /// search isolates them per worker). Backoff sleeps are clamped to
    /// the remaining deadline budget — with the deadline already
    /// expired the remaining budget saturates to zero and the retry
    /// loop gives up immediately, so deadline-bounded runs degrade
    /// instead of stalling in a sleep that outlives the budget.
    fn invoke_backend(
        &self,
        backend: &dyn CostBackend,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        let mut attempt: u32 = 1;
        loop {
            let result = match backend.evaluate(hw, sched, layer) {
                Ok(r) if !r.delay_cycles.is_finite() || !r.energy_nj.is_finite() => {
                    Err(EvalError::Poisoned)
                }
                other => other,
            };
            match result {
                Err(EvalError::Transient) if attempt < self.retry.max_attempts => {
                    let pause = match self.remaining_deadline() {
                        Some(remaining) if remaining.is_zero() => return Err(EvalError::Transient),
                        Some(remaining) => self.retry.backoff(attempt).min(remaining),
                        None => self.retry.backoff(attempt),
                    };
                    self.count(|c| &c.transient_retries, 1);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Wall-clock budget left before the engine deadline, saturating at
    /// zero once it has passed; `None` without a deadline.
    fn remaining_deadline(&self) -> Option<Duration> {
        self.deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    /// Records one software-schedule search driven through this engine.
    /// Search drivers call this once per per-layer schedule search so
    /// accounting tests can assert `evaluations == sw_searches * budget`
    /// exactly.
    pub fn count_sw_search(&self) {
        self.count(|c| &c.sw_searches, 1);
    }

    /// Records one layer abandoned after its worker panicked twice.
    pub fn count_failed_layer(&self) {
        self.count(|c| &c.failed_layers, 1);
    }

    /// Restores the *logical* counters from a checkpoint when resuming
    /// a killed run. Cache hit/miss counters deliberately stay at zero:
    /// they describe the physical cache of this process, which starts
    /// cold, while the logical counters describe the search so far and
    /// must carry over for the final report to match an uninterrupted
    /// run.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_logical_counters(
        &self,
        evaluations: u64,
        sw_searches: u64,
        infeasible: u64,
        quarantined: u64,
        failed_layers: u64,
        outliers_rejected: u64,
    ) {
        let c = &self.counters;
        c.evaluations.store(evaluations, Ordering::Relaxed);
        c.sw_searches.store(sw_searches, Ordering::Relaxed);
        c.infeasible.store(infeasible, Ordering::Relaxed);
        c.quarantined.store(quarantined, Ordering::Relaxed);
        c.failed_layers.store(failed_layers, Ordering::Relaxed);
        c.outliers_rejected
            .store(outliers_rejected, Ordering::Relaxed);
    }

    /// Runs `f`, charging its wall time to `phase`.
    pub fn time_phase<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_phase_wall(phase, start.elapsed());
        out
    }

    /// Charges an externally measured duration to `phase`. Used by
    /// drivers that harvest timers a component accumulated on its own —
    /// e.g. the daBO surrogate's fit/acquisition split, which is measured
    /// inside the searcher and folded in here after the search loop.
    pub fn add_phase_wall(&self, phase: Phase, elapsed: Duration) {
        self.counters.charge(phase, elapsed);
        if let Some(global) = &self.global {
            global.counters.charge(phase, elapsed);
        }
    }

    /// Logical queries answered so far.
    pub fn evaluations(&self) -> u64 {
        self.counters.evaluations.load(Ordering::Relaxed)
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> EvalStats {
        self.counters.snapshot()
    }

    /// Zeroes every counter and phase timer. The memo cache and the
    /// quarantine list survive so later runs still benefit from earlier
    /// work; call [`EvalEngine::clear_cache`] to drop the cache too.
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    /// Drops every memoized result.
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Number of distinct triples currently memoized.
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| {
            c.lock().unwrap_or_else(PoisonError::into_inner).len()
        })
    }

    /// Number of quarantined keys.
    pub fn quarantine_len(&self) -> usize {
        self.quarantine_len.load(Ordering::Relaxed) as usize
    }
}

/// A configuration the [`EvalEngineBuilder`] rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A backend name (primary or cheap-fidelity) failed to resolve.
    UnknownBackend(UnknownBackend),
    /// The requested pieces contradict each other; the message names
    /// the conflict.
    InvalidCombination {
        /// Human-readable description of the conflict.
        message: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownBackend(e) => write!(f, "{e}"),
            BuildError::InvalidCombination { message } => {
                write!(f, "invalid engine configuration: {message}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<UnknownBackend> for BuildError {
    fn from(e: UnknownBackend) -> Self {
        BuildError::UnknownBackend(e)
    }
}

/// Which cache the built engine carries.
enum CacheChoice {
    /// Private unbounded cache (the default).
    Private,
    /// Private cache, FIFO-bounded to this many entries.
    Capped(usize),
    /// A [`SharedCache`] handle other engines may also hold.
    Shared(SharedCache),
    /// No memoization at all.
    Disabled,
}

/// The single construction path for configured [`EvalEngine`]s.
///
/// Pieces compose in one canonical order, regardless of the order the
/// setters are called in:
///
/// 1. **backend** — by name ([`EvalEngineBuilder::backend`]) or an
///    explicit instance ([`EvalEngineBuilder::custom_backend`]);
/// 2. **faults** — a [`FaultInjectingBackend`] wraps the backend;
/// 3. **noise** — a [`NoisyBackend`] wraps the (possibly faulty)
///    backend, so a report that survives the fault schedule is then
///    perturbed;
/// 4. **robust** — the k-replicate measurement policy;
/// 5. **fidelity** — the successive-halving ladder, including the
///    coarse backend of [`FidelityMode::Backend`] (which stays
///    *undecorated*: the cheap model is deterministic even when the
///    primary backend rehearses faults or noise);
/// 6. **cache** — private, capped, shared, or disabled.
///
/// ```
/// use spotlight_eval::{Aggregation, EvalEngine, RobustPolicy};
/// let engine = EvalEngine::builder()
///     .backend("sim")
///     .robust(RobustPolicy::replicated(3, Aggregation::Median))
///     .cache_cap(1024)
///     .build()
///     .unwrap();
/// assert_eq!(engine.backend_name(), "sim");
/// ```
///
/// Contradictory requests (a cache cap on a disabled cache, a fidelity
/// ladder that cheapens into the primary backend, a replicate ladder
/// with nothing to cut) fail with a typed [`BuildError`].
pub struct EvalEngineBuilder {
    backend_name: String,
    custom: Option<Box<dyn CostBackend>>,
    faults: Option<FaultPlan>,
    noise: Option<NoisePlan>,
    robust: RobustPolicy,
    fidelity: Option<FidelitySpec>,
    cache: CacheChoice,
    cache_set: bool,
    retry: RetryPolicy,
    global: Option<Arc<GlobalEvalStats>>,
    /// First conflict detected while composing; reported by `build`.
    deferred: Option<BuildError>,
}

impl Default for EvalEngineBuilder {
    fn default() -> Self {
        EvalEngineBuilder::new()
    }
}

impl EvalEngineBuilder {
    /// A builder for the default analytical (maestro) engine.
    pub fn new() -> Self {
        EvalEngineBuilder {
            backend_name: "maestro".to_string(),
            custom: None,
            faults: None,
            noise: None,
            robust: RobustPolicy::default(),
            fidelity: None,
            cache: CacheChoice::Private,
            cache_set: false,
            retry: RetryPolicy::default(),
            global: None,
            deferred: None,
        }
    }

    /// Selects the backend by name (see [`BACKEND_NAMES`]); resolution
    /// errors surface from [`EvalEngineBuilder::build`].
    pub fn backend(mut self, name: &str) -> Self {
        self.backend_name = name.to_string();
        self
    }

    /// Uses an explicit backend instance instead of a named one.
    pub fn custom_backend(mut self, backend: Box<dyn CostBackend>) -> Self {
        self.custom = Some(backend);
        self
    }

    /// Injects faults from the plan; `None` keeps the backend clean.
    pub fn faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Injects measurement noise from the plan; `None` stays noiseless.
    pub fn noise(mut self, plan: Option<NoisePlan>) -> Self {
        self.noise = plan;
        self
    }

    /// Replaces the replicated-measurement policy.
    pub fn robust(mut self, robust: RobustPolicy) -> Self {
        self.robust = robust;
        self
    }

    /// Attaches a multi-fidelity ladder; `None` keeps the engine
    /// single-fidelity.
    pub fn fidelity(mut self, spec: Option<FidelitySpec>) -> Self {
        self.fidelity = spec;
        self
    }

    /// Bounds the private memo cache to `cap` entries (FIFO eviction).
    pub fn cache_cap(mut self, cap: usize) -> Self {
        self = self.note_cache_choice();
        self.cache = CacheChoice::Capped(cap);
        self
    }

    /// Attaches a [`SharedCache`] instead of a private one. Only sound
    /// between engines with identical evaluation semantics (see
    /// [`SharedCache`]).
    pub fn shared_cache(mut self, shared: &SharedCache) -> Self {
        self = self.note_cache_choice();
        self.cache = CacheChoice::Shared(shared.clone());
        self
    }

    /// Disables memoization entirely.
    pub fn no_cache(mut self) -> Self {
        self = self.note_cache_choice();
        self.cache = CacheChoice::Disabled;
        self
    }

    fn note_cache_choice(mut self) -> Self {
        if self.cache_set && self.deferred.is_none() {
            self.deferred = Some(BuildError::InvalidCombination {
                message: "more than one cache choice \
                          (cache_cap / shared_cache / no_cache are exclusive)"
                    .to_string(),
            });
        }
        self.cache_set = true;
        self
    }

    /// Replaces the transient-retry schedule.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a process-wide [`GlobalEvalStats`] mirror.
    pub fn global_stats(mut self, global: Arc<GlobalEvalStats>) -> Self {
        self.global = Some(global);
        self
    }

    /// Assembles the engine in the canonical composition order.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownBackend`] when a backend name (primary or
    /// the fidelity ladder's cheap backend) does not resolve;
    /// [`BuildError::InvalidCombination`] when the pieces contradict
    /// each other — two cache choices, a [`FidelityMode::Backend`]
    /// ladder whose cheap backend *is* the primary backend, or a
    /// [`FidelityMode::Replicate`] ladder on a single-shot robust
    /// policy (no replicates to cut).
    pub fn build(self) -> Result<EvalEngine, BuildError> {
        let invalid = |message: &str| BuildError::InvalidCombination {
            message: message.to_string(),
        };
        if let Some(err) = self.deferred {
            return Err(err);
        }
        let mut backend = match self.custom {
            Some(custom) => custom,
            None => backend_by_name(&self.backend_name)?,
        };
        let primary_name = backend.name();
        if let Some(plan) = self.faults {
            backend = Box::new(FaultInjectingBackend::new(backend, plan));
        }
        if let Some(plan) = self.noise {
            backend = Box::new(NoisyBackend::new(backend, plan));
        }
        let cheap_backend = match &self.fidelity {
            Some(spec) if spec.mode == FidelityMode::Backend => {
                if spec.cheap_backend == primary_name {
                    return Err(invalid(
                        "fidelity ladder's cheap backend is the primary backend; \
                         a backend-mode ladder needs a genuinely coarser model",
                    ));
                }
                Some(backend_by_name(&spec.cheap_backend)?)
            }
            _ => None,
        };
        if let Some(spec) = &self.fidelity {
            if spec.mode == FidelityMode::Replicate && self.robust.replicates <= 1 {
                return Err(invalid(
                    "replicate-mode fidelity ladder on a single-shot robust policy; \
                     set replicates > 1 so cheap rungs have something to cut",
                ));
            }
        }
        let cache = match self.cache {
            CacheChoice::Private => Some(Arc::new(Mutex::new(MemoCache::new(None)))),
            CacheChoice::Capped(cap) => Some(Arc::new(Mutex::new(MemoCache::new(Some(cap))))),
            CacheChoice::Shared(shared) => Some(shared.inner),
            CacheChoice::Disabled => None,
        };
        Ok(EvalEngine {
            backend,
            cache,
            global: self.global,
            retry: self.retry,
            robust: self.robust,
            fidelity: self.fidelity,
            cheap_backend,
            deadline: Mutex::new(None),
            quarantine: Mutex::new(HashSet::new()),
            quarantine_len: AtomicU64::new(0),
            counters: Counters::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlight_accel::DataflowStyle;
    use spotlight_space::dataflows::dataflow_schedule;
    use spotlight_space::{Schedule as Sched, TileSizes};

    /// [`EvalEngine::measure`] with the disabled observer.
    fn measured(
        engine: &EvalEngine,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
        fidelity: Fidelity,
    ) -> CacheValue {
        engine.measure(hw, sched, layer, fidelity, &Observer::null(), 0)
    }

    fn triple() -> (HardwareConfig, Schedule, ConvLayer) {
        let hw = HardwareConfig::new(256, 16, 2, 128, 256, 128).unwrap();
        let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
        let sched = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
        (hw, sched, layer)
    }

    #[test]
    fn maestro_backend_matches_direct_model() {
        let (hw, sched, layer) = triple();
        let engine = EvalEngine::default();
        let via_engine = engine.evaluate(&hw, &sched, &layer).unwrap();
        let direct = CostModel::default().evaluate(&hw, &sched, &layer).unwrap();
        assert_eq!(via_engine, direct);
    }

    #[test]
    fn cache_returns_identical_results_and_counts_hits() {
        let (hw, sched, layer) = triple();
        let engine = EvalEngine::default();
        let a = engine.evaluate(&hw, &sched, &layer);
        let b = engine.evaluate(&hw, &sched, &layer);
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(engine.cache_len(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_cache_still_counts_logical_queries() {
        let (hw, sched, layer) = triple();
        let engine = EvalEngine::builder().no_cache().build().unwrap();
        let a = engine.evaluate(&hw, &sched, &layer);
        let b = engine.evaluate(&hw, &sched, &layer);
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 2);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn infeasible_counter_tracks_errors_even_when_cached() {
        // The whole layer as one RF tile overflows any edge register file.
        let (hw, _, layer) = triple();
        let sched = Sched::trivial(&layer).with_tiles(TileSizes::whole_layer(&layer));
        let engine = EvalEngine::default();
        assert!(engine.evaluate(&hw, &sched, &layer).is_err());
        assert!(engine.evaluate(&hw, &sched, &layer).is_err());
        let stats = engine.stats();
        assert_eq!(stats.infeasible, 2);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn sim_backend_falls_back_on_too_large_nests() {
        let (hw, sched, layer) = triple();
        // Cap of zero iterations forces TooLarge on every nest.
        let capped = SimBackend::new(CostModel::default(), 0);
        let analytical = CostModel::default().evaluate(&hw, &sched, &layer).unwrap();
        assert_eq!(capped.evaluate(&hw, &sched, &layer).unwrap(), analytical);

        // With a generous cap the simulated delay takes over.
        let sim = SimBackend::default();
        let r = sim.evaluate(&hw, &sched, &layer).unwrap();
        assert_eq!(r.energy_nj, analytical.energy_nj);
        assert_eq!(r.area_mm2, analytical.area_mm2);
        assert!(r.delay_cycles.is_finite() && r.delay_cycles > 0.0);
    }

    #[test]
    fn timeloop_backend_reports_edp_fields() {
        // The unit-tile trivial schedule always passes the stricter
        // double-buffered capacity checks.
        let (hw, _, layer) = triple();
        let sched = Sched::trivial(&layer);
        let engine = EvalEngine::builder().backend("timeloop").build().unwrap();
        let r = engine.evaluate(&hw, &sched, &layer).unwrap();
        let direct = TimeloopModel::default()
            .evaluate(&hw, &sched, &layer)
            .unwrap();
        assert_eq!(r.delay_cycles, direct.delay_cycles);
        assert_eq!(r.energy_nj, direct.energy_nj);
        assert_eq!(r.dram_bytes, direct.dram_bytes);
    }

    #[test]
    fn backend_names_resolve_through_the_builder() {
        for name in BACKEND_NAMES {
            let engine = EvalEngine::builder().backend(name).build().unwrap();
            assert_eq!(engine.backend_name(), name);
        }
        let err = backend_by_name("abacus").err().unwrap();
        assert_eq!(err.requested, "abacus");
        for name in BACKEND_NAMES {
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    #[test]
    fn observed_evaluation_attributes_to_span() {
        use spotlight_obs::MemorySink;
        use std::sync::Arc;

        let (hw, sched, layer) = triple();
        let engine = EvalEngine::default();
        let sink = Arc::new(MemorySink::new());
        let obs = Observer::new(sink.clone()).with_hw_sample(2).with_layer(1);
        let ok = engine.measure(&hw, &sched, &layer, Fidelity::Full, &obs, 0);
        assert!(ok.is_ok());
        let bad = Sched::trivial(&layer).with_tiles(TileSizes::whole_layer(&layer));
        assert!(engine
            .measure(&hw, &bad, &layer, Fidelity::Full, &obs, 1)
            .is_err());
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].span_key(), (Some(2), Some(1)));
        assert!(matches!(
            recs[0].event,
            Event::ScheduleEvaluated { step: 0, .. }
        ));
        match &recs[1].event {
            Event::Infeasible { step: 1, reason } => assert!(!reason.is_empty()),
            other => panic!("expected infeasible, got {other:?}"),
        }
        // Observed evaluation is counted exactly like the plain one.
        assert_eq!(engine.stats().evaluations, 2);

        // `evaluate` is `measure` minus the summary, bit for bit, and the
        // observer never changes what is measured, counted or cached:
        // misses, an infeasible point, then cache hits for both.
        let plain = EvalEngine::default();
        let quiet = EvalEngine::default();
        let observed = EvalEngine::default();
        let bits = |r: &Result<CostReport, EvalError>| {
            r.as_ref()
                .ok()
                .map(|r| (r.delay_cycles.to_bits(), r.energy_nj.to_bits()))
        };
        for (step, s) in [sched, bad, sched, bad].iter().enumerate() {
            let want = plain.evaluate(&hw, s, &layer);
            let got = measured(&quiet, &hw, s, &layer, Fidelity::Full);
            let seen = observed.measure(&hw, s, &layer, Fidelity::Full, &obs, step as u64);
            assert_eq!(seen, got);
            let got = got.map(|(r, _)| r);
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(got, want);
        }
        assert_eq!(observed.stats(), quiet.stats());
        assert_eq!(quiet.stats(), plain.stats());
        assert_eq!(plain.stats().cache_hits, 2);
        assert_eq!(observed.cache_len(), quiet.cache_len());
        assert_eq!(quiet.cache_len(), plain.cache_len());
        assert_eq!(sink.records().len(), 2 + 4);
    }

    #[test]
    fn phase_timer_accumulates_and_reset_clears() {
        let engine = EvalEngine::default();
        let v = engine.time_phase(Phase::SwSearch, || 7);
        assert_eq!(v, 7);
        engine.time_phase(Phase::SwSearch, || ());
        engine.count_sw_search();
        let stats = engine.stats();
        assert_eq!(stats.sw_searches, 1);
        assert_eq!(stats.phase_wall.len(), 1);
        assert_eq!(stats.phase_wall[0].0, "sw_search");
        engine.reset_stats();
        let stats = engine.stats();
        assert_eq!(stats, EvalStats::default());
    }

    #[test]
    fn add_phase_wall_folds_external_timers_in() {
        let engine = EvalEngine::default();
        engine.add_phase_wall(Phase::SurrogateFit, Duration::from_millis(3));
        engine.add_phase_wall(Phase::Acquisition, Duration::from_millis(2));
        engine.add_phase_wall(Phase::SurrogateFit, Duration::from_millis(1));
        let stats = engine.stats();
        // Name order: acquisition before surrogate_fit.
        assert_eq!(
            stats.phase_wall,
            vec![
                ("acquisition".to_string(), Duration::from_millis(2)),
                ("surrogate_fit".to_string(), Duration::from_millis(4)),
            ]
        );
    }

    /// Backend whose first `fail_calls` invocations fail transiently.
    struct FlakyBackend {
        fail_calls: u64,
        calls: AtomicU64,
        inner: MaestroBackend,
    }

    impl FlakyBackend {
        fn new(fail_calls: u64) -> Self {
            FlakyBackend {
                fail_calls,
                calls: AtomicU64::new(0),
                inner: MaestroBackend::default(),
            }
        }
    }

    impl CostBackend for FlakyBackend {
        fn name(&self) -> &'static str {
            "maestro"
        }

        fn evaluate(
            &self,
            hw: &HardwareConfig,
            sched: &Schedule,
            layer: &ConvLayer,
        ) -> Result<CostReport, EvalError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_calls {
                return Err(EvalError::Transient);
            }
            self.inner.evaluate(hw, sched, layer)
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    fn engine_over(backend: impl CostBackend + 'static, retry: RetryPolicy) -> EvalEngine {
        EvalEngine::builder()
            .custom_backend(Box::new(backend))
            .retry(retry)
            .build()
            .unwrap()
    }

    #[test]
    fn transient_failures_are_retried_inline() {
        let (hw, sched, layer) = triple();
        let engine = engine_over(FlakyBackend::new(2), fast_retry());
        // Two transient failures, then success, all within one query.
        assert!(engine.evaluate(&hw, &sched, &layer).is_ok());
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.transient_retries, 2);
        assert_eq!(stats.quarantined, 0);
        // The successful result was cached normally.
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn exhausted_retries_quarantine_the_key() {
        let (hw, sched, layer) = triple();
        let engine = engine_over(FlakyBackend::new(u64::MAX), fast_retry());
        assert_eq!(
            engine.evaluate(&hw, &sched, &layer),
            Err(EvalError::Transient)
        );
        // The key is now quarantined: the backend is not consulted again.
        assert_eq!(
            engine.evaluate(&hw, &sched, &layer),
            Err(EvalError::Quarantined)
        );
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 2);
        assert_eq!(stats.quarantined, 2);
        assert_eq!(stats.infeasible, 0);
        assert_eq!(stats.transient_retries, 2);
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.evaluations);
        assert_eq!(engine.quarantine_len(), 1);
        // Transient results are never memoized.
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn poisoned_reports_are_sanitized_and_quarantined() {
        struct PoisonBackend;
        impl CostBackend for PoisonBackend {
            fn name(&self) -> &'static str {
                "maestro"
            }
            fn evaluate(
                &self,
                _: &HardwareConfig,
                _: &Schedule,
                _: &ConvLayer,
            ) -> Result<CostReport, EvalError> {
                Ok(CostReport::zeroed_for_tests(f64::NAN, 1.0))
            }
        }
        let (hw, sched, layer) = triple();
        let engine = engine_over(PoisonBackend, fast_retry());
        assert_eq!(
            engine.evaluate(&hw, &sched, &layer),
            Err(EvalError::Poisoned)
        );
        assert_eq!(
            engine.evaluate(&hw, &sched, &layer),
            Err(EvalError::Quarantined)
        );
        let stats = engine.stats();
        assert_eq!(stats.quarantined, 2);
        assert_eq!(stats.infeasible, 0);
        assert_eq!(stats.cache_hits + stats.cache_misses, stats.evaluations);
    }

    #[test]
    fn restored_counters_feed_the_next_snapshot() {
        let engine = EvalEngine::default();
        engine.restore_logical_counters(10, 2, 3, 1, 1, 4);
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 10);
        assert_eq!(stats.sw_searches, 2);
        assert_eq!(stats.infeasible, 3);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.failed_layers, 1);
        assert_eq!(stats.outliers_rejected, 4);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn retry_backoff_is_bounded_and_deterministic() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(1), Duration::from_millis(1));
        assert_eq!(policy.backoff(2), Duration::from_millis(2));
        assert_eq!(policy.backoff(3), Duration::from_millis(4));
        assert_eq!(policy.backoff(10), Duration::from_millis(4));
    }

    #[test]
    fn engine_is_shareable_across_scoped_threads() {
        let (hw, sched, layer) = triple();
        let engine = EvalEngine::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| engine.evaluate(&hw, &sched, &layer).unwrap());
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 4);
        assert_eq!(engine.cache_len(), 1);
        assert_eq!(stats.cache_hits + stats.cache_misses, 4);
    }

    /// A distinct (hw, sched, layer) key per input size, for cache tests.
    fn keyed_triple(size: u64) -> (HardwareConfig, Schedule, ConvLayer) {
        let hw = HardwareConfig::new(256, 16, 2, 128, 256, 128).unwrap();
        let layer = ConvLayer::new(1, 64, 32, 3, 3, size, size);
        let sched = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
        (hw, sched, layer)
    }

    #[test]
    fn default_policy_measures_once_with_single_summary() {
        let (hw, sched, layer) = triple();
        let engine = EvalEngine::default();
        let (report, summary) = measured(&engine, &hw, &sched, &layer, Fidelity::Full).unwrap();
        assert_eq!(summary, ReplicateSummary::single());
        assert_eq!(report, engine.evaluate(&hw, &sched, &layer).unwrap());
        let stats = engine.stats();
        // Replication counters stay untouched on the single-shot path.
        assert_eq!(stats.replicate_measurements, 0);
        assert_eq!(stats.outliers_rejected, 0);
    }

    #[test]
    fn replicated_noisy_measurement_aggregates_and_is_reproducible() {
        let (hw, sched, layer) = triple();
        let plan: NoisePlan = "seed=7,model=gauss,sigma=0.1".parse().unwrap();
        let make = || {
            EvalEngine::builder()
                .noise(Some(plan))
                .robust(RobustPolicy::replicated(5, Aggregation::Median))
                .build()
                .unwrap()
        };
        let engine = make();
        let (report, summary) = measured(&engine, &hw, &sched, &layer, Fidelity::Full).unwrap();
        let clean = CostModel::default().evaluate(&hw, &sched, &layer).unwrap();
        // The median of five replicates lands near the clean value but
        // (with sigma=0.1) not exactly on it.
        assert!((report.delay_cycles / clean.delay_cycles - 1.0).abs() < 0.2);
        assert_ne!(report.delay_cycles, clean.delay_cycles);
        assert!(summary.measurements >= 5);
        assert!(summary.dispersion > 0.0);
        assert_eq!(engine.stats().replicate_measurements, summary.measurements);
        // A fresh engine with the same plan reproduces the measurement
        // bit-for-bit: replicate ordinals restart per engine.
        let again = measured(&make(), &hw, &sched, &layer, Fidelity::Full).unwrap();
        assert_eq!(again, (report, summary));
        // And a cache hit replays the identical summary.
        assert_eq!(
            measured(&engine, &hw, &sched, &layer, Fidelity::Full).unwrap(),
            (report, summary)
        );
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn heavy_noise_outliers_are_rejected_and_counted() {
        let plan: NoisePlan = "seed=11,model=heavy,sigma=0.05".parse().unwrap();
        let engine = EvalEngine::builder()
            .noise(Some(plan))
            .robust(RobustPolicy::replicated(7, Aggregation::Median))
            .build()
            .unwrap();
        // Enough distinct points that the Cauchy tail is certain (for
        // this seed) to plant gross outliers in some replicate set.
        for size in 8..40 {
            let (hw, sched, layer) = keyed_triple(size);
            engine.evaluate(&hw, &sched, &layer).unwrap();
        }
        let stats = engine.stats();
        assert!(stats.outliers_rejected > 0, "{stats:?}");
        // Rejected replicates were replaced within the re-measure budget.
        assert!(stats.replicate_measurements >= 32 * 7 + stats.outliers_rejected / 2);
    }

    #[test]
    fn bounded_cache_evicts_in_insertion_order() {
        let engine = EvalEngine::builder().cache_cap(2).build().unwrap();
        let keys: Vec<_> = [24, 26, 28].iter().map(|&s| keyed_triple(s)).collect();
        for (hw, sched, layer) in &keys {
            engine.evaluate(hw, sched, layer).unwrap();
        }
        assert_eq!(engine.cache_len(), 2);
        assert_eq!(engine.stats().evictions, 1);
        // The newest key is still memoized...
        let (hw, sched, layer) = &keys[2];
        engine.evaluate(hw, sched, layer).unwrap();
        assert_eq!(engine.stats().cache_hits, 1);
        // ...while the oldest was evicted and recomputes as a miss.
        let (hw, sched, layer) = &keys[0];
        engine.evaluate(hw, sched, layer).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 4);
        assert_eq!(stats.evictions, 2);
        assert_eq!(engine.cache_len(), 2);
    }

    #[test]
    fn expired_deadline_abandons_retry_backoff() {
        let (hw, sched, layer) = triple();
        let engine = engine_over(FlakyBackend::new(2), fast_retry());
        engine.set_deadline(Some(Instant::now()));
        // The first transient failure would normally retry; with the
        // deadline already passed the engine gives up immediately.
        assert_eq!(
            engine.evaluate(&hw, &sched, &layer),
            Err(EvalError::Transient)
        );
        assert_eq!(engine.stats().transient_retries, 0);
        // Clearing the deadline restores inline retries (fresh key so
        // the quarantine from the abandoned attempt doesn't shortcut).
        engine.set_deadline(None);
        let (hw2, sched2, layer2) = keyed_triple(20);
        assert!(engine.evaluate(&hw2, &sched2, &layer2).is_ok());
        assert_eq!(engine.stats().transient_retries, 1);
    }

    #[test]
    fn backoff_sleeps_are_clamped_to_the_remaining_deadline() {
        // Regression: with a huge backoff and a nearly-spent deadline,
        // the retry sleep must be clamped to the remaining budget
        // instead of sleeping the full backoff past the deadline.
        let (hw, sched, layer) = triple();
        let slow = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_secs(60),
            cap: Duration::from_secs(60),
        };
        let engine = engine_over(FlakyBackend::new(1), slow);
        engine.set_deadline(Some(Instant::now() + Duration::from_millis(30)));
        let start = Instant::now();
        assert!(engine.evaluate(&hw, &sched, &layer).is_ok());
        // The single retry slept the clamped remainder, not the 60s base.
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(engine.stats().transient_retries, 1);
    }

    #[test]
    fn builder_composes_in_canonical_order() {
        let faults: FaultPlan = "seed=3,latency=0".parse().unwrap();
        let noise: NoisePlan = "seed=7,model=gauss,sigma=0.05".parse().unwrap();
        let engine = EvalEngine::builder()
            .backend("sim")
            .faults(Some(faults))
            .noise(Some(noise))
            .robust(RobustPolicy::replicated(3, Aggregation::Median))
            .cache_cap(64)
            .build()
            .unwrap();
        // The decorators surface their specs; the name stays the real
        // backend's.
        assert_eq!(engine.backend_name(), "sim");
        assert_eq!(engine.faults().as_deref(), Some(&faults.to_string()[..]));
        assert_eq!(engine.noise().as_deref(), Some(&noise.to_string()[..]));
        assert_eq!(engine.robust_policy().replicates, 3);
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        // Unknown primary backend.
        assert!(matches!(
            EvalEngine::builder().backend("verilator").build(),
            Err(BuildError::UnknownBackend(_))
        ));
        // Two cache choices.
        let err = EvalEngine::builder().cache_cap(2).no_cache().build();
        assert!(
            matches!(&err, Err(BuildError::InvalidCombination { message })
                if message.contains("cache")),
            "{err:?}"
        );
        // Backend-mode ladder whose cheap backend is the primary.
        let spec: FidelitySpec = "fidelity=backend:maestro".parse().unwrap();
        let err = EvalEngine::builder().fidelity(Some(spec)).build();
        assert!(
            matches!(&err, Err(BuildError::InvalidCombination { message })
                if message.contains("primary backend")),
            "{err:?}"
        );
        // Replicate-mode ladder with nothing to cut.
        let spec: FidelitySpec = "fidelity=replicate:0.25".parse().unwrap();
        let err = EvalEngine::builder().fidelity(Some(spec)).build();
        assert!(
            matches!(&err, Err(BuildError::InvalidCombination { message })
                if message.contains("single-shot")),
            "{err:?}"
        );
    }

    #[test]
    fn fidelity_keyed_cache_never_aliases_cheap_and_full() {
        // The unit-tile trivial schedule is feasible under both the
        // maestro and the stricter timeloop capacity checks.
        let (hw, _, layer) = triple();
        let sched = Sched::trivial(&layer);
        let spec: FidelitySpec = "fidelity=backend:timeloop".parse().unwrap();
        let engine = EvalEngine::builder().fidelity(Some(spec)).build().unwrap();
        let cheap = measured(&engine, &hw, &sched, &layer, Fidelity::Rung(0)).unwrap();
        let full = measured(&engine, &hw, &sched, &layer, Fidelity::Full).unwrap();
        // The coarse backend reports different numbers with inflated
        // dispersion; both live in the cache under distinct keys.
        assert_ne!(cheap.0.delay_cycles, full.0.delay_cycles);
        assert!(cheap.1.dispersion > 0.0);
        assert_eq!(full.1.dispersion, 0.0);
        assert_eq!(engine.cache_len(), 2);
        // Replays hit their own fidelity's entry bit-for-bit.
        assert_eq!(
            measured(&engine, &hw, &sched, &layer, Fidelity::Rung(0)).unwrap(),
            cheap
        );
        assert_eq!(
            measured(&engine, &hw, &sched, &layer, Fidelity::Full).unwrap(),
            full
        );
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.fidelity_cheap_evals, 2);
        assert_eq!(stats.fidelity_full_evals, 2);
    }

    #[test]
    fn replicate_ladder_cuts_measurements_and_inflates_dispersion() {
        let (hw, sched, layer) = triple();
        let noise: NoisePlan = "seed=7,model=gauss,sigma=0.1".parse().unwrap();
        let spec: FidelitySpec = "fidelity=replicate:0.2,rungs=3".parse().unwrap();
        let inflation = spec.variance_inflation(0);
        let engine = EvalEngine::builder()
            .noise(Some(noise))
            .robust(RobustPolicy::replicated(5, Aggregation::Median))
            .fidelity(Some(spec))
            .build()
            .unwrap();
        // Rung 0 of a 0.2-fraction ladder takes a single measurement...
        let (_, cheap) = measured(&engine, &hw, &sched, &layer, Fidelity::Rung(0)).unwrap();
        assert_eq!(engine.stats().replicate_measurements, 0);
        // ...and its dispersion still carries the rung's inflation.
        assert!((cheap.dispersion * cheap.dispersion - inflation).abs() < 1e-9);
        // Full fidelity takes all five.
        let (_, full) = measured(&engine, &hw, &sched, &layer, Fidelity::Full).unwrap();
        assert!(engine.stats().replicate_measurements >= 5);
        assert!(full.measurements >= 5);
        assert!(full.dispersion < cheap.dispersion);
    }

    #[test]
    fn full_fidelity_without_a_spec_matches_the_historical_path() {
        let (hw, sched, layer) = triple();
        let plain = EvalEngine::default();
        let tagged = measured(&plain, &hw, &sched, &layer, Fidelity::Full).unwrap();
        let direct = CostModel::default().evaluate(&hw, &sched, &layer).unwrap();
        assert_eq!(tagged, (direct, ReplicateSummary::single()));
        // Without a spec the fidelity counters stay untouched.
        let stats = plain.stats();
        assert_eq!(stats.fidelity_cheap_evals, 0);
        assert_eq!(stats.fidelity_full_evals, 0);
    }

    /// Every `CostReport` field as raw bits; the exhaustive destructure
    /// breaks the build if a field is added and not compared.
    fn report_bits(r: &CostReport) -> [u64; 21] {
        let CostReport {
            delay_cycles,
            energy_nj,
            area_mm2,
            power_w,
            pe_utilization,
            macs,
            dram_bytes,
            dram_weight_bytes,
            dram_input_bytes,
            dram_output_bytes,
            l2_bytes,
            rf_accesses,
            compute_cycles,
            dram_cycles,
            noc_cycles,
            energy_mac_nj,
            energy_rf_nj,
            energy_l2_nj,
            energy_dram_nj,
            energy_noc_nj,
            energy_leak_nj,
        } = *r;
        [
            delay_cycles,
            energy_nj,
            area_mm2,
            power_w,
            pe_utilization,
            macs,
            dram_bytes,
            dram_weight_bytes,
            dram_input_bytes,
            dram_output_bytes,
            l2_bytes,
            rf_accesses,
            compute_cycles,
            dram_cycles,
            noc_cycles,
            energy_mac_nj,
            energy_rf_nj,
            energy_l2_nj,
            energy_dram_nj,
            energy_noc_nj,
            energy_leak_nj,
        ]
        .map(f64::to_bits)
    }

    /// [`SimBackend::evaluate`] without its memo: the analytical model
    /// composed with the tile simulator.
    fn sim_uncached(
        (model, max_iterations): (CostModel, u64),
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        let analytical = model
            .evaluate(hw, sched, layer)
            .map_err(EvalError::Mapping)?;
        match simulate(&model, &analytical, hw, sched, layer, max_iterations) {
            Ok(sim) => Ok(CostReport {
                delay_cycles: sim.delay_cycles,
                dram_bytes: sim.dram_bytes,
                ..analytical
            }),
            Err(SimError::TooLarge { .. }) => Ok(analytical),
        }
    }

    /// Triples drawn per memo case; op picks at or past it repeat the
    /// previous triple.
    const MEMO_POOL: usize = 4;
    /// Backends a memo case interleaves.
    const MEMO_BACKENDS: usize = 3;
    const MEMO_CASES: u32 = 64;

    /// What a memo case exercised.
    #[derive(Debug, Default)]
    struct MemoCoverage {
        /// Calls repeating the previous call's backend and triple.
        repeats: usize,
        /// Calls repeating the call two back, with another in between.
        aba: usize,
        /// Calls whose result is an error.
        errors: usize,
        /// Calls answered by the analytical `TooLarge` fallback.
        fallbacks: usize,
    }

    /// A memo case: a seed for the triple pool, then `(pick, backend)`
    /// ops costed in order on this thread.
    fn memo_ops() -> impl proptest::strategy::Strategy<Value = (u64, Vec<(usize, usize)>)> {
        (
            0u64..1_000_000,
            proptest::collection::vec((0usize..MEMO_POOL + 2, 0usize..MEMO_BACKENDS), 1..24),
        )
    }

    /// Runs one memo case and checks every result against
    /// [`sim_uncached`] bit for bit. Neighbouring pool triples differ in
    /// one component each (layer, then schedule, then hardware), and the
    /// backends differ in cap (`1 << 4` against `1 << 20`) or in model,
    /// so a memo that dropped any part of its key would answer wrongly.
    fn memo_case(seed: u64, ops: &[(usize, usize)]) -> Result<MemoCoverage, String> {
        use proptest::prop_assert_eq;
        use rand::SeedableRng;
        use spotlight_accel::{AreaModel, EnergyTable};
        use spotlight_maestro::ModelParams;
        use spotlight_space::{sample, ParamRanges};

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (small, large) = (
            ConvLayer::new(1, 16, 8, 3, 3, 8, 8),
            ConvLayer::new(1, 32, 16, 3, 3, 14, 14),
        );
        let hw0 = sample::sample_hw(&mut rng, &ParamRanges::edge());
        let hw1 = sample::sample_hw(&mut rng, &ParamRanges::edge());
        // Uniform schedules are mostly infeasible; the later ones fit hw0.
        let uniform = sample::sample_schedule(&mut rng, &small);
        let (rf, l2) = (hw0.rf_bytes_per_pe(), hw0.l2_bytes());
        let fitted = sample::sample_feasible_schedule(&mut rng, &large, rf, l2, 64);
        let pool: [(HardwareConfig, Schedule, ConvLayer); MEMO_POOL] = [
            (hw0, uniform, small),
            (hw0, uniform, large),
            (hw0, fitted, large),
            (hw1, fitted, large),
        ];
        let other_model = CostModel::new(
            ModelParams {
                rf_accesses_per_mac: 4.0,
                ..ModelParams::default()
            },
            EnergyTable::default_8bit(),
            AreaModel::default(),
        );
        let params: [(CostModel, u64); MEMO_BACKENDS] = [
            (CostModel::default(), 1 << 4),
            (CostModel::default(), 1 << 20),
            (other_model, 1 << 20),
        ];
        let backends = params.map(|(model, cap)| SimBackend::new(model, cap));

        let mut cov = MemoCoverage::default();
        let mut history: [Option<(usize, usize)>; 2] = [None, None];
        let mut current = 0;
        for &(pick, b) in ops {
            if pick < MEMO_POOL {
                current = pick;
            }
            let (hw, sched, layer) = &pool[current];
            let got = backends[b].evaluate(hw, sched, layer);
            let want = sim_uncached(params[b], hw, sched, layer);
            match (&got, &want) {
                (Ok(g), Ok(w)) => prop_assert_eq!(
                    report_bits(g),
                    report_bits(w),
                    "{} on {} with backend {}",
                    sched,
                    layer,
                    b
                ),
                _ => prop_assert_eq!(got, want, "{} on {} with backend {}", sched, layer, b),
            }

            let call = Some((current, b));
            if history[1] == call {
                cov.repeats += 1;
            } else if history[0] == call {
                cov.aba += 1;
            }
            history = [history[1], call];
            if want.is_err() {
                cov.errors += 1;
            } else {
                let (model, cap) = &params[b];
                let analytical = model
                    .evaluate(hw, sched, layer)
                    .expect("an uncached success is feasible");
                if matches!(
                    simulate(model, &analytical, hw, sched, layer, *cap),
                    Err(SimError::TooLarge { .. })
                ) {
                    cov.fallbacks += 1;
                }
            }
        }
        Ok(cov)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(MEMO_CASES))]

        /// The per-thread memo is invisible: back-to-back repeats, A-B-A
        /// patterns, errors and fallbacks, interleaved across two caps,
        /// all return exactly what an uncached evaluation returns.
        #[test]
        fn sim_memo_is_transparent(case in memo_ops()) {
            memo_case(case.0, &case.1)?;
        }
    }

    #[test]
    fn sim_memo_cases_are_not_vacuous() {
        // Replays the property's own draws and requires them to cover
        // every path through the memo.
        use proptest::strategy::Strategy;
        let mut rng = proptest::rng_for(concat!(module_path!(), "::sim_memo_is_transparent"));
        let mut total = MemoCoverage::default();
        for _ in 0..MEMO_CASES {
            let (seed, ops) = memo_ops().sample(&mut rng);
            let cov = memo_case(seed, &ops).unwrap();
            total.repeats += cov.repeats;
            total.aba += cov.aba;
            total.errors += cov.errors;
            total.fallbacks += cov.fallbacks;
        }
        assert!(
            total.repeats > 0 && total.aba > 0 && total.errors > 0 && total.fallbacks > 0,
            "{total:?}"
        );
    }

    #[test]
    fn sim_backend_walks_at_its_models_dram_bandwidth() {
        // A DRAM-bound point: the reduction loop C outside the output
        // loops re-reads partial sums. Halving the model's DRAM bandwidth
        // must slow the simulated walk, not only the analytical fields.
        use spotlight_accel::{AreaModel, EnergyTable};
        use spotlight_conv::{Dim::*, LoopPermutation};
        use spotlight_maestro::ModelParams;
        use spotlight_space::TileSizes;

        let layer = ConvLayer::new(1, 64, 64, 3, 3, 28, 28);
        let hw = HardwareConfig::new(256, 16, 2, 128, 256, 64).unwrap();
        let tiles = TileSizes::new(&layer, [1, 2, 2, 3, 3, 7, 7], [1; 7]).unwrap();
        let outer = LoopPermutation::new([C, K, X, Y, N, R, S]).unwrap();
        let sched = Schedule::new(tiles, outer, LoopPermutation::canonical(), N, C);
        let slow_model = CostModel::new(
            ModelParams {
                dram_bandwidth: 16.0,
                ..ModelParams::default()
            },
            EnergyTable::default_8bit(),
            AreaModel::default(),
        );

        let model = CostModel::default();
        let analytical = model.evaluate(&hw, &sched, &layer).unwrap();
        let walk = simulate(&model, &analytical, &hw, &sched, &layer, 1 << 20).unwrap();
        assert!(walk.stall_cycles > 0.0, "the point must be DRAM-bound");

        let fast = SimBackend::default().evaluate(&hw, &sched, &layer).unwrap();
        let slow = SimBackend::new(slow_model, 1 << 20)
            .evaluate(&hw, &sched, &layer)
            .unwrap();
        assert_eq!(fast.delay_cycles, walk.delay_cycles);
        assert!(
            slow.delay_cycles > fast.delay_cycles,
            "16 B/cycle: {} cycles, 32 B/cycle: {} cycles",
            slow.delay_cycles,
            fast.delay_cycles
        );
        assert_eq!(slow.dram_bytes, fast.dram_bytes);
    }
}
