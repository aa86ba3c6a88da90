//! Deterministic fault injection for robustness testing.
//!
//! [`FaultInjectingBackend`] decorates any [`CostBackend`] and injects
//! four failure modes — worker panics, transient errors, latency spikes,
//! and NaN-poisoned reports — from a seeded, replayable schedule. The
//! decision for every backend call is a pure function of
//! `(plan seed, key fingerprint, per-key attempt ordinal)`, so the fault
//! schedule is identical at any thread count and across process
//! restarts: the property the resume machinery and the determinism tests
//! lean on. The draws, fingerprint hasher, ordinals and spec grammar are
//! the shared ones in [`spotlight_obs::seeded`].
//!
//! The schedule is intentionally *not* a function of wall time or call
//! order across keys. Two runs that evaluate the same set of triples see
//! the same faults on the same triples even if the interleaving differs.

use std::cell::Cell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::time::Duration;

use spotlight_accel::HardwareConfig;
use spotlight_conv::ConvLayer;
use spotlight_maestro::CostReport;
use spotlight_obs::seeded::{draw, Fnv1a, Grammar, Ordinals, PlanError};
use spotlight_space::Schedule;

use crate::{CostBackend, EvalError};

/// Stable 64-bit FNV-1a fingerprint of an evaluation triple. Shared by
/// the fault and noise schedules and the engine's quarantine list.
///
/// The engine measures a point's replicates back to back, and the fault
/// and noise decorators both fingerprint every replicate, so each thread
/// keeps the last triple it fingerprinted and reuses its value.
pub fn key_fingerprint(hw: &HardwareConfig, sched: &Schedule, layer: &ConvLayer) -> u64 {
    type Triple = (HardwareConfig, Schedule, ConvLayer);
    thread_local! {
        static LAST: Cell<Option<(Triple, u64)>> = const { Cell::new(None) };
    }
    let triple = (*hw, *sched, *layer);
    LAST.with(|last| match last.get() {
        Some((t, fp)) if t == triple => fp,
        _ => {
            let mut h = Fnv1a::default();
            hw.hash(&mut h);
            sched.hash(&mut h);
            layer.hash(&mut h);
            let fp = h.finish();
            last.set(Some((triple, fp)));
            fp
        }
    })
}

const GRAMMAR: Grammar = Grammar {
    plan: "fault plan",
    example: "seed=7,transient=0.05,poison=0.01,panic=0.002,latency=0.01,latency_ms=1",
};

/// A seeded fault-injection schedule. Parsed from the CLI `--faults`
/// flag; the canonical `Display` form round-trips through [`FromStr`]
/// and is what the run manifest records so `resume` can rebuild the
/// identical schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault schedule (independent of the search seed).
    pub seed: u64,
    /// Probability a backend call fails with [`EvalError::Transient`].
    pub transient: f64,
    /// Probability a successful report comes back NaN-poisoned.
    pub poison: f64,
    /// Probability a backend call panics.
    pub panic: f64,
    /// Probability a backend call sleeps for `latency_ms` first.
    pub latency: f64,
    /// Duration of an injected latency spike, in milliseconds.
    pub latency_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            transient: 0.0,
            poison: 0.0,
            panic: 0.0,
            latency: 0.0,
            latency_ms: 1,
        }
    }
}

/// What the schedule injects for one backend call. The fields are
/// checked in declaration order: a panic preempts everything, a
/// transient preempts latency and poison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// The call panics.
    pub panic: bool,
    /// The call returns [`EvalError::Transient`].
    pub transient: bool,
    /// The call sleeps for the plan's latency spike first.
    pub latency: bool,
    /// A successful report is NaN-poisoned.
    pub poison: bool,
}

const SALT_PANIC: u64 = 0x0070_616e_6963; // "panic"
const SALT_TRANSIENT: u64 = 0x0074_7261_6e73; // "trans"
const SALT_LATENCY: u64 = 0x6c61_7465_6e63; // "latenc"
const SALT_POISON: u64 = 0x706f_6973_6f6e; // "poison"

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when every fault probability is zero.
    pub fn is_noop(&self) -> bool {
        self.transient == 0.0 && self.poison == 0.0 && self.panic == 0.0 && self.latency == 0.0
    }

    /// The (pure, replayable) fault decision for the `attempt`-th call
    /// on the triple fingerprinted by `key`. Exposed so determinism
    /// tests can predict the schedule without running a backend.
    pub fn decide(&self, key: u64, attempt: u64) -> FaultDecision {
        let roll = |salt| draw(self.seed, salt, key, attempt);
        FaultDecision {
            panic: roll(SALT_PANIC) < self.panic,
            transient: roll(SALT_TRANSIENT) < self.transient,
            latency: roll(SALT_LATENCY) < self.latency,
            poison: roll(SALT_POISON) < self.poison,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},transient={},poison={},panic={},latency={},latency_ms={}",
            self.seed, self.transient, self.poison, self.panic, self.latency, self.latency_ms
        )
    }
}

impl FromStr for FaultPlan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        GRAMMAR.read(s, |key, value| {
            match key {
                "seed" => plan.seed = GRAMMAR.value(key, "u64", value)?,
                "transient" => plan.transient = GRAMMAR.value(key, "float", value)?,
                "poison" => plan.poison = GRAMMAR.value(key, "float", value)?,
                "panic" => plan.panic = GRAMMAR.value(key, "float", value)?,
                "latency" => plan.latency = GRAMMAR.value(key, "float", value)?,
                "latency_ms" => plan.latency_ms = GRAMMAR.value(key, "u64", value)?,
                other => return Err(GRAMMAR.unknown(other)),
            }
            Ok(())
        })?;
        GRAMMAR.probabilities(&[
            ("transient", plan.transient),
            ("poison", plan.poison),
            ("panic", plan.panic),
            ("latency", plan.latency),
        ])?;
        Ok(plan)
    }
}

/// Decorates a [`CostBackend`] with the seeded fault schedule of a
/// [`FaultPlan`]. Reports the inner backend's `name()` (so summaries
/// and manifests keep the real backend) and surfaces the plan through
/// [`CostBackend::faults`] for the manifest.
pub struct FaultInjectingBackend {
    inner: Box<dyn CostBackend>,
    plan: FaultPlan,
    /// Per-key call ordinals. Calls for one key are sequential in
    /// practice (the engine retries inline and quarantines before any
    /// re-query), which keeps the ordinal — and hence the schedule —
    /// thread-invariant.
    attempts: Ordinals,
}

impl FaultInjectingBackend {
    /// Wraps `inner` with the given schedule.
    pub fn new(inner: Box<dyn CostBackend>, plan: FaultPlan) -> Self {
        FaultInjectingBackend {
            inner,
            plan,
            attempts: Ordinals::default(),
        }
    }

    /// The active schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl CostBackend for FaultInjectingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn faults(&self) -> Option<String> {
        Some(self.plan.to_string())
    }

    fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        let key = key_fingerprint(hw, sched, layer);
        let attempt = self.attempts.next(key);
        let decision = self.plan.decide(key, attempt);
        if decision.panic {
            panic!("injected fault: panic on key {key:016x} attempt {attempt}");
        }
        if decision.transient {
            return Err(EvalError::Transient);
        }
        if decision.latency {
            std::thread::sleep(Duration::from_millis(self.plan.latency_ms));
        }
        let report = self.inner.evaluate(hw, sched, layer)?;
        if decision.poison {
            return Ok(CostReport {
                delay_cycles: f64::NAN,
                ..report
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaestroBackend;
    use spotlight_accel::DataflowStyle;
    use spotlight_space::dataflows::dataflow_schedule;

    fn triple() -> (HardwareConfig, Schedule, ConvLayer) {
        let hw = HardwareConfig::new(256, 16, 2, 128, 256, 128).unwrap();
        let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
        let sched = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
        (hw, sched, layer)
    }

    #[test]
    fn plan_round_trips_through_display() {
        let spec = "seed=7,transient=0.05,poison=0.01,panic=0.002,latency=0.01,latency_ms=2";
        let plan: FaultPlan = spec.parse().unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.latency_ms, 2);
        let reparsed: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn plan_rejects_bad_specs() {
        assert!("transient=1.5".parse::<FaultPlan>().is_err());
        assert!("bogus=1".parse::<FaultPlan>().is_err());
        assert!("seed".parse::<FaultPlan>().is_err());
        assert!("seed=abc".parse::<FaultPlan>().is_err());
        // Empty spec is the no-op plan.
        let plan: FaultPlan = "".parse().unwrap();
        assert!(plan.is_noop());
        // The full error text, pinned.
        let example = "(expected e.g. \"seed=7,transient=0.05,poison=0.01,panic=0.002,latency=0.01,latency_ms=1\")";
        for (spec, message) in [
            ("seed", "expected key=value, got \"seed\""),
            ("bogus=1", "unknown field \"bogus\""),
            ("poison=x", "poison must be a float, got \"x\""),
            (
                "transient=1.5",
                "transient must be a probability in [0, 1], got 1.5",
            ),
        ] {
            assert_eq!(
                spec.parse::<FaultPlan>().unwrap_err().to_string(),
                format!("invalid fault plan: {message} {example}")
            );
        }
        // A repeated key is refused, not silently overridden.
        assert_eq!(
            "seed=1,seed=2".parse::<FaultPlan>().unwrap_err().message,
            "field \"seed\" given twice"
        );
    }

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a: FaultPlan = "seed=1,transient=0.3,poison=0.3,panic=0.3,latency=0.3"
            .parse()
            .unwrap();
        let b: FaultPlan = "seed=2,transient=0.3,poison=0.3,panic=0.3,latency=0.3"
            .parse()
            .unwrap();
        let mut diverged = false;
        for key in 0..64u64 {
            let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(a.decide(key, 0), a.decide(key, 0));
            if a.decide(key, 0) != b.decide(key, 0) {
                diverged = true;
            }
        }
        assert!(diverged, "seeds 1 and 2 produced identical schedules");
        // The exact schedule, one letter per key: 'a' plus the bits
        // panic=1, transient=2, latency=4, poison=8.
        let code = |d: FaultDecision| {
            char::from(
                b'a' + (u8::from(d.panic)
                    | u8::from(d.transient) << 1
                    | u8::from(d.latency) << 2
                    | u8::from(d.poison) << 3),
            )
        };
        for (attempt, expected) in [
            (0u64, "mlbalkajdiifaeaicbjcbjnakbkiocbe"),
            (1, "aeihaaaammnagckibcpkaibfaijaofia"),
            (2, "aagojapacamcbhokbfbaaccgmcdebaai"),
        ] {
            let got: String = (0..32u64)
                .map(|key| code(a.decide(key.wrapping_mul(0x9e37_79b9_7f4a_7c15), attempt)))
                .collect();
            assert_eq!(got, expected, "attempt {attempt}");
        }
    }

    #[test]
    fn transient_then_clean_retry_follows_schedule() {
        // With transient=1 every call errors; with transient=0 none do.
        let (hw, sched, layer) = triple();
        let always = FaultInjectingBackend::new(
            Box::new(MaestroBackend::default()),
            "seed=3,transient=1".parse().unwrap(),
        );
        assert_eq!(
            always.evaluate(&hw, &sched, &layer),
            Err(EvalError::Transient)
        );
        let never = FaultInjectingBackend::new(
            Box::new(MaestroBackend::default()),
            "seed=3".parse().unwrap(),
        );
        assert!(never.evaluate(&hw, &sched, &layer).is_ok());
        assert_eq!(
            never.faults().as_deref(),
            Some("seed=3,transient=0,poison=0,panic=0,latency=0,latency_ms=1")
        );
        assert_eq!(never.name(), "maestro");
    }

    #[test]
    fn poison_yields_nan_delay() {
        let (hw, sched, layer) = triple();
        let backend = FaultInjectingBackend::new(
            Box::new(MaestroBackend::default()),
            "seed=3,poison=1".parse().unwrap(),
        );
        let report = backend.evaluate(&hw, &sched, &layer).unwrap();
        assert!(report.delay_cycles.is_nan());
        assert!(report.energy_nj.is_finite());
    }

    #[test]
    #[should_panic(expected = "injected fault: panic")]
    fn panic_probability_one_panics() {
        let (hw, sched, layer) = triple();
        let backend = FaultInjectingBackend::new(
            Box::new(MaestroBackend::default()),
            "seed=3,panic=1".parse().unwrap(),
        );
        let _ = backend.evaluate(&hw, &sched, &layer);
    }

    #[test]
    fn key_fingerprint_is_stable_and_discriminating() {
        let (hw, sched, layer) = triple();
        let a = key_fingerprint(&hw, &sched, &layer);
        let b = key_fingerprint(&hw, &sched, &layer);
        assert_eq!(a, b);
        let other = ConvLayer::new(1, 64, 32, 3, 3, 14, 14);
        assert_ne!(a, key_fingerprint(&hw, &sched, &other));
        assert_eq!(a, 0x1f1a_c884_7344_d791);
        assert_eq!(key_fingerprint(&hw, &sched, &other), 0x5284_7c40_3196_dcd1);
    }
}
