//! Deterministic measurement noise for robustness testing.
//!
//! [`NoisyBackend`] decorates any [`CostBackend`] and perturbs the
//! delay/energy of every successful report with seeded multiplicative
//! noise. Like the fault injector, every draw is a pure function of
//! `(plan seed, key fingerprint, per-key attempt ordinal)`, so a noise
//! schedule is identical at any thread count and across process
//! restarts — replicated measurements of one point differ (each call
//! advances the key's ordinal) but the *sequence* of measurements a
//! point sees is replayable.
//!
//! Two noise models ship: `gauss` (Gaussian relative error, the
//! well-behaved case) and `heavy` (Cauchy-tailed relative error, the
//! pathological case where occasional samples are wildly wrong and
//! only robust aggregation survives).

use std::fmt;
use std::str::FromStr;

use spotlight_accel::HardwareConfig;
use spotlight_conv::ConvLayer;
use spotlight_maestro::CostReport;
use spotlight_obs::seeded::{draw, splitmix64, Grammar, Ordinals, PlanError};
use spotlight_space::Schedule;

use crate::fault::key_fingerprint;
use crate::{CostBackend, EvalError};

const GRAMMAR: Grammar = Grammar {
    plan: "noise plan",
    example: "seed=7,model=gauss,sigma=0.1",
};

/// Shape of the relative measurement error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseModel {
    /// Standard-normal relative error: `value * (1 + sigma * z)`.
    #[default]
    Gauss,
    /// Standard-Cauchy relative error — no finite variance, so a small
    /// fraction of measurements land arbitrarily far from the truth.
    Heavy,
}

impl NoiseModel {
    fn as_str(&self) -> &'static str {
        match self {
            NoiseModel::Gauss => "gauss",
            NoiseModel::Heavy => "heavy",
        }
    }
}

/// A seeded measurement-noise schedule. Parsed from the CLI `--noise`
/// flag; the canonical `Display` form round-trips through [`FromStr`]
/// and is what the run manifest records so `resume` can rebuild the
/// identical schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisePlan {
    /// Seed of the noise schedule (independent of the search seed).
    pub seed: u64,
    /// Shape of the relative error.
    pub model: NoiseModel,
    /// Scale of the relative error; `0` disables the noise.
    pub sigma: f64,
}

impl Default for NoisePlan {
    fn default() -> Self {
        NoisePlan {
            seed: 0,
            model: NoiseModel::Gauss,
            sigma: 0.0,
        }
    }
}

const SALT_DELAY: u64 = 0x6e64_656c_6179; // "ndelay"
const SALT_ENERGY: u64 = 0x6e65_6e65_7267; // "nenerg"

/// Smallest multiplicative factor the schedule will apply: keeps noisy
/// reports strictly positive so they stay valid cost reports rather
/// than turning into poison.
const FACTOR_FLOOR: f64 = 1e-3;

impl NoisePlan {
    /// A plan that perturbs nothing (`sigma = 0`).
    pub fn none() -> Self {
        NoisePlan::default()
    }

    /// True when the plan leaves every report untouched.
    pub fn is_noop(&self) -> bool {
        self.sigma == 0.0
    }

    /// The relative-error variate `z` for one metric of one call.
    /// Gaussian via Box–Muller, Cauchy via the inverse CDF — both pure
    /// functions of the schedule, no RNG state anywhere.
    fn variate(&self, salt: u64, key: u64, attempt: u64) -> f64 {
        // Two decorrelated uniforms from one logical draw: re-salt the
        // second with the mixed salt so the pair never collides with
        // another metric's draw.
        let u1 = draw(self.seed, salt, key, attempt);
        let u2 = draw(self.seed, splitmix64(salt), key, attempt);
        match self.model {
            NoiseModel::Gauss => {
                // Box–Muller; guard u1 = 0 (ln(0) = -inf).
                let r = (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt();
                r * (2.0 * std::f64::consts::PI * u2).cos()
            }
            NoiseModel::Heavy => (std::f64::consts::PI * (u1 - 0.5)).tan(),
        }
    }

    /// The (pure, replayable) multiplicative factor for one metric of
    /// the `attempt`-th call on the triple fingerprinted by `key`.
    /// Exposed so determinism tests can predict the schedule without
    /// running a backend.
    pub fn factor(&self, salt: u64, key: u64, attempt: u64) -> f64 {
        if self.is_noop() {
            return 1.0;
        }
        (1.0 + self.sigma * self.variate(salt, key, attempt)).max(FACTOR_FLOOR)
    }

    /// Applies the schedule to one successful report.
    fn perturb(&self, report: CostReport, key: u64, attempt: u64) -> CostReport {
        if self.is_noop() {
            return report;
        }
        CostReport {
            delay_cycles: report.delay_cycles * self.factor(SALT_DELAY, key, attempt),
            energy_nj: report.energy_nj * self.factor(SALT_ENERGY, key, attempt),
            ..report
        }
    }
}

impl fmt::Display for NoisePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},model={},sigma={}",
            self.seed,
            self.model.as_str(),
            self.sigma
        )
    }
}

impl FromStr for NoisePlan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = NoisePlan::default();
        GRAMMAR.read(s, |key, value| {
            match key {
                "seed" => plan.seed = GRAMMAR.value(key, "u64", value)?,
                "model" => {
                    plan.model = match value {
                        "gauss" => NoiseModel::Gauss,
                        "heavy" => NoiseModel::Heavy,
                        other => {
                            return Err(GRAMMAR
                                .error(format!("model must be gauss or heavy, got {other:?}")))
                        }
                    }
                }
                "sigma" => plan.sigma = GRAMMAR.value(key, "float", value)?,
                other => return Err(GRAMMAR.unknown(other)),
            }
            Ok(())
        })?;
        if !plan.sigma.is_finite() || plan.sigma < 0.0 {
            return Err(GRAMMAR.error(format!(
                "sigma must be a finite non-negative float, got {}",
                plan.sigma
            )));
        }
        Ok(plan)
    }
}

/// Decorates a [`CostBackend`] with the seeded noise schedule of a
/// [`NoisePlan`]. Reports the inner backend's `name()` and `faults()`
/// (noise typically wraps a fault injector) and surfaces its own plan
/// through [`CostBackend::noise`] for the manifest.
pub struct NoisyBackend {
    inner: Box<dyn CostBackend>,
    plan: NoisePlan,
    /// Per-key call ordinals. Calls for one key are sequential in
    /// practice (the engine replicates inline), which keeps the ordinal
    /// — and hence the schedule — thread-invariant.
    attempts: Ordinals,
}

impl NoisyBackend {
    /// Wraps `inner` with the given schedule.
    pub fn new(inner: Box<dyn CostBackend>, plan: NoisePlan) -> Self {
        NoisyBackend {
            inner,
            plan,
            attempts: Ordinals::default(),
        }
    }

    /// The active schedule.
    pub fn plan(&self) -> &NoisePlan {
        &self.plan
    }
}

impl CostBackend for NoisyBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn faults(&self) -> Option<String> {
        self.inner.faults()
    }

    fn noise(&self) -> Option<String> {
        Some(self.plan.to_string())
    }

    fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        let report = self.inner.evaluate(hw, sched, layer)?;
        let key = key_fingerprint(hw, sched, layer);
        let attempt = self.attempts.next(key);
        Ok(self.plan.perturb(report, key, attempt))
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
        let spec = "seed=7,model=gauss,sigma=0.1";
        let plan: NoisePlan = spec.parse().unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.model, NoiseModel::Gauss);
        assert_eq!(plan.sigma, 0.1);
        let reparsed: NoisePlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, reparsed);
        let heavy: NoisePlan = "seed=1,model=heavy,sigma=0.05".parse().unwrap();
        assert_eq!(heavy.to_string().parse::<NoisePlan>().unwrap(), heavy);
    }

    #[test]
    fn plan_rejects_bad_specs() {
        assert!("sigma=-0.1".parse::<NoisePlan>().is_err());
        assert!("sigma=nan".parse::<NoisePlan>().is_err());
        assert!("model=cauchy".parse::<NoisePlan>().is_err());
        assert!("bogus=1".parse::<NoisePlan>().is_err());
        assert!("seed".parse::<NoisePlan>().is_err());
        assert!("seed=abc".parse::<NoisePlan>().is_err());
        // Empty spec is the no-op plan.
        let plan: NoisePlan = "".parse().unwrap();
        assert!(plan.is_noop());
        // The full error text, pinned.
        let example = "(expected e.g. \"seed=7,model=gauss,sigma=0.1\")";
        for (spec, message) in [
            ("seed", "expected key=value, got \"seed\""),
            ("bogus=1", "unknown field \"bogus\""),
            ("sigma=abc", "sigma must be a float, got \"abc\""),
            (
                "sigma=-0.1",
                "sigma must be a finite non-negative float, got -0.1",
            ),
        ] {
            assert_eq!(
                spec.parse::<NoisePlan>().unwrap_err().to_string(),
                format!("invalid noise plan: {message} {example}")
            );
        }
        // A repeated key is refused, not silently overridden.
        assert_eq!(
            "seed=1,seed=2".parse::<NoisePlan>().unwrap_err().message,
            "field \"seed\" given twice"
        );
    }

    #[test]
    fn factors_are_pure_and_seed_dependent() {
        let a: NoisePlan = "seed=1,model=gauss,sigma=0.2".parse().unwrap();
        let b: NoisePlan = "seed=2,model=gauss,sigma=0.2".parse().unwrap();
        let mut diverged = false;
        for key in 0..64u64 {
            let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let f = a.factor(SALT_DELAY, key, 0);
            assert_eq!(f.to_bits(), a.factor(SALT_DELAY, key, 0).to_bits());
            assert!(f >= FACTOR_FLOOR && f.is_finite());
            if f != b.factor(SALT_DELAY, key, 0) {
                diverged = true;
            }
        }
        assert!(diverged, "seeds 1 and 2 produced identical factors");
        // The exact factors, as bits, for the first four keys.
        let heavy: NoisePlan = "seed=1,model=heavy,sigma=0.2".parse().unwrap();
        for (plan, salt, attempt, expected) in [
            (
                a,
                SALT_DELAY,
                0u64,
                [
                    0x3fed_508e_76e4_2725u64,
                    0x3fec_fdaf_a3d5_c2a4,
                    0x3feb_0560_d9ef_bfea,
                    0x3fed_327b_77e7_f832,
                ],
            ),
            (
                a,
                SALT_ENERGY,
                0,
                [
                    0x3fec_8b59_e2e7_97e0,
                    0x3ff6_3bd4_5f2d_12e2,
                    0x3ff5_869d_33b6_47da,
                    0x3feb_7aa3_949c_d29c,
                ],
            ),
            (
                a,
                SALT_DELAY,
                1,
                [
                    0x3ff0_c8bd_c6cb_2c52,
                    0x3fea_f9b8_f948_9e5f,
                    0x3ff3_9504_be3d_cf46,
                    0x3ff6_cb95_0849_bd2d,
                ],
            ),
            (
                b,
                SALT_DELAY,
                0,
                [
                    0x3ff4_5b2b_a84f_9d06,
                    0x3fe8_0fa6_2cfe_54f9,
                    0x3fe7_a525_7d9e_415a,
                    0x3fe5_b42d_c52e_0b69,
                ],
            ),
            (
                heavy,
                SALT_ENERGY,
                0,
                [
                    0x3ff1_187f_25b2_2d7e,
                    0x3fe2_b8ce_0612_2d43,
                    0x3fe2_1c12_385d_c99b,
                    0x3fd6_0ecd_fc14_9fca,
                ],
            ),
        ] {
            let got: Vec<u64> = (0..4u64)
                .map(|key| {
                    plan.factor(salt, key.wrapping_mul(0x9e37_79b9_7f4a_7c15), attempt)
                        .to_bits()
                })
                .collect();
            assert_eq!(got, expected, "{plan} salt {salt:x} attempt {attempt}");
        }
    }

    #[test]
    fn replicates_of_one_key_differ_but_replay_identically() {
        let (hw, sched, layer) = triple();
        let noisy = |seed: u64| {
            NoisyBackend::new(
                Box::new(MaestroBackend::default()),
                format!("seed={seed},model=gauss,sigma=0.1")
                    .parse()
                    .unwrap(),
            )
        };
        let a = noisy(7);
        let r0 = a.evaluate(&hw, &sched, &layer).unwrap();
        let r1 = a.evaluate(&hw, &sched, &layer).unwrap();
        assert_ne!(r0.delay_cycles.to_bits(), r1.delay_cycles.to_bits());
        // A fresh backend with the same plan replays the same sequence.
        let b = noisy(7);
        let s0 = b.evaluate(&hw, &sched, &layer).unwrap();
        let s1 = b.evaluate(&hw, &sched, &layer).unwrap();
        assert_eq!(r0.delay_cycles.to_bits(), s0.delay_cycles.to_bits());
        assert_eq!(r1.delay_cycles.to_bits(), s1.delay_cycles.to_bits());
        assert_eq!(b.noise().as_deref(), Some("seed=7,model=gauss,sigma=0.1"));
        assert_eq!(b.name(), "maestro");
        assert_eq!(b.faults(), None);
    }

    #[test]
    fn gauss_noise_averages_out() {
        // The empirical mean relative error over many keys must be
        // close to zero and the spread close to sigma.
        let plan: NoisePlan = "seed=11,model=gauss,sigma=0.1".parse().unwrap();
        let n = 4096;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for key in 0..n {
            let f = plan.factor(SALT_DELAY, splitmix64(key), 0) - 1.0;
            sum += f;
            sum_sq += f * f;
        }
        let mean = sum / n as f64;
        let std = (sum_sq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.01, "mean relative error {mean}");
        assert!((std - 0.1).abs() < 0.01, "relative error spread {std}");
    }

    #[test]
    fn heavy_noise_produces_gross_outliers() {
        let plan: NoisePlan = "seed=11,model=heavy,sigma=0.05".parse().unwrap();
        let gross = (0..4096u64)
            .filter(|&key| (plan.factor(SALT_DELAY, splitmix64(key), 0) - 1.0).abs() > 1.0)
            .count();
        // A Cauchy with scale 0.05 puts ~3% of its mass beyond +-20
        // scales; Gaussian noise would put essentially none there.
        assert!(gross > 20, "only {gross} gross outliers in 4096 draws");
    }

    #[test]
    fn noop_plan_is_exactly_transparent() {
        let (hw, sched, layer) = triple();
        let clean = MaestroBackend::default()
            .evaluate(&hw, &sched, &layer)
            .unwrap();
        let noisy = NoisyBackend::new(Box::new(MaestroBackend::default()), NoisePlan::none());
        let report = noisy.evaluate(&hw, &sched, &layer).unwrap();
        assert_eq!(report.delay_cycles.to_bits(), clean.delay_cycles.to_bits());
        assert_eq!(report.energy_nj.to_bits(), clean.energy_nj.to_bits());
    }
}
