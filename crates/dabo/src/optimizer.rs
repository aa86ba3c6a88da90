//! The daBO optimizer.

use std::time::Instant;

use rand::RngCore;

use spotlight_gp::{
    BayesianLinearModel, GaussianProcess, Kernel, Matrix, PredictScratch, Surrogate,
};

use crate::acquisition::{argmax_ei, argmin_lcb};
use crate::dedup::RowDedup;
use crate::features::{FeatureMap, Standardizer};
use crate::search::{Sampler, Search, SurrogateTimers};
use crate::suffstats::SuffStats;

/// Which surrogate daBO fits over the feature space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SurrogateKind {
    /// Weight-space Bayesian linear regression — the daBO default
    /// (Section V-A's linear kernel, `O(N d^2)` fit).
    Linear,
    /// Kernelized Gaussian process (`O(N^3)` fit) — used for the Matérn
    /// comparison of Section VII-D.
    Gp(Kernel),
}

/// Which acquisition function ranks the candidate batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Lower confidence bound `mean - kappa * std` (the daBO default,
    /// Section V-B).
    LowerConfidenceBound,
    /// Expected improvement over the incumbent (the standard
    /// alternative, kept for ablations).
    ExpectedImprovement,
}

/// daBO hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaboConfig {
    /// Random observations before the surrogate is trusted.
    pub init_samples: usize,
    /// Candidates generated per acquisition round ("a batch of candidate
    /// configurations is randomly generated in parameter space").
    pub batch_size: usize,
    /// LCB exploration weight.
    pub kappa: f64,
    /// Acquisition function.
    pub acquisition: Acquisition,
    /// Surrogate model family.
    pub surrogate: SurrogateKind,
    /// Fit the surrogate on `ln(cost)` — costs span orders of magnitude.
    pub log_cost: bool,
    /// Finite cost substituted for infeasible (`f64::INFINITY`) points.
    pub penalty_cost: f64,
    /// Refit the surrogate every `refit_every` observations (1 = always).
    pub refit_every: usize,
}

impl Default for DaboConfig {
    fn default() -> Self {
        DaboConfig {
            init_samples: 8,
            batch_size: 64,
            kappa: 1.5,
            acquisition: Acquisition::LowerConfidenceBound,
            surrogate: SurrogateKind::Linear,
            log_cost: true,
            penalty_cost: 1e30,
            refit_every: 1,
        }
    }
}

/// Prior weight variance of the daBO linear surrogate.
const PRIOR_VARIANCE: f64 = 10.0;
/// Baseline observation-noise variance of the daBO surrogates. An
/// observation reported with measurement-noise variance `v` (target
/// space) gets weight `NOISE_VARIANCE / (NOISE_VARIANCE + v)` — exactly
/// 1 for noiseless measurements, shrinking toward 0 as the measurement
/// noise dwarfs the baseline.
const NOISE_VARIANCE: f64 = 1e-2;

enum FittedSurrogate {
    Linear(BayesianLinearModel),
    Gp(GaussianProcess),
}

impl FittedSurrogate {
    fn predict(&self, x: &[f64]) -> (f64, f64) {
        match self {
            FittedSurrogate::Linear(m) => m.predict(x),
            FittedSurrogate::Gp(m) => m.predict(x),
        }
    }

    fn predict_batch_into(
        &self,
        x: &Matrix,
        scratch: &mut PredictScratch,
        means: &mut [f64],
        stds: &mut [f64],
    ) {
        match self {
            FittedSurrogate::Linear(m) => m.predict_batch_into(x, scratch, means, stds),
            FittedSurrogate::Gp(m) => m.predict_batch_into(x, scratch, means, stds),
        }
    }
}

/// The domain-aware Bayesian optimizer (Section V).
///
/// `Dabo` owns three things: the [`FeatureMap`] carrying the domain
/// information, a candidate *sampler* that draws random legal points from
/// parameter space, and the observation history. Each `suggest` call
/// refits the surrogate from streaming sufficient statistics (for the
/// linear surrogate: `O(d^2)` per observation, `O(d^3)` per refit,
/// independent of history length — see [`SuffStats`]), draws a fresh
/// candidate batch, ranks it with one batched triangular solve, and
/// returns the candidate minimizing the lower confidence bound.
///
/// See the crate-level example for usage; [`crate::run_minimization`]
/// drives the ask/tell loop.
pub struct Dabo<P, M> {
    config: DaboConfig,
    feature_map: M,
    sampler: Sampler<P>,
    points: Vec<P>,
    features: Vec<Vec<f64>>,
    costs_raw: Vec<f64>,
    best: Option<(usize, f64)>,
    /// Largest finite raw cost seen — anchors the retroactive penalty
    /// target without scanning the history.
    worst_finite: f64,
    /// Raw-moment sufficient statistics feeding the incremental refit.
    stats: SuffStats,
    fitted: Option<(FittedSurrogate, Standardizer)>,
    observations_at_fit: usize,
    timers: SurrogateTimers,
    // Acquisition scratch, reused across `suggest` calls so the steady
    // state allocates nothing per candidate (given a sampler and a
    // `FeatureMap::features_into` that allocate nothing).
    cand_raw: Matrix,
    cand_z: Matrix,
    cand_points: Vec<P>,
    preds: Vec<(f64, f64)>,
    means: Vec<f64>,
    stds: Vec<f64>,
    predict_scratch: PredictScratch,
    dedup: RowDedup,
}

impl<P, M: FeatureMap<P>> Dabo<P, M> {
    /// Creates an optimizer from a configuration, a feature map, and a
    /// parameter-space sampler.
    pub fn new(
        config: DaboConfig,
        feature_map: M,
        sampler: impl FnMut(&mut dyn RngCore) -> P + 'static,
    ) -> Self {
        let stats = SuffStats::new(feature_map.dim());
        Dabo {
            config,
            feature_map,
            sampler: Box::new(sampler),
            points: Vec::new(),
            features: Vec::new(),
            costs_raw: Vec::new(),
            best: None,
            worst_finite: f64::NEG_INFINITY,
            stats,
            fitted: None,
            observations_at_fit: 0,
            timers: SurrogateTimers::default(),
            cand_raw: Matrix::default(),
            cand_z: Matrix::default(),
            cand_points: Vec::new(),
            preds: Vec::new(),
            means: Vec::new(),
            stds: Vec::new(),
            predict_scratch: PredictScratch::default(),
            dedup: RowDedup::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DaboConfig {
        &self.config
    }

    /// Number of observations so far.
    pub fn len(&self) -> usize {
        self.costs_raw.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.costs_raw.is_empty()
    }

    /// The standardized-feature training matrix seen by the surrogate at
    /// the last refit (for diagnostics such as permutation importance).
    pub fn training_features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Predicts `(mean, std)` of the (possibly log-scaled) cost at `p`
    /// using the current surrogate, or `None` before the first fit.
    pub fn predict(&self, p: &P) -> Option<(f64, f64)> {
        let (model, st) = self.fitted.as_ref()?;
        let z = st.transform(&self.feature_map.features(p));
        Some(model.predict(&z))
    }

    fn effective_cost(&self, cost: f64) -> f64 {
        let c = if cost.is_finite() {
            cost.min(self.config.penalty_cost)
        } else {
            self.config.penalty_cost
        };
        c.max(f64::MIN_POSITIVE)
    }

    fn target(&self, cost: f64) -> f64 {
        let c = self.effective_cost(cost);
        if self.config.log_cost {
            c.ln()
        } else {
            c
        }
    }

    /// Infeasible points get a penalty target just above the worst finite
    /// observation; a fixed astronomical penalty would dominate the
    /// regression and flatten the surrogate over the valid region. The
    /// target is *retroactive* — it moves as worse finite costs arrive —
    /// which is why the sufficient statistics keep infeasible `x`-moments
    /// separate and fold the penalty in only here.
    fn penalty_target(&self) -> f64 {
        if self.worst_finite.is_finite() {
            if self.config.log_cost {
                self.target(self.worst_finite) + 2.0
            } else {
                self.target(self.worst_finite) * 10.0
            }
        } else {
            self.target(self.config.penalty_cost)
        }
    }

    fn refit(&mut self) {
        if self.costs_raw.is_empty() {
            return;
        }
        let stale = self.costs_raw.len() - self.observations_at_fit;
        if self.fitted.is_some() && stale < self.config.refit_every {
            return;
        }
        let started = Instant::now();
        let penalty_target = self.penalty_target();
        let fitted = match self.config.surrogate {
            SurrogateKind::Linear => {
                // Incremental path: derive the standardized posterior
                // system from the running moments — O(d^3), independent of
                // how many observations have accumulated.
                self.stats
                    .posterior_system(penalty_target, PRIOR_VARIANCE, NOISE_VARIANCE)
                    .and_then(|sys| {
                        let mut m = BayesianLinearModel::new(PRIOR_VARIANCE, NOISE_VARIANCE);
                        m.fit_from_precision(&sys.precision, &sys.rhs, sys.y_mean, sys.y_std)
                            .ok()
                            .map(|()| (FittedSurrogate::Linear(m), sys.standardizer))
                    })
            }
            SurrogateKind::Gp(kernel) => {
                // The kernelized path is O(N^3) regardless, so rebuilding
                // targets and standardized rows is not its bottleneck.
                let st = Standardizer::fit(&self.features);
                let xs = st.transform_all(&self.features);
                let ys: Vec<f64> = self
                    .costs_raw
                    .iter()
                    .map(|&c| {
                        if c.is_finite() {
                            self.target(c)
                        } else {
                            penalty_target
                        }
                    })
                    .collect();
                let mut m = GaussianProcess::new(kernel, NOISE_VARIANCE);
                m.fit(&xs, &ys).ok().map(|()| (FittedSurrogate::Gp(m), st))
            }
        };
        if let Some(model_and_st) = fitted {
            self.fitted = Some(model_and_st);
            self.observations_at_fit = self.costs_raw.len();
        }
        self.timers.fit += started.elapsed();
    }
}

impl<P, M: FeatureMap<P>> Search<P> for Dabo<P, M> {
    fn suggest(&mut self, rng: &mut dyn RngCore) -> P {
        // Cold start: pure random sampling.
        if self.costs_raw.len() < self.config.init_samples {
            return (self.sampler)(rng);
        }
        self.refit();
        if self.fitted.is_none() {
            return (self.sampler)(rng);
        }
        let started = Instant::now();
        let batch = self.config.batch_size;
        let d = self.feature_map.dim();
        // Batch acquisition: sample candidates in parameter space,
        // transform to feature space, rank by LCB. The feature rows go
        // straight into reusable matrices and the whole batch is predicted
        // with one blocked triangular solve.
        self.cand_raw.reset(batch, d);
        self.cand_z.reset(batch, d);
        self.cand_points.clear();
        let (model, st) = self.fitted.as_ref().expect("refit succeeded");
        for i in 0..batch {
            let p = (self.sampler)(rng);
            self.feature_map.features_into(&p, self.cand_raw.row_mut(i));
            st.transform_into(self.cand_raw.row(i), self.cand_z.row_mut(i));
            self.cand_points.push(p);
        }
        self.means.resize(batch, 0.0);
        self.stds.resize(batch, 0.0);
        model.predict_batch_into(
            &self.cand_z,
            &mut self.predict_scratch,
            &mut self.means,
            &mut self.stds,
        );
        // Exact-duplicate candidates (by raw feature vector) are rejected
        // within the batch before ranking: the duplicate's prediction is
        // poisoned to NaN, which the argmin/argmax helpers filter out —
        // small sampler spaces no longer burn acquisition slots on copies.
        self.preds.clear();
        self.dedup.start(batch);
        for i in 0..batch {
            if self.dedup.is_duplicate(&self.cand_raw, i) {
                self.preds.push((f64::NAN, f64::NAN));
            } else {
                self.preds.push((self.means[i], self.stds[i]));
            }
        }
        let idx = match self.config.acquisition {
            Acquisition::LowerConfidenceBound => {
                argmin_lcb(&self.preds, self.config.kappa).expect("non-empty batch")
            }
            Acquisition::ExpectedImprovement => {
                // Incumbent in target (log) space.
                let incumbent = self
                    .best
                    .map(|(_, c)| self.target(c))
                    .unwrap_or(f64::INFINITY);
                argmax_ei(&self.preds, incumbent).expect("non-empty batch")
            }
        };
        let chosen = self.cand_points.swap_remove(idx);
        self.timers.acquisition += started.elapsed();
        chosen
    }

    fn observe(&mut self, point: P, cost: f64) {
        self.observe_noisy(point, cost, 0.0);
    }

    /// Heteroscedastic observation: the linear surrogate's sufficient
    /// statistics absorb the point with weight
    /// `NOISE_VARIANCE / (NOISE_VARIANCE + noise_variance)`, so noisier
    /// measurements pull the posterior less. Zero variance gives weight
    /// exactly 1.0 — bit-identical to [`Search::observe`]. The GP
    /// surrogate path refits from the raw history and ignores the
    /// weights (a kernelized heteroscedastic fit is out of scope).
    fn observe_noisy(&mut self, point: P, cost: f64, noise_variance: f64) {
        let feats = self.feature_map.features(&point);
        debug_assert_eq!(feats.len(), self.feature_map.dim());
        let weight = if noise_variance.is_finite() && noise_variance > 0.0 {
            NOISE_VARIANCE / (NOISE_VARIANCE + noise_variance)
        } else {
            1.0
        };
        // O(d^2) moment update; the refit no longer touches the history.
        let target = cost.is_finite().then(|| self.target(cost));
        self.stats.observe_weighted(&feats, target, weight);
        if cost.is_finite() && cost > self.worst_finite {
            self.worst_finite = cost;
        }
        let idx = self.points.len();
        self.points.push(point);
        self.features.push(feats);
        self.costs_raw.push(cost);
        if cost.is_finite() && self.best.is_none_or(|(_, b)| cost < b) {
            self.best = Some((idx, cost));
        }
    }

    fn best(&self) -> Option<(&P, f64)> {
        self.best.map(|(i, c)| (&self.points[i], c))
    }

    fn history(&self) -> &[f64] {
        &self.costs_raw
    }

    fn surrogate_timers(&self) -> Option<SurrogateTimers> {
        Some(self.timers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FnFeatureMap;
    use crate::search::run_minimization;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn quadratic_sampler(rng: &mut dyn RngCore) -> f64 {
        rng.gen_range(-10.0..10.0)
    }

    fn make(config: DaboConfig) -> Dabo<f64, FnFeatureMap<impl Fn(&f64) -> Vec<f64>>> {
        let fm = FnFeatureMap::new(2, |x: &f64| vec![*x, x * x]);
        Dabo::new(config, fm, quadratic_sampler)
    }

    #[test]
    fn beats_random_on_quadratic() {
        // Tight budget: 20 evaluations, 8 of which are daBO's random
        // warm-up. Sample efficiency must show in the remaining 12.
        let evals = 20;
        let cost = |x: &f64| (x - 4.0) * (x - 4.0) + 1.0;
        let mut best_dabo = Vec::new();
        let mut best_rand = Vec::new();
        for seed in 0..10 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut opt = make(DaboConfig::default());
            let t = run_minimization(&mut opt, &mut rng, evals, cost);
            best_dabo.push(t.final_best().unwrap());

            // Random search with the same budget and seed family.
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 1000);
            let mut costs = Vec::new();
            for _ in 0..evals {
                let x = quadratic_sampler(&mut rng);
                costs.push(cost(&x));
            }
            best_rand.push(costs.iter().copied().fold(f64::INFINITY, f64::min));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&best_dabo) < mean(&best_rand),
            "dabo {} !< random {}",
            mean(&best_dabo),
            mean(&best_rand)
        );
    }

    #[test]
    fn handles_infeasible_regions() {
        // Half the domain is infeasible; the optimizer must still converge.
        let cost = |x: &f64| {
            if *x < 0.0 {
                f64::INFINITY
            } else {
                (x - 2.0).abs() + 0.5
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut opt = make(DaboConfig::default());
        let t = run_minimization(&mut opt, &mut rng, 60, cost);
        assert!(t.final_best().unwrap() < 2.0);
        let (x, _) = opt.best().unwrap();
        assert!(*x >= 0.0);
    }

    #[test]
    fn gp_surrogate_variant_works() {
        let cfg = DaboConfig {
            surrogate: SurrogateKind::Gp(Kernel::matern52(1.0)),
            batch_size: 32,
            ..DaboConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut opt = make(cfg);
        let t = run_minimization(&mut opt, &mut rng, 40, |x| (x + 5.0).abs());
        assert!(t.final_best().unwrap() < 3.0);
    }

    #[test]
    fn best_tracks_minimum_of_history() {
        let mut opt = make(DaboConfig::default());
        opt.observe(1.0, 10.0);
        opt.observe(2.0, 5.0);
        opt.observe(3.0, f64::INFINITY);
        opt.observe(4.0, 7.0);
        let (p, c) = opt.best().unwrap();
        assert_eq!((*p, c), (2.0, 5.0));
        assert_eq!(opt.history().len(), 4);
    }

    #[test]
    fn predict_none_before_fit() {
        let opt = make(DaboConfig::default());
        assert!(opt.predict(&1.0).is_none());
    }

    #[test]
    fn predict_available_after_enough_observations() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut opt = make(DaboConfig {
            init_samples: 3,
            ..DaboConfig::default()
        });
        let _ = run_minimization(&mut opt, &mut rng, 10, |x| x.abs());
        let (m, s) = opt.predict(&0.5).expect("surrogate fitted");
        assert!(m.is_finite() && s >= 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut opt = make(DaboConfig::default());
            run_minimization(&mut opt, &mut rng, 25, |x| (x - 1.0).abs())
                .final_best()
                .unwrap()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn expected_improvement_acquisition_also_converges() {
        let cfg = DaboConfig {
            acquisition: Acquisition::ExpectedImprovement,
            ..DaboConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut opt = make(cfg);
        let t = run_minimization(&mut opt, &mut rng, 40, |x| (x - 2.0).abs() + 0.1);
        assert!(t.final_best().unwrap() < 2.0);
    }

    #[test]
    fn duplicate_candidates_are_rejected_within_batch() {
        // A two-point sampler floods every 64-candidate batch with
        // duplicates; suggest must still terminate and return one of the
        // two legal points (the duplicates' predictions are poisoned to
        // NaN before ranking).
        let fm = FnFeatureMap::new(1, |x: &f64| vec![*x]);
        let mut opt = Dabo::new(DaboConfig::default(), fm, |rng: &mut dyn RngCore| {
            if rng.gen_range(0..2) == 0 {
                0.0
            } else {
                1.0
            }
        });
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..20 {
            let x = opt.suggest(&mut rng);
            assert!(x == 0.0 || x == 1.0);
            opt.observe(x, x + 1.0);
        }
        assert_eq!(opt.best().unwrap().1, 1.0);
    }

    #[test]
    fn constant_sampler_survives_all_duplicate_batch() {
        // Every candidate identical: all but the first prediction become
        // NaN and the argmin falls back deterministically.
        let fm = FnFeatureMap::new(1, |x: &f64| vec![*x]);
        let mut opt = Dabo::new(DaboConfig::default(), fm, |_: &mut dyn RngCore| 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for _ in 0..15 {
            let x = opt.suggest(&mut rng);
            assert_eq!(x, 0.5);
            opt.observe(x, 1.0);
        }
    }

    #[test]
    fn surrogate_timers_accumulate() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut opt = make(DaboConfig::default());
        assert_eq!(
            opt.surrogate_timers(),
            Some(crate::search::SurrogateTimers::default())
        );
        let _ = run_minimization(&mut opt, &mut rng, 30, |x| (x - 1.0).abs());
        let timers = opt.surrogate_timers().unwrap();
        assert!(
            timers.fit + timers.acquisition > std::time::Duration::ZERO,
            "{timers:?}"
        );
    }

    #[test]
    fn incremental_fit_matches_legacy_trajectory_shape() {
        // The incremental refit replaces the from-scratch scan; the
        // optimizer must still converge on the quadratic with the tight
        // default budget (numerical drift vs the old path is expected,
        // optimizer quality is not allowed to regress).
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut opt = make(DaboConfig::default());
        let t = run_minimization(&mut opt, &mut rng, 50, |x| (x - 4.0) * (x - 4.0) + 1.0);
        assert!(t.final_best().unwrap() < 3.0);
    }

    #[test]
    fn refit_every_reduces_fits_but_still_optimizes() {
        let cfg = DaboConfig {
            refit_every: 5,
            ..DaboConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut opt = make(cfg);
        let t = run_minimization(&mut opt, &mut rng, 50, |x| (x - 3.0).abs());
        assert!(t.final_best().unwrap() < 2.0);
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::features::FnFeatureMap;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn nan_costs_are_treated_as_infeasible() {
        let fm = FnFeatureMap::new(1, |x: &f64| vec![*x]);
        let mut opt = Dabo::new(DaboConfig::default(), fm, |rng: &mut dyn RngCore| {
            rng.gen_range(0.0..1.0)
        });
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for i in 0..30 {
            let x = opt.suggest(&mut rng);
            let cost = if i % 3 == 0 { f64::NAN } else { x + 1.0 };
            opt.observe(x, cost);
        }
        // NaN never becomes the best, and the surrogate still fits.
        let (_, best) = opt.best().expect("finite observations exist");
        assert!(best.is_finite());
        assert!(opt.predict(&0.5).is_some());
    }

    #[test]
    fn zero_variance_noisy_observation_matches_observe_exactly() {
        let mk = || {
            let fm = FnFeatureMap::new(1, |x: &f64| vec![*x]);
            Dabo::new(DaboConfig::default(), fm, |rng: &mut dyn RngCore| {
                rng.gen_range(0.0..1.0)
            })
        };
        let mut plain = mk();
        let mut noisy = mk();
        let mut rng_a = ChaCha8Rng::seed_from_u64(21);
        let mut rng_b = ChaCha8Rng::seed_from_u64(21);
        for i in 0..25 {
            let a = plain.suggest(&mut rng_a);
            let b = noisy.suggest(&mut rng_b);
            assert_eq!(a, b, "divergence at step {i}");
            let cost = (a - 0.3).abs() + 0.1;
            plain.observe(a, cost);
            noisy.observe_noisy(b, cost, 0.0);
        }
        assert_eq!(plain.best().unwrap().1, noisy.best().unwrap().1);
        assert_eq!(plain.predict(&0.5), noisy.predict(&0.5));
    }

    #[test]
    fn noisy_observations_are_downweighted() {
        // Same corrupted observation, reported once as trusted and once
        // with a large noise variance: the noisy report must move the
        // surrogate's prediction less.
        let mk = || {
            let fm = FnFeatureMap::new(1, |x: &f64| vec![*x]);
            Dabo::new(
                DaboConfig {
                    init_samples: 1,
                    log_cost: false,
                    ..DaboConfig::default()
                },
                fm,
                |rng: &mut dyn RngCore| rng.gen_range(0.0..1.0),
            )
        };
        let line = |x: f64| 2.0 * x + 1.0;
        let mut trusted = mk();
        let mut skeptical = mk();
        for i in 0..12 {
            let x = i as f64 / 11.0;
            trusted.observe(x, line(x));
            skeptical.observe(x, line(x));
        }
        // The corrupted point, far off the line.
        trusted.observe(0.5, 50.0);
        skeptical.observe_noisy(0.5, 50.0, 1e4);
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let _ = trusted.suggest(&mut rng);
        let _ = skeptical.suggest(&mut rng);
        let clean = line(0.5);
        let err_trusted = (trusted.predict(&0.5).unwrap().0 - clean).abs();
        let err_skeptical = (skeptical.predict(&0.5).unwrap().0 - clean).abs();
        assert!(
            err_skeptical < err_trusted / 2.0,
            "{err_skeptical} vs {err_trusted}"
        );
    }

    #[test]
    fn negative_costs_survive_log_transform() {
        // log_cost clamps to a positive floor rather than producing NaN.
        let fm = FnFeatureMap::new(1, |x: &f64| vec![*x]);
        let mut opt = Dabo::new(DaboConfig::default(), fm, |rng: &mut dyn RngCore| {
            rng.gen_range(-1.0..1.0)
        });
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..30 {
            let x = opt.suggest(&mut rng);
            opt.observe(x, x); // costs can be negative
        }
        let (m, s) = opt.predict(&0.0).expect("fitted");
        assert!(m.is_finite() && s.is_finite());
    }
}
