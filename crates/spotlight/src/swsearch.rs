//! The per-layer software optimizer (daBO_SW) and its ablation variants.
//!
//! A software search's proposal state is built once per (hw, layer): the
//! layer's divisor chains and three rigid base schedules
//! ([`Proposals`]) and the feature map ([`SwFeatureMap`]) are captured by
//! the search's sampler and surrogate, so a candidate draw only looks up
//! tile chains and draws orders and unrolls, and its features go straight
//! into the acquisition batch.

use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

use spotlight_accel::{DataflowStyle, HardwareConfig};
use spotlight_conv::{ConvLayer, Dim, DIMS, NUM_DIMS};
use spotlight_dabo::{Dabo, DaboConfig, Search, SurrogateKind, Trace};
use spotlight_eval::{EvalEngine, Fidelity, Phase};
use spotlight_gp::Kernel;
use spotlight_maestro::{CostReport, Objective};
use spotlight_obs::Observer;
use spotlight_searchers::{Genetic, RandomSearch};
use spotlight_space::dataflows::dataflow_schedule;
use spotlight_space::sample::{ChainSource, DivisorChains};
use spotlight_space::{mutate, sample, Schedule, TileSizes};

use crate::features::{SwFeatureMap, SwFeatureSet};
use crate::variants::Variant;

/// Configuration of one software search.
#[derive(Debug, Clone, Copy)]
pub struct SwSearchConfig {
    /// Cost-model evaluations ("100 software samples per layer").
    pub samples: usize,
    /// Metric to minimize.
    pub objective: Objective,
    /// Which search machinery to use.
    pub variant: Variant,
}

/// Result of optimizing one layer's schedule on a fixed accelerator.
#[derive(Debug, Clone)]
pub struct SwResult {
    /// Best feasible schedule and its cost report, if any sample was
    /// feasible.
    pub best: Option<(Schedule, CostReport)>,
    /// Best-so-far convergence trace over the sample budget.
    pub trace: Trace,
    /// Cost-model evaluations spent.
    pub evaluations: u64,
}

impl SwResult {
    /// The layer's objective value, or `f64::INFINITY` when no feasible
    /// schedule was found.
    pub fn objective_value(&self, obj: Objective) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::INFINITY, |(_, r)| r.objective(obj))
    }
}

/// Guided proposal distribution for the BO-based variants: half uniform
/// draws over the full schedule space, half structure-preserving
/// randomizations around the rigid dataflow skeletons (tile chains
/// re-drawn per dimension, orders and unrolls occasionally re-drawn).
/// Every schedule in the space remains reachable; the mixture simply
/// concentrates candidate batches where the acquisition function can
/// discriminate — the candidate-generation side of injecting domain
/// information.
///
/// This one-shot form builds only the base schedule it draws around and
/// enumerates divisors per draw; a search draws through
/// [`Proposals::guided`] instead, which consumes the same RNG words and
/// returns the same schedule.
pub fn sample_schedule_guided(
    rng: &mut dyn RngCore,
    layer: &ConvLayer,
    hw: &HardwareConfig,
) -> Schedule {
    guided_draw(rng, layer, |style| dataflow_schedule(style, layer, hw))
}

/// The proposal state of one software search, built once per (hw, layer):
/// the layer's [`DivisorChains`] and its three rigid base schedules
/// ([`DataflowStyle::RIGID`] order). A guided draw consumes exactly the
/// RNG words of [`sample_schedule_guided`] and returns the same schedule.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use spotlight::swsearch::{sample_schedule_guided, Proposals};
/// use spotlight_accel::Baseline;
/// use spotlight_conv::ConvLayer;
///
/// let hw = Baseline::NvdlaLike.edge_config();
/// let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
/// let proposals = Proposals::new(&layer, &hw);
/// let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let mut b = a.clone();
/// for _ in 0..20 {
///     assert_eq!(proposals.guided(&mut a), sample_schedule_guided(&mut b, &layer, &hw));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Proposals {
    chains: DivisorChains,
    bases: [Schedule; 3],
}

impl Proposals {
    /// Enumerates the divisor chains of `layer` and builds its three
    /// rigid base schedules on `hw`.
    pub fn new(layer: &ConvLayer, hw: &HardwareConfig) -> Self {
        Proposals {
            chains: DivisorChains::new(layer),
            bases: DataflowStyle::RIGID.map(|style| dataflow_schedule(style, layer, hw)),
        }
    }

    /// The base schedule of a rigid `style`.
    ///
    /// # Panics
    ///
    /// Panics if `style` is [`DataflowStyle::Flexible`].
    fn base(&self, style: DataflowStyle) -> Schedule {
        let i = DataflowStyle::RIGID
            .iter()
            .position(|&s| s == style)
            .expect("a rigid dataflow style");
        self.bases[i]
    }

    /// A draw from the guided mixture ([`sample_schedule_guided`]).
    pub fn guided(&self, rng: &mut dyn RngCore) -> Schedule {
        guided_draw(rng, &self.chains, |style| self.base(style))
    }

    /// Spotlight-F's restricted draw: a rigid dataflow with only its K
    /// and C tiling factors re-randomized (Section VII-E).
    pub fn fixed_dataflow(&self, rng: &mut dyn RngCore) -> Schedule {
        let style = *DataflowStyle::RIGID.choose(rng).expect("menu non-empty");
        let k_and_c = DIMS.map(|d| matches!(d, Dim::K | Dim::C));
        randomize_dims(rng, &self.base(style), &self.chains, k_and_c)
    }

    /// A draw for a rigid hand-designed baseline: the `style` dataflow
    /// pins unrolls and loop orders, tiling is free.
    ///
    /// # Panics
    ///
    /// Panics if `style` is [`DataflowStyle::Flexible`].
    pub fn style_constrained(&self, rng: &mut dyn RngCore, style: DataflowStyle) -> Schedule {
        randomize_dims(rng, &self.base(style), &self.chains, [true; NUM_DIMS])
    }
}

fn guided_draw(
    rng: &mut dyn RngCore,
    chains: &impl ChainSource,
    base: impl FnOnce(DataflowStyle) -> Schedule,
) -> Schedule {
    if rng.gen_bool(0.5) {
        return sample::sample_schedule(rng, chains);
    }
    let style = *DataflowStyle::RIGID.choose(rng).expect("menu non-empty");
    // Re-draw a random subset of tile chains. All seven choices are made
    // before any chain is redrawn.
    let redraw: [bool; NUM_DIMS] = std::array::from_fn(|_| rng.gen_bool(0.5));
    let mut s = randomize_dims(rng, &base(style), chains, redraw);
    if rng.gen_bool(0.3) {
        s = Schedule::new(
            *s.tiles(),
            sample::sample_order(rng),
            *s.inner_order(),
            s.outer_unroll(),
            s.inner_unroll(),
        );
    }
    if rng.gen_bool(0.3) {
        s = Schedule::new(
            *s.tiles(),
            *s.outer_order(),
            sample::sample_order(rng),
            sample::sample_dim(rng),
            sample::sample_dim(rng),
        );
    }
    s
}

/// Re-randomizes the divisor chains of the dimensions marked in
/// `redraw`, in [`DIMS`] order, keeping everything else.
fn randomize_dims(
    rng: &mut dyn RngCore,
    base: &Schedule,
    chains: &impl ChainSource,
    redraw: [bool; NUM_DIMS],
) -> Schedule {
    let mut l2: [u64; NUM_DIMS] = std::array::from_fn(|i| base.tiles().l2(DIMS[i]));
    let mut rf: [u64; NUM_DIMS] = std::array::from_fn(|i| base.tiles().rf(DIMS[i]));
    for (i, d) in DIMS.into_iter().enumerate() {
        if redraw[i] {
            (l2[i], rf[i]) = chains.chain(rng, d);
        }
    }
    let tiles = TileSizes::new(chains.layer(), l2, rf).expect("redrawn chains are legal");
    base.with_tiles(tiles)
}

/// A daBO search over `fm` drawing candidates from `sampler`.
fn dabo(
    config: DaboConfig,
    fm: SwFeatureMap,
    sampler: impl FnMut(&mut dyn RngCore) -> Schedule + 'static,
) -> Box<dyn Search<Schedule>> {
    Box::new(Dabo::new(config, fm, sampler))
}

/// Builds the variant's software-search algorithm for one (hw, layer)
/// pair.
fn build_search(
    variant: Variant,
    hw: HardwareConfig,
    layer: ConvLayer,
) -> Box<dyn Search<Schedule>> {
    let full_sampler = move |rng: &mut dyn RngCore| sample::sample_schedule(rng, &layer);
    let figure4 = SwFeatureMap::new(&hw, SwFeatureSet::Figure4);
    let guided = || {
        let proposals = Proposals::new(&layer, &hw);
        move |rng: &mut dyn RngCore| proposals.guided(rng)
    };
    match variant {
        Variant::Spotlight => dabo(DaboConfig::default(), figure4, guided()),
        Variant::SpotlightA => dabo(
            DaboConfig::default(),
            SwFeatureMap::new(&hw, SwFeatureSet::All),
            guided(),
        ),
        Variant::SpotlightV => {
            let cfg = DaboConfig {
                surrogate: SurrogateKind::Gp(Kernel::matern52(3.0)),
                // O(N^3) fits: refit sparsely, as off-the-shelf BO stacks do.
                refit_every: 4,
                ..DaboConfig::default()
            };
            dabo(cfg, SwFeatureMap::new(&hw, SwFeatureSet::Raw), guided())
        }
        Variant::SpotlightF => {
            let proposals = Proposals::new(&layer, &hw);
            dabo(DaboConfig::default(), figure4, move |rng| {
                proposals.fixed_dataflow(rng)
            })
        }
        Variant::SpotlightR => Box::new(RandomSearch::new(full_sampler)),
        Variant::SpotlightGA => Box::new(Genetic::new(
            16,
            0.6,
            full_sampler,
            move |rng: &mut dyn RngCore, s: &Schedule| mutate::mutate_schedule(rng, s, &layer),
            move |rng: &mut dyn RngCore, a: &Schedule, b: &Schedule| {
                mutate::crossover_schedule(rng, a, b, &layer)
            },
        )),
    }
}

/// Runs one software search of `cfg.samples` cost-model evaluations for
/// `layer` on `hw`. Every evaluation goes through `engine`, which
/// memoizes repeated triples and tracks the instrumentation counters.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use spotlight::swsearch::{optimize_schedule, SwSearchConfig};
/// use spotlight::Variant;
/// use spotlight_accel::Baseline;
/// use spotlight_conv::ConvLayer;
/// use spotlight_eval::EvalEngine;
/// use spotlight_maestro::Objective;
///
/// let cfg = SwSearchConfig { samples: 20, objective: Objective::Edp, variant: Variant::Spotlight };
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let engine = EvalEngine::default();
/// let r = optimize_schedule(
///     &engine,
///     &Baseline::NvdlaLike.edge_config(),
///     &ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
///     &cfg,
///     &mut rng,
/// );
/// assert!(r.best.is_some());
/// assert_eq!(r.evaluations, 20);
/// assert_eq!(engine.stats().evaluations, 20);
/// ```
pub fn optimize_schedule(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    rng: &mut dyn RngCore,
) -> SwResult {
    let obs = Observer::null();
    optimize_schedule_observed_at(engine, hw, layer, cfg, Fidelity::Full, rng, &obs)
}

/// Like [`optimize_schedule`] but evaluating every schedule at an
/// explicit [`Fidelity`] and reporting every cost-model evaluation to
/// `obs` as a `schedule_evaluated` / `infeasible` event, tagged with the
/// step index within the sample budget — the entry point the codesign
/// driver uses, cheap rungs included. The observer never touches the
/// RNG, so observed and unobserved runs stay bit-identical. Cheap-rung
/// dispersion already carries the rung's calibrated variance inflation
/// (the engine inflates it), so `observe_noisy` automatically trusts
/// cheap points less.
pub fn optimize_schedule_observed_at(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    fidelity: Fidelity,
    rng: &mut dyn RngCore,
    obs: &Observer,
) -> SwResult {
    let mut search = build_search(cfg.variant, *hw, *layer);
    run_sw(engine, hw, layer, cfg, fidelity, rng, search.as_mut(), obs)
}

/// Like [`optimize_schedule`] but constrained to one rigid dataflow —
/// the fair software optimizer for hand-designed baselines.
pub fn optimize_schedule_for_style(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    style: DataflowStyle,
    cfg: &SwSearchConfig,
    rng: &mut dyn RngCore,
) -> SwResult {
    let mut search = if style == DataflowStyle::Flexible {
        // MAERI-like: flexible dataflow, full schedule freedom on fixed HW.
        build_search(Variant::Spotlight, *hw, *layer)
    } else {
        let proposals = Proposals::new(layer, hw);
        dabo(
            DaboConfig::default(),
            SwFeatureMap::new(hw, SwFeatureSet::Figure4),
            move |rng| proposals.style_constrained(rng, style),
        )
    };
    run_sw(
        engine,
        hw,
        layer,
        cfg,
        Fidelity::Full,
        rng,
        search.as_mut(),
        &Observer::null(),
    )
}

/// Like [`optimize_schedule`] with the Spotlight feature space but
/// *uniform* candidate proposals instead of the guided mixture — the
/// ablation of this reproduction's one methodological addition (see
/// DESIGN.md). Also accepts an alternative acquisition function.
pub fn optimize_schedule_uniform(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    acquisition: spotlight_dabo::Acquisition,
    rng: &mut dyn RngCore,
) -> SwResult {
    let chains = DivisorChains::new(layer);
    let dcfg = DaboConfig {
        acquisition,
        ..DaboConfig::default()
    };
    let mut search = dabo(
        dcfg,
        SwFeatureMap::new(hw, SwFeatureSet::Figure4),
        move |rng: &mut dyn RngCore| sample::sample_schedule(rng, &chains),
    );
    run_sw(
        engine,
        hw,
        layer,
        cfg,
        Fidelity::Full,
        rng,
        search.as_mut(),
        &Observer::null(),
    )
}

/// Like [`optimize_schedule`] for the Spotlight variant but with an
/// explicit acquisition function (guided proposals).
pub fn optimize_schedule_with_acquisition(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    acquisition: spotlight_dabo::Acquisition,
    rng: &mut dyn RngCore,
) -> SwResult {
    let proposals = Proposals::new(layer, hw);
    let dcfg = DaboConfig {
        acquisition,
        ..DaboConfig::default()
    };
    let mut search = dabo(
        dcfg,
        SwFeatureMap::new(hw, SwFeatureSet::Figure4),
        move |rng| proposals.guided(rng),
    );
    run_sw(
        engine,
        hw,
        layer,
        cfg,
        Fidelity::Full,
        rng,
        search.as_mut(),
        &Observer::null(),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_sw(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    fidelity: Fidelity,
    rng: &mut dyn RngCore,
    search: &mut dyn Search<Schedule>,
    obs: &Observer,
) -> SwResult {
    engine.count_sw_search();
    let mut best: Option<(Schedule, CostReport)> = None;
    for step in 0..cfg.samples {
        let sched = search.suggest(rng);
        let (cost, dispersion) = match engine.measure(hw, &sched, layer, fidelity, obs, step as u64)
        {
            Ok((report, summary)) => {
                let value = report.objective(cfg.objective);
                if best
                    .as_ref()
                    .is_none_or(|(_, b)| value < b.objective(cfg.objective))
                {
                    best = Some((sched, report));
                }
                (value, summary.dispersion)
            }
            Err(_) => (f64::INFINITY, 0.0),
        };
        // Replicate dispersion is the relative (scaled-MAD / median)
        // spread, which approximates the standard deviation of ln(cost)
        // under multiplicative noise — exactly the target space the
        // daBO surrogate fits, so its square is the observation-noise
        // variance. Single-shot measurement reports zero and this call
        // reduces bit-identically to `observe`.
        search.observe_noisy(sched, cost, dispersion * dispersion);
    }
    // Model-based searchers time their own fit/acquisition split; fold it
    // into the engine's phase accounting. These are sub-phases of the
    // driver's `sw_search` wall time, not additional time on top of it.
    if let Some(timers) = search.surrogate_timers() {
        engine.add_phase_wall(Phase::SurrogateFit, timers.fit);
        engine.add_phase_wall(Phase::Acquisition, timers.acquisition);
    }
    SwResult {
        best,
        trace: Trace::from_costs(search.history()),
        evaluations: cfg.samples as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spotlight_accel::Baseline;
    use spotlight_maestro::CostModel;

    fn cfg(variant: Variant) -> SwSearchConfig {
        SwSearchConfig {
            samples: 40,
            objective: Objective::Edp,
            variant,
        }
    }

    fn layer() -> ConvLayer {
        ConvLayer::new(1, 64, 32, 3, 3, 28, 28)
    }

    #[test]
    fn every_variant_finds_a_feasible_schedule() {
        let model = EvalEngine::default();
        let hw = Baseline::NvdlaLike.edge_config();
        for v in Variant::ALL {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let r = optimize_schedule(&model, &hw, &layer(), &cfg(v), &mut rng);
            assert!(r.best.is_some(), "{v} found nothing feasible");
            assert_eq!(r.evaluations, 40);
        }
    }

    #[test]
    fn spotlight_beats_random_on_median_seed() {
        let model = EvalEngine::default();
        let hw = Baseline::NvdlaLike.edge_config();
        let mut wins = 0;
        let trials = 7;
        for seed in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let s = optimize_schedule(&model, &hw, &layer(), &cfg(Variant::Spotlight), &mut rng);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            let r = optimize_schedule(&model, &hw, &layer(), &cfg(Variant::SpotlightR), &mut rng);
            if s.objective_value(Objective::Edp) <= r.objective_value(Objective::Edp) {
                wins += 1;
            }
        }
        assert!(wins * 2 > trials, "Spotlight won only {wins}/{trials}");
    }

    #[test]
    fn fixed_dataflow_schedules_stay_in_menu() {
        let hw = Baseline::NvdlaLike.edge_config();
        let l = layer();
        let proposals = Proposals::new(&l, &hw);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let menu: Vec<(Dim, Dim)> = DataflowStyle::RIGID
            .iter()
            .map(|&st| {
                let s = dataflow_schedule(st, &l, &hw);
                (s.outer_unroll(), s.inner_unroll())
            })
            .collect();
        for _ in 0..50 {
            let s = proposals.fixed_dataflow(&mut rng);
            assert!(menu.contains(&(s.outer_unroll(), s.inner_unroll())));
            // Only K and C may deviate from some base schedule's tiling;
            // chains must stay legal regardless.
            assert!(s.tiles().chain_is_legal());
        }
    }

    #[test]
    fn proposals_draw_what_the_one_shot_samplers_draw() {
        let hws = [
            Baseline::NvdlaLike.edge_config(),
            Baseline::EyerissLike.edge_config(),
        ];
        let layers = [
            layer(),
            ConvLayer::new(1, 512, 2048, 1, 1, 7, 7),
            ConvLayer::new(1, 64, 3, 7, 7, 112, 112).with_stride(2),
        ];
        for hw in &hws {
            for l in &layers {
                let p = Proposals::new(l, hw);
                let mut a = ChaCha8Rng::seed_from_u64(9);
                let mut b = a.clone();
                for _ in 0..64 {
                    assert_eq!(p.guided(&mut a), sample_schedule_guided(&mut b, l, hw));
                }
                assert_eq!(a.word_pos(), b.word_pos());
            }
        }
    }

    #[test]
    fn style_constrained_sampler_pins_unrolls() {
        let hw = Baseline::EyerissLike.edge_config();
        let l = layer();
        let base = dataflow_schedule(DataflowStyle::RowStationary, &l, &hw);
        let proposals = Proposals::new(&l, &hw);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..50 {
            let s = proposals.style_constrained(&mut rng, DataflowStyle::RowStationary);
            assert_eq!(s.outer_unroll(), base.outer_unroll());
            assert_eq!(s.inner_unroll(), base.inner_unroll());
            assert_eq!(s.outer_order(), base.outer_order());
        }
    }

    #[test]
    fn infeasible_layers_return_infinite_objective() {
        // A 2-byte-RF-per-PE accelerator cannot hold even a unit tile
        // (one weight + one input + one output element = 3 bytes).
        let model = EvalEngine::default();
        let hw = HardwareConfig::new(512, 16, 16, 1, 64, 64).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let r = optimize_schedule(&model, &hw, &layer(), &cfg(Variant::SpotlightR), &mut rng);
        assert!(r.best.is_none());
        assert!(r.objective_value(Objective::Edp).is_infinite());
    }

    #[test]
    fn deterministic_under_seed() {
        let model = EvalEngine::default();
        let hw = Baseline::NvdlaLike.edge_config();
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            optimize_schedule(&model, &hw, &layer(), &cfg(Variant::Spotlight), &mut rng)
                .objective_value(Objective::Edp)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn delay_objective_optimizes_delay() {
        let model = EvalEngine::default();
        let hw = Baseline::NvdlaLike.edge_config();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let c = SwSearchConfig {
            samples: 60,
            objective: Objective::Delay,
            variant: Variant::Spotlight,
        };
        let r = optimize_schedule(&model, &hw, &layer(), &c, &mut rng);
        let (_, report) = r.best.unwrap();
        // The found delay should beat the naive trivial schedule's delay.
        let trivial = CostModel::default()
            .evaluate(&hw, &Schedule::trivial(&layer()), &layer())
            .unwrap();
        assert!(report.delay_cycles < trivial.delay_cycles);
    }
}
