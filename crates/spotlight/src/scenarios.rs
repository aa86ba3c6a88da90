//! Evaluation drivers for the paper's scenarios.
//!
//! - [`evaluate_baseline`]: a hand-designed accelerator run "under our
//!   layerwise software optimizer daBO_SW" (Section VII) — tiling is
//!   optimized, the rigid dataflow's unrolling and orders are pinned
//!   (MAERI-like designs get full schedule freedom),
//! - [`run_confuciux`] / [`run_hasco`]: the restricted co-design tools,
//! - [`generalization`]: co-design on a training set of models, software-
//!   only optimization on held-out models (Figure 8's Spotlight-General).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use spotlight_accel::{Baseline, DataflowStyle, HardwareConfig};
use spotlight_dabo::{Search, Trace};
use spotlight_eval::{EvalEngine, Fidelity};
use spotlight_models::Model;
use spotlight_obs::{Event, Observer};
use spotlight_searchers::{ConfuciuXSearch, HascoSearch};
use spotlight_space::dataflows::template_schedule;

use crate::codesign::{CodesignConfig, CodesignOutcome, LayerPlan, ModelPlan, Spotlight};
use crate::swsearch::{optimize_schedule_for_style, SwSearchConfig};

/// Evaluates a hand-designed `baseline` on `model` under the layerwise
/// software optimizer, returning the model plan and the evaluations
/// spent. The baseline is scaled to `config`'s area budget, so an edge
/// or cloud config picks the scale.
///
/// # Examples
///
/// ```
/// use spotlight::codesign::CodesignConfig;
/// use spotlight::scenarios::evaluate_baseline;
/// use spotlight_accel::Baseline;
/// use spotlight_conv::ConvLayer;
/// use spotlight_models::Model;
///
/// let model = Model::from_layers("m", vec![ConvLayer::new(1, 16, 8, 3, 3, 14, 14)]);
/// let cfg = CodesignConfig::edge().sw_samples(15).build().unwrap();
/// let (plan, _evals) = evaluate_baseline(&cfg, Baseline::EyerissLike, &model);
/// assert!(plan.total_delay.is_finite());
/// ```
pub fn evaluate_baseline(
    config: &CodesignConfig,
    baseline: Baseline,
    model: &Model,
) -> (ModelPlan, u64) {
    // "We scale all accelerators so that they fit in the same area"
    // (Section VII): the baseline fills the same budget Spotlight gets.
    let hw = baseline.scaled_config(&config.budget);
    evaluate_fixed_hw(config, &hw, baseline.dataflow(), model)
}

/// Evaluates a fixed accelerator with a pinned dataflow style on `model`
/// using a fresh analytical evaluation engine.
pub fn evaluate_fixed_hw(
    config: &CodesignConfig,
    hw: &HardwareConfig,
    style: DataflowStyle,
    model: &Model,
) -> (ModelPlan, u64) {
    let engine = EvalEngine::default();
    let sw_cfg = SwSearchConfig {
        samples: config.sw_samples,
        objective: config.objective,
        variant: config.variant,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5eed_ba5e);
    let mut layers = Vec::new();
    let mut total_delay = 0.0;
    let mut total_energy = 0.0;
    for entry in model.layers() {
        let r = optimize_schedule_for_style(&engine, hw, &entry.layer, style, &sw_cfg, &mut rng);
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
    (
        ModelPlan {
            model_name: model.id().clone(),
            layers,
            total_delay,
            total_energy,
        },
        engine.evaluations(),
    )
}

/// Outcome of a restricted co-design tool (ConfuciuX- or HASCO-like).
#[derive(Debug, Clone)]
pub struct ToolOutcome {
    /// Best hardware found.
    pub best_hw: Option<HardwareConfig>,
    /// Best aggregate objective.
    pub best_cost: f64,
    /// Best-so-far trace over hardware samples.
    pub trace: Trace,
    /// Cost-model evaluations spent.
    pub evaluations: u64,
    /// `(cumulative evaluations, best-so-far)` pairs per hardware sample.
    pub eval_trace: Vec<(u64, f64)>,
}

fn model_cost_under_style(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    style: DataflowStyle,
    model: &Model,
    config: &CodesignConfig,
    obs: &Observer,
) -> f64 {
    let mut total_delay = 0.0;
    let mut total_energy = 0.0;
    for (ordinal, entry) in model.layers().iter().enumerate() {
        let sched = template_schedule(style, &entry.layer);
        let lobs = obs.with_layer(ordinal as u64);
        match engine.measure(hw, &sched, &entry.layer, Fidelity::Full, &lobs, 0) {
            Ok((r, _)) => {
                total_delay += r.delay_cycles * entry.count as f64;
                total_energy += r.energy_nj * entry.count as f64;
            }
            Err(_) => return f64::INFINITY,
        }
    }
    match config.objective {
        spotlight_maestro::Objective::Delay => total_delay,
        spotlight_maestro::Objective::Edp => total_delay * total_energy,
    }
}

/// Runs the ConfuciuX-like tool: RL + GA over hardware and a three-way
/// dataflow choice; each candidate is costed with its style's fixed
/// schedule (no tile-size search — the restriction the paper blames for
/// ConfuciuX's gap). Hardware proposals, per-layer evaluations, and
/// best-so-far improvements are reported to `obs`.
pub fn run_confuciux(config: &CodesignConfig, model: &Model, obs: &Observer) -> ToolOutcome {
    let rl_budget = (config.hw_samples * 2) / 3;
    let search = ConfuciuXSearch::new(config.ranges, rl_budget);
    run_tool(config, model, obs, 0xc0f0_c10a, search, |p| (p.hw, p.style))
}

/// Runs the HASCO-like tool: off-the-shelf BO over hardware with one
/// fixed software schedule per layer. Hardware proposals, per-layer
/// evaluations, and best-so-far improvements are reported to `obs`.
pub fn run_hasco(config: &CodesignConfig, model: &Model, obs: &Observer) -> ToolOutcome {
    let search = HascoSearch::new(config.ranges);
    let style = search.style();
    run_tool(config, model, obs, 0x4a5c_0000, search, |&hw| (hw, style))
}

/// The restricted tools' loop: per hardware sample, `search` proposes a
/// point, `split` names its hardware and dataflow style, and an admitted
/// point is costed with that style's fixed schedules. `salt` keys the
/// tool's RNG stream off the config seed.
fn run_tool<P>(
    config: &CodesignConfig,
    model: &Model,
    obs: &Observer,
    salt: u64,
    mut search: impl Search<P>,
    split: impl Fn(&P) -> (HardwareConfig, DataflowStyle),
) -> ToolOutcome {
    let engine = EvalEngine::default();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ salt);
    let mut best: Option<(HardwareConfig, f64)> = None;
    let mut eval_trace = Vec::new();
    for sample in 0..config.hw_samples {
        let sobs = obs.with_hw_sample(sample as u64);
        let p = search.suggest(&mut rng);
        let (hw, style) = split(&p);
        let admitted = config.budget.admits(&hw);
        sobs.emit_with(|| Event::HwProposed {
            hw: hw.to_string(),
            admitted,
        });
        let cost = if admitted {
            model_cost_under_style(&engine, &hw, style, model, config, &sobs)
        } else {
            f64::INFINITY
        };
        if cost.is_finite() && best.is_none_or(|(_, b)| cost < b) {
            best = Some((hw, cost));
            sobs.emit_with(|| Event::BestImproved { cost });
        }
        search.observe(p, cost);
        eval_trace.push((engine.evaluations(), best.map_or(f64::INFINITY, |(_, c)| c)));
    }
    ToolOutcome {
        best_hw: best.map(|(hw, _)| hw),
        best_cost: best.map_or(f64::INFINITY, |(_, c)| c),
        trace: Trace::from_costs(search.history()),
        evaluations: engine.evaluations(),
        eval_trace,
    }
}

/// RNG stream id for the held-out software-only optimization, disjoint
/// from the hardware-sample stream ids used inside `codesign`.
const GENERALIZATION_STREAM: u64 = 0x9e4e_7a11_0000_0000;

/// The Figure 8 generalization scenario: co-design an accelerator with
/// `train` models, then run the software optimizer alone for each `eval`
/// model on the resulting hardware.
///
/// Returns the co-design outcome on the training set and the plans for
/// the held-out models. Both searches report to `obs`.
pub fn generalization(
    config: &CodesignConfig,
    train: &[Model],
    eval: &[Model],
    obs: &Observer,
) -> (CodesignOutcome, Vec<ModelPlan>) {
    let tool = Spotlight::new(*config).with_observer(obs.clone());
    let outcome = tool.codesign(train);
    let plans = match outcome.best_hw {
        Some(hw) => {
            // A dedicated RNG stream id, disjoint from the hw-sample
            // indices `codesign` uses as streams.
            tool.optimize_software(&hw, eval, GENERALIZATION_STREAM).0
        }
        None => Vec::new(),
    };
    (outcome, plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;
    use spotlight_conv::ConvLayer;
    use spotlight_maestro::Objective;

    fn tiny_model() -> Model {
        Model::from_layers(
            "tiny",
            vec![
                ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
                ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
            ],
        )
    }

    fn cfg() -> CodesignConfig {
        CodesignConfig::edge()
            .hw_samples(8)
            .sw_samples(15)
            .seed(3)
            .build()
            .expect("test config is valid")
    }

    #[test]
    fn baselines_all_evaluate_finite_on_tiny_model() {
        for b in Baseline::FIGURE6 {
            let (plan, evals) = evaluate_baseline(&cfg(), b, &tiny_model());
            assert!(plan.total_delay.is_finite(), "{b} infeasible");
            assert!(evals > 0);
        }
    }

    #[test]
    fn cloud_baseline_faster_than_edge() {
        // Baselines scale to the configured budget, so the cloud run uses
        // the cloud budget (Figure 7's "scaled-up" versions).
        let model = Model::from_layers("big", vec![ConvLayer::new(1, 256, 128, 3, 3, 28, 28)]);
        let (edge, _) = evaluate_baseline(&cfg(), Baseline::NvdlaLike, &model);
        let cloud_cfg = CodesignConfig::cloud()
            .hw_samples(8)
            .sw_samples(15)
            .seed(3)
            .build()
            .expect("test config is valid");
        let (cloud, _) = evaluate_baseline(&cloud_cfg, Baseline::NvdlaLike, &model);
        assert!(cloud.total_delay < edge.total_delay);
    }

    #[test]
    fn confuciux_produces_a_design() {
        let out = run_confuciux(&cfg(), &tiny_model(), &Observer::null());
        assert!(out.best_hw.is_some());
        assert!(out.best_cost.is_finite());
        assert_eq!(out.eval_trace.len(), cfg().hw_samples);
    }

    #[test]
    fn hasco_produces_a_design() {
        let out = run_hasco(&cfg(), &tiny_model(), &Observer::null());
        assert!(out.best_hw.is_some());
        assert!(out.best_cost.is_finite());
    }

    /// The best cost's bits, the evaluations, and one FNV-1a digest of
    /// the eval trace, the best-so-far trace and the journaled events.
    fn tool_fingerprint(
        run: fn(&CodesignConfig, &Model, &Observer) -> ToolOutcome,
        model: &Model,
    ) -> (u64, u64, u64) {
        use std::hash::Hasher;
        let sink = std::sync::Arc::new(spotlight_obs::MemorySink::new());
        let out = run(&cfg(), model, &Observer::new(sink.clone()));
        let mut h = spotlight_obs::seeded::Fnv1a::default();
        for (evals, best) in &out.eval_trace {
            h.write_u64(*evals);
            h.write_u64(best.to_bits());
        }
        for best in out.trace.best_so_far() {
            h.write_u64(best.to_bits());
        }
        for record in sink.records() {
            h.write(record.to_json().as_bytes());
        }
        assert_eq!(out.eval_trace.len(), cfg().hw_samples);
        assert_eq!(out.trace.len(), cfg().hw_samples);
        (out.best_cost.to_bits(), out.evaluations, h.finish())
    }

    #[test]
    fn restricted_tools_are_pinned() {
        let transformer = spotlight_models::transformer();
        let got = [
            tool_fingerprint(run_confuciux, &tiny_model()),
            tool_fingerprint(run_confuciux, &transformer),
            tool_fingerprint(run_hasco, &tiny_model()),
            tool_fingerprint(run_hasco, &transformer),
        ];
        let want = [
            (0x4145_82ce_10d1_2357, 15, 0x908e_6851_b6f0_7283),
            (0x42e8_863e_4e22_c9cb, 24, 0x2ae3_4948_0711_c950),
            (0x4149_52c9_dc90_9ee6, 13, 0x6ab9_e400_5682_b19f),
            (0x42e1_780c_7fb5_b2f4, 28, 0x3173_8dda_371a_d42c),
        ];
        assert_eq!(got, want, "{got:#x?}");
    }

    #[test]
    fn confuciux_spends_fewer_evals_than_spotlight() {
        // No software search: evaluations = hw_samples x layers, far less
        // than Spotlight's hw x layers x sw budget.
        let out = run_confuciux(&cfg(), &tiny_model(), &Observer::null());
        let spot = Spotlight::new(
            cfg()
                .to_builder()
                .variant(Variant::Spotlight)
                .build()
                .unwrap(),
        )
        .codesign(&[tiny_model()]);
        assert!(out.evaluations < spot.evaluations / 2);
    }

    #[test]
    fn generalization_produces_plans_for_heldout_models() {
        let train = vec![tiny_model()];
        let eval = vec![Model::from_layers(
            "heldout",
            vec![ConvLayer::new(1, 8, 8, 3, 3, 7, 7)],
        )];
        let (outcome, plans) = generalization(&cfg(), &train, &eval, &Observer::null());
        assert!(outcome.best_hw.is_some());
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].model_name, "heldout");
        assert!(plans[0].total_delay.is_finite());
    }

    #[test]
    fn spotlight_beats_confuciux_on_tiny_model() {
        // The headline comparison in miniature: same hardware budget,
        // Spotlight additionally co-designs tile sizes with buffer sizes.
        let model = Model::from_layers("m", vec![ConvLayer::new(1, 128, 64, 3, 3, 28, 28)]);
        let c = CodesignConfig::edge()
            .hw_samples(30)
            .sw_samples(80)
            .objective(Objective::Delay)
            .seed(1)
            .build()
            .expect("test config is valid");
        let spot = Spotlight::new(c).codesign(std::slice::from_ref(&model));
        let confx = run_confuciux(&c, &model, &Observer::null());
        assert!(
            spot.best_cost <= confx.best_cost,
            "spotlight {} !<= confuciux {}",
            spot.best_cost,
            confx.best_cost
        );
    }
}
