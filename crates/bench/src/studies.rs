//! The studies behind the paper's evaluation figures and sections.
//!
//! Every study is a [`Study`]: budgets, model set and observer in, CSV
//! text out. [`STUDIES`] names them all, and the `spotlight-bench`
//! binary runs them by name. Co-design and restricted-tool runs report
//! to the observer; the single-layer studies do not.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use spotlight::codesign::{
    CodesignConfig, CodesignConfigBuilder, CodesignOutcome, ModelPlan, RunStatus, Spotlight,
};
use spotlight::features::{all_sw_features, raw_sw_params, sw_features, SW_FEATURE_NAMES};
use spotlight::scenarios::{
    evaluate_baseline, generalization, run_confuciux, run_hasco, ToolOutcome,
};
use spotlight::swsearch::{
    optimize_schedule, optimize_schedule_uniform, optimize_schedule_with_acquisition, SwResult,
    SwSearchConfig,
};
use spotlight::Variant;
use spotlight_accel::Baseline;
use spotlight_conv::ConvLayer;
use spotlight_dabo::{Acquisition, Standardizer};
use spotlight_eval::{CostBackend, EvalEngine, MaestroBackend, TimeloopBackend};
use spotlight_gp::stats::{spearman_rho, top_quantile_hit_rate};
use spotlight_gp::{
    permutation_importance, BayesianLinearModel, GaussianProcess, Kernel, Surrogate,
};
use spotlight_maestro::{CostModel, Objective};
use spotlight_models::{all_models, mnasnet, mobilenet_v2, resnet50, transformer, vgg16, Model};
use spotlight_noc::analyze;
use spotlight_obs::{Event, Observer};
use spotlight_space::dataflows::dataflow_schedule;
use spotlight_space::{cardinality, sample, ParamRanges, Schedule};

use crate::{rows_to_csv, stats, Budgets, Row};

/// A study: budgets, model set and observer in, CSV text out.
pub type Study = fn(&Budgets, &[Model], &Observer) -> String;

/// Every study by name, in the order of DESIGN.md's experiment index.
pub const STUDIES: [(&str, Study); 12] = [
    ("fig3_space", fig3_space),
    ("fig6_edge", fig6_edge),
    ("fig7_cloud", fig7_cloud),
    ("fig8_general", fig8_general),
    ("fig9_importance", fig9_importance),
    ("fig10_ablation", fig10_ablation),
    ("fig11_cdf", fig11_cdf),
    ("secc_discussion", secc_discussion),
    ("secd_surrogate", secd_surrogate),
    ("secf_timeloop", secf_timeloop),
    ("noc_analysis", noc_analysis),
    ("ablation_design", ablation_design),
];

/// The study named `name`.
pub fn study(name: &str) -> Option<Study> {
    STUDIES.iter().find(|(n, _)| *n == name).map(|&(_, s)| s)
}

/// A restricted co-design tool (Section VII-A).
type Tool = fn(&CodesignConfig, &Model, &Observer) -> ToolOutcome;

/// The restricted tools `model` admits, as in the paper: ConfuciuX
/// cannot optimize Transformer, and HASCO accepts only ResNet-50 and
/// MobileNetV2.
fn tools_for(model: &Model) -> impl Iterator<Item = (&'static str, Tool)> {
    let confuciux = (model.name() != "Transformer").then_some(("ConfuciuX", run_confuciux as Tool));
    let hasco =
        matches!(model.name(), "ResNet-50" | "MobileNetV2").then_some(("HASCO", run_hasco as Tool));
    confuciux.into_iter().chain(hasco)
}

/// One edge-scale run of `tool` on `model` per trial, each closed in
/// the journal by a `run_finished` record as a co-design run is. A
/// tool's engine injects no faults, so its runs always complete.
fn tool_runs<'a>(
    b: &'a Budgets,
    obs: &'a Observer,
    objective: Objective,
    model: &'a Model,
    tool: Tool,
) -> impl Iterator<Item = ToolOutcome> + 'a {
    (0..b.trials).map(move |t| {
        let cfg = b.config(CodesignConfig::edge, t, objective, Variant::Spotlight);
        let started = Instant::now();
        let run = tool(&cfg, model, obs);
        obs.emit_with(|| Event::RunFinished {
            best_cost: run.best_cost,
            evaluations: run.evaluations,
            wall_ms: started.elapsed().as_millis() as u64,
            status: RunStatus::Complete.as_str().to_string(),
        });
        run
    })
}

/// A single-model co-design of `model` under `cfg`.
fn codesign(cfg: CodesignConfig, obs: &Observer, model: &Model) -> CodesignOutcome {
    Spotlight::new(cfg)
        .with_observer(obs.clone())
        .codesign(std::slice::from_ref(model))
}

/// Figure 10's single-model edge co-designs: each variant, each trial.
fn variant_runs<'a>(
    b: &'a Budgets,
    obs: &'a Observer,
    objective: Objective,
    model: &'a Model,
) -> impl Iterator<Item = (Variant, u64, CodesignOutcome)> + 'a {
    Variant::FIGURE10.into_iter().flat_map(move |variant| {
        (0..b.trials).map(move |t| {
            let cfg = b.config(CodesignConfig::edge, t, objective, variant);
            (variant, t, codesign(cfg, obs, model))
        })
    })
}

/// Appends Spotlight's row and each hand-designed baseline's row on
/// `model`: the per-trial best cost at `scale`.
fn push_spotlight_and_baselines(
    rows: &mut Vec<Row>,
    b: &Budgets,
    obs: &Observer,
    scale: fn() -> CodesignConfigBuilder,
    objective: Objective,
    model: &Model,
) {
    let configs = || (0..b.trials).map(move |t| b.config(scale, t, objective, Variant::Spotlight));
    let spotlight = configs().map(|cfg| codesign(cfg, obs, model).best_cost);
    rows.push(Row::new(
        objective,
        model.name(),
        "Spotlight",
        spotlight.collect(),
    ));
    for baseline in Baseline::FIGURE6 {
        let values = configs().map(|cfg| {
            let (plan, _) = evaluate_baseline(&cfg, baseline, model);
            plan.objective_value(objective)
        });
        rows.push(Row::new(
            objective,
            model.name(),
            baseline.name(),
            values.collect(),
        ));
    }
}

/// Figure 3 and the Section IV space-size claim: the co-design
/// parameter table (name, kind, value count) for the edge and cloud
/// settings, then the exact hardware, software and joint space sizes of
/// each model's heaviest layer (the "O(10^18) configurations for a
/// single layer of ResNet-50" claim).
pub fn fig3_space(_: &Budgets, models: &[Model], _: &Observer) -> String {
    let mut out = String::new();
    for (label, ranges) in [
        ("edge", ParamRanges::edge()),
        ("cloud", ParamRanges::cloud()),
    ] {
        let _ = writeln!(out, "# {label} parameter space\nparameter,kind,values");
        for d in ranges.descriptors() {
            let values = if d.value_count == 0 {
                "shape-dependent".to_string()
            } else {
                d.value_count.to_string()
            };
            let _ = writeln!(out, "{},{},{}", d.name, d.kind, values);
        }
        out.push('\n');
    }
    out.push_str("# space cardinalities (edge ranges)\n");
    out.push_str("model,layer,hw_space,sw_space,codesign_space\n");
    let hw = cardinality::hw_space_size(&ParamRanges::edge());
    for model in models {
        let layer = model.heaviest_layer().layer;
        let sw = cardinality::sw_space_size(&layer);
        let _ = writeln!(
            out,
            "{},{layer},{hw:.3e},{sw:.3e},{:.3e}",
            model.name(),
            hw * sw
        );
    }
    out
}

/// Figure 6: edge-scale single-model delay of Spotlight, the
/// hand-designed baselines (Eyeriss-, NVDLA-, MAERI-like, area-scaled to
/// the same budget under the layerwise software optimizer) and the
/// restricted tools on the models they accept.
///
/// Expected shape (paper): Spotlight lowest; Eyeriss worst among hand
/// designs; the restricted tools trailing.
pub fn fig6_edge(b: &Budgets, models: &[Model], obs: &Observer) -> String {
    rows_to_csv(&fig6_rows(b, models, obs))
}

/// [`fig6_edge`]'s series, one per configuration and model.
pub fn fig6_rows(b: &Budgets, models: &[Model], obs: &Observer) -> Vec<Row> {
    let objective = Objective::Delay;
    let mut rows = Vec::new();
    for model in models {
        push_spotlight_and_baselines(&mut rows, b, obs, CodesignConfig::edge, objective, model);
        for (name, tool) in tools_for(model) {
            let values = tool_runs(b, obs, objective, model, tool).map(|run| run.best_cost);
            rows.push(Row::new(objective, model.name(), name, values.collect()));
        }
    }
    rows
}

/// Figure 7: cloud-scale EDP and delay of Spotlight (whose only change
/// is the parameter ranges, Section VII) against the scaled-up hand
/// designs. The restricted tools do not support cloud scale and are
/// omitted, as in the paper.
pub fn fig7_cloud(b: &Budgets, models: &[Model], obs: &Observer) -> String {
    let mut rows = Vec::new();
    for objective in Objective::ALL {
        for model in models {
            push_spotlight_and_baselines(
                &mut rows,
                b,
                obs,
                CodesignConfig::cloud,
                objective,
                model,
            );
        }
    }
    rows_to_csv(&rows)
}

/// Figure 8: multi-model co-design and generalization on all five
/// models, whatever the model set, for EDP and delay:
///
/// - **Spotlight-Single**: the accelerator co-designed for that model
///   alone (Section VII-A);
/// - **Spotlight-Multi**: one accelerator co-designed for all five
///   models, then daBO_SW re-run per model;
/// - **Spotlight-General**: an accelerator co-designed with VGG16,
///   ResNet-50 and MobileNetV2, evaluated on the held-out MnasNet and
///   Transformer (so only those two get General rows).
///
/// Expected shape (paper): Single <= General <= Multi in most cases,
/// with the counterintuitive General < Multi ordering of Section VII-B.
pub fn fig8_general(b: &Budgets, _: &[Model], obs: &Observer) -> String {
    let models = all_models();
    let train = [vgg16(), resnet50(), mobilenet_v2()];
    let eval = [mnasnet(), transformer()];
    let mut rows = Vec::new();
    for objective in Objective::ALL {
        let config = |seed| b.config(CodesignConfig::edge, seed, objective, Variant::Spotlight);
        for model in &models {
            let values = (0..b.trials).map(|t| codesign(config(t), obs, model).best_cost);
            rows.push(Row::new(
                objective,
                model.name(),
                "Spotlight-Single",
                values.collect(),
            ));
        }

        let mut multi = BTreeMap::new();
        for t in 0..b.trials {
            let tool = Spotlight::new(config(100 + t)).with_observer(obs.clone());
            if let Some(hw) = tool.codesign(&models).best_hw {
                let (plans, _) = tool.optimize_software(&hw, &models, 1000 + t);
                push_by_model(&mut multi, plans, objective);
            }
        }
        let mut general = BTreeMap::new();
        for t in 0..b.trials {
            let (_, plans) = generalization(&config(200 + t), &train, &eval, obs);
            push_by_model(&mut general, plans, objective);
        }
        for (configuration, per_model) in
            [("Spotlight-Multi", multi), ("Spotlight-General", general)]
        {
            for (model, values) in per_model {
                rows.push(Row::new(objective, &model, configuration, values));
            }
        }
    }
    rows_to_csv(&rows)
}

/// Appends each plan's `objective` value to its model's series.
fn push_by_model(
    series: &mut BTreeMap<String, Vec<f64>>,
    plans: Vec<ModelPlan>,
    objective: Objective,
) {
    for plan in plans {
        let value = plan.objective_value(objective);
        series
            .entry(plan.model_name.to_string())
            .or_default()
            .push(value);
    }
}

/// Figure 9: relative permutation importance of each daBO_SW feature.
///
/// For each model, a linear surrogate is trained on the features of
/// random software samples pooled across all of the model's layers (so
/// layer-shape-dependent features such as kernel parallelism vary);
/// each feature is then randomly perturbed and the mean change in the
/// surrogate's prediction recorded (Altmann/Breiman permutation
/// importance), normalized per model. Section VII-D repeats the study
/// on the raw parameters (Spotlight-V) and on their union with the
/// features (Spotlight-A).
///
/// Expected shape (paper): no single dominant feature for the CNNs;
/// "parallelism available in the kernel" dominant for Transformer.
pub fn fig9_importance(_: &Budgets, models: &[Model], _: &Observer) -> String {
    let hw = Baseline::NvdlaLike.edge_config();
    let features: Vec<String> = SW_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    let mut raw: Vec<String> = Vec::new();
    for level in ["L2", "RF"] {
        raw.extend(spotlight_conv::DIMS.iter().map(|d| format!("{level}[{d}]")));
    }
    raw.extend(["OuterOrder", "InnerOrder", "OuterUnroll", "InnerUnroll"].map(String::from));
    let union: Vec<String> = features.iter().chain(&raw).cloned().collect();

    let mut out = String::new();
    importance(&mut out, models, "spotlight", &features, &|s, l| {
        sw_features(&hw, s, l)
    });
    importance(&mut out, models, "spotlight-v", &raw, &|s, _| {
        raw_sw_params(s)
    });
    importance(&mut out, models, "spotlight-a", &union, &|s, l| {
        all_sw_features(&hw, s, l)
    });
    out
}

/// One feature space's rows of [`fig9_importance`].
fn importance(
    out: &mut String,
    models: &[Model],
    label: &str,
    names: &[String],
    featurize: &dyn Fn(&Schedule, &ConvLayer) -> Vec<f64>,
) {
    /// Random feasible samples collected per layer.
    const SAMPLES_PER_LAYER: usize = 60;
    let cost_model = CostModel::default();
    let hw = Baseline::NvdlaLike.edge_config();
    let _ = writeln!(out, "{label}:model,{}", names.join(","));
    for model in models {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for entry in model.layers() {
            let mut collected = 0;
            let mut tries = 0;
            while collected < SAMPLES_PER_LAYER && tries < SAMPLES_PER_LAYER * 30 {
                tries += 1;
                let s = sample::sample_schedule(&mut rng, &entry.layer);
                if let Ok(r) = cost_model.evaluate(&hw, &s, &entry.layer) {
                    xs.push(featurize(&s, &entry.layer));
                    ys.push(r.edp().ln());
                    collected += 1;
                }
            }
        }
        if xs.len() < 50 {
            eprintln!("warning: too few feasible samples for {}", model.name());
            continue;
        }
        let mut surrogate = BayesianLinearModel::new(10.0, 1e-2);
        surrogate
            .fit(&xs, &ys)
            .expect("pooled dataset is well-formed");
        let _ = write!(out, "{label}:{}", model.name());
        for v in permutation_importance(&surrogate, &xs, &mut rng) {
            let _ = write!(out, ",{v:.4}");
        }
        out.push('\n');
    }
}

/// Figure 10: convergence of each search algorithm during single-model
/// co-design: every trial's best-so-far objective against cumulative
/// cost-model evaluations (the hardware-independent analogue of the
/// paper's wall-clock x-axis), one row per hardware sample.
///
/// Expected shape (paper): Spotlight and Spotlight-F converge lowest;
/// Spotlight-V trails them by up to 2x; random and GA trail further;
/// ConfuciuX plateaus above all Spotlight variants.
pub fn fig10_ablation(b: &Budgets, models: &[Model], obs: &Observer) -> String {
    let mut out = String::from("metric,model,configuration,trial,evaluations,best_so_far\n");
    let mut series =
        |objective: Objective, model: &Model, config: &str, t: u64, trace: &[(u64, f64)]| {
            for (evals, best) in trace {
                let _ = writeln!(
                    out,
                    "{objective},{},{config},{t},{evals},{best:.6e}",
                    model.name()
                );
            }
        };
    for objective in Objective::ALL {
        for model in models {
            for (variant, t, run) in variant_runs(b, obs, objective, model) {
                series(objective, model, variant.name(), t, &run.eval_trace);
            }
            for (name, tool) in tools_for(model) {
                for (t, run) in (0..).zip(tool_runs(b, obs, objective, model, tool)) {
                    series(objective, model, name, t, &run.eval_trace);
                }
            }
        }
    }
    out
}

/// Figure 11: the empirical CDF of the EDP of every hardware sample each
/// variant evaluated (not just the best), per trial. Infeasible samples
/// are reported once per trial as an `infeasible_fraction` row.
///
/// Expected shape (paper): Spotlight and Spotlight-F furthest left with
/// a steep initial slope; most Spotlight samples beat the best random
/// sample (81.7% in the paper).
pub fn fig11_cdf(b: &Budgets, models: &[Model], obs: &Observer) -> String {
    let mut out = String::from("metric,model,configuration,trial,objective,cdf\n");
    let objective = Objective::Edp;
    for model in models {
        for (variant, t, run) in variant_runs(b, obs, objective, model) {
            let prefix = format!("{objective},{},{},{t}", model.name(), variant.name());
            let mut finite: Vec<f64> = run
                .hw_history
                .iter()
                .copied()
                .filter(|c| c.is_finite())
                .collect();
            finite.sort_by(f64::total_cmp);
            let n = run.hw_history.len() as f64;
            for (i, c) in finite.iter().enumerate() {
                let _ = writeln!(out, "{prefix},{c:.6e},{:.4}", (i + 1) as f64 / n);
            }
            let infeasible = run.hw_history.len() - finite.len();
            let _ = writeln!(
                out,
                "{prefix},infeasible_fraction,{:.4}",
                infeasible as f64 / n
            );
        }
    }
    out
}

/// Section VII-C: why Spotlight wins, on the first model. Per design:
/// throughput per joule (paper: 26x over Eyeriss, 28x over NVDLA, 8.3x
/// over MAERI), reads per fill in the scratchpad and the RF, the array's
/// aspect ratio ("long and narrow") and the energy share of DRAM and MACs.
pub fn secc_discussion(b: &Budgets, models: &[Model], obs: &Observer) -> String {
    let model = &models[0];
    let mut out = String::from("configuration,macs_per_nj,l2_reads_per_fill,rf_reads_per_fill,aspect_ratio,energy_dram_frac,energy_mac_frac\n");
    let cfg = b.config(CodesignConfig::edge, 0, Objective::Edp, Variant::Spotlight);
    let run = codesign(cfg, obs, model);
    if let Some(hw) = run.best_hw {
        energy_row(
            &mut out,
            "Spotlight-Opt",
            hw.aspect_ratio(),
            &run.best_plans[0],
        );
    }
    for baseline in Baseline::FIGURE6 {
        let (plan, _) = evaluate_baseline(&cfg, baseline, model);
        let hw = baseline.scaled_config(&cfg.budget());
        energy_row(&mut out, baseline.name(), hw.aspect_ratio(), &plan);
    }
    out
}

/// One [`secc_discussion`] row: the plan's per-layer reports summed,
/// weighted by layer multiplicity.
fn energy_row(out: &mut String, name: &str, aspect: f64, plan: &ModelPlan) {
    let (mut macs, mut l2_bytes, mut dram, mut rf_accesses, mut e_dram, mut e_mac) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for lp in &plan.layers {
        let c = lp.count as f64;
        macs += lp.report.macs * c;
        l2_bytes += lp.report.l2_bytes * c;
        dram += lp.report.dram_bytes * c;
        rf_accesses += lp.report.rf_accesses * c;
        e_dram += lp.report.energy_dram_nj * c;
        e_mac += lp.report.energy_mac_nj * c;
    }
    let noc = (l2_bytes - dram).max(1.0);
    let _ = writeln!(
        out,
        "{name},{:.2},{:.2},{:.2},{:.2},{:.3},{:.3}",
        macs / plan.total_energy,
        noc / dram.max(1.0),
        rf_accesses / noc,
        aspect,
        e_dram / plan.total_energy,
        e_mac / plan.total_energy,
    );
}

/// Section VII-D: surrogate-model accuracy. Gaussian processes with the
/// linear and Matérn-5/2 kernels train on the standardized features of
/// 90% of 1,200 random HW/SW samples of each model's heaviest layer and
/// are scored on the rest: Spearman rank correlation and the top-20%
/// hit rate.
///
/// Expected shape (paper): low absolute correlation for both kernels
/// (rho ~ 0.08 and 0.11), Matérn slightly ahead, with roughly a quarter
/// of the true top-20% correctly ranked.
pub fn secd_surrogate(_: &Budgets, models: &[Model], _: &Observer) -> String {
    /// Total dataset size (train + test). The paper uses "thousands".
    const DATASET: usize = 1200;
    let cost_model = CostModel::default();
    let ranges = ParamRanges::edge();
    let mut out = String::from("metric,kernel,spearman_rho,top20_hit_rate,n_train,n_test\n");
    for objective in Objective::ALL {
        let mut rng = ChaCha8Rng::seed_from_u64(2023);
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        'outer: loop {
            for model in models {
                let layer = model.heaviest_layer().layer;
                let hw = sample::sample_hw(&mut rng, &ranges);
                let sched = sample::sample_schedule(&mut rng, &layer);
                if let Ok(r) = cost_model.evaluate(&hw, &sched, &layer) {
                    xs.push(sw_features(&hw, &sched, &layer));
                    ys.push(r.objective(objective).ln());
                    if xs.len() >= DATASET {
                        break 'outer;
                    }
                }
            }
        }
        let xs = Standardizer::fit(&xs).transform_all(&xs);
        let split = xs.len() * 9 / 10;
        let (train_x, test_x) = xs.split_at(split);
        let (train_y, test_y) = ys.split_at(split);
        for (name, kernel) in [
            ("linear", Kernel::linear()),
            ("matern52", Kernel::matern52(3.0)),
        ] {
            let mut gp = GaussianProcess::new(kernel, 1e-2);
            gp.fit(train_x, train_y).expect("dataset is well-formed");
            let preds: Vec<f64> = test_x.iter().map(|x| gp.predict(x).0).collect();
            let rho = spearman_rho(&preds, test_y);
            let hit = top_quantile_hit_rate(test_y, &preds, 0.2);
            let _ = writeln!(
                out,
                "{objective},{name},{rho:.4},{hit:.4},{},{}",
                train_x.len(),
                test_x.len()
            );
        }
    }
    out
}

/// One layer's agreement between two cost models (Section VII-F).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerOverlap {
    /// Model name.
    pub model: String,
    /// The layer both models ranked.
    pub layer: ConvLayer,
    /// Samples feasible under both models.
    pub samples: usize,
    /// Share of the 20 best samples both rankings have in common.
    pub top: f64,
    /// Share of the 20 worst samples both rankings have in common.
    pub bottom: f64,
}

/// Section VII-F's cross-check of the MAESTRO- and Timeloop-like cost
/// models: for every layer of every model, up to 100 random edge-scale
/// (hardware, schedule) samples feasible under both are ranked by each
/// model's EDP, and the shares of the 20 best and the 20 worst the
/// rankings have in common recorded. Layers with fewer than 40 jointly
/// feasible samples are skipped.
pub fn ranking_overlaps(models: &[Model]) -> Vec<LayerOverlap> {
    /// Samples per layer (the paper evaluates 100 per layer).
    const SAMPLES: usize = 100;
    /// Extremity size compared between the two rankings.
    const TOP_K: usize = 20;
    let (a, b) = (MaestroBackend::default(), TimeloopBackend::default());
    let ranges = ParamRanges::edge();
    let overlap = |x: &[usize], y: &[usize]| {
        x.iter().filter(|i| y.contains(i)).count() as f64 / x.len() as f64
    };
    let mut overlaps = Vec::new();
    for model in models {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for entry in model.layers() {
            let layer = entry.layer;
            let mut pairs: Vec<(f64, f64)> = Vec::new();
            let mut tries = 0;
            while pairs.len() < SAMPLES && tries < SAMPLES * 50 {
                tries += 1;
                let hw = sample::sample_hw(&mut rng, &ranges);
                let sched = sample::sample_schedule(&mut rng, &layer);
                if let (Ok(x), Ok(y)) = (
                    a.evaluate(&hw, &sched, &layer),
                    b.evaluate(&hw, &sched, &layer),
                ) {
                    pairs.push((x.edp(), y.edp()));
                }
            }
            if pairs.len() < 2 * TOP_K {
                continue;
            }
            let rank_by = |key: fn(&(f64, f64)) -> f64| -> Vec<usize> {
                let mut idx: Vec<usize> = (0..pairs.len()).collect();
                idx.sort_by(|&x, &y| key(&pairs[x]).total_cmp(&key(&pairs[y])));
                idx
            };
            let (by_a, by_b) = (rank_by(|p| p.0), rank_by(|p| p.1));
            let n = pairs.len();
            overlaps.push(LayerOverlap {
                model: model.name().into(),
                layer,
                samples: n,
                top: overlap(&by_a[..TOP_K], &by_b[..TOP_K]),
                bottom: overlap(&by_a[n - TOP_K..], &by_b[n - TOP_K..]),
            });
        }
    }
    overlaps
}

/// The mean top/bottom overlap over `overlaps`' layers (NaN when empty).
pub fn average_overlap(overlaps: &[LayerOverlap]) -> f64 {
    overlaps
        .iter()
        .map(|o| (o.top + o.bottom) / 2.0)
        .sum::<f64>()
        / overlaps.len() as f64
}

/// Section VII-F: does Spotlight overfit the MAESTRO-like model? The
/// per-layer [`ranking_overlaps`] of the MAESTRO- and Timeloop-like
/// models and their average. The paper reports ~35% average overlap:
/// partial agreement, so the designs are not artifacts of one model.
pub fn secf_timeloop(_: &Budgets, models: &[Model], _: &Observer) -> String {
    let overlaps = ranking_overlaps(models);
    let mut out = String::from("model,layer,samples,top20_overlap,bottom20_overlap\n");
    for o in &overlaps {
        let _ = writeln!(
            out,
            "{},{},{},{:.3},{:.3}",
            o.model, o.layer, o.samples, o.top, o.bottom
        );
    }
    if !overlaps.is_empty() {
        let _ = writeln!(out, "AVERAGE,,,{:.3},", average_overlap(&overlaps));
    }
    out
}

/// Interconnect deep-dive, the backdrop for Section VII-C's discussion
/// of narrow arrays and unicast counts: for each rigid dataflow on its
/// baseline accelerator, the per-tensor delivery pattern and the NoC
/// cost of one inner iteration.
pub fn noc_analysis(_: &Budgets, _: &[Model], _: &Observer) -> String {
    let layers = [
        ("resnet_conv3x3", ConvLayer::new(1, 128, 64, 3, 3, 28, 28)),
        ("gemm", ConvLayer::new(1, 768, 1, 24, 32, 16, 32)),
    ];
    let mut out = String::from(
        "layer,baseline,tensor,pattern,rf_elems,link_traversals,trunk_cycles,max_hops\n",
    );
    for (lname, layer) in layers {
        for base in [
            Baseline::EyerissLike,
            Baseline::NvdlaLike,
            Baseline::ShiDianNaoLike,
        ] {
            let hw = base.edge_config();
            let a = analyze(
                &hw,
                &dataflow_schedule(base.dataflow(), &layer, &hw),
                &layer,
            );
            for (tensor, d) in [
                ("weights", a.weights),
                ("inputs", a.inputs),
                ("outputs", a.outputs),
            ] {
                let _ = writeln!(
                    out,
                    "{lname},{},{tensor},{},{},{:.1},{:.1},{}",
                    base.name(),
                    d.pattern,
                    d.rf_tile_elems,
                    d.link_traversals,
                    d.trunk_cycles,
                    a.max_hops
                );
            }
        }
    }
    out
}

/// Ablations of this reproduction's design choices (DESIGN.md) on the
/// per-layer software search, each over five seeds on a representative
/// ResNet-50 layer and on the heaviest Transformer GEMM: LCB (the
/// paper's choice) vs expected improvement, the guided proposal mixture
/// vs pure uniform proposals, and the feature-space surrogate vs
/// Spotlight-V's raw parameters and Spotlight-R's random search.
pub fn ablation_design(_: &Budgets, _: &[Model], _: &Observer) -> String {
    const SEEDS: u64 = 5;
    let engine = EvalEngine::default();
    let hw = Baseline::NvdlaLike.edge_config();
    let layers = [
        ("resnet_conv3x3", ConvLayer::new(1, 128, 64, 3, 3, 28, 28)),
        ("transformer_gemm", transformer().heaviest_layer().layer),
    ];
    let cfg = SwSearchConfig {
        samples: 80,
        objective: Objective::Edp,
        variant: Variant::Spotlight,
    };
    let with_variant = |variant| SwSearchConfig { variant, ..cfg };
    let edp = |result: SwResult| result.objective_value(Objective::Edp);

    let mut out = String::from("layer,configuration,min,max,median\n");
    for (name, layer) in layers {
        let mut run = |label: &str, f: &dyn Fn(&mut ChaCha8Rng) -> f64| {
            let costs: Vec<f64> = (0..SEEDS)
                .map(|s| f(&mut ChaCha8Rng::seed_from_u64(s)))
                .collect();
            let s = stats(&costs);
            let _ = writeln!(
                out,
                "{name},{label},{:.4e},{:.4e},{:.4e}",
                s.min, s.max, s.median
            );
        };
        let lcb = Acquisition::LowerConfidenceBound;
        run("lcb_guided (default)", &|rng| {
            edp(optimize_schedule_with_acquisition(
                &engine, &hw, &layer, &cfg, lcb, rng,
            ))
        });
        run("ei_guided", &|rng| {
            let ei = Acquisition::ExpectedImprovement;
            edp(optimize_schedule_with_acquisition(
                &engine, &hw, &layer, &cfg, ei, rng,
            ))
        });
        run("lcb_uniform", &|rng| {
            edp(optimize_schedule_uniform(
                &engine, &hw, &layer, &cfg, lcb, rng,
            ))
        });
        run("matern_raw_params (Spotlight-V)", &|rng| {
            edp(optimize_schedule(
                &engine,
                &hw,
                &layer,
                &with_variant(Variant::SpotlightV),
                rng,
            ))
        });
        run("random (Spotlight-R)", &|rng| {
            edp(optimize_schedule(
                &engine,
                &hw,
                &layer,
                &with_variant(Variant::SpotlightR),
                rng,
            ))
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Model {
        Model::from_layers("tiny", vec![ConvLayer::new(1, 16, 8, 3, 3, 14, 14)])
    }

    fn budgets() -> Budgets {
        Budgets {
            trials: 2,
            hw_samples: 4,
            sw_samples: 8,
            threads: 1,
        }
    }

    #[test]
    fn fig6_rows_cover_spotlight_baselines_and_confuciux() {
        let b = budgets();
        let rows = fig6_rows(&b, &[tiny()], &Observer::null());
        // Spotlight + 3 baselines + ConfuciuX (tiny is not Transformer).
        let names: Vec<&str> = rows.iter().map(|r| r.configuration.as_str()).collect();
        assert_eq!(names.len(), 5, "{names:?}");
        assert_eq!(names[0], "Spotlight");
        assert_eq!(names[4], "ConfuciuX");
        for row in &rows {
            assert_eq!(row.values.len() as u64, b.trials, "{}", row.configuration);
            assert!(
                row.values.iter().all(|v| v.is_finite()),
                "{}: {:?}",
                row.configuration,
                row.values
            );
        }
    }

    #[test]
    fn study_names_are_unique_and_found() {
        for (i, (name, _)) in STUDIES.iter().enumerate() {
            assert!(
                STUDIES[..i].iter().all(|(n, _)| n != name),
                "{name} listed twice"
            );
            assert!(study(name).is_some());
        }
        assert!(study("run_ae").is_none());
    }
}
