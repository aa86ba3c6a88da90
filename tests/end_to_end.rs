//! Cross-crate integration tests: the full Spotlight pipeline from model
//! definition through co-design to reported metrics.

use spotlight_repro::accel::{Baseline, Budget};
use spotlight_repro::conv::ConvLayer;
use spotlight_repro::maestro::Objective;
use spotlight_repro::models::Model;
use spotlight_repro::spotlight::codesign::{CodesignConfig, Spotlight};
use spotlight_repro::spotlight::scenarios::evaluate_baseline;
use spotlight_repro::spotlight::Variant;

fn small_model() -> Model {
    Model::from_layers(
        "itest",
        vec![
            ConvLayer::new(1, 64, 32, 3, 3, 28, 28),
            ConvLayer::new(1, 128, 64, 1, 1, 14, 14),
            ConvLayer::new(1, 128, 64, 1, 1, 14, 14), // dedup with previous
        ],
    )
}

fn config(seed: u64) -> CodesignConfig {
    CodesignConfig::edge()
        .hw_samples(12)
        .sw_samples(30)
        .objective(Objective::Edp)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

#[test]
fn codesign_produces_budget_respecting_design() {
    let out = Spotlight::new(config(0)).codesign(&[small_model()]);
    let hw = out.best_hw.expect("feasible design");
    assert!(Budget::edge().admits(&hw));
    // Dedup: two unique layers planned, multiplicity preserved.
    let plan = &out.best_plans[0];
    assert_eq!(plan.layers.len(), 2);
    assert_eq!(plan.layers.iter().map(|l| l.count).max(), Some(2));
}

#[test]
fn reported_cost_is_reproducible_from_plan() {
    // The aggregate cost must equal the sum over layers of
    // delay*count and energy*count recombined under the objective.
    let out = Spotlight::new(config(1)).codesign(&[small_model()]);
    let plan = &out.best_plans[0];
    let delay: f64 = plan
        .layers
        .iter()
        .map(|l| l.report.delay_cycles * l.count as f64)
        .sum();
    let energy: f64 = plan
        .layers
        .iter()
        .map(|l| l.report.energy_nj * l.count as f64)
        .sum();
    assert!((plan.total_delay - delay).abs() < 1e-9 * delay);
    assert!((plan.total_energy - energy).abs() < 1e-9 * energy);
    assert!((out.best_cost - delay * energy).abs() < 1e-6 * out.best_cost);
}

#[test]
fn plans_replay_through_the_cost_model() {
    // Every planned (schedule, report) pair must replay exactly on the
    // cost model: the plan is a real executable mapping, not a summary.
    let tool = Spotlight::new(config(2));
    let out = tool.codesign(&[small_model()]);
    let hw = out.best_hw.unwrap();
    for plan in &out.best_plans {
        for lp in &plan.layers {
            let replay = tool
                .engine()
                .evaluate(&hw, &lp.schedule, &lp.layer)
                .expect("planned schedule is feasible");
            assert_eq!(replay, lp.report);
        }
    }
}

#[test]
fn spotlight_beats_every_hand_designed_baseline() {
    // The Figure 6 headline at miniature scale.
    let cfg = config(3)
        .to_builder()
        .hw_samples(20)
        .sw_samples(50)
        .build()
        .expect("test config is valid");
    let model = small_model();
    let spot = Spotlight::new(cfg).codesign(std::slice::from_ref(&model));
    for b in Baseline::FIGURE6 {
        let (plan, _) = evaluate_baseline(&cfg, b, &model);
        let baseline_cost = plan.objective_value(cfg.objective());
        assert!(
            spot.best_cost < baseline_cost,
            "{b}: spotlight {} !< {}",
            spot.best_cost,
            baseline_cost
        );
    }
}

#[test]
fn every_variant_completes_a_codesign() {
    for variant in Variant::ALL {
        let cfg = config(4)
            .to_builder()
            .hw_samples(6)
            .sw_samples(10)
            .variant(variant)
            .build()
            .expect("test config is valid");
        let out = Spotlight::new(cfg).codesign(&[small_model()]);
        assert!(out.best_hw.is_some(), "{variant} found nothing");
        assert!(out.best_cost.is_finite());
    }
}

#[test]
fn cloud_codesign_beats_edge_on_delay_for_heavy_models() {
    let model = Model::from_layers("heavy", vec![ConvLayer::new(1, 512, 256, 3, 3, 28, 28)]);
    let edge_cfg = config(5)
        .to_builder()
        .objective(Objective::Delay)
        .build()
        .expect("test config is valid");
    let cloud_cfg = CodesignConfig::cloud()
        .objective(Objective::Delay)
        .hw_samples(12)
        .sw_samples(30)
        .seed(5)
        .build()
        .expect("test config is valid");
    let edge = Spotlight::new(edge_cfg).codesign(std::slice::from_ref(&model));
    let cloud = Spotlight::new(cloud_cfg).codesign(std::slice::from_ref(&model));
    assert!(
        cloud.best_cost < edge.best_cost,
        "cloud {} !< edge {}",
        cloud.best_cost,
        edge.best_cost
    );
}

#[test]
fn evaluation_budget_is_respected() {
    let cfg = config(6);
    let out = Spotlight::new(cfg).codesign(&[small_model()]);
    // 12 hw x 2 unique layers x 30 sw samples is the ceiling.
    assert!(out.evaluations <= 12 * 2 * 30);
    assert_eq!(out.hw_history.len(), cfg.hw_samples());
}
