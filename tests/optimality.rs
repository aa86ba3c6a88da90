//! Ground-truth validation: on layers small enough to enumerate, the
//! sampled searches must approach the exhaustive optimum, and the
//! exhaustive optimum must beat every heuristic schedule.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use spotlight_repro::accel::HardwareConfig;
use spotlight_repro::conv::ConvLayer;
use spotlight_repro::eval::EvalEngine;
use spotlight_repro::maestro::{CostModel, Objective};
use spotlight_repro::space::dataflows::rigid_schedules;
use spotlight_repro::space::enumerate::{brute_force_optimum, representative_orders, space_size};
use spotlight_repro::spotlight::swsearch::{optimize_schedule, SwSearchConfig};
use spotlight_repro::spotlight::Variant;

fn tiny_layer() -> ConvLayer {
    ConvLayer::new(1, 4, 2, 1, 1, 4, 2)
}

fn small_hw() -> HardwareConfig {
    HardwareConfig::new(32, 8, 2, 64, 64, 64).unwrap()
}

fn ground_truth() -> f64 {
    let model = CostModel::default();
    let hw = small_hw();
    let layer = tiny_layer();
    let orders = representative_orders();
    let (_, best) = brute_force_optimum(&layer, &orders, |s| {
        model.evaluate(&hw, s, &layer).ok().map(|r| r.edp())
    })
    .expect("tiny layer has feasible schedules");
    best
}

#[test]
fn exhaustive_space_is_the_advertised_size() {
    let layer = tiny_layer();
    let orders = representative_orders();
    let n: usize = spotlight_repro::space::enumerate::enumerate_schedules(&layer, &orders).count();
    assert_eq!(n as f64, space_size(&layer, orders.len() as u64));
}

#[test]
fn brute_force_beats_every_rigid_dataflow() {
    let model = CostModel::default();
    let hw = small_hw();
    let layer = tiny_layer();
    let best = ground_truth();
    for (style, sched) in rigid_schedules(&layer, &hw) {
        if let Ok(r) = model.evaluate(&hw, &sched, &layer) {
            assert!(
                best <= r.edp() * (1.0 + 1e-9),
                "{style} beats the 'optimum': {} < {best}",
                r.edp()
            );
        }
    }
}

#[test]
fn dabo_approaches_the_exhaustive_optimum() {
    // daBO searches the *full* space (all 5040^2 orders), the brute force
    // a representative subset, so daBO may even do better; it must land
    // within 2x of the restricted optimum using ~100 of the ~400k points.
    let model = EvalEngine::default();
    let hw = small_hw();
    let layer = tiny_layer();
    let best = ground_truth();
    let cfg = SwSearchConfig {
        samples: 100,
        objective: Objective::Edp,
        variant: Variant::Spotlight,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let r = optimize_schedule(&model, &hw, &layer, &cfg, &mut rng);
    let found = r.objective_value(Objective::Edp);
    assert!(
        found <= best * 2.0,
        "daBO found {found}, exhaustive optimum {best}"
    );
}

#[test]
fn random_search_needs_more_samples_than_dabo_for_same_quality() {
    // Sample-efficiency, quantified against ground truth: count the
    // samples each algorithm needs to get within 3x of the optimum
    // (median over seeds).
    let model = EvalEngine::default();
    let hw = small_hw();
    let layer = tiny_layer();
    let target = ground_truth() * 3.0;
    let samples_to_target = |variant, seed| -> usize {
        let cfg = SwSearchConfig {
            samples: 120,
            objective: Objective::Edp,
            variant,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let r = optimize_schedule(&model, &hw, &layer, &cfg, &mut rng);
        r.trace
            .best_so_far()
            .iter()
            .position(|&c| c <= target)
            .map_or(usize::MAX, |i| i + 1)
    };
    let median = |mut v: Vec<usize>| -> usize {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let dabo: Vec<usize> = (0..7)
        .map(|s| samples_to_target(Variant::Spotlight, s))
        .collect();
    let random: Vec<usize> = (0..7)
        .map(|s| samples_to_target(Variant::SpotlightR, s))
        .collect();
    assert!(
        median(dabo.clone()) <= median(random.clone()),
        "dabo {dabo:?} vs random {random:?}"
    );
}
