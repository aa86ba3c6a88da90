//! Multi-model co-design and generalization — a miniature of Figure 8.
//!
//! ```sh
//! cargo run --release --example multi_model_asic
//! ```
//!
//! Designs one programmable ASIC for several models at once (the
//! "all models known at design time" deployment), then checks how an
//! accelerator co-designed with only two models generalizes to an
//! unseen third.

use spotlight_repro::maestro::Objective;
use spotlight_repro::models::{mnasnet, mobilenet_v2, resnet50};
use spotlight_repro::obs::Observer;
use spotlight_repro::spotlight::codesign::{CodesignConfig, Spotlight};
use spotlight_repro::spotlight::scenarios::generalization;

fn main() {
    let config = CodesignConfig::edge()
        .hw_samples(10)
        .sw_samples(20)
        .objective(Objective::Edp)
        .seed(1)
        .build()
        .expect("edge defaults with a light budget are valid");

    // Scenario 1: all models known at design time.
    let models = vec![resnet50(), mobilenet_v2(), mnasnet()];
    let tool = Spotlight::new(config);
    let outcome = tool.codesign(&models);
    let hw = outcome.best_hw.expect("feasible");
    println!("multi-model ASIC: {hw}");
    let (plans, _) = tool.optimize_software(&hw, &models, 99);
    for plan in &plans {
        println!(
            "  {:12} EDP {:.3e} (delay {:.3e} cyc, energy {:.3e} nJ)",
            plan.model_name,
            plan.objective_value(Objective::Edp),
            plan.total_delay,
            plan.total_energy
        );
    }

    // Scenario 2: generalize to a model unseen at design time.
    let train = vec![resnet50(), mobilenet_v2()];
    let eval = vec![mnasnet()];
    let (train_outcome, eval_plans) = generalization(&config, &train, &eval, &Observer::null());
    println!(
        "\ngeneralization ASIC (trained on ResNet-50 + MobileNetV2): {}",
        train_outcome.best_hw.expect("feasible")
    );
    for plan in &eval_plans {
        println!(
            "  held-out {:10} EDP {:.3e}",
            plan.model_name,
            plan.objective_value(Objective::Edp)
        );
    }
}
