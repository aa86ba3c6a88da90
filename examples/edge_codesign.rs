//! Edge-scale single-model co-design versus hand-designed accelerators —
//! a miniature of the paper's Figure 6 for ResNet-50.
//!
//! ```sh
//! cargo run --release --example edge_codesign
//! ```
//!
//! Spotlight co-designs an accelerator for ResNet-50 under the edge
//! budget; the Eyeriss-, NVDLA- and MAERI-like baselines run the same
//! model under the layerwise software optimizer (their dataflows pinned,
//! tiling optimized). Expect Spotlight to win and MAERI to lead the hand
//! designs.

use spotlight_repro::accel::Baseline;
use spotlight_repro::maestro::Objective;
use spotlight_repro::models::resnet50;
use spotlight_repro::spotlight::codesign::{CodesignConfig, Spotlight};
use spotlight_repro::spotlight::scenarios::evaluate_baseline;

fn main() {
    let model = resnet50();
    println!("co-designing for {}", model.name());

    let config = CodesignConfig::edge()
        .hw_samples(15)
        .sw_samples(25)
        .objective(Objective::Delay)
        .seed(0)
        .build()
        .expect("edge defaults with a light budget are valid");

    let outcome = Spotlight::new(config).codesign(std::slice::from_ref(&model));
    let spotlight_delay = outcome.best_cost;
    println!(
        "Spotlight     : delay {:.3e} cycles on {}",
        spotlight_delay,
        outcome.best_hw.expect("feasible")
    );

    for baseline in Baseline::FIGURE6 {
        let (plan, _) = evaluate_baseline(&config, baseline, &model);
        let delay = plan.objective_value(Objective::Delay);
        println!(
            "{:14}: delay {:.3e} cycles ({:.1}x Spotlight)",
            baseline.name(),
            delay,
            delay / spotlight_delay
        );
    }
}
