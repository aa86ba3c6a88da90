//! Figure 10: convergence of each search algorithm during single-model
//! co-design.
//!
//! Runs Spotlight, Spotlight-F, Spotlight-V, Spotlight-R, Spotlight-GA,
//! plus the ConfuciuX- and HASCO-like tools, and prints each trial's
//! best-so-far objective as a function of cumulative cost-model
//! evaluations (the hardware-independent analogue of the paper's
//! wall-clock x-axis).
//!
//! Output: `metric,model,configuration,trial,evaluations,best_so_far`
//! rows — one per hardware sample — ready to plot.
//!
//! Expected shape (paper): Spotlight and Spotlight-F converge lowest;
//! Spotlight-V trails them by up to 2x; random and GA trail further;
//! ConfuciuX plateaus above all Spotlight variants.

use spotlight::codesign::Spotlight;
use spotlight::scenarios::{run_confuciux, run_hasco};
use spotlight::variants::Variant;
use spotlight_bench::{models_from_env, observer_from_env, Budgets};
use spotlight_maestro::Objective;
use spotlight_obs::Observer;

fn print_series(metric: &str, model: &str, config: &str, trial: u64, series: &[(u64, f64)]) {
    for (evals, best) in series {
        println!("{metric},{model},{config},{trial},{evals},{best:.6e}");
    }
}

fn main() {
    let budgets = Budgets::from_env();
    let models = models_from_env();
    println!("metric,model,configuration,trial,evaluations,best_so_far");

    for objective in Objective::ALL {
        let metric = objective.to_string();
        for model in &models {
            for variant in Variant::FIGURE10 {
                for t in 0..budgets.trials {
                    let cfg = budgets
                        .edge_config(t)
                        .to_builder()
                        .objective(objective)
                        .variant(variant)
                        .build()
                        .expect("derived from a valid config");
                    let out = Spotlight::new(cfg)
                        .with_observer(observer_from_env().clone())
                        .codesign(std::slice::from_ref(model));
                    print_series(&metric, model.name(), variant.name(), t, &out.eval_trace);
                }
            }
            if model.name() != "Transformer" {
                for t in 0..budgets.trials {
                    let cfg = budgets
                        .edge_config(t)
                        .to_builder()
                        .objective(objective)
                        .build()
                        .expect("derived from a valid config");
                    let out = run_confuciux(&cfg, model, &Observer::null());
                    print_series(&metric, model.name(), "ConfuciuX", t, &out.eval_trace);
                }
            }
            if matches!(model.name(), "ResNet-50" | "MobileNetV2") {
                for t in 0..budgets.trials {
                    let cfg = budgets
                        .edge_config(t)
                        .to_builder()
                        .objective(objective)
                        .build()
                        .expect("derived from a valid config");
                    let out = run_hasco(&cfg, model, &Observer::null());
                    // HASCO: the paper reports only the best of 10 trials
                    // (per-sample data unavailable); we have the series,
                    // so print it like the others.
                    print_series(&metric, model.name(), "HASCO", t, &out.eval_trace);
                }
            }
        }
    }
}
