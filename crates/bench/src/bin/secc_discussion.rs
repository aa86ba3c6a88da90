//! Section VII-C: why Spotlight wins.
//!
//! Reproduces the discussion's quantitative comparisons on ResNet-50:
//!
//! - **throughput per joule** of Spotlight-Opt vs the hand-designed
//!   accelerators (paper: 26x over Eyeriss, 28x over NVDLA, 8.3x over
//!   MAERI),
//! - the **reuse** explanation: reads-per-fill in the scratchpad and the
//!   RF for each design,
//! - the **array-shape** observation: the aspect ratio of
//!   Spotlight-optimized arrays ("long and narrow"), and
//! - the **energy breakdown** showing where each design's joules go.

use spotlight::codesign::Spotlight;
use spotlight::scenarios::evaluate_baseline;
use spotlight_accel::Baseline;
use spotlight_bench::{models_from_env, observer_from_env, Budgets};
use spotlight_maestro::Objective;

fn main() {
    let budgets = Budgets::from_env();
    let models = models_from_env();
    let model = &models[0];
    eprintln!("analyzing {} ...", model.name());

    println!("configuration,macs_per_nj,l2_reads_per_fill,rf_reads_per_fill,aspect_ratio,energy_dram_frac,energy_mac_frac");

    // Spotlight-Opt: the best design of the first trial.
    let cfg = budgets
        .edge_config(0)
        .to_builder()
        .objective(Objective::Edp)
        .build()
        .expect("derived from a valid config");
    let out = Spotlight::new(cfg)
        .with_observer(observer_from_env().clone())
        .codesign(std::slice::from_ref(model));
    if let Some(hw) = out.best_hw {
        print_row("Spotlight-Opt", hw.aspect_ratio(), &out.best_plans[0]);
    }

    for baseline in Baseline::FIGURE6 {
        let (plan, _) = evaluate_baseline(&cfg, baseline, model);
        let hw = baseline.scaled_config(&cfg.budget());
        print_row(baseline.name(), hw.aspect_ratio(), &plan);
    }
}

fn print_row(name: &str, aspect: f64, plan: &spotlight::codesign::ModelPlan) {
    // Aggregate the per-layer reports, weighted by multiplicity.
    let mut macs = 0.0;
    let mut l2_bytes = 0.0;
    let mut dram = 0.0;
    let mut rf_accesses = 0.0;
    let mut e_dram = 0.0;
    let mut e_mac = 0.0;
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
    println!(
        "{name},{:.2},{:.2},{:.2},{:.2},{:.3},{:.3}",
        macs / plan.total_energy,
        noc / dram.max(1.0),
        rf_accesses / noc,
        aspect,
        e_dram / plan.total_energy,
        e_mac / plan.total_energy,
    );
}
