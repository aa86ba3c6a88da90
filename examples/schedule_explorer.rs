//! Software-only schedule exploration on a fixed accelerator — daBO_SW
//! as a standalone mapper (the paper's FPGA-reconfiguration use case).
//!
//! ```sh
//! cargo run --release --example schedule_explorer
//! ```
//!
//! Optimizes the schedule of one ResNet-50 layer on an Eyeriss-like
//! accelerator, then prints the optimized loop nest, the per-tensor DRAM
//! traffic, and the bottleneck breakdown.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotlight_repro::accel::Baseline;
use spotlight_repro::conv::ConvLayer;
use spotlight_repro::eval::EvalEngine;
use spotlight_repro::maestro::Objective;
use spotlight_repro::spotlight::swsearch::{optimize_schedule, SwSearchConfig};
use spotlight_repro::spotlight::Variant;

fn main() {
    let hw = Baseline::EyerissLike.edge_config();
    let layer = ConvLayer::new(1, 128, 64, 3, 3, 28, 28).with_name("res3a_branch2b");
    let model = EvalEngine::default();

    println!("accelerator: {hw}");
    println!("layer      : {layer}\n");

    let cfg = SwSearchConfig {
        samples: 150,
        objective: Objective::Edp,
        variant: Variant::Spotlight,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let result = optimize_schedule(&model, &hw, &layer, &cfg, &mut rng);
    let (sched, report) = result.best.expect("feasible schedules exist");

    println!("best schedule: {sched}");
    println!("  {report}");
    println!(
        "  DRAM traffic: weights {:.2e} B, inputs {:.2e} B, outputs {:.2e} B",
        report.dram_weight_bytes, report.dram_input_bytes, report.dram_output_bytes
    );
    println!(
        "  bottleneck: {} (compute {:.2e} / dram {:.2e} / noc {:.2e} cycles)",
        report.bottleneck(),
        report.compute_cycles,
        report.dram_cycles,
        report.noc_cycles
    );

    println!("\nouter loop nest (DRAM -> scratchpad):");
    print!("{}", sched.outer_order().render(&layer));

    // Convergence: best-so-far EDP each tenth of the budget.
    println!("\nconvergence (best EDP so far):");
    let trace = result.trace.best_so_far();
    for i in (0..trace.len()).step_by(trace.len() / 10) {
        println!("  sample {:4}: {:.3e}", i + 1, trace[i]);
    }
}
