//! Ablations of this reproduction's design choices (DESIGN.md).
//!
//! Three ablations on the per-layer software search, each the median of
//! several seeds on a representative ResNet-50 layer and on the heaviest
//! Transformer GEMM:
//!
//! 1. **Acquisition**: LCB (the paper's choice) vs expected improvement.
//! 2. **Proposal distribution**: the guided uniform/structured mixture
//!    this reproduction adds vs pure uniform proposals.
//! 3. **Surrogate kernel**: linear weight-space vs Matérn-5/2 GP at the
//!    same sample budget (the Section VII-D search-quality comparison).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use spotlight::swsearch::{
    optimize_schedule, optimize_schedule_uniform, optimize_schedule_with_acquisition,
    SwSearchConfig,
};
use spotlight::variants::Variant;
use spotlight_accel::Baseline;
use spotlight_bench::stats;
use spotlight_conv::ConvLayer;
use spotlight_dabo::Acquisition;
use spotlight_eval::EvalEngine;
use spotlight_maestro::Objective;
use spotlight_models::transformer;

const SEEDS: u64 = 5;
const SAMPLES: usize = 80;

fn main() {
    let model = EvalEngine::default();
    let hw = Baseline::NvdlaLike.edge_config();
    let layers = [
        ("resnet_conv3x3", ConvLayer::new(1, 128, 64, 3, 3, 28, 28)),
        ("transformer_gemm", transformer().heaviest_layer().layer),
    ];
    let cfg = SwSearchConfig {
        samples: SAMPLES,
        objective: Objective::Edp,
        variant: Variant::Spotlight,
    };

    println!("layer,configuration,min,max,median");
    for (name, layer) in layers {
        let run = |label: &str, f: &mut dyn FnMut(&mut ChaCha8Rng) -> f64| {
            let costs: Vec<f64> = (0..SEEDS)
                .map(|s| {
                    let mut rng = ChaCha8Rng::seed_from_u64(s);
                    f(&mut rng)
                })
                .collect();
            let s = stats(&costs);
            println!(
                "{name},{label},{:.4e},{:.4e},{:.4e}",
                s.min, s.max, s.median
            );
        };

        run("lcb_guided (default)", &mut |rng| {
            optimize_schedule_with_acquisition(
                &model,
                &hw,
                &layer,
                &cfg,
                Acquisition::LowerConfidenceBound,
                rng,
            )
            .objective_value(Objective::Edp)
        });
        run("ei_guided", &mut |rng| {
            optimize_schedule_with_acquisition(
                &model,
                &hw,
                &layer,
                &cfg,
                Acquisition::ExpectedImprovement,
                rng,
            )
            .objective_value(Objective::Edp)
        });
        run("lcb_uniform", &mut |rng| {
            optimize_schedule_uniform(
                &model,
                &hw,
                &layer,
                &cfg,
                Acquisition::LowerConfidenceBound,
                rng,
            )
            .objective_value(Objective::Edp)
        });
        run("matern_raw_params (Spotlight-V)", &mut |rng| {
            let vcfg = SwSearchConfig {
                variant: Variant::SpotlightV,
                ..cfg
            };
            optimize_schedule(&model, &hw, &layer, &vcfg, rng).objective_value(Objective::Edp)
        });
        run("random (Spotlight-R)", &mut |rng| {
            let rcfg = SwSearchConfig {
                variant: Variant::SpotlightR,
                ..cfg
            };
            optimize_schedule(&model, &hw, &layer, &rcfg, rng).objective_value(Objective::Edp)
        });
    }
}
