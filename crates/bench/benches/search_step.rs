//! Criterion bench: end-to-end search-step cost per algorithm.
//!
//! One suggest/evaluate/observe round — the unit the Figure 10 x-axis
//! counts — for daBO with the feature space, vanilla BO, random search,
//! and the GA. Shows the per-sample overhead daBO pays for its sample
//! efficiency (Section VII-E: "Spotlight spends more time per-sample
//! than Spotlight-GA and Spotlight-R").

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotlight::swsearch::{optimize_schedule, SwSearchConfig};
use spotlight::variants::Variant;
use spotlight_accel::Baseline;
use spotlight_conv::ConvLayer;
use spotlight_eval::EvalEngine;
use spotlight_maestro::Objective;

fn bench_search_step(c: &mut Criterion) {
    let model = EvalEngine::default();
    let hw = Baseline::NvdlaLike.edge_config();
    let layer = ConvLayer::new(1, 128, 64, 3, 3, 28, 28);

    let mut group = c.benchmark_group("sw_search_30_samples");
    group.sample_size(10);
    for variant in [
        Variant::Spotlight,
        Variant::SpotlightV,
        Variant::SpotlightR,
        Variant::SpotlightGA,
    ] {
        let cfg = SwSearchConfig {
            samples: 30,
            objective: Objective::Edp,
            variant,
        };
        group.bench_function(variant.name(), |b| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(3);
                black_box(optimize_schedule(&model, &hw, &layer, &cfg, &mut rng))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search_step);
criterion_main!(benches);
