//! Criterion bench: serial vs parallel layerwise software search.
//!
//! One `optimize_software` pass over a multi-layer model at 1, 2, and 4
//! worker threads. Because each layer draws from its own RNG stream
//! derived from `(seed, hw_sample, layer)`, results are bit-identical at
//! every thread count — this bench measures the wall-clock side of that
//! trade and, via a second group, what the memo cache saves on repeated
//! layer shapes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use spotlight::codesign::{CodesignConfig, Spotlight};
use spotlight_conv::ConvLayer;
use spotlight_eval::EvalEngine;
use spotlight_models::Model;

fn bench_model() -> Model {
    Model::from_layers(
        "bench",
        vec![
            ConvLayer::new(1, 64, 32, 3, 3, 28, 28),
            ConvLayer::new(1, 128, 64, 1, 1, 14, 14),
            ConvLayer::new(1, 32, 16, 3, 3, 14, 14),
            ConvLayer::new(1, 96, 48, 3, 3, 14, 14),
        ],
    )
}

fn bench_parallel_search(c: &mut Criterion) {
    let hw = spotlight_accel::Baseline::NvdlaLike.edge_config();
    let models = [bench_model()];

    let mut group = c.benchmark_group("optimize_software_4_layers");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let cfg = CodesignConfig::edge()
            .sw_samples(30)
            .threads(threads)
            .build()
            .expect("bench config is valid");
        group.bench_function(format!("{threads}_threads"), |b| {
            // Fresh engine per iteration so the memo cache never turns
            // the measured work into a lookup.
            b.iter(|| {
                let tool = Spotlight::with_engine(
                    cfg,
                    EvalEngine::builder()
                        .no_cache()
                        .build()
                        .expect("plain engine builds"),
                );
                black_box(tool.optimize_software(&hw, &models, 0))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("memo_cache");
    group.sample_size(10);
    let cfg = CodesignConfig::edge()
        .sw_samples(30)
        .threads(1)
        .build()
        .expect("bench config is valid");
    group.bench_function("cold_every_iter", |b| {
        b.iter(|| {
            let tool = Spotlight::with_engine(
                cfg,
                EvalEngine::builder()
                    .no_cache()
                    .build()
                    .expect("plain engine builds"),
            );
            black_box(tool.optimize_software(&hw, &models, 0))
        })
    });
    group.bench_function("warm_shared_cache", |b| {
        let tool = Spotlight::new(cfg);
        // Warm once; subsequent iterations replay from the memo cache.
        let _ = tool.optimize_software(&hw, &models, 0);
        b.iter(|| black_box(tool.optimize_software(&hw, &models, 0)))
    });
    group.finish();
}

criterion_group!(benches, bench_parallel_search);
criterion_main!(benches);
