//! Integration tests for the unified evaluation engine: deterministic
//! parallel layerwise search and memoization correctness.
//!
//! The per-layer software search derives each layer's RNG stream from
//! `(seed, hw_sample_index, layer_index)` rather than from a shared
//! sequential RNG, so the search result must be *bit-identical* at any
//! thread count. The memo cache is a pure-function cache, so enabling
//! it must never change an outcome, only skip repeated backend calls.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use spotlight_repro::accel::{Baseline, HardwareConfig};
use spotlight_repro::conv::ConvLayer;
use spotlight_repro::eval::{CostBackend, EvalEngine, EvalError, MaestroBackend};
use spotlight_repro::maestro::{CostReport, Objective};
use spotlight_repro::models::Model;
use spotlight_repro::space::Schedule;
use spotlight_repro::spotlight::codesign::{CodesignConfig, Spotlight};

fn model() -> Model {
    Model::from_layers(
        "engine-test",
        vec![
            ConvLayer::new(1, 64, 32, 3, 3, 28, 28),
            ConvLayer::new(1, 128, 64, 1, 1, 14, 14),
            ConvLayer::new(1, 32, 16, 3, 3, 14, 14),
        ],
    )
}

fn config(threads: usize) -> CodesignConfig {
    CodesignConfig::edge()
        .hw_samples(8)
        .sw_samples(20)
        .objective(Objective::Edp)
        .seed(7)
        .threads(threads)
        .build()
        .expect("test config is valid")
}

/// The ISSUE's headline guarantee: the same co-design run at 1, 2, and
/// 4 worker threads produces identical best hardware, best cost, and
/// per-sample history.
#[test]
fn parallel_search_is_bit_identical_across_thread_counts() {
    let baseline = Spotlight::new(config(1)).codesign(&[model()]);
    for threads in [2, 4] {
        let out = Spotlight::new(config(threads)).codesign(&[model()]);
        assert_eq!(out.best_hw, baseline.best_hw, "{threads} threads: best_hw");
        assert_eq!(
            out.best_cost.to_bits(),
            baseline.best_cost.to_bits(),
            "{threads} threads: best_cost"
        );
        let bits = |h: &[f64]| h.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&out.hw_history),
            bits(&baseline.hw_history),
            "{threads} threads: hw_history"
        );
        // The winning plans are fully recomputed layer-by-layer, so they
        // must match exactly too.
        assert_eq!(out.best_plans, baseline.best_plans);
    }
}

/// The memo cache is behavior-preserving: a cached engine and an
/// uncached engine walk the exact same search and agree on every output,
/// while the cached engine actually skips repeated backend calls.
#[test]
fn memoized_cache_preserves_outcomes_and_hits() {
    // Two models sharing layer shapes force repeated (hw, sched, layer)
    // queries within a single hardware sample.
    let models = vec![
        model(),
        Model::from_layers(
            "twin",
            vec![
                ConvLayer::new(1, 64, 32, 3, 3, 28, 28),
                ConvLayer::new(1, 128, 64, 1, 1, 14, 14),
            ],
        ),
    ];
    let cfg = config(1);
    let cached = Spotlight::new(cfg).codesign(&models);
    let uncached = Spotlight::with_engine(
        cfg,
        EvalEngine::builder()
            .no_cache()
            .build()
            .expect("plain engine builds"),
    )
    .codesign(&models);

    assert_eq!(cached.best_hw, uncached.best_hw);
    assert_eq!(cached.best_cost.to_bits(), uncached.best_cost.to_bits());
    assert_eq!(cached.best_plans, uncached.best_plans);
    assert_eq!(cached.evaluations, uncached.evaluations);

    // Same logical query count, but only the cached engine records hits;
    // without a cache every query reaches the backend (a "miss").
    assert!(cached.stats.cache_hits > 0, "no cache hits recorded");
    assert_eq!(uncached.stats.cache_hits, 0);
    assert_eq!(uncached.stats.cache_misses, uncached.evaluations);
    assert_eq!(
        cached.stats.cache_hits + cached.stats.cache_misses,
        cached.evaluations
    );
    assert!(cached.stats.cache_misses < uncached.stats.cache_misses);
}

/// Engine counters surface in the outcome and add up.
#[test]
fn outcome_stats_are_consistent() {
    let out = Spotlight::new(config(2)).codesign(&[model()]);
    assert_eq!(out.evaluations, out.stats.evaluations);
    assert_eq!(
        out.stats.evaluations,
        out.stats.sw_searches * config(2).sw_samples() as u64
    );
    assert!(out.stats.phase_wall.iter().any(|(p, _)| p == "hw_search"));
    assert!(out.stats.phase_wall.iter().any(|(p, _)| p == "sw_search"));
    // The default variant runs daBO in the software search, so the
    // surrogate's fit/acquisition split must be folded into the stats.
    assert!(out
        .stats
        .phase_wall
        .iter()
        .any(|(p, _)| p == "surrogate_fit"));
    assert!(out.stats.phase_wall.iter().any(|(p, _)| p == "acquisition"));
}

/// Maestro, plus a record of every thread that called it.
struct ThreadRecorder {
    inner: MaestroBackend,
    seen: Arc<Mutex<HashSet<ThreadId>>>,
}

impl CostBackend for ThreadRecorder {
    fn name(&self) -> &'static str {
        "maestro"
    }

    fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
    ) -> Result<CostReport, EvalError> {
        self.seen
            .lock()
            .expect("recorder lock")
            .insert(std::thread::current().id());
        self.inner.evaluate(hw, sched, layer)
    }
}

/// One software search at `threads = 2` evaluates on at most two
/// threads: the layers share one worker pool rather than getting fresh
/// threads per batch.
#[test]
fn one_software_search_uses_at_most_threads_threads() {
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let engine = EvalEngine::builder()
        .custom_backend(Box::new(ThreadRecorder {
            inner: MaestroBackend::default(),
            seen: seen.clone(),
        }))
        .build()
        .expect("custom backend builds");
    let model = Model::from_layers(
        "pool-test",
        vec![
            ConvLayer::new(1, 64, 32, 3, 3, 28, 28),
            ConvLayer::new(1, 128, 64, 1, 1, 14, 14),
            ConvLayer::new(1, 32, 16, 3, 3, 14, 14),
            ConvLayer::new(1, 16, 16, 1, 1, 28, 28),
            ConvLayer::new(1, 64, 64, 3, 3, 7, 7),
            ConvLayer::new(1, 96, 48, 1, 1, 14, 14),
        ],
    );
    assert!(model.layers().len() >= 6, "layers must be unique");
    let hw = Baseline::NvdlaLike.edge_config();
    let (plans, evals) = Spotlight::with_engine(config(2), engine).optimize_software(
        &hw,
        std::slice::from_ref(&model),
        0,
    );
    assert_eq!(plans.len(), 1);
    assert!(evals > 0, "the search evaluated nothing");
    let threads = seen.lock().expect("recorder lock").len();
    assert!(
        (1..=2).contains(&threads),
        "{threads} distinct threads evaluated layers at threads = 2"
    );
}
