//! Noise-robustness integration tests: replicated measurement recovering
//! the noiseless search result, thread invariance of the noisy robust
//! pipeline, and exact-f64 properties of the replicate aggregators.

use proptest::prelude::*;
use spotlight_repro::conv::ConvLayer;
use spotlight_repro::eval::{median, trimmed_mean, Aggregation, EvalEngine, RobustPolicy};
use spotlight_repro::models::Model;
use spotlight_repro::spotlight::codesign::{CodesignConfig, CodesignOutcome, Spotlight};

/// The seeded measurement-noise spec the acceptance study pins.
const NOISE: &str = "seed=7,model=gauss,sigma=0.1";

fn tiny_model() -> Model {
    Model::from_layers(
        "noisy",
        vec![
            ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
            ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
        ],
    )
}

fn config(threads: usize, seed: u64) -> CodesignConfig {
    CodesignConfig::edge()
        .hw_samples(8)
        .sw_samples(12)
        .seed(seed)
        .threads(threads)
        .build()
        .expect("test config is valid")
}

fn run(noise: Option<&str>, replicates: usize, threads: usize, seed: u64) -> CodesignOutcome {
    run_on("maestro", None, noise, replicates, threads, seed)
}

fn run_on(
    backend: &str,
    faults: Option<&str>,
    noise: Option<&str>,
    replicates: usize,
    threads: usize,
    seed: u64,
) -> CodesignOutcome {
    let mut builder = EvalEngine::builder()
        .backend(backend)
        .faults(faults.map(|s| s.parse().expect("valid fault spec")))
        .noise(noise.map(|s| s.parse().expect("valid noise spec")));
    if replicates > 1 {
        builder = builder.robust(RobustPolicy::replicated(replicates, Aggregation::Median));
    }
    let engine = builder.build().expect("backend exists");
    Spotlight::with_engine(config(threads, seed), engine).codesign(&[tiny_model()])
}

/// The headline acceptance claim: under seeded gaussian measurement
/// noise, 5-replicate median measurement steers the co-design to the
/// same best hardware the noiseless run selects, while trusting single
/// measurements does not. The seed is pinned; the contrast is the test.
#[test]
fn robust_replication_recovers_the_noiseless_best_plan() {
    let clean = run(None, 1, 1, 5);
    let robust = run(Some(NOISE), 5, 1, 5);
    let single = run(Some(NOISE), 1, 1, 5);
    assert_eq!(
        robust.best_hw, clean.best_hw,
        "5-replicate median under {NOISE} must recover the noiseless best hardware"
    );
    assert_ne!(
        single.best_hw, clean.best_hw,
        "single-shot measurement under {NOISE} is expected to be misled \
         (otherwise this seed no longer demonstrates the contrast)"
    );
    // The robust run actually replicated: its measurement count dwarfs
    // its logical evaluation count.
    assert!(robust.stats.replicate_measurements >= 5 * robust.stats.cache_misses);
    assert_eq!(single.stats.replicate_measurements, 0);
}

/// The noisy robust pipeline is bit-identical at any thread count: the
/// noise schedule keys on (point, attempt), not on scheduling order.
#[test]
fn noisy_robust_run_is_thread_invariant() {
    let base = run(Some(NOISE), 5, 1, 5);
    for threads in [2usize, 4] {
        let out = run(Some(NOISE), 5, threads, 5);
        assert_eq!(out.best_cost.to_bits(), base.best_cost.to_bits());
        assert_eq!(out.best_hw, base.best_hw);
        assert_eq!(out.hw_history, base.hw_history);
        assert_eq!(out.evaluations, base.evaluations);
        assert_eq!(
            out.stats.replicate_measurements,
            base.stats.replicate_measurements
        );
        assert_eq!(out.stats.outliers_rejected, base.stats.outliers_rejected);
    }
}

/// The same invariance on the tile simulator, with transient faults on
/// top of the noise. Each thread memoizes its simulator's last walk, so
/// this also checks that what a thread costed before never leaks into
/// a later result or count.
#[test]
fn noisy_faulty_sim_run_is_thread_invariant() {
    let faults = Some("seed=5,transient=0.05");
    let sim = |threads| run_on("sim", faults, Some(NOISE), 3, threads, 5);
    let base = sim(1);
    // The faults, the replicas and the outlier filter all fired.
    assert!(base.stats.transient_retries > 0);
    assert!(base.stats.replicate_measurements >= 3 * base.stats.cache_misses);
    assert!(base.stats.outliers_rejected > 0);
    for threads in [2usize, 4] {
        let out = sim(threads);
        assert_eq!(out.best_cost.to_bits(), base.best_cost.to_bits());
        assert_eq!(out.best_hw, base.best_hw);
        assert_eq!(out.hw_history, base.hw_history);
        assert_eq!(out.evaluations, base.evaluations);
        assert_eq!(out.stats.cache_misses, base.stats.cache_misses);
        assert_eq!(
            out.stats.replicate_measurements,
            base.stats.replicate_measurements
        );
        assert_eq!(out.stats.outliers_rejected, base.stats.outliers_rejected);
    }
}

/// With replication disabled and no noise plan, the robust machinery is
/// inert: the outcome is bit-identical to a plain engine's.
#[test]
fn single_replicate_noiseless_run_matches_the_plain_engine() {
    let plain =
        Spotlight::with_engine(config(1, 5), EvalEngine::default()).codesign(&[tiny_model()]);
    let configured = run(None, 1, 1, 5);
    assert_eq!(configured.best_cost.to_bits(), plain.best_cost.to_bits());
    assert_eq!(configured.best_hw, plain.best_hw);
    assert_eq!(configured.hw_history, plain.hw_history);
    assert_eq!(configured.stats.replicate_measurements, 0);
    assert_eq!(configured.stats.outliers_rejected, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Median and trimmed mean are exact-f64 order-invariant: any
    /// rotation or reversal of the replicate list produces the same
    /// bits. This is what makes replicated aggregation deterministic
    /// regardless of the order measurements complete in.
    #[test]
    fn aggregators_are_bitwise_order_invariant(
        xs in proptest::collection::vec(-1e9f64..1e9, 1..12),
        rot in 0usize..12,
        rev in 0u8..2,
    ) {
        let m0 = median(&xs);
        let t0 = trimmed_mean(&xs);
        let mut ys = xs.to_vec();
        let len = ys.len();
        ys.rotate_left(rot % len);
        if rev == 1 {
            ys.reverse();
        }
        prop_assert_eq!(median(&ys).to_bits(), m0.to_bits());
        prop_assert_eq!(trimmed_mean(&ys).to_bits(), t0.to_bits());
    }

    /// The median is robust to ANY strict minority of corrupted
    /// replicates: however wild the corrupted values (including
    /// infinities), the aggregate stays inside the clean values' range.
    #[test]
    fn median_survives_any_minority_of_corrupted_replicates(
        clean in proptest::collection::vec(1.0f64..100.0, 3..9),
        corrupt in proptest::collection::vec(-1e15f64..1e15, 0..4),
        inf_mask in 0usize..16,
    ) {
        prop_assume!(2 * corrupt.len() < clean.len() + corrupt.len());
        let mut all = clean.to_vec();
        for (i, &c) in corrupt.iter().enumerate() {
            // Some corrupted replicates are driven all the way to
            // +/- infinity: the median must shrug those off too.
            if inf_mask & (1 << i) != 0 {
                all.push(c.signum() * f64::INFINITY);
            } else {
                all.push(c);
            }
        }
        let m = median(&all);
        let lo = clean.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = clean.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi, "median {} outside clean range [{}, {}]", m, lo, hi);
    }
}
