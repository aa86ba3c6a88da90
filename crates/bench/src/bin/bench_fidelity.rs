//! Cheap-vs-full comparison for the multi-fidelity promotion ladder.
//!
//! Runs the same seeded co-design twice on the tiny edge scenario: once
//! at uniform full fidelity, once under the successive-halving proxy
//! ladder (`fidelity=proxy:0.25,rungs=3,eta=3`). The ladder must reach
//! the exact best plan the full-fidelity search finds while invoking
//! the backend at least 2x less often — the acceptance claim pinned in
//! EXPERIMENTS.md. Writes `BENCH_fidelity.json` to the working
//! directory for CI to archive; exits non-zero if either half of the
//! claim fails.

use std::io::Write;

use spotlight::codesign::{CodesignConfig, CodesignOutcome, Spotlight};
use spotlight_conv::ConvLayer;
use spotlight_eval::{EvalEngine, FidelitySpec};
use spotlight_models::Model;

/// The pinned ladder: quarter-MACs proxy rungs, a quarter of the field
/// promoted per rung.
const LADDER: &str = "fidelity=proxy:0.25,rungs=3,eta=4";
const SEED: u64 = 0;
const HW_SAMPLES: usize = 12;
const SW_SAMPLES: usize = 12;

fn seed() -> u64 {
    std::env::var("BENCH_FIDELITY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED)
}

/// Six layers so the quarter-MACs rung can actually carve out a small
/// subset (a 3-layer model would floor at a third of the work).
fn tiny_model() -> Model {
    Model::from_layers(
        "fidelity-bench",
        vec![
            ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
            ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
            ConvLayer::new(1, 24, 32, 3, 3, 7, 7),
            ConvLayer::new(1, 48, 24, 1, 1, 7, 7),
            ConvLayer::new(1, 16, 48, 3, 3, 7, 7),
            ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
        ],
    )
}

fn config() -> CodesignConfig {
    CodesignConfig::edge()
        .hw_samples(HW_SAMPLES)
        .sw_samples(SW_SAMPLES)
        .seed(seed())
        .threads(1)
        .build()
        .expect("bench config is valid")
}

fn run(engine: EvalEngine) -> CodesignOutcome {
    Spotlight::with_engine(config(), engine).codesign(&[tiny_model()])
}

fn main() {
    let full = run(EvalEngine::default());
    let ladder = run(EvalEngine::builder()
        .backend("maestro")
        .fidelity(Some(LADDER.parse::<FidelitySpec>().expect("valid spec")))
        .build()
        .expect("backend"));

    // Proxy rungs answer every query at exact per-triple fidelity, so
    // the honest cost metric is backend invocations: the ladder saves
    // by never searching the layers a demoted sample's rung skipped.
    let full_evals = full.stats.cache_misses;
    let ladder_evals = ladder.stats.cache_misses;
    let ratio = full_evals as f64 / ladder_evals as f64;
    let same_best = ladder.best_hw == full.best_hw
        && ladder.best_cost.to_bits() == full.best_cost.to_bits()
        && ladder.best_plans == full.best_plans;

    let json = format!(
        "{{\n  \"bench\": \"fidelity_ladder\",\n  \"ladder\": \"{LADDER}\",\n  \
         \"seed\": {},\n  \"hw_samples\": {HW_SAMPLES},\n  \"sw_samples\": {SW_SAMPLES},\n  \
         \"full_fidelity_backend_evals\": {full_evals},\n  \
         \"ladder_backend_evals\": {ladder_evals},\n  \
         \"eval_reduction\": {ratio:.2},\n  \
         \"best_cost\": {:.6e},\n  \"same_best_plan\": {same_best}\n}}\n",
        seed(),
        ladder.best_cost,
    );
    std::fs::File::create("BENCH_fidelity.json")
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_fidelity.json");
    print!("{json}");

    assert!(
        same_best,
        "ladder best ({:?}, {:.6e}) diverged from full-fidelity best ({:?}, {:.6e})",
        ladder.best_hw, ladder.best_cost, full.best_hw, full.best_cost
    );
    assert!(
        ratio >= 2.0,
        "ladder only reduced backend evals by {ratio:.2}x (< 2x): {ladder_evals} vs {full_evals}"
    );
}
