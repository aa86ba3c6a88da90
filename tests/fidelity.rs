//! Multi-fidelity integration tests: successive-halving promotion is
//! thread-invariant (decisions and journal alike), the fidelity-keyed
//! memo cache never aliases cheap and full reports, a ladder run
//! resumes through a promotion rung boundary bit-identically, and the
//! proxy ladder's evaluation saving is pinned exactly.

use std::sync::Arc;

use proptest::prelude::*;
use spotlight_repro::accel::{DataflowStyle, HardwareConfig};
use spotlight_repro::conv::ConvLayer;
use spotlight_repro::eval::{Aggregation, EvalEngine, Fidelity, FidelitySpec, RobustPolicy};
use spotlight_repro::models::Model;
use spotlight_repro::obs::{Event, MemorySink, Observer, Record};
use spotlight_repro::space::dataflows::dataflow_schedule;
use spotlight_repro::space::Schedule;
use spotlight_repro::spotlight::codesign::{
    CodesignConfig, CodesignOutcome, SampleCheckpoint, Spotlight,
};

fn triple() -> (HardwareConfig, Schedule, ConvLayer) {
    let hw = HardwareConfig::new(256, 16, 2, 128, 256, 128).expect("valid config");
    let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
    let sched = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
    (hw, sched, layer)
}

/// The delay `EvalEngine::measure` reports for [`triple`] at `fidelity`,
/// unobserved.
fn delay_at(engine: &EvalEngine, fidelity: Fidelity) -> f64 {
    let (hw, sched, layer) = triple();
    let (report, _) = engine
        .measure(&hw, &sched, &layer, fidelity, &Observer::null(), 0)
        .expect("feasible");
    report.delay_cycles
}

/// The proxy ladder the acceptance study pins: 3 rungs, the cheapest
/// costing a quarter of the layer set, halving the field per rung.
const LADDER: &str = "fidelity=proxy:0.25,rungs=3,eta=2";

fn tiny_model() -> Model {
    Model::from_layers(
        "fidelity",
        vec![
            ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
            ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
            ConvLayer::new(1, 24, 32, 3, 3, 7, 7),
        ],
    )
}

fn config(threads: usize, seed: u64) -> CodesignConfig {
    CodesignConfig::edge()
        .hw_samples(8)
        .sw_samples(10)
        .seed(seed)
        .threads(threads)
        .build()
        .expect("test config is valid")
}

fn ladder_engine(spec: &str) -> EvalEngine {
    EvalEngine::builder()
        .backend("maestro")
        .fidelity(Some(spec.parse::<FidelitySpec>().expect("valid spec")))
        .build()
        .expect("maestro backend exists")
}

fn ladder_run(spec: &str, threads: usize, seed: u64) -> (CodesignOutcome, Vec<Record>) {
    let sink = Arc::new(MemorySink::new());
    let out = Spotlight::with_engine(config(threads, seed), ladder_engine(spec))
        .with_observer(Observer::new(sink.clone()))
        .codesign(&[tiny_model()]);
    (out, sink.records())
}

/// The journal minus wall-clock timing and the manifest (which pins the
/// thread count): everything that must be bit-identical across thread
/// counts.
fn deterministic_events(records: &[Record]) -> Vec<Record> {
    records
        .iter()
        .filter(|r| {
            !matches!(
                r.event,
                Event::RunStarted { .. } | Event::PhaseTiming { .. } | Event::RunFinished { .. }
            )
        })
        .cloned()
        .collect()
}

fn promotion_decisions(records: &[Record]) -> Vec<(Option<u64>, bool, u64, u64)> {
    records
        .iter()
        .filter_map(|r| match &r.event {
            Event::RungPromoted { rung, cost } => Some((r.hw_sample, true, *rung, cost.to_bits())),
            Event::RungDemoted { rung, cost } => Some((r.hw_sample, false, *rung, cost.to_bits())),
            _ => None,
        })
        .collect()
}

/// A ladder run emits promotion traffic at all: without it the rest of
/// this file would pass vacuously.
#[test]
fn ladder_runs_emit_promotion_events() {
    let (out, records) = ladder_run(LADDER, 1, 3);
    let decisions = promotion_decisions(&records);
    assert!(
        decisions.iter().any(|(_, promoted, ..)| *promoted),
        "no sample was ever promoted"
    );
    assert!(
        decisions.iter().any(|(_, promoted, ..)| !*promoted),
        "no sample was ever demoted (the ladder is not filtering)"
    );
    // Proxy-mode queries are exact per-triple, so they are all tagged
    // (and counted as) full fidelity; the ladder's saving is that
    // demoted samples never pay for the layers a cheap rung skipped.
    assert!(out.stats.fidelity_full_evals > 0);
    assert_eq!(out.stats.fidelity_cheap_evals, 0);
    let baseline =
        Spotlight::with_engine(config(1, 3), EvalEngine::default()).codesign(&[tiny_model()]);
    assert!(
        out.evaluations < baseline.evaluations,
        "ladder ({}) must evaluate less than the no-ladder run ({})",
        out.evaluations,
        baseline.evaluations
    );
    assert!(out.best_cost.is_finite());
}

/// The ladder's saving, pinned exactly: the record in
/// `BENCH_fidelity.json` (seed 0, edge config, 12 hardware x 12
/// software samples, one thread, `proxy:0.25,rungs=3,eta=4`). The
/// ladder reaches the full-fidelity best plan bit-for-bit with 262
/// backend evaluations against 714. Proxy rungs answer every query at
/// exact per-triple fidelity, so cache misses (backend invocations) are
/// the honest cost; the saving is the layers demoted samples skip.
#[test]
fn proxy_ladder_finds_the_full_fidelity_best_at_pinned_eval_counts() {
    // Six layers, so the quarter-MACs rung can carve out a small subset
    // (a three-layer model would floor at a third of the work).
    let model = Model::from_layers(
        "fidelity-bench",
        vec![
            ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
            ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
            ConvLayer::new(1, 24, 32, 3, 3, 7, 7),
            ConvLayer::new(1, 48, 24, 1, 1, 7, 7),
            ConvLayer::new(1, 16, 48, 3, 3, 7, 7),
            ConvLayer::new(1, 32, 16, 1, 1, 14, 14),
        ],
    );
    let config = CodesignConfig::edge()
        .hw_samples(12)
        .sw_samples(12)
        .seed(0)
        .threads(1)
        .build()
        .expect("test config is valid");
    let models = [model];
    let full = Spotlight::with_engine(config, EvalEngine::default()).codesign(&models);
    let ladder = Spotlight::with_engine(config, ladder_engine("fidelity=proxy:0.25,rungs=3,eta=4"))
        .codesign(&models);

    assert_eq!(full.stats.cache_misses, 714, "full-fidelity backend evals");
    assert_eq!(ladder.stats.cache_misses, 262, "ladder backend evals");
    assert_eq!(ladder.best_hw, full.best_hw);
    assert_eq!(ladder.best_cost.to_bits(), full.best_cost.to_bits());
    assert_eq!(ladder.best_plans, full.best_plans);
}

/// The fidelity-keyed cache never serves a cheap report for a
/// full-fidelity request: a full query after a cheap one misses the
/// cache and reproduces the plain engine's report bit-for-bit.
#[test]
fn cache_never_aliases_cheap_and_full_reports() {
    let (hw, sched, layer) = triple();

    let plain = EvalEngine::default();
    let reference = plain
        .evaluate(&hw, &sched, &layer)
        .expect("feasible")
        .delay_cycles;

    // Replicate-mode ladder: cheap rungs take fewer replicates, so a
    // cheap report is genuinely different from a full one.
    let engine = EvalEngine::builder()
        .backend("maestro")
        .noise(Some("seed=7,model=gauss,sigma=0.1".parse().expect("spec")))
        .robust(RobustPolicy::replicated(5, Aggregation::Median))
        .fidelity(Some(
            "fidelity=replicate:0.2,rungs=3".parse().expect("spec"),
        ))
        .build()
        .expect("valid combination");
    let cheap = delay_at(&engine, Fidelity::Rung(0));
    let full = delay_at(&engine, Fidelity::Full);
    assert_eq!(
        engine.stats().cache_misses,
        2,
        "full must not hit cheap's entry"
    );
    assert_ne!(
        cheap.to_bits(),
        full.to_bits(),
        "1-replicate noisy rung should differ from the 5-replicate median"
    );

    // Re-asking at each fidelity hits its own entry and returns the
    // same bits.
    let cheap2 = delay_at(&engine, Fidelity::Rung(0));
    let full2 = delay_at(&engine, Fidelity::Full);
    assert_eq!(engine.stats().cache_hits, 2);
    assert_eq!(cheap.to_bits(), cheap2.to_bits());
    assert_eq!(full.to_bits(), full2.to_bits());

    // The full-fidelity report under a 5-replicate median of seeded
    // gaussian noise is close to — but keyed apart from — the
    // noiseless reference; sanity-check the magnitude.
    assert!((full / reference - 1.0).abs() < 0.5);
}

/// A ladder run killed between checkpoints resumes to the identical
/// outcome, with the promotion rung histories rebuilt from the
/// journal's checkpointed per-rung costs. The kill point (after 3 of 8
/// samples) sits inside the promotion history: later samples' quotas
/// depend on the replayed rung costs, so any drift would change their
/// decisions.
#[test]
fn resume_through_a_rung_boundary_is_bit_identical() {
    let (full, records) = ladder_run(LADDER, 1, 3);
    let checkpoints: Vec<SampleCheckpoint> = records
        .iter()
        .filter_map(|r| SampleCheckpoint::from_event(&r.event))
        .collect();
    assert_eq!(checkpoints.len(), 8);
    assert!(
        checkpoints.iter().any(|c| !c.rung_costs.is_empty()),
        "ladder checkpoints must carry their rung costs"
    );

    for cut in [1usize, 3, 7] {
        let sink = Arc::new(MemorySink::new());
        let resumed = Spotlight::with_engine(config(1, 3), ladder_engine(LADDER))
            .with_observer(Observer::new(sink.clone()))
            .resume(&[tiny_model()], &checkpoints[..cut])
            .expect("recorded prefix replays");
        assert_eq!(resumed.best_cost.to_bits(), full.best_cost.to_bits());
        assert_eq!(resumed.best_hw, full.best_hw);
        assert_eq!(resumed.best_plans, full.best_plans);
        assert_eq!(resumed.frontier.points(), full.frontier.points());
        assert_eq!(resumed.evaluations, full.evaluations);
        // The live tail makes the same promotion decisions the
        // uninterrupted run made past the cut.
        let live: Vec<_> = promotion_decisions(&sink.records());
        let original: Vec<_> = promotion_decisions(&records)
            .into_iter()
            .filter(|(hw_sample, ..)| hw_sample.unwrap_or(0) >= cut as u64)
            .collect();
        assert_eq!(live, original, "cut at {cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Promotion decisions — and the whole deterministic journal — are
    /// invariant under the worker thread count: the ladder ranks each
    /// sample against the same replayed history regardless of how the
    /// per-layer searches were scheduled.
    #[test]
    fn promotion_decisions_are_thread_invariant(seed in 0u64..32) {
        let (base, base_records) = ladder_run(LADDER, 1, seed);
        let base_events = deterministic_events(&base_records);
        prop_assert!(!promotion_decisions(&base_records).is_empty());
        for threads in [2usize, 4] {
            let (out, records) = ladder_run(LADDER, threads, seed);
            prop_assert_eq!(out.best_cost.to_bits(), base.best_cost.to_bits());
            prop_assert_eq!(&out.best_hw, &base.best_hw);
            prop_assert_eq!(&out.hw_history, &base.hw_history);
            prop_assert_eq!(out.evaluations, base.evaluations);
            prop_assert_eq!(out.stats.fidelity_cheap_evals, base.stats.fidelity_cheap_evals);
            prop_assert_eq!(out.stats.fidelity_full_evals, base.stats.fidelity_full_evals);
            prop_assert_eq!(&deterministic_events(&records), &base_events);
        }
    }

    /// The fidelity cache key partitions by rung for arbitrary rungs:
    /// distinct rungs of a replicate ladder never share entries.
    #[test]
    fn distinct_rungs_never_share_cache_entries(rung_a in 0u8..3, rung_b in 0u8..3) {
        prop_assume!(rung_a != rung_b);
        let engine = EvalEngine::builder()
            .backend("maestro")
            .noise(Some("seed=11,model=gauss,sigma=0.2".parse().expect("spec")))
            .robust(RobustPolicy::replicated(4, Aggregation::Median))
            .fidelity(Some("fidelity=replicate:0.2,rungs=4".parse().expect("spec")))
            .build()
            .expect("valid combination");
        delay_at(&engine, Fidelity::Rung(rung_a));
        delay_at(&engine, Fidelity::Rung(rung_b));
        prop_assert_eq!(engine.stats().cache_misses, 2);
        prop_assert_eq!(engine.stats().cache_hits, 0);
    }
}
