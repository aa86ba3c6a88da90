//! Pins the contract between an engine's counters and the process-wide
//! [`GlobalEvalStats`] mirror: every counter bump and phase charge an
//! engine makes is repeated in the mirror, and the mirror is never reset
//! or restored with the engine.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use spotlight_accel::{DataflowStyle, HardwareConfig};
use spotlight_conv::ConvLayer;
use spotlight_eval::{
    Aggregation, EvalEngine, EvalStats, Fidelity, GlobalEvalStats, Phase, RetryPolicy, RobustPolicy,
};
use spotlight_obs::Observer;
use spotlight_space::dataflows::dataflow_schedule;
use spotlight_space::Schedule;

fn keyed_triple(size: u64) -> (HardwareConfig, Schedule, ConvLayer) {
    let hw = HardwareConfig::new(256, 16, 2, 128, 256, 128).unwrap();
    let layer = ConvLayer::new(1, 64, 32, 3, 3, size, size);
    let sched = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
    (hw, sched, layer)
}

/// The field-wise sum of two snapshots; phases merge by name.
fn sum(a: &EvalStats, b: &EvalStats) -> EvalStats {
    let mut phases: BTreeMap<String, Duration> = BTreeMap::new();
    for (phase, wall) in a.phase_wall.iter().chain(&b.phase_wall) {
        *phases.entry(phase.clone()).or_default() += *wall;
    }
    EvalStats {
        evaluations: a.evaluations + b.evaluations,
        cache_hits: a.cache_hits + b.cache_hits,
        cache_misses: a.cache_misses + b.cache_misses,
        infeasible: a.infeasible + b.infeasible,
        quarantined: a.quarantined + b.quarantined,
        transient_retries: a.transient_retries + b.transient_retries,
        failed_layers: a.failed_layers + b.failed_layers,
        sw_searches: a.sw_searches + b.sw_searches,
        evictions: a.evictions + b.evictions,
        replicate_measurements: a.replicate_measurements + b.replicate_measurements,
        outliers_rejected: a.outliers_rejected + b.outliers_rejected,
        fidelity_cheap_evals: a.fidelity_cheap_evals + b.fidelity_cheap_evals,
        fidelity_full_evals: a.fidelity_full_evals + b.fidelity_full_evals,
        phase_wall: phases.into_iter().collect(),
    }
}

/// Charges every phase on `measured` (two timed, two external) and one
/// zero-duration external charge plus one timed phase on `faulty`.
fn charge_phases(measured: &EvalEngine, faulty: &EvalEngine) {
    measured.time_phase(Phase::HwSearch, || ());
    measured.time_phase(Phase::SwSearch, || {
        std::thread::sleep(Duration::from_millis(1))
    });
    measured.add_phase_wall(Phase::SurrogateFit, Duration::from_millis(3));
    measured.add_phase_wall(Phase::Acquisition, Duration::from_millis(2));
    faulty.add_phase_wall(Phase::Acquisition, Duration::ZERO);
    faulty.time_phase(Phase::SwSearch, || ());
}

#[test]
fn the_mirror_is_the_sum_of_its_engines_and_ignores_their_resets() {
    let global = Arc::new(GlobalEvalStats::default());
    // A capped, noisy, replicated ladder engine: evictions, hits,
    // infeasibility, replicates, outliers and both fidelity counters.
    let measured = EvalEngine::builder()
        .noise(Some("seed=11,model=heavy,sigma=0.05".parse().unwrap()))
        .robust(RobustPolicy::replicated(5, Aggregation::Median))
        .fidelity(Some("fidelity=replicate:0.5,rungs=2".parse().unwrap()))
        .cache_cap(1)
        .global_stats(Arc::clone(&global))
        .build()
        .unwrap();
    // An always-failing engine: retries, quarantine and the quarantine
    // short-circuit.
    let faulty = EvalEngine::builder()
        .faults(Some("seed=5,transient=1".parse().unwrap()))
        .retry(RetryPolicy {
            max_attempts: 3,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        })
        .global_stats(Arc::clone(&global))
        .build()
        .unwrap();

    let obs = Observer::null();
    for size in 8..40 {
        let (hw, sched, layer) = keyed_triple(size);
        for fidelity in [Fidelity::Rung(0), Fidelity::Full, Fidelity::Full] {
            measured
                .measure(&hw, &sched, &layer, fidelity, &obs, 0)
                .unwrap();
        }
    }
    // Two bytes of register file cannot hold a unit tile.
    let tiny_rf = HardwareConfig::new(512, 16, 16, 1, 64, 64).unwrap();
    let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
    let trivial = Schedule::trivial(&layer);
    assert!(measured.evaluate(&tiny_rf, &trivial, &layer).is_err());
    let (hw, sched, layer) = keyed_triple(28);
    assert!(faulty.evaluate(&hw, &sched, &layer).is_err());
    assert!(faulty.evaluate(&hw, &sched, &layer).is_err());
    for engine in [&measured, &faulty] {
        engine.count_sw_search();
        engine.count_failed_layer();
    }
    charge_phases(&measured, &faulty);

    let (a, b) = (measured.stats(), faulty.stats());
    let mirror = global.snapshot();
    assert_eq!(mirror, sum(&a, &b));

    // Every counter and every phase was driven, so a bump or charge the
    // mirror missed would show above.
    let counters = [
        mirror.evaluations,
        mirror.cache_hits,
        mirror.cache_misses,
        mirror.infeasible,
        mirror.quarantined,
        mirror.transient_retries,
        mirror.failed_layers,
        mirror.sw_searches,
        mirror.evictions,
        mirror.replicate_measurements,
        mirror.outliers_rejected,
        mirror.fidelity_cheap_evals,
        mirror.fidelity_full_evals,
    ];
    assert!(counters.iter().all(|&c| c > 0), "{mirror:?}");
    let names: Vec<&str> = mirror.phase_wall.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(
        names,
        ["acquisition", "hw_search", "surrogate_fit", "sw_search"]
    );
    // A zero-duration charge still lists its phase.
    assert_eq!(b.phase_wall[0], ("acquisition".to_string(), Duration::ZERO));
    assert_eq!(b.phase_wall.len(), 2);

    // Per-run resets and checkpoint restores rewrite the engine only.
    measured.reset_stats();
    faulty.restore_logical_counters(101, 102, 103, 104, 105, 106);
    assert_eq!(measured.stats(), EvalStats::default());
    let restored = faulty.stats();
    assert_eq!(
        [
            restored.evaluations,
            restored.sw_searches,
            restored.infeasible,
            restored.quarantined,
            restored.failed_layers,
            restored.outliers_rejected,
        ],
        [101, 102, 103, 104, 105, 106]
    );
    assert_eq!(restored.transient_retries, b.transient_retries);
    assert_eq!(restored.cache_hits, b.cache_hits);
    assert_eq!(global.snapshot(), mirror);
}
