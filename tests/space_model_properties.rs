//! Property-based integration tests across the space and cost-model
//! crates: every legal sample must flow through both analytical models
//! without panics, physical invariants must hold on whatever comes out,
//! and the analytical model must agree with the tile simulator.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use spotlight_repro::conv::ConvLayer;
use spotlight_repro::maestro::CostModel;
use spotlight_repro::space::{sample, ParamRanges};
use spotlight_repro::timeloop::TimeloopModel;

fn arb_layer() -> impl Strategy<Value = ConvLayer> {
    (
        1u64..3,
        1u64..200,
        1u64..200,
        1u64..8,
        1u64..8,
        1u64..60,
        1u64..60,
        1u64..3,
    )
        .prop_map(|(n, k, c, r, s, x, y, stride)| {
            ConvLayer::new(n, k, c, r, s, x, y).with_stride(stride)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The full sampling + evaluation pipeline never panics, and every
    /// feasible report satisfies basic physics.
    #[test]
    fn random_points_evaluate_soundly(layer in arb_layer(), seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ranges = ParamRanges::edge();
        let hw = sample::sample_hw(&mut rng, &ranges);
        let sched = sample::sample_schedule(&mut rng, &layer);

        let maestro = CostModel::default();
        if let Ok(r) = maestro.evaluate(&hw, &sched, &layer) {
            prop_assert!(r.delay_cycles.is_finite() && r.delay_cycles > 0.0);
            prop_assert!(r.energy_nj.is_finite() && r.energy_nj > 0.0);
            prop_assert!(r.pe_utilization > 0.0 && r.pe_utilization <= 1.0);
            prop_assert!(r.delay_cycles >= r.compute_cycles);
            prop_assert!(r.delay_cycles >= r.dram_cycles);
            prop_assert!(r.delay_cycles >= r.noc_cycles);
            // Compute can never beat the peak-throughput bound.
            let ideal = layer.macs() as f64 / hw.peak_macs_per_cycle() as f64;
            prop_assert!(r.compute_cycles >= ideal * 0.999);
            // Per-tensor DRAM components sum to the total.
            let sum = r.dram_weight_bytes + r.dram_input_bytes + r.dram_output_bytes;
            prop_assert!((sum - r.dram_bytes).abs() <= 1e-6 * r.dram_bytes.max(1.0));
            // Outputs must cross the DRAM boundary at least once.
            prop_assert!(r.dram_output_bytes >= layer.output_elems() as f64 * 0.999);
        }

        let timeloop = TimeloopModel::default();
        if let Ok(r) = timeloop.evaluate(&hw, &sched, &layer) {
            prop_assert!(r.delay_cycles.is_finite() && r.delay_cycles > 0.0);
            prop_assert!(r.energy_nj.is_finite() && r.energy_nj > 0.0);
            prop_assert!(r.dram_bytes >= (layer.weight_elems() + layer.output_elems()) as f64 * 0.999);
        }
    }

    /// Dataflow-style schedules are feasible on the accelerator they were
    /// built for, under the MAESTRO-like rules, for arbitrary layers.
    #[test]
    fn greedy_dataflows_always_feasible(layer in arb_layer(), seed in 0u64..10_000) {
        use spotlight_repro::space::dataflows::rigid_schedules;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let hw = sample::sample_hw(&mut rng, &ranges_edge());
        let maestro = CostModel::default();
        for (style, sched) in rigid_schedules(&layer, &hw) {
            let r = maestro.evaluate(&hw, &sched, &layer);
            prop_assert!(r.is_ok(), "{style} infeasible on {hw}: {:?}", r.err());
        }
    }

    /// Feature vectors are finite for any legal point.
    #[test]
    fn features_always_finite(layer in arb_layer(), seed in 0u64..10_000) {
        use spotlight_repro::spotlight::features::{all_sw_features, hw_features};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let hw = sample::sample_hw(&mut rng, &ranges_edge());
        let sched = sample::sample_schedule(&mut rng, &layer);
        for v in all_sw_features(&hw, &sched, &layer) {
            prop_assert!(v.is_finite());
        }
        for v in hw_features(&hw) {
            prop_assert!(v.is_finite());
        }
    }
}

fn ranges_edge() -> ParamRanges {
    ParamRanges::edge()
}

/// The analytical model agrees with the cycle-level tile simulator, the
/// "more accurate backend" it stands in for: on the three heaviest
/// unique layers of ResNet-50 and of Transformer, 40 random points
/// feasible under both models per layer show median simulated/analytical
/// delay and DRAM ratios within 2% of 1, and the analytical delays rank
/// the points the way the simulator does (Spearman rho >= 0.99).
#[test]
fn analytical_model_agrees_with_the_simulator() {
    use spotlight_repro::gp::stats::spearman_rho;
    use spotlight_repro::maestro::sim::simulate;
    use spotlight_repro::models::{resnet50, transformer};

    const SAMPLES_PER_LAYER: usize = 40;
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let model = CostModel::default();
    let ranges = ParamRanges::edge();
    for m in [resnet50(), transformer()] {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut layers: Vec<_> = m.layers().to_vec();
        layers.sort_by_key(|e| std::cmp::Reverse(e.layer.macs()));
        for entry in layers.iter().take(3) {
            let layer = entry.layer;
            let (mut delay_ratios, mut dram_ratios) = (Vec::new(), Vec::new());
            let (mut a_delays, mut s_delays) = (Vec::new(), Vec::new());
            let mut tries = 0;
            while delay_ratios.len() < SAMPLES_PER_LAYER && tries < SAMPLES_PER_LAYER * 100 {
                tries += 1;
                let hw = sample::sample_hw(&mut rng, &ranges);
                let sched = sample::sample_schedule(&mut rng, &layer);
                let Ok(a) = model.evaluate(&hw, &sched, &layer) else {
                    continue;
                };
                let Ok(s) = simulate(&model, &a, &hw, &sched, &layer, 1 << 18) else {
                    continue;
                };
                delay_ratios.push(s.delay_cycles / a.delay_cycles);
                dram_ratios.push(s.dram_bytes / a.dram_bytes);
                a_delays.push(a.delay_cycles);
                s_delays.push(s.delay_cycles);
            }
            let name = format!("{} {layer}", m.name());
            assert_eq!(
                delay_ratios.len(),
                SAMPLES_PER_LAYER,
                "{name}: feasible points"
            );
            let delay = median(&mut delay_ratios);
            let dram = median(&mut dram_ratios);
            let rho = spearman_rho(&a_delays, &s_delays);
            assert!(
                (0.98..=1.02).contains(&delay),
                "{name}: median delay ratio {delay}"
            );
            assert!(
                (0.98..=1.02).contains(&dram),
                "{name}: median DRAM ratio {dram}"
            );
            assert!(rho >= 0.99, "{name}: delay rank correlation {rho}");
        }
    }
}
