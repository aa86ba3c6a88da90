//! The Figure 4 feature space.
//!
//! Features are "an arbitrary transformation over the parameter space"
//! (Section IV-B) chosen so that (1) every categorical parameter is
//! folded into at least one feature, (2) well-known HW/SW interactions
//! are made explicit, and (3) trends are near-linear so the surrogate can
//! use a linear kernel. The eight Figure 4 rows map onto the functions
//! below.

use spotlight_accel::HardwareConfig;
use spotlight_conv::{ConvLayer, Dim, DIMS, NUM_DIMS};
use spotlight_dabo::FeatureMap;
use spotlight_space::Schedule;

/// Names of the software-search features, aligned with Figure 4 and the
/// Figure 9 importance plot.
pub const SW_FEATURE_NAMES: [&str; 11] = [
    "SIMD Lanes",
    "On-Chip Bandwidth",
    "Total PEs",
    "PE Array Width",
    "Total On-Chip SRAM",
    "Kernel Parallelism",
    "Unroll Degree",
    "PE Utilization",
    "Loop Iterations",
    "DRAM Transfers",
    "Unrolled Dim Sizes",
];

/// Number of software-search features produced by [`sw_features`].
const SW_DIM: usize = SW_FEATURE_NAMES.len();

/// Names of the hardware-search features.
pub const HW_FEATURE_NAMES: [&str; 7] = [
    "SIMD Lanes",
    "On-Chip Bandwidth",
    "Total PEs",
    "PE Array Width",
    "Total On-Chip SRAM",
    "Peak MACs/cycle",
    "Array Half-Perimeter",
];

/// The Figure 4 feature vector for a software-schedule candidate on a
/// fixed accelerator. Large-magnitude features are log-scaled so the
/// linear surrogate sees commensurate values.
///
/// # Examples
///
/// ```
/// use spotlight::features::{sw_features, SW_FEATURE_NAMES};
/// use spotlight_accel::Baseline;
/// use spotlight_conv::ConvLayer;
/// use spotlight_space::Schedule;
///
/// let hw = Baseline::EyerissLike.edge_config();
/// let layer = ConvLayer::new(1, 16, 8, 3, 3, 14, 14);
/// let f = sw_features(&hw, &Schedule::trivial(&layer), &layer);
/// assert_eq!(f.len(), SW_FEATURE_NAMES.len());
/// assert!(f.iter().all(|v| v.is_finite()));
/// ```
pub fn sw_features(hw: &HardwareConfig, sched: &Schedule, layer: &ConvLayer) -> Vec<f64> {
    let _ = layer; // shape is already captured by the tiling's DRAM level
    figure4(hw, sched).to_vec()
}

/// The [`sw_features`] values, on the stack.
fn figure4(hw: &HardwareConfig, sched: &Schedule) -> [f64; SW_DIM] {
    let tiles = sched.tiles();
    let rows = hw.pe_rows() as f64;
    let cols = hw.pe_width() as f64;

    // Raw cardinal hardware parameters (rows 1 of Figure 4).
    let simd = hw.simd_lanes() as f64;
    let bw = hw.noc_bandwidth() as f64;
    let pes = hw.pes() as f64;
    let width = cols;

    // Total on-chip SRAM, correlated with power (row 2).
    let sram = hw.total_sram_kib() as f64;

    // Parallelism available in the kernel: R_0 x S_0 (row 3).
    let kernel_par = (tiles.dram(Dim::R) * tiles.dram(Dim::S)) as f64;

    // Degree of spatial unrolling: outer x inner unrolled trip counts
    // (row 4). Folds both categorical unroll dimensions into one number.
    let unroll_degree = sched.unroll_degree() as f64;

    // PE utilization: how well the unrolled iterations cover the array
    // (row 5).
    let to = sched.outer_unroll_trips() as f64;
    let ti = sched.inner_unroll_trips() as f64;
    let util_rows = to / ((to / rows).ceil().max(1.0) * rows);
    let util_cols = ti / ((ti / cols).ceil().max(1.0) * cols);
    let utilization = util_rows * util_cols;

    // Approximate number of loop iterations to completion (row 6).
    let outer_iters: f64 = DIMS
        .iter()
        .map(|&d| {
            if d == sched.outer_unroll() {
                (tiles.outer_trips(d) as f64 / rows).ceil().max(1.0)
            } else {
                tiles.outer_trips(d) as f64
            }
        })
        .product();
    let inner_iters: f64 = DIMS
        .iter()
        .map(|&d| {
            if d == sched.inner_unroll() {
                (tiles.inner_trips(d) as f64 / cols).ceil().max(1.0)
            } else {
                tiles.inner_trips(d) as f64
            }
        })
        .product();
    let iterations = outer_iters * inner_iters;

    // Approximate transfers from DRAM:
    // (X_0/X_2) * (Y_0/Y_2) * (width + height) (row 7).
    let dram_transfers = (tiles.dram(Dim::X) / tiles.rf(Dim::X)) as f64
        * (tiles.dram(Dim::Y) / tiles.rf(Dim::Y)) as f64
        * (cols + rows);

    // Size of commonly unrolled dimensions, spread out with prime "basis
    // vectors": 2 X_0 + 3 Y_0 + 5 K_0 + 7 K_1 + 11 K_2 (row 8).
    let prime_mix = 2.0 * tiles.dram(Dim::X) as f64
        + 3.0 * tiles.dram(Dim::Y) as f64
        + 5.0 * tiles.dram(Dim::K) as f64
        + 7.0 * tiles.l2(Dim::K) as f64
        + 11.0 * tiles.rf(Dim::K) as f64;

    [
        simd,
        bw,
        pes,
        width,
        sram,
        kernel_par,
        (1.0 + unroll_degree).ln(),
        utilization,
        (1.0 + iterations).ln(),
        (1.0 + dram_transfers).ln(),
        prime_mix,
    ]
}

/// The hardware-search feature vector (daBO_HW): the raw cardinals plus
/// derived compute/SRAM aggregates. Schedule-dependent features do not
/// apply because the schedule is chosen by the inner search.
pub fn hw_features(hw: &HardwareConfig) -> Vec<f64> {
    vec![
        hw.simd_lanes() as f64,
        hw.noc_bandwidth() as f64,
        hw.pes() as f64,
        hw.pe_width() as f64,
        hw.total_sram_kib() as f64,
        hw.peak_macs_per_cycle() as f64,
        hw.array_half_perimeter() as f64,
    ]
}

/// Raw software-parameter encoding (no domain information): the 14 tile
/// sizes, the two loop-order ranks, and the two unroll-dimension indices.
/// This is what Spotlight-V ("vanilla BO ... directly searches the
/// parameter space") trains its surrogate on.
pub fn raw_sw_params(sched: &Schedule) -> Vec<f64> {
    raw(sched).to_vec()
}

/// The [`raw_sw_params`] values, on the stack.
fn raw(sched: &Schedule) -> [f64; RAW_SW_DIM] {
    let tiles = sched.tiles();
    let mut v = [0.0; RAW_SW_DIM];
    for (i, d) in DIMS.into_iter().enumerate() {
        v[i] = (tiles.l2(d) as f64).ln();
        v[NUM_DIMS + i] = (tiles.rf(d) as f64).ln();
    }
    v[2 * NUM_DIMS..].copy_from_slice(&[
        sched.outer_order().rank() as f64,
        sched.inner_order().rank() as f64,
        sched.outer_unroll().index() as f64,
        sched.inner_unroll().index() as f64,
    ]);
    v
}

/// Number of raw software parameters produced by [`raw_sw_params`].
pub const RAW_SW_DIM: usize = 18;

/// The Spotlight-A feature vector: union of the Figure 4 features and the
/// raw parameters (Section VII-D: "the union of all features and raw
/// parameters").
pub fn all_sw_features(hw: &HardwareConfig, sched: &Schedule, layer: &ConvLayer) -> Vec<f64> {
    let _ = layer;
    SwFeatureMap::new(hw, SwFeatureSet::All).features(sched)
}

/// Dimension of [`all_sw_features`].
pub const ALL_SW_DIM: usize = SW_DIM + RAW_SW_DIM;

/// Which software feature vector a [`SwFeatureMap`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwFeatureSet {
    /// The Figure 4 features, [`sw_features`] (Spotlight and its
    /// baselines).
    Figure4,
    /// The raw parameter encoding, [`raw_sw_params`] (Spotlight-V).
    Raw,
    /// Both, [`all_sw_features`] (Spotlight-A).
    All,
}

/// The feature map of one software search on a fixed accelerator. It
/// computes each candidate's features straight into the acquisition
/// batch's row ([`FeatureMap::features_into`]), with the same float
/// operations as the `Vec`-returning functions above.
///
/// # Examples
///
/// ```
/// use spotlight::features::{sw_features, SwFeatureMap, SwFeatureSet};
/// use spotlight_accel::Baseline;
/// use spotlight_conv::ConvLayer;
/// use spotlight_dabo::FeatureMap;
/// use spotlight_space::Schedule;
///
/// let hw = Baseline::NvdlaLike.edge_config();
/// let layer = ConvLayer::new(1, 16, 8, 3, 3, 14, 14);
/// let s = Schedule::trivial(&layer);
/// let fm = SwFeatureMap::new(&hw, SwFeatureSet::Figure4);
/// let mut row = vec![0.0; fm.dim()];
/// fm.features_into(&s, &mut row);
/// assert_eq!(row, sw_features(&hw, &s, &layer));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SwFeatureMap {
    hw: HardwareConfig,
    set: SwFeatureSet,
}

impl SwFeatureMap {
    /// The `set` features of schedules on `hw`.
    pub fn new(hw: &HardwareConfig, set: SwFeatureSet) -> Self {
        SwFeatureMap { hw: *hw, set }
    }
}

impl FeatureMap<Schedule> for SwFeatureMap {
    fn dim(&self) -> usize {
        match self.set {
            SwFeatureSet::Figure4 => SW_DIM,
            SwFeatureSet::Raw => RAW_SW_DIM,
            SwFeatureSet::All => ALL_SW_DIM,
        }
    }

    fn features(&self, sched: &Schedule) -> Vec<f64> {
        let mut v = vec![0.0; self.dim()];
        self.features_into(sched, &mut v);
        v
    }

    fn features_into(&self, sched: &Schedule, out: &mut [f64]) {
        match self.set {
            SwFeatureSet::Figure4 => out.copy_from_slice(&figure4(&self.hw, sched)),
            SwFeatureSet::Raw => out.copy_from_slice(&raw(sched)),
            SwFeatureSet::All => {
                let (head, tail) = out.split_at_mut(SW_DIM);
                head.copy_from_slice(&figure4(&self.hw, sched));
                tail.copy_from_slice(&raw(sched));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spotlight_accel::Baseline;
    use spotlight_space::sample;

    fn hw() -> HardwareConfig {
        Baseline::NvdlaLike.edge_config()
    }

    #[test]
    fn sw_feature_arity_matches_names() {
        let layer = ConvLayer::new(1, 16, 8, 3, 3, 14, 14);
        let f = sw_features(&hw(), &Schedule::trivial(&layer), &layer);
        assert_eq!(f.len(), SW_FEATURE_NAMES.len());
    }

    #[test]
    fn hw_feature_arity_matches_names() {
        assert_eq!(hw_features(&hw()).len(), HW_FEATURE_NAMES.len());
    }

    #[test]
    fn raw_params_have_declared_dim() {
        let layer = ConvLayer::new(1, 16, 8, 3, 3, 14, 14);
        assert_eq!(raw_sw_params(&Schedule::trivial(&layer)).len(), RAW_SW_DIM);
    }

    #[test]
    fn all_features_concatenate() {
        let layer = ConvLayer::new(1, 16, 8, 3, 3, 14, 14);
        let f = all_sw_features(&hw(), &Schedule::trivial(&layer), &layer);
        assert_eq!(f.len(), ALL_SW_DIM);
    }

    #[test]
    fn feature_sets_fill_rows_in_place() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let layer = ConvLayer::new(1, 128, 64, 3, 3, 56, 56);
        for _ in 0..100 {
            let s = sample::sample_schedule(&mut rng, &layer);
            let figure4 = sw_features(&hw(), &s, &layer);
            let mut raw: Vec<f64> = DIMS
                .iter()
                .map(|&d| (s.tiles().l2(d) as f64).ln())
                .collect();
            raw.extend(DIMS.iter().map(|&d| (s.tiles().rf(d) as f64).ln()));
            raw.extend([
                s.outer_order().rank() as f64,
                s.inner_order().rank() as f64,
                s.outer_unroll().index() as f64,
                s.inner_unroll().index() as f64,
            ]);
            let all: Vec<f64> = figure4.iter().chain(&raw).copied().collect();
            assert_eq!(raw_sw_params(&s), raw);
            assert_eq!(all_sw_features(&hw(), &s, &layer), all);
            for (set, want) in [
                (SwFeatureSet::Figure4, &figure4),
                (SwFeatureSet::Raw, &raw),
                (SwFeatureSet::All, &all),
            ] {
                let fm = SwFeatureMap::new(&hw(), set);
                let mut row = vec![f64::NAN; fm.dim()];
                fm.features_into(&s, &mut row);
                assert_eq!(&row, want, "{set:?}");
                assert_eq!(&fm.features(&s), want, "{set:?}");
            }
        }
    }

    #[test]
    fn features_finite_on_random_schedules() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let layer = ConvLayer::new(1, 128, 64, 3, 3, 56, 56);
        for _ in 0..300 {
            let s = sample::sample_schedule(&mut rng, &layer);
            for v in sw_features(&hw(), &s, &layer) {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn utilization_feature_in_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
        let idx = SW_FEATURE_NAMES
            .iter()
            .position(|n| *n == "PE Utilization")
            .unwrap();
        for _ in 0..100 {
            let s = sample::sample_schedule(&mut rng, &layer);
            let u = sw_features(&hw(), &s, &layer)[idx];
            assert!((0.0..=1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn unroll_degree_feature_tracks_schedule() {
        let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
        let idx = SW_FEATURE_NAMES
            .iter()
            .position(|n| *n == "Unroll Degree")
            .unwrap();
        // Trivial schedule: K unrolled at both levels with unit RF tiles;
        // unroll degree = K * 1 at outer? trips: outer = 64/1? tiles are
        // unit, so outer trips = extent, inner trips = 1.
        let f = sw_features(&hw(), &Schedule::trivial(&layer), &layer);
        assert!(f[idx] > 0.0);
    }

    #[test]
    fn utilization_agrees_in_direction_with_the_cost_model() {
        // The feature must agree in *direction* with the cost model:
        // schedules with higher feature-utilization should tend to lower
        // delay. Checked in rank correlation over random samples.
        use spotlight_gp::stats::spearman_rho;
        use spotlight_maestro::CostModel;
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let layer = ConvLayer::new(1, 128, 64, 3, 3, 28, 28);
        let model = CostModel::default();
        let hw = hw();
        let idx = SW_FEATURE_NAMES
            .iter()
            .position(|n| *n == "PE Utilization")
            .unwrap();
        let mut utils = Vec::new();
        let mut delays = Vec::new();
        while utils.len() < 150 {
            let s = sample::sample_schedule(&mut rng, &layer);
            if let Ok(r) = model.evaluate(&hw, &s, &layer) {
                utils.push(sw_features(&hw, &s, &layer)[idx]);
                delays.push(r.delay_cycles);
            }
        }
        let rho = spearman_rho(&utils, &delays);
        assert!(
            rho < -0.1,
            "utilization uncorrelated with delay: rho = {rho}"
        );
    }

    #[test]
    fn iterations_feature_correlates_with_delay() {
        use spotlight_gp::stats::spearman_rho;
        use spotlight_maestro::CostModel;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let layer = ConvLayer::new(1, 64, 64, 3, 3, 28, 28);
        let model = CostModel::default();
        let hw = hw();
        let idx = SW_FEATURE_NAMES
            .iter()
            .position(|n| *n == "Loop Iterations")
            .unwrap();
        let mut iters = Vec::new();
        let mut delays = Vec::new();
        while iters.len() < 150 {
            let s = sample::sample_schedule(&mut rng, &layer);
            if let Ok(r) = model.evaluate(&hw, &s, &layer) {
                iters.push(sw_features(&hw, &s, &layer)[idx]);
                delays.push(r.delay_cycles);
            }
        }
        let rho = spearman_rho(&iters, &delays);
        assert!(rho > 0.1, "iterations uncorrelated with delay: rho = {rho}");
    }
}
