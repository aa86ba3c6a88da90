//! Fixed schedule families for rigid accelerators.
//!
//! Hand-designed accelerators commit to one dataflow: Eyeriss to
//! row-stationary, NVDLA to weight-stationary, ShiDianNao to
//! output-stationary. ConfuciuX and Spotlight-F search only among these
//! three (Section VII-E). Given a layer and an accelerator, this module
//! deterministically instantiates the style's schedule: resident tensors
//! are tiled as large as the buffers allow (greedy divisor growth), and
//! the style's characteristic dimensions are spatially unrolled with tile
//! sizes shrunk so the unrolled iterations actually cover the PE array.

use spotlight_accel::{DataflowStyle, HardwareConfig};
use spotlight_conv::factor::Divisors;
use spotlight_conv::{ConvLayer, Dim, LoopPermutation, NUM_DIMS};

use crate::schedule::{Schedule, TileSizes};

/// Per-style constants: growth priorities, unroll dimensions, and loop
/// orders.
struct StyleSpec {
    /// Dimensions grown first when filling the L2 tile.
    l2_priority: [Dim; NUM_DIMS],
    /// Dimensions grown first when filling the RF tile.
    rf_priority: [Dim; NUM_DIMS],
    outer_unroll: Dim,
    inner_unroll: Dim,
    outer_order: &'static str,
    inner_order: &'static str,
}

fn spec(style: DataflowStyle) -> StyleSpec {
    use Dim::*;
    match style {
        // Eyeriss: filter rows and input rows stationary in the PEs;
        // X across PE rows, Y across PE columns (Section VII-A).
        DataflowStyle::RowStationary => StyleSpec {
            l2_priority: [S, R, Y, X, C, K, N],
            rf_priority: [S, R, Y, C, X, K, N],
            outer_unroll: X,
            inner_unroll: Y,
            outer_order: "NKCXYRS",
            inner_order: "NKCXYRS",
        },
        // NVDLA: weights stationary; K and C unrolled, activations stream.
        DataflowStyle::WeightStationary => StyleSpec {
            l2_priority: [K, C, R, S, Y, X, N],
            rf_priority: [K, C, R, S, X, Y, N],
            outer_unroll: K,
            inner_unroll: C,
            outer_order: "KCRSNXY",
            inner_order: "KCRSNXY",
        },
        // ShiDianNao: outputs stationary; the output plane unrolled.
        DataflowStyle::OutputStationary => StyleSpec {
            l2_priority: [X, Y, K, C, R, S, N],
            rf_priority: [X, Y, K, R, S, C, N],
            outer_unroll: X,
            inner_unroll: Y,
            outer_order: "NKXYCRS",
            inner_order: "NKXYCRS",
        },
        DataflowStyle::Flexible => {
            unreachable!("flexible style has no single schedule; use rigid_schedules")
        }
    }
}

/// Instantiates the fixed schedule of a rigid `style` for `layer` on `hw`.
///
/// The result is always structurally legal and fits the accelerator's
/// buffer capacities.
///
/// # Panics
///
/// Panics if `style` is [`DataflowStyle::Flexible`]; flexible accelerators
/// pick the best rigid schedule per layer via [`rigid_schedules`].
///
/// # Examples
///
/// ```
/// use spotlight_accel::{Baseline, DataflowStyle};
/// use spotlight_conv::ConvLayer;
/// use spotlight_space::dataflows::dataflow_schedule;
/// use spotlight_space::TileLevel;
///
/// let hw = Baseline::EyerissLike.edge_config();
/// let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
/// let s = dataflow_schedule(DataflowStyle::RowStationary, &layer, &hw);
/// assert!(s.tiles().footprint_bytes(TileLevel::Scratchpad, &layer) <= hw.l2_bytes());
/// ```
pub fn dataflow_schedule(style: DataflowStyle, layer: &ConvLayer, hw: &HardwareConfig) -> Schedule {
    let spec = spec(style);
    let extents = layer.extents();
    let divisors = extents.map(Divisors::of);

    // Reserve parallel iterations for the outer unroll up front: cap the
    // unrolled dimension's L2 tile so DRAM-level trips cover the PE rows,
    // then grow the remaining dimensions greedily under the scratchpad
    // capacity, charging one slice per active row for spatially
    // distributed tensors (the same residency rule the cost model
    // enforces).
    let rows = hw.pe_rows() as u64;
    let mut l2_caps = extents;
    let outer = spec.outer_unroll.index();
    l2_caps[outer] = unroll_cap(&divisors[outer], extents[outer], rows);
    let l2_fits = |t: &[u64; NUM_DIMS]| {
        l2_residency(t, layer, spec.outer_unroll, &extents, rows) <= hw.l2_bytes()
    };
    let mut l2 = [1u64; NUM_DIMS];
    grow_tiles(&mut l2, &l2_caps, &divisors, &spec.l2_priority, &l2_fits);

    // Same for the RF tile: cap the inner unroll so L2-level trips cover
    // the PE columns, then grow under the per-PE RF capacity.
    let mut rf_caps = l2;
    let inner = spec.inner_unroll.index();
    rf_caps[inner] = unroll_cap(&divisors[inner], l2[inner], hw.pe_width() as u64);
    let rf_budget = hw.rf_bytes_per_pe();
    let rf_fits = |t: &[u64; NUM_DIMS]| footprint(t, layer) <= rf_budget;
    let mut rf = [1u64; NUM_DIMS];
    grow_tiles(&mut rf, &rf_caps, &divisors, &spec.rf_priority, &rf_fits);

    let tiles = TileSizes::new(layer, l2, rf).expect("constructed chains are legal");
    Schedule::new(
        tiles,
        spec.outer_order
            .parse::<LoopPermutation>()
            .expect("static order"),
        spec.inner_order
            .parse::<LoopPermutation>()
            .expect("static order"),
        spec.outer_unroll,
        spec.inner_unroll,
    )
}

/// Reference capacities for hardware-*independent* template schedules:
/// a 512 B register file per PE, a 64 KiB scratchpad, and a 16x16 array.
/// These mirror the fixed mapping templates that tools like ConfuciuX and
/// HASCO ship with.
pub const TEMPLATE_RF_BYTES: u64 = 512;
/// Reference scratchpad capacity for [`template_schedule`].
pub const TEMPLATE_L2_BYTES: u64 = 64 * 1024;
/// Reference array rows/columns for [`template_schedule`].
pub const TEMPLATE_ARRAY_DIM: u64 = 16;

/// Instantiates `style`'s *fixed template* schedule for `layer`: tile
/// sizes are chosen against the reference capacities above, independent
/// of the actual accelerator.
///
/// This models the crucial restriction of ConfuciuX- and HASCO-class
/// tools: their mapping templates do not co-design tile sizes with
/// scratchpad sizes, so a larger scratchpad goes unexploited and a
/// smaller one makes the template infeasible — the effect Section VII-C
/// credits for most of Spotlight's advantage.
///
/// # Panics
///
/// Panics if `style` is [`DataflowStyle::Flexible`].
pub fn template_schedule(style: DataflowStyle, layer: &ConvLayer) -> Schedule {
    let spec = spec(style);
    let extents = layer.extents();
    let divisors = extents.map(Divisors::of);

    let mut l2_caps = extents;
    let outer = spec.outer_unroll.index();
    l2_caps[outer] = unroll_cap(&divisors[outer], extents[outer], TEMPLATE_ARRAY_DIM);
    let l2_fits = |t: &[u64; NUM_DIMS]| {
        l2_residency(t, layer, spec.outer_unroll, &extents, TEMPLATE_ARRAY_DIM) <= TEMPLATE_L2_BYTES
    };
    let mut l2 = [1u64; NUM_DIMS];
    grow_tiles(&mut l2, &l2_caps, &divisors, &spec.l2_priority, &l2_fits);

    let mut rf_caps = l2;
    let inner = spec.inner_unroll.index();
    rf_caps[inner] = unroll_cap(&divisors[inner], l2[inner], TEMPLATE_ARRAY_DIM);
    let rf_fits = |t: &[u64; NUM_DIMS]| footprint(t, layer) <= TEMPLATE_RF_BYTES;
    let mut rf = [1u64; NUM_DIMS];
    grow_tiles(&mut rf, &rf_caps, &divisors, &spec.rf_priority, &rf_fits);

    let tiles = TileSizes::new(layer, l2, rf).expect("constructed chains are legal");
    Schedule::new(
        tiles,
        spec.outer_order
            .parse::<LoopPermutation>()
            .expect("static order"),
        spec.inner_order
            .parse::<LoopPermutation>()
            .expect("static order"),
        spec.outer_unroll,
        spec.inner_unroll,
    )
}

/// All three rigid schedules for `layer` on `hw` — the menu a flexible
/// (MAERI-like) accelerator or ConfuciuX chooses from by cost.
pub fn rigid_schedules(layer: &ConvLayer, hw: &HardwareConfig) -> Vec<(DataflowStyle, Schedule)> {
    DataflowStyle::RIGID
        .iter()
        .map(|&st| (st, dataflow_schedule(st, layer, hw)))
        .collect()
}

/// Grows `tiles` toward `caps` along `priority` (round-robin over next
/// divisors) while `fits` accepts the candidate. Each cap divides its
/// dimension's extent, whose divisors `divisors` holds.
fn grow_tiles(
    tiles: &mut [u64; NUM_DIMS],
    caps: &[u64; NUM_DIMS],
    divisors: &[Divisors; NUM_DIMS],
    priority: &[Dim; NUM_DIMS],
    fits: &dyn Fn(&[u64; NUM_DIMS]) -> bool,
) {
    loop {
        let mut progressed = false;
        for &d in priority {
            let i = d.index();
            if tiles[i] == caps[i] {
                continue;
            }
            let next = next_divisor(&divisors[i], caps[i], tiles[i]);
            let mut candidate = *tiles;
            candidate[i] = next;
            if fits(&candidate) {
                *tiles = candidate;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
}

/// Scratchpad residency of an L2 tile, mirroring the cost models' rule:
/// tensors indexed by the outer-unrolled dimension occupy one slice per
/// active PE row; shared tensors are multicast from a single slice.
fn l2_residency(
    t: &[u64; NUM_DIMS],
    layer: &ConvLayer,
    outer_unroll: Dim,
    extents: &[u64; NUM_DIMS],
    rows: u64,
) -> u64 {
    let trips = extents[outer_unroll.index()] / t[outer_unroll.index()].max(1);
    let rows_used = trips.min(rows).max(1);
    let g = |d: Dim| t[d.index()];
    let weights = g(Dim::K) * g(Dim::C) * g(Dim::R) * g(Dim::S);
    let in_x = (g(Dim::X) - 1) * layer.stride + g(Dim::R);
    let in_y = (g(Dim::Y) - 1) * layer.stride + g(Dim::S);
    let inputs = g(Dim::N) * g(Dim::C) * in_x * in_y;
    let outputs = g(Dim::N) * g(Dim::K) * g(Dim::X) * g(Dim::Y);
    let mult = |indexed: bool, fp: u64| if indexed { rows_used * fp } else { fp };
    mult(outer_unroll.indexes_weights(), weights)
        + mult(outer_unroll.indexes_inputs(), inputs)
        + mult(outer_unroll.indexes_outputs(), outputs)
}

/// Largest tile for an unrolled dimension of extent `cap` such that the
/// trip count covers `lanes` parallel units: the biggest divisor of `cap`
/// at most `cap / lanes` (1 when the dimension is smaller than the
/// array, i.e. fully unrolled). `cap` divides the number whose ascending
/// divisors are `divisors`, so its own are those that divide it.
fn unroll_cap(divisors: &[u64], cap: u64, lanes: u64) -> u64 {
    if cap < lanes {
        return 1;
    }
    let target = (cap / lanes).max(1);
    divisors
        .iter()
        .copied()
        .filter(|&t| t <= target && cap.is_multiple_of(t))
        .max()
        .unwrap_or(1)
}

/// Smallest divisor of `cap` strictly greater than `current`, where
/// `cap` divides the number whose ascending divisors are `divisors`.
fn next_divisor(divisors: &[u64], cap: u64, current: u64) -> u64 {
    divisors
        .iter()
        .copied()
        .find(|&d| d > current && cap.is_multiple_of(d))
        .unwrap_or(cap)
}

/// Footprint in bytes (8-bit elements) of a tile, mirroring
/// [`TileSizes::tensor_footprints`].
fn footprint(t: &[u64; NUM_DIMS], layer: &ConvLayer) -> u64 {
    let g = |d: Dim| t[d.index()];
    let weights = g(Dim::K) * g(Dim::C) * g(Dim::R) * g(Dim::S);
    let in_x = (g(Dim::X) - 1) * layer.stride + g(Dim::R);
    let in_y = (g(Dim::Y) - 1) * layer.stride + g(Dim::S);
    let inputs = g(Dim::N) * g(Dim::C) * in_x * in_y;
    let outputs = g(Dim::N) * g(Dim::K) * g(Dim::X) * g(Dim::Y);
    weights + inputs + outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::TileLevel;
    use spotlight_accel::Baseline;

    fn layers() -> Vec<ConvLayer> {
        vec![
            ConvLayer::new(1, 64, 3, 7, 7, 112, 112).with_stride(2),
            ConvLayer::new(1, 128, 64, 3, 3, 56, 56),
            ConvLayer::new(1, 512, 256, 1, 1, 14, 14),
            ConvLayer::new(1, 768, 512, 1, 1, 16, 32), // GEMM-like
            ConvLayer::new(96, 1, 1, 3, 3, 56, 56),    // depthwise
        ]
    }

    #[test]
    fn all_styles_fit_buffers_on_all_baselines() {
        for layer in layers() {
            for base in [
                Baseline::EyerissLike,
                Baseline::NvdlaLike,
                Baseline::ShiDianNaoLike,
            ] {
                let hw = base.edge_config();
                let s = dataflow_schedule(base.dataflow(), &layer, &hw);
                assert!(s.tiles().chain_is_legal());
                assert!(
                    s.tiles().footprint_bytes(TileLevel::Scratchpad, &layer) <= hw.l2_bytes(),
                    "{base} L2 overflow on {layer}"
                );
                assert!(
                    s.tiles().footprint_bytes(TileLevel::RegisterFile, &layer)
                        <= hw.rf_bytes_per_pe(),
                    "{base} RF overflow on {layer}"
                );
            }
        }
    }

    #[test]
    fn weight_stationary_unrolls_k_and_c() {
        let hw = Baseline::NvdlaLike.edge_config();
        let layer = ConvLayer::new(1, 128, 64, 3, 3, 28, 28);
        let s = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
        assert_eq!(s.outer_unroll(), Dim::K);
        assert_eq!(s.inner_unroll(), Dim::C);
    }

    #[test]
    fn row_stationary_unrolls_spatial_dims() {
        let hw = Baseline::EyerissLike.edge_config();
        let layer = ConvLayer::new(1, 128, 64, 3, 3, 28, 28);
        let s = dataflow_schedule(DataflowStyle::RowStationary, &layer, &hw);
        assert_eq!(s.outer_unroll(), Dim::X);
        assert_eq!(s.inner_unroll(), Dim::Y);
    }

    #[test]
    fn unrolled_dims_provide_parallelism_when_layer_allows() {
        let hw = Baseline::NvdlaLike.edge_config(); // 16 rows, 16 cols
        let layer = ConvLayer::new(1, 256, 128, 3, 3, 28, 28);
        let s = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
        // K = 256 >= 16 rows; the style must expose at least `rows` trips.
        assert!(
            s.outer_unroll_trips() >= hw.pe_rows() as u64,
            "only {} outer unroll trips",
            s.outer_unroll_trips()
        );
        assert!(
            s.inner_unroll_trips() >= hw.pe_width() as u64,
            "only {} inner unroll trips",
            s.inner_unroll_trips()
        );
    }

    #[test]
    fn tiny_dimension_fully_unrolled() {
        let hw = Baseline::NvdlaLike.edge_config();
        // K = 4 < 16 rows: the whole dimension should unroll (tile of 1).
        let layer = ConvLayer::new(1, 4, 64, 3, 3, 28, 28);
        let s = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
        assert_eq!(s.tiles().l2(Dim::K), 1);
    }

    #[test]
    fn rigid_schedules_returns_three_distinct_styles() {
        let hw = Baseline::EyerissLike.edge_config();
        let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
        let menu = rigid_schedules(&layer, &hw);
        assert_eq!(menu.len(), 3);
        let styles: Vec<DataflowStyle> = menu.iter().map(|(s, _)| *s).collect();
        assert_eq!(styles, DataflowStyle::RIGID.to_vec());
    }

    #[test]
    fn next_divisor_walks_the_chain() {
        let twelve = Divisors::of(12);
        assert_eq!(next_divisor(&twelve, 12, 1), 2);
        assert_eq!(next_divisor(&twelve, 12, 2), 3);
        assert_eq!(next_divisor(&twelve, 12, 6), 12);
        assert_eq!(next_divisor(&twelve, 12, 12), 12);
        // A cap below the extent skips the extent's other divisors (8).
        assert_eq!(next_divisor(&Divisors::of(24), 12, 6), 12);
    }

    #[test]
    fn schedules_are_deterministic() {
        let hw = Baseline::EyerissLike.edge_config();
        let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
        let a = dataflow_schedule(DataflowStyle::RowStationary, &layer, &hw);
        let b = dataflow_schedule(DataflowStyle::RowStationary, &layer, &hw);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod template_tests {
    use super::*;
    use crate::schedule::TileLevel;

    #[test]
    fn template_is_hardware_independent() {
        let layer = ConvLayer::new(1, 128, 64, 3, 3, 28, 28);
        let a = template_schedule(DataflowStyle::WeightStationary, &layer);
        let b = template_schedule(DataflowStyle::WeightStationary, &layer);
        assert_eq!(a, b);
    }

    #[test]
    fn template_fits_reference_capacities() {
        for style in DataflowStyle::RIGID {
            for layer in [
                ConvLayer::new(1, 128, 64, 3, 3, 28, 28),
                ConvLayer::new(1, 512, 256, 1, 1, 14, 14),
            ] {
                let s = template_schedule(style, &layer);
                assert!(
                    s.tiles().footprint_bytes(TileLevel::RegisterFile, &layer) <= TEMPLATE_RF_BYTES
                );
                assert!(
                    s.tiles().footprint_bytes(TileLevel::Scratchpad, &layer) <= TEMPLATE_L2_BYTES
                );
            }
        }
    }

    #[test]
    fn template_cannot_exploit_big_scratchpads() {
        // The adaptive schedule on a 256 KiB scratchpad uses more of it
        // than the fixed template built for 64 KiB — the co-design gap.
        let layer = ConvLayer::new(1, 128, 64, 3, 3, 28, 28);
        let hw = spotlight_accel::HardwareConfig::new(256, 16, 2, 256, 256, 128).unwrap();
        let adaptive = dataflow_schedule(DataflowStyle::WeightStationary, &layer, &hw);
        let template = template_schedule(DataflowStyle::WeightStationary, &layer);
        let fp = |s: &Schedule| s.tiles().footprint_bytes(TileLevel::Scratchpad, &layer);
        assert!(fp(&adaptive) > fp(&template));
    }

    #[test]
    fn divisor_steps_match_enumerating_the_cap() {
        // The growth steps read the extent's divisors, enumerated once,
        // in place of the cap's own: the same answer for every cap that
        // divides the extent, at every current tile and lane count.
        for extent in 1..=240u64 {
            let divisors = Divisors::of(extent);
            for &cap in divisors.iter() {
                let own = Divisors::of(cap);
                for &current in own.iter().filter(|&&d| d < cap) {
                    let expected = own.iter().copied().find(|&d| d > current).unwrap_or(cap);
                    assert_eq!(next_divisor(&divisors, cap, current), expected);
                }
                for lanes in 1..=20 {
                    let expected = if cap < lanes {
                        1
                    } else {
                        let target = (cap / lanes).max(1);
                        own.iter()
                            .copied()
                            .filter(|&t| t <= target)
                            .max()
                            .unwrap_or(1)
                    };
                    assert_eq!(
                        unroll_cap(&divisors, cap, lanes),
                        expected,
                        "{extent} {cap} {lanes}"
                    );
                }
            }
        }
    }
}
