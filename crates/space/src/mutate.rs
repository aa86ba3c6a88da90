//! Mutation and crossover operators for population-based search.
//!
//! The genetic-algorithm baselines (Spotlight-GA and the GA stage of
//! ConfuciuX) need neighborhood moves that stay inside the legal space:
//! hardware mutations re-snap the array width to a divisor of the PE
//! count, and tiling mutations move along divisor chains.

use rand::seq::SliceRandom;
use rand::Rng;

use spotlight_accel::HardwareConfig;
use spotlight_conv::factor::{divisors, nearest_divisor};
use spotlight_conv::{ConvLayer, DIMS, NUM_DIMS};

use crate::param::ParamRanges;
use crate::sample;
use crate::schedule::{Schedule, TileSizes};

/// Mutates one uniformly chosen hardware parameter, keeping the result in
/// range and structurally valid.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use spotlight_space::{mutate, sample, ParamRanges};
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let ranges = ParamRanges::edge();
/// let hw = sample::sample_hw(&mut rng, &ranges);
/// let m = mutate::mutate_hw(&mut rng, &hw, &ranges);
/// assert!(ranges.contains(&m));
/// ```
pub fn mutate_hw<R: Rng + ?Sized>(
    rng: &mut R,
    hw: &HardwareConfig,
    ranges: &ParamRanges,
) -> HardwareConfig {
    let choice = rng.gen_range(0..5u8);
    let (mut pes, mut width, mut simd, mut rf, mut l2, mut bw) = (
        hw.pes(),
        hw.pe_width(),
        hw.simd_lanes(),
        hw.rf_kib(),
        hw.l2_kib(),
        hw.noc_bandwidth(),
    );
    match choice {
        0 => {
            // Perturb the PE count and re-snap the width to a divisor.
            pes = perturb(rng, pes, ranges.pes, 32);
            width = nearest_divisor(pes as u64, width as u64) as u32;
        }
        1 => {
            // Re-draw the aspect ratio from the divisors of the PE count.
            width = *divisors(pes as u64).choose(rng).expect("pes > 0") as u32;
        }
        2 => simd = perturb(rng, simd, ranges.simd_lanes, 2),
        3 => {
            rf = snap_to_grid(
                perturb(rng, rf, ranges.rf_kib, 2 * ranges.rf_stride_kib),
                ranges.rf_kib,
                ranges.rf_stride_kib,
            );
            l2 = snap_to_grid(
                perturb(rng, l2, ranges.l2_kib, 2 * ranges.l2_stride_kib),
                ranges.l2_kib,
                ranges.l2_stride_kib,
            );
        }
        _ => bw = perturb(rng, bw, ranges.noc_bandwidth, 32),
    }
    HardwareConfig::new(pes, width, simd, rf, l2, bw)
        .expect("mutation preserves structural validity")
}

/// Uniform crossover of two hardware configurations: each parameter is
/// inherited from a uniformly chosen parent, with the array width re-
/// snapped onto the inherited PE count.
pub fn crossover_hw<R: Rng + ?Sized>(
    rng: &mut R,
    a: &HardwareConfig,
    b: &HardwareConfig,
) -> HardwareConfig {
    let pick = |rng: &mut R, x: u32, y: u32| if rng.gen_bool(0.5) { x } else { y };
    let pes = pick(rng, a.pes(), b.pes());
    let width = nearest_divisor(pes as u64, pick(rng, a.pe_width(), b.pe_width()) as u64) as u32;
    HardwareConfig::new(
        pes,
        width,
        pick(rng, a.simd_lanes(), b.simd_lanes()),
        pick(rng, a.rf_kib(), b.rf_kib()),
        pick(rng, a.l2_kib(), b.l2_kib()),
        pick(rng, a.noc_bandwidth(), b.noc_bandwidth()),
    )
    .expect("crossover preserves structural validity")
}

/// Mutates one component of a schedule: a tiling factor (moved along its
/// divisor chain), a loop order (transposition), or an unroll dimension
/// (re-drawn).
pub fn mutate_schedule<R: Rng + ?Sized>(rng: &mut R, s: &Schedule, layer: &ConvLayer) -> Schedule {
    match rng.gen_range(0..4u8) {
        0 => {
            // Re-draw the divisor chain of one dimension.
            let i = rng.gen_range(0..NUM_DIMS);
            let mut l2 = std::array::from_fn(|j| s.tiles().l2(DIMS[j]));
            let mut rf = std::array::from_fn(|j| s.tiles().rf(DIMS[j]));
            (l2[i], rf[i]) = sample::redraw_chain(rng, layer, DIMS[i]);
            let tiles = TileSizes::new(layer, l2, rf).expect("redrawn chain is legal");
            s.with_tiles(tiles)
        }
        1 => {
            let i = rng.gen_range(0..NUM_DIMS);
            let j = rng.gen_range(0..NUM_DIMS);
            Schedule::new(
                *s.tiles(),
                s.outer_order().swapped(i, j),
                *s.inner_order(),
                s.outer_unroll(),
                s.inner_unroll(),
            )
        }
        2 => {
            let i = rng.gen_range(0..NUM_DIMS);
            let j = rng.gen_range(0..NUM_DIMS);
            Schedule::new(
                *s.tiles(),
                *s.outer_order(),
                s.inner_order().swapped(i, j),
                s.outer_unroll(),
                s.inner_unroll(),
            )
        }
        _ => {
            if rng.gen_bool(0.5) {
                Schedule::new(
                    *s.tiles(),
                    *s.outer_order(),
                    *s.inner_order(),
                    sample::sample_dim(rng),
                    s.inner_unroll(),
                )
            } else {
                Schedule::new(
                    *s.tiles(),
                    *s.outer_order(),
                    *s.inner_order(),
                    s.outer_unroll(),
                    sample::sample_dim(rng),
                )
            }
        }
    }
}

/// Crossover of two schedules for the same layer: tiling chains are
/// inherited per dimension, orders and unrolls per slot.
pub fn crossover_schedule<R: Rng + ?Sized>(
    rng: &mut R,
    a: &Schedule,
    b: &Schedule,
    layer: &ConvLayer,
) -> Schedule {
    let mut l2 = [1u64; NUM_DIMS];
    let mut rf = [1u64; NUM_DIMS];
    for (i, d) in DIMS.iter().enumerate() {
        let src = if rng.gen_bool(0.5) { a } else { b };
        l2[i] = src.tiles().l2(*d);
        rf[i] = src.tiles().rf(*d);
    }
    let tiles = TileSizes::new(layer, l2, rf).expect("per-dimension chains remain legal");
    Schedule::new(
        tiles,
        if rng.gen_bool(0.5) {
            *a.outer_order()
        } else {
            *b.outer_order()
        },
        if rng.gen_bool(0.5) {
            *a.inner_order()
        } else {
            *b.inner_order()
        },
        if rng.gen_bool(0.5) {
            a.outer_unroll()
        } else {
            b.outer_unroll()
        },
        if rng.gen_bool(0.5) {
            a.inner_unroll()
        } else {
            b.inner_unroll()
        },
    )
}

fn perturb<R: Rng + ?Sized>(rng: &mut R, v: u32, (lo, hi): (u32, u32), step: u32) -> u32 {
    let delta = rng.gen_range(0..=2 * step) as i64 - step as i64;
    (v as i64 + delta).clamp(lo as i64, hi as i64) as u32
}

fn snap_to_grid(v: u32, (lo, hi): (u32, u32), stride: u32) -> u32 {
    let snapped = lo + ((v.saturating_sub(lo) + stride / 2) / stride) * stride;
    snapped.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn snap_to_grid_lands_on_grid() {
        assert_eq!(snap_to_grid(70, (64, 256), 8), 72);
        assert_eq!(snap_to_grid(300, (64, 256), 8), 256);
        assert_eq!(snap_to_grid(10, (64, 256), 8), 64);
    }

    #[test]
    fn hw_mutation_stays_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ranges = ParamRanges::edge();
        let mut hw = sample::sample_hw(&mut rng, &ranges);
        for _ in 0..500 {
            hw = mutate_hw(&mut rng, &hw, &ranges);
            assert!(ranges.contains(&hw), "escaped range: {hw}");
        }
    }

    #[test]
    fn hw_crossover_produces_valid_configs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ranges = ParamRanges::edge();
        for _ in 0..200 {
            let a = sample::sample_hw(&mut rng, &ranges);
            let b = sample::sample_hw(&mut rng, &ranges);
            let c = crossover_hw(&mut rng, &a, &b);
            assert_eq!(c.pes() % c.pe_width(), 0);
            assert!(ranges.contains(&c) || c.pe_width() != a.pe_width());
        }
    }

    #[test]
    fn schedule_mutation_preserves_legality() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let layer = ConvLayer::new(1, 32, 16, 3, 3, 28, 28);
        let mut s = sample::sample_schedule(&mut rng, &layer);
        for _ in 0..500 {
            s = mutate_schedule(&mut rng, &s, &layer);
            assert!(s.tiles().chain_is_legal());
        }
    }

    #[test]
    fn schedule_crossover_preserves_legality() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let layer = ConvLayer::new(1, 24, 12, 3, 3, 14, 14);
        for _ in 0..200 {
            let a = sample::sample_schedule(&mut rng, &layer);
            let b = sample::sample_schedule(&mut rng, &layer);
            let c = crossover_schedule(&mut rng, &a, &b, &layer);
            assert!(c.tiles().chain_is_legal());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn perturb_clamps(seed in 0u64..100, v in 64u32..256, step in 1u32..64) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let out = perturb(&mut rng, v, (64, 256), step);
            prop_assert!((64..=256).contains(&out));
        }

        #[test]
        fn snap_is_idempotent(v in 0u32..1000) {
            let once = snap_to_grid(v, (64, 256), 8);
            prop_assert_eq!(snap_to_grid(once, (64, 256), 8), once);
        }
    }
}
