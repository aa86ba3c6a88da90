//! Seeded uniform sampling of the co-design space.
//!
//! Candidate configurations are "randomly generated in the parameter
//! space" (Section V-A) for both the initial design batch and the
//! acquisition batches of every search algorithm, so sampling must be
//! uniform over *legal* values: PE widths are drawn from the divisors of
//! the PE count, tile sizes from divisor chains of the layer extents.

use rand::seq::SliceRandom;
use rand::Rng;

use spotlight_accel::HardwareConfig;
use spotlight_conv::factor::{divisors, Divisors};
use spotlight_conv::{ConvLayer, Dim, LoopPermutation, DIMS, NUM_DIMS};

use crate::param::ParamRanges;
use crate::schedule::{Schedule, TileSizes};

/// Draws a uniform hardware configuration from `ranges`.
///
/// All parameters are sampled independently; the PE-array width is a
/// uniform divisor of the sampled PE count, and the strided (ordinal)
/// SRAM sizes are drawn from their grids.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use spotlight_space::{sample, ParamRanges};
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let ranges = ParamRanges::edge();
/// for _ in 0..100 {
///     assert!(ranges.contains(&sample::sample_hw(&mut rng, &ranges)));
/// }
/// ```
pub fn sample_hw<R: Rng + ?Sized>(rng: &mut R, ranges: &ParamRanges) -> HardwareConfig {
    let pes = rng.gen_range(ranges.pes.0..=ranges.pes.1);
    let widths = divisors(pes as u64);
    let width = *widths.choose(rng).expect("pes > 0 has divisors") as u32;
    let simd = rng.gen_range(ranges.simd_lanes.0..=ranges.simd_lanes.1);
    let l2 = *ranges.l2_grid().choose(rng).expect("non-empty grid");
    let rf = *ranges.rf_grid().choose(rng).expect("non-empty grid");
    let bw = rng.gen_range(ranges.noc_bandwidth.0..=ranges.noc_bandwidth.1);
    HardwareConfig::new(pes, width, simd, rf, l2, bw)
        .expect("sampled width divides sampled PE count")
}

/// Draws a uniform legal divisor chain `(l2, rf)` for `dim` of `layer`:
/// a uniform divisor `l2 | extent`, then a uniform divisor `rf | l2`.
/// Every tiling sampler and mutator redraws a dimension through this (or
/// through [`DivisorChains`], which draws the same chain); it allocates
/// nothing for an extent with at most 64 divisors.
pub fn redraw_chain<R: Rng + ?Sized>(rng: &mut R, layer: &ConvLayer, dim: Dim) -> (u64, u64) {
    let l2 = *Divisors::of(layer.extent(dim))
        .choose(rng)
        .expect("extent > 0");
    let rf = *Divisors::of(l2).choose(rng).expect("tile > 0");
    (l2, rf)
}

/// Where the tile samplers draw divisor chains from: a [`ConvLayer`],
/// whose divisors [`redraw_chain`] enumerates on every draw, or its
/// [`DivisorChains`], enumerated once. Both return the same chain for the
/// same RNG words.
pub trait ChainSource {
    /// The layer whose extents the chains divide.
    fn layer(&self) -> &ConvLayer;

    /// Draws a uniform legal divisor chain `(l2, rf)` for `dim`.
    fn chain<R: Rng + ?Sized>(&self, rng: &mut R, dim: Dim) -> (u64, u64);
}

impl ChainSource for ConvLayer {
    fn layer(&self) -> &ConvLayer {
        self
    }

    fn chain<R: Rng + ?Sized>(&self, rng: &mut R, dim: Dim) -> (u64, u64) {
        redraw_chain(rng, self, dim)
    }
}

/// Every legal divisor chain of one layer, per dimension: the divisors
/// `l2` of the extent, and for each the divisors `rf` of `l2`. A software
/// search builds this once and redraws chains by lookup instead of trial
/// division.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use spotlight_conv::{ConvLayer, Dim};
/// use spotlight_space::sample::{redraw_chain, ChainSource, DivisorChains};
///
/// let layer = ConvLayer::new(1, 256, 128, 3, 3, 28, 28);
/// let chains = DivisorChains::new(&layer);
/// let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let mut b = a.clone();
/// for _ in 0..20 {
///     assert_eq!(chains.chain(&mut a, Dim::K), redraw_chain(&mut b, &layer, Dim::K));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct DivisorChains {
    layer: ConvLayer,
    /// Per dimension, one entry per divisor of the extent, ascending.
    l2: [Vec<L2Tile>; NUM_DIMS],
    /// The divisors of every [`L2Tile`], back to back, each run
    /// ascending.
    rf: Vec<u64>,
}

/// One L2 tile size and where its divisors sit in [`DivisorChains::rf`].
#[derive(Debug, Clone, Copy)]
struct L2Tile {
    size: u64,
    rf_start: usize,
    rf_end: usize,
}

impl DivisorChains {
    /// Enumerates the chains of every dimension of `layer`.
    pub fn new(layer: &ConvLayer) -> Self {
        let mut rf = Vec::new();
        let l2 = DIMS.map(|d| {
            Divisors::of(layer.extent(d))
                .iter()
                .map(|&size| {
                    let rf_start = rf.len();
                    rf.extend_from_slice(&Divisors::of(size));
                    L2Tile {
                        size,
                        rf_start,
                        rf_end: rf.len(),
                    }
                })
                .collect()
        });
        DivisorChains {
            layer: *layer,
            l2,
            rf,
        }
    }
}

impl ChainSource for DivisorChains {
    fn layer(&self) -> &ConvLayer {
        &self.layer
    }

    /// The same draw as [`redraw_chain`]: a uniform index into the
    /// ascending divisors of the extent, then one into those of `l2`.
    fn chain<R: Rng + ?Sized>(&self, rng: &mut R, dim: Dim) -> (u64, u64) {
        let l2 = self.l2[dim.index()].choose(rng).expect("extent > 0");
        let rf = *self.rf[l2.rf_start..l2.rf_end]
            .choose(rng)
            .expect("tile > 0");
        (l2.size, rf)
    }
}

/// Draws a uniform legal tiling for a layer: per dimension, a
/// [`ChainSource::chain`].
pub fn sample_tiles<R: Rng + ?Sized, C: ChainSource + ?Sized>(
    rng: &mut R,
    chains: &C,
) -> TileSizes {
    let mut l2 = [1u64; NUM_DIMS];
    let mut rf = [1u64; NUM_DIMS];
    for (i, d) in DIMS.iter().enumerate() {
        (l2[i], rf[i]) = chains.chain(rng, *d);
    }
    TileSizes::new(chains.layer(), l2, rf).expect("sampled chains are legal by construction")
}

/// Draws a uniform loop permutation.
pub fn sample_order<R: Rng + ?Sized>(rng: &mut R) -> LoopPermutation {
    LoopPermutation::from_lehmer(rng.gen_range(0..LoopPermutation::COUNT))
}

/// Draws a uniform unroll dimension.
pub fn sample_dim<R: Rng + ?Sized>(rng: &mut R) -> Dim {
    *DIMS.choose(rng).expect("DIMS is non-empty")
}

/// Draws a uniform software schedule for a layer (or its
/// [`DivisorChains`]): legal tiling, two loop orders, two unroll
/// dimensions.
///
/// The sample is *structurally* legal (divisor chains hold) but may still
/// be *infeasible* on a given accelerator (tiles exceeding buffer
/// capacities) — exactly the "invalid regions" of the paper's co-design
/// space that the cost model rejects and the search must learn to avoid.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use spotlight_conv::ConvLayer;
/// use spotlight_space::sample;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let layer = ConvLayer::new(1, 32, 16, 3, 3, 28, 28);
/// let s = sample::sample_schedule(&mut rng, &layer);
/// assert!(s.tiles().chain_is_legal());
/// ```
pub fn sample_schedule<R: Rng + ?Sized, C: ChainSource + ?Sized>(
    rng: &mut R,
    chains: &C,
) -> Schedule {
    Schedule::new(
        sample_tiles(rng, chains),
        sample_order(rng),
        sample_order(rng),
        sample_dim(rng),
        sample_dim(rng),
    )
}

/// Draws a schedule whose tiles fit the given buffer capacities, by
/// rejection sampling with a deterministic fallback.
///
/// Used to seed searches with at least some feasible points; after
/// `max_tries` rejections it falls back to [`Schedule::trivial`] shrunk to
/// unit tiles, which fits any non-degenerate accelerator.
pub fn sample_feasible_schedule<R: Rng + ?Sized>(
    rng: &mut R,
    layer: &ConvLayer,
    rf_bytes_per_pe: u64,
    l2_bytes: u64,
    max_tries: usize,
) -> Schedule {
    use crate::schedule::TileLevel;
    for _ in 0..max_tries {
        let s = sample_schedule(rng, layer);
        let rf_fp = s.tiles().footprint_bytes(TileLevel::RegisterFile, layer);
        let l2_fp = s.tiles().footprint_bytes(TileLevel::Scratchpad, layer);
        if rf_fp <= rf_bytes_per_pe && l2_fp <= l2_bytes {
            return s;
        }
    }
    Schedule::trivial(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::TileLevel;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn hw_samples_always_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ranges = ParamRanges::edge();
        for _ in 0..500 {
            let hw = sample_hw(&mut rng, &ranges);
            assert!(ranges.contains(&hw));
            assert_eq!(hw.pes() % hw.pe_width(), 0);
        }
    }

    #[test]
    fn cloud_samples_in_cloud_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ranges = ParamRanges::cloud();
        for _ in 0..200 {
            assert!(ranges.contains(&sample_hw(&mut rng, &ranges)));
        }
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let ranges = ParamRanges::edge();
        let a: Vec<HardwareConfig> = {
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            (0..20).map(|_| sample_hw(&mut rng, &ranges)).collect()
        };
        let b: Vec<HardwareConfig> = {
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            (0..20).map(|_| sample_hw(&mut rng, &ranges)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn samples_vary_across_draws() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ranges = ParamRanges::edge();
        let hws: Vec<HardwareConfig> = (0..50).map(|_| sample_hw(&mut rng, &ranges)).collect();
        let first = hws[0];
        assert!(hws.iter().any(|h| *h != first), "sampler is degenerate");
    }

    #[test]
    fn feasible_sampler_respects_capacities() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let layer = ConvLayer::new(1, 64, 64, 3, 3, 28, 28);
        for _ in 0..50 {
            let s = sample_feasible_schedule(&mut rng, &layer, 512, 128 * 1024, 64);
            assert!(s.tiles().footprint_bytes(TileLevel::RegisterFile, &layer) <= 512);
            assert!(s.tiles().footprint_bytes(TileLevel::Scratchpad, &layer) <= 128 * 1024);
        }
    }

    #[test]
    fn feasible_sampler_falls_back_to_trivial() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Impossibly small RF: rejection always fails, fallback must fire.
        let layer = ConvLayer::new(1, 64, 64, 3, 3, 28, 28);
        let s = sample_feasible_schedule(&mut rng, &layer, 0, 0, 4);
        assert_eq!(s, Schedule::trivial(&layer));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sampled_tiles_are_legal_chains(
            seed in 0u64..1_000,
            k in 1u64..128,
            c in 1u64..64,
            xy in 1u64..56,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let layer = ConvLayer::new(1, k, c, 3, 3, xy, xy);
            let t = sample_tiles(&mut rng, &layer);
            prop_assert!(t.chain_is_legal());
            for d in DIMS {
                prop_assert_eq!(t.dram(d), layer.extent(d));
            }
        }

        #[test]
        fn divisor_chains_draw_what_redraw_chain_draws(
            seed in 0u64..1_000,
            k in 1u64..2049,
            c in 1u64..1025,
            xy in 1u64..113,
        ) {
            let layer = ConvLayer::new(1, k, c, 3, 3, xy, xy);
            let chains = DivisorChains::new(&layer);
            let mut a = ChaCha8Rng::seed_from_u64(seed);
            let mut b = a.clone();
            for d in DIMS {
                prop_assert_eq!(chains.chain(&mut a, d), redraw_chain(&mut b, &layer, d));
            }
            prop_assert_eq!(sample_schedule(&mut a, &chains), sample_schedule(&mut b, &layer));
            prop_assert_eq!(a.word_pos(), b.word_pos());
        }

        #[test]
        fn sampled_schedules_have_valid_orders(seed in 0u64..500) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let layer = ConvLayer::new(1, 16, 8, 3, 3, 14, 14);
            let s = sample_schedule(&mut rng, &layer);
            // Both orders are permutations: each dim appears exactly once.
            for d in DIMS {
                let _ = s.outer_order().position(d);
                let _ = s.inner_order().position(d);
            }
        }
    }
}
