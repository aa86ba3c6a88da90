//! One software-search suggest allocates the same at any batch size.
//!
//! A Spotlight software search draws a batch of candidate schedules per
//! suggest and scores them with the surrogate. Its proposal state (the
//! three rigid base schedules) is built once per search, a draw
//! enumerates divisors on the stack, and each candidate's features are
//! written straight into the batch matrix, so a candidate costs no
//! allocation. A counting global allocator is the oracle: one allocation
//! per candidate would make the count grow with the batch size.
//!
//! This file holds a single test so no concurrent test can contribute
//! allocations to the window being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotlight::features::{SwFeatureMap, SwFeatureSet};
use spotlight::swsearch::Proposals;
use spotlight_accel::Baseline;
use spotlight_conv::ConvLayer;
use spotlight_dabo::{Dabo, DaboConfig, Search};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: Counter = Counter;

struct Counter;

impl Counter {
    fn record(size: usize) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; counting touches only atomics.
unsafe impl GlobalAlloc for Counter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counter::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counter::record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `(allocations, bytes)` of one steady-state suggest of a Spotlight
/// software search with `batch_size` candidates, after 10 observations
/// and one warm-up suggest. The warm-up's point is observed too, so the
/// measured suggest refits the surrogate as every search step does.
fn suggest_cost(batch_size: usize) -> (u64, u64) {
    let hw = Baseline::NvdlaLike.edge_config();
    let layer = ConvLayer::new(1, 256, 128, 3, 3, 28, 28);
    let config = DaboConfig {
        batch_size,
        ..DaboConfig::default()
    };
    let proposals = Proposals::new(&layer, &hw);
    let mut opt = Dabo::new(
        config,
        SwFeatureMap::new(&hw, SwFeatureSet::Figure4),
        move |rng| proposals.guided(rng),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for i in 0..=10 {
        let s = opt.suggest(&mut rng);
        opt.observe(s, 1.0 + i as f64);
    }

    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let _point = opt.suggest(&mut rng);
    (
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn software_suggest_allocates_nothing_per_candidate() {
    let costs = [16, 64, 256].map(suggest_cost);
    assert!(
        costs.iter().all(|&c| c == costs[0]),
        "suggest (allocations, bytes) at batch 16, 64, 256: {costs:?}"
    );
    // The surrogate refit's 8 allocations are the whole budget; drawing
    // and scoring 16 to 256 candidates adds none.
    assert!(
        costs[0].0 <= 8,
        "suggest allocations over budget: {costs:?}"
    );
}
