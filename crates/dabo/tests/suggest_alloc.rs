//! daBO's per-suggest cost does not grow with the history length.
//!
//! The linear surrogate refits from streaming sufficient statistics
//! (Section V-A's `O(N d^2)` fit, paid one observation at a time), so a
//! steady-state suggest — refit, 64-candidate batched acquisition —
//! never reads the per-observation history. A counting global allocator
//! is the oracle: a suggest that touched the history would have to size
//! something by it. The Matérn GP, whose fit is `O(N^3)`, is the
//! vacuity guard: the same oracle must see its suggest grow with `N`.
//!
//! This file holds a single test so no concurrent test can contribute
//! allocations to the window being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spotlight_dabo::{Dabo, DaboConfig, FnFeatureMap, Search, SurrogateKind};
use spotlight_gp::Kernel;

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

/// Feature dimension, sized like the hardware feature space.
const DIM: usize = 16;

fn sample_point(rng: &mut dyn RngCore) -> Vec<f64> {
    (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn cost(x: &[f64]) -> f64 {
    x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum::<f64>() + 1.0
}

/// `(allocations, bytes)` of one steady-state suggest on an optimizer
/// primed with `n` observations and warmed by one suggest+observe
/// round. `DaboConfig::default()` refits before every suggest.
fn suggest_cost(surrogate: SurrogateKind, n: usize) -> (u64, u64) {
    let config = DaboConfig {
        surrogate,
        ..DaboConfig::default()
    };
    let fm = FnFeatureMap::new(DIM, (|x: &Vec<f64>| x.clone()) as fn(&Vec<f64>) -> Vec<f64>);
    let mut opt = Dabo::new(config, fm, sample_point as fn(&mut dyn RngCore) -> Vec<f64>);
    let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
    for _ in 0..n {
        let p = sample_point(&mut rng);
        let c = cost(&p);
        opt.observe(p, c);
    }
    let p = opt.suggest(&mut rng);
    let c = cost(&p);
    opt.observe(p, c);

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
fn linear_suggest_cost_is_independent_of_history_length() {
    let linear = [100, 1000, 5000].map(|n| suggest_cost(SurrogateKind::Linear, n));
    assert!(
        linear.iter().all(|&c| c == linear[0]),
        "linear suggest (allocations, bytes) at N = 100, 1000, 5000: {linear:?}"
    );

    let gp = [100, 200].map(|n| suggest_cost(SurrogateKind::Gp(Kernel::matern52(1.0)), n));
    assert!(
        gp[1].0 > gp[0].0 && gp[1].1 > gp[0].1,
        "Matérn GP suggest (allocations, bytes) should grow from N = 100 to 200: {gp:?}"
    );
}
