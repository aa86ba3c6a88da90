//! The tile simulator's walk allocates nothing, however many outer
//! iterations it runs.
//!
//! A counting global allocator is the oracle; this file holds a single
//! test so no concurrent test can contribute allocations to the window
//! being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spotlight_accel::HardwareConfig;
use spotlight_conv::{ConvLayer, Dim, LoopPermutation};
use spotlight_maestro::sim::simulate;
use spotlight_space::{Schedule, TileSizes};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: Counter = Counter;

struct Counter;

unsafe impl GlobalAlloc for Counter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[test]
fn simulate_does_not_allocate() {
    use Dim::*;
    // K and C in tiles of 2, X and Y in tiles of 7: 32 * 32 * 4 * 4 =
    // 16384 outer iterations, with the reduction loop C outside the
    // output loops K, X and Y so output tiles are revisited.
    let layer = ConvLayer::new(1, 64, 64, 3, 3, 28, 28);
    let hw = HardwareConfig::new(256, 16, 2, 128, 256, 64).unwrap();
    let tiles = TileSizes::new(&layer, [1, 2, 2, 3, 3, 7, 7], [1, 1, 1, 1, 1, 1, 1]).unwrap();
    let outer = LoopPermutation::new([C, K, X, Y, N, R, S]).unwrap();
    let sched = Schedule::new(tiles, outer, LoopPermutation::canonical(), N, C);

    // Warm up any lazy one-time state outside the measured window.
    let warm = simulate(&hw, &sched, &layer, 1 << 20).expect("feasible schedule");
    assert!(warm.outer_iterations >= 10_000);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sim = simulate(&hw, &sched, &layer, 1 << 20).expect("feasible schedule");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(sim, warm);
    assert_eq!(after - before, 0, "simulate allocated during its walk");

    // Sanity check the oracle itself: a heap allocation moves the count.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let boxed = std::hint::black_box(Box::new(sim));
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "counting allocator is not counting");
    drop(boxed);
}
