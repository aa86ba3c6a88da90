//! The tile simulator allocates nothing, however many outer iterations
//! it runs, whether it sums the walk in closed form or steps through it.
//!
//! A counting global allocator is the oracle; this file holds a single
//! test so no concurrent test can contribute allocations to the window
//! being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spotlight_accel::HardwareConfig;
use spotlight_conv::{ConvLayer, Dim, LoopPermutation};
use spotlight_maestro::sim::simulate;
use spotlight_maestro::CostModel;
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
    let layer = ConvLayer::new(1, 64, 64, 3, 3, 28, 28);
    let model = CostModel::default();

    // K and C in tiles of 2, X and Y in tiles of 7: 32 * 32 * 4 * 4 =
    // 16384 outer iterations, with the reduction loop C outside the
    // output loops K, X and Y so output tiles are revisited. Every load
    // and the array time per tile are whole cycles: the closed form sums
    // the walk.
    let hw = HardwareConfig::new(256, 16, 2, 128, 256, 64).unwrap();
    let tiles = TileSizes::new(&layer, [1, 2, 2, 3, 3, 7, 7], [1, 1, 1, 1, 1, 1, 1]).unwrap();
    let outer = LoopPermutation::new([C, K, X, Y, N, R, S]).unwrap();
    let summed = Schedule::new(tiles, outer, LoopPermutation::canonical(), N, C);

    // 14336 outer iterations of a NoC-bound tile on a 24-byte NoC: the
    // array time per tile is no multiple of a power of two, so the walk
    // steps through every iteration.
    let noc24 = HardwareConfig::new(256, 16, 2, 128, 256, 24).unwrap();
    let tiles = TileSizes::new(&layer, [1, 4, 1, 3, 3, 4, 1], [1, 2, 1, 1, 3, 4, 1]).unwrap();
    let outer = LoopPermutation::new([Y, K, S, R, N, X, C]).unwrap();
    let inner = LoopPermutation::new([Y, C, N, R, X, K, S]).unwrap();
    let stepped = Schedule::new(tiles, outer, inner, Y, C);

    for (hw, sched, closed_form, iterations) in
        [(hw, summed, true, 16384), (noc24, stepped, false, 14336)]
    {
        let analytical = model
            .evaluate(&hw, &sched, &layer)
            .expect("feasible schedule");
        // Warm up any lazy one-time state outside the measured window.
        let warm = simulate(&model, &analytical, &hw, &sched, &layer, 1 << 20).unwrap();
        assert_eq!(warm.outer_iterations, iterations);
        assert_eq!(warm.closed_form, closed_form, "{sched}");

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let sim = simulate(&model, &analytical, &hw, &sched, &layer, 1 << 20).unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(sim, warm);
        assert_eq!(after - before, 0, "simulate allocated during its walk");
    }

    // Sanity check the oracle itself: a heap allocation moves the count.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let boxed = std::hint::black_box(Box::new(model));
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "counting allocator is not counting");
    drop(boxed);
}
