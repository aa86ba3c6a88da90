//! A cycle-level tile simulator.
//!
//! The analytical model (`CostModel`) estimates delay with closed-form
//! roofline arithmetic. This module *executes* the schedule instead: it
//! walks the outer loop nest iteration by iteration, tracks exactly which
//! tensor tiles change (and therefore what must be fetched from DRAM),
//! and plays the fetches and computations through a double-buffered
//! two-stage pipeline (DRAM channel in front of the PE array + NoC).
//!
//! The walk allocates nothing: which tensors reload at each step is
//! precomputed per loop, and whether an output tile is being revisited
//! follows from a running count of non-zero reduction counters rather
//! than a set of visited tiles. When every per-step quantity lies on a
//! dyadic grid fine enough that no addition of the walk can round, the
//! walk is summed in closed form in O(loop depth); otherwise it steps
//! through the O(outer iterations) loop. The two agree bit for bit
//! wherever the closed form runs.
//!
//! The simulator serves two purposes:
//!
//! 1. **Validation** — the analytical DRAM traffic formula must agree
//!    with the simulator's exact per-iteration accounting (they share no
//!    code), and analytical delay must track simulated delay; the test
//!    suite enforces both.
//! 2. **A higher-fidelity backend** — the paper's conclusion anticipates
//!    "more costly but more accurate evaluation backends"; plugging the
//!    simulator in place of the analytical model exercises exactly that
//!    path (the root `tests/space_model_properties.rs` pins the agreement).

use spotlight_conv::{ConvLayer, Dim, NUM_DIMS};
use spotlight_space::{Schedule, TileLevel};

use crate::model::CostModel;
use crate::report::CostReport;

/// Result of simulating one (hardware, schedule, layer) triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// End-to-end delay in cycles.
    pub delay_cycles: f64,
    /// Exact bytes fetched from DRAM into the scratchpad (reads of
    /// weights/inputs plus output write-backs and partial-sum re-reads).
    pub dram_bytes: f64,
    /// Cycles the PE array spent waiting on DRAM (pipeline stalls).
    pub stall_cycles: f64,
    /// Outer-loop iterations executed.
    pub outer_iterations: u64,
    /// Whether the walk was summed in closed form rather than stepped
    /// iteration by iteration; the other fields are the same either way.
    pub closed_form: bool,
}

/// Error from [`simulate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// The outer loop nest has more iterations than `max_iterations`.
    TooLarge {
        /// Iterations the schedule requires.
        required: u64,
        /// The configured cap.
        cap: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TooLarge { required, cap } => {
                write!(f, "schedule has {required} outer iterations, cap is {cap}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Simulates `layer` on `hw` under `sched`, walking at most
/// `max_iterations` outer-loop iterations.
///
/// `analytical` is `model`'s report of the same triple: it shows the
/// mapping feasible (the simulator shares the analytical validity rules)
/// and gives the per-tile NoC volume. The walk drains DRAM at `model`'s
/// bandwidth.
///
/// # Errors
///
/// [`SimError::TooLarge`] bounds simulation cost.
///
/// # Examples
///
/// ```
/// use spotlight_accel::Baseline;
/// use spotlight_conv::ConvLayer;
/// use spotlight_maestro::sim::simulate;
/// use spotlight_maestro::CostModel;
/// use spotlight_space::dataflows::dataflow_schedule;
///
/// let model = CostModel::default();
/// let hw = Baseline::NvdlaLike.edge_config();
/// let layer = ConvLayer::new(1, 32, 16, 3, 3, 14, 14);
/// let sched = dataflow_schedule(Baseline::NvdlaLike.dataflow(), &layer, &hw);
/// let analytical = model.evaluate(&hw, &sched, &layer)?;
/// let sim = simulate(&model, &analytical, &hw, &sched, &layer, 1_000_000).unwrap();
/// assert!(sim.delay_cycles > 0.0);
/// # Ok::<(), spotlight_maestro::MappingError>(())
/// ```
pub fn simulate(
    model: &CostModel,
    analytical: &CostReport,
    hw: &spotlight_accel::HardwareConfig,
    sched: &Schedule,
    layer: &ConvLayer,
    max_iterations: u64,
) -> Result<SimReport, SimError> {
    Ok(Walk::new(model, analytical, hw, sched, layer, max_iterations)?.run())
}

/// A simulation set up and ready to walk: the non-degenerate outer loops
/// with the DRAM load of each step, and the pipeline's constants.
#[derive(Clone, Copy)]
struct Walk {
    /// Loops with more than one trip, innermost first; `loops[depth..]`
    /// are [`Loop::DEGENERATE`].
    loops: [Loop; NUM_DIMS],
    depth: usize,
    /// DRAM bytes of the first iteration: weights and inputs (the output
    /// tile starts resident).
    first: f64,
    /// DRAM bytes of the final output tile's write-back.
    last: f64,
    dram_bandwidth: f64,
    array_time_per_tile: f64,
    /// Pipeline fill cycles, as in the analytical model.
    ramp: f64,
    /// Outer iterations: the product of every loop's trips.
    total: u64,
}

/// The pipeline's state after a walk's last outer iteration.
#[derive(Clone, Copy)]
struct Totals {
    array_free: f64,
    dram_bytes: f64,
    stall: f64,
}

impl Walk {
    fn new(
        model: &CostModel,
        analytical: &CostReport,
        hw: &spotlight_accel::HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
        max_iterations: u64,
    ) -> Result<Walk, SimError> {
        let tiles = sched.tiles();

        let rows = hw.pe_rows() as f64;
        let cols = hw.pe_width() as f64;
        let du0 = sched.outer_unroll();
        let du1 = sched.inner_unroll();

        // Outer temporal trip counts: the unrolled dimension advances in
        // waves of `rows`.
        let mut trips = [0u64; NUM_DIMS];
        for (i, t) in trips.iter_mut().enumerate() {
            let d = Dim::from_index(i);
            *t = if d == du0 {
                (tiles.outer_trips(d) as f64 / rows).ceil() as u64
            } else {
                tiles.outer_trips(d)
            };
            *t = (*t).max(1);
        }
        let total: u64 = trips.iter().product();
        if total > max_iterations {
            return Err(SimError::TooLarge {
                required: total,
                cap: max_iterations,
            });
        }

        let rows_used = (tiles.outer_trips(du0) as f64).min(rows);
        let (w1, i1, o1) = tiles.tensor_footprints(TileLevel::Scratchpad, layer);
        let vol = |indexed: bool, fp: u64| fp as f64 * if indexed { rows_used } else { 1.0 };
        let w_vol = vol(du0.indexes_weights(), w1);
        let i_vol = vol(du0.indexes_inputs(), i1);
        let o_vol = vol(du0.indexes_outputs(), o1);

        // Per-outer-iteration array-side work: inner compute + NoC streaming,
        // overlapped (the inner hierarchy is also double buffered).
        let mut inner_t = [0u64; NUM_DIMS];
        for (i, t) in inner_t.iter_mut().enumerate() {
            let d = Dim::from_index(i);
            *t = if d == du1 {
                (tiles.inner_trips(d) as f64 / cols).ceil() as u64
            } else {
                tiles.inner_trips(d)
            };
            *t = (*t).max(1);
        }
        let inner_iters: f64 = inner_t.iter().map(|&t| t as f64).product();
        let rf_cycles = (tiles.rf_tile_macs() as f64 / hw.simd_lanes() as f64).ceil();
        let compute_per_tile = inner_iters * rf_cycles;
        // Per-tile NoC volume, from the analytical model's totals (exact
        // division: the analytical inner-level traffic is uniform per outer
        // iteration).
        let noc_per_tile = (analytical.l2_bytes - analytical.dram_bytes) / (total as f64);
        let noc_cycles_per_tile = noc_per_tile / hw.noc_bandwidth() as f64;
        let array_time_per_tile = compute_per_tile.max(noc_cycles_per_tile);

        // Walk the outer loop nest in the schedule's order. Only loops with
        // more than one trip ever move, so list those from innermost
        // outwards. When a loop increments, every loop inside it wraps to 0,
        // so the tensors that reload are its own plus those of every inner
        // loop; fold that into the loop's DRAM load up front.
        //
        // Output tiles stay resident across non-output loops; when the tile
        // *changes*, the previous one is written back, and if the new one
        // was produced before (reduction loops outside the output loops) its
        // partial sums are read back in. The walk visits counter tuples in
        // lexicographic order, outermost loop first, and the current output
        // tile was visited before exactly when some reduction counter (C, R
        // or S with trips > 1) is non-zero: lowering that counter to 0 gives
        // an earlier point of the walk with the same output coordinates.
        // Conversely, if every reduction counter is 0, an earlier point with
        // the same output coordinates would differ first in some reduction
        // counter, and be smaller there, which is impossible. So a running
        // count of non-zero reduction counters replaces any record of
        // visited tiles.
        let mut loops = [Loop::DEGENERATE; NUM_DIMS];
        let mut depth = 0;
        let (mut w_new, mut i_new, mut o_new) = (false, false, false);
        for &d in sched.outer_order().order().iter().rev() {
            let t = trips[d.index()];
            if t == 1 {
                continue; // degenerate loop: its index never moves
            }
            w_new |= d.indexes_weights();
            i_new |= d.indexes_inputs();
            o_new |= d.indexes_outputs();
            let mut load = 0.0;
            if w_new {
                load += w_vol;
            }
            if i_new {
                load += i_vol;
            }
            let (fresh, revisit) = if o_new {
                // Write-back of the finished previous tile, plus the
                // partial-sum read when the new tile is a revisit.
                (load + o_vol, load + o_vol + o_vol)
            } else {
                (load, load)
            };
            loops[depth] = Loop {
                trips: t,
                reduction: d.is_reduction(),
                fresh,
                revisit,
            };
            depth += 1;
        }

        Ok(Walk {
            loops,
            depth,
            first: w_vol + i_vol,
            last: o_vol,
            dram_bandwidth: model.params().dram_bandwidth,
            array_time_per_tile,
            ramp: rows + cols + rf_cycles,
            total,
        })
    }

    /// Walks the loop nest, in closed form where that is exact, and
    /// finishes the report.
    fn run(&self) -> SimReport {
        let (totals, closed_form) = match self.closed_form() {
            Some(totals) => (totals, true),
            None => (self.step_all(), false),
        };
        let Totals {
            mut array_free,
            mut dram_bytes,
            stall,
        } = totals;

        // Final output tile write-back.
        dram_bytes += self.last;
        array_free += self.last / self.dram_bandwidth;

        SimReport {
            delay_cycles: array_free + self.ramp,
            dram_bytes,
            stall_cycles: stall,
            outer_iterations: self.total,
            closed_form,
        }
    }

    /// Plays every outer iteration through the pipeline, one step each.
    fn step_all(&self) -> Totals {
        let Walk {
            loops,
            depth,
            first,
            dram_bandwidth,
            array_time_per_tile,
            ..
        } = *self;
        let mut pipe = Pipeline {
            dram_bandwidth,
            array_time_per_tile,
            dram_free: 0.0,
            array_free: 0.0,
            dram_bytes: 0.0,
            stall: 0.0,
        };
        pipe.step(first);

        // Counters of loops 1..depth (the innermost loop's counter is implied
        // by the run below) and how many of them are non-zero reduction
        // counters.
        let mut counters = [0u64; NUM_DIMS];
        let mut reductions_nonzero = 0u32;
        let innermost = loops[0];
        'walk: loop {
            // The innermost loop's remaining trips all load the same tiles.
            // Its own counter is non-zero during them, which matters only
            // for a reduction loop, and a reduction loop's increments change
            // no output tile (its `fresh` equals its `revisit`).
            let load = innermost.load(reductions_nonzero > 0);
            for _ in 1..innermost.trips {
                pipe.step(load);
            }
            // Carry into the outer loops.
            let mut j = 1;
            loop {
                if j >= depth {
                    break 'walk;
                }
                let l = loops[j];
                if counters[j] + 1 < l.trips {
                    if l.reduction && counters[j] == 0 {
                        reductions_nonzero += 1;
                    }
                    counters[j] += 1;
                    break;
                }
                // Wraps from trips - 1, which is non-zero.
                if l.reduction {
                    reductions_nonzero -= 1;
                }
                counters[j] = 0;
                j += 1;
            }
            pipe.step(loops[j].load(reductions_nonzero > 0));
        }
        Totals {
            array_free: pipe.array_free,
            dram_bytes: pipe.dram_bytes,
            stall: pipe.stall,
        }
    }

    /// Sums the walk in O(depth), or `None` when some addition of
    /// [`Walk::step_all`] might round.
    ///
    /// Write `l_k` for the load cycles of step `k` (of `n`), `a` for
    /// `array_time_per_tile`, `D_k = l_1 + ... + l_k` for the DRAM
    /// channel's finish time and `X_k` for the array's. [`Pipeline::step`]
    /// sets `X_k = max(D_k, X_{k-1}) + a` from `X_0 = 0`, and `D_1 >= 0`,
    /// so `X_n = max_j (D_j + (n - j + 1) a)`. With `u_k = l_k - a` and
    /// `m` the largest sum of a non-empty prefix of `u`, that is
    /// `X_n = n a + (a + m)`. Each step's stall is
    /// `max(D_k - X_{k-1}, 0) = X_k - X_{k-1} - a`, so the stalls sum to
    /// `X_n - n a = a + m`, and the bytes are the sum of the loads.
    ///
    /// `m` follows from a [`Run`] summary of the step sequence (its sum
    /// and its largest prefix sum), built bottom-up through the loops.
    /// Let `E_j(f)` be the steps of one sweep of loops `0..=j` after their
    /// all-zero point, where `f` says whether some reduction loop outside
    /// `j` has a non-zero counter. A carry into loop `j` lands on a
    /// revisited output tile exactly when `f` holds or `j` is a reduction
    /// loop (its counter is then non-zero; for the innermost loop a
    /// reduction step changes no output tile, so its `fresh` equals its
    /// `revisit`), and the loops inside it then sweep under that flag:
    ///
    /// `E_j(f) = E_{j-1}(f), then (trips_j - 1) times:
    ///           [step of loop j under f or r_j], E_{j-1}(f or r_j)`
    ///
    /// with `E_{-1}` empty, and the whole walk is the first step followed
    /// by `E_{depth-1}(false)`. Two summaries per loop (`f` off and on)
    /// give the whole walk's summary in O(depth).
    ///
    /// The identities hold in exact arithmetic, so the guard asks that
    /// both walks compute exactly. Every load, every `load / bandwidth`
    /// and `a` is a multiple of `2^-k` (read from the f64 bits, one `k`
    /// for bytes and one for cycles), and `(n + 1) (max l + a) 2^k` (bytes:
    /// `(n + 1) (max load) 2^k`) is below `2^52`, which leaves room for the
    /// rounding in computing the bound itself. Every quantity either walk
    /// forms is then a multiple of `2^-k` of magnitude below `2^53 2^-k`:
    /// `D_k`, `X_k`, their differences and the stall sum are bounded by
    /// `X_n <= n (max l + a)`, every sum a summary holds (its sum, its
    /// largest prefix, a multiple of either) adds at most `n` terms no
    /// larger than `max l + a`, and so does `n a + (a + m)`. Such a number
    /// is an f64, so no operation rounds, both walks compute the exact
    /// values, and their results agree bit for bit.
    fn closed_form(&self) -> Option<Totals> {
        self.exact().then(|| self.summed())
    }

    /// The guard of [`Walk::closed_form`]: whether no addition of either
    /// walk can round.
    fn exact(&self) -> bool {
        let a = self.array_time_per_tile;
        let bw = self.dram_bandwidth;
        let loads = std::iter::once(self.first).chain(
            self.loops[..self.depth]
                .iter()
                .flat_map(|l| [l.fresh, l.revisit]),
        );
        let Some(mut cycle_bits) = fraction_bits(a) else {
            return false;
        };
        let (mut byte_bits, mut max_load, mut max_cycles) = (0, 0.0f64, 0.0f64);
        for load in loads {
            let cycles = load / bw;
            let (Some(load_bits), Some(cycles_bits)) = (fraction_bits(load), fraction_bits(cycles))
            else {
                return false;
            };
            byte_bits = byte_bits.max(load_bits);
            cycle_bits = cycle_bits.max(cycles_bits);
            max_load = max_load.max(load);
            max_cycles = max_cycles.max(cycles);
        }
        let steps = self.total as f64 + 1.0;
        exact_below(steps * max_load, byte_bits)
            && exact_below(steps * (max_cycles + a), cycle_bits)
    }

    /// The closed-form sums of [`Walk::closed_form`], unguarded.
    fn summed(&self) -> Totals {
        let a = self.array_time_per_tile;
        let bw = self.dram_bandwidth;
        // sweeps[f]: E_{j-1}(f) below loop j; `None` while j = 0.
        let mut sweeps: Option<[Run; 2]> = None;
        for l in &self.loops[..self.depth] {
            let sweep = |outer: bool| {
                let revisited = outer || l.reduction;
                let mut body = Run::step(l.load(revisited), bw, a);
                if let Some(inner) = sweeps {
                    body = body.then(inner[usize::from(revisited)]);
                }
                let tail = body.repeat(l.trips - 1);
                match sweeps {
                    Some(inner) => inner[usize::from(outer)].then(tail),
                    None => tail,
                }
            };
            sweeps = Some([sweep(false), sweep(true)]);
        }
        let mut walk = Run::step(self.first, bw, a);
        if let Some([outer_off, _]) = sweeps {
            walk = walk.then(outer_off);
        }
        let stall = a + walk.peak;
        Totals {
            array_free: self.total as f64 * a + stall,
            dram_bytes: walk.bytes,
            stall,
        }
    }
}

/// The least `k >= 0` with `v * 2^k` an integer, read from the bits of
/// `v`; `None` unless `v` is finite and non-negative.
fn fraction_bits(v: f64) -> Option<u32> {
    if !(v.is_finite() && v >= 0.0) {
        return None;
    }
    if v == 0.0 {
        return Some(0);
    }
    let bits = v.to_bits();
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // v = mantissa * 2^exp, with the implicit leading bit for normals.
    let (mantissa, exp) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let exp = exp + mantissa.trailing_zeros() as i32;
    Some(exp.min(0).unsigned_abs())
}

/// Whether every multiple of `2^-bits` up to `span` in magnitude is an
/// f64, with a factor of two to spare for the rounding in `span`.
fn exact_below(span: f64, bits: u32) -> bool {
    bits <= 52 && span < (1u64 << (52 - bits)) as f64
}

/// A summary of a run of pipeline steps: what [`Walk::closed_form`]
/// composes.
#[derive(Clone, Copy)]
struct Run {
    /// Sum over the steps of `load / bandwidth - array_time_per_tile`.
    rise: f64,
    /// The largest sum of a non-empty prefix of those terms.
    peak: f64,
    /// Sum of the steps' DRAM loads.
    bytes: f64,
}

impl Run {
    /// One step loading `load` bytes.
    fn step(load: f64, dram_bandwidth: f64, array_time_per_tile: f64) -> Run {
        let rise = load / dram_bandwidth - array_time_per_tile;
        Run {
            rise,
            peak: rise,
            bytes: load,
        }
    }

    /// This run followed by `next`.
    fn then(self, next: Run) -> Run {
        Run {
            rise: self.rise + next.rise,
            peak: self.peak.max(self.rise + next.peak),
            bytes: self.bytes + next.bytes,
        }
    }

    /// This run `times >= 1` times over: the largest prefix ends in the
    /// first copy or the last, as the copies' offsets grow linearly.
    fn repeat(self, times: u64) -> Run {
        let t = times as f64;
        Run {
            rise: t * self.rise,
            peak: self.peak + ((t - 1.0) * self.rise).max(0.0),
            bytes: t * self.bytes,
        }
    }
}

/// One non-degenerate outer loop, as [`Walk`] walks it.
#[derive(Clone, Copy)]
struct Loop {
    trips: u64,
    /// Whether the loop is a reduction loop (C, R or S).
    reduction: bool,
    /// DRAM bytes loaded when this loop increments onto an output tile
    /// not produced before.
    fresh: f64,
    /// DRAM bytes loaded when this loop increments onto a revisited
    /// output tile (equal to `fresh` when no output tile changes).
    revisit: f64,
}

impl Loop {
    /// Placeholder for an absent loop: one trip, so it never moves.
    const DEGENERATE: Loop = Loop {
        trips: 1,
        reduction: false,
        fresh: 0.0,
        revisit: 0.0,
    };

    /// DRAM bytes loaded when this loop increments, given whether the
    /// output tile it lands on was produced before.
    #[inline(always)]
    fn load(&self, revisited: bool) -> f64 {
        if revisited {
            self.revisit
        } else {
            self.fresh
        }
    }
}

/// The two-stage double-buffered pipeline: a DRAM channel in front of
/// the PE array.
struct Pipeline {
    dram_bandwidth: f64,
    array_time_per_tile: f64,
    dram_free: f64,
    array_free: f64,
    dram_bytes: f64,
    stall: f64,
}

impl Pipeline {
    /// Plays one outer iteration that loads `load` bytes from DRAM.
    #[inline(always)]
    fn step(&mut self, load: f64) {
        self.dram_bytes += load;
        let load_cycles = load / self.dram_bandwidth;
        let dram_done = self.dram_free + load_cycles;
        self.dram_free = dram_done;
        // `start = max(dram_done, array_free)` and
        // `stall += max(dram_done - array_free, 0)` as one branch, which
        // predicts well and keeps a `max` off the loop-carried chain. Bit
        // for bit the same: the untaken side would add `+0.0` to a stall
        // that starts at `+0.0` and only grows.
        if dram_done > self.array_free {
            self.stall += dram_done - self.array_free;
            self.array_free = dram_done + self.array_time_per_tile;
        } else {
            self.array_free += self.array_time_per_tile;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelParams;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spotlight_accel::{Baseline, HardwareConfig};
    use spotlight_conv::DIMS;
    use spotlight_space::dataflows::dataflow_schedule;
    use spotlight_space::sample;

    /// The walker as it was before the change masks and the closed-form
    /// revisit rule, kept verbatim as the differential oracle: it tests
    /// every dimension of every step and records visited output tiles in
    /// a set.
    fn reference_simulate(
        model: &CostModel,
        analytical: &CostReport,
        hw: &spotlight_accel::HardwareConfig,
        sched: &Schedule,
        layer: &ConvLayer,
        max_iterations: u64,
    ) -> Result<SimReport, SimError> {
        let params = model.params();
        let tiles = sched.tiles();

        let rows = hw.pe_rows() as f64;
        let cols = hw.pe_width() as f64;
        let du0 = sched.outer_unroll();
        let du1 = sched.inner_unroll();

        // Outer temporal trip counts: the unrolled dimension advances in
        // waves of `rows`.
        let mut trips = [0u64; NUM_DIMS];
        for (i, t) in trips.iter_mut().enumerate() {
            let d = Dim::from_index(i);
            *t = if d == du0 {
                (tiles.outer_trips(d) as f64 / rows).ceil() as u64
            } else {
                tiles.outer_trips(d)
            };
            *t = (*t).max(1);
        }
        let total: u64 = trips.iter().product();
        if total > max_iterations {
            return Err(SimError::TooLarge {
                required: total,
                cap: max_iterations,
            });
        }

        let rows_used = (tiles.outer_trips(du0) as f64).min(rows);
        let (w1, i1, o1) = tiles.tensor_footprints(TileLevel::Scratchpad, layer);
        let vol = |indexed: bool, fp: u64| fp as f64 * if indexed { rows_used } else { 1.0 };
        let w_vol = vol(du0.indexes_weights(), w1);
        let i_vol = vol(du0.indexes_inputs(), i1);
        let o_vol = vol(du0.indexes_outputs(), o1);

        // Per-outer-iteration array-side work: inner compute + NoC streaming,
        // overlapped (the inner hierarchy is also double buffered).
        let mut inner_t = [0u64; NUM_DIMS];
        for (i, t) in inner_t.iter_mut().enumerate() {
            let d = Dim::from_index(i);
            *t = if d == du1 {
                (tiles.inner_trips(d) as f64 / cols).ceil() as u64
            } else {
                tiles.inner_trips(d)
            };
            *t = (*t).max(1);
        }
        let inner_iters: f64 = inner_t.iter().map(|&t| t as f64).product();
        let rf_cycles = (tiles.rf_tile_macs() as f64 / hw.simd_lanes() as f64).ceil();
        let compute_per_tile = inner_iters * rf_cycles;
        // Per-tile NoC volume, from the analytical model's totals (exact
        // division: the analytical inner-level traffic is uniform per outer
        // iteration).
        let noc_per_tile = (analytical.l2_bytes - analytical.dram_bytes) / (total as f64);
        let noc_cycles_per_tile = noc_per_tile / hw.noc_bandwidth() as f64;
        let array_time_per_tile = compute_per_tile.max(noc_cycles_per_tile);

        // Walk the outer loop nest in the schedule's order, tracking which
        // tensors' tiles change each step.
        let order = sched.outer_order().order();
        let mut counters = [0u64; NUM_DIMS];
        let mut dram_free = 0.0f64;
        let mut array_free = 0.0f64;
        let mut dram_bytes = 0.0f64;
        let mut stall = 0.0f64;
        // Output tiles already produced at least once: re-entering one costs
        // a partial-sum read (the tile was evicted in between).
        let mut seen_outputs: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let output_id = |counters: &[u64; NUM_DIMS]| -> u64 {
            let mut id = 0u64;
            for i in 0..NUM_DIMS {
                if Dim::from_index(i).indexes_outputs() {
                    id = id * (trips[i] + 1) + counters[i];
                }
            }
            id
        };
        let mut live_output = output_id(&counters);
        seen_outputs.insert(live_output);

        for step in 0..total {
            // Which tensors changed? On the first iteration, everything loads.
            let (w_new, i_new, o_new) = if step == 0 {
                (true, true, true)
            } else {
                // Advance the odometer (innermost loop first) and record which
                // dims changed: the incremented one plus all that wrapped.
                let mut changed = [false; NUM_DIMS];
                for &d in order.iter().rev() {
                    let i = d.index();
                    if trips[i] == 1 {
                        continue; // degenerate loop: its index never moves
                    }
                    counters[i] += 1;
                    if counters[i] < trips[i] {
                        changed[i] = true;
                        break;
                    }
                    counters[i] = 0;
                    changed[i] = true;
                }
                let touches =
                    |f: fn(Dim) -> bool| (0..NUM_DIMS).any(|i| changed[i] && f(Dim::from_index(i)));
                (
                    touches(Dim::indexes_weights),
                    touches(Dim::indexes_inputs),
                    touches(Dim::indexes_outputs),
                )
            };

            // DRAM traffic for this tile: fetch the tensors whose tiles
            // changed. Output tiles stay resident across non-output loops;
            // when the tile *changes*, the previous one is written back, and
            // if the new one was produced before (reduction loops outside the
            // output loops) its partial sums are read back in.
            let mut load = 0.0;
            if w_new {
                load += w_vol;
            }
            if i_new {
                load += i_vol;
            }
            if o_new && step > 0 {
                load += o_vol; // write-back of the finished previous tile
                let id = output_id(&counters);
                if !seen_outputs.insert(id) {
                    load += o_vol; // partial-sum read of a revisited tile
                }
                live_output = id;
            }
            let _ = live_output;
            dram_bytes += load;

            // Two-stage double-buffered pipeline.
            let load_cycles = load / params.dram_bandwidth;
            let dram_done = dram_free + load_cycles;
            dram_free = dram_done;
            let start = dram_done.max(array_free);
            stall += (dram_done - array_free).max(0.0);
            array_free = start + array_time_per_tile;
        }
        // Final output tile write-back.
        dram_bytes += o_vol;
        array_free += o_vol / params.dram_bandwidth;

        // Pipeline fill, as in the analytical model.
        let ramp = rows + cols + rf_cycles;

        Ok(SimReport {
            delay_cycles: array_free + ramp,
            dram_bytes,
            stall_cycles: stall,
            outer_iterations: total,
            closed_form: false,
        })
    }

    /// [`simulate`] under the default model, as a backend calls it: `None`
    /// when the analytical model finds the mapping infeasible.
    fn simulate_default(
        hw: &HardwareConfig,
        s: &Schedule,
        l: &ConvLayer,
        cap: u64,
    ) -> Option<Result<SimReport, SimError>> {
        let model = CostModel::default();
        let analytical = model.evaluate(hw, s, l).ok()?;
        Some(simulate(&model, &analytical, hw, s, l, cap))
    }

    fn hw() -> HardwareConfig {
        Baseline::NvdlaLike.edge_config()
    }

    fn layer() -> ConvLayer {
        ConvLayer::new(1, 32, 16, 3, 3, 14, 14)
    }

    fn nvdla_sched(l: &ConvLayer) -> Schedule {
        dataflow_schedule(Baseline::NvdlaLike.dataflow(), l, &hw())
    }

    #[test]
    fn simulated_delay_at_least_compute_bound() {
        let l = layer();
        let s = nvdla_sched(&l);
        let sim = simulate_default(&hw(), &s, &l, 1 << 20).unwrap().unwrap();
        let analytical = CostModel::default().evaluate(&hw(), &s, &l).unwrap();
        assert!(sim.delay_cycles >= analytical.compute_cycles * 0.999);
    }

    #[test]
    fn simulated_and_analytical_delay_agree_within_factor() {
        // The two formulations share no delay code; they must agree to
        // within a small constant factor on feasible random points.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let l = layer();
        let model = CostModel::default();
        let mut checked = 0;
        while checked < 60 {
            let s = sample::sample_schedule(&mut rng, &l);
            let Ok(a) = model.evaluate(&hw(), &s, &l) else {
                continue;
            };
            let Ok(sim) = simulate(&model, &a, &hw(), &s, &l, 1 << 22) else {
                continue;
            };
            let ratio = sim.delay_cycles / a.delay_cycles;
            assert!(
                (0.3..4.0).contains(&ratio),
                "delay mismatch: sim {} vs analytical {} ({s})",
                sim.delay_cycles,
                a.delay_cycles
            );
            checked += 1;
        }
    }

    #[test]
    fn simulated_dram_close_to_analytical_formula() {
        // Exact per-iteration accounting vs the closed-form reuse
        // formula: they should agree closely when trips divide evenly.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let l = layer();
        let model = CostModel::default();
        let mut checked = 0;
        while checked < 60 {
            let s = sample::sample_schedule(&mut rng, &l);
            let Ok(a) = model.evaluate(&hw(), &s, &l) else {
                continue;
            };
            let Ok(sim) = simulate(&model, &a, &hw(), &s, &l, 1 << 22) else {
                continue;
            };
            let ratio = sim.dram_bytes / a.dram_bytes;
            assert!(
                (0.4..2.5).contains(&ratio),
                "dram mismatch: sim {} vs analytical {} ({s})",
                sim.dram_bytes,
                a.dram_bytes
            );
            checked += 1;
        }
    }

    #[test]
    fn whole_layer_resident_loads_each_tensor_once() {
        // One outer iteration: weights + inputs loaded once, outputs
        // written once.
        let l = ConvLayer::new(1, 4, 4, 3, 3, 4, 4);
        let hw = HardwareConfig::new(128, 16, 2, 256, 256, 128).unwrap();
        let tiles =
            spotlight_space::TileSizes::new(&l, l.extents(), [1, 1, 1, 1, 1, 1, 1]).unwrap();
        let s = Schedule::new(
            tiles,
            spotlight_conv::LoopPermutation::canonical(),
            spotlight_conv::LoopPermutation::canonical(),
            Dim::K,
            Dim::C,
        );
        let sim = simulate_default(&hw, &s, &l, 1024).unwrap().unwrap();
        assert_eq!(sim.outer_iterations, 1);
        let (w, i, o) = tiles.tensor_footprints(TileLevel::Scratchpad, &l);
        // K unrolled outer: trips=1 so rows_used=1; everything loaded
        // once, output written back once at the end.
        assert_eq!(sim.dram_bytes, (w + i + o) as f64);
        // The array waits for the one load and for nothing else.
        let bw = ModelParams::default().dram_bandwidth;
        assert_eq!(sim.stall_cycles, (w + i) as f64 / bw);
        // With every loop degenerate, the loop order cannot matter.
        for rank in [1, 777, 5039] {
            let order = spotlight_conv::LoopPermutation::from_lehmer(rank);
            let permuted = Schedule::new(tiles, order, order, Dim::K, Dim::C);
            assert_eq!(
                simulate_default(&hw, &permuted, &l, 1).unwrap().unwrap(),
                sim
            );
        }
    }

    /// A layer where only K (4) and C (3) have extent above one, tiled so
    /// that K takes 2 outer trips and C takes 3, under `outer` (an order
    /// from outermost to innermost).
    fn k_and_c_only(outer: [Dim; NUM_DIMS]) -> (SimReport, f64, f64, f64) {
        let l = ConvLayer::new(1, 4, 3, 1, 1, 1, 1);
        let hw = HardwareConfig::new(128, 16, 2, 256, 256, 128).unwrap();
        let tiles =
            spotlight_space::TileSizes::new(&l, [1, 2, 1, 1, 1, 1, 1], [1; NUM_DIMS]).unwrap();
        let order = spotlight_conv::LoopPermutation::new(outer).unwrap();
        // N is unrolled outer: it has one trip, so tiles are not scaled
        // by the array rows.
        let s = Schedule::new(tiles, order, order, Dim::N, Dim::C);
        let sim = simulate_default(&hw, &s, &l, 64).unwrap().unwrap();
        assert_eq!(sim.outer_iterations, 6);
        let (w, i, o) = tiles.tensor_footprints(TileLevel::Scratchpad, &l);
        (sim, w as f64, i as f64, o as f64)
    }

    #[test]
    fn reduction_loop_outside_output_loop_rereads_partial_sums() {
        use Dim::*;
        let (sim, w, i, o) = k_and_c_only([C, K, N, R, S, X, Y]);
        // Walk (c, k): (0,0) (0,1) (1,0) (1,1) (2,0) (2,1).
        let first = w + i; // (0,0): weights and inputs, output resident
        let k_fresh = w + o; // (0,1): new weights, write back (0,0)
        let c_step = w + i + o + o; // (c,0): everything, plus the re-read
        let k_revisit = w + o + o; // (c,1), c > 0: tile seen at c = 0
        let last = o; // final write-back
        let by_hand = first + k_fresh + 2.0 * c_step + 2.0 * k_revisit + last;
        assert_eq!(sim.dram_bytes, by_hand);
        // Footprints of 2, 1 and 2 bytes. The 35 bytes include four
        // partial-sum re-reads of 2 bytes each: every step after the
        // first C step re-enters a tile produced at c = 0.
        assert_eq!((w, i, o), (2.0, 1.0, 2.0));
        assert_eq!(sim.dram_bytes, 35.0);
    }

    #[test]
    fn output_loop_outside_reduction_loop_never_rereads() {
        use Dim::*;
        let (sim, w, i, o) = k_and_c_only([K, C, N, R, S, X, Y]);
        // Walk (k, c): (0,0) (0,1) (0,2) (1,0) (1,1) (1,2).
        let first = w + i;
        let c_step = w + i; // a new C slice leaves the output tile alone
        let k_step = w + i + o; // write back (0,*), never re-read
        let last = o;
        let by_hand = first + 4.0 * c_step + k_step + last;
        assert_eq!(sim.dram_bytes, by_hand);
        assert_eq!(sim.dram_bytes, 22.0);
        // Both output tiles are written exactly once.
        assert_eq!(sim.dram_bytes, 6.0 * (w + i) + 2.0 * o);
    }

    #[test]
    fn iteration_cap_enforced() {
        let l = ConvLayer::new(1, 64, 64, 3, 3, 28, 28);
        let s = Schedule::trivial(&l); // unit tiles: enormous outer nest
        let err = simulate_default(&hw(), &s, &l, 100).unwrap().unwrap_err();
        assert!(matches!(err, SimError::TooLarge { .. }));
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn stalls_appear_when_dram_starved() {
        // Tiny DRAM bandwidth relative to compute: the pipeline must
        // record stalls. We emulate by a schedule with huge DRAM traffic
        // (output-revisiting order) and check stall > 0.
        let l = layer();
        let s = nvdla_sched(&l);
        let sim = simulate_default(&hw(), &s, &l, 1 << 20).unwrap().unwrap();
        assert!(sim.stall_cycles >= 0.0);
        assert!(sim.delay_cycles > sim.stall_cycles);
    }

    #[test]
    fn deterministic() {
        let l = layer();
        let s = nvdla_sched(&l);
        assert_eq!(
            simulate_default(&hw(), &s, &l, 1 << 20).unwrap().unwrap(),
            simulate_default(&hw(), &s, &l, 1 << 20).unwrap().unwrap()
        );
    }

    /// The unique layers of ResNet-50, MobileNetV2 and Transformer.
    fn zoo_layers() -> Vec<ConvLayer> {
        let mut layers = Vec::new();
        for model in [
            spotlight_models::resnet50(),
            spotlight_models::mobilenet_v2(),
            spotlight_models::transformer(),
        ] {
            layers.extend(model.layers().iter().map(|e| e.layer));
        }
        layers
    }

    /// Sets the L2 tile of every dimension in `dims` to the full extent,
    /// so its outer loop has one trip.
    fn force_degenerate(s: &Schedule, l: &ConvLayer, dims: &[Dim]) -> Schedule {
        let t = s.tiles();
        let mut l2 = DIMS.map(|d| t.l2(d));
        for d in dims {
            l2[d.index()] = l.extent(*d);
        }
        let rf = DIMS.map(|d| t.rf(d));
        s.with_tiles(spotlight_space::TileSizes::new(l, l2, rf).expect("rf | l2 | extent"))
    }

    /// Unrolls (outer) a dimension whose outer trips are not a multiple
    /// of the array rows, re-tiling it to the fewest trips above `rows`
    /// so the last wave is partial (else to the most trips below
    /// `rows`); `None` when no tiling of any dimension qualifies.
    fn ragged_unroll(s: &Schedule, l: &ConvLayer, rows: u64) -> Option<Schedule> {
        let (d, tile) = DIMS
            .into_iter()
            .flat_map(|d| {
                spotlight_conv::factor::divisors(l.extent(d))
                    .into_iter()
                    .map(move |tile| (d, tile))
            })
            .filter(|&(d, tile)| !(l.extent(d) / tile).is_multiple_of(rows))
            .min_by_key(|&(d, tile)| {
                let trips = l.extent(d) / tile;
                (trips < rows, trips.abs_diff(rows))
            })?;
        let t = s.tiles();
        let mut l2 = DIMS.map(|e| t.l2(e));
        let mut rf = DIMS.map(|e| t.rf(e));
        l2[d.index()] = tile;
        rf[d.index()] = 1;
        let tiles = spotlight_space::TileSizes::new(l, l2, rf).expect("1 | tile | extent");
        Some(Schedule::new(
            tiles,
            *s.outer_order(),
            *s.inner_order(),
            d,
            s.inner_unroll(),
        ))
    }

    /// Runs both walkers at `cap` on the default model's report and
    /// requires the same outcome: every report field equal to the bit,
    /// or the same error. An infeasible mapping reaches neither walker.
    fn assert_walkers_agree(
        hw: &HardwareConfig,
        s: &Schedule,
        l: &ConvLayer,
        cap: u64,
    ) -> Result<Option<SimReport>, String> {
        let model = CostModel::default();
        let Ok(analytical) = model.evaluate(hw, s, l) else {
            return Ok(None);
        };
        let fast = simulate(&model, &analytical, hw, s, l, cap);
        let slow = reference_simulate(&model, &analytical, hw, s, l, cap);
        match (fast, slow) {
            (Ok(a), Ok(b)) => {
                let bits = |r: SimReport| {
                    (
                        r.delay_cycles.to_bits(),
                        r.dram_bytes.to_bits(),
                        r.stall_cycles.to_bits(),
                        r.outer_iterations,
                    )
                };
                prop_assert_eq!(bits(a), bits(b), "{} on {} at cap {}", s, l, cap);
                Ok(Some(a))
            }
            (a, b) => {
                prop_assert_eq!(a, b, "{} on {} at cap {}", s, l, cap);
                Ok(None)
            }
        }
    }

    /// Cap for the differential test: small enough for the reference
    /// walker's set to stay fast in debug builds.
    const DIFF_CAP: u64 = 1 << 16;

    /// One differential case: draws hardware and a schedule from `seed`,
    /// shapes the schedule by `variant`, and compares the walkers at
    /// [`DIFF_CAP`] and, when the walk fits, at caps `total - 1` and
    /// `total`. Returns whether some call walked to completion.
    fn differential_case(layers: &[ConvLayer], seed: u64, variant: u8) -> Result<bool, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let l = layers[(seed % layers.len() as u64) as usize];
        let ranges = if seed.is_multiple_of(2) {
            spotlight_space::ParamRanges::edge()
        } else {
            spotlight_space::ParamRanges::cloud()
        };
        let hw = sample::sample_hw(&mut rng, &ranges);
        let drawn = if variant.is_multiple_of(2) {
            sample::sample_schedule(&mut rng, &l)
        } else {
            sample::sample_feasible_schedule(&mut rng, &l, hw.rf_bytes_per_pe(), hw.l2_bytes(), 64)
        };
        let s = match variant / 2 {
            0 => drawn,
            1 => {
                // Force a random subset of dimensions to one trip.
                let dims: Vec<Dim> = DIMS.into_iter().filter(|_| rng.gen_bool(0.4)).collect();
                force_degenerate(&drawn, &l, &dims)
            }
            _ => match ragged_unroll(&drawn, &l, u64::from(hw.pe_rows())) {
                Some(s) => s,
                None => drawn,
            },
        };
        let mut walked = assert_walkers_agree(&hw, &s, &l, DIFF_CAP)?.is_some();
        if let Some(Err(SimError::TooLarge { required, .. })) = simulate_default(&hw, &s, &l, 0) {
            if required <= DIFF_CAP {
                prop_assert!(assert_walkers_agree(&hw, &s, &l, required - 1)?.is_none());
                walked |= assert_walkers_agree(&hw, &s, &l, required)?.is_some();
            }
        }
        Ok(walked)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The allocation-free walker reproduces the reference walker bit
        /// for bit on zoo layers, edge and cloud hardware, uniform and
        /// feasible schedules, forced degenerate loops and ragged unrolls.
        #[test]
        fn walk_matches_reference_walker(seed in 0u64..1_000_000, variant in 0u8..6) {
            differential_case(&zoo_layers(), seed, variant)?;
        }
    }

    #[test]
    fn differential_cases_reach_the_walk() {
        // Guards the property above against vacuity: a fixed batch of its
        // cases must include walks that ran to completion.
        let layers = zoo_layers();
        let mut walked = 0;
        for seed in 0..48 {
            for variant in 0..6 {
                if differential_case(&layers, seed, variant).unwrap() {
                    walked += 1;
                }
            }
        }
        assert!(walked >= 48, "only {walked} of 288 cases completed a walk");
    }

    /// The simulation cap the eval crate's `SimBackend` uses by default.
    const PRODUCTION_CAP: u64 = 1 << 20;

    /// Draws a zoo layer, edge or cloud hardware, and a uniform or a
    /// feasible schedule from `seed`, and sets up its walk at
    /// [`PRODUCTION_CAP`]; `None` when the point is infeasible or too
    /// large.
    fn production_walk(layers: &[ConvLayer], seed: u64) -> Option<Walk> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let l = layers[rng.gen_range(0..layers.len())];
        let ranges = if rng.gen_bool(0.5) {
            spotlight_space::ParamRanges::edge()
        } else {
            spotlight_space::ParamRanges::cloud()
        };
        let hw = sample::sample_hw(&mut rng, &ranges);
        let s = if rng.gen_bool(0.5) {
            sample::sample_schedule(&mut rng, &l)
        } else {
            sample::sample_feasible_schedule(&mut rng, &l, hw.rf_bytes_per_pe(), hw.l2_bytes(), 64)
        };
        let model = CostModel::default();
        let analytical = model.evaluate(&hw, &s, &l).ok()?;
        Walk::new(&model, &analytical, &hw, &s, &l, PRODUCTION_CAP).ok()
    }

    fn totals_bits(t: Totals) -> [u64; 3] {
        [t.array_free, t.dram_bytes, t.stall].map(f64::to_bits)
    }

    #[test]
    fn closed_form_matches_the_step_walk_at_the_production_cap() {
        // Every walk the closed form accepts must sum to the step walk's
        // totals bit for bit. The guard keeps the property from passing
        // vacuously: the cases must include many walks on each path, and
        // closed-form walks longer than the reference walker's cap.
        let layers = zoo_layers();
        let (mut closed, mut stepped, mut long) = (0, 0, 0);
        for seed in 0..1200 {
            let Some(walk) = production_walk(&layers, seed) else {
                continue;
            };
            let stepwise = walk.step_all();
            match walk.closed_form() {
                Some(summed) => {
                    assert_eq!(
                        totals_bits(summed),
                        totals_bits(stepwise),
                        "seed {seed}: {} iterations",
                        walk.total
                    );
                    closed += 1;
                    if walk.total > DIFF_CAP {
                        long += 1;
                    }
                }
                None => stepped += 1,
            }
            assert_eq!(walk.run().closed_form, walk.exact(), "seed {seed}");
        }
        assert!(
            closed >= 800 && stepped >= 40 && long >= 80,
            "{closed} closed-form walks ({long} over {DIFF_CAP} iterations), {stepped} stepped"
        );
    }

    /// A hand-built walk over an output loop K of 4 trips inside a
    /// reduction loop C of 3 trips (footprints `w`, `i` and `o` bytes),
    /// with `a` cycles of array work per tile.
    fn hand_walk(w: f64, i: f64, o: f64, a: f64) -> Walk {
        let mut loops = [Loop::DEGENERATE; NUM_DIMS];
        loops[0] = Loop {
            trips: 4,
            reduction: false,
            fresh: w + o,
            revisit: w + o + o,
        };
        loops[1] = Loop {
            trips: 3,
            reduction: true,
            fresh: w + i + o,
            revisit: w + i + o + o,
        };
        Walk {
            loops,
            depth: 2,
            first: w + i,
            last: o,
            dram_bandwidth: ModelParams::default().dram_bandwidth,
            array_time_per_tile: a,
            ramp: 0.0,
            total: 12,
        }
    }

    /// Requires `walk` to refuse the closed form and `simulate`'s path to
    /// report the step walk's totals.
    fn assert_steps(walk: &Walk) {
        assert!(walk.closed_form().is_none());
        let report = walk.run();
        assert!(!report.closed_form);
        let stepped = walk.step_all();
        assert_eq!(report.stall_cycles.to_bits(), stepped.stall.to_bits());
        assert_eq!(
            report.dram_bytes.to_bits(),
            (stepped.dram_bytes + walk.last).to_bits()
        );
    }

    #[test]
    fn off_grid_array_time_takes_the_step_walk() {
        // A NoC-bound tile: 1000 bytes over a 3-byte NoC is no multiple of
        // any power of two.
        let walk = hand_walk(64.0, 32.0, 16.0, 1000.0 / 3.0);
        assert_steps(&walk);
        // The same walk with a whole number of cycles per tile is exact.
        let on_grid = Walk {
            array_time_per_tile: 333.0,
            ..walk
        };
        let summed = on_grid
            .closed_form()
            .expect("on-grid walk sums in closed form");
        assert_eq!(totals_bits(summed), totals_bits(on_grid.step_all()));
    }

    #[test]
    fn walks_past_the_exact_range_take_the_step_walk() {
        // On the grid (half cycles, whole bytes), but loads of 2^56 bytes
        // take 2^51 cycles each, so 13 of them pass 2^52 bytes and cycles.
        let big = (1u64 << 56) as f64;
        let bytes = hand_walk(big, big, big, 0.5);
        assert_steps(&bytes);
        // Small loads, but 2^50 and a half cycles of array work per tile.
        let cycles = hand_walk(64.0, 32.0, 16.0, (1u64 << 50) as f64 + 0.5);
        assert_steps(&cycles);
        // Past the exact range, the unguarded sums round differently from
        // the step walk: the guard is what makes the two agree.
        assert_ne!(totals_bits(cycles.summed()), totals_bits(cycles.step_all()));
        // Scaled back into range, both walks take the closed form.
        for walk in [
            hand_walk(64.0, 64.0, 64.0, 0.5),
            hand_walk(64.0, 32.0, 16.0, 1024.5),
        ] {
            let summed = walk
                .closed_form()
                .expect("in-range walk sums in closed form");
            assert_eq!(totals_bits(summed), totals_bits(walk.step_all()));
        }
    }
}
