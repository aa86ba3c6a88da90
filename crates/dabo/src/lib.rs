#![warn(missing_docs)]

//! daBO: domain-aware Bayesian optimization (Section V).
//!
//! daBO is a Bayesian-optimization framework whose surrogate model is
//! trained on a *feature space* — an arbitrary, expert-provided
//! transformation of the parameter space — instead of on the raw
//! parameters. The feature space is where domain information enters the
//! search: categorical parameters are folded into features with
//! appreciable (ideally linear) trends, so a cheap linear-kernel surrogate
//! can rank candidates usefully after very few samples.
//!
//! The pieces:
//!
//! - [`FeatureMap`]: the transformation `T : P -> F` of Section IV-B,
//! - [`Dabo`]: the optimizer — random candidate generation in parameter
//!   space, surrogate prediction in feature space, Lower-Confidence-Bound
//!   acquisition (Section V-B),
//! - [`Search`]: the minimal ask/tell interface shared with every baseline
//!   search algorithm (random, GA, ConfuciuX-like, ...), so the ablation
//!   of Section VII-E swaps algorithms without touching the driver,
//! - [`run_minimization`]: the shared evaluation loop producing
//!   convergence traces (Figure 10) and per-sample histories (Figure 11).
//!
//! # Examples
//!
//! Minimize a quadratic over a "parameter space" of `f64`s, with the
//! identity feature:
//!
//! ```
//! use rand::{Rng, SeedableRng};
//! use spotlight_dabo::{Dabo, DaboConfig, FnFeatureMap, Search};
//!
//! let fm = FnFeatureMap::new(1, |x: &f64| vec![*x]);
//! let mut opt = Dabo::new(DaboConfig::default(), fm, |rng: &mut dyn rand::RngCore| {
//!     rand::Rng::gen_range(rng, -10.0..10.0)
//! });
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! for _ in 0..60 {
//!     let x = opt.suggest(&mut rng);
//!     let cost = (x - 3.0) * (x - 3.0) + 1.0;
//!     opt.observe(x, cost);
//! }
//! let (best_x, best_cost) = opt.best().expect("observed at least one point");
//! assert!(best_cost < 3.0, "best {best_x} -> {best_cost}");
//! ```

pub mod acquisition;
mod dedup;
pub mod features;
pub mod optimizer;
pub mod search;
pub mod suffstats;

pub use acquisition::{argmax_ei, argmin_lcb, expected_improvement, lower_confidence_bound};
pub use features::{FeatureMap, FnFeatureMap, Standardizer};
pub use optimizer::{Acquisition, Dabo, DaboConfig, SurrogateKind};
pub use search::{
    run_minimization, CrossoverOp, MutateOp, Sampler, Search, SurrogateTimers, Trace,
};
pub use suffstats::{PosteriorSystem, SuffStats};
