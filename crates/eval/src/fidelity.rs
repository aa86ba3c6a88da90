//! Multi-fidelity evaluation policy (Polaris direction).
//!
//! A [`FidelitySpec`] describes a successive-halving ladder of
//! evaluation fidelities: most candidates are measured cheaply on a low
//! rung, and only the ones whose cheap cost ranks in the top
//! `1/eta`-fraction of their rung's history are promoted toward the
//! full-fidelity rung. Three cheapening modes ship:
//!
//! * [`FidelityMode::Proxy`] — evaluate a reduced layer subset exactly
//!   and extrapolate the full cost by MAC-weight. The per-triple
//!   backend calls are exact, so they are tagged [`Fidelity::Full`] and
//!   their results are reusable when the candidate is promoted.
//! * [`FidelityMode::Replicate`] — measure with a reduced replicate
//!   count. Cheap reports are noisier; they are tagged
//!   [`Fidelity::Rung`] so they never alias with full-fidelity cache
//!   entries, and their dispersion is inflated by the rung's calibrated
//!   variance before it reaches the heteroscedastic surrogate.
//! * [`FidelityMode::Backend`] — dispatch cheap rungs to a coarser cost
//!   backend entirely (e.g. `timeloop` as a proxy for `maestro`).
//!   Tagged and inflated like `Replicate`.
//!
//! Every quantity here is a pure function of the spec, so promotion
//! ladders are identical at any thread count and across resumes.

use std::fmt;
use std::str::FromStr;

use spotlight_obs::seeded::{Grammar, PlanError};

use crate::BACKEND_NAMES;

const GRAMMAR: Grammar = Grammar {
    plan: "fidelity spec",
    example: "fidelity=proxy:0.25,rungs=3,eta=2,calib=1",
};

/// The fidelity a single evaluation was (or is to be) performed at.
///
/// `Rung(r)` is a cheap rung of the ladder; `Full` is the exact,
/// full-cost measurement every search ultimately trusts. The derived
/// ordering puts every cheap rung below `Full`. The engine keys its
/// memo cache by this tag, so a cheap report can never be served for a
/// full-fidelity request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fidelity {
    /// Cheap rung `r` of a [`FidelitySpec`] ladder (0 = cheapest).
    Rung(u8),
    /// The exact full-fidelity measurement.
    Full,
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fidelity::Rung(r) => write!(f, "rung{r}"),
            Fidelity::Full => write!(f, "full"),
        }
    }
}

/// How cheap rungs are made cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidelityMode {
    /// Reduced-layer-set proxy: exact evaluation of a subset of layers,
    /// extrapolated by MAC weight.
    Proxy,
    /// Low-replicate noisy measurement.
    Replicate,
    /// Coarser cost backend for cheap rungs.
    Backend,
}

impl FidelityMode {
    fn as_str(&self) -> &'static str {
        match self {
            FidelityMode::Proxy => "proxy",
            FidelityMode::Replicate => "replicate",
            FidelityMode::Backend => "backend",
        }
    }
}

/// A successive-halving fidelity ladder. Parsed from the CLI
/// `--fidelity` flag; the canonical `Display` form round-trips through
/// [`FromStr`] and is what the run manifest records so `resume` rejects
/// a mismatched ladder instead of silently diverging.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelitySpec {
    /// How cheap rungs are made cheap.
    pub mode: FidelityMode,
    /// Cost fraction of the cheapest rung relative to full fidelity,
    /// in `(0, 1)`. Intermediate rungs interpolate geometrically.
    pub fraction: f64,
    /// The coarse backend cheap rungs dispatch to in
    /// [`FidelityMode::Backend`]; unused otherwise.
    pub cheap_backend: String,
    /// Number of rungs in the ladder, the full-fidelity rung included.
    pub rungs: u8,
    /// Promotion divisor: the top `ceil(n / eta)` of a rung's history
    /// is promoted, successive-halving style.
    pub eta: u8,
    /// Calibration factor for the variance inflation cheap observations
    /// carry into the surrogate; 0 trusts cheap rungs fully.
    pub calib: f64,
}

impl Default for FidelitySpec {
    fn default() -> Self {
        FidelitySpec {
            mode: FidelityMode::Proxy,
            fraction: 0.25,
            cheap_backend: String::new(),
            rungs: 3,
            eta: 2,
            calib: 1.0,
        }
    }
}

impl FidelitySpec {
    fn check(&self) -> Result<(), PlanError> {
        if !(self.fraction > 0.0 && self.fraction < 1.0) {
            return Err(GRAMMAR.error(format!("fraction must be in (0, 1), got {}", self.fraction)));
        }
        if !(2..=8).contains(&self.rungs) {
            return Err(GRAMMAR.error(format!("rungs must be in 2..=8, got {}", self.rungs)));
        }
        if self.eta < 2 {
            return Err(GRAMMAR.error(format!("eta must be at least 2, got {}", self.eta)));
        }
        if !(self.calib >= 0.0 && self.calib.is_finite()) {
            return Err(GRAMMAR.error(format!(
                "calib must be a finite non-negative float, got {}",
                self.calib
            )));
        }
        if self.mode == FidelityMode::Backend {
            if self.rungs != 2 {
                return Err(GRAMMAR.error(format!(
                    "backend mode supports exactly 2 rungs (cheap backend, then full), got {}",
                    self.rungs
                )));
            }
            if !BACKEND_NAMES.contains(&self.cheap_backend.as_str()) {
                return Err(GRAMMAR.error(format!(
                    "unknown cheap backend {:?} (valid backends: {})",
                    self.cheap_backend,
                    BACKEND_NAMES.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// The index of the full-fidelity rung (the last one).
    pub fn full_rung(&self) -> u8 {
        self.rungs - 1
    }

    /// Cost fraction of rung `r` relative to full fidelity: the
    /// geometric ladder `fraction^((rungs-1-r)/(rungs-1))`, which is
    /// `fraction` at rung 0 and exactly 1 at the full rung.
    pub fn fraction_at(&self, rung: u8) -> f64 {
        let rung = rung.min(self.full_rung());
        let steps = f64::from(self.full_rung());
        self.fraction
            .powf(f64::from(self.full_rung() - rung) / steps)
    }

    /// Variance inflation a rung-`r` observation carries into the
    /// surrogate, on top of its measured dispersion: zero at the full
    /// rung, `calib * (1/fraction_at - 1)` below it, so cheaper rungs
    /// are trusted proportionally less.
    pub fn variance_inflation(&self, rung: u8) -> f64 {
        if rung >= self.full_rung() {
            0.0
        } else {
            self.calib * (1.0 / self.fraction_at(rung) - 1.0)
        }
    }

    /// Replicate count at rung `r` given the full-fidelity count `k`
    /// ([`FidelityMode::Replicate`]); never below 1.
    pub fn replicates_at(&self, rung: u8, k: usize) -> usize {
        ((k as f64 * self.fraction_at(rung)).round() as usize).max(1)
    }

    /// How many of `n` candidates a rung promotes: `ceil(n / eta)`.
    pub fn promote_quota(&self, n: usize) -> usize {
        n.div_ceil(self.eta as usize)
    }

    /// The cache/observation tag for an evaluation at rung `r`. Proxy
    /// rungs evaluate their layer subset *exactly*, so they tag
    /// [`Fidelity::Full`] and their per-triple results are reusable on
    /// promotion; replicate/backend rungs produce genuinely different
    /// (noisier / coarser) numbers and tag [`Fidelity::Rung`].
    pub fn fidelity_for(&self, rung: u8) -> Fidelity {
        match self.mode {
            FidelityMode::Proxy => Fidelity::Full,
            FidelityMode::Replicate | FidelityMode::Backend => {
                if rung >= self.full_rung() {
                    Fidelity::Full
                } else {
                    Fidelity::Rung(rung)
                }
            }
        }
    }
}

impl fmt::Display for FidelitySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mode {
            FidelityMode::Backend => write!(f, "fidelity=backend:{}", self.cheap_backend)?,
            mode => write!(f, "fidelity={}:{}", mode.as_str(), self.fraction)?,
        }
        write!(
            f,
            ",rungs={},eta={},calib={}",
            self.rungs, self.eta, self.calib
        )
    }
}

impl FromStr for FidelitySpec {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = FidelitySpec::default();
        let mut saw_mode = false;
        let mut rungs = None;
        GRAMMAR.read(s, |key, value| {
            match key {
                "fidelity" => {
                    saw_mode = true;
                    let (mode, param) = match value.split_once(':') {
                        Some((m, p)) => (m.trim(), Some(p.trim())),
                        None => (value, None),
                    };
                    spec.mode = match mode {
                        "proxy" => FidelityMode::Proxy,
                        "replicate" => FidelityMode::Replicate,
                        // Backend mode has one cheap rung at a nominal
                        // half cost; the real ratio depends on the
                        // backends and only shapes the variance
                        // inflation.
                        "backend" => {
                            spec.fraction = 0.5;
                            FidelityMode::Backend
                        }
                        other => {
                            return Err(GRAMMAR.error(format!(
                                "unknown fidelity mode {other:?} (proxy|replicate|backend)"
                            )))
                        }
                    };
                    match (spec.mode, param) {
                        (FidelityMode::Backend, Some(name)) => spec.cheap_backend = name.into(),
                        (FidelityMode::Backend, None) => {
                            return Err(GRAMMAR
                                .error("backend mode needs a backend name, e.g. backend:timeloop"))
                        }
                        (_, Some(frac)) => {
                            spec.fraction = GRAMMAR.value("fraction", "float", frac)?
                        }
                        (_, None) => {}
                    }
                }
                "rungs" => rungs = Some(GRAMMAR.value(key, "small integer", value)?),
                "eta" => spec.eta = GRAMMAR.value(key, "small integer", value)?,
                "calib" => spec.calib = GRAMMAR.value(key, "float", value)?,
                other => return Err(GRAMMAR.unknown(other)),
            }
            Ok(())
        })?;
        if !saw_mode {
            return Err(GRAMMAR.error(
                "spec names no fidelity mode (fidelity=proxy:0.25|replicate:0.5|backend:<name>)",
            ));
        }
        // Backend mode defaults to its only legal ladder, whichever
        // field came first; an explicit rung count is checked as given.
        let default_rungs = match spec.mode {
            FidelityMode::Backend => 2,
            _ => spec.rungs,
        };
        spec.rungs = rungs.unwrap_or(default_rungs);
        spec.check()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_display() {
        for spec in [
            "fidelity=proxy:0.25,rungs=3,eta=2,calib=1",
            "fidelity=replicate:0.2,rungs=4,eta=3,calib=0.5",
            "fidelity=backend:timeloop,rungs=2,eta=2,calib=1",
        ] {
            let parsed: FidelitySpec = spec.parse().unwrap();
            assert_eq!(parsed.to_string(), spec);
            let reparsed: FidelitySpec = parsed.to_string().parse().unwrap();
            assert_eq!(parsed, reparsed);
        }
    }

    #[test]
    fn defaults_fill_unnamed_fields() {
        let spec: FidelitySpec = "fidelity=proxy".parse().unwrap();
        assert_eq!(spec.mode, FidelityMode::Proxy);
        assert_eq!(spec.fraction, 0.25);
        assert_eq!(spec.rungs, 3);
        assert_eq!(spec.eta, 2);
        assert_eq!(spec.calib, 1.0);
        // Backend mode's only legal ladder, whichever field comes first.
        let spec: FidelitySpec = "eta=3,fidelity=backend:timeloop".parse().unwrap();
        assert_eq!(spec.rungs, 2);
        assert_eq!(spec.fraction, 0.5);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for (spec, needle) in [
            ("", "names no fidelity mode"),
            ("rungs=3", "names no fidelity mode"),
            ("fidelity=magic", "unknown fidelity mode"),
            ("fidelity=proxy:1.5", "fraction"),
            ("fidelity=proxy:0", "fraction"),
            ("fidelity=proxy,rungs=1", "rungs"),
            ("fidelity=proxy,rungs=99", "rungs"),
            ("fidelity=proxy,eta=1", "eta"),
            ("fidelity=proxy,calib=-1", "calib"),
            ("fidelity=backend", "backend name"),
            ("fidelity=backend:verilator", "verilator"),
            ("fidelity=backend:sim,rungs=3", "2 rungs"),
            ("fidelity=proxy,bogus=1", "bogus"),
            ("fidelity", "key=value"),
            // The field order and repeated keys cannot change a spec.
            ("rungs=3,fidelity=backend:timeloop", "2 rungs"),
            ("fidelity=backend:timeloop,fidelity=proxy", "given twice"),
            ("fidelity=proxy,rungs=3,rungs=4", "given twice"),
        ] {
            let err = spec.parse::<FidelitySpec>().unwrap_err();
            assert!(err.to_string().contains(needle), "{spec}: {err}");
        }
        // The full error text, pinned.
        let example = "(expected e.g. \"fidelity=proxy:0.25,rungs=3,eta=2,calib=1\")";
        for (spec, message) in [
            ("fidelity", "expected key=value, got \"fidelity\""),
            ("fidelity=proxy,bogus=1", "unknown field \"bogus\""),
            (
                "fidelity=proxy,rungs=abc",
                "rungs must be a small integer, got \"abc\"",
            ),
            ("fidelity=proxy,rungs=99", "rungs must be in 2..=8, got 99"),
        ] {
            assert_eq!(
                spec.parse::<FidelitySpec>().unwrap_err().to_string(),
                format!("invalid fidelity spec: {message} {example}")
            );
        }
    }

    #[test]
    fn ladder_is_geometric_and_ends_at_full() {
        let spec: FidelitySpec = "fidelity=replicate:0.25,rungs=3".parse().unwrap();
        assert_eq!(spec.fraction_at(0), 0.25);
        assert!((spec.fraction_at(1) - 0.5).abs() < 1e-12);
        assert_eq!(spec.fraction_at(2), 1.0);
        assert_eq!(spec.full_rung(), 2);
        // Inflation shrinks to zero as rungs approach full fidelity.
        assert!(spec.variance_inflation(0) > spec.variance_inflation(1));
        assert_eq!(spec.variance_inflation(2), 0.0);
        assert!((spec.variance_inflation(0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn replicates_scale_with_the_rung_and_never_vanish() {
        let spec: FidelitySpec = "fidelity=replicate:0.2,rungs=3".parse().unwrap();
        assert_eq!(spec.replicates_at(0, 5), 1);
        assert_eq!(spec.replicates_at(1, 5), 2);
        assert_eq!(spec.replicates_at(2, 5), 5);
        assert_eq!(spec.replicates_at(0, 1), 1);
    }

    #[test]
    fn promotion_quota_is_ceil_n_over_eta() {
        let spec: FidelitySpec = "fidelity=proxy,eta=2".parse().unwrap();
        assert_eq!(spec.promote_quota(1), 1);
        assert_eq!(spec.promote_quota(4), 2);
        assert_eq!(spec.promote_quota(5), 3);
        let spec: FidelitySpec = "fidelity=proxy,eta=3".parse().unwrap();
        assert_eq!(spec.promote_quota(9), 3);
    }

    #[test]
    fn cache_tags_separate_cheap_from_full() {
        // Proxy rungs evaluate exactly: everything tags Full.
        let proxy: FidelitySpec = "fidelity=proxy".parse().unwrap();
        assert_eq!(proxy.fidelity_for(0), Fidelity::Full);
        assert_eq!(proxy.fidelity_for(2), Fidelity::Full);
        // Replicate/backend cheap rungs must never alias with full.
        let rep: FidelitySpec = "fidelity=replicate:0.25".parse().unwrap();
        assert_eq!(rep.fidelity_for(0), Fidelity::Rung(0));
        assert_eq!(rep.fidelity_for(1), Fidelity::Rung(1));
        assert_eq!(rep.fidelity_for(2), Fidelity::Full);
        assert!(Fidelity::Rung(1) < Fidelity::Full);
    }
}
