//! Acquisition functions.
//!
//! Section V-B: "daBO then uses Lower Confidence Bound as the acquisition
//! function, which is maximized to determine the next configuration to
//! evaluate." For a *minimization* problem the most promising candidate is
//! the one with the smallest `mean - kappa * std`: a low predicted cost
//! or high uncertainty (optimism in the face of uncertainty).

/// Lower confidence bound `mean - kappa * std`.
///
/// Smaller is more promising when minimizing. `kappa` trades exploitation
/// (`kappa -> 0`) against exploration (large `kappa`); Srinivas et al.'s
/// GP-UCB analysis motivates values around 1-3.
///
/// # Examples
///
/// ```
/// use spotlight_dabo::lower_confidence_bound;
///
/// // Equal means: the more uncertain candidate is preferred (lower LCB).
/// let certain = lower_confidence_bound(5.0, 0.1, 2.0);
/// let uncertain = lower_confidence_bound(5.0, 3.0, 2.0);
/// assert!(uncertain < certain);
/// ```
#[inline]
pub fn lower_confidence_bound(mean: f64, std: f64, kappa: f64) -> f64 {
    mean - kappa * std
}

/// Index of the candidate with the smallest LCB.
///
/// Returns `None` for an empty slice. Non-finite predictions lose to any
/// finite one.
pub fn argmin_lcb(predictions: &[(f64, f64)], kappa: f64) -> Option<usize> {
    predictions
        .iter()
        .enumerate()
        .filter(|(_, (m, s))| m.is_finite() && s.is_finite())
        .min_by(|(_, a), (_, b)| {
            lower_confidence_bound(a.0, a.1, kappa)
                .total_cmp(&lower_confidence_bound(b.0, b.1, kappa))
        })
        .map(|(i, _)| i)
        .or(if predictions.is_empty() {
            None
        } else {
            Some(0)
        })
}

/// Expected improvement of a candidate over the incumbent `best` when
/// *minimizing*: `E[max(best - Y, 0)]` for `Y ~ N(mean, std^2)`.
///
/// Larger is more promising. Used as the ablation alternative to LCB
/// (the paper's daBO uses LCB; EI is the other standard choice, and
/// the `ablation_design` experiment binary compares the two
/// acquisition functions).
///
/// # Examples
///
/// ```
/// use spotlight_dabo::acquisition::expected_improvement;
///
/// // A candidate predicted well below the incumbent has high EI.
/// let good = expected_improvement(1.0, 0.5, 5.0);
/// let bad = expected_improvement(9.0, 0.5, 5.0);
/// assert!(good > bad);
/// assert!(bad >= 0.0);
/// ```
pub fn expected_improvement(mean: f64, std: f64, best: f64) -> f64 {
    if std <= 0.0 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std;
    (best - mean) * standard_normal_cdf(z) + std * standard_normal_pdf(z)
}

/// Index of the candidate with the largest expected improvement.
///
/// Returns `None` for an empty slice.
pub fn argmax_ei(predictions: &[(f64, f64)], best: f64) -> Option<usize> {
    predictions
        .iter()
        .enumerate()
        .filter(|(_, (m, s))| m.is_finite() && s.is_finite())
        .max_by(|(_, a), (_, b)| {
            expected_improvement(a.0, a.1, best).total_cmp(&expected_improvement(b.0, b.1, best))
        })
        .map(|(i, _)| i)
        .or(if predictions.is_empty() {
            None
        } else {
            Some(0)
        })
}

/// Standard normal probability density.
fn standard_normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution via the Abramowitz-Stegun
/// erf approximation (max error ~1.5e-7, ample for ranking candidates).
fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_lowest_mean_when_stds_equal() {
        let preds = vec![(5.0, 1.0), (3.0, 1.0), (4.0, 1.0)];
        assert_eq!(argmin_lcb(&preds, 1.0), Some(1));
    }

    #[test]
    fn high_uncertainty_can_win() {
        let preds = vec![(3.0, 0.0), (4.0, 2.0)];
        // kappa = 1: LCBs are 3.0 and 2.0.
        assert_eq!(argmin_lcb(&preds, 1.0), Some(1));
        // kappa = 0: pure exploitation.
        assert_eq!(argmin_lcb(&preds, 0.0), Some(0));
    }

    #[test]
    fn empty_gives_none() {
        assert_eq!(argmin_lcb(&[], 1.0), None);
    }

    #[test]
    fn non_finite_predictions_skipped() {
        let preds = vec![(f64::NAN, 1.0), (7.0, 0.5)];
        assert_eq!(argmin_lcb(&preds, 1.0), Some(1));
    }

    #[test]
    fn all_non_finite_falls_back_to_first() {
        let preds = vec![(f64::NAN, 1.0), (f64::INFINITY, 0.5)];
        assert_eq!(argmin_lcb(&preds, 1.0), Some(0));
    }
}

#[cfg(test)]
mod ei_tests {
    use super::*;

    #[test]
    fn erf_matches_known_values() {
        // erf(0) = 0, erf(1) ~ 0.8427, erf(-1) ~ -0.8427.
        assert!(erf(0.0).abs() < 1e-9);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut prev = 0.0;
        for i in -40..=40 {
            let v = standard_normal_cdf(i as f64 / 10.0);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev - 1e-12);
            prev = v;
        }
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ei_is_nonnegative_and_grows_with_uncertainty() {
        let base = expected_improvement(6.0, 0.1, 5.0);
        let wide = expected_improvement(6.0, 3.0, 5.0);
        assert!(base >= 0.0);
        assert!(wide > base);
    }

    #[test]
    fn ei_zero_std_is_plain_improvement() {
        assert_eq!(expected_improvement(3.0, 0.0, 5.0), 2.0);
        assert_eq!(expected_improvement(7.0, 0.0, 5.0), 0.0);
    }

    #[test]
    fn argmax_ei_picks_obvious_winner() {
        let preds = vec![(10.0, 0.1), (2.0, 0.1), (6.0, 0.1)];
        assert_eq!(argmax_ei(&preds, 5.0), Some(1));
        assert_eq!(argmax_ei(&[], 5.0), None);
    }
}
