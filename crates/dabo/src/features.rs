//! Feature maps: the transformation `T : P -> F` of Section IV-B.

/// A transformation from parameter space into feature space.
///
/// The surrogate model never sees raw parameters; it is trained on
/// `features(p)`. Vanilla BO (Spotlight-V in the ablation) is recovered by
/// making this the raw parameter encoding.
pub trait FeatureMap<P> {
    /// Number of features produced.
    fn dim(&self) -> usize;

    /// Computes the feature vector for one parameter point.
    fn features(&self, p: &P) -> Vec<f64>;

    /// Writes the feature vector for one parameter point into `out`,
    /// which holds exactly [`FeatureMap::dim`] values. The acquisition
    /// batch fills its candidate rows through this; a map that can
    /// compute in place overrides it to skip the intermediate `Vec`.
    fn features_into(&self, p: &P, out: &mut [f64]) {
        out.copy_from_slice(&self.features(p));
    }
}

/// A [`FeatureMap`] backed by a closure.
///
/// # Examples
///
/// ```
/// use spotlight_dabo::{FeatureMap, FnFeatureMap};
///
/// let fm = FnFeatureMap::new(2, |p: &(f64, f64)| vec![p.0 + p.1, p.0 * p.1]);
/// assert_eq!(fm.dim(), 2);
/// assert_eq!(fm.features(&(2.0, 3.0)), vec![5.0, 6.0]);
/// ```
pub struct FnFeatureMap<F> {
    dim: usize,
    f: F,
}

impl<F> FnFeatureMap<F> {
    /// Wraps a closure producing `dim` features.
    pub fn new(dim: usize, f: F) -> Self {
        FnFeatureMap { dim, f }
    }
}

impl<P, F: Fn(&P) -> Vec<f64>> FeatureMap<P> for FnFeatureMap<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn features(&self, p: &P) -> Vec<f64> {
        let v = (self.f)(p);
        debug_assert_eq!(v.len(), self.dim, "feature closure produced wrong arity");
        v
    }
}

impl<P, M: FeatureMap<P> + ?Sized> FeatureMap<P> for &M {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn features(&self, p: &P) -> Vec<f64> {
        (**self).features(p)
    }

    fn features_into(&self, p: &P, out: &mut [f64]) {
        (**self).features_into(p, out)
    }
}

/// Z-score standardization fitted on a training set and applied to
/// candidates, so features with wildly different magnitudes (PE counts vs
/// utilization fractions) share a scale inside the surrogate.
///
/// # Examples
///
/// ```
/// use spotlight_dabo::Standardizer;
///
/// let train = vec![vec![0.0, 100.0], vec![2.0, 300.0]];
/// let st = Standardizer::fit(&train);
/// let z = st.transform(&[1.0, 200.0]);
/// assert!(z.iter().all(|v| v.abs() < 1e-9)); // the mean maps to 0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits per-column means and standard deviations.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot standardize an empty set");
        let d = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == d), "ragged feature rows");
        let n = rows.len() as f64;
        let mut means = vec![0.0; d];
        for r in rows {
            for (m, v) in means.iter_mut().zip(r) {
                *m += v / n;
            }
        }
        let mut stds = vec![0.0; d];
        for r in rows {
            for ((s, v), m) in stds.iter_mut().zip(r).zip(&means) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut stds {
            *s = s.sqrt().max(1e-12);
        }
        Standardizer { means, stds }
    }

    /// Builds a standardizer directly from per-column means and standard
    /// deviations — the constructor used by the streaming (Welford-style)
    /// accumulator, which never materializes the training rows.
    ///
    /// Standard deviations are floored at `1e-12` exactly like
    /// [`Standardizer::fit`], so constant columns stay safe.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_moments(means: Vec<f64>, mut stds: Vec<f64>) -> Self {
        assert_eq!(means.len(), stds.len(), "arity mismatch");
        for s in &mut stds {
            *s = s.max(1e-12);
        }
        Standardizer { means, stds }
    }

    /// Standardizes one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong arity.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len(), "arity mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Standardizes one row into a caller-provided buffer (the
    /// allocation-free variant of [`Standardizer::transform`] used on the
    /// acquisition hot path).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `out` has the wrong arity.
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "arity mismatch");
        assert_eq!(out.len(), self.means.len(), "output arity mismatch");
        for (o, (v, (m, s))) in out
            .iter_mut()
            .zip(row.iter().zip(self.means.iter().zip(&self.stds)))
        {
            *o = (v - m) / s;
        }
    }

    /// Standardizes many rows.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn standardized_train_set_has_zero_mean_unit_var() {
        let rows = vec![
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ];
        let st = Standardizer::fit(&rows);
        let z = st.transform_all(&rows);
        for col in 0..2 {
            let mean: f64 = z.iter().map(|r| r[col]).sum::<f64>() / 4.0;
            let var: f64 = z.iter().map(|r| r[col] * r[col]).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let rows = vec![vec![5.0], vec![5.0]];
        let st = Standardizer::fit(&rows);
        let z = st.transform(&[5.0]);
        assert!(z[0].is_finite());
    }

    #[test]
    fn from_moments_matches_fit_and_floors_stds() {
        let rows = vec![vec![1.0, 5.0], vec![3.0, 5.0]];
        let fitted = Standardizer::fit(&rows);
        let streaming = Standardizer::from_moments(vec![2.0, 5.0], vec![1.0, 0.0]);
        assert_eq!(fitted, streaming);
        assert!(streaming
            .transform(&[2.0, 5.0])
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    fn transform_into_matches_transform() {
        let rows = vec![vec![1.0, 10.0], vec![4.0, -2.0], vec![0.5, 3.0]];
        let st = Standardizer::fit(&rows);
        let mut out = [0.0; 2];
        st.transform_into(&[2.0, 4.0], &mut out);
        assert_eq!(out.to_vec(), st.transform(&[2.0, 4.0]));
    }

    #[test]
    fn fn_feature_map_delegates() {
        let fm = FnFeatureMap::new(1, |p: &i32| vec![*p as f64 * 2.0]);
        assert_eq!(fm.features(&21), vec![42.0]);
        let mut out = [0.0];
        fm.features_into(&21, &mut out);
        assert_eq!(out, [42.0]);
        FeatureMap::features_into(&&fm, &4, &mut out);
        assert_eq!(out, [8.0]);
    }

    #[test]
    fn reference_feature_map_works() {
        let fm = FnFeatureMap::new(1, |p: &i32| vec![*p as f64]);
        let r = &fm;
        assert_eq!(FeatureMap::dim(&r), 1);
        assert_eq!(FeatureMap::features(&r, &7), vec![7.0]);
    }

    proptest! {
        #[test]
        fn transform_is_affine_invertible(
            vals in proptest::collection::vec(-100.0f64..100.0, 6),
        ) {
            let rows: Vec<Vec<f64>> = vals.chunks(2).map(|c| c.to_vec()).collect();
            let st = Standardizer::fit(&rows);
            // Standardize-then-unstandardize is identity (manually).
            for r in &rows {
                let z = st.transform(r);
                for (i, v) in r.iter().enumerate() {
                    let back = z[i] * st.stds[i] + st.means[i];
                    prop_assert!((back - v).abs() < 1e-9);
                }
            }
        }
    }
}
