//! Exact-duplicate rejection within a candidate batch.
//!
//! A candidate row is a duplicate when it equals (`==`, element by
//! element) an earlier row of the same batch. Comparing every row with
//! every earlier one costs `batch^2 / 2` slice compares; [`RowDedup`]
//! finds the same rows in expected `O(batch)` with a small open-addressing
//! table of earlier row indices, keyed by a hash of each row's canonical
//! bits and confirmed by `==`.
//!
//! `==` on `f64` makes `-0.0` equal `+0.0` and a NaN equal nothing, so
//! the hash folds `-0.0` into `+0.0`, and a row holding a NaN is never a
//! duplicate and never recorded (no later row can equal it).

use spotlight_gp::Matrix;

/// An empty table slot.
const EMPTY: u32 = u32::MAX;

/// Reusable duplicate-row detector: sized once per batch size, then
/// allocation-free.
#[derive(Debug, Default)]
pub(crate) struct RowDedup {
    /// Row index recorded in each slot, or [`EMPTY`].
    slots: Vec<u32>,
    /// The recorded row's hash, beside its index.
    hashes: Vec<u64>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
}

impl RowDedup {
    /// Empties the table for a batch of up to `rows` rows, keeping it at
    /// most half full.
    pub(crate) fn start(&mut self, rows: usize) {
        assert!(
            rows < EMPTY as usize,
            "batch of {rows} rows outgrows the table"
        );
        let len = (2 * rows).next_power_of_two().max(2);
        if self.slots.len() == len {
            self.slots.fill(EMPTY);
        } else {
            self.slots = vec![EMPTY; len];
            self.hashes = vec![0; len];
            self.shift = 64 - len.trailing_zeros();
        }
    }

    /// Whether row `i` of `m` equals a row recorded since
    /// [`RowDedup::start`]. A row that is new is recorded. Rows must be
    /// offered in order, each once, so this is exactly "row `i` equals an
    /// earlier row": `==` is transitive on rows without a NaN, so a row
    /// equal to an earlier duplicate also equals the first copy, which is
    /// the one recorded.
    pub(crate) fn is_duplicate(&mut self, m: &Matrix, i: usize) -> bool {
        let row = m.row(i);
        let Some(hash) = row_hash(row) else {
            return false;
        };
        let mask = self.slots.len() - 1;
        let mut s = (hash >> self.shift) as usize;
        loop {
            let j = self.slots[s];
            if j == EMPTY {
                self.slots[s] = i as u32;
                self.hashes[s] = hash;
                return false;
            }
            if self.hashes[s] == hash && m.row(j as usize) == row {
                return true;
            }
            s = (s + 1) & mask;
        }
    }
}

/// A multiplicative hash of `row`'s bits with `-0.0` folded into `+0.0`,
/// or `None` when the row holds a NaN.
fn row_hash(row: &[f64]) -> Option<u64> {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = row.len() as u64;
    for &x in row {
        if x.is_nan() {
            return None;
        }
        let bits = if x == 0.0 { 0 } else { x.to_bits() };
        h = (h.rotate_left(26) ^ bits).wrapping_mul(K);
    }
    Some(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The rule [`RowDedup`] replaces: row `i` equals some earlier row.
    fn pairwise(m: &Matrix) -> Vec<bool> {
        (0..m.rows())
            .map(|i| (0..i).any(|j| m.row(j) == m.row(i)))
            .collect()
    }

    fn fast(dedup: &mut RowDedup, m: &Matrix) -> Vec<bool> {
        dedup.start(m.rows());
        (0..m.rows()).map(|i| dedup.is_duplicate(m, i)).collect()
    }

    /// A value from a small alphabet, so random rows collide often,
    /// including `-0.0` against `+0.0` and NaN against itself.
    fn value() -> impl Strategy<Value = f64> {
        (0u8..7, -4.0f64..4.0).prop_map(|(k, x)| match k {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => -1.5,
            4 => f64::NAN,
            5 => f64::INFINITY,
            _ => x,
        })
    }

    proptest! {
        #[test]
        fn matches_the_pairwise_rule(
            dim in 1usize..5,
            values in proptest::collection::vec(value(), 1..400),
            copies in proptest::collection::vec((0usize..100, 0usize..100), 0..40),
            batches in 1usize..3,
        ) {
            let rows = values.len().div_ceil(dim).min(100);
            let mut m = Matrix::zeros(rows, dim);
            for (k, &v) in values.iter().take(rows * dim).enumerate() {
                m.row_mut(k / dim)[k % dim] = v;
            }
            // Plant exact copies of earlier rows.
            for &(from, to) in &copies {
                let (from, to) = (from % rows, to % rows);
                if from < to {
                    let src = m.row(from).to_vec();
                    m.row_mut(to).copy_from_slice(&src);
                }
            }
            // The same detector across batches, as `Dabo` reuses it.
            let mut dedup = RowDedup::default();
            for _ in 0..batches {
                prop_assert_eq!(fast(&mut dedup, &m), pairwise(&m));
            }
        }
    }

    #[test]
    fn signed_zeros_match_and_nan_rows_never_do() {
        let m = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![-0.0, 1.0],
            vec![f64::NAN, 1.0],
            vec![f64::NAN, 1.0],
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
        ]);
        let mut dedup = RowDedup::default();
        assert_eq!(
            fast(&mut dedup, &m),
            [false, true, false, false, false, true]
        );
        assert_eq!(fast(&mut dedup, &m), pairwise(&m));
    }
}
