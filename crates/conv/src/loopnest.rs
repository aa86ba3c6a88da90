//! Loop orderings of the 7-level CONV loop nest.

use std::fmt;

use crate::dim::{Dim, DIMS, NUM_DIMS};
use crate::layer::ConvLayer;

/// A permutation of the seven CONV loops, outermost first.
///
/// Loop order is one of the paper's *categorical* software parameters
/// (Figure 3c): each tiling level of the loop nest can be reordered in any
/// of `7! = 5040` ways, and the ordering determines which tensors enjoy
/// temporal reuse at that level of the memory hierarchy.
///
/// # Examples
///
/// ```
/// use spotlight_conv::{Dim, LoopPermutation};
///
/// let p = LoopPermutation::canonical();
/// assert_eq!(p.outermost(), Dim::N);
/// assert_eq!(p.innermost(), Dim::Y);
///
/// // "KCRSXYN" puts batch innermost.
/// let p: LoopPermutation = "KCRSXYN".parse()?;
/// assert_eq!(p.innermost(), Dim::N);
/// # Ok::<(), spotlight_conv::loopnest::ParseLoopPermutationError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopPermutation {
    order: [Dim; NUM_DIMS],
}

impl LoopPermutation {
    /// Total number of loop permutations (`7!`).
    pub const COUNT: u64 = 5040;

    /// Builds a permutation from an explicit order, outermost first.
    ///
    /// Returns `None` if `order` is not a permutation of all seven
    /// dimensions.
    pub fn new(order: [Dim; NUM_DIMS]) -> Option<Self> {
        let mut seen = [false; NUM_DIMS];
        for d in order {
            if seen[d.index()] {
                return None;
            }
            seen[d.index()] = true;
        }
        Some(LoopPermutation { order })
    }

    /// The canonical `N K C R S X Y` order of Figure 1.
    pub fn canonical() -> Self {
        LoopPermutation { order: DIMS }
    }

    /// Decodes the `i`-th permutation in lexicographic order (Lehmer code).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 7!`.
    ///
    /// ```
    /// use spotlight_conv::LoopPermutation;
    /// assert_eq!(LoopPermutation::from_lehmer(0), LoopPermutation::canonical());
    /// assert_eq!(LoopPermutation::from_lehmer(5039).rank(), 5039);
    /// ```
    pub fn from_lehmer(i: u64) -> Self {
        assert!(i < Self::COUNT, "permutation rank out of range");
        // Dimensions not yet placed: the first `NUM_DIMS - slot` of `avail`.
        let mut avail = DIMS;
        let mut rem = i;
        let mut order = [Dim::N; NUM_DIMS];
        let mut fact: u64 = Self::COUNT;
        for (slot, item) in order.iter_mut().enumerate() {
            fact /= (NUM_DIMS - slot) as u64;
            let idx = (rem / fact) as usize;
            rem %= fact;
            *item = avail[idx];
            avail.copy_within(idx + 1..NUM_DIMS - slot, idx);
        }
        LoopPermutation { order }
    }

    /// Lexicographic rank of this permutation; inverse of
    /// [`LoopPermutation::from_lehmer`].
    pub fn rank(&self) -> u64 {
        let mut avail = DIMS;
        let mut rank: u64 = 0;
        let mut fact: u64 = Self::COUNT;
        for (slot, d) in self.order.iter().enumerate() {
            fact /= (NUM_DIMS - slot) as u64;
            let idx = avail[..NUM_DIMS - slot]
                .iter()
                .position(|a| a == d)
                .expect("valid permutation");
            rank += idx as u64 * fact;
            avail.copy_within(idx + 1..NUM_DIMS - slot, idx);
        }
        rank
    }

    /// Loops outermost-first.
    #[inline]
    pub fn order(&self) -> &[Dim; NUM_DIMS] {
        &self.order
    }

    /// The outermost loop dimension.
    #[inline]
    pub fn outermost(&self) -> Dim {
        self.order[0]
    }

    /// The innermost loop dimension.
    #[inline]
    pub fn innermost(&self) -> Dim {
        self.order[NUM_DIMS - 1]
    }

    /// Position of dimension `d` (0 = outermost).
    #[inline]
    pub fn position(&self, d: Dim) -> usize {
        self.order
            .iter()
            .position(|&o| o == d)
            .expect("permutation contains every dim")
    }

    /// Swaps the loops at positions `i` and `j` (a GA mutation primitive).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn swapped(mut self, i: usize, j: usize) -> Self {
        self.order.swap(i, j);
        self
    }

    /// For a tensor selected by `indexes` (e.g. [`Dim::indexes_weights`]),
    /// the product of loop *trip counts* strictly inner to the innermost
    /// loop that indexes the tensor. Those inner iterations reuse the same
    /// tensor tile, so this is the tensor's temporal reuse factor at this
    /// level of the hierarchy.
    ///
    /// `trips` gives the per-dimension trip count at this level (canonical
    /// order). Loops with trip count 1 are degenerate and never limit reuse.
    ///
    /// ```
    /// use spotlight_conv::{Dim, LoopPermutation};
    /// // Weights indexed by K,C,R,S; with X,Y innermost their trips multiply
    /// // into weight reuse.
    /// let p: LoopPermutation = "NKCRSXY".parse().unwrap();
    /// let trips = [1, 2, 2, 1, 1, 4, 5]; // N,K,C,R,S,X,Y
    /// assert_eq!(p.temporal_reuse(&trips, |d| d.indexes_weights()), 20);
    /// ```
    pub fn temporal_reuse(&self, trips: &[u64; NUM_DIMS], indexes: impl Fn(Dim) -> bool) -> u64 {
        let mut reuse: u64 = 1;
        for &d in self.order.iter().rev() {
            if indexes(d) && trips[d.index()] > 1 {
                break;
            }
            reuse *= trips[d.index()];
        }
        reuse
    }

    /// Renders the loop nest of Figure 1 for the given layer, one loop per
    /// line, outermost first.
    pub fn render(&self, layer: &ConvLayer) -> String {
        let mut out = String::new();
        for (depth, &d) in self.order.iter().enumerate() {
            let indent = "  ".repeat(depth);
            out.push_str(&format!(
                "{indent}for {} in 0..{} {{\n",
                d.name().to_lowercase(),
                layer.extent(d)
            ));
        }
        let body_indent = "  ".repeat(NUM_DIMS);
        out.push_str(&format!(
            "{body_indent}O[n][k][x][y] += W[k][c][r][s] * I[n][c][x*{}+r][y*{}+s];\n",
            layer.stride, layer.stride
        ));
        for depth in (0..NUM_DIMS).rev() {
            out.push_str(&format!("{}}}\n", "  ".repeat(depth)));
        }
        out
    }
}

impl Default for LoopPermutation {
    fn default() -> Self {
        Self::canonical()
    }
}

impl fmt::Display for LoopPermutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in self.order {
            f.write_str(d.name())?;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`LoopPermutation`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLoopPermutationError(String);

impl fmt::Display for ParseLoopPermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid loop permutation `{}`", self.0)
    }
}

impl std::error::Error for ParseLoopPermutationError {}

impl std::str::FromStr for LoopPermutation {
    type Err = ParseLoopPermutationError;

    /// Parses strings like `"NKCRSXY"` or `"K C R S X Y N"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let letters: Vec<char> = s.chars().filter(|c| !c.is_whitespace()).collect();
        if letters.len() != NUM_DIMS {
            return Err(ParseLoopPermutationError(s.to_string()));
        }
        let mut order = [Dim::N; NUM_DIMS];
        for (i, ch) in letters.iter().enumerate() {
            order[i] = ch
                .to_string()
                .parse()
                .map_err(|_| ParseLoopPermutationError(s.to_string()))?;
        }
        LoopPermutation::new(order).ok_or_else(|| ParseLoopPermutationError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonical_roundtrip() {
        let p = LoopPermutation::canonical();
        assert_eq!(p.to_string(), "NKCRSXY");
        assert_eq!(p.rank(), 0);
    }

    #[test]
    fn new_rejects_duplicates() {
        let dup = [Dim::N, Dim::N, Dim::C, Dim::R, Dim::S, Dim::X, Dim::Y];
        assert!(LoopPermutation::new(dup).is_none());
    }

    #[test]
    fn parse_rejects_short_and_garbage() {
        assert!("NKC".parse::<LoopPermutation>().is_err());
        assert!("NKCRSXZ".parse::<LoopPermutation>().is_err());
        assert!("NKCRSXX".parse::<LoopPermutation>().is_err());
    }

    #[test]
    fn position_is_inverse_of_order() {
        let p: LoopPermutation = "YXSRCKN".parse().unwrap();
        for (i, &d) in p.order().iter().enumerate() {
            assert_eq!(p.position(d), i);
        }
    }

    #[test]
    fn temporal_reuse_ignores_degenerate_loops() {
        // K placed innermost but with trip count 1: weights still reused
        // across the X loop outside it.
        let p: LoopPermutation = "NCRSYXK".parse().unwrap();
        let trips = [1, 1, 1, 1, 1, 4, 1];
        assert_eq!(p.temporal_reuse(&trips, |d| d.indexes_weights()), 4);
    }

    #[test]
    fn temporal_reuse_full_when_tensor_never_indexed() {
        let p = LoopPermutation::canonical();
        let trips = [2, 3, 4, 1, 1, 5, 6];
        let total: u64 = trips.iter().product();
        assert_eq!(p.temporal_reuse(&trips, |_| false), total);
    }

    #[test]
    fn render_contains_all_loops() {
        let l = ConvLayer::new(1, 2, 3, 3, 3, 8, 8);
        let txt = LoopPermutation::canonical().render(&l);
        for d in DIMS {
            assert!(txt.contains(&format!("for {}", d.name().to_lowercase())));
        }
        assert!(txt.contains("+="));
    }

    proptest! {
        #[test]
        fn lehmer_roundtrip(i in 0u64..LoopPermutation::COUNT) {
            let p = LoopPermutation::from_lehmer(i);
            prop_assert_eq!(p.rank(), i);
        }

        #[test]
        fn lehmer_produces_valid_permutations(i in 0u64..LoopPermutation::COUNT) {
            let p = LoopPermutation::from_lehmer(i);
            let mut seen = [false; NUM_DIMS];
            for d in p.order() {
                prop_assert!(!seen[d.index()]);
                seen[d.index()] = true;
            }
        }

        #[test]
        fn display_parse_roundtrip(i in 0u64..LoopPermutation::COUNT) {
            let p = LoopPermutation::from_lehmer(i);
            let q: LoopPermutation = p.to_string().parse().unwrap();
            prop_assert_eq!(p, q);
        }

        #[test]
        fn reuse_divides_total_trips(
            i in 0u64..LoopPermutation::COUNT,
            trips in proptest::array::uniform7(1u64..6),
        ) {
            let p = LoopPermutation::from_lehmer(i);
            let total: u64 = trips.iter().product();
            let reuse = p.temporal_reuse(&trips, |d| d.indexes_inputs());
            prop_assert_eq!(total % reuse, 0);
        }
    }
}
