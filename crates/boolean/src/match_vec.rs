//! Match vectors, `Box(w)` and `Circ(w)` (Definition 5.8).
//!
//! The pairwise matching function maps a pair `(u, v)` of worlds to a
//! *match-vector* `w ∈ {0,1,*}ⁿ`: `w[i] = u[i]` where the worlds agree and
//! `w[i] = *` where they differ. Two derived sets drive the Section 5.1
//! criteria:
//!
//! * `Box(w)` — all worlds refining `w` (stars replaced by bits);
//! * `Circ(w)` — all pairs `(u, v)` with `Match(u, v) = w`.
//!
//! The cancellation criterion (Proposition 5.9) compares, for every `w`, the
//! number of pairs of `Circ(w)` drawn from `AB̄ × ĀB` against those from
//! `AB × ĀB̄`; the necessary criterion (Proposition 5.10) compares products
//! of `Box(w)` occupancies.

use epi_core::{WorldId, WorldSet};
use std::collections::HashMap;
use std::fmt;

/// A vector in `{0,1,*}ⁿ`, stored as a star mask plus the fixed bit values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatchVector {
    /// Bits set where the vector has a `*`.
    pub stars: u32,
    /// Fixed bit values; always disjoint from `stars`.
    pub values: u32,
}

impl MatchVector {
    /// Creates a match-vector, normalizing `values` to be disjoint from
    /// `stars`.
    pub fn new(stars: u32, values: u32) -> MatchVector {
        MatchVector {
            stars,
            values: values & !stars,
        }
    }

    /// The matching function `Match(u, v)` of Definition 5.8.
    pub fn of_pair(u: u32, v: u32) -> MatchVector {
        let stars = u ^ v;
        MatchVector {
            stars,
            values: u & !stars,
        }
    }

    /// `true` iff the world `v` refines this vector.
    pub fn refined_by(&self, v: u32) -> bool {
        v & !self.stars == self.values
    }

    /// Number of stars.
    pub fn star_count(&self) -> u32 {
        self.stars.count_ones()
    }

    /// Renders in the paper's notation for a given dimension, most
    /// significant coordinate first (e.g. `01∗∗1`).
    pub fn display(&self, n: usize) -> String {
        (0..n)
            .rev()
            .map(|i| {
                if self.stars >> i & 1 == 1 {
                    '*'
                } else if self.values >> i & 1 == 1 {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }

    /// Widest dimension [`MatchVector::all`] enumerates: `3¹⁶` vectors
    /// already take 344 MB.
    pub const MAX_ENUM_DIMS: usize = 16;

    /// Enumerates all `3ⁿ` match-vectors of dimension `n`.
    ///
    /// # Panics
    ///
    /// When `n` exceeds [`MatchVector::MAX_ENUM_DIMS`].
    pub fn all(n: usize) -> Vec<MatchVector> {
        assert!(
            n <= Self::MAX_ENUM_DIMS,
            "3ⁿ enumeration guarded to n ≤ {}",
            Self::MAX_ENUM_DIMS
        );
        let mut out = Vec::with_capacity(3usize.pow(n as u32));
        let full = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        // Enumerate star masks, then values on the non-star coordinates.
        for stars in 0..=full {
            let fixed = full & !stars;
            let mut v = fixed;
            loop {
                out.push(MatchVector { stars, values: v });
                if v == 0 {
                    break;
                }
                v = (v - 1) & fixed;
            }
        }
        out
    }
}

impl fmt::Debug for MatchVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MatchVector(stars={:b}, values={:b})",
            self.stars, self.values
        )
    }
}

/// `Box(w)` — the set of worlds refining `w` — as a [`WorldSet`] over
/// `{0,1}ⁿ`.
pub fn box_set(w: MatchVector, n: usize) -> WorldSet {
    WorldSet::from_predicate(1 << n, |v| w.refined_by(v.0))
}

/// `|X ∩ Box(w)|` without materializing the box.
pub fn box_count(w: MatchVector, x: &WorldSet) -> usize {
    x.iter().filter(|v| w.refined_by(v.0)).count()
}

/// Counts `|(X × Y) ∩ Circ(w)|` for *every* `w` in one pass over the pairs:
/// returns a map from match-vector to pair count. This grouping is the
/// efficient evaluation strategy for the cancellation criterion (one
/// `|X|·|Y|` sweep instead of a `3ⁿ` outer loop).
pub fn circ_counts(x: &WorldSet, y: &WorldSet) -> HashMap<MatchVector, u64> {
    let mut counts = HashMap::new();
    for u in x {
        for v in y {
            *counts.entry(MatchVector::of_pair(u.0, v.0)).or_insert(0u64) += 1;
        }
    }
    counts
}

/// Counts `|(X × Y) ∩ Circ(w)|` for a single `w` by direct enumeration —
/// the naive strategy, kept as the ablation baseline for benchmarks.
pub fn circ_count_single(w: MatchVector, x: &WorldSet, y: &WorldSet) -> u64 {
    let mut count = 0;
    for u in x {
        for v in y {
            if MatchVector::of_pair(u.0, v.0) == w {
                count += 1;
            }
        }
    }
    count
}

/// Enumerates the pairs of `Circ(w)` within `X × Y`.
pub fn circ_pairs<'a>(
    w: MatchVector,
    x: &'a WorldSet,
    y: &'a WorldSet,
) -> impl Iterator<Item = (WorldId, WorldId)> + 'a {
    x.iter().flat_map(move |u| {
        y.iter()
            .filter(move |v| MatchVector::of_pair(u.0, v.0) == w)
            .map(move |v| (u, v))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example() {
        // "pair (01011, 01101) gets mapped into 01∗∗1"
        let u = 0b01011;
        let v = 0b01101;
        let w = MatchVector::of_pair(u, v);
        assert_eq!(w.display(5), "01**1");
        assert!(w.refined_by(u));
        assert!(w.refined_by(v));
        assert_eq!(w.star_count(), 2);
    }

    #[test]
    fn box_contents() {
        let w = MatchVector::new(0b010, 0b001);
        let b = box_set(w, 3);
        assert_eq!(b, WorldSet::from_indices(8, [0b001, 0b011]));
        assert_eq!(box_count(w, &WorldSet::full(8)), 2);
    }

    #[test]
    fn all_vectors_count() {
        assert_eq!(MatchVector::all(1).len(), 3);
        assert_eq!(MatchVector::all(3).len(), 27);
        // No duplicates.
        let mut v = MatchVector::all(3);
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 27);
    }

    #[test]
    fn circ_counts_match_naive() {
        let x = WorldSet::from_indices(8, [0b000, 0b011, 0b101]);
        let y = WorldSet::from_indices(8, [0b011, 0b110, 0b111]);
        let grouped = circ_counts(&x, &y);
        for w in MatchVector::all(3) {
            let naive = circ_count_single(w, &x, &y);
            assert_eq!(
                grouped.get(&w).copied().unwrap_or(0),
                naive,
                "w = {}",
                w.display(3)
            );
        }
        // Total pairs.
        let total: u64 = grouped.values().sum();
        assert_eq!(total, (x.len() * y.len()) as u64);
    }

    #[test]
    fn circ_pairs_consistency() {
        let x = WorldSet::from_indices(4, [0b00, 0b01]);
        let y = WorldSet::from_indices(4, [0b10, 0b11]);
        let w = MatchVector::of_pair(0b00, 0b10);
        let pairs: Vec<_> = circ_pairs(w, &x, &y).collect();
        assert_eq!(pairs.len(), circ_count_single(w, &x, &y) as usize);
        for (u, v) in pairs {
            assert_eq!(MatchVector::of_pair(u.0, v.0), w);
        }
    }

    proptest! {
        #[test]
        fn prop_match_is_symmetric_up_to_values(u in 0u32..32, v in 0u32..32) {
            let w1 = MatchVector::of_pair(u, v);
            let w2 = MatchVector::of_pair(v, u);
            prop_assert_eq!(w1, w2); // agreement values identical, stars same
        }

        #[test]
        fn prop_box_membership(u in 0u32..32, v in 0u32..32, t in 0u32..32) {
            let w = MatchVector::of_pair(u, v);
            // t refines w iff t agrees with u (equivalently v) off the stars.
            prop_assert_eq!(w.refined_by(t), t & !w.stars == u & !w.stars);
        }

        #[test]
        fn prop_box_size_is_two_pow_stars(u in 0u32..32, v in 0u32..32) {
            let w = MatchVector::of_pair(u, v);
            prop_assert_eq!(box_set(w, 5).len(), 1usize << w.star_count());
        }
    }
}
