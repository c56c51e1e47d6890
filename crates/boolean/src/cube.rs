//! The Boolean cube `Ω = {0,1}ⁿ` (Section 5 of the paper).
//!
//! From Section 5 on, the paper fixes `Ω = {0,1}ⁿ`: a world is the subset of
//! the `n` database records present in the database, encoded as a bitmask.
//! This module provides the lattice structure — bit-wise `∧`, `∨`, `⊕`, the
//! partial order `≼` — and the set-level operations the Section 5 criteria
//! are built from: up/down-set tests and closures, translations `z ⊕ A`, and
//! the lattice image sets `A ∧ B`, `A ∨ B` of the Four Functions Theorem.
//!
//! Sets of worlds reuse [`epi_core::WorldSet`] with universe `2ⁿ`, so all of
//! `epi-core`'s privacy machinery applies unchanged.

use epi_core::{WorldId, WorldSet};

/// Maximum supported dimension; `2²⁰` worlds ≈ 1M keeps dense sets practical.
pub const MAX_DIMS: usize = 20;

/// A fixed-dimension Boolean cube `{0,1}ⁿ`, the context object for all
/// Section 5 computations.
///
/// # Examples
///
/// ```
/// use epi_boolean::Cube;
/// let cube = Cube::new(3);
/// let a = cube.set_from_masks([0b011, 0b100]);
/// assert!(!cube.is_up_set(&a));
/// let up = cube.up_closure(&a);
/// assert!(cube.is_up_set(&up));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cube {
    n: usize,
}

impl Cube {
    /// Creates the cube `{0,1}ⁿ`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ n ≤ 20`.
    pub fn new(n: usize) -> Cube {
        assert!(
            (1..=MAX_DIMS).contains(&n),
            "Cube supports 1 ≤ n ≤ {MAX_DIMS}, got {n}"
        );
        Cube { n }
    }

    /// Number of coordinates `n`.
    pub fn dims(&self) -> usize {
        self.n
    }

    /// Number of worlds `2ⁿ`.
    pub fn size(&self) -> usize {
        1 << self.n
    }

    /// The all-ones mask.
    pub fn full_mask(&self) -> u32 {
        (1u32 << self.n) - 1
    }

    /// Bit-wise AND `ω₁ ∧ ω₂` (lattice meet).
    pub fn meet(&self, w1: u32, w2: u32) -> u32 {
        w1 & w2
    }

    /// Bit-wise OR `ω₁ ∨ ω₂` (lattice join).
    pub fn join(&self, w1: u32, w2: u32) -> u32 {
        w1 | w2
    }

    /// Bit-wise XOR `ω₁ ⊕ ω₂`.
    pub fn xor(&self, w1: u32, w2: u32) -> u32 {
        w1 ^ w2
    }

    /// The partial order `ω₁ ≼ ω₂`: every record in `ω₁` is in `ω₂`.
    pub fn leq(&self, w1: u32, w2: u32) -> bool {
        w1 & !w2 == 0
    }

    /// The empty set over this cube.
    pub fn empty_set(&self) -> WorldSet {
        WorldSet::empty(self.size())
    }

    /// The full set `Ω`.
    pub fn full_set(&self) -> WorldSet {
        WorldSet::full(self.size())
    }

    /// Builds a set from world bitmasks.
    pub fn set_from_masks<I: IntoIterator<Item = u32>>(&self, masks: I) -> WorldSet {
        WorldSet::from_indices(self.size(), masks)
    }

    /// Builds a set from a predicate on bitmasks.
    pub fn set_from_predicate(&self, mut pred: impl FnMut(u32) -> bool) -> WorldSet {
        WorldSet::from_predicate(self.size(), |w| pred(w.0))
    }

    /// The translation `z ⊕ A = {z ⊕ ω : ω ∈ A}`.
    pub fn translate(&self, z: u32, a: &WorldSet) -> WorldSet {
        assert_eq!(a.universe_size(), self.size(), "set not over this cube");
        let mut out = self.empty_set();
        for w in a {
            out.insert(WorldId(w.0 ^ z));
        }
        out
    }

    /// `true` iff `A` is an up-set: `ω ∈ A ∧ ω ≼ ω′ ⟹ ω′ ∈ A`.
    pub fn is_up_set(&self, a: &WorldSet) -> bool {
        assert_eq!(a.universe_size(), self.size(), "set not over this cube");
        a.iter().all(|w| {
            let mut absent = self.full_mask() & !w.0;
            while absent != 0 {
                let bit = absent & absent.wrapping_neg();
                if !a.contains(WorldId(w.0 | bit)) {
                    return false;
                }
                absent &= absent - 1;
            }
            true
        })
    }

    /// `true` iff `A` is a down-set: `ω ∈ A ∧ ω′ ≼ ω ⟹ ω′ ∈ A`.
    pub fn is_down_set(&self, a: &WorldSet) -> bool {
        assert_eq!(a.universe_size(), self.size(), "set not over this cube");
        a.iter().all(|w| {
            let mut present = w.0;
            while present != 0 {
                let bit = present & present.wrapping_neg();
                if !a.contains(WorldId(w.0 & !bit)) {
                    return false;
                }
                present &= present - 1;
            }
            true
        })
    }

    /// The up-closure `↑A`.
    pub fn up_closure(&self, a: &WorldSet) -> WorldSet {
        // Dynamic programming over coordinates: a world is in ↑A iff
        // clearing any one bit reaches ↑A ∪ A; sweep bit by bit.
        let mut out = a.clone();
        for i in 0..self.n {
            let bit = 1u32 << i;
            for w in 0..self.size() as u32 {
                if w & bit != 0 && out.contains(WorldId(w & !bit)) {
                    out.insert(WorldId(w));
                }
            }
        }
        out
    }

    /// The down-closure `↓A`.
    pub fn down_closure(&self, a: &WorldSet) -> WorldSet {
        let mut out = a.clone();
        for i in 0..self.n {
            let bit = 1u32 << i;
            for w in 0..self.size() as u32 {
                if w & bit == 0 && out.contains(WorldId(w | bit)) {
                    out.insert(WorldId(w));
                }
            }
        }
        out
    }

    /// The lattice image `A ∧ B = {a ∧ b : a ∈ A, b ∈ B}` of Theorem 5.3.
    pub fn meet_set(&self, a: &WorldSet, b: &WorldSet) -> WorldSet {
        let mut out = self.empty_set();
        for x in a {
            for y in b {
                out.insert(WorldId(x.0 & y.0));
            }
        }
        out
    }

    /// The lattice image `A ∨ B = {a ∨ b : a ∈ A, b ∈ B}` of Theorem 5.3.
    pub fn join_set(&self, a: &WorldSet, b: &WorldSet) -> WorldSet {
        let mut out = self.empty_set();
        for x in a {
            for y in b {
                out.insert(WorldId(x.0 | y.0));
            }
        }
        out
    }

    /// Coordinate `i` is *critical* for `A` (Miklau–Suciu, Theorem 5.7 /
    /// the "critical records" of \[21\]) iff flipping it can change
    /// membership: `∃ ω: [ω ∈ A] ≠ [ω ⊕ eᵢ ∈ A]`.
    ///
    /// Runs on the bitset's 64-bit blocks: coordinates below 6 pair worlds
    /// inside a block (a shift by `2ⁱ` and a mask of the worlds with bit
    /// `i` clear), higher ones pair whole blocks.
    pub fn is_critical(&self, a: &WorldSet, i: usize) -> bool {
        /// Per in-block coordinate: the worlds of a block with that bit clear.
        const LOW_HALF: [u64; 6] = [
            0x5555_5555_5555_5555,
            0x3333_3333_3333_3333,
            0x0F0F_0F0F_0F0F_0F0F,
            0x00FF_00FF_00FF_00FF,
            0x0000_FFFF_0000_FFFF,
            0x0000_0000_FFFF_FFFF,
        ];
        assert!(i < self.n);
        assert_eq!(a.universe_size(), self.size(), "set not over this cube");
        let blocks = a.blocks();
        if i < LOW_HALF.len() {
            // Padding bits past 2ⁿ are zero and only pair with each other.
            blocks
                .iter()
                .any(|&x| (x ^ (x >> (1 << i))) & LOW_HALF[i] != 0)
        } else {
            let stride = 1 << (i - LOW_HALF.len());
            (0..blocks.len())
                .filter(|j| j & stride == 0)
                .any(|j| blocks[j] != blocks[j | stride])
        }
    }

    /// The set of critical coordinates of `A`, as a bitmask.
    pub fn critical_coords(&self, a: &WorldSet) -> u32 {
        (0..self.n)
            .filter(|&i| self.is_critical(a, i))
            .fold(0u32, |m, i| m | (1 << i))
    }

    /// The restriction of `A` to the coordinates in `coords`: the set over
    /// `{0,1}^|coords|` whose world `v` is in it iff `A` holds at `v`'s bits
    /// spread onto `coords` in increasing order (the others clear). When
    /// no coordinate outside `coords` is critical for `A`, the values off
    /// `coords` are irrelevant and the restriction loses nothing: `A` is
    /// the cylinder over it.
    ///
    /// # Panics
    ///
    /// Panics unless `coords` is a non-empty subset of this cube's
    /// coordinates.
    pub fn restrict(&self, a: &WorldSet, coords: u32) -> WorldSet {
        assert!(
            coords != 0 && coords & !self.full_mask() == 0,
            "coordinates {coords:b} not a non-empty subset of the cube"
        );
        let positions: Vec<u32> = (0..self.n as u32)
            .filter(|i| coords >> i & 1 == 1)
            .collect();
        Cube::new(positions.len()).set_from_predicate(|v| {
            let w = positions
                .iter()
                .enumerate()
                .filter(|&(bit, _)| v >> bit & 1 == 1)
                .fold(0u32, |w, (_, &pos)| w | 1 << pos);
            a.contains(WorldId(w))
        })
    }

    /// Iterates over all world bitmasks.
    pub fn worlds(&self) -> impl Iterator<Item = u32> {
        0..(1u32 << self.n)
    }

    /// Hamming weight of a world.
    pub fn weight(&self, w: u32) -> u32 {
        w.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lattice_ops() {
        let c = Cube::new(4);
        assert_eq!(c.meet(0b1100, 0b1010), 0b1000);
        assert_eq!(c.join(0b1100, 0b1010), 0b1110);
        assert_eq!(c.xor(0b1100, 0b1010), 0b0110);
        assert!(c.leq(0b1000, 0b1100));
        assert!(!c.leq(0b1100, 0b1000));
        assert!(c.leq(0b0000, 0b0000));
    }

    #[test]
    fn up_down_sets() {
        let c = Cube::new(3);
        let up = c.set_from_masks([0b100, 0b101, 0b110, 0b111]);
        assert!(c.is_up_set(&up));
        assert!(!c.is_down_set(&up));
        let down = c.set_from_masks([0b000, 0b001]);
        assert!(c.is_down_set(&down));
        assert!(!c.is_up_set(&down));
        assert!(c.is_up_set(&c.full_set()));
        assert!(c.is_down_set(&c.full_set()));
        assert!(c.is_up_set(&c.empty_set()));
        assert!(c.is_down_set(&c.empty_set()));
    }

    #[test]
    fn closures() {
        let c = Cube::new(3);
        let a = c.set_from_masks([0b010]);
        assert_eq!(
            c.up_closure(&a),
            c.set_from_masks([0b010, 0b011, 0b110, 0b111])
        );
        assert_eq!(c.down_closure(&a), c.set_from_masks([0b000, 0b010]));
    }

    #[test]
    fn translation() {
        let c = Cube::new(3);
        let a = c.set_from_masks([0b001, 0b011]);
        let t = c.translate(0b111, &a);
        assert_eq!(t, c.set_from_masks([0b110, 0b100]));
        // Involution.
        assert_eq!(c.translate(0b111, &t), a);
    }

    #[test]
    fn meet_join_sets() {
        let c = Cube::new(2);
        let a = c.set_from_masks([0b01]);
        let b = c.set_from_masks([0b10, 0b11]);
        assert_eq!(c.meet_set(&a, &b), c.set_from_masks([0b00, 0b01]));
        assert_eq!(c.join_set(&a, &b), c.set_from_masks([0b11]));
    }

    #[test]
    fn critical_coordinates() {
        let c = Cube::new(3);
        // A depends only on coordinate 0.
        let a = c.set_from_predicate(|w| w & 1 == 1);
        assert_eq!(c.critical_coords(&a), 0b001);
        // Constant sets have no critical coordinates.
        assert_eq!(c.critical_coords(&c.full_set()), 0);
        assert_eq!(c.critical_coords(&c.empty_set()), 0);
        // Parity depends on every coordinate.
        let parity = c.set_from_predicate(|w| w.count_ones() % 2 == 0);
        assert_eq!(c.critical_coords(&parity), 0b111);
    }

    #[test]
    fn blockwise_criticality_matches_the_definition() {
        // n = 1..9 crosses every in-block shift and the block-pair path.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for n in 1..=9 {
            let c = Cube::new(n);
            for density in [0.0, 0.05, 0.5, 1.0] {
                let a = c.set_from_predicate(|_| rng.gen_bool(density));
                for i in 0..n {
                    let naive = c
                        .worlds()
                        .any(|w| a.contains(WorldId(w)) != a.contains(WorldId(w ^ 1 << i)));
                    assert_eq!(c.is_critical(&a, i), naive, "n={n} i={i} A={a:?}");
                }
            }
        }
    }

    #[test]
    fn restriction_to_the_critical_coordinates_is_lossless() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for n in 2..=9 {
            let c = Cube::new(n);
            for _ in 0..20 {
                // A cylinder over a random coordinate subset.
                let coords = rng.gen_range(1..=c.full_mask());
                let table: Vec<bool> = (0..1u32 << coords.count_ones())
                    .map(|_| rng.gen())
                    .collect();
                let small = Cube::new(coords.count_ones() as usize);
                let base = small.set_from_predicate(|v| table[v as usize]);
                let a = c.set_from_predicate(|w| {
                    let v = (0..n)
                        .filter(|&i| coords >> i & 1 == 1)
                        .enumerate()
                        .fold(0u32, |v, (bit, i)| v | (w >> i & 1) << bit);
                    table[v as usize]
                });
                assert_eq!(c.restrict(&a, coords), base);
                assert_eq!(c.critical_coords(&a) & !coords, 0);
                assert_eq!(c.restrict(&a, c.full_mask()), a);
            }
        }
    }

    #[test]
    #[should_panic(expected = "Cube supports")]
    fn oversized_cube_rejected() {
        let _ = Cube::new(MAX_DIMS + 1);
    }

    fn arb_set(n: usize) -> impl Strategy<Value = WorldSet> {
        let size = 1usize << n;
        proptest::collection::vec(any::<bool>(), size)
            .prop_map(move |bits| WorldSet::from_predicate(size, |w| bits[w.index()]))
    }

    proptest! {
        #[test]
        fn prop_up_closure_is_up_set(a in arb_set(4)) {
            let c = Cube::new(4);
            let up = c.up_closure(&a);
            prop_assert!(c.is_up_set(&up));
            prop_assert!(a.is_subset(&up));
            // Idempotent and minimal: every world of ↑A dominates some a∈A.
            prop_assert_eq!(c.up_closure(&up.clone()), up.clone());
            for w in &up {
                prop_assert!(a.iter().any(|x| c.leq(x.0, w.0)));
            }
        }

        #[test]
        fn prop_down_closure_is_down_set(a in arb_set(4)) {
            let c = Cube::new(4);
            let down = c.down_closure(&a);
            prop_assert!(c.is_down_set(&down));
            prop_assert!(a.is_subset(&down));
        }

        #[test]
        fn prop_up_down_duality(a in arb_set(4)) {
            // A up-set ⟺ complement is a down-set.
            let c = Cube::new(4);
            prop_assert_eq!(c.is_up_set(&a), c.is_down_set(&a.complement()));
        }

        #[test]
        fn prop_translate_preserves_size(a in arb_set(4), z in 0u32..16) {
            let c = Cube::new(4);
            prop_assert_eq!(c.translate(z, &a).len(), a.len());
        }

        #[test]
        fn prop_full_translation_swaps_up_down(a in arb_set(4)) {
            let c = Cube::new(4);
            let t = c.translate(c.full_mask(), &a);
            prop_assert_eq!(c.is_up_set(&a), c.is_down_set(&t));
        }
    }
}
