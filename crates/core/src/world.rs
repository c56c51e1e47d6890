//! Possible worlds and dense sets of worlds.
//!
//! Following Section 2 of the paper, the set `Ω` of all possible databases is
//! finite; a *world* `ω ∈ Ω` is a database, and every property of the
//! database is a subset `A ⊆ Ω`. Worlds are represented as `u32` indices into
//! a universe of known size, and subsets of `Ω` as dense bitsets
//! ([`WorldSet`]) so that the set algebra that dominates every privacy test
//! (`∩`, `∪`, `⊆`, complements, cardinalities) runs at memory bandwidth.

use std::fmt;
use std::hash::{Hash, Hasher};

/// An index identifying one world `ω ∈ Ω`.
///
/// A `WorldId` is only meaningful relative to a universe size carried by the
/// [`WorldSet`]s it is used with; the library checks bounds at the `WorldSet`
/// boundary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorldId(pub u32);

impl WorldId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for WorldId {
    fn from(i: u32) -> Self {
        WorldId(i)
    }
}

impl TryFrom<usize> for WorldId {
    type Error = crate::CoreError;

    /// Converts a raw index, failing (instead of panicking) on indices
    /// beyond `u32` — universes are bounded by `2³²` worlds, and callers
    /// deriving indices from untrusted input get a routable error.
    fn try_from(i: usize) -> Result<Self, Self::Error> {
        u32::try_from(i)
            .map(WorldId)
            .map_err(|_| crate::CoreError::WorldIndexOutOfRange { index: i })
    }
}

impl fmt::Debug for WorldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ω{}", self.0)
    }
}

impl fmt::Display for WorldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ω{}", self.0)
    }
}

const BLOCK_BITS: usize = 64;

/// Blocks a set stores inline, without a heap allocation: universes of
/// up to `4 · 64 = 256` worlds, i.e. cubes of up to eight records — the
/// common schema width, where every compile, complement and cache-key
/// clone would otherwise allocate.
const INLINE_BLOCKS: usize = 4;

/// The bitset's storage. Blocks past the universe's block count (inline
/// sets only) are always zero and never observed: every accessor goes
/// through [`WorldSet::blocks`].
#[derive(Clone)]
enum Blocks {
    Inline([u64; INLINE_BLOCKS]),
    Heap(Box<[u64]>),
}

/// A subset of a finite universe `Ω = {ω₀, …, ω_{n−1}}`, stored as a dense
/// bitset.
///
/// All binary operations require both operands to share the same universe
/// size and panic otherwise — mixing universes is always a logic error in
/// this domain (a property of one database schema applied to another).
///
/// Sets over at most 256 worlds keep their blocks inline; larger ones on
/// the heap. The representation is invisible: equality, hashing and
/// [`WorldSet::blocks`] see only the universe size and the canonical
/// blocks.
///
/// # Examples
///
/// ```
/// use epi_core::{WorldId, WorldSet};
/// let mut a = WorldSet::empty(8);
/// a.insert(WorldId(1));
/// a.insert(WorldId(3));
/// let b = WorldSet::from_indices(8, [3, 4]);
/// assert_eq!(a.intersection(&b).len(), 1);
/// assert!(a.union(&b).contains(WorldId(4)));
/// assert!(!a.is_subset(&b));
/// ```
#[derive(Clone)]
pub struct WorldSet {
    universe: usize,
    blocks: Blocks,
}

impl PartialEq for WorldSet {
    fn eq(&self, other: &WorldSet) -> bool {
        self.universe == other.universe && self.blocks() == other.blocks()
    }
}

impl Eq for WorldSet {}

impl Hash for WorldSet {
    /// Hashes exactly as the `(universe, Vec<u64>)` pair did, so hash-keyed
    /// state (verdict caches, dedup sets) is unchanged by the inline
    /// representation.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.universe.hash(state);
        self.blocks().hash(state);
    }
}

impl WorldSet {
    /// The empty subset of a universe with `universe` worlds.
    pub fn empty(universe: usize) -> WorldSet {
        let count = universe.div_ceil(BLOCK_BITS);
        let blocks = if count <= INLINE_BLOCKS {
            Blocks::Inline([0; INLINE_BLOCKS])
        } else {
            Blocks::Heap(vec![0; count].into_boxed_slice())
        };
        WorldSet { universe, blocks }
    }

    /// The full universe `Ω` of the given size.
    pub fn full(universe: usize) -> WorldSet {
        let mut s = WorldSet::empty(universe);
        s.blocks_mut().fill(u64::MAX);
        s.clear_padding();
        s
    }

    /// The singleton `{ω}`.
    pub fn singleton(universe: usize, w: WorldId) -> WorldSet {
        let mut s = WorldSet::empty(universe);
        s.insert(w);
        s
    }

    /// Builds a set from world indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_indices<I: IntoIterator<Item = u32>>(universe: usize, iter: I) -> WorldSet {
        let mut s = WorldSet::empty(universe);
        for i in iter {
            s.insert(WorldId(i));
        }
        s
    }

    /// Builds a set from a membership predicate evaluated on every world.
    pub fn from_predicate(universe: usize, mut pred: impl FnMut(WorldId) -> bool) -> WorldSet {
        let mut s = WorldSet::empty(universe);
        for i in 0..universe {
            let w = WorldId(i as u32);
            if pred(w) {
                s.insert(w);
            }
        }
        s
    }

    /// The worlds of the cube `{0,1}^dims` (universe `2^dims`, world `ω`
    /// read as a bitmask) whose coordinate `i` is 1, built a block at a
    /// time: a coordinate below 6 repeats one fixed pattern in every
    /// block, and a higher one fills a whole block with bit `i − 6` of
    /// the block's index. The blocks are written in place, so cubes of
    /// up to eight coordinates stay inline.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ dims` or `2^dims` overflows `usize`.
    pub fn coordinate(dims: usize, i: usize) -> WorldSet {
        const IN_BLOCK: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        assert!(i < dims, "coordinate {i} outside a {dims}-coordinate cube");
        assert!(
            dims < usize::BITS as usize,
            "a {dims}-coordinate cube overflows usize"
        );
        let mut s = WorldSet::empty(1 << dims);
        for (index, block) in s.blocks_mut().iter_mut().enumerate() {
            *block = match IN_BLOCK.get(i) {
                Some(&pattern) => pattern,
                None if index >> (i - IN_BLOCK.len()) & 1 == 1 => u64::MAX,
                None => 0,
            };
        }
        s.clear_padding();
        s
    }

    fn blocks_mut(&mut self) -> &mut [u64] {
        let count = self.universe.div_ceil(BLOCK_BITS);
        match &mut self.blocks {
            Blocks::Inline(inline) => &mut inline[..count],
            Blocks::Heap(heap) => heap,
        }
    }

    /// The set whose blocks are `f` applied blockwise to `self`'s and
    /// `other`'s.
    fn zip_with(&self, other: &WorldSet, f: impl Fn(u64, u64) -> u64) -> WorldSet {
        self.assert_same_universe(other);
        let mut out = WorldSet::empty(self.universe);
        for ((o, a), b) in out
            .blocks_mut()
            .iter_mut()
            .zip(self.blocks())
            .zip(other.blocks())
        {
            *o = f(*a, *b);
        }
        out
    }

    fn clear_padding(&mut self) {
        let tail = self.universe % BLOCK_BITS;
        if tail != 0 {
            if let Some(last) = self.blocks_mut().last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    fn assert_same_universe(&self, other: &WorldSet) {
        assert_eq!(
            self.universe, other.universe,
            "WorldSet universe mismatch: {} vs {}",
            self.universe, other.universe
        );
    }

    /// Number of worlds in the universe (not in this set).
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// The raw 64-bit blocks of the bitset, least-significant world
    /// first. Padding bits past `universe_size()` are always zero, so the
    /// blocks are a canonical encoding of the set — what the wire format
    /// and persistence layers serialize and checksum.
    pub fn blocks(&self) -> &[u64] {
        match &self.blocks {
            Blocks::Inline(inline) => &inline[..self.universe.div_ceil(BLOCK_BITS)],
            Blocks::Heap(heap) => heap,
        }
    }

    /// Rebuilds a set from raw blocks, the inverse of
    /// [`WorldSet::blocks`]. Returns `None` when the block count does not
    /// match the universe or a padding bit past `universe` is set (a
    /// corrupt or truncated encoding, never a valid set).
    pub fn from_blocks(universe: usize, blocks: Vec<u64>) -> Option<WorldSet> {
        if blocks.len() != universe.div_ceil(BLOCK_BITS) {
            return None;
        }
        let tail = universe % BLOCK_BITS;
        if tail != 0 && blocks.last().is_some_and(|&last| last >> tail != 0) {
            return None;
        }
        if blocks.len() <= INLINE_BLOCKS {
            let mut s = WorldSet::empty(universe);
            s.blocks_mut().copy_from_slice(&blocks);
            Some(s)
        } else {
            Some(WorldSet {
                universe,
                blocks: Blocks::Heap(blocks.into_boxed_slice()),
            })
        }
    }

    /// Number of worlds in this set.
    pub fn len(&self) -> usize {
        self.blocks().iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `true` iff the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.blocks().iter().all(|&b| b == 0)
    }

    /// `true` iff the set equals the whole universe.
    pub fn is_full(&self) -> bool {
        self.len() == self.universe
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of bounds for this universe.
    pub fn contains(&self, w: WorldId) -> bool {
        let i = w.index();
        assert!(
            i < self.universe,
            "world {} out of universe {}",
            i,
            self.universe
        );
        self.blocks()[i / BLOCK_BITS] >> (i % BLOCK_BITS) & 1 == 1
    }

    /// Inserts a world; returns `true` if it was newly added.
    pub fn insert(&mut self, w: WorldId) -> bool {
        let i = w.index();
        assert!(
            i < self.universe,
            "world {} out of universe {}",
            i,
            self.universe
        );
        let block = &mut self.blocks_mut()[i / BLOCK_BITS];
        let mask = 1u64 << (i % BLOCK_BITS);
        let fresh = *block & mask == 0;
        *block |= mask;
        fresh
    }

    /// Removes a world; returns `true` if it was present.
    pub fn remove(&mut self, w: WorldId) -> bool {
        let i = w.index();
        assert!(
            i < self.universe,
            "world {} out of universe {}",
            i,
            self.universe
        );
        let block = &mut self.blocks_mut()[i / BLOCK_BITS];
        let mask = 1u64 << (i % BLOCK_BITS);
        let present = *block & mask != 0;
        *block &= !mask;
        present
    }

    /// `self ∩ other`.
    pub fn intersection(&self, other: &WorldSet) -> WorldSet {
        self.zip_with(other, |a, b| a & b)
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &WorldSet) -> WorldSet {
        self.zip_with(other, |a, b| a | b)
    }

    /// `self − other`.
    pub fn difference(&self, other: &WorldSet) -> WorldSet {
        self.zip_with(other, |a, b| a & !b)
    }

    /// `Ω − self`.
    pub fn complement(&self) -> WorldSet {
        let mut s = self.clone();
        for b in s.blocks_mut() {
            *b = !*b;
        }
        s.clear_padding();
        s
    }

    /// In-place `self ∩= other`.
    pub fn intersect_with(&mut self, other: &WorldSet) {
        self.assert_same_universe(other);
        for (a, b) in self.blocks_mut().iter_mut().zip(other.blocks()) {
            *a &= b;
        }
    }

    /// In-place `self ∪= other`.
    pub fn union_with(&mut self, other: &WorldSet) {
        self.assert_same_universe(other);
        for (a, b) in self.blocks_mut().iter_mut().zip(other.blocks()) {
            *a |= b;
        }
    }

    /// `true` iff `self ⊆ other`.
    pub fn is_subset(&self, other: &WorldSet) -> bool {
        self.assert_same_universe(other);
        self.blocks()
            .iter()
            .zip(other.blocks())
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff `self ⊂ other` strictly.
    pub fn is_proper_subset(&self, other: &WorldSet) -> bool {
        self.is_subset(other) && self != other
    }

    /// `true` iff `self ∩ other = ∅`, without allocating.
    pub fn is_disjoint(&self, other: &WorldSet) -> bool {
        self.assert_same_universe(other);
        self.blocks()
            .iter()
            .zip(other.blocks())
            .all(|(a, b)| a & b == 0)
    }

    /// `true` iff `self ∩ other ≠ ∅`, without allocating.
    pub fn intersects(&self, other: &WorldSet) -> bool {
        !self.is_disjoint(other)
    }

    /// `|self ∩ other|` without allocating.
    pub fn intersection_len(&self, other: &WorldSet) -> usize {
        self.assert_same_universe(other);
        self.blocks()
            .iter()
            .zip(other.blocks())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the members in increasing index order.
    pub fn iter(&self) -> WorldSetIter<'_> {
        let blocks = self.blocks();
        WorldSetIter {
            blocks,
            block_idx: 0,
            current: blocks.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<WorldId> {
        self.iter().next()
    }

    /// An arbitrary member (the smallest), if any.
    pub fn any_member(&self) -> Option<WorldId> {
        self.first()
    }
}

impl fmt::Debug for WorldSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, w) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", w.0)?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the members of a [`WorldSet`].
pub struct WorldSetIter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for WorldSetIter<'_> {
    type Item = WorldId;

    fn next(&mut self) -> Option<WorldId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(WorldId((self.block_idx * BLOCK_BITS + bit) as u32));
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }
}

impl<'a> IntoIterator for &'a WorldSet {
    type Item = WorldId;
    type IntoIter = WorldSetIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Enumerates every subset of a universe of size `n` (for exhaustive
/// validation on small universes; `n ≤ 20` enforced).
pub fn all_subsets(universe: usize) -> impl Iterator<Item = WorldSet> {
    assert!(
        universe <= 20,
        "all_subsets is exponential; universe too large"
    );
    (0u64..(1u64 << universe)).map(move |mask| {
        let mut s = WorldSet::empty(universe);
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros();
            s.insert(WorldId(i));
            m &= m - 1;
        }
        s
    })
}

/// Enumerates every *non-empty* subset of a universe of size `n`.
pub fn all_nonempty_subsets(universe: usize) -> impl Iterator<Item = WorldSet> {
    all_subsets(universe).filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_full() {
        let e = WorldSet::empty(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = WorldSet::full(70);
        assert!(f.is_full());
        assert_eq!(f.len(), 70);
        assert!(f.contains(WorldId(69)));
        assert_eq!(f.complement(), e);
        assert_eq!(e.complement(), f);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = WorldSet::empty(100);
        assert!(s.insert(WorldId(63)));
        assert!(s.insert(WorldId(64)));
        assert!(!s.insert(WorldId(63)));
        assert!(s.contains(WorldId(63)));
        assert!(s.contains(WorldId(64)));
        assert!(!s.contains(WorldId(65)));
        assert!(s.remove(WorldId(63)));
        assert!(!s.remove(WorldId(63)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_bounds_contains_panics() {
        WorldSet::empty(4).contains(WorldId(4));
    }

    #[test]
    fn world_id_try_from_usize() {
        assert_eq!(WorldId::try_from(7usize), Ok(WorldId(7)));
        assert_eq!(WorldId::try_from(u32::MAX as usize), Ok(WorldId(u32::MAX)));
        let oversize = u32::MAX as usize + 1;
        assert_eq!(
            WorldId::try_from(oversize),
            Err(crate::CoreError::WorldIndexOutOfRange { index: oversize })
        );
        // The error routes through Display rather than a panic message.
        let err = WorldId::try_from(oversize).unwrap_err();
        assert!(err.to_string().contains("world index"));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let a = WorldSet::empty(4);
        let b = WorldSet::empty(5);
        let _ = a.union(&b);
    }

    #[test]
    fn set_algebra() {
        let a = WorldSet::from_indices(10, [1, 2, 3]);
        let b = WorldSet::from_indices(10, [3, 4]);
        assert_eq!(a.intersection(&b), WorldSet::from_indices(10, [3]));
        assert_eq!(a.union(&b), WorldSet::from_indices(10, [1, 2, 3, 4]));
        assert_eq!(a.difference(&b), WorldSet::from_indices(10, [1, 2]));
        assert!(a.intersects(&b));
        assert!(!a.is_disjoint(&b));
        assert_eq!(a.intersection_len(&b), 1);
        assert!(WorldSet::from_indices(10, [1, 2]).is_subset(&a));
        assert!(WorldSet::from_indices(10, [1, 2]).is_proper_subset(&a));
        assert!(!a.is_proper_subset(&a));
    }

    #[test]
    fn iteration_order() {
        let s = WorldSet::from_indices(130, [0, 63, 64, 127, 129]);
        let got: Vec<u32> = s.iter().map(|w| w.0).collect();
        assert_eq!(got, vec![0, 63, 64, 127, 129]);
        assert_eq!(s.first(), Some(WorldId(0)));
    }

    #[test]
    fn from_predicate_matches_manual() {
        let s = WorldSet::from_predicate(16, |w| w.0 % 3 == 0);
        assert_eq!(s, WorldSet::from_indices(16, [0, 3, 6, 9, 12, 15]));
    }

    #[test]
    fn coordinate_matches_its_bit_on_every_world() {
        // 1..=10 coordinates: less than a block, one block, inline, heap.
        for dims in 1..=10 {
            for i in 0..dims {
                let s = WorldSet::coordinate(dims, i);
                let want = WorldSet::from_predicate(1 << dims, |w| w.0 >> i & 1 == 1);
                assert_eq!(s, want, "dims {dims} coordinate {i}");
                assert_eq!(
                    WorldSet::from_blocks(1 << dims, s.blocks().to_vec()),
                    Some(want)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside a 3-coordinate cube")]
    fn coordinate_outside_the_cube_panics() {
        WorldSet::coordinate(3, 3);
    }

    #[test]
    fn all_subsets_count() {
        assert_eq!(all_subsets(4).count(), 16);
        assert_eq!(all_nonempty_subsets(4).count(), 15);
        // Every generated set is within bounds.
        for s in all_subsets(4) {
            assert!(s.len() <= 4);
            assert_eq!(s.universe_size(), 4);
        }
    }

    /// The `(universe, Vec<u64>)` layout `WorldSet` had before small sets
    /// went inline, with the set algebra done by hand on the vector: the
    /// reference model the representation tests check against.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct VecModel {
        universe: usize,
        blocks: Vec<u64>,
    }

    impl VecModel {
        fn of(s: &WorldSet) -> VecModel {
            VecModel {
                universe: s.universe_size(),
                blocks: s.blocks().to_vec(),
            }
        }

        /// Random canonical blocks for `universe` (padding cleared).
        fn from_raw(universe: usize, raw: &[u64]) -> VecModel {
            let mut blocks = raw[..universe.div_ceil(BLOCK_BITS)].to_vec();
            if !universe.is_multiple_of(BLOCK_BITS) {
                *blocks.last_mut().unwrap() &= (1u64 << (universe % BLOCK_BITS)) - 1;
            }
            VecModel { universe, blocks }
        }

        fn set(&self) -> WorldSet {
            WorldSet::from_blocks(self.universe, self.blocks.clone()).expect("canonical blocks")
        }

        fn zip(&self, other: &VecModel, f: impl Fn(u64, u64) -> u64) -> VecModel {
            VecModel {
                universe: self.universe,
                blocks: self
                    .blocks
                    .iter()
                    .zip(&other.blocks)
                    .map(|(a, b)| f(*a, *b))
                    .collect(),
            }
        }

        fn count(&self) -> usize {
            self.blocks.iter().map(|b| b.count_ones() as usize).sum()
        }

        fn bit(&self, i: usize) -> bool {
            self.blocks[i / BLOCK_BITS] >> (i % BLOCK_BITS) & 1 == 1
        }
    }

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// Universes either side of the inline/heap boundary (256 worlds).
    const BOUNDARY_UNIVERSES: [usize; 4] = [255, 256, 257, 512];

    #[test]
    fn representation_boundaries_round_trip_and_hash_like_vec() {
        for universe in BOUNDARY_UNIVERSES {
            let s =
                WorldSet::from_predicate(universe, |w| w.0 % 3 == 0 || w.index() == universe - 1);
            assert_eq!(s.blocks().len(), universe.div_ceil(BLOCK_BITS));
            let back = WorldSet::from_blocks(universe, s.blocks().to_vec()).expect("round trip");
            assert_eq!(back, s);
            assert_eq!(back.blocks(), s.blocks());
            assert_eq!(
                hash_of(&s),
                hash_of(&VecModel::of(&s)),
                "universe {universe}"
            );
            assert_eq!(hash_of(&back), hash_of(&s));
            // Equal blocks under different universes stay distinct sets.
            let empty = WorldSet::empty(universe);
            assert_ne!(empty, WorldSet::empty(universe + 1));
            assert_eq!(hash_of(&empty), hash_of(&VecModel::of(&empty)));

            // Complement clears the padding past the universe, so the
            // blocks stay canonical and `from_blocks` accepts them.
            let c = s.complement();
            assert_eq!(c.len(), universe - s.len());
            if !universe.is_multiple_of(BLOCK_BITS) {
                assert_eq!(c.blocks().last().unwrap() >> (universe % BLOCK_BITS), 0);
            }
            assert_eq!(
                WorldSet::from_blocks(universe, c.blocks().to_vec()),
                Some(c)
            );
            assert_eq!(WorldSet::full(universe).complement(), empty);
            assert_eq!(WorldSet::full(universe).len(), universe);

            // Corrupt encodings are rejected at every width.
            let mut short = s.blocks().to_vec();
            short.pop();
            assert_eq!(WorldSet::from_blocks(universe, short), None);
            if !universe.is_multiple_of(BLOCK_BITS) {
                let mut padded = s.blocks().to_vec();
                *padded.last_mut().unwrap() |= 1 << (universe % BLOCK_BITS);
                assert_eq!(WorldSet::from_blocks(universe, padded), None);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_set_algebra_matches_vec_model(
            pick in 0..BOUNDARY_UNIVERSES.len(),
            raw_a in proptest::collection::vec(any::<u64>(), 8),
            raw_b in proptest::collection::vec(any::<u64>(), 8),
            world in any::<u32>(),
        ) {
            let universe = BOUNDARY_UNIVERSES[pick];
            let (ma, mb) = (VecModel::from_raw(universe, &raw_a), VecModel::from_raw(universe, &raw_b));
            let (a, b) = (ma.set(), mb.set());
            prop_assert_eq!(VecModel::of(&a.intersection(&b)), ma.zip(&mb, |x, y| x & y));
            prop_assert_eq!(VecModel::of(&a.union(&b)), ma.zip(&mb, |x, y| x | y));
            prop_assert_eq!(VecModel::of(&a.difference(&b)), ma.zip(&mb, |x, y| x & !y));
            let full = VecModel::of(&WorldSet::full(universe));
            prop_assert_eq!(VecModel::of(&a.complement()), ma.zip(&full, |x, f| !x & f));
            let mut inter = a.clone();
            inter.intersect_with(&b);
            prop_assert_eq!(VecModel::of(&inter), ma.zip(&mb, |x, y| x & y));
            let mut uni = a.clone();
            uni.union_with(&b);
            prop_assert_eq!(VecModel::of(&uni), ma.zip(&mb, |x, y| x | y));
            prop_assert_eq!(a.len(), ma.count());
            prop_assert_eq!(a.is_empty(), ma.count() == 0);
            prop_assert_eq!(a.is_full(), ma.count() == universe);
            prop_assert_eq!(a.is_subset(&b), ma.zip(&mb, |x, y| x & !y).count() == 0);
            prop_assert_eq!(a.is_disjoint(&b), ma.zip(&mb, |x, y| x & y).count() == 0);
            prop_assert_eq!(a.intersects(&b), !a.is_disjoint(&b));
            prop_assert_eq!(a.intersection_len(&b), ma.zip(&mb, |x, y| x & y).count());
            prop_assert_eq!(a == b, ma == mb);
            prop_assert_eq!(hash_of(&a), hash_of(&ma));
            let members: Vec<usize> = a.iter().map(WorldId::index).collect();
            let model_members: Vec<usize> = (0..universe).filter(|&i| ma.bit(i)).collect();
            prop_assert_eq!(members, model_members);

            let i = world as usize % universe;
            let mut s = a.clone();
            prop_assert_eq!(s.contains(WorldId(i as u32)), ma.bit(i));
            prop_assert_eq!(s.insert(WorldId(i as u32)), !ma.bit(i));
            prop_assert!(s.contains(WorldId(i as u32)));
            prop_assert!(s.remove(WorldId(i as u32)));
            prop_assert!(!s.contains(WorldId(i as u32)));
            prop_assert_eq!(s.len(), ma.count() - usize::from(ma.bit(i)));
        }
    }

    fn arb_set(universe: usize) -> impl Strategy<Value = WorldSet> {
        proptest::collection::vec(any::<bool>(), universe)
            .prop_map(move |bits| WorldSet::from_predicate(universe, |w| bits[w.index()]))
    }

    proptest! {
        #[test]
        fn prop_de_morgan(a in arb_set(80), b in arb_set(80)) {
            prop_assert_eq!(
                a.union(&b).complement(),
                a.complement().intersection(&b.complement())
            );
            prop_assert_eq!(
                a.intersection(&b).complement(),
                a.complement().union(&b.complement())
            );
        }

        #[test]
        fn prop_difference_is_intersection_with_complement(a in arb_set(80), b in arb_set(80)) {
            prop_assert_eq!(a.difference(&b), a.intersection(&b.complement()));
        }

        #[test]
        fn prop_len_inclusion_exclusion(a in arb_set(80), b in arb_set(80)) {
            prop_assert_eq!(
                a.union(&b).len() + a.intersection(&b).len(),
                a.len() + b.len()
            );
        }

        #[test]
        fn prop_subset_iff_difference_empty(a in arb_set(40), b in arb_set(40)) {
            prop_assert_eq!(a.is_subset(&b), a.difference(&b).is_empty());
        }

        #[test]
        fn prop_iter_roundtrip(a in arb_set(100)) {
            let rebuilt = WorldSet::from_indices(100, a.iter().map(|w| w.0));
            prop_assert_eq!(rebuilt, a);
        }

        #[test]
        fn prop_intersection_len_matches(a in arb_set(100), b in arb_set(100)) {
            prop_assert_eq!(a.intersection_len(&b), a.intersection(&b).len());
        }
    }
}
