//! Cross-crate property tests for the symmetry laws the theory demands.
//!
//! `Safe_Π(A, B) ⟺ ∀P: P[AB] ≤ P[A]·P[B]` is symmetric in `A` and `B`,
//! invariant under relabeling coordinates, and (for the coordinate-wise
//! families) invariant under flipping all bits (`pᵢ ↦ 1 − pᵢ`). Every
//! criterion and solver must respect these symmetries — a cheap, brutal
//! detector of asymmetric implementation bugs.

use epi_audit::{Auditor, Finding, PriorAssumption};
use epi_boolean::criteria::{cancellation, miklau_suciu, monotonicity, necessary, supermodular};
use epi_boolean::{generate, Cube, MatchVector, RationalProductDist};
use epi_core::{WorldId, WorldSet};
use epi_solver::{
    decide_product_pipeline, decide_product_safety, ProductSolverOptions, Stage, Verdict,
};
use rand::{Rng, SeedableRng};

fn permute_set(cube: &Cube, s: &WorldSet, perm: &[usize]) -> WorldSet {
    cube.set_from_predicate(|w| {
        // Apply the inverse permutation to the world before membership.
        let mut orig = 0u32;
        for (new_pos, &old_pos) in perm.iter().enumerate() {
            if w >> new_pos & 1 == 1 {
                orig |= 1 << old_pos;
            }
        }
        s.contains(WorldId(orig))
    })
}

fn flip_set(cube: &Cube, s: &WorldSet) -> WorldSet {
    cube.translate(cube.full_mask(), s)
}

#[test]
fn criteria_are_symmetric_in_a_and_b() {
    let cube = Cube::new(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    for _ in 0..200 {
        let a = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        let b = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        assert_eq!(
            miklau_suciu::independent(&cube, &a, &b),
            miklau_suciu::independent(&cube, &b, &a)
        );
        assert_eq!(
            monotonicity::safe_monotone(&cube, &a, &b),
            monotonicity::safe_monotone(&cube, &b, &a)
        );
        assert_eq!(
            cancellation::cancellation(&cube, &a, &b),
            cancellation::cancellation(&cube, &b, &a),
            "cancellation must be symmetric: A={a:?} B={b:?}"
        );
        assert_eq!(
            necessary::necessary_product(&cube, &a, &b),
            necessary::necessary_product(&cube, &b, &a)
        );
        assert_eq!(
            supermodular::necessary_supermodular(&cube, &a, &b),
            supermodular::necessary_supermodular(&cube, &b, &a)
        );
    }
}

#[test]
fn solver_is_symmetric_in_a_and_b() {
    let cube = Cube::new(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(37);
    for _ in 0..60 {
        let a = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        let b = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        let ab = decide_product_safety(&cube, &a, &b, ProductSolverOptions::default()).0;
        let ba = decide_product_safety(&cube, &b, &a, ProductSolverOptions::default()).0;
        assert_eq!(ab.is_safe(), ba.is_safe(), "A={a:?} B={b:?}");
        assert_eq!(ab.is_unsafe(), ba.is_unsafe());
    }
}

#[test]
fn criteria_invariant_under_coordinate_permutation() {
    let cube = Cube::new(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    for _ in 0..100 {
        let a = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        let b = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        // Random permutation of the 4 coordinates.
        let mut perm: Vec<usize> = (0..4).collect();
        for i in 0..4 {
            let j = rng.gen_range(i..4);
            perm.swap(i, j);
        }
        let pa = permute_set(&cube, &a, &perm);
        let pb = permute_set(&cube, &b, &perm);
        assert_eq!(pa.len(), a.len());
        assert_eq!(
            cancellation::cancellation(&cube, &a, &b),
            cancellation::cancellation(&cube, &pa, &pb),
            "cancellation must be permutation-invariant"
        );
        assert_eq!(
            miklau_suciu::independent(&cube, &a, &b),
            miklau_suciu::independent(&cube, &pa, &pb)
        );
        assert_eq!(
            monotonicity::safe_monotone(&cube, &a, &b),
            monotonicity::safe_monotone(&cube, &pa, &pb)
        );
        assert_eq!(
            necessary::necessary_product(&cube, &a, &b),
            necessary::necessary_product(&cube, &pa, &pb)
        );
    }
}

#[test]
fn criteria_invariant_under_global_bit_flip() {
    // pᵢ ↦ 1 − pᵢ maps the product family onto itself, so flipping every
    // coordinate of both sets preserves product-safety — and each
    // coordinate-wise criterion.
    let cube = Cube::new(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    for _ in 0..100 {
        let a = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        let b = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        let fa = flip_set(&cube, &a);
        let fb = flip_set(&cube, &b);
        assert_eq!(
            cancellation::cancellation(&cube, &a, &b),
            cancellation::cancellation(&cube, &fa, &fb)
        );
        assert_eq!(
            miklau_suciu::independent(&cube, &a, &b),
            miklau_suciu::independent(&cube, &fa, &fb)
        );
        assert_eq!(
            monotonicity::safe_monotone(&cube, &a, &b),
            monotonicity::safe_monotone(&cube, &fa, &fb)
        );
        assert_eq!(
            necessary::necessary_product(&cube, &a, &b),
            necessary::necessary_product(&cube, &fa, &fb)
        );
    }
}

#[test]
fn solver_invariant_under_global_bit_flip() {
    let cube = Cube::new(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    for _ in 0..60 {
        let a = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        let b = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        let fa = flip_set(&cube, &a);
        let fb = flip_set(&cube, &b);
        let orig = decide_product_safety(&cube, &a, &b, ProductSolverOptions::default()).0;
        let flipped = decide_product_safety(&cube, &fa, &fb, ProductSolverOptions::default()).0;
        assert_eq!(orig.is_safe(), flipped.is_safe(), "A={a:?} B={b:?}");
    }
}

#[test]
fn tautologies_and_contradictions_are_universally_safe() {
    // B = Ω discloses nothing; B with A∩B = ∅ discloses "not A".
    let cube = Cube::new(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(53);
    for _ in 0..50 {
        let a = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        assert!(cancellation::cancellation(&cube, &a, &cube.full_set()));
        let not_a = a.complement();
        if !not_a.is_empty() {
            let v = decide_product_safety(&cube, &a, &not_a, ProductSolverOptions::default()).0;
            assert!(v.is_safe(), "disclosing ¬A cannot raise confidence in A");
        }
    }
}

// ---------------------------------------------------------------------
// Support projection: a pair over `n` records embedded into `n + k`
// records (a cylinder over `n` of them) is the same question. The gap
// polynomial ignores the added records, every criterion decides the same
// way at both widths, and the pipeline — which decides on the pair's
// support — returns the same finding, stage and explanation, with the
// witness lifted by `pᵢ = 1` on the added records.
// ---------------------------------------------------------------------

/// Spreads the low bits of `v` onto `positions` (increasing).
fn deposit(v: u32, positions: &[usize]) -> u32 {
    positions
        .iter()
        .enumerate()
        .fold(0, |w, (bit, &pos)| w | (v >> bit & 1) << pos)
}

/// Gathers the bits of `w` at `positions` into the low bits.
fn extract(w: u32, positions: &[usize]) -> u32 {
    positions
        .iter()
        .enumerate()
        .fold(0, |v, (bit, &pos)| v | (w >> pos & 1) << bit)
}

/// The cylinder over `positions` of a set over `{0,1}^positions.len()`.
fn embed(big: &Cube, s: &WorldSet, positions: &[usize]) -> WorldSet {
    big.set_from_predicate(|w| s.contains(WorldId(extract(w, positions))))
}

/// A small-width match vector lifted to `big`: its pattern on
/// `positions`, the value 1 on every other record.
fn lift_box(big: &Cube, w: MatchVector, positions: &[usize]) -> MatchVector {
    let added = big.full_mask() & !deposit(u32::MAX, positions);
    MatchVector::new(
        deposit(w.stars, positions),
        deposit(w.values, positions) | added,
    )
}

/// The small-width explanation with its witness vector lifted: the
/// embedded pair's explanation must read exactly like this.
fn lift_explanation(explanation: &str, big: &Cube, positions: &[usize]) -> String {
    let (Some(open), Some(close)) = (explanation.find('['), explanation.find(']')) else {
        return explanation.to_owned();
    };
    let small: Vec<&str> = explanation[open + 1..close].split(", ").collect();
    let mut small = small.into_iter();
    let lifted: Vec<&str> = (0..big.dims())
        .map(|i| match positions.contains(&i) {
            true => small.next().expect("one probability per record"),
            false => "1.0",
        })
        .collect();
    format!(
        "{}{}{}",
        &explanation[..=open],
        lifted.join(", "),
        &explanation[close..]
    )
}

/// Random strictly increasing positions for `n` records among `big`'s.
fn random_positions(big: &Cube, n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut positions: Vec<usize> = (0..big.dims()).collect();
    while positions.len() > n {
        positions.remove(rng.gen_range(0..positions.len()));
    }
    positions
}

/// Checks one small pair against its embedding at `positions`.
fn assert_embedding_preserves_decisions(
    small: &Cube,
    a: &WorldSet,
    b: &WorldSet,
    big: &Cube,
    positions: &[usize],
) {
    let (ea, eb) = (embed(big, a, positions), embed(big, b, positions));
    let ctx = format!(
        "n={} → {} at {positions:?}: A={a:?} B={b:?}",
        small.dims(),
        big.dims()
    );
    assert_eq!(
        miklau_suciu::safe_miklau_suciu(small, a, b),
        miklau_suciu::safe_miklau_suciu(big, &ea, &eb),
        "Miklau–Suciu, {ctx}"
    );
    assert_eq!(
        monotonicity::safe_monotone(small, a, b),
        monotonicity::safe_monotone(big, &ea, &eb),
        "monotonicity, {ctx}"
    );
    assert_eq!(
        cancellation::cancellation(small, a, b),
        cancellation::cancellation(big, &ea, &eb),
        "cancellation, {ctx}"
    );
    assert_eq!(
        necessary::failing_box(small, a, b).map(|w| lift_box(big, w, positions)),
        necessary::failing_box(big, &ea, &eb),
        "first failing box, {ctx}"
    );

    let auditor = Auditor::new(PriorAssumption::Product);
    let narrow = auditor.decide_sets(small, a, b);
    let wide = auditor.decide_sets(big, &ea, &eb);
    assert_eq!(narrow.finding, wide.finding, "finding, {ctx}");
    assert_eq!(narrow.stage, wide.stage, "stage, {ctx}");
    assert_eq!(
        lift_explanation(&narrow.explanation, big, positions),
        wide.explanation,
        "explanation, {ctx}"
    );

    let pipeline = decide_product_pipeline(big, &ea, &eb, ProductSolverOptions::default());
    let support = epi_solver::pipeline::support(small, a, b);
    assert_eq!(
        pipeline.support_dims,
        support.count_ones() as usize,
        "{ctx}"
    );
    if let Verdict::Unsafe(w) = &pipeline.verdict {
        assert_eq!(w.probs.len(), big.dims());
        let gap = RationalProductDist::new(w.probs.clone())
            .unwrap()
            .safety_gap(&ea, &eb);
        assert_eq!(gap, w.gap, "lifted witness gap must be exact, {ctx}");
        assert!(gap.is_negative());
    }
    // The unprojected branch-and-bound on the full-width sets agrees.
    let direct = decide_product_safety(big, &ea, &eb, ProductSolverOptions::default()).0;
    assert_eq!(
        direct.is_safe(),
        pipeline.verdict.is_safe(),
        "direct B&B, {ctx}"
    );
    assert_eq!(
        direct.is_unsafe(),
        pipeline.verdict.is_unsafe(),
        "direct B&B, {ctx}"
    );
}

#[test]
fn embedding_into_unused_records_preserves_every_decision() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(59);
    for case in 0..48 {
        let n = 2 + case % 4;
        let small = Cube::new(n);
        let big = Cube::new(rng.gen_range(n + 1..=10));
        let positions = random_positions(&big, n, &mut rng);
        let a = generate::random_nonempty_set(&small, 0.45, &mut rng);
        let b = generate::random_nonempty_set(&small, 0.45, &mut rng);
        assert_embedding_preserves_decisions(&small, &a, &b, &big, &positions);
    }
}

#[test]
fn embedding_remark_5_12_pairs_preserves_every_decision() {
    // The pair that defeats every criterion, also A↔B swapped and
    // bit-flipped: the embedded copy must still reach branch-and-bound
    // and certify safe. (The unprojected solve this checks against costs
    // ~25 s at 10 records in a debug build, so these stop at 8; the
    // random pairs above reach 10.)
    let (small, a, b) = epi_bench::remark_5_12_pair();
    let (fa, fb) = (flip_set(&small, &a), flip_set(&small, &b));
    let mut rng = rand::rngs::StdRng::seed_from_u64(61);
    for (width, a, b) in [(4, &a, &b), (5, &b, &a), (6, &fa, &fb), (8, &fb, &fa)] {
        let big = Cube::new(width);
        let positions = random_positions(&big, small.dims(), &mut rng);
        assert_embedding_preserves_decisions(&small, a, b, &big, &positions);
        let wide = Auditor::new(PriorAssumption::Product).decide_sets(
            &big,
            &embed(&big, a, &positions),
            &embed(&big, b, &positions),
        );
        assert_eq!(wide.stage, Some(Stage::BranchAndBound));
        assert!(wide.finding == Finding::Safe, "{wide:?}");
    }
}

#[test]
fn single_record_support_decides_on_one_coordinate() {
    let small = Cube::new(1);
    let x = small.set_from_masks([1]);
    let not_x = small.set_from_masks([0]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(67);
    for width in [2usize, 5, 9] {
        let big = Cube::new(width);
        let positions = random_positions(&big, 1, &mut rng);
        for (a, b) in [(&x, &x), (&x, &not_x), (&not_x, &not_x)] {
            assert_embedding_preserves_decisions(&small, a, b, &big, &positions);
            let (ea, eb) = (embed(&big, a, &positions), embed(&big, b, &positions));
            let d = decide_product_pipeline(&big, &ea, &eb, ProductSolverOptions::default());
            assert_eq!(d.support_dims, 1);
        }
    }
}
