//! The production decision pipeline for product-distribution privacy.
//!
//! Orders the Section 5/6 machinery from cheapest to most expensive, the
//! way an auditor would deploy it:
//!
//! 1. **unconditional** — Theorem 3.11 (`AB = ∅` or `A ∪ B = Ω`): safe for
//!    *every* prior, not just products;
//! 2. **Miklau–Suciu** (Theorem 5.7) — linear scan of critical coordinates;
//! 3. **monotonicity** (Corollary 5.5 + mask search) — `O(n·2ⁿ)`;
//! 4. **cancellation** (Proposition 5.9) — one pass over the region pairs;
//! 5. **box-counting necessary criterion** (Proposition 5.10) — a failing
//!    box yields an exact refuting product prior;
//! 6. **branch-and-bound** (Section 6.1 substitute) — complete, with exact
//!    rational refutation witnesses and ε-margin safety certificates.
//!
//! Stages 2–6 run on the pair's support: the records `A` or `B` depends
//! on (see [`support`] and DESIGN §5.1). The pipeline records which stage
//! decided, so experiments E7/E8 can report stage hit-rates.

use crate::product::{decide_product_safety_deadline, ProductSolverOptions, ProductWitness};
use crate::verdict::{SafeEvidence, UndecidedReason, Verdict};
use epi_boolean::criteria::{cancellation, miklau_suciu, monotonicity, necessary};
use epi_boolean::{Cube, MatchVector};
use epi_core::{unrestricted, Deadline, WorldSet};
use epi_num::Rational;
use std::time::Instant;

/// Which pipeline stage produced the decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Theorem 3.11.
    Unconditional,
    /// Theorem 5.7.
    MiklauSuciu,
    /// Corollary 5.5 / masked monotonicity.
    Monotonicity,
    /// Proposition 5.9.
    Cancellation,
    /// Proposition 5.10 (refutation only).
    BoxNecessary,
    /// Complete branch-and-bound.
    BranchAndBound,
}

impl Stage {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Unconditional => "unconditional (Thm 3.11)",
            Stage::MiklauSuciu => "Miklau–Suciu (Thm 5.7)",
            Stage::Monotonicity => "monotonicity (Cor 5.5)",
            Stage::Cancellation => "cancellation (Prop 5.9)",
            Stage::BoxNecessary => "box criterion (Prop 5.10)",
            Stage::BranchAndBound => "branch-and-bound (§6.1)",
        }
    }

    /// Machine-friendly label: lower_snake_case, stable across releases —
    /// the spelling metrics registries and trace spans key on.
    pub fn metric_label(self) -> &'static str {
        match self {
            Stage::Unconditional => "unconditional",
            Stage::MiklauSuciu => "miklau_suciu",
            Stage::Monotonicity => "monotonicity",
            Stage::Cancellation => "cancellation",
            Stage::BoxNecessary => "box_necessary",
            Stage::BranchAndBound => "branch_and_bound",
        }
    }
}

/// Callback invoked once per *attempted* pipeline stage with the stage
/// and its elapsed microseconds — including stages that did not decide
/// (their rejection still cost time). Used by the auditing service to
/// emit per-stage trace spans without the solver depending on any
/// tracing crate.
pub type StageObserver<'a> = &'a mut dyn FnMut(Stage, u64);

/// A pipeline decision with provenance.
#[derive(Clone, Debug)]
pub struct PipelineDecision {
    /// The three-valued verdict (witnesses from the refuting stages).
    pub verdict: Verdict<ProductWitness>,
    /// The stage that decided.
    pub stage: Stage,
    /// Boxes the branch-and-bound committed (0 when an earlier stage
    /// decided) — the service aggregates this into its throughput
    /// metrics.
    pub boxes_processed: usize,
    /// Frontier waves the branch-and-bound committed (0 when an earlier
    /// stage decided).
    pub waves: usize,
    /// Set iff `verdict` is `Unknown`: why the decision gave up.
    /// Deadline/cancellation stops are transient; budget exhaustion is a
    /// property of the instance. Either way, callers fail closed.
    pub undecided: Option<UndecidedReason>,
    /// The exact safety margin `P[A]·P[B] − P[AB]` at the **uniform
    /// prior** (every atom at probability ½ — a member of the product
    /// family, so a `Safe` verdict certifies this margin is
    /// non-negative). Computed once per decision from world counts; see
    /// `epi_core::risk` for the normalized score derived from it.
    pub uniform_margin: Rational,
    /// Records the pair's gap depends on, `|crit(A) ∪ crit(B)|` (see
    /// [`support`]): the width stages 2–6 ran at. Stage 1 always runs on
    /// the full sets; a pair it decides may have support 0 (`A`, `B`
    /// each `∅` or `Ω`).
    pub support_dims: usize,
}

impl PipelineDecision {
    /// The uniform-prior margin as a float, for display and metrics.
    pub fn uniform_margin_f64(&self) -> f64 {
        self.uniform_margin.to_f64()
    }

    /// The normalized risk score of this decision in micro-units
    /// (`0 ..= 1_000_000`): the uniform-prior confidence ratio for
    /// decided-safe verdicts, saturated for refuted or undecided ones
    /// (an undecided question must price as if it breached — fail
    /// closed).
    pub fn risk_micros(&self, a: &WorldSet, b: &WorldSet) -> u32 {
        if self.verdict.is_safe() {
            epi_core::risk::UniformMargin::from_sets(a, b).risk_micros()
        } else {
            epi_core::risk::RISK_SCALE as u32
        }
    }
}

/// Runs the full cascade for `Safe_{Π_m⁰}(A, B)`.
pub fn decide_product_pipeline(
    cube: &Cube,
    a: &WorldSet,
    b: &WorldSet,
    bnb_options: ProductSolverOptions,
) -> PipelineDecision {
    decide_product_pipeline_deadline(cube, a, b, bnb_options, &Deadline::none())
}

/// [`decide_product_pipeline`] under a [`Deadline`]. The cheap criteria
/// stages (1–4) always run to completion — they are microseconds even at
/// the maximum supported arity — while the expensive tail (box
/// refutation search, branch-and-bound) is skipped or interrupted once
/// the deadline fires, yielding `Verdict::Unknown` with
/// [`PipelineDecision::undecided`] set. Timed-out decisions must be
/// treated as unsafe by callers (fail closed).
pub fn decide_product_pipeline_deadline(
    cube: &Cube,
    a: &WorldSet,
    b: &WorldSet,
    bnb_options: ProductSolverOptions,
    deadline: &Deadline,
) -> PipelineDecision {
    decide_product_pipeline_observed(cube, a, b, bnb_options, deadline, &mut |_, _| {})
}

/// The pair's support `crit(A) ∪ crit(B)` as a coordinate mask: the
/// records the gap polynomial `P[A]·P[B] − P[AB]` depends on. Both sets
/// are cylinders over it, so stages 2–6 decide the pair on its
/// restriction to these records ([`Cube::restrict`]).
pub fn support(cube: &Cube, a: &WorldSet, b: &WorldSet) -> u32 {
    cube.critical_coords(a) | cube.critical_coords(b)
}

/// [`decide_product_pipeline_deadline`] reporting each attempted stage
/// and its wall time to `observe`. Observation is a pure side channel:
/// the decision and its witnesses are identical with any observer, so
/// byte-for-byte determinism of traced runs is preserved.
///
/// After the unconditional stage, a pair whose [`support`] is narrower
/// than the cube is decided on its restriction to the support, and an
/// `Unsafe` witness is lifted back with `pᵢ = 1` on every other record.
/// The lift is exact (the gap ignores those records) and reproduces the
/// full-width first failing box of Proposition 5.10; every criterion
/// scales by the same factor on both sides, so the deciding stage is the
/// one the full-width cascade would report. The uniform margin stays on
/// the full sets.
pub fn decide_product_pipeline_observed(
    cube: &Cube,
    a: &WorldSet,
    b: &WorldSet,
    bnb_options: ProductSolverOptions,
    deadline: &Deadline,
    observe: StageObserver<'_>,
) -> PipelineDecision {
    // The uniform-prior margin is a pure count computation — exact, a
    // few popcounts — so every exit path below carries it.
    let uniform_margin = {
        let m = epi_core::risk::UniformMargin::from_sets(a, b);
        Rational::new(m.gap_numerator(), m.gap_denominator() as i128)
    };
    let support = support(cube, a, b);
    let support_dims = support.count_ones() as usize;
    let started = Instant::now();
    let unconditional = unrestricted::safe_unrestricted(a, b);
    observe(Stage::Unconditional, elapsed_micros(started));
    let mut decision = if unconditional {
        decided(
            Verdict::Safe(SafeEvidence::Unconditional),
            Stage::Unconditional,
        )
    } else if support_dims < cube.dims() {
        // Stage 1 failed, so neither set is ∅ or Ω and the support is
        // non-empty.
        let mut d = decide_criteria_and_search(
            &Cube::new(support_dims),
            &cube.restrict(a, support),
            &cube.restrict(b, support),
            bnb_options,
            deadline,
            observe,
        );
        if let Verdict::Unsafe(w) = &mut d.verdict {
            let mut projected = w.probs.iter();
            w.probs = (0..cube.dims())
                .map(|i| match support >> i & 1 {
                    1 => *projected
                        .next()
                        .expect("one probability per support record"),
                    _ => Rational::ONE,
                })
                .collect();
        }
        d
    } else {
        decide_criteria_and_search(cube, a, b, bnb_options, deadline, observe)
    };
    decision.uniform_margin = uniform_margin;
    decision.support_dims = support_dims;
    decision
}

/// Microseconds since `started`, saturating.
fn elapsed_micros(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// A decision without solver work. The caller fills in the margin and
/// support, which belong to the full-width pair.
fn decided(verdict: Verdict<ProductWitness>, stage: Stage) -> PipelineDecision {
    PipelineDecision {
        verdict,
        stage,
        boxes_processed: 0,
        waves: 0,
        undecided: None,
        uniform_margin: Rational::new(0, 1),
        support_dims: 0,
    }
}

/// Stages 2–6 on one pair, each observed once.
fn decide_criteria_and_search(
    cube: &Cube,
    a: &WorldSet,
    b: &WorldSet,
    bnb_options: ProductSolverOptions,
    deadline: &Deadline,
    observe: StageObserver<'_>,
) -> PipelineDecision {
    type Criterion = fn(&Cube, &WorldSet, &WorldSet) -> bool;
    let criteria: [(Stage, &str, Criterion); 3] = [
        (
            Stage::MiklauSuciu,
            "Miklau–Suciu",
            miklau_suciu::safe_miklau_suciu,
        ),
        (
            Stage::Monotonicity,
            "monotonicity",
            monotonicity::safe_monotone,
        ),
        (
            Stage::Cancellation,
            "cancellation",
            cancellation::cancellation,
        ),
    ];
    // Honor the deadline before every stage: on wide supports even the
    // criteria take seconds.
    let stopped = |stage: Stage| {
        deadline.check().err().map(|reason| PipelineDecision {
            undecided: Some(reason.into()),
            ..decided(Verdict::Unknown, stage)
        })
    };
    for (stage, name, criterion) in criteria {
        if let Some(stop) = stopped(stage) {
            return stop;
        }
        let started = Instant::now();
        let safe = criterion(cube, a, b);
        observe(stage, elapsed_micros(started));
        if safe {
            return decided(Verdict::Safe(SafeEvidence::Criterion(name)), stage);
        }
    }
    if let Some(stop) = stopped(Stage::BranchAndBound) {
        return stop;
    }
    // The box stage enumerates all 3ⁿ match vectors, and the
    // branch-and-bound refuses anything this wide anyway: fail closed
    // with the budget-exhausted answer it would give.
    if cube.dims() > MatchVector::MAX_ENUM_DIMS {
        return PipelineDecision {
            undecided: Some(UndecidedReason::BudgetExhausted),
            ..decided(Verdict::Unknown, Stage::BranchAndBound)
        };
    }
    let started = Instant::now();
    let refutation = necessary::refute_product_by_boxes(cube, a, b);
    observe(Stage::BoxNecessary, elapsed_micros(started));
    if let Some(p) = refutation {
        // Corner priors are rational by construction; rebuild exactly.
        let probs: Vec<Rational> = p
            .probs()
            .iter()
            .map(|&x| Rational::from_f64_exact(x).expect("corner prior is dyadic"))
            .collect();
        let gap = epi_boolean::RationalProductDist::new(probs.clone())
            .expect("valid probs")
            .safety_gap(a, b);
        debug_assert!(gap.is_negative());
        return decided(
            Verdict::Unsafe(ProductWitness { probs, gap }),
            Stage::BoxNecessary,
        );
    }
    let started = Instant::now();
    let (verdict, stats) = decide_product_safety_deadline(cube, a, b, bnb_options, deadline);
    observe(Stage::BranchAndBound, elapsed_micros(started));
    PipelineDecision {
        boxes_processed: stats.boxes_processed,
        waves: stats.waves,
        undecided: stats.undecided,
        ..decided(verdict, Stage::BranchAndBound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn stages_fire_in_order() {
        let cube = Cube::new(3);
        // Unconditional: B tautology.
        let a = cube.set_from_masks([0b001]);
        let d = decide_product_pipeline(&cube, &a, &cube.full_set(), Default::default());
        assert_eq!(d.stage, Stage::Unconditional);
        assert!(d.verdict.is_safe());

        // Miklau–Suciu: disjoint coordinates (and not unconditional).
        let a = cube.set_from_predicate(|w| w & 1 == 1);
        let b = cube.set_from_predicate(|w| w & 0b010 != 0);
        let d = decide_product_pipeline(&cube, &a, &b, Default::default());
        assert_eq!(d.stage, Stage::MiklauSuciu);

        // Cancellation: the implication pair shares a critical coordinate
        // and is not (masked-)monotone-compatible… choose §1.1-like shape
        // embedded in 3 dims with an extra twist to defeat monotonicity.
        let a = cube.set_from_predicate(|w| w & 0b100 != 0);
        let b = cube.set_from_predicate(|w| w & 0b100 == 0 || (w & 0b001 != 0) != (w & 0b010 != 0));
        let d = decide_product_pipeline(&cube, &a, &b, Default::default());
        assert!(
            d.verdict.is_safe() || d.verdict.is_unsafe(),
            "pipeline always decides at n = 3"
        );
    }

    #[test]
    fn refutations_carry_exact_witnesses() {
        let cube = Cube::new(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(239);
        let mut refuted = 0;
        while refuted < 25 {
            let a = cube.set_from_predicate(|_| rng.gen());
            let b = cube.set_from_predicate(|_| rng.gen());
            let d = decide_product_pipeline(&cube, &a, &b, Default::default());
            if let Verdict::Unsafe(w) = &d.verdict {
                refuted += 1;
                assert!(w.gap.is_negative(), "stage {:?}", d.stage);
                assert_eq!(w.probs.len(), 3);
            }
        }
    }

    #[test]
    fn pipeline_agrees_with_direct_bnb() {
        let cube = Cube::new(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(241);
        for _ in 0..50 {
            let a = cube.set_from_predicate(|_| rng.gen());
            let b = cube.set_from_predicate(|_| rng.gen());
            let pipeline = decide_product_pipeline(&cube, &a, &b, Default::default());
            let direct = crate::product::decide_product_safety(&cube, &a, &b, Default::default()).0;
            assert_eq!(
                pipeline.verdict.is_safe(),
                direct.is_safe(),
                "A={a:?} B={b:?} stage={:?}",
                pipeline.stage
            );
        }
    }

    #[test]
    fn expired_deadline_yields_transient_unknown_not_safe() {
        use std::time::Duration;
        let cube = Cube::new(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(251);
        let expired = Deadline::within(Duration::ZERO);
        let mut hit_tail = 0;
        for _ in 0..40 {
            let a = cube.set_from_predicate(|_| rng.gen());
            let b = cube.set_from_predicate(|_| rng.gen());
            let d = decide_product_pipeline_deadline(&cube, &a, &b, Default::default(), &expired);
            match d.undecided {
                Some(reason) => {
                    hit_tail += 1;
                    assert_eq!(reason, UndecidedReason::DeadlineExceeded);
                    assert!(d.verdict.is_unknown(), "timed out must not certify");
                    // Stopped before the first criterion ran.
                    assert_eq!(d.stage, Stage::MiklauSuciu);
                }
                // Only the unconditional stage runs before the first
                // deadline check.
                None => assert_eq!(d.stage, Stage::Unconditional),
            }
        }
        assert!(
            hit_tail > 0,
            "some pairs must get past the unconditional stage"
        );
    }

    #[test]
    fn cancelled_token_stops_the_tail() {
        use epi_core::CancelToken;
        let cube = Cube::new(3);
        // A pair that defeats all criteria (Remark 5.12 shape) so the
        // pipeline must reach branch-and-bound.
        let a = cube.set_from_masks([0b011, 0b100, 0b110, 0b111]);
        let b = cube.set_from_masks([0b010, 0b101, 0b110, 0b111]);
        let token = CancelToken::new();
        token.cancel();
        let d = decide_product_pipeline_deadline(
            &cube,
            &a,
            &b,
            Default::default(),
            &Deadline::none().with_token(token),
        );
        assert!(d.verdict.is_unknown());
        assert_eq!(d.undecided, Some(UndecidedReason::Cancelled));
    }

    #[test]
    fn narrow_support_is_decided_once_on_the_projection() {
        // The Remark 5.12 pair on records 1, 3, 4 of six: every stage is
        // observed exactly once, at the support's width.
        let cube = Cube::new(6);
        let spread = |v: u32| (v & 1) << 1 | (v >> 1 & 1) << 3 | (v >> 2 & 1) << 4;
        let pick = |masks: [u32; 4]| {
            cube.set_from_predicate(|w| masks.iter().any(|&m| spread(m) == w & 0b11010))
        };
        let a = pick([0b011, 0b100, 0b110, 0b111]);
        let b = pick([0b010, 0b101, 0b110, 0b111]);
        assert_eq!(support(&cube, &a, &b), 0b11010);
        let mut seen = Vec::new();
        let d = decide_product_pipeline_observed(
            &cube,
            &a,
            &b,
            Default::default(),
            &Deadline::none(),
            &mut |stage, _| seen.push(stage),
        );
        assert_eq!(
            seen,
            [
                Stage::Unconditional,
                Stage::MiklauSuciu,
                Stage::Monotonicity,
                Stage::Cancellation,
                Stage::BoxNecessary,
                Stage::BranchAndBound
            ]
        );
        assert_eq!(d.support_dims, 3);
        assert!(d.verdict.is_safe(), "{:?}", d.verdict);

        // A refuted pair on records 0 and 5: the witness comes back at
        // full width with pᵢ = 1 off the support, and its gap is exact.
        let a = cube.set_from_predicate(|w| w & 0b100001 != 0);
        let d = decide_product_pipeline(&cube, &a, &a, Default::default());
        assert_eq!(d.support_dims, 2);
        let Verdict::Unsafe(w) = &d.verdict else {
            panic!("A = B is refuted: {:?}", d.verdict)
        };
        assert_eq!(w.probs.len(), 6);
        assert!(w.probs[1..5].iter().all(|&p| p == Rational::ONE));
        let gap = epi_boolean::RationalProductDist::new(w.probs.clone())
            .unwrap()
            .safety_gap(&a, &a);
        assert_eq!(gap, w.gap);
        assert!(w.gap.is_negative());
    }

    #[test]
    fn wide_supports_fail_closed_without_exhausting_memory() {
        // The Remark 5.12 pair with A lifted onto every further record:
        // safe, with a gap that vanishes on an interior surface, so
        // subdivision alone never closes it. The SOS fallback's program
        // is too large to assemble at either width. At 6 records the box
        // budget then ends the search; at 11 the frontier's tensors
        // outgrow their budget first.
        for (n, max_boxes) in [(6usize, 513), (11, 20_000)] {
            let cube = Cube::new(n);
            let rest = ((1u32 << n) - 1) & !0b111;
            let a = cube.set_from_predicate(|w| {
                [0b011, 0b100, 0b110, 0b111].contains(&(w & 0b111)) && w & rest == rest
            });
            let b =
                cube.set_from_predicate(|w| [0b010, 0b101, 0b110, 0b111].contains(&(w & 0b111)));
            let options = ProductSolverOptions {
                max_boxes,
                ..Default::default()
            };
            let d = decide_product_pipeline(&cube, &a, &b, options);
            assert!(d.verdict.is_unknown(), "n = {n}: {:?}", d.verdict);
            assert_eq!(
                d.undecided,
                Some(UndecidedReason::BudgetExhausted),
                "n = {n}"
            );
            assert_eq!(d.support_dims, n);
            assert!(d.boxes_processed > 512, "n = {n}: SOS fallback reached");
            if n == 11 {
                assert!(d.boxes_processed < max_boxes, "n = 11 stops on tensors");
            }
        }
    }

    #[test]
    fn supports_past_the_box_enumeration_fail_closed_quickly() {
        // The Remark 5.12 pair with A lifted onto every further record
        // defeats every criterion; at these widths the box stage used to
        // panic inside `MatchVector::all`.
        for n in [MatchVector::MAX_ENUM_DIMS + 1, 20] {
            let cube = Cube::new(n);
            let rest = ((1u32 << n) - 1) & !0b111;
            let a = cube.set_from_predicate(|w| {
                [0b011, 0b100, 0b110, 0b111].contains(&(w & 0b111)) && w & rest == rest
            });
            let b =
                cube.set_from_predicate(|w| [0b010, 0b101, 0b110, 0b111].contains(&(w & 0b111)));
            let started = Instant::now();
            let d = decide_product_pipeline(&cube, &a, &b, Default::default());
            let took = started.elapsed();
            assert!(d.verdict.is_unknown(), "n = {n}: {:?}", d.verdict);
            assert_eq!(
                d.undecided,
                Some(UndecidedReason::BudgetExhausted),
                "n = {n}"
            );
            assert_eq!(d.support_dims, n);
            // The criteria still walk all 2ⁿ worlds; unoptimized, the
            // monotonicity and cancellation stages alone take ~4 s at
            // n = 20, so the time bound holds for optimized builds.
            if !cfg!(debug_assertions) {
                assert!(took.as_secs_f64() < 1.0, "n = {n} took {took:?}");
            }
        }
    }

    #[test]
    fn sos_decided_verdicts_are_byte_deterministic() {
        use epi_json::Serialize;
        // The Remark 5.12 pair defeats every criterion and is certified by
        // the SOS fallback; its residual is part of the verdict bytes.
        let cube = Cube::new(3);
        let a = cube.set_from_masks([0b011, 0b100, 0b110, 0b111]);
        let b = cube.set_from_masks([0b010, 0b101, 0b110, 0b111]);
        let runs: Vec<String> = (0..3)
            .map(|_| {
                let d = decide_product_pipeline(&cube, &a, &b, Default::default());
                assert!(
                    matches!(
                        d.verdict,
                        Verdict::Safe(SafeEvidence::SosCertificate { .. })
                    ),
                    "{:?}",
                    d.verdict
                );
                d.to_json().render()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn stage_labels_nonempty() {
        for s in [
            Stage::Unconditional,
            Stage::MiklauSuciu,
            Stage::Monotonicity,
            Stage::Cancellation,
            Stage::BoxNecessary,
            Stage::BranchAndBound,
        ] {
            assert!(!s.label().is_empty());
        }
    }
}
