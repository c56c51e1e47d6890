//! The batched structure-of-arrays wave path changes *how fast* the
//! search runs, never *what it decides*. These tests pin the
//! equivalences that promise rests on:
//!
//! * thread count — identical verdicts and statistics at 1 thread and
//!   at 8;
//! * inline waves — a wave that stays on the calling thread still
//!   flows through the batched kernel sweeps (single chunk), so the
//!   chunk policy is a placement decision only;
//! * instruction sets — with the `simd` feature, scalar and vector
//!   kernels produce byte-identical verdicts in one process (the
//!   kernels are bit-identical, so everything downstream must be too).

use epi_boolean::{generate, Cube};
use epi_core::WorldSet;
use epi_poly::subdivision::{force_isa, Isa};
use epi_solver::{decide_product_safety, ProductSolverOptions, ProductSolverStats};
use rand::SeedableRng;

/// The Remark 5.12 pair tensored with itself on disjoint variable
/// blocks (`r512x2_n6` of the E14 hard family, rebuilt here because
/// solver tests cannot depend on `epi-bench`). Safe for every product
/// prior with a gap vanishing on interior surfaces, so the search must
/// grind through a deep frontier — this is the instance that guarantees
/// the family genuinely subdivides.
fn remark_5_12_squared() -> (Cube, WorldSet, WorldSet) {
    let c3 = Cube::new(3);
    let a3 = c3.set_from_masks([0b011, 0b100, 0b110, 0b111]);
    let b3 = c3.set_from_masks([0b010, 0b101, 0b110, 0b111]);
    let cube = Cube::new(6);
    let member = |s: &WorldSet, w: u32| {
        s.contains(epi_core::WorldId(w & 0b111)) && s.contains(epi_core::WorldId(w >> 3))
    };
    let a = cube.set_from_predicate(|w| member(&a3, w));
    let b = cube.set_from_predicate(|w| member(&b3, w));
    (cube, a, b)
}

/// Deterministic instance family: random nonempty pairs over `{0,1}ⁿ`
/// (seeds chosen so the set spans safe, unsafe and budget-bound runs)
/// plus one hard tensor instance that forces deep subdivision.
fn instances() -> Vec<(Cube, WorldSet, WorldSet)> {
    let mut out = Vec::new();
    for (n, seed) in [(4usize, 11u64), (4, 17), (5, 3), (5, 23), (6, 7), (6, 41)] {
        let cube = Cube::new(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        let b = generate::random_nonempty_set(&cube, 0.4, &mut rng);
        out.push((cube, a, b));
    }
    out.push(remark_5_12_squared());
    out
}

/// Base options: ascent off so every instance actually exercises the
/// box search, SOS off so verdicts depend on subdivision alone.
fn base_options() -> ProductSolverOptions {
    ProductSolverOptions {
        coordinate_ascent: false,
        sos_fallback: false,
        max_boxes: 4_000,
        ..ProductSolverOptions::default()
    }
}

fn run_all(options: ProductSolverOptions) -> Vec<(String, ProductSolverStats)> {
    instances()
        .iter()
        .map(|(cube, a, b)| {
            let (verdict, stats) = decide_product_safety(cube, a, b, options);
            // Render the verdict (witness rationals included) so the
            // comparison is byte-level, not just structural.
            (format!("{verdict:?}"), stats)
        })
        .collect()
}

#[test]
fn verdicts_are_identical_at_1_and_8_threads() {
    let single = run_all(ProductSolverOptions {
        threads: 1,
        ..base_options()
    });
    let eight = run_all(ProductSolverOptions {
        threads: 8,
        ..base_options()
    });
    assert_eq!(eight, single, "8 threads vs 1");
    // The family must actually subdivide for the comparison to mean
    // anything.
    assert!(single.iter().any(|(_, s)| s.boxes_processed > 100));
}

#[test]
fn small_waves_still_take_the_batched_kernel_path() {
    // One worker keeps every wave on the calling thread; the batched
    // sweeps must still run (single chunk).
    let before = epi_par::stats().batch_sweeps;
    run_all(ProductSolverOptions {
        threads: 1,
        ..base_options()
    });
    let sweeps = epi_par::stats().batch_sweeps - before;
    assert!(sweeps > 0, "inline waves bypassed the batched kernels");
}

#[test]
fn verdicts_are_byte_identical_across_isas() {
    // Without the `simd` feature only Scalar is available and the loop
    // degenerates to a self-comparison — the assertion is then supplied
    // by the feature-matrix CI job running this same test under
    // `--features simd`.
    let reference = {
        let got = force_isa(Some(Isa::Scalar));
        assert_eq!(got, Isa::Scalar);
        run_all(base_options())
    };
    for isa in [Isa::Sse2, Isa::Avx2] {
        if force_isa(Some(isa)) != isa {
            continue; // not available in this build / on this CPU
        }
        let vectored = run_all(base_options());
        assert_eq!(vectored, reference, "isa {isa:?} diverged from scalar");
    }
    force_isa(None);
}
