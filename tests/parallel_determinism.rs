//! The parallel engine's deterministic mode must reproduce the sequential
//! solver bit-for-bit: identical verdicts (including witness priors and
//! safe-evidence box counts) and identical statistics at every thread
//! count, across the E7 instance corpus of every pair shape.

use epi_bench::PairShape;
use epi_boolean::Cube;
use epi_solver::{decide_product_safety, ProductSolverOptions};
use rand::SeedableRng;

#[test]
fn deterministic_mode_matches_sequential_across_e7_corpus() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for n in [3usize, 4] {
        let cube = Cube::new(n);
        for shape in PairShape::all() {
            for _ in 0..4 {
                let (a, b) = shape.sample(&cube, &mut rng);
                let opts = |threads: usize| ProductSolverOptions {
                    threads,
                    max_boxes: 800,
                    ..Default::default()
                };
                let sequential = decide_product_safety(&cube, &a, &b, opts(1));
                for threads in [2usize, 8] {
                    let parallel = decide_product_safety(&cube, &a, &b, opts(threads));
                    assert_eq!(
                        sequential,
                        parallel,
                        "shape {} on n={n}: {threads}-thread deterministic run diverged",
                        shape.label()
                    );
                }
            }
        }
    }
}
