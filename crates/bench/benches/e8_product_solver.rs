//! E8 — the complete product-distribution solver: scaling in `n` and the
//! coordinate-ascent warm-start ablation called out in DESIGN.md. The
//! interval-bound ablation was retired with its solver path; its numbers
//! stay recorded in EXPERIMENTS.md (E8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epi_bench::{remark_5_12_pair, PairShape};
use epi_boolean::Cube;
use epi_core::WorldSet;
use epi_solver::{decide_product_safety, ProductSolverOptions};
use rand::SeedableRng;
use std::hint::black_box;

fn workload(cube: &Cube, count: usize) -> Vec<(WorldSet, WorldSet)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    (0..count)
        .map(|i| PairShape::all()[i % 4].sample(cube, &mut rng))
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_product_solver");
    g.sample_size(10);
    for n in [3usize, 4, 5, 6] {
        let cube = Cube::new(n);
        let pairs = workload(&cube, 8);
        g.bench_with_input(BenchmarkId::new("pipeline_mixed8", n), &n, |bench, _| {
            bench.iter(|| {
                pairs
                    .iter()
                    .filter(|(a, b)| {
                        decide_product_safety(
                            black_box(&cube),
                            a,
                            b,
                            ProductSolverOptions::default(),
                        )
                        .0
                        .is_safe()
                    })
                    .count()
            })
        });
    }
    // Ablations on the hard safe instance (Remark 5.12).
    let (cube, a, b) = remark_5_12_pair();
    let configs: Vec<(&str, ProductSolverOptions)> = vec![
        ("default", ProductSolverOptions::default()),
        (
            "no_ascent",
            ProductSolverOptions {
                coordinate_ascent: false,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in configs {
        g.bench_function(BenchmarkId::new("remark512_ablation", name), |bench| {
            bench.iter(|| {
                decide_product_safety(black_box(&cube), black_box(&a), black_box(&b), opts)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
