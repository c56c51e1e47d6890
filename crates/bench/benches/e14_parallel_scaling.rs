//! E14 — the parallel solver engine on the hard family: a thread-count
//! sweep. The pre-engine sequential baseline (the eager `BTreeMap`
//! rational gap assembly) was retired with its solver path; its timings
//! stay recorded as `legacy_seq` in `BENCH_PR2.json`, `BENCH_PR5.json`
//! and `BENCH_PR10.json`.
//!
//! The machine-readable companion is `cargo run --release --bin
//! perf_trajectory`, which times the same instances (including the n ≥ 10
//! construction-bound ones that are too slow for a Criterion sweep) and
//! writes `BENCH_PR2.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epi_bench::{hard_family, PairShape};
use epi_boolean::Cube;
use epi_solver::{decide_product_safety, ProductSolverOptions};
use rand::SeedableRng;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_parallel_scaling");
    g.sample_size(10);

    // Box-search-bound: the n=5 Remark 5.12 ⊗ §1.1 tensor.
    let (_, cube, a, b) = hard_family().swap_remove(0);
    let base = ProductSolverOptions {
        max_boxes: 2_000,
        coordinate_ascent: false,
        sos_fallback: false,
        ..Default::default()
    };
    for threads in [1usize, 2, 8] {
        let opts = ProductSolverOptions { threads, ..base };
        g.bench_with_input(
            BenchmarkId::new("r512xhiv_threads", threads),
            &threads,
            |bench, _| {
                bench.iter(|| {
                    decide_product_safety(black_box(&cube), black_box(&a), black_box(&b), opts)
                })
            },
        );
    }

    // Construction-bound: a dense monotone-no pair at n=9 (safe by FKG).
    let cube9 = Cube::new(9);
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let (a9, b9) = PairShape::MonotoneNo.sample(&cube9, &mut rng);
    let opts9 = ProductSolverOptions {
        max_boxes: 512,
        coordinate_ascent: false,
        sos_fallback: false,
        threads: 8,
        ..Default::default()
    };
    g.bench_function(BenchmarkId::new("monotone_no_n9", "dense_8t"), |bench| {
        bench.iter(|| {
            decide_product_safety(black_box(&cube9), black_box(&a9), black_box(&b9), opts9)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
