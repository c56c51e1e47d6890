//! E9 — the SOS/SDP stack: Gram membership, the box certificate and the
//! weighted-program assembly. The projection-method ablation is retired;
//! EXPERIMENTS.md (E9) and DESIGN.md §4 record its result.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epi_bench::remark_5_12_pair;
use epi_num::Rational;
use epi_poly::{indicator, Polynomial};
use epi_sdp::SdpOptions;
use epi_sos::{certify_nonneg_on_box, is_sos, WeightedSosProgram};
use std::hint::black_box;

fn sos_instance(vars: usize) -> Polynomial<f64> {
    // Σᵢ (xᵢ − xᵢ₊₁)² + (x₀·x₁ − 1)² — SOS by construction, growing basis.
    let mut f = Polynomial::zero(vars);
    for i in 0..vars - 1 {
        let d = Polynomial::<f64>::var(vars, i).sub(&Polynomial::var(vars, i + 1));
        f = f.add(&d.pow(2));
    }
    let xy = Polynomial::<f64>::var(vars, 0)
        .mul(&Polynomial::var(vars, 1))
        .sub(&Polynomial::constant(vars, 1.0));
    f.add(&xy.pow(2))
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_sos");
    g.sample_size(10);
    for vars in [2usize, 3, 4] {
        let f = sos_instance(vars);
        g.bench_with_input(BenchmarkId::new("is_sos", vars), &vars, |bench, _| {
            bench.iter(|| is_sos(black_box(&f)))
        });
    }
    // Box certificate on the paper's hard pair.
    let (_, a, b) = remark_5_12_pair();
    let gap = indicator::safety_gap_polynomial::<Rational>(3, &a, &b).map_coeffs(|x| x.to_f64());
    // The cap bounds per-call cost; Douglas–Rachford converges well
    // within it on this instance.
    let options = SdpOptions {
        max_iterations: 1200,
        ..Default::default()
    };
    g.bench_function(
        BenchmarkId::new("box_certificate_method", "DouglasRachford"),
        |bench| bench.iter(|| certify_nonneg_on_box(black_box(&gap), 0, options)),
    );
    // Raw SDP assembly cost.
    g.bench_function("assemble_weighted_program", |bench| {
        bench.iter(|| {
            let mut prog = WeightedSosProgram::new(gap.clone());
            prog.add_sos_block(Polynomial::constant(3, 1.0), 2);
            prog.assemble().constraint_count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
