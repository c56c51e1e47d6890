//! Bernstein-coefficient bounds for polynomials over boxes — the
//! reference oracle.
//!
//! The branch-and-bound of [`crate::product`] needs a lower bound of the
//! safety-gap polynomial over a sub-box of `[0,1]ⁿ`. Naive interval
//! evaluation has an `O(width²)` error that never certifies boxes touching
//! the (ubiquitous) zero faces of a safe gap polynomial. The classical
//! remedy is the **Bernstein form**: writing the polynomial over the box in
//! the tensor Bernstein basis, the coefficients enclose the range
//! (`min coeff ≤ p ≤ max coeff` on the box), the bound is *exact at the
//! box corners* (vertex coefficients equal corner values), and the
//! enclosure tightens quadratically under subdivision. In particular a box
//! whose only gap zeros sit on its faces certifies in one evaluation.
//!
//! The solver carries the coefficients incrementally
//! (`epi_poly::subdivision`); this module computes them directly —
//! [`DenseTensor::restrict_to_box`] then
//! [`DenseTensor::bernstein_coefficients`] — which is the oracle the
//! incremental kernels are tested against.
//!
//! The gap polynomial has per-variable degree ≤ 2, so a box carries a dense
//! `3ⁿ` coefficient tensor — small for the `n ≤ 12` regime of the solver.

use epi_poly::{Coeff, DensePow3, Polynomial};

/// A polynomial of per-variable degree ≤ 2 in dense tensor form:
/// `coeffs[idx]` with `idx = Σ kᵢ·3^i`, `kᵢ ∈ {0,1,2}` the exponent of
/// variable `i`.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseTensor {
    n: usize,
    coeffs: Vec<f64>,
}

impl DenseTensor {
    /// Converts a sparse polynomial (per-variable degree ≤ 2) to tensor
    /// form.
    ///
    /// # Panics
    ///
    /// Panics when a variable has degree > 2 or `n > 12`.
    pub fn from_polynomial<C: Coeff>(p: &Polynomial<C>) -> DenseTensor {
        let n = p.arity();
        assert!(n <= 12, "dense tensor form guarded to n ≤ 12");
        let mut coeffs = vec![0.0; 3usize.pow(n as u32)];
        for (m, c) in p.terms() {
            let mut idx = 0usize;
            let mut stride = 1usize;
            for i in 0..n {
                let e = m.exp(i) as usize;
                assert!(e <= 2, "per-variable degree must be ≤ 2");
                idx += e * stride;
                stride *= 3;
            }
            coeffs[idx] += c.to_f64();
        }
        DenseTensor { n, coeffs }
    }

    /// Adopts a dense base-3 polynomial from the multilinear kernel.
    /// [`DensePow3`] stores coefficients at exactly the `Σ kᵢ·3ⁱ` index
    /// this tensor uses, so the conversion is a straight coefficient
    /// copy — no term iteration, no index arithmetic.
    ///
    /// # Panics
    ///
    /// Panics when `n > 12` (the same guard as [`DenseTensor::from_polynomial`]).
    pub fn from_dense_pow3(p: &DensePow3<f64>) -> DenseTensor {
        let n = p.arity();
        assert!(n <= 12, "dense tensor form guarded to n ≤ 12");
        DenseTensor {
            n,
            coeffs: p.coeffs().to_vec(),
        }
    }

    /// Number of variables.
    pub fn arity(&self) -> usize {
        self.n
    }

    /// The raw power-basis coefficient tensor (`DensePow3` layout,
    /// `idx = Σ kᵢ·3ⁱ`), for callers that run their own contractions.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Evaluates at a point.
    pub fn eval(&self, point: &[f64]) -> f64 {
        assert_eq!(point.len(), self.n);
        let mut acc = 0.0;
        for (idx, &c) in self.coeffs.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            let mut term = c;
            let mut rest = idx;
            for &x in point.iter().take(self.n) {
                let e = rest % 3;
                rest /= 3;
                match e {
                    0 => {}
                    1 => term *= x,
                    _ => term *= x * x,
                }
            }
            acc += term;
        }
        acc
    }

    /// Restricts to the box `∏ [lo[i], hi[i]]` by the affine substitution
    /// `xᵢ = loᵢ + (hiᵢ − loᵢ)·tᵢ`, returning the tensor in `t` over
    /// `[0,1]ⁿ`.
    pub fn restrict_to_box(&self, lo: &[f64], hi: &[f64]) -> DenseTensor {
        assert_eq!(lo.len(), self.n);
        assert_eq!(hi.len(), self.n);
        let mut out = self.clone();
        let mut stride = 1usize;
        for i in 0..self.n {
            let (l, w) = (lo[i], hi[i] - lo[i]);
            // Transform along axis i: (a0, a1, a2) ↦
            // (a0 + a1·l + a2·l², a1·w + 2·a2·l·w, a2·w²).
            let block = stride * 3;
            for base in 0..out.coeffs.len() / block {
                for inner in 0..stride {
                    let i0 = base * block + inner;
                    let i1 = i0 + stride;
                    let i2 = i1 + stride;
                    let (a0, a1, a2) = (out.coeffs[i0], out.coeffs[i1], out.coeffs[i2]);
                    out.coeffs[i0] = a0 + a1 * l + a2 * l * l;
                    out.coeffs[i1] = a1 * w + 2.0 * a2 * l * w;
                    out.coeffs[i2] = a2 * w * w;
                }
            }
            stride *= 3;
        }
        out
    }

    /// The Bernstein coefficient tensor over `[0,1]ⁿ` (degree-2 tensor
    /// basis): per axis, `(b₀, b₁, b₂) = (a₀, a₀ + a₁/2, a₀ + a₁ + a₂)`.
    pub fn bernstein_coefficients(&self) -> Vec<f64> {
        let mut b = self.coeffs.clone();
        let mut stride = 1usize;
        for _ in 0..self.n {
            let block = stride * 3;
            for base in 0..b.len() / block {
                for inner in 0..stride {
                    let i0 = base * block + inner;
                    let i1 = i0 + stride;
                    let i2 = i1 + stride;
                    let (a0, a1, a2) = (b[i0], b[i1], b[i2]);
                    b[i0] = a0;
                    b[i1] = a0 + 0.5 * a1;
                    b[i2] = a0 + a1 + a2;
                }
            }
            stride *= 3;
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epi_poly::indicator;
    use rand::{Rng, SeedableRng};

    /// `(min, max, argmin)` of the Bernstein coefficients of `t` over
    /// `∏ [lo[i], hi[i]]`.
    fn bernstein_range(t: &DenseTensor, lo: &[f64], hi: &[f64]) -> (f64, f64, usize) {
        let b = t.restrict_to_box(lo, hi).bernstein_coefficients();
        let mut argmin = 0;
        for (idx, &c) in b.iter().enumerate() {
            if c < b[argmin] {
                argmin = idx;
            }
        }
        let max = b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (b[argmin], max, argmin)
    }

    #[test]
    fn tensor_roundtrip_eval() {
        // f = 2x² − 3xy + y + 1 over 2 vars.
        let x = Polynomial::<f64>::var(2, 0);
        let y = Polynomial::<f64>::var(2, 1);
        let f = x
            .pow(2)
            .scale(&2.0)
            .sub(&x.mul(&y).scale(&3.0))
            .add(&y)
            .add(&Polynomial::constant(2, 1.0));
        let t = DenseTensor::from_polynomial(&f);
        for p in [[0.0, 0.0], [1.0, 0.5], [0.3, 0.7]] {
            assert!((t.eval(&p) - f.eval_f64(&p)).abs() < 1e-12);
        }
    }

    #[test]
    fn restriction_matches_substitution() {
        let x = Polynomial::<f64>::var(1, 0);
        let f = x.pow(2).sub(&x.scale(&0.5)); // x² − x/2
        let t = DenseTensor::from_polynomial(&f);
        let r = t.restrict_to_box(&[0.25], &[0.75]);
        // r(t) = f(0.25 + 0.5 t)
        for tt in [0.0, 0.5, 1.0] {
            let direct = f.eval_f64(&[0.25 + 0.5 * tt]);
            assert!((r.eval(&[tt]) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn bernstein_encloses_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(251);
        for _ in 0..30 {
            let a = epi_core::WorldSet::from_predicate(8, |_| rng.gen());
            let b = epi_core::WorldSet::from_predicate(8, |_| rng.gen());
            let gap = indicator::safety_gap_polynomial::<f64>(3, &a, &b);
            let t = DenseTensor::from_polynomial(&gap);
            let lo = [rng.gen_range(0.0..0.5), rng.gen_range(0.0..0.5), 0.0];
            let hi = [lo[0] + 0.4, lo[1] + 0.4, 1.0];
            let (min, max, _) = bernstein_range(&t, &lo, &hi);
            for _ in 0..100 {
                let p: Vec<f64> = (0..3).map(|i| rng.gen_range(lo[i]..hi[i])).collect();
                let v = gap.eval_f64(&p);
                assert!(v >= min - 1e-9 && v <= max + 1e-9);
            }
        }
    }

    #[test]
    fn vertex_minimum_is_exact_corner_value() {
        // f = x·y: minimum on [0,1]² is 0 at corners; the minimizing
        // Bernstein coefficient must sit at a vertex index (every base-3
        // digit 0 or 2) and equal the corner value.
        let x = Polynomial::<f64>::var(2, 0);
        let y = Polynomial::<f64>::var(2, 1);
        let f = x.mul(&y);
        let t = DenseTensor::from_polynomial(&f);
        let (min, _, argmin) = bernstein_range(&t, &[0.0, 0.0], &[1.0, 1.0]);
        assert!([argmin % 3, argmin / 3].iter().all(|&d| d != 1));
        assert_eq!(min, 0.0);
        // And on a shifted box the low corner's value is recovered.
        let (min, _, argmin) = bernstein_range(&t, &[0.25, 0.5], &[0.75, 1.0]);
        assert_eq!(argmin, 0, "minimum at the (lo, lo) vertex");
        assert!((min - 0.25 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn face_zero_certifies_immediately() {
        // The §1.1 gap x₀(1−x₀)(1−x₁) is ≥ 0 with zeros on faces; the
        // Bernstein minimum over the whole box must be ≥ 0 right away —
        // the property interval arithmetic cannot deliver.
        let a = epi_core::WorldSet::from_indices(4, [2, 3]);
        let b = epi_core::WorldSet::from_indices(4, [0, 1, 3]);
        let gap = indicator::safety_gap_polynomial::<f64>(2, &a, &b);
        let t = DenseTensor::from_polynomial(&gap);
        let (min, _, _) = bernstein_range(&t, &[0.0, 0.0], &[1.0, 1.0]);
        assert!(min >= -1e-12, "Bernstein min {min}");
    }

    #[test]
    fn bernstein_tightens_under_subdivision() {
        let x = Polynomial::<f64>::var(1, 0);
        // f = (x − ½)²: min 0 at the interior point ½.
        let f = x.sub(&Polynomial::constant(1, 0.5)).pow(2);
        let t = DenseTensor::from_polynomial(&f);
        let whole = bernstein_range(&t, &[0.0], &[1.0]);
        let half = bernstein_range(&t, &[0.25], &[0.75]);
        assert!(half.0 >= whole.0);
        assert!(half.1 <= whole.1 + 1e-12);
    }
}
