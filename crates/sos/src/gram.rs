//! Sum-of-squares membership via the Gram-matrix SDP (Proposition 6.4).
//!
//! A polynomial `f` of degree `2d` lies in `Σ²` iff there is a PSD matrix
//! `Q` (the *Gram matrix*) over the monomial basis `z = (m₁, …, m_N)` of
//! degree ≤ `d` with `f = zᵀ·Q·z`; matching coefficients monomial-by-
//! monomial makes this a semidefinite feasibility problem, solved here with
//! `epi-sdp`. A found `Q` is post-verified (PSD via ridged Cholesky plus
//! exact reconstruction residual) before being reported as a certificate.

use epi_linalg::{cholesky, Matrix};
use epi_poly::{Monomial, Polynomial};
use epi_sdp::{solve_feasibility, SdpOptions, SdpProblem, SdpStatus};
use std::collections::BTreeMap;

/// A verified SOS certificate: `f ≈ zᵀQz` with `Q ⪰ 0`.
#[derive(Clone, Debug)]
pub struct SosCertificate {
    /// The monomial basis `z`.
    pub basis: Vec<Monomial>,
    /// The PSD Gram matrix.
    pub gram: Matrix,
    /// `max_m |coeff_m(zᵀQz) − coeff_m(f)|` — the reconstruction residual.
    pub residual: f64,
}

/// Outcome of the SOS membership test.
#[derive(Clone, Debug)]
pub enum SosResult {
    /// `f ∈ Σ²` within the numeric tolerance, with certificate.
    Certified(SosCertificate),
    /// No certificate found (SDP stalled / verification failed). This does
    /// not prove `f ∉ Σ²`; the heuristic is one-sided, as in the paper.
    NotFound,
}

impl SosResult {
    /// `true` for [`SosResult::Certified`].
    pub fn is_certified(&self) -> bool {
        matches!(self, SosResult::Certified(_))
    }
}

/// The monomial basis for an SOS decomposition of a polynomial of degree
/// `2d`: all monomials of total degree ≤ `d`, restricted to the variables
/// that actually occur in `f`.
pub fn sos_basis(f: &Polynomial<f64>) -> Vec<Monomial> {
    let d = f.degree().div_ceil(2);
    let arity = f.arity();
    // Variables not occurring in f cannot appear in any square summand of a
    // decomposition of f (their top even power could not cancel).
    let used: Vec<usize> = (0..arity).filter(|&i| f.degree_in(i) > 0).collect();
    Monomial::all_up_to_degree(arity, d)
        .into_iter()
        .filter(|m| (0..arity).all(|i| m.exp(i) == 0 || used.contains(&i)))
        .collect()
}

/// Builds the Gram SDP for `f` over an explicit basis and solves it.
pub fn is_sos_with_basis(
    f: &Polynomial<f64>,
    basis: &[Monomial],
    options: SdpOptions,
) -> SosResult {
    let n = basis.len();
    if n == 0 {
        return if f.is_zero() {
            SosResult::Certified(SosCertificate {
                basis: Vec::new(),
                gram: Matrix::zeros(0, 0),
                residual: 0.0,
            })
        } else {
            SosResult::NotFound
        };
    }
    // Group the Gram entries by product monomial, in a fixed order so the
    // SDP's constraints are the same on every run.
    let mut by_product: BTreeMap<Monomial, Vec<(usize, usize)>> = BTreeMap::new();
    for i in 0..n {
        for j in i..n {
            by_product
                .entry(basis[i].mul(&basis[j]))
                .or_default()
                .push((i, j));
        }
    }
    // Every monomial of f must appear in the product support.
    for (m, _) in f.terms() {
        if !by_product.contains_key(m) {
            return SosResult::NotFound;
        }
    }
    let mut problem = SdpProblem::new(n);
    for (m, entries) in &by_product {
        let mut a = Matrix::zeros(n, n);
        for &(i, j) in entries {
            if i == j {
                a[(i, i)] = 1.0;
            } else {
                a[(i, j)] = 1.0; // symmetrized to ½ each side by add_constraint
                a[(j, i)] = 1.0;
            }
        }
        let target = f
            .terms()
            .find(|(fm, _)| *fm == m)
            .map(|(_, c)| *c)
            .unwrap_or(0.0);
        problem.add_constraint(a, target);
    }
    match solve_feasibility(&problem, options) {
        SdpStatus::Feasible { x, .. } => verify_certificate(f, basis, x),
        _ => SosResult::NotFound,
    }
}

/// Tests `f ∈ Σ²` with the default basis and options.
pub fn is_sos(f: &Polynomial<f64>) -> SosResult {
    // Odd-degree polynomials are never sums of squares.
    if f.degree() % 2 == 1 {
        return SosResult::NotFound;
    }
    if f.is_zero() {
        return SosResult::Certified(SosCertificate {
            basis: Vec::new(),
            gram: Matrix::zeros(0, 0),
            residual: 0.0,
        });
    }
    let basis = sos_basis(f);
    is_sos_with_basis(f, &basis, SdpOptions::default())
}

/// Post-verification: the Gram matrix must reconstruct `f` within `1e-6`
/// per coefficient and pass a ridged Cholesky PSD check.
fn verify_certificate(f: &Polynomial<f64>, basis: &[Monomial], gram: Matrix) -> SosResult {
    let n = basis.len();
    // PSD within ridge.
    let ridged = Matrix::from_fn(n, n, |i, j| gram[(i, j)] + if i == j { 1e-7 } else { 0.0 });
    if cholesky(&ridged, 0.0).is_err() {
        return SosResult::NotFound;
    }
    // Reconstruct zᵀQz.
    let mut rebuilt = Polynomial::<f64>::zero(f.arity());
    for i in 0..n {
        for j in 0..n {
            let q = gram[(i, j)];
            if q != 0.0 {
                rebuilt.add_term(basis[i].mul(&basis[j]), q);
            }
        }
    }
    let diff = rebuilt.sub(f);
    let residual = diff.terms().map(|(_, c)| c.abs()).fold(0.0f64, f64::max);
    if residual > 1e-6 {
        return SosResult::NotFound;
    }
    SosResult::Certified(SosCertificate {
        basis: basis.to_vec(),
        gram,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(arity: usize, i: usize) -> Polynomial<f64> {
        Polynomial::var(arity, i)
    }

    #[test]
    fn perfect_square_is_sos() {
        // (x − y)² ∈ Σ².
        let f = x(2, 0).sub(&x(2, 1)).pow(2);
        assert!(is_sos(&f).is_certified());
    }

    #[test]
    fn sum_of_two_squares_is_sos() {
        // x² + y² + (x·y − 1)².
        let f = x(2, 0).pow(2).add(&x(2, 1).pow(2)).add(
            &x(2, 0)
                .mul(&x(2, 1))
                .sub(&Polynomial::constant(2, 1.0))
                .pow(2),
        );
        assert!(is_sos(&f).is_certified());
    }

    #[test]
    fn negative_constant_is_not_sos() {
        let f = Polynomial::constant(1, -1.0);
        assert!(!is_sos(&f).is_certified());
    }

    #[test]
    fn odd_degree_is_not_sos() {
        let f = x(1, 0).pow(3);
        assert!(!is_sos(&f).is_certified());
    }

    #[test]
    fn indefinite_quadratic_is_not_sos() {
        // x² − y² takes negative values.
        let f = x(2, 0).pow(2).sub(&x(2, 1).pow(2));
        assert!(!is_sos(&f).is_certified());
    }

    #[test]
    fn nonneg_but_not_square_still_sos() {
        // x² − 2x + 1 + y² = (x−1)² + y².
        let f = x(2, 0)
            .pow(2)
            .sub(&x(2, 0).scale(&2.0))
            .add(&Polynomial::constant(2, 1.0))
            .add(&x(2, 1).pow(2));
        let result = is_sos(&f);
        match &result {
            SosResult::Certified(cert) => {
                assert!(cert.residual < 1e-6);
                // Certificate evaluates non-negatively at sample points.
                for p in [[0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]] {
                    assert!(f.eval_f64(&p) >= -1e-9);
                }
            }
            SosResult::NotFound => panic!("expected certificate"),
        }
    }

    #[test]
    fn motzkin_polynomial_is_not_sos() {
        // The paper's example: M(x,y,z) = x⁴y² + x²y⁴ + z⁶ − 3x²y²z² is
        // non-negative but NOT a sum of squares (Motzkin). The heuristic
        // must fail to certify it.
        let (x, y, z) = (
            Polynomial::<f64>::var(3, 0),
            Polynomial::<f64>::var(3, 1),
            Polynomial::<f64>::var(3, 2),
        );
        let m = x
            .pow(4)
            .mul(&y.pow(2))
            .add(&x.pow(2).mul(&y.pow(4)))
            .add(&z.pow(6))
            .sub(&x.pow(2).mul(&y.pow(2)).mul(&z.pow(2)).scale(&3.0));
        // Non-negative on samples…
        for p in [[1.0, 1.0, 1.0], [0.5, -2.0, 1.5], [0.0, 3.0, -1.0]] {
            assert!(m.eval_f64(&p) >= -1e-9);
        }
        // …but not SOS.
        assert!(!is_sos(&m).is_certified());
    }

    #[test]
    fn basis_excludes_unused_variables() {
        // f = x₀² in 3 variables: basis must not mention x₁, x₂.
        let f = x(3, 0).pow(2);
        let basis = sos_basis(&f);
        assert!(basis.iter().all(|m| m.exp(1) == 0 && m.exp(2) == 0));
        assert!(is_sos(&f).is_certified());
    }

    #[test]
    fn zero_polynomial_trivially_sos() {
        assert!(is_sos(&Polynomial::zero(2)).is_certified());
    }
}
