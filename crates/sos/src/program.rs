//! Weighted sum-of-squares programs: decompositions of a target polynomial
//! over an algebraic cone with free multipliers for equality constraints.
//!
//! The Positivstellensatz machinery of Section 6.2 needs decompositions
//!
//! ```text
//! target  =  Σ_k h_k · σ_k  +  Σ_j g_j · λ_j
//! ```
//!
//! with each `σ_k ∈ Σ²` (a Gram block) and each `λ_j` a free polynomial.
//! This is a single block-diagonal semidefinite feasibility problem: one
//! PSD block per `σ_k` over its monomial basis, and two 1×1 blocks per free
//! coefficient (`c = u − v`, `u, v ≥ 0`). The blocks are embedded into one
//! big PSD matrix — principal submatrices of a PSD matrix are PSD, and any
//! block-feasible solution extends by zeros, so feasibility is unchanged.

use crate::gram::SosCertificate;
use epi_linalg::{cholesky, Matrix};
use epi_poly::{Monomial, Polynomial};
use epi_sdp::{solve_feasibility, SdpOptions, SdpProblem, SdpStatus};
use std::collections::{HashMap, HashSet};

/// Largest dense constraint-matrix footprint [`WeightedSosProgram::solve`]
/// will assemble. One `dim × dim` `f64` matrix per support monomial grows
/// past any machine quickly: the Remark 5.12 gap lifted to 6 records
/// needs 744 MB, and at 12 records 32 GB.
const MAX_CONSTRAINT_BYTES: usize = 64 << 20;

/// One SOS multiplier `h_k · σ_k` of the decomposition.
#[derive(Clone, Debug)]
struct SosBlock {
    multiplier: Polynomial<f64>,
    basis: Vec<Monomial>,
    offset: usize,
}

/// One free multiplier `g_j · λ_j`.
#[derive(Clone, Debug)]
struct FreeBlock {
    multiplier: Polynomial<f64>,
    basis: Vec<Monomial>,
    /// Offset of the first `u` diagonal slot; slot layout is
    /// `u₀ v₀ u₁ v₁ …`.
    offset: usize,
}

/// Builder for a weighted SOS feasibility problem.
///
/// # Examples
///
/// Certify `x(1−x) ≤ ¼` on `[0,1]`, i.e.
/// `¼ − x(1−x) = σ₀` with `σ₀ ∈ Σ²`:
///
/// ```
/// use epi_poly::Polynomial;
/// use epi_sos::WeightedSosProgram;
/// let x = Polynomial::<f64>::var(1, 0);
/// let one = Polynomial::constant(1, 1.0);
/// let target = Polynomial::constant(1, 0.25).sub(&x.mul(&one.sub(&x)));
/// let mut prog = WeightedSosProgram::new(target);
/// prog.add_sos_block(Polynomial::constant(1, 1.0), 1);
/// assert!(prog.solve(Default::default()).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct WeightedSosProgram {
    arity: usize,
    target: Polynomial<f64>,
    sos_blocks: Vec<SosBlock>,
    free_blocks: Vec<FreeBlock>,
    dim: usize,
}

/// A solved decomposition, with verified residual.
#[derive(Clone, Debug)]
pub struct WeightedSosCertificate {
    /// One certificate per SOS block (multiplier, Gram data).
    pub sigmas: Vec<(Polynomial<f64>, SosCertificate)>,
    /// The recovered free multipliers `λ_j` (paired with their `g_j`).
    pub lambdas: Vec<(Polynomial<f64>, Polynomial<f64>)>,
    /// `max_m |coeff_m(reconstruction − target)|`.
    pub residual: f64,
}

impl WeightedSosProgram {
    /// Starts a program for the given target polynomial.
    pub fn new(target: Polynomial<f64>) -> WeightedSosProgram {
        WeightedSosProgram {
            arity: target.arity(),
            target,
            sos_blocks: Vec::new(),
            free_blocks: Vec::new(),
            dim: 0,
        }
    }

    /// Adds a term `h · σ` with `σ ∈ Σ²` of degree ≤ `2·sigma_half_degree`,
    /// over the full monomial basis of that degree.
    pub fn add_sos_block(&mut self, multiplier: Polynomial<f64>, sigma_half_degree: u32) {
        let basis = Monomial::all_up_to_degree(self.arity, sigma_half_degree);
        self.add_sos_block_with_basis(multiplier, basis);
    }

    /// Adds a term `h · σ` with an explicit monomial basis for `σ`'s Gram
    /// matrix — callers use profile-restricted (Newton-polytope) bases to
    /// keep the SDP small when the target's per-variable degrees are low.
    pub fn add_sos_block_with_basis(&mut self, multiplier: Polynomial<f64>, basis: Vec<Monomial>) {
        assert_eq!(multiplier.arity(), self.arity, "multiplier arity mismatch");
        assert!(
            basis.iter().all(|m| m.arity() == self.arity),
            "basis arity mismatch"
        );
        let offset = self.dim;
        self.dim += basis.len();
        self.sos_blocks.push(SosBlock {
            multiplier,
            basis,
            offset,
        });
    }

    /// Adds a term `g · λ` with `λ` a free polynomial of degree ≤
    /// `lambda_degree` (for equality constraints `g = 0`).
    pub fn add_free_block(&mut self, multiplier: Polynomial<f64>, lambda_degree: u32) {
        assert_eq!(multiplier.arity(), self.arity, "multiplier arity mismatch");
        let basis = Monomial::all_up_to_degree(self.arity, lambda_degree);
        let offset = self.dim;
        self.dim += 2 * basis.len();
        self.free_blocks.push(FreeBlock {
            multiplier,
            basis,
            offset,
        });
    }

    /// Total PSD matrix dimension of the assembled SDP.
    pub fn dimension(&self) -> usize {
        self.dim
    }

    /// Assembles and solves the feasibility SDP; on success returns the
    /// verified decomposition. Returns `None` without allocating the SDP
    /// when its dense constraint matrices would exceed 64 MiB.
    pub fn solve(&self, options: SdpOptions) -> Option<WeightedSosCertificate> {
        // Checking one matrix first refuses wide programs before their
        // support is enumerated.
        let matrix_bytes = self.dim.saturating_mul(self.dim).saturating_mul(8);
        if matrix_bytes > MAX_CONSTRAINT_BYTES {
            return None;
        }
        let support = self.support();
        if support.len().saturating_mul(matrix_bytes) > MAX_CONSTRAINT_BYTES {
            return None;
        }
        let problem = self.assemble_over(&support);
        let x = match solve_feasibility(&problem, options) {
            SdpStatus::Feasible { x, .. } => x,
            _ => return None,
        };
        self.extract_and_verify(&x)
    }

    /// Assembles the block-diagonal feasibility SDP (exposed for
    /// diagnostics and benchmarks).
    pub fn assemble(&self) -> SdpProblem {
        self.assemble_over(&self.support())
    }

    /// The union of monomial supports: target plus every possible product
    /// contribution. One equality constraint per member.
    fn support(&self) -> HashSet<Monomial> {
        let mut support: HashSet<Monomial> = self.target.terms().map(|(m, _)| m.clone()).collect();
        for blk in &self.sos_blocks {
            for (hm, _) in blk.multiplier.terms() {
                for (i, mi) in blk.basis.iter().enumerate() {
                    for mj in &blk.basis[i..] {
                        support.insert(hm.mul(&mi.mul(mj)));
                    }
                }
            }
        }
        for blk in &self.free_blocks {
            for (gm, _) in blk.multiplier.terms() {
                for mt in &blk.basis {
                    support.insert(gm.mul(mt));
                }
            }
        }
        support
    }

    fn assemble_over(&self, support: &HashSet<Monomial>) -> SdpProblem {
        let target_coeffs: HashMap<Monomial, f64> =
            self.target.terms().map(|(m, c)| (m.clone(), *c)).collect();

        let mut problem = SdpProblem::new(self.dim);
        for m in support {
            let mut a = Matrix::zeros(self.dim, self.dim);
            for blk in &self.sos_blocks {
                for (i, mi) in blk.basis.iter().enumerate() {
                    for (j, mj) in blk.basis.iter().enumerate() {
                        let prod = mi.mul(mj);
                        // coeff of m in h·mi·mj: requires m = hm·prod term.
                        let c = coeff_of_product(&blk.multiplier, &prod, m);
                        if c != 0.0 {
                            a[(blk.offset + i, blk.offset + j)] += c;
                        }
                    }
                }
            }
            for blk in &self.free_blocks {
                for (t, mt) in blk.basis.iter().enumerate() {
                    let c = coeff_of_product(&blk.multiplier, mt, m);
                    if c != 0.0 {
                        a[(blk.offset + 2 * t, blk.offset + 2 * t)] += c;
                        a[(blk.offset + 2 * t + 1, blk.offset + 2 * t + 1)] -= c;
                    }
                }
            }
            let b = target_coeffs.get(m).copied().unwrap_or(0.0);
            problem.add_constraint(a, b);
        }
        problem
    }

    fn extract_and_verify(&self, x: &Matrix) -> Option<WeightedSosCertificate> {
        let mut sigmas = Vec::new();
        let mut reconstruction = Polynomial::<f64>::zero(self.arity);
        for blk in &self.sos_blocks {
            let n = blk.basis.len();
            let gram = Matrix::from_fn(n, n, |i, j| x[(blk.offset + i, blk.offset + j)]);
            // Blockwise PSD check with ridge.
            let ridged =
                Matrix::from_fn(n, n, |i, j| gram[(i, j)] + if i == j { 1e-6 } else { 0.0 });
            if cholesky(&ridged, 0.0).is_err() {
                return None;
            }
            let mut sigma = Polynomial::<f64>::zero(self.arity);
            for i in 0..n {
                for j in 0..n {
                    let q = gram[(i, j)];
                    if q != 0.0 {
                        sigma.add_term(blk.basis[i].mul(&blk.basis[j]), q);
                    }
                }
            }
            reconstruction = reconstruction.add(&blk.multiplier.mul(&sigma));
            sigmas.push((
                blk.multiplier.clone(),
                SosCertificate {
                    basis: blk.basis.clone(),
                    gram,
                    residual: 0.0,
                },
            ));
        }
        let mut lambdas = Vec::new();
        for blk in &self.free_blocks {
            let mut lambda = Polynomial::<f64>::zero(self.arity);
            for (t, mt) in blk.basis.iter().enumerate() {
                let c = x[(blk.offset + 2 * t, blk.offset + 2 * t)]
                    - x[(blk.offset + 2 * t + 1, blk.offset + 2 * t + 1)];
                if c != 0.0 {
                    lambda.add_term(mt.clone(), c);
                }
            }
            reconstruction = reconstruction.add(&blk.multiplier.mul(&lambda));
            lambdas.push((blk.multiplier.clone(), lambda));
        }
        let diff = reconstruction.sub(&self.target);
        let residual = diff.terms().map(|(_, c)| c.abs()).fold(0.0f64, f64::max);
        if residual > 1e-5 {
            return None;
        }
        Some(WeightedSosCertificate {
            sigmas,
            lambdas,
            residual,
        })
    }
}

/// Coefficient of monomial `m` in `h · prod` where `prod` is a monomial:
/// the coefficient of `m / prod` in `h` when the division is exact.
fn coeff_of_product(h: &Polynomial<f64>, prod: &Monomial, m: &Monomial) -> f64 {
    // m = hm · prod ⟺ hm = m − prod (componentwise, if non-negative).
    let mut exps = Vec::with_capacity(m.arity());
    for i in 0..m.arity() {
        let (me, pe) = (m.exp(i), prod.exp(i));
        if me < pe {
            return 0.0;
        }
        exps.push(me - pe);
    }
    let hm = Monomial::new(exps);
    h.terms()
        .find(|(cand, _)| **cand == hm)
        .map(|(_, c)| *c)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(arity: usize, i: usize) -> Polynomial<f64> {
        Polynomial::var(arity, i)
    }

    #[test]
    fn oversized_program_is_refused_before_assembly() {
        // 5,456 basis monomials: one dense constraint matrix alone is
        // 238 MB, so the program is refused before its support is built.
        let mut prog = WeightedSosProgram::new(Polynomial::constant(30, 1.0));
        prog.add_sos_block(Polynomial::constant(30, 1.0), 3);
        assert_eq!(prog.dimension(), 5_456);
        assert!(prog.solve(SdpOptions::default()).is_none());
    }

    #[test]
    fn plain_sos_block_matches_gram_path() {
        // target = (x−y)², no multipliers beyond the constant 1.
        let target = x(2, 0).sub(&x(2, 1)).pow(2);
        let mut prog = WeightedSosProgram::new(target);
        prog.add_sos_block(Polynomial::constant(2, 1.0), 1);
        let cert = prog.solve(SdpOptions::default()).expect("certified");
        assert!(cert.residual < 1e-6);
        assert_eq!(cert.sigmas.len(), 1);
    }

    #[test]
    fn box_certificate_for_x_times_one_minus_x() {
        // x(1−x) ≥ 0 on [0,1] via x(1−x) = 0·σ₀ + x(1−x)·σ₁ with σ₁ = 1;
        // more interestingly: certify γ − x(1−x) with γ = ¼ as plain SOS:
        // ¼ − x + x² = (x − ½)².
        let xx = x(1, 0);
        let target = Polynomial::constant(1, 0.25).sub(&xx).add(&xx.pow(2));
        let mut prog = WeightedSosProgram::new(target);
        prog.add_sos_block(Polynomial::constant(1, 1.0), 1);
        assert!(prog.solve(SdpOptions::default()).is_some());
    }

    #[test]
    fn putinar_certificate_on_the_box() {
        // f = x·(1−x)·4 is non-negative on [0,1] but indefinite on ℝ;
        // certify f = σ₀ + σ₁·x(1−x) with σ₀, σ₁ ∈ Σ² (σ₀ = 0, σ₁ = 4).
        let xx = x(1, 0);
        let box_poly = xx.mul(&Polynomial::constant(1, 1.0).sub(&xx));
        let target = box_poly.scale(&4.0);
        let mut prog = WeightedSosProgram::new(target.clone());
        prog.add_sos_block(Polynomial::constant(1, 1.0), 1);
        prog.add_sos_block(box_poly.clone(), 0);
        let cert = prog.solve(SdpOptions::default()).expect("certified");
        assert!(cert.residual < 1e-5);
        // Reconstruction identity spot check at sample points.
        for p in [[0.1], [0.5], [0.9]] {
            let recon: f64 = cert
                .sigmas
                .iter()
                .map(|(h, s)| {
                    let mut sigma = Polynomial::<f64>::zero(1);
                    let n = s.basis.len();
                    for i in 0..n {
                        for j in 0..n {
                            sigma.add_term(s.basis[i].mul(&s.basis[j]), s.gram[(i, j)]);
                        }
                    }
                    h.eval_f64(&p) * sigma.eval_f64(&p)
                })
                .sum();
            assert!((recon - target.eval_f64(&p)).abs() < 1e-4);
        }
    }

    #[test]
    fn equality_multiplier_used() {
        // Certify target = x·g with g treated as an equality multiplier:
        // target = g·λ with λ = x.
        let g = x(1, 0).pow(2).sub(&Polynomial::constant(1, 1.0)); // x² − 1 = 0
        let target = g.mul(&x(1, 0)); // x³ − x
        let mut prog = WeightedSosProgram::new(target);
        prog.add_sos_block(Polynomial::constant(1, 1.0), 1);
        prog.add_free_block(g, 1);
        let cert = prog.solve(SdpOptions::default()).expect("certified");
        assert_eq!(cert.lambdas.len(), 1);
    }

    #[test]
    fn infeasible_when_target_is_negative_constant_without_helpers() {
        // −1 = σ₀ has no SOS solution.
        let target = Polynomial::constant(1, -1.0);
        let mut prog = WeightedSosProgram::new(target);
        prog.add_sos_block(Polynomial::constant(1, 1.0), 1);
        assert!(prog.solve(SdpOptions::default()).is_none());
    }

    #[test]
    fn coeff_of_product_division() {
        // h = 2x + 3, prod = x: coeff of x² in h·x is 2; of x is 3; of 1 is 0.
        let h = x(1, 0).scale(&2.0).add(&Polynomial::constant(1, 3.0));
        let prod = Monomial::var(1, 0);
        assert_eq!(coeff_of_product(&h, &prod, &Monomial::new(vec![2])), 2.0);
        assert_eq!(coeff_of_product(&h, &prod, &Monomial::new(vec![1])), 3.0);
        assert_eq!(coeff_of_product(&h, &prod, &Monomial::one(1)), 0.0);
    }
}
