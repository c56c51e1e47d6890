//! # epi-sdp
//!
//! A projection-based semidefinite feasibility solver — the numerical
//! engine behind the sum-of-squares heuristic of Section 6.2 of the
//! *Epistemic Privacy* paper (Proposition 6.4: testing `f ∈ Σ²` is a
//! semidefinite program).
//!
//! The problem solved is semidefinite *feasibility* in standard form:
//!
//! ```text
//! find  X ⪰ 0   with   ⟨A_k, X⟩ = b_k   (k = 1 … m)
//! ```
//!
//! by Douglas–Rachford splitting between the affine subspace
//! `L = {X : ⟨A_k, X⟩ = b_k}` (a linear least-squares step) and the PSD
//! cone (an eigendecomposition clamp): reflect through one set, reflect
//! through the other, average. It converges linearly on most instances,
//! including the degenerate low-dimensional-face solutions produced by SOS
//! programs, where plain alternating projections crawl sublinearly. For
//! the Gram-matrix SDPs produced by `epi-sos` (dozens of rows, highly
//! structured constraints) this simple method is robust and fast, and —
//! unlike an interior-point code — trivially auditable. A plateauing
//! residual stops the run early as cheap infeasibility evidence.
//!
//! A returned [`SdpStatus::Feasible`] witness is *post-verified*: the
//! residuals reported alongside it are recomputed from scratch, so callers
//! can apply their own acceptance thresholds (the SOS layer additionally
//! re-verifies by Cholesky with a ridge before trusting a certificate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use epi_linalg::{is_psd, project_psd, solve, LinalgError, Matrix};

/// A semidefinite feasibility problem over symmetric `dim × dim` matrices.
#[derive(Clone, Debug)]
pub struct SdpProblem {
    dim: usize,
    constraints: Vec<(Matrix, f64)>,
}

impl SdpProblem {
    /// Creates an unconstrained problem over `dim × dim` matrices.
    pub fn new(dim: usize) -> SdpProblem {
        SdpProblem {
            dim,
            constraints: Vec::new(),
        }
    }

    /// Adds the constraint `⟨a, X⟩ = b`. `a` is symmetrized (only its
    /// symmetric part acts on symmetric `X`).
    ///
    /// # Panics
    ///
    /// Panics when `a` is not `dim × dim`.
    pub fn add_constraint(&mut self, mut a: Matrix, b: f64) {
        assert_eq!(
            (a.rows(), a.cols()),
            (self.dim, self.dim),
            "constraint matrix has wrong shape"
        );
        a.symmetrize();
        self.constraints.push((a, b));
    }

    /// Matrix side length.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Largest constraint violation `max |⟨A_k, X⟩ − b_k|` at `x`.
    pub fn residual(&self, x: &Matrix) -> f64 {
        self.constraints
            .iter()
            .map(|(a, b)| (a.frobenius_dot(x) - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Outcome of a feasibility solve.
#[derive(Clone, Debug)]
pub enum SdpStatus {
    /// A PSD matrix satisfying the constraints within the tolerances; the
    /// reported `constraint_residual` is recomputed from the witness.
    Feasible {
        /// The feasible point.
        x: Matrix,
        /// `max_k |⟨A_k, X⟩ − b_k|`.
        constraint_residual: f64,
    },
    /// The projections stalled at a positive gap; strong evidence (not a
    /// certificate) that the intersection is empty.
    Stalled {
        /// Best constraint residual among PSD iterates.
        best_residual: f64,
        /// Iterations consumed.
        iterations: usize,
    },
    /// A numerical kernel failed (ill-conditioned constraint Gram matrix or
    /// non-convergent eigensolve).
    NumericalFailure(LinalgError),
}

/// Options for [`solve_feasibility`].
#[derive(Clone, Copy, Debug)]
pub struct SdpOptions {
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Acceptance threshold on the constraint residual of a PSD iterate.
    pub tolerance: f64,
}

impl Default for SdpOptions {
    fn default() -> Self {
        SdpOptions {
            max_iterations: 6000,
            tolerance: 1e-7,
        }
    }
}

/// Projects onto the affine subspace `{X : ⟨A_k, X⟩ = b_k}` by solving the
/// normal equations of the constraint Gram matrix (ridged for redundancy).
struct AffineProjector<'a> {
    problem: &'a SdpProblem,
    gram: Matrix,
}

impl<'a> AffineProjector<'a> {
    fn new(problem: &'a SdpProblem) -> AffineProjector<'a> {
        let m = problem.constraints.len();
        let mut gram = Matrix::zeros(m, m);
        for i in 0..m {
            for j in i..m {
                let g = problem.constraints[i]
                    .0
                    .frobenius_dot(&problem.constraints[j].0);
                gram[(i, j)] = g;
                gram[(j, i)] = g;
            }
        }
        // Tiny ridge tolerates linearly dependent constraints.
        for i in 0..m {
            gram[(i, i)] += 1e-12;
        }
        AffineProjector { problem, gram }
    }

    fn project(&self, x: &Matrix) -> Result<Matrix, LinalgError> {
        let m = self.problem.constraints.len();
        if m == 0 {
            return Ok(x.clone());
        }
        let r: Vec<f64> = self
            .problem
            .constraints
            .iter()
            .map(|(a, b)| b - a.frobenius_dot(x))
            .collect();
        let lambda = solve(&self.gram, &r)?;
        let mut out = x.clone();
        for (l, (a, _)) in lambda.iter().zip(&self.problem.constraints) {
            if *l == 0.0 {
                continue;
            }
            for (o, v) in out.data_mut().iter_mut().zip(a.data()) {
                *o += l * v;
            }
        }
        Ok(out)
    }
}

/// Solves the feasibility problem by Douglas–Rachford splitting, starting
/// from the identity.
pub fn solve_feasibility(problem: &SdpProblem, options: SdpOptions) -> SdpStatus {
    let projector = AffineProjector::new(problem);
    let mut x = Matrix::identity(problem.dim());
    let mut best_residual = f64::INFINITY;
    for iter in 0..options.max_iterations {
        // y ← y + P_psd(2·P_aff(y) − y) − P_aff(y); the PSD candidate `z`
        // is the PSD projection of the affine point.
        let pa = match projector.project(&x) {
            Ok(y) => y,
            Err(e) => return SdpStatus::NumericalFailure(e),
        };
        let reflected = &pa.scale(2.0) - &x;
        let pb = match project_psd(&reflected) {
            Ok(z) => z,
            Err(e) => return SdpStatus::NumericalFailure(e),
        };
        x = &(&x + &pb) - &pa;
        let z = match project_psd(&pa) {
            Ok(z) => z,
            Err(e) => return SdpStatus::NumericalFailure(e),
        };
        let residual = problem.residual(&z);
        best_residual = best_residual.min(residual);
        if residual < options.tolerance {
            return SdpStatus::Feasible {
                constraint_residual: residual,
                x: z,
            };
        }
        // Cheap stall detection: if the residual is not improving late in
        // the run, stop early.
        if iter > 500
            && iter % 250 == 0
            && residual > 0.999 * best_residual
            && residual > 1e4 * options.tolerance
        {
            return SdpStatus::Stalled {
                best_residual,
                iterations: iter + 1,
            };
        }
    }
    SdpStatus::Stalled {
        best_residual,
        iterations: options.max_iterations,
    }
}

/// Convenience: `true` iff the solve produced a feasible witness that is
/// PSD within `psd_tol` (re-verified independently of the solver).
pub fn is_feasible(problem: &SdpProblem, options: SdpOptions, psd_tol: f64) -> bool {
    match solve_feasibility(problem, options) {
        SdpStatus::Feasible { x, .. } => is_psd(&x, psd_tol),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_psd(n: usize, rng: &mut impl Rng) -> Matrix {
        let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        &b * &b.transpose()
    }

    fn basis_matrix(n: usize, i: usize, j: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        if i == j {
            m[(i, i)] = 1.0;
        } else {
            m[(i, j)] = 0.5;
            m[(j, i)] = 0.5;
        }
        m
    }

    #[test]
    fn feasible_random_instances() {
        // Constraints generated from a known PSD X₀ are feasible by
        // construction; the solver must find some feasible point.
        let mut rng = rand::rngs::StdRng::seed_from_u64(163);
        for trial in 0..10 {
            let n = 5;
            let x0 = random_psd(n, &mut rng);
            let mut problem = SdpProblem::new(n);
            for _ in 0..6 {
                let mut a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
                a.symmetrize();
                let b = a.frobenius_dot(&x0);
                problem.add_constraint(a, b);
            }
            match solve_feasibility(&problem, SdpOptions::default()) {
                SdpStatus::Feasible {
                    x,
                    constraint_residual,
                } => {
                    assert!(constraint_residual < 1e-7);
                    assert!(is_psd(&x, 1e-7), "witness must be PSD");
                    assert!(problem.residual(&x) < 1e-7);
                }
                other => panic!("trial {trial}: expected feasible, got {other:?}"),
            }
        }
    }

    #[test]
    fn infeasible_by_negative_trace() {
        // trace(X) = −1 is impossible for X ⪰ 0.
        let n = 4;
        let mut problem = SdpProblem::new(n);
        problem.add_constraint(Matrix::identity(n), -1.0);
        match solve_feasibility(
            &problem,
            SdpOptions {
                max_iterations: 600,
                ..Default::default()
            },
        ) {
            SdpStatus::Stalled { best_residual, .. } => {
                assert!(best_residual > 0.1, "gap should stay large");
            }
            SdpStatus::Feasible { .. } => panic!("cannot be feasible"),
            SdpStatus::NumericalFailure(e) => panic!("unexpected failure: {e}"),
        }
        assert!(!is_feasible(&problem, SdpOptions::default(), 1e-9));
    }

    #[test]
    fn infeasible_by_conflicting_entries() {
        // X₁₁ = −2 conflicts with PSD (diagonal of a PSD matrix is ≥ 0).
        let n = 3;
        let mut problem = SdpProblem::new(n);
        problem.add_constraint(basis_matrix(n, 0, 0), -2.0);
        assert!(!is_feasible(&problem, SdpOptions::default(), 1e-9));
    }

    #[test]
    fn diagonal_prescription_feasible() {
        // Prescribing a PSD-compatible diagonal and an off-diagonal entry.
        let n = 3;
        let mut problem = SdpProblem::new(n);
        problem.add_constraint(basis_matrix(n, 0, 0), 2.0);
        problem.add_constraint(basis_matrix(n, 1, 1), 2.0);
        problem.add_constraint(basis_matrix(n, 0, 1), 1.0);
        match solve_feasibility(&problem, SdpOptions::default()) {
            SdpStatus::Feasible { x, .. } => {
                assert!((x[(0, 0)] - 2.0).abs() < 1e-6);
                assert!((x[(0, 1)] - 1.0).abs() < 1e-6);
                assert!(is_psd(&x, 1e-8));
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn redundant_constraints_tolerated() {
        let n = 3;
        let mut problem = SdpProblem::new(n);
        let a = basis_matrix(n, 0, 0);
        problem.add_constraint(a.clone(), 1.0);
        problem.add_constraint(a.clone(), 1.0); // duplicate
        problem.add_constraint(a.scale(2.0), 2.0); // dependent
        assert!(is_feasible(&problem, SdpOptions::default(), 1e-8));
    }

    #[test]
    fn unconstrained_problem_immediately_feasible() {
        let problem = SdpProblem::new(4);
        match solve_feasibility(&problem, SdpOptions::default()) {
            SdpStatus::Feasible { x, .. } => assert!(is_psd(&x, 1e-10)),
            other => panic!("expected feasible, got {other:?}"),
        }
    }
}
