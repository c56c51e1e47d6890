//! # epi-solver
//!
//! Decision procedures for epistemic privacy (Section 6 of the
//! Evfimievski–Fagin–Woodruff paper, plus the solver-side counterparts of
//! Sections 3–5):
//!
//! * [`verdict`] — three-valued outcomes with certificates and witnesses;
//! * [`product`] — the complete branch-and-bound decision procedure for
//!   product distributions (`Π_m⁰`), with exact rational refutation
//!   witnesses and rigorous ε-margin safety proofs;
//! * [`pipeline`] — the criteria cascade (Theorem 3.11 → Miklau–Suciu →
//!   monotonicity → cancellation → box criterion → branch-and-bound) with
//!   stage provenance;
//! * [`logsupermod`] — refutation search over the log-supermodular family
//!   (Proposition 5.2 construction + ferromagnetic Ising hill-climb);
//! * [`algebraic`] — general algebraic families and the `K(A, B, Π)`
//!   emptiness driver (Proposition 6.1), combining numeric breach search
//!   with Positivstellensatz ε-safety certification;
//! * [`hardness`] — the MAX-CUT-flavored hard family of Theorem 6.2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebraic;
pub mod bernstein;
pub mod hardness;
pub mod logsupermod;
pub mod pipeline;
pub mod product;
pub mod verdict;
pub mod wire;

pub use algebraic::{AlgebraicFamily, AlgebraicOptions, AlgebraicWitness};
pub use pipeline::{
    decide_product_pipeline, decide_product_pipeline_deadline, decide_product_pipeline_observed,
    PipelineDecision, Stage, StageObserver,
};
pub use product::{
    decide_product_safety, decide_product_safety_deadline, ProductSolverOptions,
    ProductSolverStats, ProductWitness,
};
pub use verdict::{SafeEvidence, UndecidedReason, Verdict};
