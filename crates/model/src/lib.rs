//! # psc-model
//!
//! The paper's primary contribution: a five-step methodology that
//! predicts the execution time *and* energy consumption of MPI programs
//! on power-scalable clusters larger than the one you can measure.
//!
//! The steps (paper §4.1) map to modules as follows:
//!
//! 1. **Gather time traces** — done by `psc-mpi`'s interception layer;
//!    [`decompose`] turns run results into the `T^A(n)` / `T^I(n)`
//!    series.
//! 2. **Model computation and communication** — [`amdahl`] estimates
//!    the parallel/sequential fractions `F_p`/`F_s`; [`comm`] classifies
//!    communication as constant/logarithmic/linear/quadratic by
//!    least-squares model selection.
//! 3. **Extrapolate** `T^A(m)` and `T^I(m)` to unmeasured node counts
//!    at the fastest gear — [`predict`].
//! 4. **Determine S_g, P_g, I_g** from single-node per-gear runs —
//!    [`gears`].
//! 5. **Determine T_g(m), E_g(m)** — the naive equations (1)–(2) and
//!    the refined critical/reducible model with its slack inflection
//!    point — [`predict`].
//!
//! [`validate`] implements the paper's cross-cluster validation (the
//! 32-node Sun cluster). The paper's future work lives elsewhere:
//! gear selection from memory pressure is `psc-policy`'s
//! `phase-adaptive` rule, and the node-bottleneck planner is private
//! to `examples/gear_advisor.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amdahl;
pub mod comm;
pub mod decompose;
pub mod gears;
pub mod predict;
pub mod regression;
pub mod validate;

pub use amdahl::AmdahlFit;
pub use comm::{CommFit, CommShape};
pub use decompose::Decomposition;
pub use gears::GearProfile;
pub use predict::{ClusterModel, Prediction};
