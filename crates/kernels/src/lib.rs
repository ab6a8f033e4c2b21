//! # psc-kernels
//!
//! Parallel benchmark kernels for the power-scalable cluster simulator:
//! Rust implementations of the six NAS benchmarks the paper evaluates
//! (CG, EP, MG, LU, BT, SP), the hand-written Jacobi iteration of
//! Figure 3, and the synthetic high-memory-pressure benchmark of
//! Figure 4.
//!
//! ## Real math, scaled charging
//!
//! Every kernel performs *real* distributed arithmetic through the
//! `psc-mpi` runtime — CG really solves a sparse SPD system, MG really
//! runs multigrid V-cycles, the ADI kernels really sweep implicit
//! solves across a process grid — and each returns verifiable results
//! (residuals, counts, checksums) that the test suite checks across
//! node counts and gears.
//!
//! Because the host is small and the paper's class-B problems are not,
//! kernels run their arithmetic on reduced problem sizes while charging
//! *virtual* costs at class-B scale: compute blocks are charged
//! `flops × UOPS_PER_FLOP × work_scale` micro-operations at the
//! benchmark's measured UPM (µops per L2 miss, Table 1 of the paper),
//! and message payloads are inflated by a geometry-derived `wire_scale`
//! (see [`psc_mpi::Comm::set_wire_scale`]). Virtual time and energy
//! depend only on the charged counters and the message pattern, so the
//! downscaling preserves the energy-time shapes; DESIGN.md documents
//! the substitution.
//!
//! ## Memory-pressure characterization (paper Table 1)
//!
//! | benchmark | UPM (µops per L2 miss) |
//! |-----------|------------------------|
//! | EP        | 844                    |
//! | BT        | 79.6                   |
//! | LU        | 73.5                   |
//! | MG        | 70.6                   |
//! | SP        | 49.5                   |
//! | CG        | 8.6                    |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bt;
pub mod cg;
pub mod common;
pub mod ep;
pub mod ft;
pub mod is;
pub mod jacobi;
pub mod lu;
pub mod mg;
pub mod sp;
pub mod suite;
pub mod synthetic;

pub use suite::{Benchmark, KernelOutput, ProblemClass};
