//! # powerscale
//!
//! A reproduction of *"Exploring the Energy-Time Tradeoff in MPI Programs
//! on a Power-Scalable Cluster"* (Freeh, Pan, Kappiah, Lowenthal,
//! Springer — IPPS 2005) as a Rust library.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`machine`] — gears, CPU/memory timing, power models, wattmeter.
//! * [`mpi`] — a virtual-time message-passing runtime with tracing.
//! * [`kernels`] — NAS-like benchmarks (CG, EP, MG, LU, BT, SP), Jacobi,
//!   and the synthetic high-memory-pressure benchmark.
//! * [`model`] — the paper's five-step energy-time prediction model.
//! * [`faults`] — deterministic fault injection: scheduled clock
//!   jitter, stragglers, memory bursts, network faults, and wattmeter
//!   noise, all reproducible from a seed at any worker count.
//! * [`metrics`] — lock-free engine self-observability: counters,
//!   gauges, histograms with quantile estimation, profiling spans,
//!   Prometheus text exposition.
//! * [`policy`] — online DVFS gear policies: static, per-phase
//!   adaptive, cluster power capping, and oracle schedule replay.
//! * [`runner`] — the parallel sweep engine and memoizing run cache.
//! * [`telemetry`] — run manifests, energy attribution, and Trace
//!   Event exports for both simulated ranks and the engine itself.
//! * [`analysis`] — energy-time curves, slopes, UPM predictor, the
//!   case 1/2/3 taxonomy, Pareto frontiers and report formatting.
//! * [`experiments`] — harnesses that regenerate every table and figure.
//!
//! See `README.md` for a quickstart and `DESIGN.md` / `EXPERIMENTS.md`
//! for the system inventory and per-experiment reproduction records.

#![forbid(unsafe_code)]

pub use psc_analysis as analysis;
pub use psc_experiments as experiments;
pub use psc_faults as faults;
pub use psc_kernels as kernels;
pub use psc_machine as machine;
pub use psc_metrics as metrics;
pub use psc_model as model;
pub use psc_mpi as mpi;
pub use psc_policy as policy;
pub use psc_runner as runner;
pub use psc_telemetry as telemetry;

/// Commonly used items, importable with `use powerscale::prelude::*`.
pub mod prelude {
    pub use psc_analysis::curve::{EnergyTimeCurve, EnergyTimePoint};
    pub use psc_faults::{FaultPlan, DEFAULT_NOISE_LEVEL};
    pub use psc_machine::{CpuModel, Gear, GearTable, NodeSpec, PowerModel, WorkBlock};
    pub use psc_mpi::cluster::{Cluster, ClusterConfig, RunResult};
    pub use psc_mpi::comm::Comm;
    pub use psc_mpi::network::NetworkModel;
    pub use psc_policy::PolicySpec;
    pub use psc_runner::{Engine, RunCache, RunPlan, RunSpec};
}
