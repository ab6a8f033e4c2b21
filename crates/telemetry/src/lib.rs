//! # psc-telemetry
//!
//! Turns the measurement products of a [`psc_mpi::Cluster::run`] — per-rank
//! MPI traces, phase spans, gear shifts, and wall-outlet power profiles —
//! into structured, exportable run records:
//!
//! * [`attribution`] — joins each rank's [`psc_mpi::RankTrace`] with its
//!   [`psc_machine::PowerTrace`] to attribute joules to application phases
//!   and to categories (compute, each MPI operation kind, DVFS stalls,
//!   end-of-run idling). Attributed category energy sums back to
//!   [`psc_machine::PowerTrace::exact_energy_j`] — the join loses nothing.
//! * [`chrome`] — exports a run as Chrome Trace Event Format JSON (one
//!   track per rank: phase spans, MPI operations, a wattage counter),
//!   loadable in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//! * [`manifest`] — a JSON run manifest (configuration, gear selection,
//!   aggregate counters, attribution tables) for archival under
//!   `results/`.
//! * [`selftrace`] — the same Trace Event Format export for the sweep
//!   *engine's own* profiling spans (`psc_metrics::Profiler`): resolve
//!   pass, worker lanes, per-run execution — the host-side flamegraph
//!   behind `--self-trace-out`.
//! * [`sweep`] — a JSON sweep manifest (worker count, run-cache
//!   hit/miss accounting, wall-clock) describing how a whole
//!   measurement campaign executed.
//!
//! Telemetry is passive: everything here post-processes the traces a run
//! already collects, so simulation cost is unchanged when no exporter is
//! invoked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attribution;
pub mod chrome;
pub mod manifest;
pub mod selftrace;
pub mod sweep;

pub use attribution::{
    CategorySlice, EnergyCategory, PhaseEnergy, RankAttribution, RunAttribution,
};
pub use chrome::{chrome_trace, write_chrome_trace};
pub use manifest::RunManifest;
pub use selftrace::{self_trace, write_self_trace};
pub use sweep::SweepManifest;
