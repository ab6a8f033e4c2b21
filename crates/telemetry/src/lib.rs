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
//!   Its streaming event writer, which appends each event straight to
//!   the output text, is the only way a trace is written.
//! * [`manifest`] — a JSON run manifest (configuration, gear selection,
//!   aggregate counters, attribution tables) for archival under
//!   `results/`.
//! * [`selftrace`] — the same Trace Event Format export, through the
//!   same writer, for the sweep *engine's own* profiling spans
//!   (`psc_metrics::Profiler`): resolve pass, worker lanes, per-run
//!   execution — the host-side flamegraph behind `--self-trace-out`.
//! * [`sweep`] — a JSON sweep manifest (worker count, run-cache
//!   hit/miss accounting, wall-clock) describing how a whole
//!   measurement campaign executed.
//!
//! Every export is a `String`; [`write_file`] puts any of them on disk.
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
pub use chrome::chrome_trace_json;
pub use manifest::RunManifest;
pub use selftrace::self_trace_json;
pub use sweep::SweepManifest;

use std::io;
use std::path::Path;

/// Write `contents` to `path`, creating parent directories as needed.
/// The error names the path.
pub fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    let write = || {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, contents)
    };
    write().map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", path.display())))
}
