//! # psc-experiments
//!
//! The reproduction harness: the paper campaign as one table of
//! artifacts, run by the `paper` binary, on a shared measurement library
//! so the test suite and the benchmark ledger exercise the exact same
//! code paths.
//!
//! | module     | what it holds |
//! |------------|---------------|
//! | `campaign` | the artifact table and its shared epilogue (below) |
//! | `harness`  | engine construction from arguments, curves, decompositions, model fits, telemetry snapshots |
//! | `report`   | artifact files and paper-vs-measured claims |
//!
//! | artifact        | paper artifact | what it does |
//! |-----------------|----------------|--------------|
//! | `fig1`          | Figure 1       | 6 NAS benchmarks × 6 gears on one node |
//! | `table1`        | Table 1        | UPM + energy-time slopes, sorted |
//! | `fig2`          | Figure 2       | NAS suite on 2/4/8 (BT/SP 4/9) nodes, case taxonomy |
//! | `fig3`          | Figure 3       | Jacobi on 2/4/6/8/10 nodes |
//! | `fig4`          | Figure 4       | synthetic high-memory-pressure benchmark |
//! | `fig5`          | Figure 5       | model fit ≤9 nodes → extrapolation to 16/25/32 |
//! | `claims`        | §3 narrative   | every headline numeric claim, paper vs measured |
//! | `ablations`     | DESIGN.md §6   | naive/refined model (3 workload shapes), shape misclassification, base-power sensitivity, switch contention |
//! | `fig_policy`    | —              | online gear policies against static gears, Pareto frontier |
//! | `ablate-faults` | —              | Figures 1–3 orderings under a ladder of injected noise |
//! | `summary`       | —              | one-page digest of the results CSVs |
//!
//! `paper [artifact…]` prints ASCII plots/tables and writes CSVs into
//! `./results` (override with the `RESULTS_DIR` environment variable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod harness;
pub mod report;
