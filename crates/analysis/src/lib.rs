//! # psc-analysis
//!
//! Analysis of energy-time measurements from power-scalable cluster
//! runs: the curves of Figures 1–5, the slope/UPM predictor of Table 1,
//! the paper's case 1/2/3 taxonomy for comparing node counts, Pareto
//! frontiers over (nodes, gear) configurations, and terminal/CSV
//! reporting.
//!
//! This crate is deliberately independent of the simulator: it consumes
//! plain `(gear, time, energy)` observations, so it can equally be fed
//! measurements from real hardware.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cases;
pub mod curve;
pub mod metrics;
pub mod pareto;
pub mod plot;
pub mod table;

pub use cases::{classify_pair, ScalingCase};
pub use curve::{EnergyTimeCurve, EnergyTimePoint};
pub use metrics::{best_ed2p_gear, best_edp_gear, Merit};
pub use pareto::{pareto_frontier, Config};
pub use table::{Table1Row, UpmTable};
