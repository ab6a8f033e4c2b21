//! # psc-machine
//!
//! Node-level machine models for simulating a *power-scalable cluster*:
//! a cluster whose CPUs expose discrete frequency/voltage operating points
//! ("gears", in the terminology of Freeh et al., IPPS 2005).
//!
//! This crate provides the physical substrate that the rest of the
//! `powerscale` workspace builds on:
//!
//! * [`gear`] — frequency/voltage operating points and gear tables.
//! * [`cpu`] — the execution-time model: CPU-bound work scales with
//!   frequency, memory-stall time does not. This single asymmetry produces
//!   the paper's entire energy-time tradeoff.
//! * [`power`] — the power model: constant system base power plus
//!   `C·V²·f` CPU dynamic power and voltage-dependent leakage.
//! * [`wattmeter`] — the "multimeter at the wall outlet": step-function
//!   power profiles, sampled integration, and exact integration.
//! * [`counters`] — simulated hardware counters (µops, L2 misses, cycles)
//!   from which the paper's UPM and UPC metrics are derived.
//! * [`wire`] — the little-endian frame the run cache's disk entries use;
//!   [`Counters`] and [`PowerTrace`] encode themselves into it.
//! * [`node`] — a complete node specification tying the above together.
//! * [`presets`] — calibrated machine presets: the paper's AMD Athlon-64
//!   cluster, the Sun validation cluster, and a low-power comparison point.
//!
//! ## Units
//!
//! All quantities are `f64` with the unit encoded in the name: `_s` seconds,
//! `_j` joules, `_w` watts, `_hz` hertz, `_v` volts. Frequencies are stored
//! in hertz (e.g. 2.0 GHz = `2.0e9`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counters;
pub mod cpu;
pub mod gear;
pub mod node;
pub mod power;
pub mod presets;
pub mod wattmeter;
pub mod wire;

pub use counters::Counters;
pub use cpu::{CpuModel, WorkBlock};
pub use gear::{Gear, GearTable};
pub use node::NodeSpec;
pub use power::PowerModel;
pub use wattmeter::{PowerTrace, Segment, Wattmeter};
