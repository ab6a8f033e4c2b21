//! A complete node specification: gears + CPU timing + power.
//!
//! [`NodeSpec`] is the unit of cluster configuration. It answers the two
//! questions the simulator asks: *how long does this work block take at
//! gear g* and *how much power does the node draw while doing it (or
//! while blocked)*.

use crate::cpu::{CpuModel, WorkBlock};
use crate::gear::{Gear, GearTable};
use crate::power::PowerModel;
use serde::{Deserialize, Serialize};

/// A node type in a (possibly power-scalable) cluster.
///
/// ```
/// use psc_machine::{presets, WorkBlock};
///
/// let node = presets::athlon64();
/// // A CG-like block: extreme memory pressure (paper Table 1).
/// let work = WorkBlock::with_upm(1.0e9, 8.6);
/// let (fast, slow) = (node.gear(1), node.gear(5));
///
/// // Slowing the clock 40 % costs this block under 10 % time...
/// let slowdown = node.compute_time_s(&work, slow) / node.compute_time_s(&work, fast);
/// assert!(slowdown < 1.10);
/// // ...and saves well over 10 % energy.
/// let savings = 1.0 - node.compute_energy_j(&work, slow) / node.compute_energy_j(&work, fast);
/// assert!(savings > 0.15);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable name, e.g. `"athlon64"`.
    pub name: String,
    /// Available frequency/voltage gears, fastest first.
    pub gears: GearTable,
    /// CPU timing parameters.
    pub cpu: CpuModel,
    /// System power parameters.
    pub power: PowerModel,
    /// Core stall while switching gears (PLL relock + voltage ramp),
    /// seconds. Athlon-64-era PowerNow! transitions cost tens of
    /// microseconds.
    pub dvfs_transition_s: f64,
}

impl NodeSpec {
    /// Construct a node spec with the default 20 µs DVFS transition.
    pub fn new(
        name: impl Into<String>,
        gears: GearTable,
        cpu: CpuModel,
        power: PowerModel,
    ) -> Self {
        NodeSpec { name: name.into(), gears, cpu, power, dvfs_transition_s: 20e-6 }
    }

    /// Whether the node supports more than one gear.
    pub fn is_power_scalable(&self) -> bool {
        self.gears.len() > 1
    }

    /// Gear by 1-based index (panics when out of range).
    pub fn gear(&self, index: usize) -> Gear {
        self.gears.gear(index)
    }

    /// Execution time of a work block at a gear, seconds.
    pub fn compute_time_s(&self, work: &WorkBlock, gear: Gear) -> f64 {
        self.cpu.time_s(work, gear)
    }

    /// Average system power while executing a work block at a gear, watts.
    pub fn compute_power_w(&self, work: &WorkBlock, gear: Gear) -> f64 {
        self.power.compute_w(&self.cpu, work, gear)
    }

    /// System power while the node is blocked/idle at a gear — the
    /// paper's `I_g`, watts.
    pub fn idle_power_w(&self, gear: Gear) -> f64 {
        self.power.idle_w(gear)
    }

    /// Energy to execute a work block at a gear with no blocking, joules.
    pub fn compute_energy_j(&self, work: &WorkBlock, gear: Gear) -> f64 {
        self.compute_time_s(work, gear) * self.compute_power_w(work, gear)
    }

    /// The application slowdown ratio the paper calls `S_g`:
    /// `S_g = T_g(1)/T_1(1)` for a given (sequential) work block.
    ///
    /// Note the paper text defines `S_g` as the *relative increase*
    /// `(T_g - T_1)/T_1` but then uses it multiplicatively
    /// (`T_g = S_g·T^A + T^I`), which only makes sense for the ratio;
    /// we implement the ratio form used by the equations.
    pub fn slowdown_ratio(&self, work: &WorkBlock, gear: Gear) -> f64 {
        self.cpu.slowdown(work, self.gears.fastest(), gear)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn athlon_preset_is_power_scalable() {
        let n = presets::athlon64();
        assert!(n.is_power_scalable());
        assert_eq!(n.gears.len(), 6);
    }

    #[test]
    fn energy_is_time_times_power() {
        let n = presets::athlon64();
        let w = WorkBlock::with_upm(1e9, 70.0);
        let g = n.gear(3);
        let e = n.compute_energy_j(&w, g);
        assert!((e - n.compute_time_s(&w, g) * n.compute_power_w(&w, g)).abs() < 1e-9);
    }

    #[test]
    fn slowdown_ratio_is_one_at_fastest_gear() {
        let n = presets::athlon64();
        let w = WorkBlock::with_upm(1e9, 49.5);
        assert!((n.slowdown_ratio(&w, n.gear(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_ratio_monotone_in_gear() {
        let n = presets::athlon64();
        let w = WorkBlock::with_upm(1e9, 79.6);
        let mut prev = 0.0;
        for g in n.gears.iter() {
            let s = n.slowdown_ratio(&w, g);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn idle_power_below_compute_power() {
        let n = presets::athlon64();
        let w = WorkBlock::with_upm(1e9, 8.6);
        for g in n.gears.iter() {
            assert!(n.idle_power_w(g) < n.compute_power_w(&w, g));
        }
    }
}
