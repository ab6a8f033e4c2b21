//! Rack-level power and heat budgeting.
//!
//! The paper repeatedly motivates power scaling with facility limits:
//! "this may potentially allow for supercomputing centers to fit more
//! nodes in a rack while staying within a given power budget", and
//! "a cluster may have heat limitations". This module turns those
//! sentences into arithmetic: given a per-rack power (or cooling)
//! budget and a node's per-gear power draw, how many nodes fit, and
//! what aggregate compute throughput does each choice of gear deliver?

use crate::cpu::WorkBlock;
use crate::node::NodeSpec;
use serde::{Deserialize, Serialize};

/// Watts-to-BTU/h conversion (1 W = 3.412 BTU/h), for cooling specs.
pub const BTU_PER_HOUR_PER_WATT: f64 = 3.412;

/// One gear's rack-packing option.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RackOption {
    /// Gear the whole rack runs at.
    pub gear: usize,
    /// Nodes that fit under the power budget at this gear.
    pub nodes: usize,
    /// Power drawn by the full rack while computing, watts.
    pub rack_power_w: f64,
    /// Aggregate throughput in work-blocks per second (relative units;
    /// proportional to µops/s for the reference workload).
    pub throughput: f64,
}

impl RackOption {
    /// Heat output requiring cooling, BTU per hour.
    pub fn heat_btu_per_hour(&self) -> f64 {
        self.rack_power_w * BTU_PER_HOUR_PER_WATT
    }
}

/// Enumerate the rack-packing options of a node type under a per-rack
/// power budget, for a reference workload (which sets per-gear node
/// power and per-node throughput). `max_slots` caps the physical
/// space in the rack.
pub fn rack_options(
    node: &NodeSpec,
    workload: &WorkBlock,
    budget_w: f64,
    max_slots: usize,
) -> Vec<RackOption> {
    assert!(budget_w > 0.0 && max_slots > 0);
    node.gears
        .iter()
        .map(|gear| {
            let node_w = node.compute_power_w(workload, gear);
            let fit = ((budget_w / node_w).floor() as usize).min(max_slots);
            let per_node_rate = 1.0 / node.compute_time_s(workload, gear);
            RackOption {
                gear: gear.index,
                nodes: fit,
                rack_power_w: fit as f64 * node_w,
                throughput: fit as f64 * per_node_rate,
            }
        })
        .collect()
}

/// The gear maximizing rack throughput under the budget. Ties go to
/// the faster gear.
pub fn best_rack_option(
    node: &NodeSpec,
    workload: &WorkBlock,
    budget_w: f64,
    max_slots: usize,
) -> RackOption {
    rack_options(node, workload, budget_w, max_slots)
        .into_iter()
        .max_by(|a, b| a.throughput.partial_cmp(&b.throughput).unwrap().then(b.gear.cmp(&a.gear)))
        .expect("node has at least one gear")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::athlon64;

    #[test]
    fn more_nodes_fit_at_lower_gears() {
        let node = athlon64();
        let w = WorkBlock::with_upm(1.0e9, 70.0);
        let opts = rack_options(&node, &w, 2000.0, 64);
        for pair in opts.windows(2) {
            assert!(pair[1].nodes >= pair[0].nodes, "{opts:?}");
        }
        assert!(opts.last().unwrap().nodes > opts[0].nodes);
    }

    #[test]
    fn rack_power_never_exceeds_budget() {
        let node = athlon64();
        let w = WorkBlock::with_upm(1.0e9, 8.6);
        for budget in [300.0, 1000.0, 5000.0] {
            for o in rack_options(&node, &w, budget, 128) {
                assert!(o.rack_power_w <= budget + 1e-9, "budget {budget}: {o:?}");
            }
        }
    }

    #[test]
    fn memory_bound_racks_prefer_slow_gears() {
        // For CG-like work, a slow gear loses little per-node speed but
        // packs far more nodes: best throughput is at a low gear.
        let node = athlon64();
        let cg = WorkBlock::with_upm(1.0e9, 8.6);
        let best = best_rack_option(&node, &cg, 1500.0, 64);
        assert!(best.gear >= 4, "CG rack should downshift: {best:?}");
    }

    #[test]
    fn cpu_bound_racks_balance_speed_and_count() {
        // EP-like work loses speed one-for-one with frequency, but
        // power still falls faster than throughput near the top gears
        // (V² scaling), so some downshift still wins under tight
        // budgets — it must simply beat the gear-1 packing.
        let node = athlon64();
        let ep = WorkBlock::with_upm(1.0e9, 844.0);
        let best = best_rack_option(&node, &ep, 1500.0, 64);
        let gear1 = &rack_options(&node, &ep, 1500.0, 64)[0];
        assert!(best.throughput >= gear1.throughput);
    }

    #[test]
    fn slot_cap_limits_packing() {
        let node = athlon64();
        let w = WorkBlock::with_upm(1.0e9, 70.0);
        let opts = rack_options(&node, &w, 1.0e6, 42);
        assert!(opts.iter().all(|o| o.nodes == 42));
    }

    #[test]
    fn heat_conversion() {
        let o = RackOption { gear: 1, nodes: 10, rack_power_w: 1000.0, throughput: 1.0 };
        assert!((o.heat_btu_per_hour() - 3412.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_budget_fits_zero_nodes() {
        let node = athlon64();
        let w = WorkBlock::with_upm(1.0e9, 70.0);
        let opts = rack_options(&node, &w, 10.0, 64);
        assert!(opts.iter().all(|o| o.nodes == 0 && o.throughput == 0.0));
    }
}
