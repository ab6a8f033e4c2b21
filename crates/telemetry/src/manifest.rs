//! JSON run manifests: one self-contained record per measured run.
//!
//! A manifest captures what was run (benchmark, nodes, gear selection),
//! what was measured (time, exact and wattmeter energy, aggregate
//! counters), and where the joules went (the [`RunAttribution`] tables)
//! — everything a later analysis needs without re-running the
//! simulation. The experiment harness and the CLI write manifests under
//! `results/`.

use crate::attribution::RunAttribution;
use psc_machine::Counters;
use psc_mpi::{ClusterConfig, RunResult};
use serde::{json, Deserialize, Serialize};
use std::path::PathBuf;

/// A self-contained, serializable record of one cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Benchmark name (e.g. `"CG"`, or a free-form label).
    pub bench: String,
    /// Problem class / parameterization label (e.g. `"B"`, `"test"`).
    pub class: String,
    /// Node (= rank) count.
    pub nodes: usize,
    /// Configured gear per rank (1-based indices).
    pub configured_gears: Vec<usize>,
    /// Gear each rank *finished* at (differs only if the program called
    /// `set_gear`).
    pub final_gears: Vec<usize>,
    /// Run wall-clock (virtual) time, seconds.
    pub time_s: f64,
    /// Cumulative exact energy of all nodes, joules.
    pub energy_j: f64,
    /// Cumulative energy as sampled by the wattmeter, joules.
    pub measured_energy_j: f64,
    /// Average cluster power, watts.
    pub average_power_w: f64,
    /// Maximum per-rank active time `T^A`, seconds.
    pub active_max_s: f64,
    /// Idle time paired with the maximum-compute decomposition `T^I`,
    /// seconds.
    pub idle_of_max_s: f64,
    /// Aggregate hardware counters over all ranks.
    pub counters: Counters,
    /// Where the joules went: category and phase attribution.
    pub attribution: RunAttribution,
}

impl RunManifest {
    /// Build a manifest from a run and its configuration.
    pub fn new(bench: &str, class: &str, cfg: &ClusterConfig, run: &RunResult) -> Self {
        RunManifest {
            bench: bench.to_string(),
            class: class.to_string(),
            nodes: cfg.nodes,
            configured_gears: (0..cfg.nodes).map(|r| cfg.gears.gear_for(r)).collect(),
            final_gears: run.ranks.iter().map(|r| r.gear_index).collect(),
            time_s: run.time_s,
            energy_j: run.energy_j,
            measured_energy_j: run.measured_energy_j,
            average_power_w: run.average_power_w(),
            active_max_s: run.active_max_s(),
            idle_of_max_s: run.idle_of_max_s(),
            counters: run.total_counters(),
            attribution: RunAttribution::of_run(run),
        }
    }

    /// The manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }

    /// Parse a manifest back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        json::from_str(text)
    }

    /// The conventional archive path for this manifest:
    /// `results/<bench>-n<nodes>-<gears>.manifest.json` (lowercased
    /// bench name; `g<k>` for a uniform gear, `gmixed` otherwise).
    pub fn default_path(&self) -> PathBuf {
        let gears = match self.configured_gears.as_slice() {
            [] => "g0".to_string(),
            [first, rest @ ..] if rest.iter().all(|g| g == first) => format!("g{first}"),
            _ => "gmixed".to_string(),
        };
        PathBuf::from("results").join(format!(
            "{}-n{}-{}.manifest.json",
            self.bench.to_lowercase(),
            self.nodes,
            gears
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_machine::WorkBlock;
    use psc_mpi::{Cluster, GearSelection};

    fn sample() -> (ClusterConfig, RunResult) {
        let c = Cluster::athlon_fast_ethernet();
        let cfg = ClusterConfig::uniform(2, 3);
        let (run, _) = c.run(&cfg, |comm| {
            comm.span("phase", |comm| comm.compute(&WorkBlock::with_upm(1.0e8, 60.0)));
            comm.barrier();
        });
        (cfg, run)
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let (cfg, run) = sample();
        let m = RunManifest::new("Jacobi", "test", &cfg, &run);
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn manifest_records_configuration_and_measurements() {
        let (cfg, run) = sample();
        let m = RunManifest::new("CG", "B", &cfg, &run);
        assert_eq!(m.nodes, 2);
        assert_eq!(m.configured_gears, vec![3, 3]);
        assert_eq!(m.final_gears, vec![3, 3]);
        assert!((m.energy_j - run.energy_j).abs() < 1e-12);
        assert!(m.attribution.phases.iter().any(|p| p.name == "phase"));
    }

    #[test]
    fn default_path_encodes_uniform_and_mixed_gears() {
        let (cfg, run) = sample();
        let m = RunManifest::new("CG", "B", &cfg, &run);
        assert_eq!(m.default_path(), PathBuf::from("results/cg-n2-g3.manifest.json"));

        let mixed_cfg = ClusterConfig { nodes: 2, gears: GearSelection::PerRank(vec![1, 4]) };
        let c = Cluster::athlon_fast_ethernet();
        let (mixed_run, _) = c.run(&mixed_cfg, |comm| comm.barrier());
        let m = RunManifest::new("LU", "test", &mixed_cfg, &mixed_run);
        assert_eq!(m.default_path(), PathBuf::from("results/lu-n2-gmixed.manifest.json"));
    }
}
