//! Step 4: the per-gear application profile `(S_g, P_g, I_g)`.
//!
//! `S_g` is the application slowdown ratio at gear `g` (sequential
//! runs), `P_g` the average system power while the application
//! computes, and `I_g` the idle system power — all obtained from
//! single-node measurements, exactly as in the paper.

use psc_mpi::cluster::RunResult;
use serde::{Deserialize, Serialize};

/// One gear's entry in the profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GearPoint {
    /// Gear index (1 = fastest).
    pub gear: usize,
    /// Slowdown ratio `T_g(1)/T_1(1)` (1.0 at gear 1).
    pub sg: f64,
    /// Average application (compute) system power, watts.
    pub pg_w: f64,
    /// Idle system power, watts.
    pub ig_w: f64,
}

/// The per-application, per-gear profile used by Step 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GearProfile {
    /// One point per gear, fastest first.
    pub points: Vec<GearPoint>,
}

impl GearProfile {
    /// Build a profile from single-node runs of the application at
    /// every gear (`runs[g-1]` = run at gear `g`), plus the idle power
    /// table `ig_w[g-1]` measured separately ("the same setup, except
    /// this time with no application running").
    ///
    /// `P_g` is recovered from the run exactly the way the paper does:
    /// measured energy divided by measured time — of the *compute*
    /// portion. Our traces make the split directly available: compute
    /// energy = total − idle-power × idle-time.
    pub fn from_runs<R: std::borrow::Borrow<RunResult>>(runs: &[R], ig_w: &[f64]) -> GearProfile {
        assert_eq!(runs.len(), ig_w.len(), "need idle power for every gear");
        assert!(!runs.is_empty());
        for r in runs {
            assert_eq!(r.borrow().ranks.len(), 1, "gear profiling uses sequential (1-node) runs");
        }
        let t1 = runs[0].borrow().time_s;
        let points = runs
            .iter()
            .map(std::borrow::Borrow::borrow)
            .zip(ig_w)
            .enumerate()
            .map(|(i, (run, &ig))| {
                let active = run.ranks[0].trace.active_s();
                let idle = run.time_s - active;
                let compute_energy = run.energy_j - ig * idle;
                let pg = if active > 0.0 { compute_energy / active } else { ig };
                GearPoint { gear: i + 1, sg: run.time_s / t1, pg_w: pg, ig_w: ig }
            })
            .collect();
        GearProfile { points }
    }

    /// Number of gears.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the profile is empty (never true for a built profile).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point for gear `g`.
    pub fn gear(&self, g: usize) -> GearPoint {
        self.points[g - 1]
    }

    /// Sanity checks the paper's data obeys: `S_g` non-decreasing and
    /// ≥ 1; `P_g` and `I_g` decreasing with gear; `I_g < P_g`.
    pub fn is_physical(&self) -> bool {
        let mono_sg = self.points.windows(2).all(|w| w[1].sg >= w[0].sg - 1e-9);
        let sg_ge_1 = self.points.iter().all(|p| p.sg >= 1.0 - 1e-9);
        let mono_p = self.points.windows(2).all(|w| w[1].pg_w <= w[0].pg_w + 1e-9);
        let mono_i = self.points.windows(2).all(|w| w[1].ig_w <= w[0].ig_w + 1e-9);
        let i_lt_p = self.points.iter().all(|p| p.ig_w < p.pg_w);
        mono_sg && sg_ge_1 && mono_p && mono_i && i_lt_p
    }
}

/// Measure a gear profile for a workload on a node type by running it
/// sequentially at every gear.
///
/// `workload` is any single-rank program (e.g. a kernel at Test class);
/// it runs once per gear on a 1-node cluster.
pub fn profile_workload<F>(cluster: &psc_mpi::Cluster, workload: F) -> GearProfile
where
    F: Fn(&mut psc_mpi::Comm) + Sync,
{
    let gears = cluster.node.gears.len();
    let runs: Vec<psc_mpi::RunResult> = (1..=gears)
        .map(|g| cluster.run(&psc_mpi::ClusterConfig::uniform(1, g), &workload).0)
        .collect();
    let ig: Vec<f64> =
        (1..=gears).map(|g| cluster.node.idle_power_w(cluster.node.gear(g))).collect();
    GearProfile::from_runs(&runs, &ig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_machine::WorkBlock;
    use psc_mpi::Cluster;

    fn profile_of(upm: f64) -> GearProfile {
        let c = Cluster::athlon_fast_ethernet();
        profile_workload(&c, move |comm| {
            comm.compute(&WorkBlock::with_upm(4.0e9, upm));
        })
    }

    #[test]
    fn profile_is_physical_for_all_memory_pressures() {
        for upm in [8.6, 49.5, 70.6, 73.5, 79.6, 844.0] {
            let p = profile_of(upm);
            assert_eq!(p.len(), 6);
            assert!(p.is_physical(), "profile for UPM {upm}: {:?}", p.points);
        }
    }

    #[test]
    fn sg_bounded_by_frequency_ratio() {
        let p = profile_of(70.0);
        // Gear 6 is 800 MHz vs 2 GHz: ratio 2.5.
        assert!(p.gear(6).sg <= 2.5 + 1e-9);
        assert!((p.gear(1).sg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_bound_slowdown_near_ratio_memory_bound_near_one() {
        let ep = profile_of(844.0);
        let cg = profile_of(8.6);
        assert!(ep.gear(6).sg > 2.3, "EP-like S_6 {}", ep.gear(6).sg);
        assert!(cg.gear(6).sg < 1.35, "CG-like S_6 {}", cg.gear(6).sg);
    }

    #[test]
    fn power_at_gear1_matches_calibration() {
        let p = profile_of(844.0);
        // Near-CPU-bound workload: P_1 approaches the busy power
        // (140–150 W calibration window).
        assert!((138.0..=152.0).contains(&p.gear(1).pg_w), "P_1 = {}", p.gear(1).pg_w);
    }

    #[test]
    fn memory_bound_app_draws_less_power() {
        let ep = profile_of(844.0);
        let cg = profile_of(8.6);
        for g in 1..=6 {
            assert!(cg.gear(g).pg_w < ep.gear(g).pg_w, "gear {g}");
        }
    }
}
