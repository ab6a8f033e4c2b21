//! The paper's future work, working today: automatic gear control.
//!
//! Part 1 — *UPM-based gear advice*: the paper shows µops-per-miss
//! predicts the energy-time tradeoff (Table 1); here that prediction
//! picks the energy-minimal gear within a delay budget for each NAS
//! benchmark, through the same rule the `phase-adaptive` policy applies
//! to each phase.
//!
//! Part 2 — *node-bottleneck scaling*: "early-arriving nodes can be
//! scaled down with little or no performance degradation." We run an
//! imbalanced program, plan per-rank gears from its profile, re-run,
//! and show the energy saved at (almost) no time cost.
//!
//! ```sh
//! cargo run --release --example gear_advisor
//! ```

use powerscale::kernels::Benchmark;
use powerscale::machine::WorkBlock;
use powerscale::mpi::cluster::GearSelection;
use powerscale::policy::choose_gear;
use powerscale::prelude::*;

/// The per-rank gear plan.
struct BottleneckPlan {
    /// Chosen gear per rank.
    gears: Vec<usize>,
    /// Rank that sets the pace (largest active time).
    bottleneck_rank: usize,
}

impl BottleneckPlan {
    /// Convert into a cluster gear selection.
    fn selection(&self) -> GearSelection {
        GearSelection::PerRank(self.gears.clone())
    }
}

/// Plan per-rank gears from a profiling run at the fastest gear: each
/// rank gets the slowest gear whose slowed compute still arrives no
/// later than the bottleneck rank, turning load imbalance into energy
/// savings for free.
///
/// `headroom` shaves the budget (0.0 = allow arrival exactly with the
/// bottleneck; 0.02 = keep 2 % margin). Each rank's compute slowdown at
/// gear `g` is predicted from its measured UPM via the node's CPU
/// model, the same machinery the paper's `S_g` measurement captures.
fn plan_gears(node: &NodeSpec, profile: &RunResult, headroom: f64) -> BottleneckPlan {
    assert!((0.0..1.0).contains(&headroom));
    let actives: Vec<f64> = profile.ranks.iter().map(|r| r.trace.active_s()).collect();
    let bottleneck = actives.iter().cloned().fold(0.0, f64::max);
    let bottleneck_rank =
        actives.iter().position(|&a| a == bottleneck).expect("run has at least one rank");
    let budget = bottleneck * (1.0 - headroom);

    let mut gears = Vec::with_capacity(actives.len());
    for (rank, &active) in actives.iter().enumerate() {
        let upm = profile.ranks[rank].counters.upm();
        let work = if upm.is_finite() {
            WorkBlock::with_upm(1.0e9, upm)
        } else {
            WorkBlock::cpu_only(1.0e9)
        };
        let mut chosen = 1;
        for g in 2..=node.gears.len() {
            if active * node.slowdown_ratio(&work, node.gear(g)) <= budget {
                chosen = g;
            } else {
                break;
            }
        }
        gears.push(chosen);
    }
    BottleneckPlan { gears, bottleneck_rank }
}

fn main() {
    let cluster = Cluster::athlon_fast_ethernet();
    let node = &cluster.node;

    // ---------------- Part 1: UPM → gear ----------------
    println!("UPM-based gear advice (5 % delay budget):\n");
    println!("{:<10} {:>8} {:>6} {:>9} {:>9}", "benchmark", "UPM", "gear", "delay", "savings");
    for b in Benchmark::ALL {
        let work = WorkBlock::with_upm(1.0e9, b.upm());
        let time_s = |g: usize| node.compute_time_s(&work, node.gear(g));
        let energy_j = |g: usize| node.compute_energy_j(&work, node.gear(g));
        // A static gear: set before the run, so no transition to pay.
        let g = choose_gear(node, &work, 0.0, 1, 1.05, 0.0);
        println!(
            "{:<10} {:>8.1} {:>6} {:>8.1}% {:>8.1}%",
            b.name(),
            b.upm(),
            g,
            100.0 * (time_s(g) / time_s(1) - 1.0),
            100.0 * (1.0 - energy_j(g) / energy_j(1))
        );
    }

    // ---------------- Part 2: node bottleneck ----------------
    // An imbalanced SPMD program: rank 0 has 3× the work.
    let imbalanced = |comm: &mut Comm| {
        let units = if comm.rank() == 0 { 3.0 } else { 1.0 };
        comm.compute(&WorkBlock::with_upm(units * 40.0e9, 70.0));
        comm.barrier();
    };

    println!("\nNode-bottleneck scaling on an imbalanced program (4 nodes):\n");
    let (baseline, _) = cluster.run(&ClusterConfig::uniform(4, 1), imbalanced);
    println!("  all ranks at gear 1: {:>7.2} s, {:>8.0} J", baseline.time_s, baseline.energy_j);

    let plan = plan_gears(node, &baseline, 0.0);
    println!("  plan: per-rank gears {:?} (bottleneck rank {})", plan.gears, plan.bottleneck_rank);

    let (tuned, _) = cluster.run(&ClusterConfig { nodes: 4, gears: plan.selection() }, imbalanced);
    println!("  with the plan:       {:>7.2} s, {:>8.0} J", tuned.time_s, tuned.energy_j);
    println!(
        "\n  → {:.1}% energy saved for {:+.2}% time",
        100.0 * (1.0 - tuned.energy_j / baseline.energy_j),
        100.0 * (tuned.time_s / baseline.time_s - 1.0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An imbalanced program: rank 0 computes 4× the work of the rest,
    /// then everyone synchronizes.
    fn imbalanced(comm: &mut Comm) {
        let units = if comm.rank() == 0 { 4.0 } else { 1.0 };
        comm.compute(&WorkBlock::with_upm(units * 4.0e9, 70.0));
        comm.barrier();
    }

    fn profile(c: &Cluster, n: usize) -> RunResult {
        let (run, _) = c.run(&ClusterConfig::uniform(n, 1), imbalanced);
        run
    }

    #[test]
    fn plan_downshifts_early_arrivers_only() {
        let c = Cluster::athlon_fast_ethernet();
        let run = profile(&c, 4);
        let plan = plan_gears(&c.node, &run, 0.0);
        assert_eq!(plan.bottleneck_rank, 0);
        assert_eq!(plan.gears[0], 1, "the bottleneck rank must stay at gear 1");
        for r in 1..4 {
            assert!(plan.gears[r] > 1, "rank {r} should downshift: {:?}", plan.gears);
        }
    }

    #[test]
    fn arrivals_under_the_plan_keep_the_headroom() {
        let c = Cluster::athlon_fast_ethernet();
        let run = profile(&c, 4);
        let plan = plan_gears(&c.node, &run, 0.05);
        let bottleneck = run.ranks[0].trace.active_s();
        let (tuned, _) = c.run(&ClusterConfig { nodes: 4, gears: plan.selection() }, imbalanced);
        for (r, rank) in tuned.ranks.iter().enumerate() {
            let a = rank.trace.active_s();
            assert!(a <= bottleneck * 0.951 + 1e-9 || r == plan.bottleneck_rank, "rank {r}: {a}");
        }
    }

    #[test]
    fn executing_the_plan_saves_energy_without_slowdown() {
        let c = Cluster::athlon_fast_ethernet();
        let baseline = profile(&c, 4);
        let plan = plan_gears(&c.node, &baseline, 0.0);
        let (tuned, _) = c.run(&ClusterConfig { nodes: 4, gears: plan.selection() }, imbalanced);
        assert!(
            tuned.time_s <= baseline.time_s * 1.01,
            "plan slowed the run: {} vs {}",
            tuned.time_s,
            baseline.time_s
        );
        assert!(
            tuned.energy_j < baseline.energy_j,
            "plan saved no energy: {} vs {}",
            tuned.energy_j,
            baseline.energy_j
        );
    }

    #[test]
    fn balanced_program_stays_at_gear_one() {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) = c.run(&ClusterConfig::uniform(4, 1), |comm| {
            comm.compute(&WorkBlock::with_upm(4.0e9, 70.0));
            comm.barrier();
        });
        let plan = plan_gears(&c.node, &run, 0.0);
        assert!(plan.gears.iter().all(|&g| g == 1), "{:?}", plan.gears);
    }
}
