//! Policy figure — energy-time Pareto frontiers of the online gear
//! policies next to the paper's static-gear sweeps.
//!
//! For each benchmark the paper's Figures 1–3 plot one point per
//! static gear. This figure adds the online schedules of the policy
//! layer to the same axes: per-phase adaptive scheduling at two
//! slowdown limits and a cluster power cap, each measured by the same
//! memoizing engine that produced the static points (so the static
//! rows are byte-identical to the other figures' CSVs). The frontier
//! column marks the configurations not energy-time dominated by any
//! other row of the same benchmark — the planning answer an online
//! policy changes: which schedules are ever worth running.

use super::{Campaign, Report};
use crate::report::Claim;
use psc_analysis::pareto::{pareto_frontier, Config};
use psc_kernels::{Benchmark, ProblemClass};
use psc_policy::PolicySpec;
use psc_runner::{Engine, RunSpec};

/// One measured row of the figure.
struct Row {
    schedule: String,
    time_s: f64,
    energy_j: f64,
}

/// The benchmarks whose phase structure the policies can exploit:
/// Jacobi separates pure-communication halo exchanges from relaxation
/// sweeps, FT alternates CPU-bound FFTs with all-to-all transposes,
/// and CG's solve is memory-bound throughout (a control: static deep
/// gears are already near-optimal there).
const BENCHES: [Benchmark; 3] = [Benchmark::Jacobi, Benchmark::Ft, Benchmark::Cg];
const NODES: usize = 8;

fn measure(e: &Engine, spec: RunSpec) -> Row {
    let label = match &spec.policy {
        Some(p) => p.shorthand(),
        None => format!("static:{}", spec.gears.gear_for(0)),
    };
    let run = e.run(&spec);
    Row { schedule: label, time_s: run.time_s, energy_j: run.energy_j }
}

/// The policy figure: static gears and online schedules of each of
/// [`BENCHES`] on [`NODES`] nodes, with energy-time frontier membership.
pub(super) fn fig_policy(c: &Campaign) -> Report {
    let (e, class) = (&c.athlon, c.class);
    // A budget between the cluster's slowest-gear and fastest-gear
    // worst-case draw, derived from the node model so the figure holds
    // for any preset: 85 % of flat-out.
    let node = &e.cluster().node.clone();
    let budget_w = 0.85 * NODES as f64 * node.power.busy_w(node.gears.fastest());

    println!("Policy figure: online gear schedules vs static gears, {NODES} nodes\n");
    let mut csv = String::from("bench,nodes,schedule,time_s,energy_j,avg_power_w,frontier\n");
    let mut claims = Vec::new();
    for bench in BENCHES {
        let mut rows = Vec::new();
        for gear in 1..=e.gear_count() {
            rows.push(measure(e, RunSpec::uniform(bench, class, NODES, gear)));
        }
        for policy in [
            PolicySpec::PhaseAdaptive { slowdown_limit: psc_policy::DEFAULT_SLOWDOWN_LIMIT },
            PolicySpec::PhaseAdaptive { slowdown_limit: 1.2 },
            PolicySpec::PowerCap { budget_w },
        ] {
            rows.push(measure(e, RunSpec::uniform(bench, class, NODES, 1).with_policy(policy)));
        }

        // Frontier membership over this benchmark's rows. `Config.gear`
        // carries the row index so membership survives the round trip.
        let configs: Vec<Config> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| Config { nodes: NODES, gear: i, time_s: r.time_s, energy_j: r.energy_j })
            .collect();
        let frontier = pareto_frontier(&configs);
        let on_frontier = |i: usize| frontier.iter().any(|c| c.gear == i) as u8;

        println!("{} ({NODES} nodes):", bench.name());
        for (i, r) in rows.iter().enumerate() {
            let marker = if on_frontier(i) == 1 { " *" } else { "" };
            println!(
                "  {:<20} time {:>8.2} s  energy {:>8.0} J{marker}",
                r.schedule, r.time_s, r.energy_j
            );
            csv.push_str(&format!(
                "{},{NODES},{},{:?},{:?},{:?},{}\n",
                bench.name(),
                r.schedule,
                r.time_s,
                r.energy_j,
                r.energy_j / r.time_s,
                on_frontier(i)
            ));
        }
        println!();

        // Every policy row must respect its own contract.
        let adaptive_default = &rows[e.gear_count()];
        claims.push(Claim::boolean(
            format!("{}-adaptive-within-limit", bench.name()),
            "default adaptive schedule stays within its slowdown limit of static gear 1",
            adaptive_default.time_s <= psc_policy::DEFAULT_SLOWDOWN_LIMIT * rows[0].time_s * 1.005,
        ));
        let cap_row = rows.last().unwrap();
        claims.push(Claim::boolean(
            format!("{}-cap-respects-budget", bench.name()),
            "power-cap schedule's average power stays under the budget",
            cap_row.energy_j / cap_row.time_s <= budget_w,
        ));

        // The headline (class B, where phase contrast is physical):
        // per-phase scheduling beats every static gear's energy on
        // Jacobi at equal-or-less time than the best static gear.
        if class == ProblemClass::B && bench == Benchmark::Jacobi {
            let statics = &rows[..e.gear_count()];
            let best_static =
                statics.iter().min_by(|a, b| a.energy_j.partial_cmp(&b.energy_j).unwrap()).unwrap();
            let adaptive_12 = &rows[e.gear_count() + 1];
            claims.push(Claim::boolean(
                "jacobi-adaptive-beats-every-static",
                "phase-adaptive:1.2 uses less energy than every static gear, in less time \
                 than the most energy-frugal static gear",
                statics.iter().all(|s| adaptive_12.energy_j < s.energy_j)
                    && adaptive_12.time_s <= best_static.time_s,
            ));
        }
    }

    Report { files: vec![("fig_policy.csv", csv)], claims }
}
