//! Figure 3 — "Energy consumption vs. execution time for Jacobi
//! iteration on 2, 4, 6, 8, and 10 nodes". The application achieves
//! good speedup (paper: 1.9, 3.6, 5.0, 6.4, 7.7), so each adjacent
//! pair of curves falls in case 3.

#![forbid(unsafe_code)]

use psc_analysis::cases::{classify_pair, ScalingCase};
use psc_analysis::plot::{ascii_plot, to_csv};
use psc_experiments::harness::{engine_from_args, finish_sweep, measure_curve, telemetry_snapshot};
use psc_experiments::report::{render_claims, write_artifact, Claim};
use psc_kernels::{Benchmark, ProblemClass};
use psc_runner::Stopwatch;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let class =
        if args.iter().any(|a| a == "--test") { ProblemClass::Test } else { ProblemClass::B };
    let e = engine_from_args(&args);
    let timer = Stopwatch::start();
    let node_counts = [2usize, 4, 6, 8, 10];
    let paper_speedups = [1.9, 3.6, 5.0, 6.4, 7.7];

    println!("Figure 3: Jacobi iteration on 2, 4, 6, 8, 10 nodes\n");
    let t1 = measure_curve(&e, Benchmark::Jacobi, class, 1).fastest().time_s;
    let curves: Vec<_> =
        node_counts.iter().map(|&n| measure_curve(&e, Benchmark::Jacobi, class, n)).collect();
    println!("{}", ascii_plot(&curves, 70, 16));

    let mut claims = Vec::new();
    for (curve, &paper_s) in curves.iter().zip(&paper_speedups) {
        let s = t1 / curve.fastest().time_s;
        println!("  {} nodes: speedup {:.2} (paper {:.1})", curve.nodes, s, paper_s);
        if class == ProblemClass::B {
            claims.push(Claim::numeric(
                format!("jacobi-speedup-{}", curve.nodes),
                paper_s,
                s,
                0.15,
                0.0,
            ));
        }
    }
    println!();

    // "Each adjacent pair of curves falls in case 3."
    for pair in curves.windows(2) {
        let case = classify_pair(&pair[0], &pair[1]);
        println!("  {} → {} nodes: {case:?}", pair[0].nodes, pair[1].nodes);
        if class == ProblemClass::B {
            claims.push(Claim::boolean(
                format!("jacobi-{}-{}-case3", pair[0].nodes, pair[1].nodes),
                "adjacent pair falls in case 3",
                case == ScalingCase::GoodSpeedup,
            ));
        }
    }

    // The paper's worked example: "executing in second or third gear on
    // 6 nodes results in the program finishing faster and using less
    // energy than using first gear on 4 nodes."
    if class == ProblemClass::B {
        let c4 = curves.iter().find(|c| c.nodes == 4).unwrap();
        let c6 = curves.iter().find(|c| c.nodes == 6).unwrap();
        let p4 = c4.fastest();
        let dominated = [2usize, 3].iter().any(|&g| {
            let p = c6.at_gear(g).unwrap();
            p.time_s < p4.time_s && p.energy_j < p4.energy_j
        });
        claims.push(Claim::boolean(
            "jacobi-6n-gear23-dominates-4n-gear1",
            "gear 2 or 3 on 6 nodes beats gear 1 on 4 nodes in both time and energy",
            dominated,
        ));
    }

    // Where the joules of a representative configuration went:
    // archives a run manifest under results/ alongside the CSV.
    let (attr_table, manifest) = telemetry_snapshot(&e, Benchmark::Jacobi, class, 8, 2);
    println!("Energy attribution (Jacobi, 8 nodes, gear 2):");
    println!("{attr_table}");
    println!("wrote {}\n", manifest.display());

    let (text, all) = render_claims("Figure 3 claims", &claims);
    println!("{text}");
    let path = write_artifact("fig3.csv", &to_csv(&curves));
    write_artifact("fig3_claims.txt", &text);
    println!("wrote {}", path.display());
    finish_sweep(&e, "fig3", timer);
    if !all {
        std::process::exit(1);
    }
}
