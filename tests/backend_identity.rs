//! The backend differential gate, end to end: the discrete-event
//! scheduler (`RuntimeBackend::Des`) and the thread-per-rank driver
//! (`RuntimeBackend::Threaded`) must produce **byte-identical** figure
//! CSVs and run manifests — for every kernel, across node counts and
//! every adjacent gear pair, clean and under a fault plan.
//!
//! This is the dynamic half of analyzer rule T001 (the static half
//! bans host-time and thread primitives inside the scheduler): if the
//! DES event ordering ever diverges from what the blocking semantics
//! dictate, one of these comparisons catches it on the same
//! figure-shaped output the experiment binaries write.

use powerscale::kernels::{Benchmark, ProblemClass};
use powerscale::mpi::RuntimeBackend;
use powerscale::prelude::*;
use powerscale::telemetry::RunManifest;
use std::sync::Arc;

/// The CSV a figure binary would write: one row per run with
/// shortest-round-trip floats, so byte equality means bit equality.
fn curve_csv(plan: &RunPlan, runs: &[Arc<RunResult>]) -> String {
    let mut csv = String::from("bench,nodes,gears,time_s,energy_j,measured_energy_j\n");
    for (spec, run) in plan.specs.iter().zip(runs) {
        csv.push_str(&format!(
            "{},{},{:?},{},{},{}\n",
            spec.bench.name(),
            spec.nodes,
            spec.resolved_gears(),
            run.time_s,
            run.energy_j,
            run.measured_energy_j
        ));
    }
    csv
}

/// All nine kernels, every valid node count up to 4, every gear — so
/// every adjacent gear pair (1–2, 2–3, … 5–6) appears for each kernel —
/// plus rank-heavy gear sweeps, where the two drivers differ most (32
/// OS threads vs 32 coroutines on one scheduler).
fn nine_kernel_plan() -> RunPlan {
    use Benchmark::{Cg, Is, Jacobi, Lu, Mg, Sp};
    let mut plan = RunPlan::new();
    for bench in Benchmark::ALL {
        for nodes in bench.valid_nodes(4) {
            plan.extend(RunPlan::gear_sweep(bench, ProblemClass::Test, nodes, 6));
        }
    }
    #[rustfmt::skip]
    let rank_heavy = [
        (Cg, 8), (Lu, 8), (Mg, 8), (Sp, 9),
        (Cg, 16), (Jacobi, 16), (Is, 16),
        (Cg, 32), (Jacobi, 32), (Is, 32),
    ];
    for (bench, nodes) in rank_heavy {
        plan.extend(RunPlan::gear_sweep(bench, ProblemClass::Test, nodes, 6));
    }
    plan
}

fn engine(backend: RuntimeBackend) -> Engine {
    Engine::serial(Cluster::athlon_fast_ethernet().with_backend(backend))
        .with_cache(RunCache::in_memory())
}

#[test]
fn figure_csvs_are_byte_identical_across_backends() {
    let plan = nine_kernel_plan();
    let des = curve_csv(&plan, &engine(RuntimeBackend::Des).execute(&plan));
    let threaded = curve_csv(&plan, &engine(RuntimeBackend::Threaded).execute(&plan));
    assert_eq!(des, threaded, "clean-run CSV diverged between DES and threaded backends");
}

#[test]
fn faulted_csvs_and_results_are_byte_identical_across_backends() {
    // The CI fault matrix byte-compares faulted sweeps; the backend
    // must be invisible there too. Full RunResult equality (not just
    // the CSV projection) so per-rank traces and counters are covered.
    let plan = nine_kernel_plan();
    let faults = Some(FaultPlan::noise(11, DEFAULT_NOISE_LEVEL));
    let des = engine(RuntimeBackend::Des).with_faults(faults.clone());
    let threaded = engine(RuntimeBackend::Threaded).with_faults(faults);
    let des_runs = des.execute(&plan);
    let threaded_runs = threaded.execute(&plan);
    assert_eq!(
        curve_csv(&plan, &des_runs),
        curve_csv(&plan, &threaded_runs),
        "faulted CSV diverged between DES and threaded backends"
    );
    for ((x, y), spec) in des_runs.iter().zip(&threaded_runs).zip(&plan.specs) {
        assert_eq!(
            **x,
            **y,
            "faulted RunResult mismatch at {} n={} gears={:?}",
            spec.bench.name(),
            spec.nodes,
            spec.resolved_gears()
        );
    }
}

#[test]
fn run_manifests_are_byte_identical_across_backends() {
    // Manifests serialize the full telemetry view (attribution, trace
    // digests); byte equality of the JSON is the strongest statement
    // the archive layer can make.
    for (bench, nodes, gear) in
        [(Benchmark::Cg, 2, 3), (Benchmark::Bt, 4, 1), (Benchmark::Ft, 2, 6)]
    {
        let spec = RunSpec::uniform(bench, ProblemClass::Test, nodes, gear);
        let manifest = |backend: RuntimeBackend| {
            let run = engine(backend).run(&spec);
            RunManifest::new(bench.name(), "test", &spec.config(), &run).to_json()
        };
        assert_eq!(
            manifest(RuntimeBackend::Des),
            manifest(RuntimeBackend::Threaded),
            "manifest diverged for {} n={nodes} g={gear}",
            bench.name()
        );
    }
}

/// Both drivers hand turns out in the switchboard's wake order, so
/// they report the same dispatch count for the same program. (The name
/// predates the threaded baton, when threads had no queue to count.)
#[test]
fn des_reports_events_and_threaded_reports_none() {
    let spec = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 4, 2);
    let run_stats = |backend: RuntimeBackend| {
        let c = Cluster::athlon_fast_ethernet().with_backend(backend);
        let (_, _, stats) = c.run_with_faults_stats(&spec.config(), None, |comm| {
            Benchmark::Cg.run(comm, ProblemClass::Test)
        });
        stats.events_processed
    };
    let des = run_stats(RuntimeBackend::Des);
    assert!(des > 0, "the driver must count its dispatches");
    assert_eq!(run_stats(RuntimeBackend::Threaded), des, "both drivers step one wake sequence");
}
