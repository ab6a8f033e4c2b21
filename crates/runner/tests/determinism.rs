//! Parallel execution must be bit-identical to serial execution.
//!
//! The engine's whole value rests on this: the worker count only
//! overlaps host wall-clock, never the virtual-time results. We render
//! curve CSVs from a serial (`jobs = 1`) and a parallel (`jobs = 8`)
//! execution of the same plan and require byte equality.

use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::{Cluster, RunResult};
use psc_runner::{Engine, RunCache, RunPlan};
use std::sync::Arc;

/// The CSV a campaign figure would write: one row per run with full-
/// precision floats (`{}` uses shortest-round-trip formatting).
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

fn figure_like_plan() -> RunPlan {
    let mut plan = RunPlan::new();
    for bench in [Benchmark::Cg, Benchmark::Ep, Benchmark::Mg] {
        plan.extend(RunPlan::gear_sweep(bench, ProblemClass::Test, 1, 6));
    }
    plan.extend(RunPlan::node_sweep(Benchmark::Cg, ProblemClass::Test, &[1, 2, 4]));
    plan
}

#[test]
fn jobs_one_and_jobs_eight_write_identical_csvs() {
    let plan = figure_like_plan();

    let serial = Engine::serial(Cluster::athlon_fast_ethernet());
    let parallel = Engine::serial(Cluster::athlon_fast_ethernet())
        .with_jobs(8)
        .with_cache(RunCache::in_memory());

    let csv_serial = curve_csv(&plan, &serial.execute(&plan));
    let csv_parallel = curve_csv(&plan, &parallel.execute(&plan));

    assert_eq!(csv_serial, csv_parallel, "parallel sweep diverged from the serial reference");
    // Both engines deduplicated the shared CG (1 node, gear 1) run.
    assert_eq!(serial.cache_stats().misses, parallel.cache_stats().misses);
    assert_eq!(serial.cache_stats().hits, 1);
}

#[test]
fn every_rank_result_is_bit_identical_not_just_the_csv() {
    let plan = RunPlan::gear_sweep(Benchmark::Lu, ProblemClass::Test, 2, 6);
    let a = Engine::serial(Cluster::athlon_fast_ethernet()).execute(&plan);
    let b = Engine::serial(Cluster::athlon_fast_ethernet()).with_jobs(6).execute(&plan);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(**x, **y, "full RunResult mismatch between jobs=1 and jobs=6");
    }
}

#[test]
fn disk_cache_replays_bitwise_across_engines() {
    let dir = std::env::temp_dir().join(format!("psc-runner-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = RunPlan::gear_sweep(Benchmark::Sp, ProblemClass::Test, 1, 4);

    let writer =
        Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::with_disk(&dir));
    let first = writer.execute(&plan);
    assert_eq!(writer.cache_stats().misses, 4);

    // A second engine — standing in for a second process — must serve
    // the whole plan from disk, bit-for-bit.
    let reader = Engine::serial(Cluster::athlon_fast_ethernet())
        .with_jobs(4)
        .with_cache(RunCache::with_disk(&dir));
    let replay = reader.execute(&plan);
    let stats = reader.cache_stats();
    assert_eq!(stats.misses, 0, "everything should come from the disk cache");
    assert_eq!(stats.disk_hits, 4);
    for (a, b) in first.iter().zip(&replay) {
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(**a, **b);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
