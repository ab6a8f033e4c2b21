//! The policy differential gate, end to end.
//!
//! Two statements lock the policy layer down:
//!
//! 1. **Identity.** `Static(g)` is a real policy object threaded
//!    through the same hook as every other policy — so if the hook
//!    perturbs the simulation in any way (an extra event, a stray
//!    counter read, a reordered message), `Static(g)` stops being
//!    byte-identical to a policy-free gear-`g` run. These tests
//!    compare figure-shaped CSVs and full run manifests for all nine
//!    kernels, serial and at 8 workers, DES and threaded backends,
//!    clean and under a fault plan.
//!
//! 2. **Payoff.** The policy layer must be worth its seam: on at
//!    least one kernel/node-count, per-phase adaptive scheduling
//!    beats *every* static gear's energy in no more time than the
//!    most energy-frugal static gear needs (measured against the
//!    same memoizing engine the figures use).

use powerscale::kernels::{Benchmark, ProblemClass};
use powerscale::mpi::RuntimeBackend;
use powerscale::prelude::*;
use powerscale::telemetry::RunManifest;
use std::sync::Arc;

/// The CSV a campaign figure would write: one row per run with
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

/// All nine kernels at every valid node count up to 4, every gear —
/// policy-free. The `static_plan` twin runs the same sweep with the
/// gear expressed as `Static(g)` over a gear-1 configuration instead.
fn bare_plan() -> RunPlan {
    let mut plan = RunPlan::new();
    for bench in Benchmark::ALL {
        for nodes in bench.valid_nodes(4) {
            plan.extend(RunPlan::gear_sweep(bench, ProblemClass::Test, nodes, 6));
        }
    }
    plan
}

fn static_plan() -> RunPlan {
    let mut plan = RunPlan::new();
    for spec in bare_plan().specs {
        let gear = spec.gears.gear_for(0);
        plan.push(
            RunSpec::uniform(spec.bench, spec.class, spec.nodes, 1)
                .with_policy(PolicySpec::Static { gear }),
        );
    }
    plan
}

fn engine(backend: RuntimeBackend, jobs: usize) -> Engine {
    Engine::serial(Cluster::athlon_fast_ethernet().with_backend(backend))
        .with_cache(RunCache::in_memory())
        .with_jobs(jobs)
}

/// Core identity assertion: the `Static(g)` sweep's CSV is
/// byte-identical to the policy-free sweep's under one engine
/// configuration.
fn assert_static_identity(backend: RuntimeBackend, jobs: usize, faults: Option<FaultPlan>) {
    let bare = bare_plan();
    let with_policy = static_plan();
    let e = engine(backend, jobs).with_faults(faults.clone());
    let bare_csv = curve_csv(&bare, &e.execute(&bare));
    // A fresh engine for the policy sweep: policy specs must not be
    // served from the policy-free runs' cache entries (distinct keys),
    // and a shared cache would mask an execution divergence anyway.
    let e = engine(backend, jobs).with_faults(faults);
    let policy_csv = curve_csv(&bare, &e.execute(&with_policy));
    assert_eq!(
        bare_csv, policy_csv,
        "Static(g) diverged from policy-free gear-g runs ({backend:?}, {jobs} job(s))"
    );
}

#[test]
fn static_policy_is_identity_serial_des() {
    assert_static_identity(RuntimeBackend::Des, 1, None);
}

#[test]
fn static_policy_is_identity_parallel_des() {
    assert_static_identity(RuntimeBackend::Des, 8, None);
}

#[test]
fn static_policy_is_identity_serial_threaded() {
    assert_static_identity(RuntimeBackend::Threaded, 1, None);
}

#[test]
fn static_policy_is_identity_parallel_threaded() {
    assert_static_identity(RuntimeBackend::Threaded, 8, None);
}

#[test]
fn static_policy_is_identity_under_faults() {
    // The seeds CI's policy matrix runs through the real CLI.
    for seed in [11, 42, 1337] {
        let faults = Some(FaultPlan::noise(seed, DEFAULT_NOISE_LEVEL));
        assert_static_identity(RuntimeBackend::Des, 8, faults.clone());
        assert_static_identity(RuntimeBackend::Threaded, 1, faults);
    }
}

#[test]
fn static_policy_manifests_are_byte_identical() {
    // Manifests serialize the full telemetry view (attribution, trace
    // digests); byte equality of the JSON is the strongest statement
    // the archive layer can make. The policy run's manifest must match
    // the policy-free one except for the configured-gear line — which
    // is identical too, because `Static(g)` overrides the initial gear
    // before the first instruction executes.
    for (bench, nodes, gear) in
        [(Benchmark::Cg, 2, 3), (Benchmark::Bt, 4, 1), (Benchmark::Ft, 2, 6)]
    {
        let bare = RunSpec::uniform(bench, ProblemClass::Test, nodes, gear);
        let with_policy = RunSpec::uniform(bench, ProblemClass::Test, nodes, gear)
            .with_policy(PolicySpec::Static { gear });
        let manifest = |spec: &RunSpec| {
            let run = engine(RuntimeBackend::Des, 1).run(spec);
            RunManifest::new(bench.name(), "test", &spec.config(), &run).to_json()
        };
        assert_eq!(
            manifest(&bare),
            manifest(&with_policy),
            "manifest diverged for {} n={nodes} g={gear}",
            bench.name()
        );
    }
}

/// The payoff assertion (ISSUE 9 acceptance): Jacobi on 8 nodes at
/// class B separates pure-communication halo exchanges from CPU-heavy
/// relaxation sweeps, so `phase-adaptive:1.2` runs the sweeps near
/// their energy-optimal gear and parks the halo waits at the slowest —
/// beating every static gear's energy while finishing *faster* than
/// the most energy-frugal static gear.
#[test]
fn phase_adaptive_beats_every_static_gear_on_jacobi() {
    let e = engine(RuntimeBackend::Des, 8);
    let class = ProblemClass::B;
    let statics: Vec<Arc<RunResult>> =
        (1..=6).map(|g| e.run(&RunSpec::uniform(Benchmark::Jacobi, class, 8, g))).collect();
    let adaptive = e.run(
        &RunSpec::uniform(Benchmark::Jacobi, class, 8, 1)
            .with_policy(PolicySpec::PhaseAdaptive { slowdown_limit: 1.2 }),
    );

    let best_static =
        statics.iter().min_by(|a, b| a.energy_j.partial_cmp(&b.energy_j).unwrap()).unwrap();
    for (i, s) in statics.iter().enumerate() {
        assert!(
            adaptive.energy_j < s.energy_j,
            "adaptive {} J is not below static gear {} at {} J",
            adaptive.energy_j,
            i + 1,
            s.energy_j
        );
    }
    assert!(
        adaptive.time_s <= best_static.time_s,
        "adaptive {} s is slower than the most energy-frugal static gear at {} s",
        adaptive.time_s,
        best_static.time_s
    );
}
