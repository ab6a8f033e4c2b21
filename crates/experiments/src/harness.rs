//! Shared measurement machinery for the experiment binaries.
//!
//! Every measurement goes through a [`psc_runner::Engine`]: runs of the
//! same configuration are executed once (whether requested by a curve, a
//! node sweep, or a gear profile — or by an earlier figure binary, via
//! the disk cache), and distinct runs fan out across the engine's worker
//! pool. Results are bit-identical to serial execution, so the figures
//! do not depend on the worker count.

use psc_analysis::curve::{EnergyTimeCurve, EnergyTimePoint};
use psc_faults::{FaultPlan, DEFAULT_NOISE_LEVEL};
use psc_kernels::{Benchmark, ProblemClass};
use psc_model::decompose::Decomposition;
use psc_model::gears::GearProfile;
use psc_model::predict::ClusterModel;
use psc_mpi::{Cluster, NetworkModel};
use psc_runner::{Engine, RunPlan, RunSpec, Stopwatch};
use psc_telemetry::{write_file, RunManifest, SweepManifest};
use std::path::PathBuf;

/// The paper's testbed: ten Athlon-64 nodes on 100 Mb/s Ethernet.
pub fn cluster() -> Cluster {
    Cluster::athlon_fast_ethernet()
}

/// The 32-node Sun validation cluster (fixed frequency).
pub fn sun_cluster() -> Cluster {
    Cluster::new(psc_machine::presets::sun_cluster(), NetworkModel::fast_ethernet())
}

/// The engine the figure binaries use: the paper's testbed cluster,
/// `PSC_JOBS`/available-parallelism workers, and the environment's cache
/// configuration (`PSC_CACHE`, `PSC_CACHE_DIR`), with optional
/// `--jobs N`, `--faults <plan.json>`, and `--fault-seed N` command-line
/// overrides.
pub fn engine_from_args(args: &[String]) -> Engine {
    engine_for(cluster(), args)
}

/// Same, over an explicit cluster (e.g. [`sun_cluster`]).
pub fn engine_for(c: Cluster, args: &[String]) -> Engine {
    let mut e = Engine::new(c).with_faults(faults_from_args(args));
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        let jobs = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("--jobs needs a positive integer"));
        e = e.with_jobs(jobs);
    }
    e
}

/// The fault plan the command line asks for, if any:
///
/// * `--faults <plan.json>` loads a serialized [`FaultPlan`];
/// * `--fault-seed <N>` derives the default-noise preset
///   (`FaultPlan::noise(N, DEFAULT_NOISE_LEVEL)`) — or, combined with
///   `--faults`, re-seeds the loaded plan.
pub fn faults_from_args(args: &[String]) -> Option<FaultPlan> {
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| panic!("{flag} needs a value")))
    };
    let mut plan = value_of("--faults").map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading fault plan {path}: {e}"));
        FaultPlan::from_json(&text).unwrap_or_else(|e| panic!("parsing fault plan {path}: {e}"))
    });
    if let Some(seed) = value_of("--fault-seed") {
        let seed: u64 =
            seed.parse().unwrap_or_else(|_| panic!("--fault-seed needs an unsigned integer"));
        plan = Some(match plan.take() {
            Some(mut p) => {
                p.seed = seed;
                p
            }
            None => FaultPlan::noise(seed, DEFAULT_NOISE_LEVEL),
        });
    }
    plan
}

/// Run `bench` on `nodes` nodes at every gear and return its
/// energy-time curve.
pub fn measure_curve(
    e: &Engine,
    bench: Benchmark,
    class: ProblemClass,
    nodes: usize,
) -> EnergyTimeCurve {
    let plan = RunPlan::gear_sweep(bench, class, nodes, e.gear_count());
    let points = plan
        .specs
        .iter()
        .zip(e.execute(&plan))
        .map(|(spec, run)| EnergyTimePoint {
            gear: spec.gears.gear_for(0),
            time_s: run.time_s,
            energy_j: run.energy_j,
        })
        .collect();
    EnergyTimeCurve::new(bench.name(), nodes, points)
}

/// Measure the benchmark's UPM (µops per L2 miss) from the simulated
/// hardware counters of a single-node fastest-gear run.
pub fn measure_upm(e: &Engine, bench: Benchmark, class: ProblemClass) -> f64 {
    e.run(&RunSpec::uniform(bench, class, 1, 1)).total_counters().upm()
}

/// Fastest-gear trace decompositions across the benchmark's valid node
/// counts up to `max_nodes` — the model's Step 1 input.
pub fn decompositions(
    e: &Engine,
    bench: Benchmark,
    class: ProblemClass,
    max_nodes: usize,
) -> Vec<Decomposition> {
    let nodes = bench.valid_nodes(max_nodes);
    let plan = RunPlan::node_sweep(bench, class, &nodes);
    e.execute(&plan).iter().map(|run| Decomposition::of(run)).collect()
}

/// The model's Step 4 input: single-node per-gear profile.
pub fn gear_profile(e: &Engine, bench: Benchmark, class: ProblemClass) -> GearProfile {
    let plan = RunPlan::gear_sweep(bench, class, 1, e.gear_count());
    let runs = e.execute(&plan);
    let node = &e.cluster().node;
    let ig: Vec<f64> = (1..=e.gear_count()).map(|g| node.idle_power_w(node.gear(g))).collect();
    GearProfile::from_runs(&runs, &ig)
}

/// Fit the paper's full model for a benchmark from measurements up to
/// `max_nodes` (the paper uses ≤ 9 on the power-scalable cluster).
pub fn model_for(
    e: &Engine,
    bench: Benchmark,
    class: ProblemClass,
    max_nodes: usize,
) -> ClusterModel {
    let decomps = decompositions(e, bench, class, max_nodes);
    let profile = gear_profile(e, bench, class);
    ClusterModel::fit(&decomps, profile)
}

/// Convert model predictions at `m` nodes into a plottable curve.
pub fn predicted_curve(
    model: &ClusterModel,
    bench: Benchmark,
    m: usize,
    refined: bool,
) -> EnergyTimeCurve {
    let points = model
        .predict_curve(m, refined)
        .into_iter()
        .map(|p| EnergyTimePoint { gear: p.gear, time_s: p.time_s, energy_j: p.energy_j })
        .collect();
    EnergyTimeCurve::new(format!("{} (model)", bench.name()), m, points)
}

/// Class label used in run manifests.
pub fn class_label(class: ProblemClass) -> &'static str {
    match class {
        ProblemClass::Test => "test",
        ProblemClass::B => "B",
    }
}

/// Measure one representative configuration with full telemetry (served
/// from the run cache when an earlier curve already measured it):
/// archive a JSON run manifest under the results directory and return
/// the energy-attribution table (ready to print) together with the
/// manifest path. The figure binaries call this so every figure ships an
/// attribution of where its headline configuration spent its joules.
pub fn telemetry_snapshot(
    e: &Engine,
    bench: Benchmark,
    class: ProblemClass,
    nodes: usize,
    gear: usize,
) -> (String, PathBuf) {
    let spec = RunSpec::uniform(bench, class, nodes, gear);
    let run = e.run(&spec);
    let manifest = RunManifest::new(bench.name(), class_label(class), &spec.config(), &run);
    let name =
        manifest.default_path().file_name().expect("manifest path has a file name").to_os_string();
    let path = crate::report::results_dir().join(name);
    write_file(&path, &manifest.to_json()).unwrap_or_else(|e| panic!("{e}"));
    (manifest.attribution.table(), path)
}

/// Close out a binary's sweep: snapshot the engine's cache accounting
/// into a [`SweepManifest`], archive it as `<label>.sweep.json` under
/// the results directory, print the one-line summary, and return the
/// path. `timer` is the [`Stopwatch`] the binary started when its sweep
/// began; the manifest's `wall_s` is the time since then.
pub fn finish_sweep(e: &Engine, label: &str, timer: Stopwatch) -> PathBuf {
    let stats = e.cache_stats();
    let manifest = SweepManifest {
        label: label.to_string(),
        jobs: e.jobs(),
        total_specs: stats.lookups(),
        unique_runs: stats.misses,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        disk_hits: stats.disk_hits,
        wall_s: timer.elapsed_s(),
    };
    let path = crate::report::results_dir().join(format!("{label}.sweep.json"));
    write_file(&path, &manifest.to_json()).unwrap_or_else(|e| panic!("{e}"));
    println!("{}", manifest.summary());
    path
}

/// The node counts Figure 2 uses per benchmark: 2, 4, 8 — "or 4 and 9
/// in the case of BT and SP".
pub fn fig2_nodes(bench: Benchmark) -> Vec<usize> {
    match bench {
        Benchmark::Bt | Benchmark::Sp => vec![4, 9],
        _ => vec![2, 4, 8],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_runner::RunCache;

    /// A hermetic engine: environment jobs, but never the disk cache
    /// (tests must not observe other processes' results).
    fn test_engine() -> Engine {
        Engine::new(cluster()).with_cache(RunCache::in_memory())
    }

    /// Serializes the tests that point `RESULTS_DIR` at a temp dir.
    static RESULTS_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn curve_measured_at_every_gear() {
        let e = test_engine();
        let curve = measure_curve(&e, Benchmark::Ep, ProblemClass::Test, 2);
        assert_eq!(curve.points.len(), 6);
        assert!(curve.fastest_gear_is_fastest_point());
        assert_eq!(e.cache_stats().misses, 6);
    }

    #[test]
    fn measured_upm_matches_charged_upm() {
        let e = test_engine();
        for b in [Benchmark::Cg, Benchmark::Ep, Benchmark::Sp] {
            let upm = measure_upm(&e, b, ProblemClass::Test);
            assert!(
                (upm - b.upm()).abs() / b.upm() < 0.02,
                "{}: measured {upm} vs table {}",
                b.name(),
                b.upm()
            );
        }
    }

    #[test]
    fn gear1_runs_are_deduplicated_across_harness_calls() {
        // The gear-1, 2-node point is requested three times: by the
        // energy-time curve, by the decomposition sweep, and directly.
        // It must execute once, and the cached replays must return the
        // exact same numbers.
        let e = test_engine();
        let curve = measure_curve(&e, Benchmark::Cg, ProblemClass::Test, 2);
        let after_curve = e.cache_stats();
        assert_eq!(after_curve.misses, 6);
        assert_eq!(after_curve.hits, 0);

        let decomps = decompositions(&e, Benchmark::Cg, ProblemClass::Test, 2);
        let after_decomp = e.cache_stats();
        assert_eq!(decomps.len(), 2, "CG runs on 1 and 2 nodes");
        assert_eq!(after_decomp.misses, 7, "only the 1-node gear-1 run is new");
        assert_eq!(after_decomp.hits, 1, "the 2-node gear-1 run came from the cache");

        let cached = e.run(&RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 2, 1));
        assert_eq!(e.cache_stats().misses, 7, "third request still executes nothing");
        let p1 = &curve.points[0];
        assert_eq!(p1.gear, 1);
        assert_eq!(cached.time_s.to_bits(), p1.time_s.to_bits());
        assert_eq!(cached.energy_j.to_bits(), p1.energy_j.to_bits());
    }

    #[test]
    fn gear_profile_reuses_the_single_node_curve() {
        let e = test_engine();
        let _curve = measure_curve(&e, Benchmark::Mg, ProblemClass::Test, 1);
        let profile = gear_profile(&e, Benchmark::Mg, ProblemClass::Test);
        assert_eq!(profile.len(), 6);
        assert!(profile.is_physical());
        let s = e.cache_stats();
        assert_eq!(s.misses, 6, "profile re-used every curve run");
        assert_eq!(s.hits, 6);
    }

    #[test]
    fn model_fits_from_test_class() {
        let e = test_engine();
        let model = model_for(&e, Benchmark::Jacobi, ProblemClass::Test, 8);
        let p = model.refined(16, 3);
        assert!(p.time_s > 0.0 && p.energy_j > 0.0);
        assert!(model.profile.is_physical());
    }

    #[test]
    fn fig2_nodes_follow_paper() {
        assert_eq!(fig2_nodes(Benchmark::Bt), vec![4, 9]);
        assert_eq!(fig2_nodes(Benchmark::Cg), vec![2, 4, 8]);
    }

    #[test]
    fn engine_from_args_parses_jobs_override() {
        let args: Vec<String> = ["--test", "--jobs", "3"].iter().map(|s| s.to_string()).collect();
        assert_eq!(engine_for(cluster(), &args).jobs(), 3);
        assert!(engine_for(cluster(), &[]).jobs() >= 1);
    }

    #[test]
    fn fault_args_build_the_expected_plan() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(faults_from_args(&to_args(&["--test"])).is_none());

        // --fault-seed alone: the default-noise preset at that seed.
        let p = faults_from_args(&to_args(&["--fault-seed", "7"])).unwrap();
        assert_eq!((p.seed, p.clock_jitter.unwrap().amplitude), (7, DEFAULT_NOISE_LEVEL));

        // --faults loads a plan file; adding --fault-seed re-seeds it.
        let path = std::env::temp_dir().join("psc-harness-fault-plan.json");
        std::fs::write(&path, FaultPlan::noise(1, 0.1).to_json()).unwrap();
        let path_s = path.to_str().unwrap();
        let loaded = faults_from_args(&to_args(&["--faults", path_s])).unwrap();
        assert_eq!((loaded.seed, loaded.clock_jitter.unwrap().amplitude), (1, 0.1));
        let reseeded =
            faults_from_args(&to_args(&["--faults", path_s, "--fault-seed", "9"])).unwrap();
        assert_eq!((reseeded.seed, reseeded.clock_jitter.unwrap().amplitude), (9, 0.1));
        let _ = std::fs::remove_file(&path);

        // The engine picks the plan up as its default.
        let e = engine_for(cluster(), &to_args(&["--fault-seed", "7"]));
        assert_eq!(e.faults().map(|p| p.seed), Some(7));
    }

    #[test]
    #[should_panic(expected = "--fault-seed needs an unsigned integer")]
    fn bad_fault_seed_is_rejected() {
        let args: Vec<String> = ["--fault-seed", "many"].iter().map(|s| s.to_string()).collect();
        let _ = faults_from_args(&args);
    }

    #[test]
    fn telemetry_snapshot_archives_a_manifest() {
        let _guard = RESULTS_ENV.lock().unwrap();
        let dir = std::env::temp_dir().join("psc-harness-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("RESULTS_DIR", &dir);
        let e = test_engine();
        let (table, path) = telemetry_snapshot(&e, Benchmark::Ep, ProblemClass::Test, 2, 2);
        std::env::remove_var("RESULTS_DIR");
        assert!(table.contains("compute"), "table should list the compute category");
        let text = std::fs::read_to_string(&path).unwrap();
        let m = RunManifest::from_json(&text).unwrap();
        assert_eq!(m.bench, "EP");
        assert_eq!(m.nodes, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_sweep_archives_cache_accounting() {
        let _guard = RESULTS_ENV.lock().unwrap();
        let dir = std::env::temp_dir().join("psc-harness-sweep-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("RESULTS_DIR", &dir);
        let e = test_engine();
        let timer = Stopwatch::start();
        let _ = measure_curve(&e, Benchmark::Ep, ProblemClass::Test, 1);
        let _ = measure_curve(&e, Benchmark::Ep, ProblemClass::Test, 1); // all hits
        let path = finish_sweep(&e, "test-sweep", timer);
        std::env::remove_var("RESULTS_DIR");
        let m = SweepManifest::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(m.total_specs, 12);
        assert_eq!(m.unique_runs, 6);
        assert_eq!(m.cache_hits, 6);
        assert!((m.hit_rate() - 0.5).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
