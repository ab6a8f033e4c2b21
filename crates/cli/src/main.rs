//! `powerscale` — command-line interface to the power-scalable cluster
//! simulator.
//!
//! ```text
//! powerscale run --bench CG --nodes 4 --gear 2        one measured run
//! powerscale trace --bench CG --nodes 4 --gear 2      energy attribution + Perfetto trace
//! powerscale sweep --bench LU --nodes 8               all gears at one node count
//! powerscale stats --bench CG --nodes 4               engine self-profile of that sweep
//! powerscale curve --bench MG --max-nodes 8           full node×gear sweep
//! powerscale model --bench SP --predict 32            fit the paper's model, extrapolate
//! powerscale advise --upm 8.6 --delay 0.05            energy-minimal gear within a delay budget
//! powerscale budget --bench CG --power-cap 600        fastest config under a power cap
//! powerscale analyze --deny                           workspace determinism/unit lints
//! powerscale list                                     available benchmarks
//! ```
//!
//! Add `--class test` for the tiny problem sizes (CI-speed runs).

#![forbid(unsafe_code)]

use psc_analysis::curve::{EnergyTimeCurve, EnergyTimePoint};
use psc_analysis::pareto::{configs_of, fastest_under_power_cap, pareto_frontier};
use psc_analysis::plot::ascii_plot;
use psc_experiments::harness::{
    class_label, cluster, engine_from_args, faults_from_args, measure_curve, model_for,
    predicted_curve,
};
use psc_faults::{FaultPlan, DEFAULT_NOISE_LEVEL};
use psc_kernels::{Benchmark, ProblemClass};
use psc_machine::WorkBlock;
use psc_policy::choose_gear;
use psc_runner::{Engine, RunSpec};
use psc_telemetry::{chrome_trace_json, self_trace_json, write_file, RunManifest};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod stats;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `analyze` picks its own exit code (findings under --deny fail the
    // run without being an *error*), so it bypasses the Result dispatch.
    if cmd == "analyze" {
        return match psc_analyze::cli::run(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "sweep" => cmd_sweep(&args),
        "stats" => cmd_stats(&args),
        "trace" => cmd_trace(&args),
        "curve" => cmd_curve(&args),
        "model" => cmd_model(&args),
        "advise" => cmd_advise(&args),
        "budget" => cmd_budget(&args),
        "faults" => cmd_faults(&args),
        "policy" => cmd_policy(&args),
        "serve" => cmd_serve(&args),
        "replay" => cmd_replay(&args),
        "list" => cmd_list(),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
powerscale — energy-time exploration on a simulated power-scalable cluster

USAGE:
  powerscale run    --bench <NAME> [--nodes N] [--gear G] [--class b|test]
                    [--trace-out PATH] [--manifest-out PATH]
  powerscale sweep  --bench <NAME> [--nodes N] [--class b|test] [--jobs J]
                    [--trace-out PATH] [--metrics-out PATH]
                    [--self-trace-out PATH] [--events-out PATH]
  powerscale stats  --bench <NAME> [--nodes N] [--class b|test] [--jobs J]
                    [--metrics-out PATH] [--self-trace-out PATH]
                    [--events-out PATH]
  powerscale trace  --bench <NAME> [--nodes N] [--gear G] [--class b|test] [--out PATH]
  powerscale curve  --bench <NAME> [--max-nodes N] [--class b|test] [--jobs J]
  powerscale model  --bench <NAME> [--predict M] [--class b|test] [--jobs J]
  powerscale advise --upm <UPM> [--delay FRAC]    (energy-minimal gear within the budget)
  powerscale budget --bench <NAME> --power-cap <WATTS> [--max-nodes N]
                    [--class b|test] [--jobs J]
  powerscale faults [--seed N] [--level FRAC] [--out PATH] | --inspect PATH
  powerscale policy list | describe <NAME>
  powerscale policy run --bench <NAME> --policy <SPEC> [--nodes N] [--gear G]
                    [--class b|test]
  powerscale serve  [--tcp ADDR] [--workers N] [--queue-cap N] [--max-batch N]
  powerscale replay [--clients N] [--requests N] [--batch N] [--seed N]
                    [--zipf S] [--interactive PCT] [--workers N]
                    [--queue-cap N] [--min-dedup FRAC] [--quick]
  powerscale analyze [--deny] [--format text|json] [--root DIR] [--time-budget-ms N]
  powerscale list

  --trace-out writes a Chrome Trace Event JSON file — open it in Perfetto
  (ui.perfetto.dev) or chrome://tracing. For sweep, one file per gear is
  written with `-g<K>` inserted before the extension.

  Fault injection: `powerscale faults` generates a deterministic fault
  plan (JSON) at a noise level, or summarizes one with --inspect. The
  measuring commands (run, trace, sweep, curve, model, budget) accept
  --faults <plan.json> to run under a plan and --fault-seed <N> as a
  shorthand for the default-noise preset at that seed. Identical plan
  and seed reproduce byte-identical results at any --jobs; fault
  activations appear in exported traces on the \"fault\" category.

  Online gear policies: `powerscale policy list` names the available
  policy families, `describe` explains one and its argument syntax, and
  `run` executes a benchmark under a policy that watches the run and
  moves the gear at phase boundaries and MPI-call exits (shorthands:
  static:3, phase-adaptive:1.05, power-cap:400, oracle:0=2,3=5). The
  `run` and `trace` commands accept the same --policy <SPEC>. Decisions
  are deterministic — identical results at any --jobs — and
  policy-driven runs occupy their own cache keyspace.

  Static analysis: `powerscale analyze` proves that no host clock,
  environment read, thread spawn or metrics call is reachable from a
  simulation, that coroutines never suspend holding a borrow, that the
  cache key covers every spec field, and checks unit suffixes and layer
  boundaries (clippy.toml bans the names themselves). --deny exits
  non-zero on any finding; `// psc-analyze: allow(RULE)` pragmas are the
  only suppression. See DESIGN.md for the rule catalogue.

  Engine observability: `powerscale stats` runs a gear sweep and reports
  what the *engine* did — cache hit rate, per-kernel wall-time
  histograms (p50/p95/max), queue wait, worker utilization, disk-I/O
  time. `sweep` and `stats` also export the raw engine metrics:
  --metrics-out writes a Prometheus text-exposition snapshot,
  --self-trace-out a flamegraph of the engine's own pool/worker
  spans (Trace Event JSON, open in Perfetto), --events-out a structured
  JSONL event log. Metrics are observation-only: results are
  byte-identical with or without them (analyzer rule M001).

  Sweep as a service: `powerscale serve` turns the engine into a
  long-running job server speaking a JSONL protocol — one JSON object
  per line — on stdio (default) or a TCP listener (--tcp HOST:PORT,
  port 0 picks a free port and prints it). Many concurrent clients
  submit run batches on two lanes (interactive preempts batch); the
  engine's content-addressed cache and in-flight table collapse
  duplicate specs across clients, so a spec requested by everyone
  simulates once. `powerscale replay` is the proof harness: it fires
  seeded, Zipf-skewed client streams at an in-process server and
  byte-compares every reply against direct engine execution, failing
  on any divergence, any duplicated simulation, or a dedup rate under
  --min-dedup. See EXPERIMENTS.md for a worked example.

  Sweeping commands run independent configurations on a worker pool
  (--jobs, or the PSC_JOBS environment variable; default = available
  parallelism) and memoize results in a content-addressed cache under
  target/psc-run-cache (PSC_CACHE_DIR overrides; PSC_CACHE=0 disables).
  Results are bit-identical whatever the worker count.";

/// Honour the metrics export flags shared by `sweep` and `stats`:
/// `--metrics-out` (Prometheus text exposition), `--self-trace-out`
/// (engine flamegraph, Trace Event Format), `--events-out` (structured
/// JSONL event log). Paths echo on stdout; the lines are deterministic
/// (same path whatever the worker count), so the `--jobs` byte-identity
/// gates are unaffected.
fn export_metrics(e: &Engine, args: &[String]) -> Result<(), String> {
    let wants_export = ["--metrics-out", "--self-trace-out", "--events-out"]
        .iter()
        .any(|f| flag(args, f).is_some());
    if !wants_export {
        return Ok(());
    }
    let snap = e.metrics().snapshot();
    let spans = e.metrics().spans();
    let write =
        |path: &str, text: String| write_file(Path::new(path), &text).map_err(|e| e.to_string());
    if let Some(path) = flag(args, "--metrics-out") {
        write(&path, psc_metrics::render_prometheus(&snap))?;
        println!("  metrics  {path}");
    }
    if let Some(path) = flag(args, "--self-trace-out") {
        write(&path, self_trace_json(&spans, &snap))?;
        println!("  self-trace {path} (open in Perfetto)");
    }
    if let Some(path) = flag(args, "--events-out") {
        write(&path, psc_metrics::events_jsonl(&snap, &spans))?;
        println!("  events   {path}");
    }
    Ok(())
}

/// A one-line account of what a sweep actually executed.
fn print_cache_line(e: &Engine) {
    let s = e.cache_stats();
    println!(
        "\n  [{} run(s): {} executed, {} from cache ({} disk), {} worker(s)]",
        s.lookups(),
        s.misses,
        s.hits,
        s.disk_hits,
        e.jobs()
    );
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parse_bench(args: &[String]) -> Result<Benchmark, String> {
    let name = flag(args, "--bench").ok_or("missing --bench <NAME>")?;
    Benchmark::parse(&name)
        .ok_or_else(|| format!("unknown benchmark '{name}' (try `powerscale list`)"))
}

fn parse_class(args: &[String]) -> Result<ProblemClass, String> {
    match flag(args, "--class").as_deref() {
        None | Some("b") | Some("B") => Ok(ProblemClass::B),
        Some("test") => Ok(ProblemClass::Test),
        Some(other) => Err(format!("unknown class '{other}' (b or test)")),
    }
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for {name}: '{v}'")),
    }
}

/// The one configuration `run`, `trace` and `policy run` measure:
/// `--bench`, `--class`, `--nodes`, `--gear` and `--policy`, parsed and
/// validated against the testbed node once. The fault plan is not part
/// of it: it is the engine's default (`engine_from_args`) wherever an
/// engine runs the spec.
fn single_run_spec(args: &[String]) -> Result<RunSpec, String> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let nodes: usize = parse_num(args, "--nodes", 1)?;
    let gear: usize = parse_num(args, "--gear", 1)?;
    if !bench.supports_nodes(nodes) {
        return Err(format!(
            "{} cannot run on {nodes} nodes (valid: {:?})",
            bench.name(),
            bench.valid_nodes(32)
        ));
    }
    let node = cluster().node;
    if gear < 1 || gear > node.gears.len() {
        return Err(format!("gear must be 1..={}", node.gears.len()));
    }
    let mut spec = RunSpec::uniform(bench, class, nodes, gear);
    spec.policy =
        flag(args, "--policy").map(|text| psc_policy::PolicySpec::parse(&text)).transpose()?;
    if let Some(p) = &spec.policy {
        p.validate(&node, nodes)?;
    }
    Ok(spec)
}

/// `powerscale run`: the one command that prints the kernel's own
/// outputs (checksum, iterations, residual), which a `RunResult` does
/// not carry — so it is the CLI's one direct cluster run; every other
/// command asks the engine.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let spec = single_run_spec(args)?;
    let (bench, class, nodes, gear) = (spec.bench, spec.class, spec.nodes, spec.gears.gear_for(0));
    let cfg = spec.config();
    let faults = faults_from_args(args);
    let policy = spec.policy.as_ref();
    let (run, outs) = cluster().run_with_policy(&cfg, faults.as_ref(), policy.map(|p| p as _), {
        move |comm: &mut psc_mpi::Comm| bench.run(comm, class)
    });
    let out = &outs[0];
    match policy {
        Some(p) => println!("{} on {nodes} node(s) under {}:", bench.name(), p.shorthand()),
        None => println!("{} on {nodes} node(s) at gear {gear}:", bench.name()),
    }
    println!("  time    {:>12.2} s", run.time_s);
    println!("  energy  {:>12.0} J (wattmeter: {:.0} J)", run.energy_j, run.measured_energy_j);
    println!("  power   {:>12.1} W average", run.average_power_w());
    println!(
        "  T^A     {:>12.2} s (max rank), T^I {:.2} s",
        run.active_max_s(),
        run.idle_of_max_s()
    );
    println!("  UPM     {:>12.1}", run.total_counters().upm());
    println!("  checksum {:>11.6e}  iterations {}", out.checksum, out.iterations);
    if let Some(r) = out.residual {
        println!("  residual {:>11.3e}", r);
    }
    if let Some(path) = flag(args, "--trace-out") {
        let path = PathBuf::from(path);
        write_file(&path, &chrome_trace_json(&run)).map_err(|e| e.to_string())?;
        println!("  trace    {}", path.display());
    }
    if let Some(path) = flag(args, "--manifest-out") {
        let path = PathBuf::from(path);
        let m = RunManifest::new(bench.name(), class_label(class), &cfg, &run);
        write_file(&path, &m.to_json()).map_err(|e| e.to_string())?;
        println!("  manifest {}", path.display());
    }
    Ok(())
}

/// `lu.json` → `lu-g3.json` (gear inserted before the extension).
fn path_with_gear(path: &Path, gear: usize) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-g{gear}.{ext}"),
        None => format!("{stem}-g{gear}"),
    };
    path.with_file_name(name)
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let spec = single_run_spec(args)?;
    let (bench, nodes, gear) = (spec.bench, spec.nodes, spec.gears.gear_for(0));
    let run = engine_from_args(args).run(&spec);
    let m = RunManifest::new(bench.name(), class_label(spec.class), &spec.config(), &run);
    println!(
        "{} on {nodes} node(s) at gear {gear}: {:.2} s, {:.0} J\n",
        bench.name(),
        run.time_s,
        run.energy_j
    );
    println!("{}", m.attribution.table());
    let trace_path = match flag(args, "--out") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from("results")
            .join(format!("{}-n{nodes}-g{gear}.trace.json", bench.name().to_lowercase())),
    };
    write_file(&trace_path, &chrome_trace_json(&run)).map_err(|e| e.to_string())?;
    let manifest_path = m.default_path();
    write_file(&manifest_path, &m.to_json()).map_err(|e| e.to_string())?;
    println!("wrote {} (open in Perfetto)", trace_path.display());
    println!("wrote {}", manifest_path.display());
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let nodes: usize = parse_num(args, "--nodes", 1)?;
    if !bench.supports_nodes(nodes) {
        return Err(format!("{} cannot run on {nodes} nodes", bench.name()));
    }
    let e = engine_from_args(args);
    let trace_out = flag(args, "--trace-out").map(PathBuf::from);
    let curve = match &trace_out {
        None => measure_curve(&e, bench, class, nodes),
        Some(base) => {
            // Runs come through the engine (cached, per-rank traces
            // included), then each one's trace is exported.
            let points = (1..=e.gear_count())
                .map(|gear| {
                    let run = e.run(&RunSpec::uniform(bench, class, nodes, gear));
                    let path = path_with_gear(base, gear);
                    write_file(&path, &chrome_trace_json(&run)).map_err(|e| e.to_string())?;
                    Ok(EnergyTimePoint { gear, time_s: run.time_s, energy_j: run.energy_j })
                })
                .collect::<Result<Vec<_>, String>>()?;
            EnergyTimeCurve::new(bench.name(), nodes, points)
        }
    };
    println!("{} on {nodes} node(s):", bench.name());
    println!(
        "  {:>4} {:>10} {:>10} {:>8} {:>9}",
        "gear", "time [s]", "energy [J]", "delay", "savings"
    );
    for p in &curve.points {
        println!(
            "  {:>4} {:>10.2} {:>10.0} {:>7.2}% {:>8.2}%",
            p.gear,
            p.time_s,
            p.energy_j,
            100.0 * curve.delay(p.gear).unwrap(),
            100.0 * curve.savings(p.gear).unwrap()
        );
    }
    let edp = psc_analysis::metrics::best_edp_gear(&curve);
    let ed2p = psc_analysis::metrics::best_ed2p_gear(&curve);
    println!(
        "\n  min energy: gear {}  |  min E·T: gear {edp}  |  min E·T²: gear {ed2p}",
        curve.min_energy_gear()
    );
    println!("\n{}", ascii_plot(std::slice::from_ref(&curve), 60, 12));
    print_cache_line(&e);
    export_metrics(&e, args)?;
    Ok(())
}

/// `powerscale stats`: drive a figure-1-style gear sweep through the
/// engine, then report what the engine itself did — cache hit rate,
/// per-kernel wall-time histograms, queue behaviour, worker-pool
/// utilization, disk-I/O breakdown. The simulated results are
/// unaffected by the observation (analyzer rule M001); run it twice to
/// see the cold-vs-warm cache difference.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let nodes: usize = parse_num(args, "--nodes", 1)?;
    if !bench.supports_nodes(nodes) {
        return Err(format!("{} cannot run on {nodes} nodes", bench.name()));
    }
    let e = engine_from_args(args);
    let curve = measure_curve(&e, bench, class, nodes);
    println!(
        "engine stats for the {} gear sweep on {nodes} node(s) ({} gear(s), {} worker(s)):\n",
        bench.name(),
        curve.points.len(),
        e.jobs()
    );
    print!("{}", stats::render_stats(&e.metrics().snapshot()));
    export_metrics(&e, args)?;
    Ok(())
}

fn cmd_curve(args: &[String]) -> Result<(), String> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let max_nodes: usize = parse_num(args, "--max-nodes", 8)?;
    let e = engine_from_args(args);
    let curves: Vec<_> = bench
        .valid_nodes(max_nodes)
        .into_iter()
        .map(|n| measure_curve(&e, bench, class, n))
        .collect();
    println!("{}", ascii_plot(&curves, 70, 16));
    print_cache_line(&e);
    Ok(())
}

fn cmd_model(args: &[String]) -> Result<(), String> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let target: usize = parse_num(args, "--predict", 32)?;
    let e = engine_from_args(args);
    let model = model_for(&e, bench, class, 9);
    println!("{} model (fit on ≤9 nodes):", bench.name());
    println!("  F_s ≈ {:.4} (slope {:+.5}/node)", model.amdahl.fs_mean(), model.amdahl.fs_slope);
    println!("  communication: {} (R² {:.3})", model.comm.shape, model.comm.r2);
    println!("  reducible fraction: {:.1}%", 100.0 * model.reducible_fraction);
    println!("\npredicted energy-time curve at {target} nodes (refined model):");
    println!("  {:>4} {:>10} {:>10}", "gear", "time [s]", "energy [J]");
    for p in model.predict_curve(target, true) {
        println!("  {:>4} {:>10.2} {:>10.0}", p.gear, p.time_s, p.energy_j);
    }
    let curve = predicted_curve(&model, bench, target, true);
    println!("\n{}", ascii_plot(std::slice::from_ref(&curve), 60, 12));
    print_cache_line(&e);
    Ok(())
}

fn cmd_advise(args: &[String]) -> Result<(), String> {
    let upm: f64 = parse_num(args, "--upm", f64::NAN)?;
    if !upm.is_finite() || upm <= 0.0 {
        return Err("missing or invalid --upm <UPM>".into());
    }
    let delay: f64 = parse_num(args, "--delay", 0.05)?;
    if delay.is_nan() || delay < 0.0 {
        return Err(format!("invalid --delay {delay}: want a fraction ≥ 0"));
    }
    let node = psc_machine::presets::athlon64();
    let work = WorkBlock::with_upm(1.0e9, upm);
    let time_s = |g: usize| node.compute_time_s(&work, node.gear(g));
    let energy_j = |g: usize| node.compute_energy_j(&work, node.gear(g));
    // A static gear is set before the run starts: no blocking to price
    // and no transition to pay.
    let advice = |slowdown_limit: f64| {
        let g = choose_gear(&node, &work, 0.0, 1, slowdown_limit, 0.0);
        format!(
            "gear {g} (predicted delay {:+.1}%, savings {:+.1}%)",
            100.0 * (time_s(g) / time_s(1) - 1.0),
            100.0 * (1.0 - energy_j(g) / energy_j(1))
        )
    };
    println!("workload at UPM {upm} on {}:", node.name);
    println!("  within {:.0}% delay budget: {}", 100.0 * delay, advice(1.0 + delay));
    println!("  minimum-energy gear:      {}", advice(f64::INFINITY));
    Ok(())
}

fn cmd_budget(args: &[String]) -> Result<(), String> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let cap: f64 = parse_num(args, "--power-cap", f64::NAN)?;
    if !cap.is_finite() || cap <= 0.0 {
        return Err("missing or invalid --power-cap <WATTS>".into());
    }
    let max_nodes: usize = parse_num(args, "--max-nodes", 9)?;
    let e = engine_from_args(args);
    let curves: Vec<_> = bench
        .valid_nodes(max_nodes)
        .into_iter()
        .map(|n| measure_curve(&e, bench, class, n))
        .collect();
    let configs = configs_of(&curves);
    println!("Pareto frontier for {} (≤{max_nodes} nodes):", bench.name());
    for f in pareto_frontier(&configs) {
        println!(
            "  {:>2} nodes, gear {}: {:>8.2} s, {:>8.0} J, {:>6.1} W avg",
            f.nodes,
            f.gear,
            f.time_s,
            f.energy_j,
            f.average_power_w()
        );
    }
    match fastest_under_power_cap(&configs, cap) {
        Some(pick) => println!(
            "\nfastest under {cap:.0} W: {} nodes at gear {} ({:.2} s, {:.1} W avg)",
            pick.nodes,
            pick.gear,
            pick.time_s,
            pick.average_power_w()
        ),
        None => println!("\nno configuration fits under {cap:.0} W"),
    }
    print_cache_line(&e);
    Ok(())
}

fn cmd_faults(args: &[String]) -> Result<(), String> {
    if let Some(path) = flag(args, "--inspect") {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let plan = FaultPlan::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        println!("fault plan {path}:");
        println!("{}", plan.summary());
        return Ok(());
    }
    let seed: u64 = parse_num(args, "--seed", 42)?;
    let level: f64 = parse_num(args, "--level", DEFAULT_NOISE_LEVEL)?;
    if !(0.0..=0.5).contains(&level) {
        return Err(format!("--level must be in [0, 0.5], got {level}"));
    }
    let plan = if level == 0.0 { FaultPlan::quiet(seed) } else { FaultPlan::noise(seed, level) };
    plan.validate()?;
    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(&path, plan.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}");
            println!("{}", plan.summary());
        }
        None => println!("{}", plan.to_json()),
    }
    Ok(())
}

/// `powerscale policy`: list the online gear policies, describe one, or
/// run a benchmark under one.
fn cmd_policy(args: &[String]) -> Result<(), String> {
    use psc_policy::PolicySpec;
    match args.get(1).map(String::as_str) {
        Some("list") => {
            println!("{:<16} summary", "policy");
            for name in PolicySpec::NAMES {
                println!("{name:<16} {}", PolicySpec::summary(name).unwrap());
            }
            Ok(())
        }
        Some("describe") => {
            let name =
                args.get(2).ok_or("missing policy name: powerscale policy describe <NAME>")?;
            match PolicySpec::describe(name) {
                Some(text) => {
                    print!("{text}");
                    Ok(())
                }
                None => Err(format!(
                    "unknown policy '{name}' (available: {})",
                    PolicySpec::NAMES.join(", ")
                )),
            }
        }
        Some("run") => cmd_policy_run(args),
        Some(other) => Err(format!("unknown policy subcommand '{other}' (list, describe, run)")),
        None => Err("missing policy subcommand (list, describe, run)".into()),
    }
}

fn cmd_policy_run(args: &[String]) -> Result<(), String> {
    let spec = single_run_spec(args)?;
    let policy =
        spec.policy.as_ref().ok_or("missing --policy <SPEC> (try `powerscale policy list`)")?;
    let (bench, nodes) = (spec.bench, spec.nodes);
    let run = engine_from_args(args).run(&spec);
    let decisions: usize = run.ranks.iter().map(|r| r.trace.decisions().len()).sum();
    let shifts: usize = run.ranks.iter().map(|r| r.trace.gear_shifts().len()).sum();
    println!("{} on {nodes} node(s) under {}:", bench.name(), policy.shorthand());
    println!("  time      {:>12.2} s", run.time_s);
    println!("  energy    {:>12.0} J (wattmeter: {:.0} J)", run.energy_j, run.measured_energy_j);
    println!("  power     {:>12.1} W average", run.average_power_w());
    println!("  decisions {:>12} across {} rank(s), {} gear shift(s)", decisions, nodes, shifts);
    for r in &run.ranks {
        if r.trace.decisions().is_empty() {
            continue;
        }
        // Full logs can run to hundreds of entries; show the head and
        // point at `trace --policy` for the rest.
        const SHOWN: usize = 6;
        let all = r.trace.decisions();
        let mut log: Vec<String> = all
            .iter()
            .take(SHOWN)
            .map(|d| format!("{:.3}s g{}→g{}", d.t_s, d.from_gear, d.to_gear))
            .collect();
        if all.len() > SHOWN {
            log.push(format!("… (+{} more)", all.len() - SHOWN));
        }
        println!("  rank {:<3} {}", r.rank, log.join("  "));
    }
    Ok(())
}

/// `powerscale serve`: run the JSONL job server on stdio or TCP.
/// Protocol bytes own stdout in stdio mode, so diagnostics go to
/// stderr; in TCP mode the bound address prints on stdout for scripts
/// to capture.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::io::Write as _;
    let workers: usize = parse_num(args, "--workers", 4)?;
    let queue_cap: usize = parse_num(args, "--queue-cap", 64)?;
    let max_batch: usize = parse_num(args, "--max-batch", 1024)?;
    let engine = std::sync::Arc::new(engine_from_args(args));
    let server = psc_serve::Server::new(
        engine,
        psc_serve::ServerConfig { workers, queue_capacity: queue_cap, max_batch },
    );
    match flag(args, "--tcp") {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
            println!("listening on {local} ({workers} worker(s), queue {queue_cap}/lane)");
            let _ = std::io::stdout().flush();
            server.serve_tcp(listener).map_err(|e| format!("serving {local}: {e}"))?;
        }
        None => {
            eprintln!(
                "serving JSONL on stdio ({workers} worker(s), queue {queue_cap}/lane); \
                 send {{\"id\":\"...\",\"cmd\":\"shutdown\"}} or EOF to stop"
            );
            let stdin = std::io::stdin();
            server.run_stdio(stdin.lock(), Box::new(std::io::stdout()));
        }
    }
    Ok(())
}

/// `powerscale replay`: the deterministic load-test harness. Fails
/// (non-zero exit) if any reply diverges from direct engine execution,
/// any duplicated spec simulates twice, or the dedup rate falls under
/// --min-dedup — the gates CI leans on.
fn cmd_replay(args: &[String]) -> Result<(), String> {
    let quick = args.iter().any(|a| a == "--quick");
    let base = if quick {
        psc_serve::ReplayConfig {
            clients: 4,
            requests_per_client: 6,
            batch_size: 3,
            ..psc_serve::ReplayConfig::default()
        }
    } else {
        psc_serve::ReplayConfig::default()
    };
    let cfg = psc_serve::ReplayConfig {
        clients: parse_num(args, "--clients", base.clients)?,
        requests_per_client: parse_num(args, "--requests", base.requests_per_client)?,
        batch_size: parse_num(args, "--batch", base.batch_size)?,
        zipf_exponent: parse_num(args, "--zipf", base.zipf_exponent)?,
        interactive_percent: parse_num(args, "--interactive", base.interactive_percent)?,
        seed: parse_num(args, "--seed", base.seed)?,
        workers: parse_num(args, "--workers", base.workers)?,
        queue_capacity: parse_num(args, "--queue-cap", base.queue_capacity)?,
    };
    let min_dedup: f64 = parse_num(args, "--min-dedup", 0.0)?;
    let r = psc_serve::replay(&|| engine_from_args(args), cfg);
    println!(
        "replay: {} client(s) × {} request(s) × {} spec(s)/batch (zipf {}, seed {})",
        r.clients, cfg.requests_per_client, cfg.batch_size, cfg.zipf_exponent, cfg.seed
    );
    println!(
        "  specs      {:>8}   unique {:>6}   executed {:>6}   duplicates simulated {}",
        r.specs,
        r.unique_specs,
        r.executed,
        r.executed.saturating_sub(r.unique_specs)
    );
    println!("  dedup      {:>7.1}% of replies served without a simulation", 100.0 * r.dedup_rate);
    println!(
        "  identity   {}",
        if r.byte_identical {
            "every reply byte-identical to direct engine execution".to_string()
        } else {
            format!("{} replies DIVERGED", r.mismatches)
        }
    );
    println!("  wall       {:.2} s   throughput {:.0} specs/s", r.wall_s, r.throughput_specs_per_s);
    println!(
        "  latency    p50 {:.1} ms   p95 {:.1} ms (accept → done)",
        1e3 * r.latency_p50_s,
        1e3 * r.latency_p95_s
    );
    if !r.byte_identical {
        return Err(format!("{} replies diverged from direct engine execution", r.mismatches));
    }
    if !r.dedup_exact() {
        return Err(format!(
            "in-flight dedup leak: {} simulations for {} unique specs",
            r.executed, r.unique_specs
        ));
    }
    if r.dedup_rate < min_dedup {
        return Err(format!(
            "dedup rate {:.3} below the --min-dedup {min_dedup} floor",
            r.dedup_rate
        ));
    }
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    println!("{:<10} {:>8}  {:<12} valid node counts (≤32)", "benchmark", "UPM", "paper comm");
    for b in Benchmark::ALL {
        println!(
            "{:<10} {:>8.1}  {:<12} {:?}",
            b.name(),
            b.upm(),
            format!("{:?}", b.paper_comm_class()),
            b.valid_nodes(32)
        );
    }
    Ok(())
}
