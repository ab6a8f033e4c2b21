//! The metrics observation-only boundary, end to end: figure CSVs are
//! byte-identical with engine metrics enabled and disabled, at
//! `--jobs 1` and `--jobs 8`, and the exports the metrics produce are
//! structurally valid (Prometheus text exposition, Trace Event JSON,
//! JSONL event log).
//!
//! This is the dynamic half of analyzer rule M001 (the static half
//! lives in `psc-analyze`): if any hook ever steers a simulated result,
//! these comparisons catch it on the same figure-shaped plan the CI
//! fault matrix uses.

use powerscale::kernels::{Benchmark, ProblemClass};
use powerscale::metrics::{events_jsonl, render_prometheus, validate_exposition};
use powerscale::prelude::*;
use powerscale::runner::EngineMetrics;
use powerscale::telemetry::selftrace::self_trace_json;
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

/// Gear sweeps over three kernels plus a node sweep with deliberate
/// overlap — the same shape the paper campaign and the CI fault
/// matrix drive.
fn figure_like_plan() -> RunPlan {
    let mut plan = RunPlan::new();
    for bench in [Benchmark::Cg, Benchmark::Ep, Benchmark::Mg] {
        plan.extend(RunPlan::gear_sweep(bench, ProblemClass::Test, 1, 6));
    }
    plan.extend(RunPlan::node_sweep(Benchmark::Cg, ProblemClass::Test, &[1, 2, 4]));
    plan
}

fn engine(jobs: usize, metrics_on: bool) -> Engine {
    let mut e = Engine::serial(Cluster::athlon_fast_ethernet())
        .with_jobs(jobs)
        .with_cache(RunCache::in_memory());
    if !metrics_on {
        e = e.with_metrics(EngineMetrics::disabled());
    }
    e
}

#[test]
fn figure_csvs_are_byte_identical_with_metrics_on_and_off() {
    let plan = figure_like_plan();
    let mut csvs = Vec::new();
    for jobs in [1, 8] {
        for metrics_on in [true, false] {
            let e = engine(jobs, metrics_on);
            csvs.push((jobs, metrics_on, curve_csv(&plan, &e.execute(&plan))));
        }
    }
    let reference = &csvs[0].2;
    for (jobs, metrics_on, csv) in &csvs {
        assert_eq!(
            csv,
            reference,
            "CSV diverged at jobs={jobs}, metrics {}",
            if *metrics_on { "on" } else { "off" }
        );
    }
}

#[test]
fn fault_plans_are_equally_unaffected_by_observation() {
    // The CI fault matrix byte-compares sweeps under a fault plan; the
    // observation boundary must hold there too.
    let plan = RunPlan::gear_sweep(Benchmark::Lu, ProblemClass::Test, 2, 6);
    let faults = Some(FaultPlan::noise(7, DEFAULT_NOISE_LEVEL));
    let on = engine(8, true).with_faults(faults.clone());
    let off = engine(1, false).with_faults(faults);
    let on_runs = on.execute(&plan);
    let off_runs = off.execute(&plan);
    for (x, y) in on_runs.iter().zip(&off_runs) {
        assert_eq!(**x, **y, "fault-plan RunResult mismatch between metrics on and off");
    }
}

#[test]
fn exports_from_a_real_sweep_are_structurally_valid() {
    let plan = figure_like_plan();
    let e = engine(8, true);
    let _ = e.execute(&plan);
    let snap = e.metrics().snapshot();
    let spans = e.metrics().spans();

    // Prometheus text exposition parses and covers every family.
    let text = render_prometheus(&snap);
    let samples = validate_exposition(&text).expect("valid Prometheus exposition");
    assert!(samples > 0, "exposition must carry samples");
    assert!(text.contains("engine_run_wall_seconds_bucket"), "histogram families exported");

    // The engine self-trace is valid Trace Event JSON with run spans.
    let trace = self_trace_json(&spans, &snap);
    let doc = serde::json::parse(&trace).expect("self-trace must be valid JSON");
    let events = doc.get("traceEvents").expect("traceEvents array");
    assert!(matches!(events, serde::Value::Seq(v) if !v.is_empty()));

    // Every JSONL event line parses on its own.
    let log = events_jsonl(&snap, &spans);
    let mut lines = 0;
    for line in log.lines() {
        serde::json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        lines += 1;
    }
    assert!(lines > 0, "event log must not be empty");
}

#[test]
fn disabled_engines_observe_nothing() {
    let plan = figure_like_plan();
    let e = engine(8, false);
    let _ = e.execute(&plan);
    assert!(e.metrics().snapshot().samples.is_empty());
    assert!(e.metrics().spans().is_empty());
}
