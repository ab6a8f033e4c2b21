//! Turning measurements into the printed ledger: one workload in this
//! process, the whole set in child processes, and the self-check.

use crate::host::HostRecord;
use crate::metrics::{self, EndToEnd, END_TO_END, END_TO_END_SOME};
use crate::stats::{median, percentile, quartiles, spread, tail_percentile};
use crate::workload::{measure, Measured, Repeat, Workload, MIN_REPEATS, NAMES};
use crate::{budget, layers, span, Args};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Prefix of the machine-readable line a child prints for its parent
/// (the last line is the driver's and holds only what the driver asks).
const LEDGER_PREFIX: &str = "ledger: ";

/// Every metric one process measured, by name (units: `metrics::units`).
type Metrics = BTreeMap<String, f64>;

fn build(name: &str, args: &Args) -> Box<dyn Workload> {
    use crate::suite::{Part, Suite};
    match name {
        "suite_cold_mem" => Box::new(Suite::new(Part::ColdMem)),
        "suite_disk_write" => Box::new(Suite::new(Part::DiskWrite)),
        "suite_disk_read" => Box::new(Suite::new(Part::DiskRead)),
        "gear_search_cold" => Box::new(crate::gear_search::GearSearch::new(args.seed)),
        "warm_replay" => Box::new(crate::warm_replay::WarmReplay::new(args.seed)),
        "serve_mixed" => Box::new(crate::serve_mixed::ServeMixed::new(
            args.seed,
            args.inject.as_deref() == Some("reply"),
        )),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

/// Whether `workload` reports `metric`: everything but the metrics
/// [`END_TO_END_SOME`] gives to named workloads only.
fn applies(metric: &str, workload: &str) -> bool {
    END_TO_END_SOME.iter().all(|(m, on)| m.name != metric || on.contains(&workload))
}

/// The tail percentile `latency_p95_ms` reports on a workload whose
/// repeats make `per_repeat` operations each: p95 where ten samples of
/// the fewest repeats a run makes lie beyond it, else the highest
/// percentile of which that holds. Fixed by the workload, not by how
/// many repeats a run happened to fit.
fn latency_tail(per_repeat: usize) -> f64 {
    tail_percentile(per_repeat * MIN_REPEATS).min(95.0)
}

/// The values of `f` over the untraced repeats.
fn over_repeats(m: &Measured, f: impl Fn(&Repeat) -> f64) -> Vec<f64> {
    m.repeats.iter().map(f).collect()
}

/// The end-to-end numbers, from the untraced repeats only: each is the
/// median over the repeats of what one whole repeat measured, so that
/// what the host did to one repeat moves none of them.
fn end_to_end(m: &Measured) -> Metrics {
    let wall_s = median(&over_repeats(m, |r| r.wall_s));
    let first = m.repeats.first().expect("at least one untraced repeat");
    let tail = latency_tail(first.latencies_ms.len());
    let answers = &m.verdict.answers;
    let mut out: Metrics = [
        ("setup_s", median(&m.setups_s)),
        ("wall_s", wall_s),
        ("cpu_s", median(&over_repeats(m, |r| r.cpu_s))),
        ("specs_per_s", first.specs as f64 / wall_s),
        ("latency_p50_ms", median(&over_repeats(m, |r| median(&r.latencies_ms)))),
        ("latency_p95_ms", median(&over_repeats(m, |r| percentile(&r.latencies_ms, tail)))),
        ("peak_rss_mib", m.peak_rss_mib),
        ("heap_held_mib", median(&over_repeats(m, |r| r.heap_held_mib))),
        ("sim_events_per_s", m.verdict.counts.trace_events as f64 / wall_s),
        // Exact simulated totals over the distinct results answered.
        ("sim.runs", m.verdict.sim_runs as f64),
        ("sim.virtual_s", answers.iter().map(|a| a.time_s).sum()),
        ("sim.energy_j", answers.iter().map(|a| a.energy_j).sum()),
    ]
    .into_iter()
    // A metric only some workloads have reads 0 on the others.
    .map(|(name, v)| (name.to_string(), if applies(name, m.name) { v } else { 0.0 }))
    .collect();
    // `disk_mib`, the model errors, the serve manifests' totals.
    out.extend(m.verdict.extras.iter().map(|(&name, &v)| (name.to_string(), v)));
    out
}

/// The traced pass: per-layer measurements, the budget, and the cost
/// of tracing itself.
fn per_layer(m: &Measured, e2e: &Metrics) -> Metrics {
    let mut layer_values = layers::measure_all();
    // Traced and untraced repeats alternate; the median of the adjacent
    // pairs' ratios cancels what the host did to both of a pair.
    let ratios: Vec<f64> =
        m.repeats.iter().zip(&m.traced).map(|(u, t)| t.wall_s / u.wall_s - 1.0).collect();
    layer_values.insert("trace.overhead_frac", median(&ratios));
    layer_values.insert("trace.spans", m.spans.len() as f64 / m.traced.len().max(1) as f64);

    // `serve_mixed` spreads its work over worker and client threads, so
    // its parts are shares of CPU time; the others are single-threaded
    // and use wall time (which also holds their disk waits).
    let total_s = e2e[if m.name == "serve_mixed" { "cpu_s" } else { "wall_s" }];
    let test_us = layers::test_class_kernel_us();
    let shares = budget::shares(&m.verdict.counts, &layer_values, &test_us, total_s);
    layer_values
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .chain(shares.into_iter().map(|(part, share)| (format!("budget.{part}_frac"), share)))
        .collect()
}

/// The value of `name`; 0 for a metric this run did not produce (a
/// per-layer metric of another workload, such as `serve.executed`).
fn value_of(values: &Metrics, name: &str) -> f64 {
    values.get(name).copied().unwrap_or(0.0)
}

fn print_metrics(title: &str, names: impl Iterator<Item = String>, values: &Metrics) {
    let units = metrics::units();
    println!("  {title}");
    for name in names {
        println!("    {name:<38} {:>16.6} {}", value_of(values, &name), units[&name]);
    }
}

/// `{name: {value, unit}}` for `names`, the shape the driver reads.
fn metrics_value(names: impl Iterator<Item = String>, values: &Metrics) -> Value {
    let units = metrics::units();
    Value::Map(
        names
            .map(|n| {
                let entry = vec![
                    ("value".to_string(), Value::F64(value_of(values, &n))),
                    ("unit".to_string(), Value::Str(units[&n].into())),
                ];
                (n, Value::Map(entry))
            })
            .collect(),
    )
}

/// Measure one workload in this process and print its report; the last
/// line is the driver's JSON object. Returns whether every operation
/// was correct.
pub fn run_one(name: &str, args: &Args) -> bool {
    let name = *NAMES.iter().find(|n| **n == name).expect("parse_args checked the name");
    let host = HostRecord::capture();
    let mut workload = build(name, args);
    let mut measured = measure(name, workload.as_mut(), args);

    let mut values = end_to_end(&measured);
    if args.trace {
        let layer = per_layer(&measured, &values);
        // The analyzer's verdict on the workspace is part of the gate.
        let findings = layer["analyze.findings"];
        if findings != 0.0 {
            measured.verdict.failures.push(format!("psc-analyze reports {findings} findings"));
        }
        values.extend(layer);
        let path = crate::out_dir().join(format!("trace.{name}.json"));
        std::fs::write(&path, span::chrome_json(name, &measured.spans)).expect("writing the trace");
        println!("  wrote {}", path.display());
    }

    println!(
        "== {name}  seed {}  {} set-ups, {} untraced + {} traced repeats  [{} × {}, {}, commit {}]",
        args.seed,
        measured.setups_s.len(),
        measured.repeats.len(),
        measured.traced.len(),
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.commit
    );
    for (what, values) in [
        ("set-ups, s", &measured.setups_s),
        ("repeats, wall s", &over_repeats(&measured, |r| r.wall_s)),
        ("repeats, cpu s", &over_repeats(&measured, |r| r.cpu_s)),
    ] {
        let (q1, q2, q3) = quartiles(values);
        println!("  {what:<16} {values:.3?}, median {q2:.4}, quartiles {q1:.4} … {q3:.4}");
    }
    let always = END_TO_END.iter().map(|m| m.name.to_string());
    let some = checked_metrics(name).into_iter().skip(END_TO_END.len()).map(|m| m.name.to_string());
    print_metrics("end to end (untraced repeats)", always.clone().chain(some), &values);
    let per_repeat = measured.repeats[0].latencies_ms.len();
    println!(
        "    latency: percentiles over the {per_repeat} operations of a repeat; the tail is p{}",
        latency_tail(per_repeat)
    );
    print_metrics(
        "exact simulated totals",
        metrics::EXACT.iter().map(|(n, _)| n.to_string()),
        &values,
    );
    let layer_names = || metrics::per_layer().into_iter().map(|(n, _, _)| n);
    if args.trace {
        print_metrics("per layer (traced pass)", layer_names(), &values);
        let by_layer = span::self_time_by_layer_us(&measured.spans);
        let total: f64 = by_layer.values().sum();
        println!("  span self time by layer");
        for (layer, us) in by_layer {
            println!(
                "    {layer:<38} {:>16.6} s  ({:.1} %)",
                us / 1e6,
                100.0 * us / total.max(1e-9)
            );
        }
    }
    let (attempted, failed) = (measured.attempted(), measured.failed());
    println!("  operations attempted {attempted}  failed {failed}");
    for line in measured.verdict.failures.iter().take(10) {
        println!("  FAILED: {line}");
    }

    let all_names: Vec<String> =
        values.keys().filter(|n| metrics::units().contains_key(*n)).cloned().collect();
    let ledger = Value::Map(vec![
        ("workload".into(), Value::Str(name.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("trace".into(), Value::Bool(args.trace)),
        ("repeats".into(), Value::U64(measured.repeats.len() as u64)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("host".into(), host.to_value()),
        ("metrics".into(), metrics_value(all_names.into_iter(), &values)),
    ]);
    println!("{LEDGER_PREFIX}{}", serde::json::to_string(&ledger));

    let wanted: Vec<String> = if args.trace { layer_names().collect() } else { always.collect() };
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics_value(wanted.into_iter(), &values)),
    ]);
    println!("{}", serde::json::to_string(&result));
    failed == 0
}

/// What a child process reported.
struct Child {
    ok: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    ledger: Option<Value>,
}

/// Run one workload in a child process of this binary, passing its
/// report through.
fn spawn(name: &str, trace: bool, args: &Args) -> Child {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.bless {
        cmd.arg("--bless");
    }
    if let Some(what) = &args.inject {
        cmd.args(["--inject", what]);
    }
    let output = cmd.spawn().and_then(|c| c.wait_with_output()).expect("running a workload child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut ledger = None;
    for line in stdout.lines() {
        match line.strip_prefix(LEDGER_PREFIX) {
            Some(json) => ledger = serde::json::parse(json).ok(),
            None if line.starts_with('{') => {} // the driver's line
            None => println!("{line}"),
        }
    }
    let metrics = ledger
        .as_ref()
        .and_then(|l| match l.get("metrics") {
            Some(Value::Map(entries)) => Some(
                entries
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default();
    let failed = ledger.as_ref().and_then(|l| l.get("failed")).and_then(Value::as_u64).unwrap_or(1);
    Child { ok: output.status.success() && ledger.is_some(), failed, metrics, ledger }
}

/// Every workload untraced, then every workload traced, each in its own
/// child process; the collected ledger goes to `out/ledger.json`.
pub fn run_all(args: &Args) -> bool {
    let host = HostRecord::capture();
    let mut ok = true;
    let mut runs = Vec::new();
    for trace in [false, true] {
        for name in NAMES {
            let child = spawn(name, trace, args);
            ok &= child.ok && child.failed == 0;
            runs.extend(child.ledger);
        }
    }
    let ledger = Value::Map(vec![
        ("host".into(), host.to_value()),
        ("seed".into(), Value::U64(args.seed)),
        ("claim".into(), Value::Null),
        ("runs".into(), Value::Seq(runs)),
    ]);
    let path = crate::out_dir().join("ledger.json");
    std::fs::write(&path, serde::json::to_string_pretty(&ledger)).expect("writing the ledger");
    println!("wrote {}", path.display());
    println!(
        "{}",
        if ok { "all workloads correct" } else { "FAILED: see the failed operations above" }
    );
    ok
}

/// The metrics a self-check compares on `workload`, with their bounds.
fn checked_metrics(workload: &str) -> Vec<EndToEnd> {
    let some = END_TO_END_SOME.iter().filter(|(m, _)| applies(m.name, workload)).map(|(m, _)| *m);
    END_TO_END.iter().copied().chain(some).collect()
}

/// Names that must agree bit for bit between two runs of one seed.
const EXACT_NAMES: [&str; 7] = [
    "sim.runs",
    "sim.virtual_s",
    "sim.energy_j",
    "disk_mib",
    "serve.executed",
    "model_time_err_pct",
    "model_energy_err_pct",
];

/// Runs of each workload in each of the two sets of a self-check: the
/// fewest that have a median and quartiles.
const SELFCHECK_RUNS: usize = 3;

/// Run the untraced set twice ([`SELFCHECK_RUNS`] runs of `--seed` per
/// workload in each) and hold the two sets against the benchmark's own
/// bounds: medians within the bound, exact counts identical. The spread
/// of each metric is printed beside its bound, so a metric this host
/// cannot resolve shows.
pub fn selfcheck(args: &Args) -> bool {
    let mut ok = true;
    for name in NAMES {
        let sets: Vec<Vec<Child>> = (0..2)
            .map(|_| (0..SELFCHECK_RUNS).map(|_| spawn(name, false, args)).collect())
            .collect();
        ok &= sets.iter().flatten().all(|c| c.ok && c.failed == 0);
        println!("-- selfcheck {name}: {SELFCHECK_RUNS} runs per set");
        for m in checked_metrics(name) {
            let series = |set: &[Child]| -> Vec<f64> {
                set.iter().map(|c| c.metrics.get(m.name).copied().unwrap_or(f64::NAN)).collect()
            };
            let (a, b) = (series(&sets[0]), series(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let differ = m.worse_by(ma, mb).abs();
            // A metric a run did not report is NaN, which is within nothing.
            let within = differ <= m.bound;
            ok &= within;
            println!(
                "   {:<22} {ma:>14.6} vs {mb:>14.6} {:<9} differ {differ:>8.4}  bound {:<6} spread {:.4} / {:.4}  {}",
                m.name,
                m.unit,
                m.bound,
                spread(&a),
                spread(&b),
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
        let all: Vec<&Child> = sets.iter().flatten().collect();
        for exact in EXACT_NAMES {
            let bits = |c: &Child| c.metrics.get(exact).map(|v| v.to_bits());
            if let Some(other) = all.iter().find(|c| bits(c) != bits(all[0])) {
                ok = false;
                let (x, y) = (all[0].metrics.get(exact), other.metrics.get(exact));
                println!("   {exact}: {x:?} vs {y:?} differ between two runs of one seed");
            }
        }
    }
    println!("{}", if ok { "selfcheck passed" } else { "SELFCHECK FAILED" });
    ok
}
