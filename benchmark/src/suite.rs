//! The three `suite_*` workloads: the paper's figure campaign through
//! `psc_experiments::harness`, exactly as the figure binaries call it,
//! on a cold memory cache, a cold disk cache, and a filled disk cache.

use crate::check::Results;
use crate::gen::{LabeledSpec, GEARS};
use crate::host::{self, LapClock};
use crate::span::Tracer;
use crate::workload::{Checked, Repeat, Verdict, Workload};
use psc_analysis::curve::EnergyTimeCurve;
use psc_analysis::plot::to_csv;
use psc_experiments::harness::{
    cluster, decompositions, fig2_nodes, gear_profile, measure_curve, measure_upm, predicted_curve,
};
use psc_kernels::{Benchmark, ProblemClass};
use psc_model::predict::ClusterModel;
use psc_runner::{Engine, RunCache, RunSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

const CLASS: ProblemClass = ProblemClass::B;
const FIG3_NODES: [usize; 6] = [1, 2, 4, 6, 8, 10];
const FIG4_NODES: [usize; 4] = [1, 2, 4, 8];
const FIG5_TARGETS: [usize; 3] = [16, 25, 32];
/// The model is fitted on at most this many nodes (paper §4.1).
const FIT_MAX_NODES: usize = 9;

/// Which slice of the campaign, on which cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Figures 1–5 on a cold `RunCache::in_memory()`.
    ColdMem,
    /// Figures 1–2 on a cold `RunCache::with_disk(fresh dir)` — the
    /// default cache of every figure binary.
    DiskWrite,
    /// Figure 1, Table 1 and Figure 2 replayed by a fresh engine over
    /// the directory the write campaign filled.
    DiskRead,
}

/// One call into the harness, as a figure binary makes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// `measure_curve(bench, B, nodes)`.
    Curve(Benchmark, usize),
    /// `table1`: `measure_upm` (the curve's gear-1 run again).
    Upm(Benchmark),
    /// `fig5` for one kernel: decompositions up to 9 nodes, the gear
    /// profile, the fit, the hold-out check, and the extrapolation.
    Model(Benchmark),
}

impl Call {
    /// The specs this call asks the engine for, in request order.
    fn specs(self, class: ProblemClass) -> Vec<LabeledSpec> {
        let sweep = |b, n| (1..=GEARS).map(move |g| LabeledSpec::uniform(b, class, n, g));
        match self {
            Call::Curve(b, n) => sweep(b, n).collect(),
            Call::Upm(b) => vec![LabeledSpec::uniform(b, class, 1, 1)],
            Call::Model(b) => {
                let nodes = b.valid_nodes(FIT_MAX_NODES);
                let held_out = *nodes.last().expect("every kernel runs on one node");
                nodes
                    .iter()
                    .map(|&n| LabeledSpec::uniform(b, class, n, 1))
                    .chain(sweep(b, 1))
                    .chain([LabeledSpec::uniform(b, class, held_out, 1)])
                    .collect()
            }
        }
    }
}

fn figure_calls(fig: u8) -> Vec<Call> {
    let nas = Benchmark::NAS;
    match fig {
        1 => nas.iter().map(|&b| Call::Curve(b, 1)).collect(),
        2 => nas
            .iter()
            .flat_map(|&b| fig2_nodes(b).into_iter().map(move |n| Call::Curve(b, n)))
            .collect(),
        3 => FIG3_NODES.iter().map(|&n| Call::Curve(Benchmark::Jacobi, n)).collect(),
        4 => FIG4_NODES.iter().map(|&n| Call::Curve(Benchmark::Synthetic, n)).collect(),
        5 => nas
            .iter()
            .flat_map(|&b| {
                let measured = b.valid_nodes(FIT_MAX_NODES).into_iter().filter(|&n| n > 1);
                [Call::Model(b)].into_iter().chain(measured.map(move |n| Call::Curve(b, n)))
            })
            .collect(),
        _ => unreachable!("the paper has five figures"),
    }
}

/// The distinct specs of the whole figure campaign at `class`, in
/// figure order.
pub fn campaign_specs(class: ProblemClass) -> Vec<LabeledSpec> {
    let mut seen = std::collections::BTreeSet::new();
    (1..=5)
        .flat_map(figure_calls)
        .flat_map(|c| c.specs(class))
        .filter(|ls| seen.insert(ls.label.clone()))
        .collect()
}

fn table1_calls() -> Vec<Call> {
    Benchmark::NAS.iter().flat_map(|&b| [Call::Upm(b), Call::Curve(b, 1)]).collect()
}

/// What one pass over the calls produced, beyond cache traffic.
#[derive(Debug, Default)]
struct Pass {
    curves: BTreeMap<(KernelName, usize), EnergyTimeCurve>,
    predicted: BTreeMap<(KernelName, usize), EnergyTimeCurve>,
    /// Hold-out errors per kernel, as `fig5` computes them.
    holdout: BTreeMap<KernelName, (f64, f64)>,
    specs: u64,
    /// `(wall, cpu)` seconds of each call.
    laps: Vec<(f64, f64)>,
}

/// `Benchmark` has no `Ord`; its display name does.
type KernelName = &'static str;

pub struct Suite {
    part: Part,
    calls: Vec<Call>,
    /// Figures whose committed CSV this part regenerates.
    figures: Vec<u8>,
    /// Scratch directory for disk caches (inside the checkout).
    scratch: PathBuf,
    dirs_made: usize,
    /// `DiskRead`: the directory set-up filled.
    filled: Option<PathBuf>,
    disk_bytes: u64,
    /// The first repeat's curves and model figures (for the CSV gate).
    first: Option<Pass>,
    checked: Checked,
    sim_runs: u64,
    disk_hits: u64,
}

impl Suite {
    pub fn new(part: Part) -> Self {
        let (calls, figures): (Vec<Call>, Vec<u8>) = match part {
            Part::ColdMem => ((1..=5).flat_map(figure_calls).collect(), vec![1, 2, 3, 4, 5]),
            Part::DiskWrite => ([1, 2].into_iter().flat_map(figure_calls).collect(), vec![1, 2]),
            Part::DiskRead => {
                let mut c = figure_calls(1);
                c.extend(table1_calls());
                c.extend(figure_calls(2));
                (c, vec![1, 2])
            }
        };
        // The campaign is the paper's, in the order the figure binaries
        // run it: there is nothing for a seed to draw, and every seed
        // must regenerate the same committed CSVs.
        let scratch = crate::out_dir().join(format!("tmp-{}", std::process::id()));
        Suite {
            part,
            calls,
            figures,
            scratch,
            dirs_made: 0,
            filled: None,
            disk_bytes: 0,
            first: None,
            checked: Checked::default(),
            sim_runs: 0,
            disk_hits: 0,
        }
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.dirs_made += 1;
        let dir = self.scratch.join(format!("cache-{}", self.dirs_made));
        std::fs::create_dir_all(&dir).expect("creating scratch cache directory");
        dir
    }

    fn engine(&mut self) -> (Engine, Option<PathBuf>) {
        let base = Engine::serial(cluster());
        match self.part {
            Part::ColdMem => (base, None),
            Part::DiskWrite => {
                let dir = self.fresh_dir();
                (base.with_cache(RunCache::with_disk(&dir)), Some(dir))
            }
            Part::DiskRead => {
                let dir = self.filled.clone().expect("set-up fills the directory");
                (base.with_cache(RunCache::with_disk(dir)), None)
            }
        }
    }

    /// Distinct specs of the whole call list.
    fn distinct_specs(&self) -> BTreeMap<String, LabeledSpec> {
        self.calls.iter().flat_map(|c| c.specs(CLASS)).map(|ls| (ls.label.clone(), ls)).collect()
    }
}

/// Make the calls in order against `e`, recording a span and a lap per
/// call.
fn run_calls(e: &Engine, calls: &[Call], t: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut clock = LapClock::start();
    for &call in calls {
        pass.specs += call.specs(CLASS).len() as u64;
        match call {
            Call::Curve(b, n) => {
                t.begin("harness.measure_curve", "experiments");
                let curve = measure_curve(e, b, CLASS, n);
                t.end();
                pass.curves.insert((b.name(), n), curve);
            }
            Call::Upm(b) => {
                t.begin("harness.measure_upm", "experiments");
                std::hint::black_box(measure_upm(e, b, CLASS));
                t.end();
            }
            Call::Model(b) => {
                t.begin("harness.decompositions", "experiments");
                let decomps = decompositions(e, b, CLASS, FIT_MAX_NODES);
                t.end();
                t.begin("harness.gear_profile", "experiments");
                let profile = gear_profile(e, b, CLASS);
                t.end();
                t.begin("ClusterModel::fit", "model");
                let model = ClusterModel::fit(&decomps, profile);
                t.end();
                // Hold-out validation, as fig5 does it: refit without
                // the largest measured configuration and predict it.
                let held_out = decomps.last().expect("at least one decomposition");
                let train = &decomps[..decomps.len() - 1];
                t.begin("engine.run", "runner");
                let run = e.run(&RunSpec::uniform(b, CLASS, held_out.nodes, 1));
                t.end();
                let errs = if train.iter().filter(|d| d.nodes > 1).count() >= 2 {
                    t.begin("ClusterModel::fit+refined", "model");
                    let pred =
                        ClusterModel::fit(train, model.profile.clone()).refined(held_out.nodes, 1);
                    t.end();
                    (
                        (pred.time_s - run.time_s).abs() / run.time_s,
                        (pred.energy_j - run.energy_j).abs() / run.energy_j,
                    )
                } else {
                    (0.0, 0.0)
                };
                pass.holdout.insert(b.name(), errs);
                t.begin("harness.predicted_curve", "model");
                for m in FIG5_TARGETS {
                    pass.predicted.insert((b.name(), m), predicted_curve(&model, b, m, true));
                }
                t.end();
            }
        }
        pass.laps.push(clock.lap());
    }
    pass
}

/// The curves of one figure, in the order its binary writes them.
fn figure_csv(fig: u8, pass: &Pass) -> String {
    let measured = |b: Benchmark, n: usize| pass.curves[&(b.name(), n)].clone();
    let curves: Vec<EnergyTimeCurve> = match fig {
        1 => Benchmark::NAS.iter().map(|&b| measured(b, 1)).collect(),
        2 => Benchmark::NAS
            .iter()
            .flat_map(|&b| fig2_nodes(b).into_iter().map(move |n| (b, n)))
            .map(|(b, n)| measured(b, n))
            .collect(),
        // fig3 measures one node for the speedups but plots 2–10.
        3 => {
            FIG3_NODES.iter().filter(|&&n| n > 1).map(|&n| measured(Benchmark::Jacobi, n)).collect()
        }
        4 => FIG4_NODES.iter().map(|&n| measured(Benchmark::Synthetic, n)).collect(),
        5 => Benchmark::NAS
            .iter()
            .flat_map(|&b| {
                let m = b.valid_nodes(FIT_MAX_NODES).into_iter().filter(|&n| n > 1);
                m.map(move |n| measured(b, n))
                    .chain(
                        FIG5_TARGETS.iter().map(move |&t| pass.predicted[&(b.name(), t)].clone()),
                    )
                    .collect::<Vec<_>>()
            })
            .collect(),
        _ => unreachable!("the paper has five figures"),
    };
    to_csv(&curves)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Workload for Suite {
    fn setup(&mut self) {
        let mut off = Tracer::disabled();
        let warmup = figure_calls(1);
        match self.part {
            Part::ColdMem => {
                run_calls(&Engine::serial(cluster()), &warmup, &mut off);
            }
            Part::DiskWrite => {
                let (e, dir) = self.engine();
                run_calls(&e, &warmup, &mut off);
                let _ = std::fs::remove_dir_all(dir.expect("disk part has a directory"));
            }
            Part::DiskRead => {
                // Fill the directory the way `suite_disk_write` does,
                // then read Figure 1 back once as the warm-up.
                if let Some(before) = self.filled.take() {
                    let _ = std::fs::remove_dir_all(before);
                }
                let dir = self.fresh_dir();
                let writer = Engine::serial(cluster()).with_cache(RunCache::with_disk(&dir));
                let fill: Vec<Call> = [1, 2].into_iter().flat_map(figure_calls).collect();
                run_calls(&writer, &fill, &mut off);
                self.disk_bytes = dir_bytes(&dir);
                self.filled = Some(dir);
                let (reader, _) = self.engine();
                run_calls(&reader, &warmup, &mut off);
            }
        }
    }

    fn repeat(&mut self, t: &mut Tracer) -> Repeat {
        let (e, dir) = self.engine();
        let pass = run_calls(&e, &self.calls, t);
        let repeat = Repeat::of_laps(&pass.laps, pass.specs, host::live_heap_mib());

        // Off the clock: what did the engine do, and what did it answer?
        let stats = e.cache_stats();
        let results: Results = self
            .distinct_specs()
            .into_iter()
            .map(|(label, ls)| {
                let run = e.run(&ls.spec);
                (label, (ls, run))
            })
            .collect();
        if let Some(dir) = dir {
            self.disk_bytes = dir_bytes(&dir);
            let _ = std::fs::remove_dir_all(dir);
        }
        let expected_sims = if self.part == Part::DiskRead { 0 } else { results.len() as u64 };
        if stats.misses != expected_sims {
            self.checked.failures.push(format!(
                "{} simulations for {expected_sims} distinct cold specs",
                stats.misses
            ));
        }
        self.checked.record(&results, self.part != Part::DiskRead);
        if self.first.is_none() {
            self.sim_runs = stats.misses;
            self.disk_hits = stats.disk_hits;
            self.first = Some(pass);
        }
        repeat
    }

    fn verify(&mut self) -> Verdict {
        let pass = self.first.take().expect("verify follows at least one repeat");
        let mut verdict = std::mem::take(&mut self.checked).into_verdict(self.sim_runs);
        for &fig in &self.figures {
            let path = crate::repo_root().join("results").join(format!("fig{fig}.csv"));
            match std::fs::read_to_string(&path) {
                Ok(committed) if committed == figure_csv(fig, &pass) => {}
                Ok(_) => verdict.failures.push(format!(
                    "fig{fig}.csv: regenerated bytes differ from {}",
                    path.display()
                )),
                Err(e) => verdict
                    .failures
                    .push(format!("fig{fig}.csv: cannot read {}: {e}", path.display())),
            }
        }
        if self.part == Part::ColdMem {
            let worst = |f: fn(&(f64, f64)) -> f64| {
                100.0 * pass.holdout.values().map(f).fold(0.0, f64::max)
            };
            verdict.extras.insert("model_time_err_pct", worst(|e| e.0));
            verdict.extras.insert("model_energy_err_pct", worst(|e| e.1));
        } else {
            verdict.extras.insert("disk_mib", self.disk_bytes as f64 / (1024.0 * 1024.0));
        }
        verdict.counts.lookups = pass.specs;
        match self.part {
            Part::ColdMem => {}
            Part::DiskWrite => verdict.counts.disk_written = self.sim_runs,
            Part::DiskRead => verdict.counts.disk_read = self.disk_hits,
        }
        if let Some(dir) = self.filled.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let _ = std::fs::remove_dir_all(&self.scratch);
        verdict
    }

    fn golden_seed(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_matches_the_figure_binaries() {
        let distinct = |part| Suite::new(part).distinct_specs().len();
        // fig1 36 + fig2 96 + fig3 36 + fig4 24; fig5 adds nothing new
        // (its decompositions and curves are gear-1 and fig2 runs).
        assert_eq!(distinct(Part::ColdMem), 192);
        assert_eq!(distinct(Part::DiskWrite), 132);
        assert_eq!(distinct(Part::DiskRead), 132);
    }
}
