//! The correctness gate: seed-independent physical checks on every
//! result, and golden digests for the results of seed 42.
//!
//! A benchmark that times wrong answers measures nothing, so every
//! violated check is a *failed operation* and fails the command.

use crate::gen::LabeledSpec;
use crate::metrics::{EndToEnd, END_TO_END_SOME};
use psc_mpi::{Cluster, GearSelection, RunResult};
use psc_runner::cache::fnv1a64;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Relative slack for comparisons of sums of floats.
const EPS: f64 = 1e-9;

/// The physical envelope of a cluster's nodes.
#[derive(Debug, Clone)]
pub struct Physics {
    /// Lowest power a plugged-in node can draw (idle, slowest gear), W.
    idle_min_w: f64,
    /// Highest power a node can draw (CPU-bound, fastest gear), W.
    busy_max_w: f64,
    /// Clock frequency per gear, fastest first, Hz.
    freq_hz: Vec<f64>,
    /// Wattmeter sampling period, virtual seconds.
    sample_dt_s: f64,
}

impl Physics {
    pub fn of(cluster: &Cluster) -> Self {
        let node = &cluster.node;
        let gears: Vec<_> = node.gears.iter().collect();
        Physics {
            idle_min_w: gears.iter().map(|&g| node.idle_power_w(g)).fold(f64::INFINITY, f64::min),
            busy_max_w: gears.iter().map(|&g| node.power.busy_w(g)).fold(0.0, f64::max),
            freq_hz: gears.iter().map(|g| g.freq_hz).collect(),
            sample_dt_s: 1.0 / cluster.wattmeter.sample_hz,
        }
    }

    /// Every physical check on a result set: one line per violation.
    pub fn check(&self, results: &Results) -> Vec<String> {
        let mut bad = self.check_gear_neighbours(results);
        for (ls, run) in results.values() {
            bad.extend(self.check_run(ls, run));
        }
        bad
    }

    /// Checks that need only the one run. Returns one line per violation.
    fn check_run(&self, ls: &LabeledSpec, run: &RunResult) -> Vec<String> {
        let mut bad = Vec::new();
        let n = ls.spec.nodes as f64;
        if !(run.time_s.is_finite() && run.time_s > 0.0) {
            bad.push(format!("{}: non-positive time {}", ls.label, run.time_s));
            return bad;
        }
        if run.ranks.len() != ls.spec.nodes {
            bad.push(format!("{}: {} ranks for {} nodes", ls.label, run.ranks.len(), n));
        }
        // Every node is plugged in for the whole run and draws between
        // idle power at the slowest gear and busy power at the fastest.
        let (lo, hi) = (self.idle_min_w * run.time_s * n, self.busy_max_w * run.time_s * n);
        if run.energy_j < lo * (1.0 - EPS) || run.energy_j > hi * (1.0 + EPS) {
            bad.push(format!("{}: energy {} J outside [{lo}, {hi}]", ls.label, run.energy_j));
        }
        // The 30 Hz wattmeter can only misread sampling intervals in
        // which the power level changes, by at most the power range
        // times the interval. (A faulted rig adds noise on purpose.)
        let rig_faulted = ls.spec.faults.as_ref().is_some_and(|f| f.wattmeter.is_some());
        if !rig_faulted {
            let intervals: f64 = run
                .ranks
                .iter()
                .map(|r| {
                    let samples = (r.power.end_s() / self.sample_dt_s).ceil();
                    samples.min(r.power.segments().len() as f64)
                })
                .sum();
            let bound = intervals * self.sample_dt_s * (self.busy_max_w - self.idle_min_w);
            let err = (run.measured_energy_j - run.energy_j).abs();
            if err > bound + EPS * run.energy_j {
                bad.push(format!("{}: sampled energy off by {err} J > bound {bound}", ls.label));
            }
        }
        bad
    }

    /// The paper's slowdown bound between uniform-gear neighbours of
    /// one configuration: `1 ≤ T(g+1)/T(g) ≤ f(g)/f(g+1)`. Applied to
    /// every such pair present in `results`.
    fn check_gear_neighbours(&self, results: &Results) -> Vec<String> {
        let mut curves: BTreeMap<String, BTreeMap<usize, f64>> = BTreeMap::new();
        for (ls, run) in results.values() {
            if let (GearSelection::Uniform(g), None, None) =
                (&ls.spec.gears, &ls.spec.faults, &ls.spec.policy)
            {
                let config =
                    format!("{}.{:?}.n{}", ls.spec.bench.name(), ls.spec.class, ls.spec.nodes);
                curves.entry(config).or_default().insert(*g, run.time_s);
            }
        }
        let mut bad = Vec::new();
        for (config, by_gear) in &curves {
            for (&g, &t) in by_gear {
                let Some(&t_next) = by_gear.get(&(g + 1)) else { continue };
                let ratio = t_next / t;
                let limit = self.freq_hz[g - 1] / self.freq_hz[g];
                if ratio < 1.0 - EPS || ratio > limit * (1.0 + EPS) {
                    bad.push(format!(
                        "{config}: T({})/T({g}) = {ratio} outside [1, {limit}]",
                        g + 1
                    ));
                }
            }
        }
        bad
    }
}

/// Distinct results of one workload, by label — held only while they
/// are checked; what outlives the check is an [`Answer`] per result.
pub type Results = BTreeMap<String, (LabeledSpec, Arc<RunResult>)>;

/// What the ledger keeps of a checked result. The results themselves
/// are dropped with their engine, so that a workload's peak memory is
/// the program's and not the benchmark's.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub label: String,
    pub digest: u64,
    pub time_s: f64,
    pub energy_j: f64,
}

/// Digest every result, in label order.
pub fn answers(results: &Results) -> Vec<Answer> {
    results
        .iter()
        .map(|(label, (_, run))| Answer {
            label: label.clone(),
            digest: digest(run),
            time_s: run.time_s,
            energy_j: run.energy_j,
        })
        .collect()
}

/// A digest of everything a figure or a reply is computed from: the
/// three headline numbers bit-for-bit plus the sizes of the traces.
pub fn digest(run: &RunResult) -> u64 {
    let events: usize = run.ranks.iter().map(|r| r.trace.events().len()).sum();
    let segments: usize = run.ranks.iter().map(|r| r.power.segments().len()).sum();
    fnv1a64(
        format!(
            "{:016x}{:016x}{:016x}|{events}|{segments}",
            run.time_s.to_bits(),
            run.energy_j.to_bits(),
            run.measured_energy_j.to_bits()
        )
        .as_bytes(),
    )
}

/// Sum of `RankTrace::events().len()` over the run — the simulator's
/// unit of work.
pub fn trace_events(run: &RunResult) -> u64 {
    run.ranks.iter().map(|r| r.trace.events().len() as u64).sum()
}

/// The committed answers of one workload: a `label-hash digest` line
/// per result, and a `metric name value` line per exact end-to-end
/// metric only this workload has (`disk_mib`, the model errors), which
/// no driver-side bound can hold.
#[derive(Debug, Default)]
pub struct Golden {
    path: PathBuf,
    digests: BTreeMap<u64, u64>,
    metrics: BTreeMap<String, f64>,
}

/// The exact metrics of `extras` that the golden file holds.
fn baselined<'a>(
    extras: &'a BTreeMap<&'static str, f64>,
) -> impl Iterator<Item = (&'static EndToEnd, f64)> + 'a {
    END_TO_END_SOME.iter().filter_map(|(m, _)| Some((m, *extras.get(m.name)?)))
}

impl Golden {
    /// `golden/<workload>.txt` for workloads whose results do not
    /// depend on the seed, `golden/<workload>.seed<N>.txt` otherwise.
    pub fn path_for(workload: &str, seed: Option<u64>) -> PathBuf {
        let file = match seed {
            None => format!("{workload}.txt"),
            Some(s) => format!("{workload}.seed{s}.txt"),
        };
        crate::package_dir().join("golden").join(file)
    }

    /// Load the golden file. An unreadable file is the caller's to
    /// judge: only seed 42 is committed for the seeded workloads.
    pub fn load(path: &Path) -> std::io::Result<Golden> {
        let text = std::fs::read_to_string(path)?;
        let mut golden = Golden { path: path.to_path_buf(), ..Golden::default() };
        for line in text.lines() {
            let words: Vec<&str> = line.split(' ').collect();
            let hex = |word| u64::from_str_radix(word, 16);
            let entry = match words[..] {
                ["metric", name, value] => value.parse().ok().map(|v| {
                    golden.metrics.insert(name.to_string(), v);
                }),
                [label, digest] => hex(label).ok().zip(hex(digest).ok()).map(|(k, d)| {
                    golden.digests.insert(k, d);
                }),
                _ => None,
            };
            if entry.is_none() {
                let bad = format!("malformed golden line {line:?}");
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, bad));
            }
        }
        Ok(golden)
    }

    /// The `--inject golden` test hook: damage one committed digest in
    /// memory, which the gate must then report.
    pub fn corrupt_one(&mut self) {
        if let Some(d) = self.digests.values_mut().next() {
            *d ^= 1;
        }
    }

    /// One line per answer whose digest is missing or differs, per
    /// committed digest no answer matched, and per exact metric that is
    /// missing or worse than committed by more than its bound.
    pub fn check(&self, answers: &[Answer], extras: &BTreeMap<&'static str, f64>) -> Vec<String> {
        let file = self.path.display();
        let mut bad = Vec::new();
        for Answer { label, digest, .. } in answers {
            match self.digests.get(&fnv1a64(label.as_bytes())) {
                Some(d) if d == digest => {}
                Some(_) => bad.push(format!("{label}: differs from {file}")),
                None => bad.push(format!("{label}: not in {file}")),
            }
        }
        if answers.len() != self.digests.len() {
            bad.push(format!(
                "{} answers for the {} digests of {file}",
                answers.len(),
                self.digests.len()
            ));
        }
        for (m, now) in baselined(extras) {
            match self.metrics.get(m.name) {
                Some(&committed) if m.worse_by(committed, now) <= m.bound => {}
                Some(committed) => {
                    bad.push(format!("{}: {now} against {committed} in {file}", m.name))
                }
                None => bad.push(format!("{}: not in {file}", m.name)),
            }
        }
        bad
    }

    /// `--bless`: rewrite the golden file from this run's answers.
    pub fn bless(
        path: &Path,
        answers: &[Answer],
        extras: &BTreeMap<&'static str, f64>,
    ) -> std::io::Result<()> {
        let lines: BTreeMap<u64, u64> =
            answers.iter().map(|a| (fnv1a64(a.label.as_bytes()), a.digest)).collect();
        let mut text: String = lines.iter().map(|(k, d)| format!("{k:016x} {d:016x}\n")).collect();
        for (m, value) in baselined(extras) {
            // `{}` prints the shortest decimal that parses back exactly.
            text.push_str(&format!("metric {} {value}\n", m.name));
        }
        std::fs::create_dir_all(path.parent().expect("golden file has a directory"))?;
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_kernels::{Benchmark, ProblemClass};
    use psc_runner::Engine;

    fn results_of(engine: &Engine, specs: Vec<LabeledSpec>) -> Results {
        specs
            .into_iter()
            .map(|ls| {
                let run = engine.run(&ls.spec);
                (ls.label.clone(), (ls, run))
            })
            .collect()
    }

    #[test]
    fn real_runs_pass_and_doctored_runs_fail_the_physical_checks() {
        let cluster = Cluster::athlon_fast_ethernet();
        let physics = Physics::of(&cluster);
        let engine = Engine::serial(cluster);
        let specs: Vec<_> = (1..=6)
            .map(|g| LabeledSpec::uniform(Benchmark::Cg, ProblemClass::Test, 4, g))
            .collect();
        let results = results_of(&engine, specs);
        assert_eq!(physics.check(&results), Vec::<String>::new());

        // Doctor one run: halve its energy, stretch a neighbour's time.
        let mut doctored = results.clone();
        let (ls, run) = doctored.get_mut("CG.test.n4.g2").unwrap();
        let mut broken = (**run).clone();
        broken.energy_j *= 0.1;
        broken.time_s *= 3.0;
        *run = Arc::new(broken);
        assert!(!physics.check_run(ls, run).is_empty());
        assert!(!physics.check_gear_neighbours(&doctored).is_empty());
    }

    #[test]
    fn golden_gate_bites_on_a_corrupted_digest() {
        let engine = Engine::serial(Cluster::athlon_fast_ethernet());
        let results = results_of(
            &engine,
            vec![
                LabeledSpec::uniform(Benchmark::Ep, ProblemClass::Test, 1, 1),
                LabeledSpec::uniform(Benchmark::Ep, ProblemClass::Test, 2, 3),
            ],
        );
        let path = crate::out_dir().join(format!("golden-test-{}.txt", std::process::id()));
        let extras = BTreeMap::from([("disk_mib", 100.0), ("serve.executed", 2.0)]);
        Golden::bless(&path, &answers(&results), &extras).unwrap();
        let mut golden = Golden::load(&path).unwrap();
        assert!(golden.check(&answers(&results), &extras).is_empty());
        golden.corrupt_one();
        assert_eq!(golden.check(&answers(&results), &extras).len(), 1);

        // A result the file has never seen is a failure, and so is the
        // count; so is a committed digest that nothing answered.
        let golden = Golden::load(&path).unwrap();
        let mut more = results.clone();
        let ls = LabeledSpec::uniform(Benchmark::Ep, ProblemClass::Test, 4, 2);
        more.insert(ls.label.clone(), (ls.clone(), engine.run(&ls.spec)));
        assert_eq!(golden.check(&answers(&more), &extras).len(), 2);
        assert_eq!(golden.check(&answers(&results)[..1], &extras).len(), 1);

        // An exact metric may improve, or worsen within its bound (1 %
        // for `disk_mib`); beyond it, or missing from the file, it fails.
        let disk = |mib| BTreeMap::from([("disk_mib", mib)]);
        assert!(golden.check(&answers(&results), &disk(50.0)).is_empty());
        assert!(golden.check(&answers(&results), &disk(100.9)).is_empty());
        assert_eq!(golden.check(&answers(&results), &disk(101.1)).len(), 1);
        let errs = BTreeMap::from([("model_time_err_pct", 1.0)]);
        assert_eq!(golden.check(&answers(&results), &errs).len(), 1);
        std::fs::remove_file(path).unwrap();
    }
}
