//! What every workload hands the reporter, and the loop that times it.

use crate::check::{answers, trace_events, Answer, Golden, Physics, Results};
use crate::host;
use crate::span::Tracer;
use psc_experiments::harness::class_label;
use std::collections::BTreeMap;
use std::path::Path;

/// The six workloads; names are final (BENCHMARK.json, README.md).
pub const NAMES: [&str; 6] = [
    "suite_cold_mem",
    "suite_disk_write",
    "suite_disk_read",
    "gear_search_cold",
    "warm_replay",
    "serve_mixed",
];

/// Timed repeats a run makes at the least, whatever `--seconds` says: a
/// median of fewer is a single reading. A traced run makes at least
/// [`MIN_TRACED_PAIRS`] untraced and as many traced ones instead.
pub const MIN_REPEATS: usize = 3;
pub const MIN_TRACED_PAIRS: usize = 2;

/// Set-ups a run makes; `setup_s` is their median, so that one slow
/// start does not read as work moved into set-up.
pub const SETUPS: usize = 3;

/// One timed repeat (one pass over the workload's inputs).
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Wall and process CPU seconds of the whole pass.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Specs answered (hits included).
    pub specs: u64,
    /// Wall time of every operation a caller waited on, in the order
    /// made: a harness call, an `Engine::run`, a re-render's batch of
    /// lookups, a served frame. Every repeat makes the same operations.
    pub latencies_ms: Vec<f64>,
    /// Live heap when the last answer of the pass was out, before the
    /// engine is dropped and before any verification allocates, MiB.
    pub heap_held_mib: f64,
}

impl Repeat {
    /// A single-threaded pass made of consecutive operations, each
    /// timed by a lap `(wall, cpu)` of one [`host::LapClock`]: the laps
    /// add up to the pass and each lap's wall time is a latency.
    pub fn of_laps(laps: &[(f64, f64)], specs: u64, heap_held_mib: f64) -> Self {
        Repeat {
            wall_s: laps.iter().map(|l| l.0).sum(),
            cpu_s: laps.iter().map(|l| l.1).sum(),
            specs,
            latencies_ms: laps.iter().map(|l| l.0 * 1e3).collect(),
            heap_held_mib,
        }
    }
}

/// Work one repeat does, counted at the layer boundaries. The budget
/// multiplies these by the unit costs of the per-layer measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Simulations executed, by `(kernel name, class)`.
    pub sims: BTreeMap<(String, &'static str), u64>,
    /// Rank coroutines spawned (Σ nodes over simulations).
    pub ranks: u64,
    /// Trace events recorded (Σ over simulations).
    pub trace_events: u64,
    /// Wattmeter samples integrated (Σ ranks × ⌈T·30 Hz⌉).
    pub meter_samples: u64,
    /// Power-trace segments integrated exactly.
    pub power_segments: u64,
    /// Engine lookups (one per spec requested).
    pub lookups: u64,
    /// Disk cache entries written / read back.
    pub disk_written: u64,
    pub disk_read: u64,
    /// Serve frames and the specs they carried.
    pub frames: u64,
    pub served_specs: u64,
}

impl Counts {
    /// Account the simulation of every result in `results`.
    pub fn add_simulations(&mut self, results: &Results, sample_hz: f64) {
        for (ls, run) in results.values() {
            let class = class_label(ls.spec.class);
            *self.sims.entry((ls.spec.bench.name().to_string(), class)).or_insert(0) += 1;
            self.ranks += run.ranks.len() as u64;
            self.trace_events += trace_events(run);
            for r in &run.ranks {
                self.meter_samples += (r.power.end_s() * sample_hz).ceil() as u64;
                self.power_segments += r.power.segments().len() as u64;
            }
        }
    }
}

/// The checked answers of a workload. The first repeat's results are
/// checked against the physical envelope, digested and counted; every
/// later repeat must digest identically. The results themselves are
/// never kept, so they die with the repeat's engine.
#[derive(Debug, Default)]
pub struct Checked {
    pub answers: Option<Vec<Answer>>,
    pub counts: Counts,
    pub failures: Vec<String>,
}

impl Checked {
    /// Take in the distinct results of one repeat; `simulated` says
    /// whether the repeat simulated them (and the budget should count
    /// them) or answered from a cache.
    pub fn record(&mut self, results: &Results, simulated: bool) {
        let now = answers(results);
        match &self.answers {
            None => {
                let cluster = psc_experiments::harness::cluster();
                self.failures.extend(Physics::of(&cluster).check(results));
                if simulated {
                    self.counts.add_simulations(results, cluster.wattmeter.sample_hz);
                }
                self.answers = Some(now);
            }
            Some(first) if *first != now => {
                self.failures.push("a later repeat answered differently from the first".into());
            }
            Some(_) => {}
        }
    }

    /// Hand over what was learned, as the start of a [`Verdict`].
    pub fn into_verdict(self, sim_runs: u64) -> Verdict {
        Verdict {
            answers: self.answers.expect("verify follows at least one repeat"),
            sim_runs,
            failures: self.failures,
            extras: BTreeMap::new(),
            counts: self.counts,
        }
    }
}

/// What the off-clock verification of a workload found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// The distinct results the workload answered with (first repeat;
    /// later repeats are checked bit-identical to it), in label order.
    pub answers: Vec<Answer>,
    /// Simulations one repeat executes (exact).
    pub sim_runs: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Workload-specific exact figures (`disk_mib`, `serve.executed`, …).
    pub extras: BTreeMap<&'static str, f64>,
    pub counts: Counts,
}

pub trait Workload {
    /// Build inputs, engines and servers from nothing, and warm up on a
    /// fixed slice of the work. Called [`SETUPS`] times; each call
    /// replaces what the one before built.
    fn setup(&mut self);
    /// One timed repeat. Cold workloads build fresh engines inside, and
    /// let go of engine and results before they return.
    fn repeat(&mut self, tracer: &mut Tracer) -> Repeat;
    /// Off-clock, after the last repeat: check every answer.
    fn verify(&mut self) -> Verdict;
    /// `None`: the results do not depend on the seed, so one golden
    /// file serves every seed. `Some(seed)`: they do, and the golden
    /// file is the one of that seed (only seed 42 is committed).
    fn golden_seed(&self) -> Option<u64>;
}

/// The seed whose golden files are committed for the seeded workloads.
pub const GOLDEN_SEED: u64 = 42;

/// Everything measured about one workload in one process.
#[derive(Debug)]
pub struct Measured {
    pub name: &'static str,
    /// Wall seconds of each of the [`SETUPS`] set-ups.
    pub setups_s: Vec<f64>,
    /// Untraced timed repeats — the only source of end-to-end numbers.
    pub repeats: Vec<Repeat>,
    /// Traced repeats (`--trace 1` only), interleaved with the untraced.
    pub traced: Vec<Repeat>,
    pub spans: Vec<crate::span::Span>,
    pub verdict: Verdict,
    /// `VmHWM` of this process after the last repeat, MiB.
    pub peak_rss_mib: f64,
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        self.repeats.iter().chain(&self.traced).map(|r| r.specs).sum::<u64>().max(1)
    }

    pub fn failed(&self) -> u64 {
        (self.verdict.failures.len() as u64).min(self.attempted())
    }
}

/// Hold `verdict` against the golden file at `path`: one line per
/// failure. Only [`GOLDEN_SEED`] is committed for the seeded workloads,
/// so any other seed stands on the physical checks alone; everywhere
/// else a file that cannot be read is a failure, not a skipped check.
fn golden_failures(
    path: &Path,
    seed: Option<u64>,
    verdict: &Verdict,
    corrupt: bool,
) -> Vec<String> {
    match Golden::load(path) {
        Ok(mut golden) => {
            if corrupt {
                golden.corrupt_one();
            }
            golden.check(&verdict.answers, &verdict.extras)
        }
        Err(_) if seed.is_some_and(|s| s != GOLDEN_SEED) => Vec::new(),
        Err(e) => vec![format!("golden file {}: {e}", path.display())],
    }
}

/// Time a workload: [`SETUPS`] set-ups, then repeats until `seconds`
/// have been measured and at least [`MIN_REPEATS`] made, then
/// verification. With `trace`, traced and untraced repeats alternate
/// inside the same `seconds`, so that their ratio is taken under the
/// same host conditions.
pub fn measure(name: &'static str, workload: &mut dyn Workload, args: &crate::Args) -> Measured {
    let (seconds, trace) = (args.seconds, args.trace);
    let setups_s = (0..SETUPS)
        .map(|_| {
            let t0 = host::now();
            workload.setup();
            host::since(t0)
        })
        .collect();

    let mut tracer = Tracer::new(trace, host::now(), 0);
    let mut off = Tracer::disabled();
    let (mut repeats, mut traced) = (Vec::new(), Vec::new());
    let timed = host::now();
    let at_least = if trace { MIN_TRACED_PAIRS } else { MIN_REPEATS };
    while repeats.len() < at_least || host::since(timed) < seconds {
        // `true` = a traced repeat. The second of a pair runs on the heap
        // the first left behind, so pairs alternate which goes first.
        let turns: &[bool] = match (trace, repeats.len() % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_turn in turns {
            if traced_turn {
                tracer.begin("repeat", "workload");
                let r = workload.repeat(&mut tracer);
                tracer.end();
                traced.push(r);
            } else {
                repeats.push(workload.repeat(&mut off));
            }
        }
    }

    // Resident memory of set-up and the timed repeats; verification
    // (golden files, the serial reference engine) is the benchmark's own.
    let peak_rss_mib = host::peak_rss_mib();
    let mut verdict = workload.verify();
    let seed = workload.golden_seed();
    let path = Golden::path_for(name, seed);
    if args.bless {
        Golden::bless(&path, &verdict.answers, &verdict.extras).expect("writing golden digests");
    } else {
        let corrupt = args.inject.as_deref() == Some("golden");
        let bad = golden_failures(&path, seed, &verdict, corrupt);
        verdict.failures.extend(bad);
    }
    Measured { name, setups_s, repeats, traced, spans: tracer.into_spans(), verdict, peak_rss_mib }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_golden_file_fails_unless_the_seed_has_none_committed() {
        let missing = Path::new("golden/no-such-workload.txt");
        let verdict = Verdict::default();
        assert_eq!(golden_failures(missing, None, &verdict, false).len(), 1);
        assert_eq!(golden_failures(missing, Some(GOLDEN_SEED), &verdict, false).len(), 1);
        assert!(golden_failures(missing, Some(7), &verdict, false).is_empty());
    }
}
