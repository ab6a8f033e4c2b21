//! `gear_search_cold`: the traffic of a gear-schedule search — many
//! distinct small-problem, many-rank specs with per-rank gear vectors,
//! each through `Engine::run` on a cold memory cache.

use crate::check::Results;
use crate::gen::{gear_search_specs, LabeledSpec};
use crate::host::{self, LapClock};
use crate::span::Tracer;
use crate::workload::{Checked, Repeat, Verdict, Workload};
use psc_experiments::harness::cluster;
use psc_runner::Engine;

/// Distinct specs per repeat: 40 gear vectors for each point of the
/// kernel × ranks grid. One repeat takes about two seconds on the
/// reference host and has 26 latency samples beyond its p95.
pub const SPECS: usize = 520;

pub struct GearSearch {
    seed: u64,
    specs: Vec<LabeledSpec>,
    checked: Checked,
    sim_runs: u64,
}

impl GearSearch {
    pub fn new(seed: u64) -> Self {
        GearSearch { seed, specs: Vec::new(), checked: Checked::default(), sim_runs: 0 }
    }
}

impl Workload for GearSearch {
    fn setup(&mut self) {
        self.specs = gear_search_specs(self.seed, SPECS);
        // The warm-up is one whole discarded repeat: a cold cache keeps
        // every result, so the first pass pays for growing the heap to
        // the working set, which no later pass does.
        let e = Engine::serial(cluster());
        for ls in &self.specs {
            std::hint::black_box(e.run(&ls.spec));
        }
    }

    fn repeat(&mut self, t: &mut Tracer) -> Repeat {
        let e = Engine::serial(cluster());
        let mut laps = Vec::with_capacity(self.specs.len());
        let mut runs = Vec::with_capacity(self.specs.len());
        let mut clock = LapClock::start();
        for ls in &self.specs {
            t.begin("Engine::run", "runner");
            let run = e.run(&ls.spec);
            t.end();
            laps.push(clock.lap());
            runs.push(run);
        }
        let repeat = Repeat::of_laps(&laps, self.specs.len() as u64, host::live_heap_mib());

        // Off the clock; engine and results are dropped on return.
        let misses = e.cache_stats().misses;
        if misses != self.specs.len() as u64 {
            let n = self.specs.len();
            self.checked.failures.push(format!("{misses} simulations for {n} distinct specs"));
        }
        self.sim_runs = misses;
        let results: Results = self
            .specs
            .iter()
            .cloned()
            .zip(runs)
            .map(|(ls, run)| (ls.label.clone(), (ls, run)))
            .collect();
        self.checked.record(&results, true);
        repeat
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = std::mem::take(&mut self.checked).into_verdict(self.sim_runs);
        verdict.counts.lookups = self.specs.len() as u64;
        verdict
    }

    fn golden_seed(&self) -> Option<u64> {
        Some(self.seed)
    }
}
