//! `warm_replay`: the pure key + memory-lookup path. Set-up fills a
//! memory cache; the timed region is a closed loop of `Engine::run`
//! calls that all hit, drawn Zipf(1.1) from the seed.

use crate::check::Results;
use crate::gen::{LabeledSpec, Lcg, Zipf};
use crate::host::{self, LapClock};
use crate::span::Tracer;
use crate::suite::campaign_specs;
use crate::workload::{Checked, Repeat, Verdict, Workload};
use psc_experiments::harness::cluster;
use psc_kernels::ProblemClass;
use psc_mpi::RunResult;
use psc_runner::Engine;
use std::sync::Arc;

/// `Engine::run` calls per repeat.
pub const CALLS: usize = 300_000;
/// Calls per timed operation and span: the lookups behind a re-render
/// of the paper's figures a few times over (the campaign asks for 352),
/// which is what a caller waits on. Long enough (≈ 16 ms) that a
/// scheduler stall of half a millisecond is 3 % of an operation and not
/// the 30 % it is of 250 calls, which made the tail a reading of the
/// host; a clock read per call would cost a visible share of a ~7 µs call.
pub const BATCH: usize = 2500;
const ZIPF_EXPONENT: f64 = 1.1;

pub struct WarmReplay {
    seed: u64,
    specs: Vec<LabeledSpec>,
    filled: Vec<Arc<RunResult>>,
    draws: Vec<u32>,
    engine: Option<Engine>,
    wrong: u64,
}

impl WarmReplay {
    pub fn new(seed: u64) -> Self {
        WarmReplay {
            seed,
            specs: Vec::new(),
            filled: Vec::new(),
            draws: Vec::new(),
            engine: None,
            wrong: 0,
        }
    }
}

impl Workload for WarmReplay {
    fn setup(&mut self) {
        // The spec set of the figure campaign — the keys a re-rendered
        // figure, `summary` or a deduplicating server looks up — at
        // Test class: the lookup path never touches the result, so the
        // class changes only what the fill costs.
        self.specs = campaign_specs(ProblemClass::Test);
        let e = Engine::serial(cluster());
        self.filled = self.specs.iter().map(|ls| e.run(&ls.spec)).collect();
        let mut rng = Lcg::new(self.seed);
        let zipf = Zipf::new(self.specs.len(), ZIPF_EXPONENT);
        self.draws = (0..CALLS).map(|_| zipf.sample(&mut rng) as u32).collect();
        // Warm-up: one batch, so the first timed batch is not the first
        // hit the engine ever served.
        for &i in &self.draws[..BATCH] {
            std::hint::black_box(e.run(&self.specs[i as usize].spec));
        }
        e.reset_cache_stats();
        self.engine = Some(e);
    }

    fn repeat(&mut self, t: &mut Tracer) -> Repeat {
        let e = self.engine.as_ref().expect("set-up builds the engine");
        let before = e.cache_stats();
        let mut laps = Vec::with_capacity(CALLS / BATCH);
        let mut wrong = 0u64;
        let mut clock = LapClock::start();
        for batch in self.draws.chunks(BATCH) {
            t.begin("Engine::run ×2500", "runner");
            for &i in batch {
                let run = e.run(&self.specs[i as usize].spec);
                wrong += u64::from(!Arc::ptr_eq(&run, &self.filled[i as usize]));
            }
            t.end();
            laps.push(clock.lap());
        }
        let repeat = Repeat::of_laps(&laps, CALLS as u64, host::live_heap_mib());
        let after = e.cache_stats();
        // Every call must be a memory hit on the filled entry.
        self.wrong += wrong + (after.misses - before.misses);
        repeat
    }

    fn verify(&mut self) -> Verdict {
        let results: Results = self
            .specs
            .iter()
            .cloned()
            .zip(self.filled.iter().cloned())
            .map(|(ls, run)| (ls.label.clone(), (ls, run)))
            .collect();
        let mut checked = Checked::default();
        checked.record(&results, false);
        if self.wrong > 0 {
            checked.failures.push(format!("{} calls missed or returned another entry", self.wrong));
        }
        let mut verdict = checked.into_verdict(0);
        verdict.counts.lookups = CALLS as u64;
        verdict
    }

    fn golden_seed(&self) -> Option<u64> {
        None
    }
}
