//! Seeded input generation. Everything a workload feeds the program is
//! a pure function of `--seed`; the program under test receives only
//! the generated specs, never the seed.
//!
//! The *shape* of each input set (which kernels, classes and rank
//! counts, how many faulted or policy-driven specs) is fixed, and the
//! seed draws the gear vectors, fault seeds and request order. Host
//! cost depends on the shape, so runs of different seeds do the same
//! amount of work on different inputs — which is what lets the ledger
//! compare medians across seeds.

use psc_experiments::harness::class_label;
use psc_faults::{FaultPlan, DEFAULT_NOISE_LEVEL};
use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::GearSelection;
use psc_policy::PolicySpec;
use psc_runner::RunSpec;
use std::collections::BTreeSet;

/// Gears of the Athlon-64 node every workload runs on.
pub const GEARS: usize = 6;

/// Seeded LCG (Numerical Recipes constants, high bits out).
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        // One scramble step so nearby seeds do not start nearby.
        let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() % (1 << 24)) as f64 / (1u64 << 24) as f64
    }
}

/// Precomputed Zipf CDF over `n` ranks with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`, rank 0 the most popular.
    pub fn sample(&self, rng: &mut Lcg) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A spec plus the benchmark's own name for it. Golden digests are
/// keyed by the label, not by the engine's cache key, so a cache-schema
/// bump in the program does not orphan the goldens.
#[derive(Debug, Clone)]
pub struct LabeledSpec {
    pub label: String,
    pub spec: RunSpec,
}

impl LabeledSpec {
    pub fn new(spec: RunSpec) -> Self {
        let class = class_label(spec.class);
        // By resolved gears, as the engine keys them: a per-rank vector
        // of one repeated gear is the same run as the uniform gear.
        let resolved = spec.resolved_gears();
        let gears = if resolved.iter().all(|g| *g == resolved[0]) {
            resolved[0].to_string()
        } else {
            resolved.iter().map(|g| g.to_string()).collect::<Vec<_>>().join("-")
        };
        let mut label = format!("{}.{class}.n{}.g{gears}", spec.bench.name(), spec.nodes);
        if let Some(f) = &spec.faults {
            label.push_str(&format!(".f{}", f.seed));
        }
        if let Some(p) = &spec.policy {
            label.push_str(&format!(".p{}", p.shorthand()));
        }
        LabeledSpec { label, spec }
    }

    pub fn uniform(bench: Benchmark, class: ProblemClass, nodes: usize, gear: usize) -> Self {
        LabeledSpec::new(RunSpec::uniform(bench, class, nodes, gear))
    }

    /// The spec as a `psc-serve` wire fragment. Faults travel as
    /// `fault_seed` (the protocol's default-noise shorthand) and
    /// policies as their CLI shorthand, which is how scripted callers
    /// write them.
    pub fn wire(&self) -> String {
        let s = &self.spec;
        let class = class_label(s.class);
        let gears = match &s.gears {
            GearSelection::Uniform(g) => g.to_string(),
            GearSelection::PerRank(v) => {
                format!("[{}]", v.iter().map(|g| g.to_string()).collect::<Vec<_>>().join(","))
            }
        };
        let mut w = format!(
            r#"{{"bench":"{}","class":"{class}","nodes":{},"gears":{gears}"#,
            s.bench.name(),
            s.nodes
        );
        if let Some(f) = &s.faults {
            w.push_str(&format!(r#","fault_seed":{}"#, f.seed));
        }
        if let Some(p) = &s.policy {
            w.push_str(&format!(r#","policy":"{}""#, p.shorthand()));
        }
        w.push('}');
        w
    }
}

fn per_rank_gears(rng: &mut Lcg, nodes: usize) -> GearSelection {
    GearSelection::PerRank((0..nodes).map(|_| 1 + rng.below(GEARS)).collect())
}

/// The `(kernel, ranks)` grid of a gear-schedule search: small
/// problems, many ranks, where supported (powers of two for LU/CG/MG,
/// squares for SP/BT).
pub const GEAR_SEARCH_GRID: [(Benchmark, usize); 13] = [
    (Benchmark::Lu, 16),
    (Benchmark::Cg, 16),
    (Benchmark::Mg, 16),
    (Benchmark::Sp, 16),
    (Benchmark::Bt, 16),
    (Benchmark::Jacobi, 16),
    (Benchmark::Sp, 25),
    (Benchmark::Bt, 25),
    (Benchmark::Jacobi, 25),
    (Benchmark::Lu, 32),
    (Benchmark::Cg, 32),
    (Benchmark::Mg, 32),
    (Benchmark::Jacobi, 32),
];

/// `count` distinct Test-class specs with per-rank gear vectors, cycling
/// through [`GEAR_SEARCH_GRID`] so every seed does the same mix.
pub fn gear_search_specs(seed: u64, count: usize) -> Vec<LabeledSpec> {
    let mut rng = Lcg::new(seed);
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    let mut i = 0;
    while out.len() < count {
        let (bench, nodes) = GEAR_SEARCH_GRID[i % GEAR_SEARCH_GRID.len()];
        i += 1;
        let mut spec = RunSpec::uniform(bench, ProblemClass::Test, nodes, 1);
        spec.gears = per_rank_gears(&mut rng, nodes);
        let ls = LabeledSpec::new(spec);
        if seen.insert(ls.label.clone()) {
            out.push(ls);
        }
    }
    out
}

/// Kernels the serve universe draws from.
const SERVE_KERNELS: [Benchmark; 8] = [
    Benchmark::Cg,
    Benchmark::Ep,
    Benchmark::Mg,
    Benchmark::Lu,
    Benchmark::Bt,
    Benchmark::Sp,
    Benchmark::Jacobi,
    Benchmark::Synthetic,
];

/// Rank counts of the serve universe by block of eight kernels: mostly
/// 4–16 ranks, a tenth 2 ranks (only 36 gear vectors exist there).
const SERVE_NODES: [usize; 10] = [4, 8, 16, 4, 8, 16, 4, 8, 16, 2];

/// Kernel, class and rank count of the spec at popularity rank `i`.
fn serve_shape(i: usize) -> (Benchmark, ProblemClass, usize) {
    let bench = SERVE_KERNELS[i % SERVE_KERNELS.len()];
    let block = i / SERVE_KERNELS.len();
    // One block in fifty is single-rank: six gears per kernel is all
    // the variety one rank has.
    let mut nodes = if block % 50 == 49 { 1 } else { SERVE_NODES[block % SERVE_NODES.len()] };
    let class = if i % 10 == 7 { ProblemClass::B } else { ProblemClass::Test };
    if class == ProblemClass::B {
        nodes = nodes.min(4);
    }
    if matches!(bench, Benchmark::Bt | Benchmark::Sp) {
        nodes = match nodes {
            2 => 4,
            8 => 9,
            n => n,
        };
    }
    (bench, class, nodes)
}

/// The universe `serve_mixed` draws frames from: `count` distinct
/// specs, popularity rank = index. The shape is fixed by the rank — one
/// in ten is class B on at most 4 ranks (the expensive misses that keep
/// arriving all run), the rest Test class on 1–16 ranks; one in twenty
/// carries a noise fault plan and one in twenty a phase-adaptive policy,
/// so the psc-faults and psc-policy cache-key tails are exercised under
/// concurrency — and the seed draws the gear vectors, fault seeds and
/// slowdown limits, so every seed costs the same to simulate.
pub fn serve_universe(seed: u64, count: usize) -> Vec<LabeledSpec> {
    let mut rng = Lcg::new(seed ^ 0x5e17e);
    let mut seen = BTreeSet::new();
    let mut out: Vec<LabeledSpec> = Vec::with_capacity(count);
    while out.len() < count {
        let i = out.len();
        let (bench, class, nodes) = serve_shape(i);
        let mut spec = RunSpec::uniform(bench, class, nodes, 1 + rng.below(GEARS));
        if nodes > 1 {
            spec.gears = per_rank_gears(&mut rng, nodes);
        }
        match i % 20 {
            3 => spec.faults = Some(FaultPlan::noise(rng.below(1000) as u64, DEFAULT_NOISE_LEVEL)),
            13 => {
                let limit = [1.05, 1.1, 1.2][rng.below(3)];
                spec.policy = Some(PolicySpec::PhaseAdaptive { slowdown_limit: limit });
            }
            _ => {}
        }
        // A draw that repeats an earlier spec is drawn again.
        let ls = LabeledSpec::new(spec);
        if seen.insert(ls.label.clone()) {
            out.push(ls);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_and_zipf_are_pure_functions_of_the_seed() {
        let draw = |seed| {
            let mut rng = Lcg::new(seed);
            let zipf = Zipf::new(100, 1.1);
            (0..50).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        // Zipf is skewed: rank 0 is drawn far more often than rank 50.
        let mut rng = Lcg::new(1);
        let zipf = Zipf::new(100, 1.1);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        let count = |r| draws.iter().filter(|&&d| d == r).count();
        assert!(count(0) > 10 * count(50).max(1));
        assert!(draws.iter().all(|&d| d < 100));
    }

    #[test]
    fn spec_generators_are_seeded_distinct_and_valid() {
        let labels = |v: &[LabeledSpec]| v.iter().map(|s| s.label.clone()).collect::<Vec<_>>();
        let a = gear_search_specs(42, 260);
        assert_eq!(labels(&a), labels(&gear_search_specs(42, 260)));
        assert_ne!(labels(&a), labels(&gear_search_specs(7, 260)));
        assert_eq!(labels(&a).iter().collect::<BTreeSet<_>>().len(), 260);
        for s in &a {
            assert!(s.spec.bench.supports_nodes(s.spec.nodes));
            assert!(s.spec.nodes >= 16 && s.spec.class == ProblemClass::Test);
            assert!(s.spec.resolved_gears().iter().all(|g| (1..=GEARS).contains(g)));
        }
        // Same shape whatever the seed: the (kernel, ranks) sequence.
        let shape = |v: &[LabeledSpec]| {
            v.iter().map(|s| (s.spec.bench.name(), s.spec.nodes)).collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&gear_search_specs(7, 260)));

        let u = serve_universe(42, 400);
        assert_eq!(labels(&u), labels(&serve_universe(42, 400)));
        assert_ne!(labels(&u), labels(&serve_universe(7, 400)));
        assert_eq!(labels(&u).iter().collect::<BTreeSet<_>>().len(), 400);
        assert!(u.iter().any(|s| s.spec.faults.is_some()));
        assert!(u.iter().any(|s| s.spec.policy.is_some()));
        assert!(u.iter().any(|s| s.spec.class == ProblemClass::B));
        for s in &u {
            assert!(s.spec.bench.supports_nodes(s.spec.nodes));
            assert!(s.spec.class == ProblemClass::Test || s.spec.nodes <= 4);
        }
        // Same shape whatever the seed, so every seed costs the same.
        assert_eq!(shape(&u), shape(&serve_universe(7, 400)));
        assert_eq!(serve_universe(1, 2000).len(), 2000);
    }

    /// Dedup is audited as "simulations == distinct labels", so two
    /// labels must never share an engine cache key.
    #[test]
    fn distinct_labels_are_distinct_cache_keys() {
        let e = psc_runner::Engine::serial(psc_mpi::Cluster::athlon_fast_ethernet());
        for seed in [1, 7, 42] {
            let mut specs = serve_universe(seed, 600);
            specs.extend(gear_search_specs(seed, 130));
            let keys: BTreeSet<u64> = specs.iter().map(|ls| e.cache_key(&ls.spec)).collect();
            assert_eq!(keys.len(), specs.len(), "seed {seed}");
        }
    }

    #[test]
    fn wire_fragment_parses_back_to_the_same_spec() {
        use psc_serve::proto::{parse_request, Command, ProtoLimits};
        for ls in serve_universe(3, 200) {
            let frame = format!(r#"{{"id":"x","cmd":"run","specs":[{}]}}"#, ls.wire());
            let req = parse_request(&frame, ProtoLimits { gear_count: GEARS, max_batch: 4 })
                .unwrap_or_else(|e| panic!("{}: {}", ls.label, e.message));
            let Command::Run { specs, .. } = req.cmd else { panic!("not a run") };
            assert_eq!(specs[0], ls.spec, "{}", ls.label);
        }
    }
}
