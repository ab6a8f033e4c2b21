//! The memory-hit path of `Engine::run` allocates nothing and takes no
//! registry lock: the cache key streams the spec's gears into the hash,
//! and the two counters a hit bumps are handles resolved on first use.
//! A re-rendered figure, `summary` or deduplicated serve reply is such a
//! hit, so this is the cost of reading the reproduction back.
//!
//! A counting global allocator sees every allocation this thread makes
//! while the hits run.

use psc_kernels::{Benchmark, ProblemClass};
use psc_metrics::Snapshot;
use psc_mpi::{Cluster, GearSelection};
use psc_runner::{Engine, RunSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Const-initialized with no
    /// destructor, so touching it from the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Every `(name, labels)` series in a snapshot, in snapshot order.
fn series(snap: &Snapshot) -> Vec<(String, Vec<(String, String)>)> {
    snap.samples.iter().map(|s| (s.name.clone(), s.labels.clone())).collect()
}

fn count(snap: &Snapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    snap.get(name, labels).map_or(0.0, |s| s.scalar())
}

#[test]
fn memory_hits_allocate_nothing_and_count_every_call() {
    const HITS: u64 = 2_000;
    let engine = Engine::serial(Cluster::athlon_fast_ethernet());
    let specs = [
        RunSpec::uniform(Benchmark::Ep, ProblemClass::Test, 2, 3),
        RunSpec {
            gears: GearSelection::PerRank(vec![1, 4]),
            ..RunSpec::uniform(Benchmark::Ep, ProblemClass::Test, 2, 1)
        },
    ];
    // Fill, then one hit of each so every series a hit touches exists.
    let filled: Vec<_> = specs.iter().map(|s| engine.run(s)).collect();
    for spec in &specs {
        engine.run(spec);
    }
    let before = engine.metrics().snapshot();

    let start = allocations();
    let mut wrong = 0;
    for i in 0..HITS as usize {
        let k = i % specs.len();
        let run = engine.run(&specs[k]);
        wrong += usize::from(!std::sync::Arc::ptr_eq(&run, &filled[k]));
    }
    let allocated = allocations() - start;

    assert_eq!(wrong, 0, "every call is a hit on the filled entry");
    assert_eq!(allocated, 0, "{HITS} memory hits made {allocated} allocation(s)");
    let after = engine.metrics().snapshot();
    assert_eq!(series(&after), series(&before), "hits register no new series");
    for (name, label) in
        [("engine_cache_lookups_total", "result"), ("engine_runs_total", "outcome")]
    {
        let labels = [(label, "mem_hit")];
        let grew = count(&after, name, &labels) - count(&before, name, &labels);
        assert_eq!(grew, HITS as f64, "{name}{{{label}=\"mem_hit\"}}");
    }
}
