//! A re-timing runs no coroutine: `Cluster::retime` steps each rank's
//! skeleton from a wake-on-delivery queue, so the replay tier allocates
//! no rank stacks. A coroutine driver allocates one 2 MiB stack per
//! rank per run; here no single allocation made while the engine
//! re-times LU at 16 ranks may reach 64 KiB.
//!
//! A counting global allocator records the largest allocation this
//! thread makes while the re-timings run.

use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::{Cluster, GearSelection};
use psc_runner::{Engine, RunSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread made, in bytes.
    /// Const-initialized with no destructor, so touching it from the
    /// allocator never allocates.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local maximum update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(new_size)));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`,
        // and the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn replayed(engine: &Engine) -> f64 {
    let snap = engine.metrics().snapshot();
    snap.get("engine_runs_replayed_total", &[]).map_or(0.0, |s| s.scalar())
}

fn lu(gears: Vec<usize>) -> RunSpec {
    RunSpec {
        gears: GearSelection::PerRank(gears),
        ..RunSpec::uniform(Benchmark::Lu, ProblemClass::Test, 16, 1)
    }
}

#[test]
fn retimings_allocate_no_rank_stacks_and_match_full_runs() {
    const NODES: usize = 16;
    const STACK_FREE_BYTES: usize = 64 * 1024;
    let engine = Engine::serial(Cluster::athlon_fast_ethernet());
    engine.run(&RunSpec::uniform(Benchmark::Lu, ProblemClass::Test, NODES, 1));
    let specs: Vec<RunSpec> =
        (0..5).map(|k| lu((0..NODES).map(|r| 1 + (k + r) % 6).collect())).collect();
    let before = replayed(&engine);

    LARGEST.with(|m| m.set(0));
    let runs: Vec<_> = specs.iter().map(|s| engine.run(s)).collect();
    let largest = LARGEST.with(Cell::get);

    assert_eq!(replayed(&engine) - before, specs.len() as f64, "every spec was re-timed");
    assert!(
        largest < STACK_FREE_BYTES,
        "a re-timing made a {largest}-byte allocation; rank stacks are back"
    );
    for (spec, run) in specs.iter().zip(&runs) {
        let full = Engine::serial(Cluster::athlon_fast_ethernet()).run(spec);
        assert!(
            run.to_bytes() == full.to_bytes(),
            "re-timing diverged from the full run: {spec:?}"
        );
    }
}
