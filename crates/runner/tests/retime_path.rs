//! A re-timing runs no coroutine: `Cluster::retime` steps each rank's
//! skeleton from a wake-on-delivery queue, so the replay tier allocates
//! no rank stacks. A coroutine driver allocates one 2 MiB stack per
//! rank per run; here no single allocation made while the engine
//! re-times LU at 16 ranks may reach 64 KiB. Nor does a phase span
//! allocate: a re-timed span shares its name with the skeleton, so
//! re-timing Jacobi at 16 ranks makes fewer allocations than it
//! records spans.
//!
//! And a re-timed result holds only its times: the op, peer and bytes
//! of each event and the name and depth of each span stay in the
//! skeleton's trace shape, which every re-timing shares.
//!
//! A counting global allocator (`counting/mod.rs`) records how many
//! allocations this thread makes, the largest, and the bytes it still
//! holds, while the re-timings run.

mod counting;

use counting::{COUNT, HELD, LARGEST};
use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::{Cluster, GearSelection};
use psc_runner::{Engine, RunSpec};
use std::cell::Cell;

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

#[test]
fn a_retimed_span_allocates_nothing() {
    const NODES: usize = 16;
    let engine = Engine::serial(Cluster::athlon_fast_ethernet());
    engine.run(&RunSpec::uniform(Benchmark::Jacobi, ProblemClass::Test, NODES, 1));
    let spec = RunSpec {
        gears: GearSelection::PerRank((0..NODES).map(|r| 1 + r % 6).collect()),
        ..RunSpec::uniform(Benchmark::Jacobi, ProblemClass::Test, NODES, 1)
    };
    let before = replayed(&engine);

    COUNT.with(|c| c.set(0));
    let run = engine.run(&spec);
    let allocations = COUNT.with(Cell::get);

    assert_eq!(replayed(&engine) - before, 1.0, "the spec was re-timed");
    let spans: usize = run.ranks.iter().map(|r| r.trace.spans().len()).sum();
    assert!(spans >= 100 * NODES, "Jacobi records ≈ 250 spans per rank, got {spans} in all");
    assert!(
        allocations < spans,
        "re-timing {spans} spans made {allocations} allocations; spans allocate names again"
    );
}

/// Re-timing LU at 16 ranks leaves behind 16 bytes per event (its two
/// times), 16 per span, 12 per power segment (its end time and level
/// index) and a constant per rank — nothing of the trace's structure,
/// which the skeleton's shape holds.
#[test]
fn a_retimed_result_holds_only_its_times() {
    const NODES: usize = 16;
    const PER_RANK_BYTES: usize = 512;
    let engine = Engine::serial(Cluster::athlon_fast_ethernet());
    engine.run(&RunSpec::uniform(Benchmark::Lu, ProblemClass::Test, NODES, 1));
    // A first re-timing registers the replay tier's metric series.
    engine.run(&lu(vec![2; NODES]));
    let specs: Vec<RunSpec> =
        (0..5).map(|k| lu((0..NODES).map(|r| 1 + (k + r) % 6).collect())).collect();
    let before = replayed(&engine);

    HELD.with(|h| h.set(0));
    let runs: Vec<_> = specs.iter().map(|s| engine.run(s)).collect();
    let held = HELD.with(Cell::get);

    assert_eq!(replayed(&engine) - before, specs.len() as f64, "every spec was re-timed");
    let ranks = || runs.iter().flat_map(|run| &run.ranks);
    let events: usize = ranks().map(|r| r.trace.events().len()).sum();
    let spans: usize = ranks().map(|r| r.trace.spans().len()).sum();
    let segments: usize = ranks().map(|r| r.power.segments().len()).sum();
    let bound = 16 * events + 16 * spans + 12 * segments + PER_RANK_BYTES * ranks().count();
    assert!(
        usize::try_from(held).is_ok_and(|held| held <= bound),
        "{} re-timings hold {held} B, over {bound} B for {events} events, {spans} spans, \
         {segments} segments",
        specs.len()
    );
}
