//! A result read from disk holds only its times. A tuple fixes its
//! trace structure, so a fresh engine decodes the first disk entry of
//! a tuple into a trace shape of its own and every later entry of the
//! tuple against that result: each shares its shape and allocates only
//! its time columns.
//!
//! The counting global allocator of `counting/mod.rs` records the
//! bytes this thread still holds after the disk hits.

mod counting;

use counting::HELD;
use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::Cluster;
use psc_runner::{Engine, RunCache, RunSpec};
use std::cell::Cell;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psc-disk-hit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Six gears of LU at 16 ranks, read back from disk by a fresh engine,
/// hold 16 bytes per event (its two times), 16 per span, 12 per power
/// segment and a constant per rank, plus one trace shape for the six:
/// 16 bytes per event and 8 per span of one result.
#[test]
fn a_decoded_result_holds_only_its_times() {
    const NODES: usize = 16;
    const PER_RANK_BYTES: usize = 512;
    let dir = scratch("held");
    let engine =
        || Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::with_disk(&dir));
    let specs: Vec<RunSpec> =
        (1..=6).map(|g| RunSpec::uniform(Benchmark::Lu, ProblemClass::Test, NODES, g)).collect();
    // Another tuple's entry, whose disk hit registers the hit's metric
    // series before the count starts.
    let warm_up = RunSpec::uniform(Benchmark::Ep, ProblemClass::Test, 1, 1);
    let filler = engine();
    let executed: Vec<_> = specs.iter().map(|s| filler.run(s)).collect();
    filler.run(&warm_up);

    let reader = engine();
    reader.run(&warm_up);
    HELD.with(|h| h.set(0));
    let runs: Vec<_> = specs.iter().map(|s| reader.run(s)).collect();
    let held = HELD.with(Cell::get);

    let stats = reader.cache_stats();
    assert_eq!((stats.disk_hits, stats.misses), (1 + specs.len() as u64, 0), "all from disk");
    for (run, filled) in runs.iter().zip(&executed) {
        assert_eq!(**run, **filled, "a decoded result differs from the executed one");
        assert!(serde::json::to_string(&**run) == serde::json::to_string(&**filled));
    }
    let ranks = || runs.iter().flat_map(|run| &run.ranks);
    let events: usize = ranks().map(|r| r.trace.events().len()).sum();
    let spans: usize = ranks().map(|r| r.trace.spans().len()).sum();
    let segments: usize = ranks().map(|r| r.power.segments().len()).sum();
    let shape_bytes: usize =
        runs[0].ranks.iter().map(|r| 16 * r.trace.events().len() + 8 * r.trace.spans().len()).sum();
    let bound =
        16 * events + 16 * spans + 12 * segments + shape_bytes + PER_RANK_BYTES * ranks().count();
    assert!(
        usize::try_from(held).is_ok_and(|held| held <= bound),
        "{} decoded results hold {held} B, over {bound} B for {events} events, {spans} spans, \
         {segments} segments",
        runs.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
