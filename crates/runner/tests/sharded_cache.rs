//! Crash consistency of the sharded disk layout.
//!
//! The disk layer's contract: a reader never sees a half-written entry
//! (atomic temp + rename inside the shard), every flavor of on-disk
//! damage reads as a miss and heals atomically on the next insert, and
//! so does an entry the engine can prove is another tuple's result.

use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::{Cluster, RunResult};
use psc_runner::{Engine, RunCache, RunPlan, RunSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psc-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn some_result() -> Arc<RunResult> {
    let engine = Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::in_memory());
    engine.run(&RunSpec::uniform(Benchmark::Ep, ProblemClass::Test, 1, 1))
}

/// Keys whose top bytes differ, so the damage spreads across shards.
const KEYS: [u64; 4] =
    [0x0100_0000_0000_0aaa, 0x7f00_0000_0000_0bbb, 0xc300_0000_0000_0ccc, 0xff00_0000_0000_0ddd];

fn shard_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{:02x}", key >> 56)).join(format!("{key:016x}.run"))
}

fn tmp_litter(dir: &Path) -> Vec<PathBuf> {
    let mut litter = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.filter_map(|e| e.ok()) {
            if e.path().is_dir() {
                stack.push(e.path());
            } else if e.file_name().to_string_lossy().starts_with(".tmp-") {
                litter.push(e.path());
            }
        }
    }
    litter
}

/// Kill-mid-write across shards: truncate entries at various points,
/// drop in garbage, and strand temp files (a crash between write and
/// rename). Every damaged entry must miss, count as corrupt, and heal
/// atomically on re-insert; stranded temps must never be read.
#[test]
fn mid_write_damage_across_shards_misses_and_heals() {
    let dir = scratch("damage");
    let run = some_result();

    // Populate all four shards with valid entries.
    let writer = RunCache::with_disk(&dir);
    for &key in &KEYS {
        writer.insert(key, Arc::clone(&run));
        assert!(shard_path(&dir, key).is_file());
    }

    // Damage each one differently, as a mid-write kill would leave it.
    let valid = std::fs::read(shard_path(&dir, KEYS[0])).unwrap();
    std::fs::write(shard_path(&dir, KEYS[0]), &valid[..valid.len() / 2]).unwrap(); // truncated
    std::fs::write(shard_path(&dir, KEYS[1]), "").unwrap(); // zero-length
    std::fs::write(shard_path(&dir, KEYS[2]), "\u{0}\u{1}garbage").unwrap(); // binary trash

    // A crash *before* the rename strands a temp file and leaves no
    // entry at all: remove the entry, leave a temp beside it.
    std::fs::remove_file(shard_path(&dir, KEYS[3])).unwrap();
    std::fs::write(
        shard_path(&dir, KEYS[3]).parent().unwrap().join(".tmp-99999-dead"),
        &valid[..valid.len() / 3],
    )
    .unwrap();

    let reader = RunCache::with_disk(&dir);
    for &key in &KEYS {
        assert!(reader.lookup(key).is_none(), "damaged entry {key:#x} must miss");
    }
    let stats = reader.stats();
    assert_eq!(stats.misses, KEYS.len() as u64);
    assert_eq!(stats.disk_corrupt, 3, "three damaged entries were present and corrupt");

    // Healing: re-insert every key, then a fresh instance reads them all.
    for &key in &KEYS {
        reader.insert(key, Arc::clone(&run));
    }
    let healed = RunCache::with_disk(&dir);
    for &key in &KEYS {
        let got = healed.lookup(key).expect("healed entry readable");
        assert_eq!(*got, *run, "healed entry must round-trip bitwise");
    }
    assert_eq!(healed.stats().disk_hits, KEYS.len() as u64);

    // The stranded pre-crash temp file is inert but still present (only
    // our own pid's temps are ever renamed); no *new* litter appeared.
    let litter = tmp_litter(&dir);
    assert_eq!(litter.len(), 1, "only the simulated crash's temp remains: {litter:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent writers across shards leave the directory fully readable:
/// every entry lands, atomically, with no temp litter — the contention
/// scenario the 256-way sharding exists for.
#[test]
fn concurrent_writers_across_shards_leave_a_clean_tree() {
    let dir = scratch("writers");
    let run = some_result();
    let cache = Arc::new(RunCache::with_disk(&dir));

    const WRITERS: usize = 8;
    const PER_WRITER: usize = 32;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (cache, run) = (Arc::clone(&cache), Arc::clone(&run));
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    // Spread keys over all shards; overlap across writers.
                    let key = ((i as u64) << 56) | (0x1000 + (w % 2) as u64);
                    cache.insert(key, Arc::clone(&run));
                }
            });
        }
    });

    let reader = RunCache::with_disk(&dir);
    let mut served = 0;
    for i in 0..PER_WRITER {
        for tag in [0x1000u64, 0x1001] {
            let key = ((i as u64) << 56) | tag;
            if let Some(got) = reader.lookup(key) {
                assert_eq!(*got, *run);
                served += 1;
            }
        }
    }
    assert_eq!(served, PER_WRITER * 2, "every concurrently written entry is readable");
    assert!(tmp_litter(&dir).is_empty(), "no temp litter after concurrent writes");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An engine reading from `dir`.
fn disk_engine(dir: &Path) -> Engine {
    Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::with_disk(dir))
}

/// `spec` run from scratch, touching no disk.
fn fresh(spec: &RunSpec) -> Arc<RunResult> {
    Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::in_memory()).run(spec)
}

/// Store `from`'s entry under `to`'s key, as a key collision would,
/// then read `reads` in order on a fresh engine: the last must miss as
/// corrupt, re-execute to a fresh run's result and heal its entry.
fn refused_and_healed(tag: &str, from: &RunSpec, to: &RunSpec, reads: &[&RunSpec]) {
    let dir = scratch(tag);
    let filler = disk_engine(&dir);
    for spec in [from, to].into_iter().chain(reads.iter().copied()) {
        filler.run(spec);
    }
    let path = |spec| shard_path(&dir, filler.cache_key(spec));
    std::fs::copy(path(from), path(to)).unwrap();

    let reader = disk_engine(&dir);
    let runs: Vec<_> = reads.iter().map(|spec| reader.run(spec)).collect();
    let stats = reader.cache_stats();
    let hits = reads.len() as u64 - 1;
    assert_eq!((stats.disk_hits, stats.misses, stats.disk_corrupt), (hits, 1, 1), "{stats:?}");
    let expected = fresh(to);
    assert!(*runs[runs.len() - 1] == *expected, "the refused entry re-executes");
    assert!(std::fs::read(path(to)).unwrap() == expected.to_bytes(), "and heals");
    let _ = std::fs::remove_dir_all(&dir);
}

/// CG's entry at the path of LU at the same node count and gear decodes
/// whole, with the right rank count; read after another gear of LU, its
/// trace structure proves it foreign.
#[test]
fn another_tuples_entry_is_refused_once_its_tuple_is_known() {
    let spec = |bench, gear| RunSpec::uniform(bench, ProblemClass::Test, 4, gear);
    let lu1 = spec(Benchmark::Lu, 1);
    refused_and_healed("tuple", &spec(Benchmark::Cg, 1), &lu1, &[&spec(Benchmark::Lu, 2), &lu1]);
}

/// An 8-rank entry under a 4-rank key is refused even as the first read
/// of its tuple: the rank count alone proves it foreign.
#[test]
fn an_entry_with_another_rank_count_is_refused_on_first_read() {
    let spec = |nodes| RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, nodes, 1);
    let cg4 = spec(4);
    refused_and_healed("ranks", &spec(8), &cg4, &[&cg4]);
}

/// Callers racing to read a cold engine's tuples from disk — and so to
/// register each tuple's first decoded result — get what a serial read
/// gets, and read each entry once.
#[test]
fn concurrent_disk_reads_match_a_serial_read() {
    let dir = scratch("concurrent");
    let mut plan = RunPlan::new();
    for (bench, nodes) in [(Benchmark::Cg, 4), (Benchmark::Lu, 4), (Benchmark::Mg, 2)] {
        plan.extend(RunPlan::gear_sweep(bench, ProblemClass::Test, nodes, 6));
    }
    assert_eq!(plan.len(), 18);
    disk_engine(&dir).execute(&plan);
    let serial = disk_engine(&dir).execute(&plan);

    const CALLERS: usize = 4;
    let engine = disk_engine(&dir).with_jobs(8);
    let reads: Vec<Vec<Arc<RunResult>>> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let mut specs = plan.specs.clone();
                specs.rotate_left(c * 5);
                let (engine, rotated) = (&engine, RunPlan { specs });
                scope.spawn(move || {
                    let mut runs = engine.execute(&rotated);
                    runs.rotate_right(c * 5);
                    runs
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for runs in &reads {
        for (run, expected) in runs.iter().zip(&serial) {
            assert!(**run == **expected, "a concurrent read differs from the serial one");
        }
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.disk_hits, stats.disk_corrupt, stats.misses), (18, 0, 0), "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
