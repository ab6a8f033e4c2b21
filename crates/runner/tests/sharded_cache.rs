//! Crash consistency of the sharded disk layout.
//!
//! The disk layer's contract: a reader never sees a half-written entry
//! (atomic temp + rename inside the shard), and every flavor of on-disk
//! damage reads as a miss and heals atomically on the next insert.

use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::{Cluster, RunResult};
use psc_runner::{Engine, RunCache, RunSpec};
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
