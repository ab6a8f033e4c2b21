//! The paper campaign at Test class, end to end: `paper --test` must
//! pass every claim, write the same bytes at `--jobs 1` and `--jobs 2`,
//! and reproduce the goldens in `tests/golden/` — every `*.csv` and
//! `*.txt` it writes, and nothing else.
//!
//! After an intended change to a figure, re-bless from the workspace
//! root with
//!
//! ```sh
//! rm -rf crates/experiments/tests/golden && PSC_CACHE=0 RESULTS_DIR=crates/experiments/tests/golden cargo run -q -p psc-experiments --bin paper -- --test && rm crates/experiments/tests/golden/*.json
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The `*.csv` and `*.txt` files of `dir`, by name.
fn outputs(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv" || x == "txt"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect()
}

/// Run `paper --test --jobs <jobs>` cold into a fresh directory.
fn campaign(jobs: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psc-campaign-{}-j{jobs}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["--test", "--jobs", &jobs.to_string()])
        .env("PSC_CACHE", "0")
        .env("RESULTS_DIR", &dir)
        .output()
        .expect("paper runs");
    assert!(
        out.status.success(),
        "paper --test --jobs {jobs} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

/// `name`'s first differing line between `want` and `got`.
fn first_difference(name: &str, want: &str, got: &str) -> String {
    let line = want.lines().zip(got.lines()).position(|(w, g)| w != g);
    match line {
        Some(i) => format!(
            "{name} line {}:\n  want {}\n  got  {}",
            i + 1,
            want.lines().nth(i).unwrap(),
            got.lines().nth(i).unwrap()
        ),
        None => format!("{name}: {} vs {} lines", want.lines().count(), got.lines().count()),
    }
}

fn assert_same(what: &str, want: &BTreeMap<String, String>, got: &BTreeMap<String, String>) {
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "{what}: different files"
    );
    for (name, w) in want {
        let g = &got[name];
        assert!(w == g, "{what}: {}", first_difference(name, w, g));
    }
}

#[test]
fn test_class_campaign_matches_goldens_at_any_worker_count() {
    let (serial, parallel) = std::thread::scope(|s| {
        let serial = s.spawn(|| campaign(1));
        let parallel = s.spawn(|| campaign(2));
        (serial.join().unwrap(), parallel.join().unwrap())
    });
    let (j1, j2) = (outputs(&serial), outputs(&parallel));
    assert_same("--jobs 1 vs --jobs 2", &j1, &j2);
    let golden = outputs(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden"));
    assert_same("goldens vs --jobs 1", &golden, &j1);
    let _ = std::fs::remove_dir_all(serial);
    let _ = std::fs::remove_dir_all(parallel);
}
