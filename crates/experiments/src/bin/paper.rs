//! `paper` — regenerate the paper's figures, table and claims.
//!
//! ```text
//! paper [artifact…] [--test] [--jobs N] [--faults F] [--fault-seed N]
//! ```
//!
//! Runs the named artifacts of [`psc_experiments::campaign::ARTIFACTS`]
//! (all of them without names) in table order on one engine, writes
//! their files under `$RESULTS_DIR` (default `./results`) with one
//! `paper.sweep.json` run-accounting manifest, and exits non-zero after
//! naming every failed claim.

#![forbid(unsafe_code)]

use psc_experiments::campaign::{Campaign, ARTIFACTS};
use psc_experiments::harness::finish_sweep;
use psc_runner::Stopwatch;
use std::path::PathBuf;
use std::process::ExitCode;

/// The options that take a value.
const VALUED: [&str; 3] = ["--jobs", "--faults", "--fault-seed"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || !VALUED.contains(&&*args[i - 1])))
        .map(|(_, a)| a.as_str())
        .collect();
    if let Some(bad) = names.iter().find(|&&n| ARTIFACTS.iter().all(|a| a.name != n)) {
        let known: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        eprintln!("paper: unknown artifact `{bad}` (known: {})", known.join(", "));
        eprintln!("usage: paper [artifact…] [--test] [--jobs N] [--faults F] [--fault-seed N]");
        return ExitCode::from(2);
    }
    let dir =
        std::env::var_os("RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from);
    let campaign = Campaign::from_args(&args, dir);
    let timer = Stopwatch::start();
    let failed: Vec<String> = ARTIFACTS
        .iter()
        .filter(|a| names.is_empty() || names.contains(&a.name))
        .flat_map(|a| campaign.run(a))
        .collect();
    finish_sweep(&campaign.dir, "paper", &campaign.engines(), timer);
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("paper: {} claim(s) failed: {}", failed.len(), failed.join(", "));
        ExitCode::FAILURE
    }
}
