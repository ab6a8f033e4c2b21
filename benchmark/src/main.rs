//! The repo's performance ledger: six workloads, end-to-end and
//! per-layer metrics, one command. See README.md for every name.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` measures one
//!   workload in this process and prints, as the last line of stdout,
//!   one JSON object `{correct, attempted, failed, metrics}`;
//! * without `--workload`, every workload runs in its own child process
//!   of this binary (so peak memory and allocator state are per
//!   workload), untraced first, then traced;
//! * `--selfcheck` runs the untraced set twice and fails if the two
//!   disagree by more than the benchmark's own bounds;
//! * `--bless` rewrites the golden files, `--inject` damages a digest
//!   or a reply to show that the gate bites.

mod budget;
mod check;
mod gear_search;
mod gen;
mod host;
mod layers;
mod metrics;
mod report;
mod serve_mixed;
mod span;
mod stats;
mod suite;
mod warm_replay;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: host::CountingAllocator = host::CountingAllocator;

/// `benchmark/`, where this package lives.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository the benchmark measures (committed figure CSVs, the
/// analyzer's input).
pub fn repo_root() -> PathBuf {
    package_dir().parent().expect("the package sits in the repository").to_path_buf()
}

/// `benchmark/out/`: traces, result files and scratch caches — the only
/// place the benchmark writes.
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).expect("creating benchmark/out");
    dir
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bless: bool,
    pub inject: Option<String>,
    pub selfcheck: bool,
}

const USAGE: &str = "usage: psc-ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                  [--selfcheck] [--bless] [--inject golden|reply]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        bless: false,
        inject: None,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workload::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {:?}", workload::NAMES));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed needs an unsigned integer")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--inject" => {
                let what = value()?;
                if what != "golden" && what != "reply" {
                    return Err(format!("--inject takes golden or reply, got {what:?}"));
                }
                args.inject = Some(what);
            }
            "--bless" => args.bless = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.workload, args.selfcheck) {
        (Some(name), _) => report::run_one(name, &args),
        (None, true) => report::selfcheck(&args),
        (None, false) => report::run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload serve_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_mixed"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = parse("").unwrap();
        assert_eq!((d.workload, d.seed, d.trace, d.selfcheck), (None, 42, false, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in
            ["--workload nope", "--seed x", "--trace 2", "--seconds 0", "--frobnicate", "--seed"]
        {
            assert!(parse(line).is_err(), "{line}");
        }
    }
}
