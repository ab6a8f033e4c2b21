//! The command-line driver behind `powerscale analyze`.

use crate::{analyze_workspace, find_workspace_root, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
powerscale analyze — workspace static analysis (reachability, units, cache keys)

USAGE:
  powerscale analyze [--deny] [--format text|json] [--root DIR]
                     [--time-budget-ms N]

  --deny               exit non-zero when any finding exists
  --format json        machine-readable output
  --root DIR           workspace root (default: discovered from the cwd)
  --time-budget-ms N   fail when the full analysis (including the
                       interprocedural pass) takes longer than N ms";

/// Parse arguments, run the analysis, render the report; returns the
/// process exit code (0 clean, 1 findings under `--deny`).
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value")))
            .transpose()
    };
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        match a.as_str() {
            "--deny" => {}
            "--format" | "--root" | "--time-budget-ms" => skip = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let deny = args.iter().any(|a| a == "--deny");
    let json = match value_of("--format")? {
        None => false,
        Some(f) if f == "json" => true,
        Some(f) if f == "text" => false,
        Some(f) => return Err(format!("unknown format '{f}' (expected text or json)")),
    };
    let root = match value_of("--root")? {
        Some(dir) => PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory")?
        }
    };
    let budget_ms = match value_of("--time-budget-ms")? {
        Some(n) => Some(n.parse::<u64>().map_err(|e| format!("--time-budget-ms '{n}': {e}"))?),
        None => None,
    };

    // The analyzer is a host tool: timing its own wall clock is the
    // one sanctioned self-measurement (it never touches results).
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    let findings = analyze_workspace(&root).map_err(|e| format!("analyzing workspace: {e}"))?;
    let elapsed_ms = t0.elapsed().as_millis() as u64;
    let report = Report::new(findings);
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if let Some(budget) = budget_ms {
        if elapsed_ms > budget {
            eprintln!("analysis wall time {elapsed_ms} ms exceeds the budget of {budget} ms");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("analysis wall time: {elapsed_ms} ms (budget {budget} ms)");
    }
    if deny && !report.fresh.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
