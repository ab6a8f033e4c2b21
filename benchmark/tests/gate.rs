//! The correctness gate, exercised through the command line: a damaged
//! golden digest or a damaged served reply must raise the workload's
//! failed count and make the command exit non-zero, and a seed without
//! goldens must still pass the physical checks.
//!
//! These run whole workloads, so they are skipped in debug builds:
//! `cargo test --release --offline --manifest-path benchmark/Cargo.toml`.

use serde::Value;
use std::process::Command;

/// Run the ledger with `args`; return whether it exited 0 and the JSON
/// object on its last stdout line.
fn ledger(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_psc-ledger"))
        .args(args)
        .args(["--seconds", "0.1", "--trace", "0"])
        .output()
        .expect("running psc-ledger");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let last = stdout.lines().last().expect("a result line");
    (out.status.success(), serde::json::parse(last).expect("the last line is one JSON object"))
}

fn failed(result: &Value) -> u64 {
    result.get("failed").and_then(Value::as_u64).expect("failed count")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs a workload; use cargo test --release")]
fn damaged_golden_digest_fails_the_command() {
    let (ok, result) = ledger(&["--workload", "warm_replay", "--seed", "42", "--inject", "golden"]);
    assert!(!ok, "a damaged digest must exit non-zero");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(failed(&result), 1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs a workload; use cargo test --release")]
fn damaged_served_reply_fails_the_command() {
    let (ok, result) = ledger(&["--workload", "serve_mixed", "--seed", "42", "--inject", "reply"]);
    assert!(!ok, "a damaged reply must exit non-zero");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(failed(&result), 1);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs a workload; use cargo test --release")]
fn seed_without_goldens_passes_the_physical_checks() {
    let (ok, result) = ledger(&["--workload", "gear_search_cold", "--seed", "7"]);
    assert!(ok, "seed 7 has no goldens and must pass on the physical checks alone");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(failed(&result), 0);
    let metrics = result.get("metrics").expect("metrics");
    for name in [
        "setup_s",
        "wall_s",
        "cpu_s",
        "specs_per_s",
        "latency_p50_ms",
        "latency_p95_ms",
        "heap_held_mib",
    ] {
        let value = metrics.get(name).and_then(|m| m.get("value")).and_then(Value::as_f64);
        assert!(value.is_some_and(|v| v > 0.0), "{name}: {value:?}");
    }
}
