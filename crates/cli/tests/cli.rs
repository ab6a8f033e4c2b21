//! End-to-end tests of the `powerscale` binary.

use std::process::Command;

fn powerscale(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_powerscale"))
        .args(args)
        .output()
        .expect("failed to launch powerscale")
}

#[test]
fn list_shows_every_benchmark() {
    let out = powerscale(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["CG", "EP", "MG", "LU", "BT", "SP", "FT", "Jacobi", "Synthetic"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn run_reports_time_energy_and_residual() {
    let out =
        powerscale(&["run", "--bench", "CG", "--nodes", "4", "--gear", "2", "--class", "test"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["time", "energy", "power", "UPM", "residual"] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn sweep_prints_all_gears() {
    let out = powerscale(&["sweep", "--bench", "EP", "--nodes", "2", "--class", "test"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for gear in 1..=6 {
        assert!(
            stdout.contains(&format!("\n  {gear:>4} ")) || stdout.contains(&format!("   {gear} ")),
            "gear {gear} row missing:\n{stdout}"
        );
    }
}

#[test]
fn advise_recommends_deep_gear_for_cg_pressure() {
    // (UPM, delay budget, gear on both lines). At a 25 % budget the
    // slowest admissible gear is dominated: CG's gear 6 costs more
    // energy than gear 5, EP's gear 3 more than gear 2.
    for (upm, delay, gear) in [("8.6", "0.10", 5), ("8.6", "0.25", 5), ("844", "0.25", 2)] {
        let out = powerscale(&["advise", "--upm", upm, "--delay", delay]);
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let advice: Vec<&str> = stdout.lines().skip(1).collect();
        assert_eq!(advice.len(), 2, "{stdout}");
        for line in advice {
            assert!(line.contains(&format!(" gear {gear} (")), "want gear {gear}:\n{stdout}");
        }
    }
}

#[test]
fn model_extrapolates() {
    let out = powerscale(&["model", "--bench", "Jacobi", "--predict", "16", "--class", "test"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("predicted energy-time curve at 16 nodes"));
    assert!(stdout.contains("communication:"));
}

#[test]
fn budget_prints_pareto_frontier() {
    let out = powerscale(&[
        "budget",
        "--bench",
        "Synthetic",
        "--power-cap",
        "500",
        "--max-nodes",
        "4",
        "--class",
        "test",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Pareto frontier"));
}

#[test]
fn invalid_inputs_fail_cleanly() {
    assert!(!powerscale(&["run", "--bench", "nope"]).status.success());
    assert!(!powerscale(&["run", "--bench", "BT", "--nodes", "7"]).status.success());
    assert!(!powerscale(&["run", "--bench", "CG", "--gear", "9"]).status.success());
    assert!(!powerscale(&["advise", "--upm", "8.6", "--delay", "-0.1"]).status.success());
    assert!(!powerscale(&["frobnicate"]).status.success());
    assert!(!powerscale(&[]).status.success());
    assert!(powerscale(&["--help"]).status.success());
}

/// Run powerscale hermetically: no disk cache, so stdout depends only
/// on the arguments (the cache line reports the same counts every time).
fn powerscale_hermetic(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_powerscale"))
        .args(args)
        .env("PSC_CACHE", "0")
        .output()
        .expect("failed to launch powerscale")
}

#[test]
fn faults_generates_a_valid_plan_deterministically() {
    let args = ["faults", "--seed", "7", "--level", "0.05"];
    let a = powerscale(&args);
    let b = powerscale(&args);
    assert!(a.status.success());
    assert_eq!(a.stdout, b.stdout, "plan generation must be deterministic");
    let text = String::from_utf8(a.stdout).unwrap();
    for needle in ["\"seed\":7", "clock_jitter", "network", "wattmeter"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    // The emitted plan round-trips through --inspect.
    let dir = std::env::temp_dir().join(format!("psc-cli-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plan.json");
    let out = powerscale(&["faults", "--seed", "7", "--out", path.to_str().unwrap()]);
    assert!(out.status.success());
    let inspect = powerscale(&["faults", "--inspect", path.to_str().unwrap()]);
    assert!(inspect.status.success());
    let text = String::from_utf8(inspect.stdout).unwrap();
    for needle in ["seed", "clock jitter", "network", "wattmeter"] {
        assert!(text.contains(needle), "inspect output missing {needle}:\n{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faults_rejects_bad_inputs() {
    assert!(!powerscale(&["faults", "--level", "0.9"]).status.success());
    assert!(!powerscale(&["faults", "--level", "lots"]).status.success());
    assert!(!powerscale(&["faults", "--inspect", "/nonexistent/plan.json"]).status.success());
}

/// Golden stability: sweep stdout is a pure function of the arguments —
/// same invocation twice, and again at a different worker count, all
/// byte-identical.
#[test]
fn sweep_stdout_is_stable_across_invocations_and_jobs() {
    let args = ["sweep", "--bench", "CG", "--nodes", "2", "--class", "test", "--jobs", "1"];
    let a = powerscale_hermetic(&args);
    let b = powerscale_hermetic(&args);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "same invocation must be byte-identical");
    let args8 = ["sweep", "--bench", "CG", "--nodes", "2", "--class", "test", "--jobs", "8"];
    let c = powerscale_hermetic(&args8);
    let a_text = String::from_utf8(a.stdout).unwrap();
    let c_text = String::from_utf8(c.stdout).unwrap();
    // Everything but the worker-count line matches.
    let strip =
        |s: &str| s.lines().filter(|l| !l.contains("worker(s)")).collect::<Vec<_>>().join("\n");
    assert_eq!(strip(&a_text), strip(&c_text), "results must not depend on --jobs");
}

#[test]
fn faulted_sweep_is_deterministic_and_differs_from_clean() {
    let faulted = [
        "sweep",
        "--bench",
        "EP",
        "--nodes",
        "2",
        "--class",
        "test",
        "--jobs",
        "2",
        "--fault-seed",
        "11",
    ];
    let a = powerscale_hermetic(&faulted);
    let b = powerscale_hermetic(&faulted);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "--fault-seed must reproduce byte-identical output");

    let clean = ["sweep", "--bench", "EP", "--nodes", "2", "--class", "test", "--jobs", "2"];
    let c = powerscale_hermetic(&clean);
    assert!(c.status.success());
    assert_ne!(a.stdout, c.stdout, "injected noise must actually perturb the sweep");

    let other_seed = [
        "sweep",
        "--bench",
        "EP",
        "--nodes",
        "2",
        "--class",
        "test",
        "--jobs",
        "2",
        "--fault-seed",
        "12",
    ];
    let d = powerscale_hermetic(&other_seed);
    assert_ne!(a.stdout, d.stdout, "a different seed must perturb differently");
}

#[test]
fn faulted_trace_exports_fault_category() {
    let dir = std::env::temp_dir().join(format!("psc-cli-trace-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plan_path = dir.join("plan.json");
    let out = powerscale(&[
        "faults",
        "--seed",
        "3",
        "--level",
        "0.05",
        "--out",
        plan_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let trace_path = dir.join("cg.trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_powerscale"))
        .args([
            "trace",
            "--bench",
            "CG",
            "--nodes",
            "2",
            "--gear",
            "2",
            "--class",
            "test",
            "--faults",
            plan_path.to_str().unwrap(),
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .env("RESULTS_DIR", dir.to_str().unwrap())
        .current_dir(&dir)
        .output()
        .expect("failed to launch powerscale");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.contains("\"fault\""), "trace must carry fault instant events");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `trace` asks the engine, like `sweep --trace-out`: the first
/// invocation leaves its run in the disk cache, the second is answered
/// from it and writes the same bytes.
#[test]
fn trace_goes_through_the_engine_cache() {
    let dir = std::env::temp_dir().join(format!("psc-cli-trace-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let trace = || {
        let out = Command::new(env!("CARGO_BIN_EXE_powerscale"))
            .args(["trace", "--bench", "CG", "--nodes", "2", "--class", "test"])
            .env("PSC_CACHE_DIR", &cache)
            .env_remove("PSC_CACHE")
            .current_dir(&dir)
            .output()
            .expect("failed to launch powerscale");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let read = |name: &str| std::fs::read(dir.join("results").join(name)).unwrap();
        (out.stdout, read("cg-n2-g1.trace.json"), read("cg-n2-g1.manifest.json"))
    };
    // Every file under the cache directory: `<shard>/<key>.run`.
    let entries = || -> Vec<std::path::PathBuf> {
        let shards = std::fs::read_dir(&cache).expect("the first trace creates the cache");
        shards
            .flat_map(|shard| std::fs::read_dir(shard.unwrap().path()).unwrap())
            .map(|entry| entry.unwrap().path())
            .collect()
    };

    let first = trace();
    let after_first = entries();
    assert_eq!(after_first.len(), 1, "one run, one entry: {after_first:?}");
    assert_eq!(after_first[0].extension().and_then(|e| e.to_str()), Some("run"));

    let second = trace();
    assert!(first == second, "a trace served from the cache must write the same bytes");
    assert_eq!(entries(), after_first, "the second trace is a disk hit, not a new entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_quick_gates_pass_and_report_dedup() {
    let out = powerscale_hermetic(&["replay", "--quick", "--seed", "9", "--min-dedup", "0.3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("byte-identical to direct engine execution"), "{stdout}");
    assert!(stdout.contains("duplicates simulated 0"), "{stdout}");
    for needle in ["dedup", "throughput", "latency"] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn replay_min_dedup_floor_fails_the_run() {
    // A floor above 100% can never be met; the gate must trip.
    let out = powerscale_hermetic(&["replay", "--quick", "--min-dedup", "1.5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("below the --min-dedup"), "{stderr}");
}

// --------------------------------------------------------------------
// `powerscale policy` — golden stdout snapshots. The policy layer's
// whole contract is byte-determinism, so these compare *exact bytes*,
// not substrings: any drift in a float, a column width, or a decision
// timestamp is a real behaviour change and must show up in review.
// --------------------------------------------------------------------

#[test]
fn policy_list_golden() {
    let out = powerscale(&["policy", "list"]);
    assert!(out.status.success());
    let golden = "\
policy           summary
static           fixed gear for the whole run (identity with a policy-free run)
phase-adaptive   per-phase gear from profiled UPM, bounded by a slowdown limit
power-cap        cluster power budget enforced at every instant
oracle           replay a fixed phase-indexed gear schedule
";
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
}

#[test]
fn policy_describe_golden() {
    let out = powerscale(&["policy", "describe", "static"]);
    assert!(out.status.success());
    let golden = "\
static: fixed gear for the whole run (identity with a policy-free run)

Usage: static:G

Run every rank at gear G (1-based) for the whole run. The
installed hook is inert, so results are byte-identical to a
policy-free run configured at gear G; use it to route static
gears through the policy machinery.

Example: static:3
";
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
}

#[test]
fn policy_run_static_golden() {
    let args = [
        "policy", "run", "--bench", "CG", "--nodes", "2", "--class", "test", "--policy",
        "static:4", "--jobs", "1",
    ];
    let out = powerscale_hermetic(&args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let golden = "\
CG on 2 node(s) under static:4:
  time              0.03 s
  energy               6 J (wattmeter: 6 J)
  power            160.6 W average
  decisions            0 across 2 rank(s), 0 gear shift(s)
";
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
    // The snapshot is a pure function of the arguments: a second
    // invocation at a different worker count reproduces it.
    let args8 = [
        "policy", "run", "--bench", "CG", "--nodes", "2", "--class", "test", "--policy",
        "static:4", "--jobs", "8",
    ];
    let again = powerscale_hermetic(&args8);
    assert_eq!(String::from_utf8(again.stdout).unwrap(), golden);
}

#[test]
fn policy_run_oracle_golden() {
    let out = powerscale_hermetic(&[
        "policy",
        "run",
        "--bench",
        "CG",
        "--nodes",
        "2",
        "--class",
        "test",
        "--policy",
        "oracle:0=5,3=2",
        "--jobs",
        "1",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let golden = "\
CG on 2 node(s) under oracle:0=5,3=2:
  time              0.03 s
  energy               6 J (wattmeter: 6 J)
  power            170.7 W average
  decisions            4 across 2 rank(s), 4 gear shift(s)
  rank 0   0.000s g1\u{2192}g5  0.001s g5\u{2192}g2
  rank 1   0.000s g1\u{2192}g5  0.002s g5\u{2192}g2
";
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
}

/// Every error path prints one exact line to stderr and exits 1, with
/// nothing on stdout.
#[test]
fn policy_error_paths_golden() {
    let cases: [(&[&str], &str); 6] = [
        (
            &["policy", "describe", "nope"],
            "error: unknown policy 'nope' (available: static, phase-adaptive, power-cap, oracle)\n",
        ),
        (
            &[
                "policy",
                "run",
                "--bench",
                "CG",
                "--nodes",
                "2",
                "--class",
                "test",
                "--policy",
                "oracle:zap",
            ],
            "error: malformed oracle step \"zap\": want P=G\n",
        ),
        (
            &[
                "policy",
                "run",
                "--bench",
                "CG",
                "--nodes",
                "2",
                "--class",
                "test",
                "--policy",
                "oracle:0=9",
            ],
            "error: oracle gear 9 out of range 1..=6 for node athlon64\n",
        ),
        (
            &["policy", "run", "--bench", "CG", "--nodes", "2", "--class", "test"],
            "error: missing --policy <SPEC> (try `powerscale policy list`)\n",
        ),
        (&["policy"], "error: missing policy subcommand (list, describe, run)\n"),
        (&["policy", "bogus"], "error: unknown policy subcommand 'bogus' (list, describe, run)\n"),
    ];
    for (args, golden) in cases {
        let out = powerscale(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert_eq!(out.stdout, b"", "{args:?} must print nothing to stdout");
        assert_eq!(String::from_utf8(out.stderr).unwrap(), golden, "args: {args:?}");
    }
}

#[test]
fn serve_stdio_answers_jsonl_and_shuts_down() {
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_powerscale"))
        .args(["serve", "--workers", "2"])
        .env("PSC_CACHE", "0")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("failed to launch powerscale serve");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            concat!(
                "{\"id\":\"p\",\"cmd\":\"ping\"}\n",
                "{\"id\":\"r\",\"cmd\":\"run\",\"lane\":\"interactive\",\"specs\":[",
                "{\"bench\":\"EP\",\"nodes\":2,\"gears\":1},{\"bench\":\"EP\",\"nodes\":2,\"gears\":1}]}\n",
                "{\"id\":\"z\",\"cmd\":\"shutdown\"}\n",
            )
            .as_bytes(),
        )
        .unwrap();
    let out = child.wait_with_output().expect("serve did not exit");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"id\":\"p\",\"ok\":true,\"pong\":true"), "{stdout}");
    // Two identical specs in one batch: one executed, one deduplicated.
    assert!(stdout.contains("\"outcome\":\"executed\""), "{stdout}");
    assert!(
        stdout.contains("\"outcome\":\"cache_hit\"")
            || stdout.contains("\"outcome\":\"inflight_join\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"done\":true"), "{stdout}");
    assert!(stdout.contains("\"id\":\"z\",\"ok\":true,\"bye\":true"), "{stdout}");
}
