//! The per-file rule families. Each runs over one file's stripped token
//! stream; name bans that hold workspace-wide (host clocks, hash-ordered
//! collections, random hasher seeds) are clippy's, in `clippy.toml`.
//!
//! | id   | family        | fires on |
//! |------|---------------|----------|
//! | U001 | units         | public scalar field or `f64`-returning `pub fn` named after a quantity without its unit suffix |
//! | F001 | fault purity  | a stochastic construct inside `psc-faults` that bypasses the counter-keyed `rng` module |
//! | T001 | virtual time  | a host-concurrency or host-clock identifier (`thread`, `crossbeam`, `Instant`, `SystemTime`) inside the DES scheduler (`crates/mpi/src/des/`) |
//! | S001 | layering      | a simulator-bypassing identifier (`Cluster`, `run_with_faults`, `run_with_faults_stats`, `retime`) inside the job server (`crates/serve/`) — the service must go through `Engine` so dedupe sees every request |
//! | P001 | policy purity | a simulation-state-mutating identifier (`set_gear`, `Cluster`, the raw `run_with_*` entry points, `retime`, RNG constructors) inside the policy layer (`crates/policy/`) — a policy decides a gear, only the hook installs it |
//!
//! (The C family — cache-key completeness, including P002 for the
//! `RunSpec::policy` encoding — and M001, the metrics boundary, are
//! structural rather than per-token and live in [`crate::cachekey`]
//! and [`crate::metricsrule`].)

use crate::report::{Finding, Severity};
use crate::scan::Tok;

/// Run every per-token rule over one file's token stream; `path` is
/// workspace-relative (`crates/mpi/src/comm.rs`).
pub fn check_tokens(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for ban in BANS.iter().filter(|b| path.contains(b.scope) && !b.exempt.contains(&path)) {
        for (i, t) in toks.iter().enumerate() {
            if ban.banned.iter().any(|b| banned_at(b, toks, i)) {
                out.push(Finding::new(
                    ban.rule,
                    Severity::Error,
                    path,
                    t.line,
                    format!("{} `{}` {}", ban.what, t.text, ban.why),
                ));
            }
        }
    }
    unit_suffixes(path, toks, &mut out);
    out
}

// --------------------------------------------------------------------
// F001, T001, S001, P001 — scoped identifier bans
// --------------------------------------------------------------------

/// Inside files whose path contains `scope` (except `exempt`), every
/// token in `banned` is a finding — even in an unused import.
struct Ban {
    rule: &'static str,
    scope: &'static str,
    exempt: &'static [&'static str],
    /// Banned identifiers; an entry ending in `::` bans the path head
    /// (`rand::`), not the bare name.
    banned: &'static [&'static str],
    /// Message text before and after the offending identifier.
    what: &'static str,
    why: &'static str,
}

const BANS: &[Ban] = &[
    // Every draw in psc-faults routes through the counter-keyed
    // `FaultRng`, so fault streams are worker-count independent.
    Ban {
        rule: "F001",
        scope: "crates/faults/",
        exempt: &["crates/faults/src/rng.rs"],
        banned: &[
            "thread_rng",
            "from_entropy",
            "RandomState",
            "fastrand",
            "rand::",
            "splitmix64",
            "SmallRng",
            "StdRng",
        ],
        what: "stochastic construct",
        why: "outside the rng module — every draw in psc-faults must route through the \
              counter-keyed FaultRng::keyed(seed, parts)",
    },
    // The DES scheduler advances a *virtual* clock by popping an event
    // heap on one host thread, so any OS-thread primitive, channel or
    // host-clock name there is a determinism hole by construction. The
    // threaded backend's primitives live above the fabric seam in
    // `comm.rs`, which this rule deliberately does not cover.
    Ban {
        rule: "T001",
        scope: "crates/mpi/src/des/",
        exempt: &[],
        banned: &["thread", "crossbeam", "Instant", "SystemTime"],
        what: "host-concurrency identifier",
        why: "inside the DES scheduler — the scheduler is single-threaded virtual time; \
              thread/channel/host-clock primitives belong above the fabric seam \
              (crates/mpi/src/comm.rs), never in crates/mpi/src/des/",
    },
    // The job server reaches simulations only through
    // `psc_runner::Engine`, whose three-way dedupe (memory cache, disk
    // cache, in-flight table) is what makes concurrent identical specs
    // collapse to one execution; callers inject an engine (or an engine
    // factory, for the replay driver) instead.
    Ban {
        rule: "S001",
        scope: "crates/serve/",
        exempt: &[],
        banned: &["Cluster", "run_with_faults", "run_with_faults_stats", "retime"],
        what: "simulator-bypassing identifier",
        why: "inside the job server — crates/serve/ must run specs only through \
              psc_runner::Engine so the cache and in-flight dedupe see every request; build \
              the engine at the call site and inject it",
    },
    // A policy is a pure function of the `Observation` it is handed: it
    // *returns* a gear (the hook installs it and bills the DVFS stall),
    // never installs one, never drives a cluster, and never draws
    // randomness — no policy seed reaches the cache key, so any draw
    // would repeat across runs or alias distinct specs. `Static(g)` is
    // byte-identical to a policy-free gear-`g` run only while this holds.
    Ban {
        rule: "P001",
        scope: "crates/policy/",
        exempt: &[],
        banned: &[
            "set_gear",
            "Cluster",
            "run_with_faults",
            "run_with_faults_stats",
            "run_with_policy",
            "run_with_policy_stats",
            "retime",
            "SmallRng",
            "StdRng",
            "splitmix64",
            "FaultRng",
        ],
        what: "simulation-state-mutating identifier",
        why: "inside the policy layer — a policy is a pure function of its Observation: it \
              returns a gear through the hook (crates/mpi/src/comm.rs::policy_step) and never \
              installs one, drives a cluster, or draws randomness",
    },
];

/// Whether the token at `i` is the banned name `entry`.
fn banned_at(entry: &str, toks: &[Tok], i: usize) -> bool {
    match entry.strip_suffix("::") {
        Some(head) => toks[i].text == head && toks.get(i + 1).is_some_and(|n| n.text == ":"),
        None => toks[i].text == entry,
    }
}

// --------------------------------------------------------------------
// U001 — unit-suffix discipline
// --------------------------------------------------------------------

/// Quantity words that must never terminate a public scalar name: the
/// name should end in the unit instead (`energy_j`, `power_w`, ...).
const BARE_STEMS: &[&str] = &[
    "energy",
    "power",
    "time",
    "freq",
    "frequency",
    "watts",
    "joules",
    "seconds",
    "hertz",
    "latency",
    "duration",
    "volts",
    "wattage",
];

/// The accepted unit suffixes (`crates/machine/src/lib.rs` "Units").
pub const UNIT_SUFFIXES: &[&str] = &["j", "w", "s", "hz", "mhz", "ghz", "v", "ms", "us"];

fn bare_stem(name: &str) -> Option<&'static str> {
    let last = name.rsplit('_').next().unwrap_or(name);
    BARE_STEMS.iter().find(|&&s| s == last).copied()
}

fn unit_suffixes(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "pub" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // pub(crate) / pub(in path) restrictions.
        if toks.get(j).is_some_and(|t| t.text == "(") {
            let mut depth = 1;
            j += 1;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        let Some(head) = toks.get(j) else { break };
        match head.text.as_str() {
            "fn" => {
                if let Some(f) = check_pub_fn(path, toks, j + 1) {
                    out.push(f);
                }
            }
            // A field: `pub name: f64` (struct context). Skip keywords
            // that introduce non-field items.
            "struct" | "enum" | "mod" | "use" | "const" | "static" | "type" | "trait" | "impl"
            | "unsafe" | "async" | "crate" | "in" => {}
            _ if head.is_ident()
                && toks.get(j + 1).is_some_and(|t| t.text == ":")
                && toks.get(j + 2).is_some_and(|t| t.text != ":") =>
            {
                let ty = &toks[j + 2].text;
                let scalar = ty == "f64" || ty == "f32";
                let terminated = toks.get(j + 3).is_some_and(|t| t.text == "," || t.text == "}");
                if scalar && terminated {
                    if let Some(stem) = bare_stem(&head.text) {
                        out.push(unit_finding(path, head, stem, "field"));
                    }
                }
            }
            _ => {}
        }
        i = j + 1;
    }
}

fn check_pub_fn(path: &str, toks: &[Tok], mut i: usize) -> Option<Finding> {
    let name = toks.get(i)?.clone();
    // Skip generics to the parameter list.
    while i < toks.len() && toks[i].text != "(" {
        if toks[i].text == "{" || toks[i].text == ";" {
            return None;
        }
        i += 1;
    }
    // Skip the parameter list.
    let mut depth = 0;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // `-> f64` (or f32), directly: a scalar quantity return.
    if toks.get(i).is_some_and(|t| t.text == "-")
        && toks.get(i + 1).is_some_and(|t| t.text == ">")
        && toks.get(i + 2).is_some_and(|t| t.text == "f64" || t.text == "f32")
        && toks.get(i + 3).is_some_and(|t| t.text == "{" || t.text == ";" || t.text == "where")
    {
        if let Some(stem) = bare_stem(&name.text) {
            return Some(unit_finding(path, &name, stem, "function"));
        }
    }
    None
}

fn unit_finding(path: &str, tok: &Tok, stem: &str, kind: &str) -> Finding {
    Finding::new(
        "U001",
        Severity::Warning,
        path,
        tok.line,
        format!(
            "public {kind} `{}` carries a {stem} value without a unit suffix — name the unit \
             (`_j` joules, `_w` watts, `_s` seconds, `_hz`/`_mhz` frequency, `_v` volts)",
            tok.text
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::tokenize;

    fn rules_on(src: &str, path: &str) -> Vec<Finding> {
        check_tokens(path, &tokenize(src))
    }

    #[test]
    fn rng_rule_reports_f001_inside_faults() {
        let src = "fn f() { let r = thread_rng(); let s = rand::random(); }";
        let f = rules_on(src, "crates/faults/src/plan.rs");
        assert_eq!(f.iter().map(|f| f.rule.as_str()).collect::<Vec<_>>(), ["F001", "F001"]);
        assert!(rules_on(src, "crates/faults/src/rng.rs").is_empty());
        assert!(rules_on(src, "crates/model/src/x.rs").is_empty());
    }

    #[test]
    fn raw_splitmix_outside_rng_module_is_impure() {
        let src = "fn f(s: &mut u64) -> u64 { splitmix64(s) }";
        let f = rules_on(src, "crates/faults/src/plan.rs");
        assert_eq!(f[0].rule, "F001");
        assert!(rules_on(src, "crates/faults/src/rng.rs").is_empty());
    }

    #[test]
    fn unit_rule_wants_suffixes_on_quantity_names() {
        let bad = "pub struct S { pub energy: f64, pub power: f64 }";
        let f = rules_on(bad, "crates/machine/src/x.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "U001").count(), 2);

        let good = "pub struct S { pub energy_j: f64, pub idle_power_w: f64, pub time_scale: f64 }";
        assert!(rules_on(good, "crates/machine/src/x.rs").is_empty());
    }

    #[test]
    fn unit_rule_checks_scalar_returning_pub_fns() {
        let bad = "impl S { pub fn total_energy(&self) -> f64 { 0.0 } }";
        let f = rules_on(bad, "crates/mpi/src/x.rs");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "U001");

        let good = "impl S { pub fn total_energy_j(&self) -> f64 { 0.0 } \
                    pub fn frequency_ratio(&self) -> f64 { 1.0 } }";
        assert!(rules_on(good, "crates/mpi/src/x.rs").is_empty());
    }

    #[test]
    fn des_path_bans_thread_channel_and_clock_idents() {
        // Bare identifiers fire — even an unused import is a finding.
        let src = "use std::thread; use crossbeam::channel::Receiver; \
                   fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let f = rules_on(src, "crates/mpi/src/des/mod.rs");
        let t001: Vec<_> = f.iter().filter(|f| f.rule == "T001").map(|f| f.line).collect();
        assert_eq!(t001.len(), 4, "thread, crossbeam, Instant, SystemTime each fire: {f:?}");
        // Identical tokens outside the scheduler path are T001-clean
        // (clippy's disallowed-methods still bans the clock reads there).
        let elsewhere = rules_on(src, "crates/mpi/src/comm.rs");
        assert!(elsewhere.iter().all(|f| f.rule != "T001"));
        // The scheduler as written is virtual-time only.
        for path in ["crates/mpi/src/des/mod.rs", "crates/mpi/src/des/coro.rs"] {
            let rel = path.strip_prefix("crates/mpi/src/des/").unwrap();
            let src = std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../mpi/src/des").join(rel),
            )
            .expect("des sources exist");
            let f = rules_on(&src, path);
            assert!(f.iter().all(|f| f.rule != "T001"), "{path} violates its own boundary: {f:?}");
        }
    }

    #[test]
    fn serve_path_bans_simulator_bypass_idents() {
        // Bare identifiers fire — even an unused import is a finding.
        let src = "use psc_machine::Cluster; \
                   fn f(c: &Cluster) { let r = run_with_faults(c); run_with_faults_stats(c); } \
                   fn g(e: &Engine) { e.cluster().retime(&cfg, None, None, &s); }";
        let f = rules_on(src, "crates/serve/src/server.rs");
        let s001: Vec<_> = f.iter().filter(|f| f.rule == "S001").collect();
        assert_eq!(s001.len(), 5, "Cluster (twice) and the three raw entry points fire: {f:?}");
        // Identical tokens outside the serve path are S001-clean — the
        // CLI crate is where the cluster gets built.
        let elsewhere = rules_on(src, "crates/cli/src/main.rs");
        assert!(elsewhere.iter().all(|f| f.rule != "S001"));
        // The job server as written honours its own boundary.
        for rel in ["lib.rs", "proto.rs", "queue.rs", "replay.rs", "server.rs"] {
            let path = format!("crates/serve/src/{rel}");
            let src = std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../serve/src").join(rel),
            )
            .expect("serve sources exist");
            let f = rules_on(&src, &path);
            assert!(f.iter().all(|f| f.rule != "S001"), "{path} violates its own boundary: {f:?}");
        }
    }

    #[test]
    fn policy_path_bans_simulation_mutating_idents() {
        // Bare identifiers fire — even an unused import is a finding.
        let src = "use psc_mpi::cluster::Cluster; \
                   fn f(c: &mut Comm) { c.set_gear(3); let r = StdRng::seed_from_u64(7); }";
        let f = rules_on(src, "crates/policy/src/adaptive.rs");
        let p001: Vec<_> = f.iter().filter(|f| f.rule == "P001").collect();
        assert_eq!(p001.len(), 3, "Cluster, set_gear, StdRng each fire: {f:?}");
        // Identical tokens outside the policy path are P001-clean —
        // comm.rs is exactly where set_gear belongs.
        let elsewhere = rules_on(src, "crates/mpi/src/comm.rs");
        assert!(elsewhere.iter().all(|f| f.rule != "P001"));
        // The policy crate as written honours its own boundary.
        for rel in ["lib.rs", "adaptive.rs", "powercap.rs", "oracle.rs"] {
            let path = format!("crates/policy/src/{rel}");
            let src = std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../policy/src").join(rel),
            )
            .expect("policy sources exist");
            let f = rules_on(&src, &path);
            assert!(f.iter().all(|f| f.rule != "P001"), "{path} violates its own boundary: {f:?}");
        }
    }

    #[test]
    fn unit_rule_ignores_non_scalar_and_private_items() {
        let src = "struct S { energy: f64 } pub struct T { pub energy: Option<f64> } \
                   pub fn times(&self) -> Vec<f64> { vec![] }";
        assert!(rules_on(src, "crates/mpi/src/x.rs").is_empty());
    }
}
