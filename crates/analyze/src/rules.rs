//! The per-file rule families.
//!
//! | id   | family        | fires on |
//! |------|---------------|----------|
//! | D001 | determinism   | `Instant::now` / `SystemTime::now` / `UNIX_EPOCH` outside an allowlisted host-timing file |
//! | D002 | determinism   | nondeterministically seeded RNG or hasher (`thread_rng`, `from_entropy`, `rand::`, `RandomState`, `fastrand`) |
//! | D003 | determinism   | environment reads (`env::var*`, `env::set_var`) inside a simulation crate |
//! | D004 | determinism   | `HashMap` / `HashSet` inside a simulation crate (iteration order can leak into results) |
//! | U001 | units         | public scalar field or `f64`-returning `pub fn` named after a quantity without its unit suffix |
//! | F001 | fault purity  | a stochastic construct inside `psc-faults` that bypasses the counter-keyed `rng` module |
//! | M001 | observability | `psc_metrics` referenced from a simulation crate other than the runner (the single sanctioned integration point) |
//! | T001 | virtual time  | a host-concurrency or host-clock identifier (`thread`, `crossbeam`, `Instant`, `SystemTime`) inside the DES scheduler (`crates/mpi/src/des/`) |
//! | S001 | layering      | a simulator-bypassing identifier (`Cluster`, `run_with_faults`, `run_with_faults_stats`) inside the job server (`crates/serve/`) — the service must go through `Engine` so dedupe sees every request |
//! | P001 | policy purity | a simulation-state-mutating identifier (`set_gear`, `Cluster`, the raw `run_with_*` entry points, RNG constructors) inside the policy layer (`crates/policy/`) — a policy decides a gear, only the hook installs it |
//!
//! (The C family — cache-key completeness, including P002 for the
//! `RunSpec::policy` encoding — and the structural half of M001 are
//! structural rather than per-token and live in [`crate::cachekey`]
//! and [`crate::metricsrule`].)

use crate::report::{Finding, Severity};
use crate::scan::Tok;

/// What the analyzer knows about the file being scanned: enough to
/// scope the crate-sensitive rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileCtx<'a> {
    /// Workspace-relative path, e.g. `crates/mpi/src/comm.rs`.
    pub path: &'a str,
    /// The crate directory name under `crates/` (`mpi`, `runner`, ...),
    /// or `""` for the root package.
    pub crate_dir: &'a str,
}

/// Crates whose code paths produce simulation results: everything here
/// must be a pure function of (RunSpec, FaultPlan, seed).
pub const SIM_CRATES: &[&str] = &["mpi", "kernels", "machine", "model", "faults", "runner"];

impl FileCtx<'_> {
    /// Whether the file belongs to a simulation crate.
    pub fn is_sim(&self) -> bool {
        SIM_CRATES.contains(&self.crate_dir)
    }

    /// Whether the file is the fault layer's sanctioned RNG module.
    pub fn is_fault_rng_module(&self) -> bool {
        self.path.ends_with("crates/faults/src/rng.rs") || self.path == "crates/faults/src/rng.rs"
    }
}

/// Run every per-token rule over one file's token stream.
pub fn check_tokens(ctx: &FileCtx<'_>, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    wall_clock(ctx, toks, &mut out);
    nondet_rng(ctx, toks, &mut out);
    env_reads(ctx, toks, &mut out);
    unordered_collections(ctx, toks, &mut out);
    unit_suffixes(ctx, toks, &mut out);
    metrics_boundary(ctx, toks, &mut out);
    des_virtual_time_boundary(ctx, toks, &mut out);
    serve_engine_boundary(ctx, toks, &mut out);
    policy_purity_boundary(ctx, toks, &mut out);
    out
}

/// `a :: b` starting at `i`?
fn is_path(toks: &[Tok], i: usize, a: &str, b: &str) -> bool {
    toks.len() > i + 3
        && toks[i].text == a
        && toks[i + 1].text == ":"
        && toks[i + 2].text == ":"
        && toks[i + 3].text == b
}

// --------------------------------------------------------------------
// D001 — wall-clock reads
// --------------------------------------------------------------------

fn wall_clock(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let hit = (is_path(toks, i, "Instant", "now") && t.text == "Instant")
            || (is_path(toks, i, "SystemTime", "now") && t.text == "SystemTime")
            || t.text == "UNIX_EPOCH";
        if hit {
            out.push(Finding::new(
                "D001",
                Severity::Error,
                ctx.path,
                t.line,
                format!(
                    "wall-clock read `{}` — simulated results must not depend on host time; \
                     route host timing through psc_experiments::timing::HostTimer",
                    t.text
                ),
            ));
        }
    }
}

// --------------------------------------------------------------------
// D002 — nondeterministically seeded randomness  (F001 inside psc-faults)
// --------------------------------------------------------------------

const RNG_BANNED: &[&str] = &["thread_rng", "from_entropy", "RandomState", "fastrand"];

fn nondet_rng(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    // Inside psc-faults the same constructs are reported by the
    // stricter F001 rule instead (fault-stream purity).
    if ctx.crate_dir == "faults" {
        fault_stream_purity(ctx, toks, out);
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        let banned = RNG_BANNED.contains(&t.text.as_str())
            || (t.text == "rand" && toks.get(i + 1).is_some_and(|n| n.text == ":"));
        if banned {
            out.push(Finding::new(
                "D002",
                Severity::Error,
                ctx.path,
                t.line,
                format!(
                    "nondeterministically seeded randomness `{}` — derive every draw from an \
                     explicit seed (see psc_faults::rng::FaultRng)",
                    t.text
                ),
            ));
        }
    }
}

// --------------------------------------------------------------------
// F001 — fault-stream purity (psc-faults only)
// --------------------------------------------------------------------

fn fault_stream_purity(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    if ctx.is_fault_rng_module() {
        return; // the sanctioned module itself
    }
    for (i, t) in toks.iter().enumerate() {
        let banned = RNG_BANNED.contains(&t.text.as_str())
            || (t.text == "rand" && toks.get(i + 1).is_some_and(|n| n.text == ":"))
            || t.text == "splitmix64"
            || t.text == "SmallRng"
            || t.text == "StdRng";
        if banned {
            out.push(Finding::new(
                "F001",
                Severity::Error,
                ctx.path,
                t.line,
                format!(
                    "stochastic construct `{}` outside the rng module — every draw in psc-faults \
                     must route through the counter-keyed FaultRng::keyed(seed, parts)",
                    t.text
                ),
            ));
        }
    }
}

// --------------------------------------------------------------------
// D003 — environment reads in simulation crates
// --------------------------------------------------------------------

const ENV_FNS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

fn env_reads(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    if !ctx.is_sim() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.text == "env"
            && toks.get(i + 1).is_some_and(|n| n.text == ":")
            && toks.get(i + 3).is_some_and(|n| ENV_FNS.contains(&n.text.as_str()))
        {
            out.push(Finding::new(
                "D003",
                Severity::Warning,
                ctx.path,
                t.line,
                format!(
                    "environment read `env::{}` in simulation crate psc-{} — results must be a \
                     pure function of (RunSpec, FaultPlan, seed)",
                    toks[i + 3].text,
                    ctx.crate_dir
                ),
            ));
        }
    }
}

// --------------------------------------------------------------------
// D004 — unordered collections in simulation crates
// --------------------------------------------------------------------

fn unordered_collections(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    if !ctx.is_sim() {
        return;
    }
    for t in toks {
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(Finding::new(
                "D004",
                Severity::Warning,
                ctx.path,
                t.line,
                format!(
                    "unordered collection `{}` in simulation crate psc-{} — iteration order can \
                     leak into manifests and CSVs; use BTreeMap/BTreeSet or keyed lookups only",
                    t.text, ctx.crate_dir
                ),
            ));
        }
    }
}

// --------------------------------------------------------------------
// M001 — metrics observation-only boundary (token half)
// --------------------------------------------------------------------

/// Simulation crates must not observe themselves: `psc_metrics` may be
/// referenced only by the runner (where the structural half of M001 —
/// [`crate::metricsrule`] — keeps it out of the result path) and by
/// non-simulation crates (CLI, experiments, telemetry).
fn metrics_boundary(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    if !ctx.is_sim() || ctx.crate_dir == "runner" {
        return;
    }
    for t in toks.iter().filter(|t| t.text == "psc_metrics") {
        out.push(Finding::new(
            "M001",
            Severity::Error,
            ctx.path,
            t.line,
            format!(
                "`psc_metrics` referenced from simulation crate psc-{} — metrics are \
                 observation-only and integrate solely through the runner's engine",
                ctx.crate_dir
            ),
        ));
    }
}

// --------------------------------------------------------------------
// T001 — the DES scheduler's virtual-time boundary
// --------------------------------------------------------------------

/// Identifiers that have no business inside the discrete-event
/// scheduler: the scheduler advances a *virtual* clock by popping an
/// event heap on one host thread, so any OS-thread primitive, channel,
/// or host-clock read there is a determinism hole by construction.
const DES_BANNED: &[&str] = &["thread", "crossbeam", "Instant", "SystemTime"];

/// The DES scheduler (`crates/mpi/src/des/`) must stay purely
/// virtual-time and single-threaded. D001 already bans `Instant::now`
/// everywhere; this rule is stricter on the scheduler path — the bare
/// identifiers are banned outright, so even importing a thread or
/// channel type (without calling it) is a finding. The threaded
/// backend's primitives live above the fabric seam in `comm.rs`, which
/// this rule deliberately does not cover.
fn des_virtual_time_boundary(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    if !ctx.path.contains("crates/mpi/src/des/") {
        return;
    }
    for t in toks.iter().filter(|t| DES_BANNED.contains(&t.text.as_str())) {
        out.push(Finding::new(
            "T001",
            Severity::Error,
            ctx.path,
            t.line,
            format!(
                "host-concurrency identifier `{}` inside the DES scheduler — the scheduler is \
                 single-threaded virtual time; thread/channel/host-clock primitives belong above \
                 the fabric seam (crates/mpi/src/comm.rs), never in crates/mpi/src/des/",
                t.text
            ),
        ));
    }
}

// --------------------------------------------------------------------
// S001 — the job server's engine-only boundary
// --------------------------------------------------------------------

/// Identifiers that would let the job server bypass the engine:
/// constructing a `Cluster` or calling the raw simulation entry points
/// directly would skip the run cache, the in-flight table, and the
/// metrics registry — exactly the layers the service exists to share.
const SERVE_BANNED: &[&str] = &["Cluster", "run_with_faults", "run_with_faults_stats"];

/// The job server (`crates/serve/`) must reach simulations only through
/// `psc_runner::Engine`, whose three-way dedupe (memory cache, disk
/// cache, in-flight table) is what makes concurrent identical specs
/// collapse to one execution. Naming the cluster or the raw kernel
/// entry points there — even in an import — is a layering violation:
/// callers inject an engine (or an engine factory, for the replay
/// driver) instead.
fn serve_engine_boundary(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    if !ctx.path.contains("crates/serve/") {
        return;
    }
    for t in toks.iter().filter(|t| SERVE_BANNED.contains(&t.text.as_str())) {
        out.push(Finding::new(
            "S001",
            Severity::Error,
            ctx.path,
            t.line,
            format!(
                "simulator-bypassing identifier `{}` inside the job server — crates/serve/ must \
                 run specs only through psc_runner::Engine so the cache and in-flight dedupe see \
                 every request; build the engine at the call site and inject it",
                t.text
            ),
        ));
    }
}

// --------------------------------------------------------------------
// P001 — the policy layer's pure-decision boundary
// --------------------------------------------------------------------

/// Identifiers that mutate or re-run simulation state. A policy is a
/// pure function of the `Observation` snapshot it is handed: it may
/// *return* a gear (the hook installs it and bills the DVFS stall),
/// never install one itself, never construct or drive a cluster, and
/// never draw randomness — not even seeded randomness, because a
/// policy has no seed of its own in the cache key, so any draw would
/// either repeat across runs or silently alias distinct specs.
const POLICY_BANNED: &[&str] = &[
    "set_gear",
    "Cluster",
    "run_with_faults",
    "run_with_faults_stats",
    "run_with_policy",
    "run_with_policy_stats",
    "SmallRng",
    "StdRng",
    "splitmix64",
    "FaultRng",
];

/// The policy layer (`crates/policy/`) must stay decision-only: its
/// whole contract is that `Static(g)` is byte-identical to a
/// policy-free gear-`g` run, which only holds if the crate cannot
/// touch simulation state at all. As with T001/S001, the bare
/// identifiers are banned outright — even an unused import of
/// `Cluster` or a gear setter is a finding.
fn policy_purity_boundary(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    if !ctx.path.contains("crates/policy/") {
        return;
    }
    for t in toks.iter().filter(|t| POLICY_BANNED.contains(&t.text.as_str())) {
        out.push(Finding::new(
            "P001",
            Severity::Error,
            ctx.path,
            t.line,
            format!(
                "simulation-state-mutating identifier `{}` inside the policy layer — a policy \
                 is a pure function of its Observation: it returns a gear through the hook \
                 (crates/mpi/src/comm.rs::policy_step) and never installs one, drives a \
                 cluster, or draws randomness",
                t.text
            ),
        ));
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

fn unit_suffixes(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
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
                if let Some(f) = check_pub_fn(ctx, toks, j + 1) {
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
                        out.push(unit_finding(ctx, head, stem, "field"));
                    }
                }
            }
            _ => {}
        }
        i = j + 1;
    }
}

fn check_pub_fn(ctx: &FileCtx<'_>, toks: &[Tok], mut i: usize) -> Option<Finding> {
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
            return Some(unit_finding(ctx, &name, stem, "function"));
        }
    }
    None
}

fn unit_finding(ctx: &FileCtx<'_>, tok: &Tok, stem: &str, kind: &str) -> Finding {
    Finding::new(
        "U001",
        Severity::Warning,
        ctx.path,
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

    fn ctx<'a>(path: &'a str, crate_dir: &'a str) -> FileCtx<'a> {
        FileCtx { path, crate_dir }
    }

    fn rules_on(src: &str, path: &str, crate_dir: &str) -> Vec<Finding> {
        check_tokens(&ctx(path, crate_dir), &tokenize(src))
    }

    #[test]
    fn wall_clock_fires_everywhere_but_strings() {
        let f = rules_on("fn f() { let t = Instant::now(); }", "crates/cli/src/main.rs", "cli");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D001");
        assert!(rules_on("// Instant::now", "a.rs", "cli").is_empty());
    }

    #[test]
    fn env_and_hash_rules_scope_to_sim_crates() {
        let src = "use std::collections::HashMap; fn f() { let v = std::env::var(\"X\"); }";
        let sim = rules_on(src, "crates/mpi/src/x.rs", "mpi");
        let ids: Vec<_> = sim.iter().map(|f| f.rule.as_str()).collect();
        assert!(ids.contains(&"D003") && ids.contains(&"D004"));
        assert!(rules_on(src, "crates/cli/src/main.rs", "cli").is_empty());
    }

    #[test]
    fn rng_rule_reports_f001_inside_faults() {
        let src = "fn f() { let r = thread_rng(); }";
        assert_eq!(rules_on(src, "crates/model/src/x.rs", "model")[0].rule, "D002");
        assert_eq!(rules_on(src, "crates/faults/src/plan.rs", "faults")[0].rule, "F001");
        assert!(rules_on(src, "crates/faults/src/rng.rs", "faults").is_empty());
    }

    #[test]
    fn raw_splitmix_outside_rng_module_is_impure() {
        let src = "fn f(s: &mut u64) -> u64 { splitmix64(s) }";
        let f = rules_on(src, "crates/faults/src/plan.rs", "faults");
        assert_eq!(f[0].rule, "F001");
        assert!(rules_on(src, "crates/faults/src/rng.rs", "faults").is_empty());
    }

    #[test]
    fn unit_rule_wants_suffixes_on_quantity_names() {
        let bad = "pub struct S { pub energy: f64, pub power: f64 }";
        let f = rules_on(bad, "crates/machine/src/x.rs", "machine");
        assert_eq!(f.iter().filter(|f| f.rule == "U001").count(), 2);

        let good = "pub struct S { pub energy_j: f64, pub idle_power_w: f64, pub time_scale: f64 }";
        assert!(rules_on(good, "crates/machine/src/x.rs", "machine").is_empty());
    }

    #[test]
    fn unit_rule_checks_scalar_returning_pub_fns() {
        let bad = "impl S { pub fn total_energy(&self) -> f64 { 0.0 } }";
        let f = rules_on(bad, "crates/mpi/src/x.rs", "mpi");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "U001");

        let good = "impl S { pub fn total_energy_j(&self) -> f64 { 0.0 } \
                    pub fn frequency_ratio(&self) -> f64 { 1.0 } }";
        assert!(rules_on(good, "crates/mpi/src/x.rs", "mpi").is_empty());
    }

    #[test]
    fn metrics_imports_are_banned_in_sim_crates_except_runner() {
        let src = "use psc_metrics::Stopwatch; fn f() { let sw = Stopwatch::start(); }";
        let f = rules_on(src, "crates/mpi/src/comm.rs", "mpi");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "M001");
        // The runner is the sanctioned integration point…
        assert!(rules_on(src, "crates/runner/src/metrics.rs", "runner").is_empty());
        // …and non-sim crates may consume metrics freely.
        assert!(rules_on(src, "crates/cli/src/main.rs", "cli").is_empty());
    }

    #[test]
    fn des_path_bans_thread_channel_and_clock_idents() {
        // Bare identifiers fire — even an unused import is a finding.
        let src = "use std::thread; use crossbeam::channel::Receiver; \
                   fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let f = rules_on(src, "crates/mpi/src/des/mod.rs", "mpi");
        let t001: Vec<_> = f.iter().filter(|f| f.rule == "T001").map(|f| f.line).collect();
        assert_eq!(t001.len(), 4, "thread, crossbeam, Instant, SystemTime each fire: {f:?}");
        // Identical tokens outside the scheduler path are T001-clean
        // (D001 still covers the clock reads there).
        let elsewhere = rules_on(src, "crates/mpi/src/comm.rs", "mpi");
        assert!(elsewhere.iter().all(|f| f.rule != "T001"));
        // The scheduler as written is virtual-time only.
        for path in ["crates/mpi/src/des/mod.rs", "crates/mpi/src/des/coro.rs"] {
            let rel = path.strip_prefix("crates/mpi/src/des/").unwrap();
            let src = std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../mpi/src/des").join(rel),
            )
            .expect("des sources exist");
            let f = rules_on(&src, path, "mpi");
            assert!(f.iter().all(|f| f.rule != "T001"), "{path} violates its own boundary: {f:?}");
        }
    }

    #[test]
    fn serve_path_bans_simulator_bypass_idents() {
        // Bare identifiers fire — even an unused import is a finding.
        let src = "use psc_machine::Cluster; \
                   fn f(c: &Cluster) { let r = run_with_faults(c); run_with_faults_stats(c); }";
        let f = rules_on(src, "crates/serve/src/server.rs", "serve");
        let s001: Vec<_> = f.iter().filter(|f| f.rule == "S001").collect();
        assert_eq!(s001.len(), 4, "Cluster (twice) and both raw entry points fire: {f:?}");
        // Identical tokens outside the serve path are S001-clean — the
        // CLI crate is where the cluster gets built.
        let elsewhere = rules_on(src, "crates/cli/src/main.rs", "cli");
        assert!(elsewhere.iter().all(|f| f.rule != "S001"));
        // The job server as written honours its own boundary.
        for rel in ["lib.rs", "proto.rs", "queue.rs", "replay.rs", "server.rs"] {
            let path = format!("crates/serve/src/{rel}");
            let src = std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../serve/src").join(rel),
            )
            .expect("serve sources exist");
            let f = rules_on(&src, &path, "serve");
            assert!(f.iter().all(|f| f.rule != "S001"), "{path} violates its own boundary: {f:?}");
        }
    }

    #[test]
    fn policy_path_bans_simulation_mutating_idents() {
        // Bare identifiers fire — even an unused import is a finding.
        let src = "use psc_mpi::cluster::Cluster; \
                   fn f(c: &mut Comm) { c.set_gear(3); let r = StdRng::seed_from_u64(7); }";
        let f = rules_on(src, "crates/policy/src/adaptive.rs", "policy");
        let p001: Vec<_> = f.iter().filter(|f| f.rule == "P001").collect();
        assert_eq!(p001.len(), 3, "Cluster, set_gear, StdRng each fire: {f:?}");
        // Identical tokens outside the policy path are P001-clean —
        // comm.rs is exactly where set_gear belongs.
        let elsewhere = rules_on(src, "crates/mpi/src/comm.rs", "mpi");
        assert!(elsewhere.iter().all(|f| f.rule != "P001"));
        // The policy crate as written honours its own boundary.
        for rel in ["lib.rs", "adaptive.rs", "powercap.rs", "oracle.rs"] {
            let path = format!("crates/policy/src/{rel}");
            let src = std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../policy/src").join(rel),
            )
            .expect("policy sources exist");
            let f = rules_on(&src, &path, "policy");
            assert!(f.iter().all(|f| f.rule != "P001"), "{path} violates its own boundary: {f:?}");
        }
    }

    #[test]
    fn unit_rule_ignores_non_scalar_and_private_items() {
        let src = "struct S { energy: f64 } pub struct T { pub energy: Option<f64> } \
                   pub fn times(&self) -> Vec<f64> { vec![] }";
        assert!(rules_on(src, "crates/mpi/src/x.rs", "mpi").is_empty());
    }
}
