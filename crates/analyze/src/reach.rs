//! R family — transitive purity over the call graph.
//!
//! clippy's `disallowed-methods` bans a name at the site that writes
//! it, and an `#[allow]` exempts a site without saying who calls it. A
//! kernel that calls `util::jitter()` in another crate, where `jitter`
//! reads the host clock under such an `#[allow]` (or reads the
//! environment, which clippy does not ban), breaks replay all the same.
//! The R rules close that hole with whole-program reachability: any
//! function reachable from the simulation roots must not reach a
//! banned sink, except through the explicitly allowlisted chokepoints,
//! and every finding reports the complete call chain so the laundering
//! path is visible in the diagnostic.
//!
//! | id   | sink class | banned callees |
//! |------|------------|----------------|
//! | R001 | host clock | `Instant::now`, `SystemTime::now` |
//! | R002 | nondeterministic RNG | `thread_rng`, `from_entropy`, `RandomState`, `fastrand::*` |
//! | R003 | environment | `env::var*`, `env::set_var`, `env::remove_var` |
//! | R004 | host concurrency | `thread::spawn`, `thread::scope`, `.spawn` |
//! | R005 | self-observation | any `psc-metrics` function (path-precise edges only) |
//!
//! **Roots** — where purity is load-bearing:
//! * `Engine::execute_spec` (what a run computes),
//! * every function in `psc-kernels` (the nine benchmark programs),
//! * every function in `psc-faults` (the deterministic fault streams).
//!
//! **Chokepoints** — reached but never expanded through, and exempt
//! from sink matching inside them:
//! * `crates/faults/src/rng.rs` — the counter-keyed fault RNG (F001's
//!   sanctioned module);
//! * `crates/runner/src/metrics.rs` — `EngineMetrics`, the M001
//!   observation boundary;
//! * `Cluster::drive_threaded` — the threaded backend's scoped
//!   fork-join, deterministic by the message-FIFO argument in
//!   DESIGN.md §9 (and byte-compared against the DES backend in CI).
//!
//! Method-call edges are name-resolved without type inference, so they
//! over-approximate. For the distinctively-named sinks (R001–R004)
//! that is harmless; for R005 — where half the workspace has a method
//! named `get` or `set` — sink matching uses path-precise edges only,
//! and M001's manifest check covers the method-shaped remainder: a
//! simulation crate that does not declare `psc-metrics` cannot call
//! into it at all.
//!
//! ## K001 — kernels are gear- and clock-blind
//!
//! The same reachability pass carries one more invariant. The engine
//! answers every spec of a `(kernel, class, nodes)` tuple after the
//! first by re-timing the kernel's recorded skeleton under other gears,
//! policies and fault plans (DESIGN.md, "Skeleton replay tier"); that
//! is exact only if a kernel's control flow cannot observe any of them.
//! So no function reachable from `crates/kernels/` may call
//! `Comm::{gear, now_s, counters, node, set_gear}` — everything on a
//! `Comm` that reads the gear, the clock or the hardware model, plus
//! the one call that would make a gear *request* conditional on them.
//! The walk does not expand through `psc-mpi` (the runtime reads its
//! own gear on the kernel's behalf in every `compute`); method edges
//! are name-resolved, so a kernel-side `.gear()` on any receiver fires —
//! the right default for this rule.

use crate::callgraph::{CallGraph, Target};
use crate::modres::{FnId, WorkspaceIr};
use crate::parse::CallKind;
use crate::report::{Finding, Severity};
use std::collections::BTreeSet;

/// Files whose functions are chokepoints: reached, never expanded.
pub const CHOKEPOINT_FILES: &[&str] = &["crates/faults/src/rng.rs", "crates/runner/src/metrics.rs"];

/// Function-level chokepoints, matched by id suffix.
pub const CHOKEPOINT_FNS: &[&str] = &["Cluster::drive_threaded"];

/// One sink family.
struct SinkFamily {
    rule: &'static str,
    what: &'static str,
    advice: &'static str,
    /// Does this external callee (rendered name) belong to the family?
    matches_external: fn(&str) -> bool,
    /// Are method-shape edges eligible (see module docs)?
    include_methods: bool,
}

fn is_clock_sink(name: &str) -> bool {
    name.ends_with("Instant::now") || name.ends_with("SystemTime::now")
}

fn is_rng_sink(name: &str) -> bool {
    let last = name.rsplit(':').next().unwrap_or(name);
    matches!(last, "thread_rng" | "from_entropy" | "RandomState")
        || name.starts_with("fastrand")
        || name.contains("::fastrand")
}

fn is_env_sink(name: &str) -> bool {
    const FNS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];
    match name.rsplit_once("::") {
        Some((head, last)) => (head == "env" || head.ends_with("::env")) && FNS.contains(&last),
        None => false,
    }
}

fn is_thread_sink(name: &str) -> bool {
    name.ends_with("thread::spawn") || name.ends_with("thread::scope") || name == ".spawn"
}

const FAMILIES: &[SinkFamily] = &[
    SinkFamily {
        rule: "R001",
        what: "host clock read",
        advice: "route host timing through psc_metrics::clock, outside the simulation roots",
        matches_external: is_clock_sink,
        include_methods: true,
    },
    SinkFamily {
        rule: "R002",
        what: "nondeterministically seeded randomness",
        advice: "derive every draw from the counter-keyed psc_faults::rng::FaultRng",
        matches_external: is_rng_sink,
        include_methods: true,
    },
    SinkFamily {
        rule: "R003",
        what: "environment read",
        advice: "thread configuration through RunSpec instead",
        matches_external: is_env_sink,
        include_methods: true,
    },
    SinkFamily {
        rule: "R004",
        what: "host thread spawn",
        advice: "host concurrency belongs in Cluster::drive_threaded or the engine pool, \
                 never below the simulation roots",
        matches_external: is_thread_sink,
        include_methods: true,
    },
    SinkFamily {
        rule: "R005",
        what: "psc-metrics self-observation",
        advice: "metrics integrate solely through EngineMetrics (crates/runner/src/metrics.rs)",
        matches_external: |n| n.starts_with("psc_metrics"),
        include_methods: false,
    },
];

/// Whether a function id is a chokepoint (by defining file or by id).
pub fn is_chokepoint(ir: &WorkspaceIr, id: &FnId) -> bool {
    if CHOKEPOINT_FNS.iter().any(|s| id.ends_with(s)) {
        return true;
    }
    ir.item(id).is_some_and(|(file, _)| CHOKEPOINT_FILES.contains(&file.path.as_str()))
}

/// The R-family roots present in this workspace.
pub fn roots(ir: &WorkspaceIr) -> Vec<FnId> {
    let mut out = Vec::new();
    for (id, r) in &ir.fns {
        let dir = ir.files[r.file].crate_dir.as_str();
        if id.ends_with("Engine::execute_spec") && dir == "runner" {
            out.push(id.clone());
        }
        if dir == "kernels" || dir == "faults" {
            out.push(id.clone());
        }
    }
    out
}

/// Run the R family over the workspace call graph.
pub fn check(ir: &WorkspaceIr, graph: &CallGraph) -> Vec<Finding> {
    let roots = roots(ir);
    let parent = graph.reach(roots.iter(), |id| is_chokepoint(ir, id));
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, String, u32)> = BTreeSet::new();

    for (id, _) in parent.iter() {
        if is_chokepoint(ir, id) {
            continue; // sinks inside a chokepoint are the sanctioned path
        }
        let Some(edges) = graph.edges.get(id) else { continue };
        for e in edges {
            for fam in FAMILIES {
                if e.kind == CallKind::Method && !fam.include_methods {
                    continue;
                }
                let hit = match &e.target {
                    Target::External(name) => (fam.matches_external)(name),
                    Target::Fn(callee) => {
                        fam.rule == "R005"
                            && e.kind != CallKind::Method
                            && ir.item(callee).is_some_and(|(f, _)| f.crate_dir == "metrics")
                            && !is_chokepoint(ir, callee)
                    }
                };
                if !hit {
                    continue;
                }
                if !seen.insert((fam.rule.to_string(), e.file.clone(), e.line)) {
                    continue;
                }
                let sink = match &e.target {
                    Target::External(name) => name.clone(),
                    Target::Fn(callee) => callee.clone(),
                };
                let chain = CallGraph::chain(&parent, id);
                out.push(Finding::new(
                    fam.rule,
                    Severity::Error,
                    &e.file,
                    e.line,
                    format!(
                        "{} `{}` reachable from simulation root `{}` — {}; call chain: {} → `{}`",
                        fam.what,
                        sink,
                        chain.first().cloned().unwrap_or_default(),
                        fam.advice,
                        CallGraph::render_chain(&chain),
                        sink
                    ),
                ));
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out
}

/// `Comm` methods a kernel may not reach (K001).
pub const KERNEL_BLIND_TO: &[&str] = &["gear", "now_s", "counters", "node", "set_gear"];

/// K001: no function reachable from a `psc-kernels` function — without
/// walking through the `psc-mpi` runtime itself — calls a `Comm` method
/// that reads or sets the gear, the clock or the hardware model.
pub fn check_kernel_blindness(ir: &WorkspaceIr, graph: &CallGraph) -> Vec<Finding> {
    let crate_of = |id: &FnId| ir.item(id).map(|(f, _)| f.crate_dir.as_str());
    let roots: Vec<FnId> =
        ir.fns.keys().filter(|id| crate_of(id) == Some("kernels")).cloned().collect();
    let in_runtime = |id: &FnId| crate_of(id) == Some("mpi");
    let parent = graph.reach(roots.iter(), |id| in_runtime(id) || is_chokepoint(ir, id));
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for (id, _) in parent.iter().filter(|(id, _)| !in_runtime(id)) {
        for e in graph.edges.get(id).into_iter().flatten() {
            let Target::Fn(callee) = &e.target else { continue };
            let Some(method) = callee.strip_prefix("psc_mpi::comm::Comm::") else { continue };
            if !KERNEL_BLIND_TO.contains(&method) || !seen.insert((e.file.clone(), e.line)) {
                continue;
            }
            let chain = CallGraph::chain(&parent, id);
            out.push(Finding::new(
                "K001",
                Severity::Error,
                &e.file,
                e.line,
                format!(
                    "`Comm::{method}` reachable from kernel `{}` — kernels must be blind to the \
                     gear, the clock and the hardware model: skeleton replay re-times their \
                     recorded program under other gears, policies and fault plans; call chain: \
                     {} → `{callee}`",
                    chain.first().cloned().unwrap_or_default(),
                    CallGraph::render_chain(&chain),
                ),
            ));
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> (WorkspaceIr, CallGraph) {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        let ir = WorkspaceIr::from_sources(&owned);
        let graph = CallGraph::build(&ir);
        (ir, graph)
    }

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let (ir, graph) = graph_of(files);
        check(&ir, &graph)
    }

    fn run_k(files: &[(&str, &str)]) -> Vec<Finding> {
        let (ir, graph) = graph_of(files);
        check_kernel_blindness(&ir, &graph)
    }

    #[test]
    fn laundered_clock_read_fires_with_the_full_chain() {
        // The sink sits two crates away from the root, so the finding
        // must carry the whole laundering chain.
        let f = run(&[
            (
                "crates/kernels/src/jacobi.rs",
                "use psc_machine::util::stamp;\npub fn run_jacobi() { stamp(); }",
            ),
            (
                "crates/machine/src/util.rs",
                "pub fn stamp() { helper_now(); }\nfn helper_now() { let t = Instant::now(); }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "R001");
        assert!(
            f[0].message.contains(
                "psc_kernels::jacobi::run_jacobi → psc_machine::util::stamp → \
             psc_machine::util::helper_now"
            ),
            "{}",
            f[0].message
        );
        assert_eq!(f[0].file, "crates/machine/src/util.rs");
    }

    #[test]
    fn chokepoints_absorb_their_sinks() {
        let f = run(&[
            ("crates/faults/src/plan.rs", "pub fn apply() { crate::rng::draw(); }"),
            ("crates/faults/src/rng.rs", "pub fn draw() { let r = thread_rng(); }"),
        ]);
        assert!(f.is_empty(), "the sanctioned rng module absorbs the sink: {f:?}");
    }

    #[test]
    fn unreachable_sinks_stay_silent() {
        let f = run(&[
            ("crates/kernels/src/ep.rs", "pub fn run_ep() { pure_math(); }\nfn pure_math() {}"),
            ("crates/cli/src/main.rs", "fn host_only() { let t = Instant::now(); }"),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    const COMM: (&str, &str) = (
        "crates/mpi/src/comm.rs",
        "pub struct Comm;\nimpl Comm {\n    pub fn gear(&self) -> usize { 1 }\n    \
         pub fn now_s(&self) -> f64 { 0.0 }\n    pub fn rank(&self) -> usize { 0 }\n    \
         pub fn compute(&mut self) { let _g = self.gear(); }\n}",
    );

    #[test]
    fn kernel_reading_the_gear_fires_directly_and_through_a_helper() {
        let f = run_k(&[
            COMM,
            (
                "crates/kernels/src/cg.rs",
                "pub fn run_cg(comm: &mut Comm) {\n    comm.compute();\n    \
                 if comm.gear() > 3 { return; }\n    psc_machine::tune::late(comm);\n}",
            ),
            (
                "crates/machine/src/tune.rs",
                "pub fn late(comm: &Comm) -> bool { comm.now_s() > 1.0 }",
            ),
        ]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "K001"));
        assert_eq!((f[0].file.as_str(), f[0].line), ("crates/kernels/src/cg.rs", 3));
        assert_eq!(f[1].file, "crates/machine/src/tune.rs");
        assert!(
            f[1].message.contains("psc_kernels::cg::run_cg → psc_machine::tune::late"),
            "{}",
            f[1].message
        );
    }

    #[test]
    fn the_runtime_reading_its_own_gear_and_non_kernel_callers_stay_silent() {
        let f = run_k(&[
            COMM,
            (
                "crates/kernels/src/ep.rs",
                "pub fn run_ep(comm: &mut Comm) { comm.compute(); let _r = comm.rank(); }",
            ),
            ("crates/policy/src/lib.rs", "pub fn observe(comm: &Comm) -> usize { comm.gear() }"),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn env_and_thread_sinks_fire_transitively() {
        let f = run(&[(
            "crates/faults/src/plan.rs",
            "pub fn entry() { helper(); }\n\
             fn helper() { let v = std::env::var(\"X\"); std::thread::spawn(|| {}); }",
        )]);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"R003"), "{f:?}");
        assert!(rules.contains(&"R004"), "{f:?}");
    }
}
