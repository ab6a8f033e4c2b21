//! M family — the metrics observation-only boundary.
//!
//! PR 6 threads `psc-metrics` through the sweep engine. Metrics are
//! host-side *observation*: they read wall clocks and bump atomics, so
//! by construction they must never steer what a simulation computes —
//! otherwise the `--jobs 1` vs `--jobs 8` byte-identity gates and the
//! run cache both break in the quietest possible way (results that
//! depend on how fast the host happened to be).
//!
//! **M001** enforces the boundary statically, in two parts:
//!
//! * a manifest part: no simulation crate other than the runner may
//!   declare `psc-metrics` in its `Cargo.toml`. Without that edge a
//!   crate cannot name `psc_metrics` at all, by path or by method —
//!   the runner is the single sanctioned integration point;
//! * a structural part: inside the runner, the two functions that
//!   *shape results* — `Engine::cache_key` (what a run is) and
//!   `Engine::execute_spec` (what a run computes) — must stay
//!   metrics-free, and no `RunSpec` field may carry metrics state. The
//!   instrumentation lives around those functions, never in them.

use crate::cachekey::{ENGINE, PLAN};
use crate::modres::WorkspaceIr;
use crate::report::{Finding, Severity};

/// Crates whose code paths produce simulation results: everything here
/// must be a pure function of (RunSpec, FaultPlan, seed).
const SIM_CRATES: &[&str] = &["mpi", "kernels", "machine", "model", "faults", "runner"];

/// Identifier shapes that reveal metrics machinery on a result path.
fn is_metrics_ident(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    lower.contains("metrics") || lower.contains("profiler") || lower.contains("stopwatch")
}

/// Run both parts of M001.
pub fn check(ir: &WorkspaceIr) -> Vec<Finding> {
    let m001 =
        |path: &str, line: u32, msg: String| Finding::new("M001", Severity::Error, path, line, msg);
    let mut out = Vec::new();

    for dir in SIM_CRATES.iter().filter(|&&d| d != "runner") {
        if let Some(line) = ir.dependency_line(dir, "metrics") {
            out.push(m001(
                &format!("crates/{dir}/Cargo.toml"),
                line,
                format!(
                    "simulation crate psc-{dir} declares psc-metrics — metrics are \
                     observation-only and integrate solely through the runner's engine"
                ),
            ));
        }
    }

    for fn_name in ["cache_key", "execute_spec"] {
        let Some((body, fn_line)) = ir.method_body(ENGINE, "Engine", fn_name) else {
            out.push(m001(
                ENGINE,
                1,
                format!("fn {fn_name} not found — the metrics-boundary check cannot run"),
            ));
            continue;
        };
        for t in body.iter().filter(|t| t.is_ident() && is_metrics_ident(&t.text)) {
            out.push(m001(
                ENGINE,
                t.line,
                format!(
                    "metrics machinery `{}` inside {fn_name} (declared line {fn_line}) — \
                     metrics are observation-only and must never reach a cache key or a \
                     simulated result; instrument around this function, not in it",
                    t.text
                ),
            ));
        }
    }

    match ir.type_item(PLAN, "struct", "RunSpec") {
        Some(spec) => {
            for f in spec.fields.iter().filter(|f| is_metrics_ident(&f.name)) {
                out.push(m001(
                    PLAN,
                    f.line,
                    format!(
                        "RunSpec field `{}` carries metrics state — a spec must describe a \
                         simulation, never the host observing it",
                        f.name
                    ),
                ));
            }
        }
        None => out.push(m001(
            PLAN,
            1,
            "struct RunSpec not found — the metrics-boundary check cannot run".into(),
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN_OK: &str = "
        pub struct RunSpec {
            pub bench: Benchmark,
            pub gears: GearSelection,
        }
    ";

    const ENGINE_CLEAN: &str = "
        impl Engine {
            pub fn cache_key(&self, spec: &RunSpec) -> u64 {
                fnv1a64(format!(\"{}|{:?}\", spec.bench.name(), spec.gears).as_bytes())
            }
            fn execute_spec(&self, spec: &RunSpec) -> RunResult {
                self.cluster.run(&spec.config(), |comm| spec.bench.run(comm))
            }
        }
    ";

    fn check_metrics_boundary(plan: &str, engine: &str) -> Vec<Finding> {
        check(&WorkspaceIr::from_sources(&[(PLAN, plan), (ENGINE, engine)]))
    }

    #[test]
    fn clean_runner_passes() {
        assert!(check_metrics_boundary(PLAN_OK, ENGINE_CLEAN).is_empty());
    }

    #[test]
    fn metrics_in_cache_key_is_flagged() {
        let bad = ENGINE_CLEAN.replace("fnv1a64(", "let t = self.metrics.stopwatch(); fnv1a64(");
        let f = check_metrics_boundary(PLAN_OK, &bad);
        assert!(!f.is_empty());
        assert!(f.iter().all(|f| f.rule == "M001"));
        assert!(f[0].message.contains("cache_key"));
    }

    #[test]
    fn timing_inside_execute_spec_is_flagged() {
        let bad = ENGINE_CLEAN
            .replace("self.cluster.run(", "let sw = Stopwatch::start(); self.cluster.run(");
        let f = check_metrics_boundary(PLAN_OK, &bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("execute_spec"));
        assert!(f[0].message.contains("Stopwatch"));
    }

    #[test]
    fn metrics_field_on_runspec_is_flagged() {
        let bad = PLAN_OK.replace(
            "pub gears: GearSelection,",
            "pub gears: GearSelection,\n pub metrics_hint: f64,",
        );
        let f = check_metrics_boundary(&bad, ENGINE_CLEAN);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`metrics_hint`"));
    }

    #[test]
    fn missing_functions_are_fatal() {
        let f = check_metrics_boundary(PLAN_OK, "impl Engine {}");
        assert_eq!(f.len(), 2, "both protected functions must exist");
    }
}
