//! C family — cache-key completeness.
//!
//! The sweep engine's memoizing cache assumes its key covers everything
//! that shapes a run's outcome. The exact historical failure mode this
//! rule exists for: a field added to `RunSpec` that never reaches
//! `Engine::cache_key`, silently serving stale cached results for specs
//! that differ only in the new field.
//!
//! * **C001** — every field of `struct RunSpec` (in
//!   `crates/runner/src/plan.rs`), whatever its visibility, must be
//!   *referenced* by the body of `Engine::cache_key` (in
//!   `crates/runner/src/engine.rs`). A field is referenced when some
//!   identifier in the body contains its name — `spec.bench` directly,
//!   `resolved_gears()` for `gears`, `effective_faults(spec)` for
//!   `faults`.
//! * **C002** — the nested `FaultPlan` participates via its serde
//!   serialization (`plan.to_json()` inside the key), so `FaultPlan`
//!   must derive `Serialize` and no field may be `#[serde(skip)]`-ed
//!   out of the encoding.
//! * **P002** — same statement for the policy layer: `RunSpec::policy`
//!   reaches the key as `PolicySpec::to_json()` (the `|policy=` tail
//!   appended only when the spec carries one, keeping policy-free keys
//!   byte-stable), so `PolicySpec` (in `crates/policy/src/lib.rs`)
//!   must derive `Serialize` and no variant field may be skipped —
//!   two specs differing only in a skipped knob would alias one
//!   cached result.
//!
//! All three read the struct, enum and method items the parser
//! recovered into the workspace IR; nothing here re-reads a file.

use crate::modres::WorkspaceIr;
use crate::report::{Finding, Severity};

/// Where `RunSpec` is declared.
pub(crate) const PLAN: &str = "crates/runner/src/plan.rs";
/// Where `Engine::cache_key` and `Engine::execute_spec` are declared.
pub(crate) const ENGINE: &str = "crates/runner/src/engine.rs";

/// A type that reaches the cache key through its serde encoding.
struct Encoded {
    rule: &'static str,
    path: &'static str,
    keyword: &'static str,
    name: &'static str,
    /// What one value is called in messages (`plan`), and several.
    noun: &'static str,
    plural: &'static str,
}

const ENCODED: &[Encoded] = &[
    Encoded {
        rule: "C002",
        path: "crates/faults/src/plan.rs",
        keyword: "struct",
        name: "FaultPlan",
        noun: "plan",
        plural: "plans",
    },
    Encoded {
        rule: "P002",
        path: "crates/policy/src/lib.rs",
        keyword: "enum",
        name: "PolicySpec",
        noun: "policy",
        plural: "policies",
    },
];

/// Run C001, C002 and P002.
pub fn check(ir: &WorkspaceIr) -> Vec<Finding> {
    let mut out = check_cache_key(ir);
    for e in ENCODED {
        out.extend(check_encoding(ir, e));
    }
    out
}

/// C001: every field of `RunSpec` is referenced by `Engine::cache_key`.
fn check_cache_key(ir: &WorkspaceIr) -> Vec<Finding> {
    let c001 =
        |path: &str, line: u32, msg: String| Finding::new("C001", Severity::Error, path, line, msg);
    let Some(spec) = ir.type_item(PLAN, "struct", "RunSpec") else {
        return vec![c001(
            PLAN,
            1,
            "struct RunSpec not found — the cache-key completeness check cannot run".into(),
        )];
    };
    let Some((body, fn_line)) = ir.method_body(ENGINE, "Engine", "cache_key") else {
        return vec![c001(
            ENGINE,
            1,
            "fn cache_key not found — every RunSpec field must be hashed into the run-cache key"
                .into(),
        )];
    };
    spec.fields
        .iter()
        .filter(|f| !body.iter().any(|t| t.is_ident() && t.text.contains(&f.name)))
        .map(|f| {
            c001(
                ENGINE,
                fn_line,
                format!(
                    "RunSpec field `{}` (plan.rs:{}) is not referenced by cache_key — a spec \
                     differing only in `{}` would alias a stale cached result",
                    f.name, f.line, f.name
                ),
            )
        })
        .collect()
}

/// C002 / P002: a type embedded in the key by its serde encoding must
/// derive `Serialize` and skip no field.
fn check_encoding(ir: &WorkspaceIr, e: &Encoded) -> Vec<Finding> {
    let finding = |line: u32, msg: String| Finding::new(e.rule, Severity::Error, e.path, line, msg);
    let Some(item) = ir.type_item(e.path, e.keyword, e.name) else {
        return vec![finding(
            1,
            format!(
                "{} {} not found — the cache-key completeness check cannot run",
                e.keyword, e.name
            ),
        )];
    };
    let mut out = Vec::new();
    if !item.derives.iter().any(|d| d == "Serialize") {
        out.push(finding(
            1,
            format!(
                "{} must derive Serialize — the cache key embeds the {}'s JSON encoding",
                e.name, e.noun
            ),
        ));
    }
    for f in item.fields.iter().filter(|f| f.serde_skipped) {
        out.push(finding(
            f.line,
            format!(
                "{} field `{}` is #[serde(skip)]-ed out of the encoding, so it never reaches the \
                 cache key — two {} differing only in `{}` would alias",
                e.name, f.name, e.plural, f.name
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN_SRC: &str = "
        pub struct RunSpec {
            pub bench: Benchmark,
            pub class: ProblemClass,
            pub nodes: usize,
            pub gears: GearSelection,
            pub faults: Option<FaultPlan>,
            pub policy: Option<PolicySpec>,
        }
    ";

    const ENGINE_OK: &str = "
        impl Engine {
            pub fn cache_key(&self, spec: &RunSpec) -> u64 {
                let mut desc = format!(\"{}|{}|{}\", spec.bench.name(), spec.class_tag(), spec.nodes);
                desc.push_str(&format!(\"{:?}\", spec.resolved_gears()));
                if let Some(plan) = self.effective_faults(spec) { desc.push_str(&plan.to_json()); }
                if let Some(policy) = &spec.policy { desc.push_str(&policy.to_json()); }
                fnv1a64(desc.as_bytes())
            }
        }
    ";

    fn c001(plan: &str, engine: &str) -> Vec<Finding> {
        check_cache_key(&WorkspaceIr::from_sources(&[(PLAN, plan), (ENGINE, engine)]))
    }

    #[test]
    fn complete_key_passes() {
        assert!(c001(PLAN_SRC, ENGINE_OK).is_empty());
    }

    #[test]
    fn dropping_a_field_from_the_hash_fails() {
        // Delete the gears contribution while the field stays on RunSpec.
        let engine_bad =
            ENGINE_OK.replace("desc.push_str(&format!(\"{:?}\", spec.resolved_gears()));", "");
        let f = c001(PLAN_SRC, &engine_bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "C001");
        assert!(f[0].message.contains("`gears`"));
    }

    #[test]
    fn adding_an_unhashed_field_fails() {
        // A private field aliases cached results just as a `pub` one does.
        for field in ["pub deadline_s: f64,", "deadline_s: f64,"] {
            let plan_grown = PLAN_SRC.replace(
                "pub faults: Option<FaultPlan>,",
                &format!("pub faults: Option<FaultPlan>,\n {field}"),
            );
            let f = c001(&plan_grown, ENGINE_OK);
            assert_eq!(f.len(), 1, "{field}: {f:?}");
            assert!(f[0].message.contains("`deadline_s`"));
        }
    }

    #[test]
    fn missing_cache_key_fn_is_fatal() {
        let f = c001(PLAN_SRC, "impl Engine {}");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("fn cache_key not found"));
    }

    const FAULTS_OK: &str = "
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        pub struct FaultPlan {
            pub seed: u64,
            pub clock_jitter: Option<ClockJitter>,
        }
    ";

    fn c002(src: &str) -> Vec<Finding> {
        check_encoding(&WorkspaceIr::from_sources(&[(ENCODED[0].path, src)]), &ENCODED[0])
    }

    #[test]
    fn serialized_fault_plan_passes() {
        assert!(c002(FAULTS_OK).is_empty());
    }

    #[test]
    fn serde_skip_on_a_fault_field_fails() {
        for seed in ["#[serde(skip)]\n pub seed: u64,", "#[serde(skip)]\n seed: u64,"] {
            let f = c002(&FAULTS_OK.replace("pub seed: u64,", seed));
            assert_eq!(f.len(), 1, "{seed}: {f:?}");
            assert_eq!(f[0].rule, "C002");
            assert!(f[0].message.contains("`seed`"));
        }
    }

    #[test]
    fn missing_serialize_derive_fails() {
        let f = c002(&FAULTS_OK.replace("Serialize, ", ""));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("derive Serialize"));
    }

    #[test]
    fn dropping_the_policy_contribution_fails() {
        let engine_bad = ENGINE_OK.replace(
            "if let Some(policy) = &spec.policy { desc.push_str(&policy.to_json()); }",
            "",
        );
        let f = c001(PLAN_SRC, &engine_bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "C001");
        assert!(f[0].message.contains("`policy`"));
    }

    const POLICY_OK: &str = "
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        pub enum PolicySpec {
            Static { gear: usize },
            PhaseAdaptive { slowdown_limit: f64 },
            PowerCap { budget_w: f64 },
            Oracle { schedule: Vec<OracleStep> },
        }
    ";

    fn p002(src: &str) -> Vec<Finding> {
        check_encoding(&WorkspaceIr::from_sources(&[(ENCODED[1].path, src)]), &ENCODED[1])
    }

    #[test]
    fn serialized_policy_spec_passes() {
        assert!(p002(POLICY_OK).is_empty());
    }

    #[test]
    fn serde_skip_on_a_policy_field_fails() {
        let bad = POLICY_OK
            .replace("PowerCap { budget_w: f64 },", "PowerCap { #[serde(skip)] budget_w: f64 },");
        let f = p002(&bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "P002");
        assert!(f[0].message.contains("`budget_w`"));
    }

    #[test]
    fn missing_serialize_derive_on_policy_fails() {
        let f = p002(&POLICY_OK.replace("Serialize, ", ""));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("derive Serialize"));
    }

    #[test]
    fn missing_policy_enum_is_fatal() {
        let f = p002("pub struct NotAnEnum;");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("enum PolicySpec not found"));
    }

    #[test]
    fn real_policy_spec_satisfies_its_own_encoding_rule() {
        let src = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../policy/src/lib.rs"),
        )
        .expect("policy sources exist");
        assert!(p002(&src).is_empty());
        let ir = WorkspaceIr::from_sources(&[(ENCODED[1].path, src)]);
        let spec = ir.type_item(ENCODED[1].path, "enum", "PolicySpec").unwrap();
        let names: Vec<&str> = spec.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            ["gear", "slowdown_limit", "budget_w", "schedule"],
            "PolicySpec grew a knob — make sure it reaches the encoding and update this list"
        );
    }
}
