//! `psc-analyze` — workspace static analysis for the powerscale
//! reproduction.
//!
//! Every figure, table, and claim in this repository assumes the
//! simulation is a **pure function of (RunSpec, FaultPlan, seed)**: the
//! run cache, the `--jobs 1` vs `--jobs 8` byte-identity gates, and the
//! fault-injection ablations all break silently if a wall-clock read,
//! an unseeded RNG, an unordered iteration, or an unhashed `RunSpec`
//! field sneaks in. Banned *names* (host clocks, hash-ordered
//! collections, random hasher seeds) are clippy's to enforce, through
//! `clippy.toml`. This crate proves what a name ban cannot: that no
//! impurity is *reachable* from a simulation root ([`reach`]), that
//! coroutines never suspend holding a borrow ([`suspend`]), that the
//! cache key covers every input ([`cachekey`], which also owns the
//! P002 policy-encoding check), that metrics stay observation-only
//! ([`metricsrule`]), plus the per-file boundaries of [`rules`]. Where
//! `unsafe` may appear is rustc's and clippy's to enforce, through
//! crate-root lints. It is dependency-light: no `syn`, a small
//! hand-rolled token scanner ([`scan`]).
//!
//! ## Suppressions
//!
//! Pragmas are the only suppression:
//!
//! * `// psc-analyze: allow(RULE)` — suppresses the rule on that line
//!   and the next one (so the pragma can sit above the offending line).
//! * `// psc-analyze: allow-file(RULE)` — suppresses the rule for the
//!   whole file.
//!
//! Run it as `powerscale analyze [--deny] [--format json]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cachekey;
pub mod callgraph;
pub mod cli;
pub mod metricsrule;
pub mod modres;
pub mod parse;
pub mod reach;
pub mod report;
pub mod rules;
pub mod scan;
pub mod suspend;

pub use report::{Finding, Report, Severity};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Collect the per-line and per-file `psc-analyze: allow(...)` pragmas
/// from raw source text.
#[derive(Debug, Default)]
struct Allows {
    /// `(line, rule)` pairs; an allow on line L covers L and L+1.
    lines: Vec<(u32, String)>,
    /// Rules allowed for the whole file.
    file: Vec<String>,
}

impl Allows {
    fn parse(src: &str) -> Self {
        let mut a = Allows::default();
        for (idx, line) in src.lines().enumerate() {
            let lineno = idx as u32 + 1;
            for (marker, file_wide) in
                [("psc-analyze: allow-file(", true), ("psc-analyze: allow(", false)]
            {
                if let Some(pos) = line.find(marker) {
                    let rest = &line[pos + marker.len()..];
                    if let Some(end) = rest.find(')') {
                        for rule in rest[..end].split(',') {
                            let rule = rule.trim().to_string();
                            if file_wide {
                                a.file.push(rule);
                            } else {
                                a.lines.push((lineno, rule));
                            }
                        }
                    }
                }
            }
        }
        a
    }

    fn covers(&self, f: &Finding) -> bool {
        self.file.iter().any(|r| r == &f.rule)
            || self
                .lines
                .iter()
                .any(|(l, r)| r == &f.rule && (*l == f.line || l.wrapping_add(1) == f.line))
    }
}

/// Analyze one file's source text as `rel_path` (workspace-relative)
/// with the per-file rules. This is the entry point the fixture tests
/// drive directly.
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let allows = Allows::parse(src);
    let toks = scan::strip_cfg_test(&scan::tokenize(src));
    rules::check_tokens(rel_path, &toks).into_iter().filter(|f| !allows.covers(f)).collect()
}

/// The crate directory a workspace-relative path belongs to: `mpi` for
/// `crates/mpi/src/comm.rs`, `""` for the root package.
fn crate_dir_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(dir)) => dir.to_string(),
        _ => String::new(),
    }
}

/// Find the workspace root: walk upward from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Every analyzable source file of the workspace, as workspace-relative
/// paths: `crates/*/src/**/*.rs` plus the root package's `src/`.
/// Vendored stub crates, tests, benches, and examples are out of scope
/// (they are not part of the simulation's result path).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), root, &mut files)?;
        }
    }
    collect_rs(&root.join("src"), root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Run the full analysis over the workspace at `root`. Each source is
/// read and tokenized once, into one [`modres::WorkspaceIr`]; the
/// per-file rules, the interprocedural R/K/X families over its call
/// graph, and the structural C/M checks all run over that IR.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let ir = modres::WorkspaceIr::build(root)?;
    let graph = callgraph::CallGraph::build(&ir);
    let mut findings: Vec<Finding> =
        ir.files.iter().flat_map(|f| rules::check_tokens(&f.path, &f.toks)).collect();
    findings.extend(reach::check(&ir, &graph));
    findings.extend(reach::check_kernel_blindness(&ir, &graph));
    findings.extend(suspend::check(&ir, &graph));

    // Pragmas suppress findings in the file that carries them; the
    // structural C and M checks below are not suppressible.
    let allows: BTreeMap<&str, Allows> =
        ir.files.iter().map(|f| (f.path.as_str(), Allows::parse(&f.src))).collect();
    findings.retain(|f| allows.get(f.file.as_str()).is_none_or(|a| !a.covers(f)));
    findings.extend(cachekey::check(&ir));
    findings.extend(metricsrule::check(&ir));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_allow_covers_same_and_next_line() {
        let src = "fn f() {\n    // psc-analyze: allow(S001) legit engine factory\n    let c = Cluster::new();\n    let d = Cluster::new();\n}\n";
        let f = analyze_source("crates/serve/src/server.rs", src);
        assert_eq!(f.len(), 1, "only the unpragma'd name fires: {f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn file_allow_covers_everything() {
        let src = "//! psc-analyze: allow-file(U001)\npub struct S { pub energy: f64 }\npub fn total_power(s: &S) -> f64 { 0.0 }\n";
        assert!(analyze_source("crates/machine/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_of_one_rule_keeps_the_other() {
        let src = "// psc-analyze: allow(U001)\npub struct S { pub energy: f64 }\nfn f() { let c = Cluster::new(); }\n";
        let f = analyze_source("crates/policy/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "P001");
    }

    #[test]
    fn crate_dir_resolution() {
        assert_eq!(crate_dir_of("crates/mpi/src/comm.rs"), "mpi");
        assert_eq!(crate_dir_of("src/lib.rs"), "");
    }
}
