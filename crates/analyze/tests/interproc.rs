//! The interprocedural fixture corpus.
//!
//! Each mini-workspace under `crates/analyze/fixtures/` seeds exactly
//! one rule family — a firing variant and a non-firing twin — and every
//! fixture ships the clean structural boilerplate (runner, faults,
//! policy) so the C/M/P checks stay quiet and the asserted findings
//! isolate the family under test:
//!
//! * `r_firing` / `r_clean` — transitive purity (R001/R003/R004/R005):
//!   the sinks are laundered through helpers in *other* crates, visible
//!   only to the call-graph rules; the firing kernel crate also
//!   declares `psc-metrics`, M001's manifest half. The clean twin
//!   reaches a host clock solely through a chokepoint file (the fault
//!   RNG's module).
//! * `k_firing` / `k_clean` — kernel blindness (K001, riding the R
//!   pass): a kernel branching on `Comm::gear` directly and on
//!   `Comm::now_s` through a helper crate, vs. a kernel that only
//!   computes while the runtime and the policy crate read the gear.
//! * `x_firing` / `x_clean` — suspension safety (X001/X002/X003): a
//!   guard held across `Yielder::suspend` / `arch::switch`, vs. scoped
//!   and explicitly dropped guards.
//!
//! Each firing fixture also carries a committed golden `--format json`
//! report under `fixtures/golden/`, compared byte-for-byte. Regenerate
//! with `PSC_ANALYZE_BLESS=1 cargo test -p psc-analyze --test interproc`.

use psc_analyze::callgraph::CallGraph;
use psc_analyze::modres::WorkspaceIr;
use psc_analyze::{analyze_workspace, find_workspace_root, Finding, Report};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn findings(name: &str) -> Vec<Finding> {
    let root = fixture_root(name);
    assert!(root.is_dir(), "missing fixture workspace {}", root.display());
    analyze_workspace(&root).expect("fixture analyzes")
}

/// Sorted rule ids, duplicates kept — the expected multiset.
fn rules(f: &[Finding]) -> Vec<&str> {
    let mut r: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
    r.sort();
    r
}

// ----------------------------------------------------------------
// R family — transitive purity
// ----------------------------------------------------------------

#[test]
fn r_firing_reports_each_laundered_sink_with_its_chain() {
    let f = findings("r_firing");
    assert_eq!(rules(&f), vec!["M001", "R001", "R003", "R004", "R005"], "{f:?}");

    let m001 = f.iter().find(|f| f.rule == "M001").unwrap();
    assert_eq!((m001.file.as_str(), m001.line), ("crates/kernels/Cargo.toml", 6));

    let r001 = f.iter().find(|f| f.rule == "R001").unwrap();
    assert_eq!(r001.file, "crates/machine/src/util.rs");
    assert!(
        r001.message.contains(
            "psc_kernels::jacobi::run_jacobi → psc_machine::util::stamp → \
             psc_machine::util::helper_now"
        ),
        "the finding must carry the whole laundering chain: {}",
        r001.message
    );

    let r005 = f.iter().find(|f| f.rule == "R005").unwrap();
    assert_eq!(r005.file, "crates/kernels/src/jacobi.rs");
    assert!(r005.message.contains("psc_metrics::counter_inc"), "{}", r005.message);

    for rule in ["R003", "R004"] {
        let hit = f.iter().find(|f| f.rule == rule).unwrap();
        assert_eq!(hit.file, "crates/faults/src/inject.rs", "{hit:?}");
    }
}

#[test]
fn r_clean_chokepoint_absorbs_the_host_clock() {
    let f = findings("r_clean");
    assert!(f.is_empty(), "{f:?}");
}

// ----------------------------------------------------------------
// K001 — kernels are gear- and clock-blind
// ----------------------------------------------------------------

#[test]
fn k_firing_reports_the_direct_and_the_laundered_read() {
    let f = findings("k_firing");
    assert_eq!(rules(&f), vec!["K001", "K001"], "{f:?}");

    let direct = f.iter().find(|f| f.file == "crates/kernels/src/cg.rs").unwrap();
    assert!(direct.message.contains("`Comm::gear`"), "{}", direct.message);

    let laundered = f.iter().find(|f| f.file == "crates/machine/src/tune.rs").unwrap();
    assert!(
        laundered.message.contains(
            "psc_kernels::cg::run_cg → psc_machine::tune::running_late → \
             `psc_mpi::comm::Comm::now_s`"
        ),
        "the finding must carry the chain back to the kernel: {}",
        laundered.message
    );
}

#[test]
fn k_clean_runtime_and_policy_reads_are_not_the_kernels() {
    let f = findings("k_clean");
    assert!(f.is_empty(), "{f:?}");
}

/// The invariant itself, on the real workspace: replay is exact only
/// while this stays empty.
#[test]
fn real_kernels_are_gear_and_clock_blind() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let ir = WorkspaceIr::build(&root).expect("build workspace IR");
    let f = psc_analyze::reach::check_kernel_blindness(&ir, &CallGraph::build(&ir));
    assert!(f.is_empty(), "{f:?}");
    // The sinks the rule names must exist, or it guards nothing.
    for method in psc_analyze::reach::KERNEL_BLIND_TO {
        let id = format!("psc_mpi::comm::Comm::{method}");
        assert!(ir.fns.contains_key(&id), "{id} is gone — update reach::KERNEL_BLIND_TO");
    }
}

// ----------------------------------------------------------------
// X family — suspension safety
// ----------------------------------------------------------------

#[test]
fn x_firing_reports_each_suspension_hazard() {
    let f = findings("x_firing");
    assert_eq!(rules(&f), vec!["X001", "X002", "X003"], "{f:?}");

    let x001 = f.iter().find(|f| f.rule == "X001").unwrap();
    assert_eq!(x001.file, "crates/mpi/src/des/mod.rs");
    assert!(x001.message.contains("`st`"), "{}", x001.message);

    let x003 = f.iter().find(|f| f.rule == "X003").unwrap();
    assert_eq!(x003.file, "crates/mpi/src/des/coro.rs");
    assert!(x003.message.contains("`s`"), "{}", x003.message);
}

#[test]
fn x_clean_scoped_and_dropped_guards_pass() {
    let f = findings("x_clean");
    assert!(f.is_empty(), "{f:?}");
}

// ----------------------------------------------------------------
// Golden reports — the exact `--format json` bytes
// ----------------------------------------------------------------

// ----------------------------------------------------------------
// The real workspace's call graph — coverage floors
// ----------------------------------------------------------------

/// The interprocedural rules are only as good as the graph under them:
/// every workspace crate must contribute functions to the IR, the named
/// anchors of the R and X families must be present, and the blocking
/// receive must sit in the may-suspend set (it is the whole reason the
/// X family exists).
#[test]
fn real_workspace_call_graph_covers_every_crate() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let ir = WorkspaceIr::build(&root).expect("build workspace IR");
    let graph = CallGraph::build(&ir);

    let crates_dir = root.join("crates");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(&crates_dir).unwrap().filter_map(|e| e.ok()) {
        let dir = entry.file_name().to_string_lossy().into_owned();
        if !entry.path().join("src").is_dir() {
            continue;
        }
        let count = ir
            .files
            .iter()
            .filter(|f| f.crate_dir == dir)
            .map(|f| f.items.fns.len())
            .sum::<usize>();
        if count == 0 {
            missing.push(dir);
        }
    }
    assert!(missing.is_empty(), "crates with no parsed functions: {missing:?}");

    // Conservative floor: the workspace holds far more functions than
    // this, but the assert must survive refactors that delete code.
    assert!(ir.fns.len() >= 500, "only {} functions parsed", ir.fns.len());
    assert!(
        graph.edges.values().map(Vec::len).sum::<usize>() >= ir.fns.len(),
        "call graph is implausibly sparse"
    );

    // Named anchors of the R and X families.
    assert!(
        ir.fns.contains_key("psc_runner::engine::Engine::execute_spec"),
        "the R-family root is gone — update reach::roots"
    );
    let may = psc_analyze::suspend::may_suspend_set(&ir, &graph);
    assert!(
        may.iter().any(|id| id.ends_with("::recv_matching")),
        "the blocking receive must be in the may-suspend set; got {} entries",
        may.len()
    );
    assert!(
        may.iter().any(|id| id.ends_with("Yielder::suspend")),
        "the suspension seed itself is missing"
    );
}

#[test]
fn golden_json_reports_are_byte_stable() {
    for name in ["r_firing", "k_firing", "x_firing"] {
        let rendered = Report::new(findings(name)).render_json();
        let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures/golden")
            .join(format!("{name}.json"));
        if std::env::var_os("PSC_ANALYZE_BLESS").is_some() {
            std::fs::write(&golden, &rendered).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
        assert_eq!(
            rendered,
            expected,
            "{name}: json report drifted from {} — if intentional, regenerate with \
             PSC_ANALYZE_BLESS=1",
            golden.display()
        );
    }
}
