//! Kernel output goldens: every kernel's answers, bit for bit.
//!
//! For every benchmark × supported node count ≤ 10 at Test class, each
//! rank's `checksum` / `residual` bits and `iterations`, plus the run's
//! `time_s` / `energy_j` bits at gear 2, must equal the committed
//! golden. A kernel loop may be rewritten for speed (DESIGN.md's kernel
//! arithmetic contract), but never so that one bit of an answer, a
//! message or a charge moves; this file is what says so. The class-B
//! half covers every Jacobi, BT and SP tuple up to 10 nodes, whose row
//! widths, line groups and chunk sizes the Test class does not reach;
//! it is too slow for a debug build and runs under `cargo test --release`.
//!
//! After an intended change to a kernel's answers, regenerate with
//! `PSC_KERNEL_BLESS=1 cargo test --release -p psc-kernels --test output_goldens`.

use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::{Cluster, ClusterConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The gear the goldens are taken at.
const GEAR: usize = 2;

/// One line per `(bench, nodes)` tuple: the run's time and energy bits,
/// then `checksum/residual/iterations` of each rank.
fn render(class: ProblemClass, tuples: &[(Benchmark, usize)]) -> String {
    let cluster = Cluster::athlon_fast_ethernet();
    let mut out = String::new();
    for &(bench, nodes) in tuples {
        let (res, outs) =
            cluster.run(&ClusterConfig::uniform(nodes, GEAR), move |comm| bench.run(comm, class));
        write!(
            out,
            "{} n={nodes} time_s={:016x} energy_j={:016x}",
            bench.name(),
            res.time_s.to_bits(),
            res.energy_j.to_bits()
        )
        .unwrap();
        for o in &outs {
            let residual = o.residual.map_or("-".to_string(), |r| format!("{:016x}", r.to_bits()));
            write!(out, " {:016x}/{residual}/{}", o.checksum.to_bits(), o.iterations).unwrap();
        }
        out.push('\n');
    }
    out
}

fn check(file: &str, rendered: &str) {
    let golden: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", file].iter().collect();
    if std::env::var_os("PSC_KERNEL_BLESS").is_some() {
        std::fs::write(&golden, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
    for (got, want) in rendered.lines().zip(expected.lines()) {
        assert_eq!(
            got,
            want,
            "kernel output drifted from {} — if intentional, regenerate with PSC_KERNEL_BLESS=1",
            golden.display()
        );
    }
    assert_eq!(rendered.lines().count(), expected.lines().count(), "{file}: tuple count");
}

#[test]
fn test_class_outputs_match_goldens() {
    let tuples: Vec<(Benchmark, usize)> = Benchmark::ALL
        .iter()
        .flat_map(|&b| b.valid_nodes(10).into_iter().map(move |n| (b, n)))
        .collect();
    check("test_class.txt", &render(ProblemClass::Test, &tuples));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "class B is release-only")]
fn class_b_outputs_match_goldens() {
    let tuples: Vec<(Benchmark, usize)> = [Benchmark::Jacobi, Benchmark::Bt, Benchmark::Sp]
        .iter()
        .flat_map(|&b| b.valid_nodes(10).into_iter().map(move |n| (b, n)))
        .collect();
    check("class_b.txt", &render(ProblemClass::B, &tuples));
}
