//! The paper campaign: every table and figure of the reproduction, as
//! one table of artifacts run in order on one shared engine.
//!
//! An artifact's body is a function from the [`Campaign`] (the problem
//! class and the engines) to a `Report`: the files it writes and the
//! claims it checks, printing its figure to stdout as it goes.
//! [`Campaign::run`] does the rest alike for every artifact: it prints
//! the energy attribution of the artifact's representative
//! configuration, renders and prints its claim table, and writes its
//! files. Every artifact asks the same Athlon engine (Figure 5 also the
//! Sun one), so a run one figure made is a memory hit for the next,
//! with or without the disk cache.
//!
//! Stdout is a pure function of the arguments: file paths and the
//! run-accounting line go to stderr.

use crate::harness::{engine_for, engine_from_args, sun_cluster, telemetry_snapshot};
use crate::report::{render_claims, write_artifact, Claim};
use policy::fig_policy;
use psc_kernels::Benchmark::{self, Cg, Jacobi, Mg, Synthetic};
use psc_kernels::ProblemClass;
use psc_runner::Engine;
use std::path::PathBuf;

mod ablations;
mod paper;
mod policy;
mod summary;

/// Everything an artifact measures with.
#[derive(Debug)]
pub struct Campaign {
    /// `Test` with `--test`, else class B.
    pub(crate) class: ProblemClass,
    /// The paper's testbed, shared by every artifact.
    pub(crate) athlon: Engine,
    /// The 32-node Sun validation cluster (Figure 5).
    pub(crate) sun: Engine,
    /// A fault-free twin of `athlon`, present only when `athlon`
    /// carries a default fault plan: the fault ladder's baseline.
    pub(crate) fault_free: Option<Engine>,
    /// Where artifacts are written (and where `summary` reads them).
    pub dir: PathBuf,
}

/// What one artifact produced.
#[derive(Debug, Default)]
pub(crate) struct Report {
    /// Files to write under the results directory, in order.
    pub(crate) files: Vec<(&'static str, String)>,
    /// The paper-vs-measured checks it made.
    pub(crate) claims: Vec<Claim>,
}

/// One entry of the campaign table.
#[derive(Debug)]
pub struct Artifact {
    /// The name that selects it on the command line.
    pub name: &'static str,
    /// Title of its claim table.
    title: &'static str,
    /// The file the rendered claim table goes to, appended after
    /// whatever the body put there; `None` prints it only.
    claims_file: Option<&'static str>,
    /// `(bench, nodes, gear)` whose energy attribution it prints.
    snapshot: Option<(Benchmark, usize, usize)>,
    body: fn(&Campaign) -> Report,
}

/// The campaign, in run order (`summary` reads what the figures wrote).
/// A row is [`row`]`(name, title, claims_file, snapshot, body)`.
pub static ARTIFACTS: [Artifact; 11] = [
    row("fig1", "Figure 1 claims", Some("fig1_claims.txt"), Some((Cg, 1, 2)), paper::fig1),
    row("table1", "Table 1 claims", None, None, paper::table1),
    row("fig2", "Figure 2 claims", Some("fig2_claims.txt"), Some((Cg, 4, 2)), paper::fig2),
    row("fig3", "Figure 3 claims", Some("fig3_claims.txt"), Some((Jacobi, 8, 2)), paper::fig3),
    row("fig4", "Figure 4 claims", Some("fig4_claims.txt"), Some((Synthetic, 8, 5)), paper::fig4),
    row("fig5", "Figure 5 claims", Some("fig5_claims.txt"), Some((Mg, 8, 3)), paper::fig5),
    row("claims", "Headline claims (paper §3)", Some("claims.txt"), None, paper::claims),
    row("ablations", "Ablation claims", Some("ablations.txt"), None, ablations::ablations),
    row("fig_policy", "Policy figure claims", Some("fig_policy_claims.txt"), None, fig_policy),
    row("ablate-faults", "Fault-robustness claims", None, None, ablations::ablate_faults),
    row("summary", "Summary claims", None, None, summary::summary),
];

/// One [`Artifact`], its fields in declaration order.
const fn row(
    name: &'static str,
    title: &'static str,
    claims_file: Option<&'static str>,
    snapshot: Option<(Benchmark, usize, usize)>,
    body: fn(&Campaign) -> Report,
) -> Artifact {
    Artifact { name, title, claims_file, snapshot, body }
}

impl Campaign {
    /// The campaign the command line asks for: `--test` picks the
    /// class; `--jobs`, `--faults` and `--fault-seed` configure the
    /// engines as [`engine_from_args`] does (the fault-free twin keeps
    /// only `--jobs`). Artifacts land in `dir`.
    pub fn from_args(args: &[String], dir: PathBuf) -> Campaign {
        let athlon = engine_from_args(args);
        Campaign {
            class: if args.iter().any(|a| a == "--test") {
                ProblemClass::Test
            } else {
                ProblemClass::B
            },
            fault_free: athlon
                .faults()
                .map(|_| Engine::new(athlon.cluster().clone()).with_jobs(athlon.jobs())),
            athlon,
            sun: engine_for(sun_cluster(), args),
            dir,
        }
    }

    /// Every engine of the campaign, for its run accounting.
    pub fn engines(&self) -> Vec<&Engine> {
        [&self.athlon, &self.sun].into_iter().chain(&self.fault_free).collect()
    }

    /// Run one artifact and its epilogue; return the ids of its failed
    /// claims.
    pub fn run(&self, a: &Artifact) -> Vec<String> {
        let Report { mut files, claims } = (a.body)(self);
        if let Some((bench, nodes, gear)) = a.snapshot {
            let (table, path) =
                telemetry_snapshot(&self.dir, &self.athlon, bench, self.class, nodes, gear);
            let unit = if nodes == 1 { "node" } else { "nodes" };
            println!("Energy attribution ({}, {nodes} {unit}, gear {gear}):", bench.name());
            println!("{table}\n");
            eprintln!("wrote {}", path.display());
        }
        let (text, _) = render_claims(a.title, &claims);
        println!("{text}");
        if let Some(name) = a.claims_file {
            match files.iter_mut().find(|(n, _)| *n == name) {
                Some((_, content)) => content.push_str(&text),
                None => files.push((name, text)),
            }
        }
        for (name, content) in &files {
            eprintln!("wrote {}", write_artifact(&self.dir, name, content).display());
        }
        claims.into_iter().filter(|c| !c.pass).map(|c| c.id).collect()
    }
}
