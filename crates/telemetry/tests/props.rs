//! Property-based tests of the telemetry layer: for *any* SPMD program
//! — including arbitrary span nesting, gear shifts, and ranks finishing
//! at different times — attribution must conserve energy, spans must
//! stay well formed, and traces must survive a serialization round
//! trip unchanged.

use proptest::prelude::*;
use psc_machine::WorkBlock;
use psc_mpi::{Cluster, ClusterConfig, RankTrace, ReduceOp};
use psc_telemetry::{EnergyCategory, RunAttribution};
use serde::json;

/// One randomized, SPMD-consistent program step. Span begins/ends are
/// generated unbalanced on purpose: `End` with no open span is skipped,
/// and spans still open at the end are closed by finalize — both paths
/// must keep the trace well formed.
#[derive(Debug, Clone)]
enum Step {
    SpanBegin(u8),
    SpanEnd,
    Compute { uops: f64, upm: f64 },
    Allreduce { len: usize },
    Barrier,
    SetGear(usize),
    SkewedCompute { uops: f64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..4).prop_map(Step::SpanBegin),
        Just(Step::SpanEnd),
        (1.0e6..2.0e8f64, 2.0..900.0f64).prop_map(|(uops, upm)| Step::Compute { uops, upm }),
        (1usize..32).prop_map(|len| Step::Allreduce { len }),
        Just(Step::Barrier),
        (1usize..=6).prop_map(Step::SetGear),
        (1.0e6..2.0e8f64).prop_map(|uops| Step::SkewedCompute { uops }),
    ]
}

fn execute(comm: &mut psc_mpi::Comm, steps: &[Step]) {
    let mut open = 0usize;
    for step in steps {
        match step {
            Step::SpanBegin(k) => {
                comm.span_begin(&format!("phase-{k}"));
                open += 1;
            }
            Step::SpanEnd => {
                if open > 0 {
                    comm.span_end();
                    open -= 1;
                }
            }
            Step::Compute { uops, upm } => comm.compute(&WorkBlock::with_upm(*uops, *upm)),
            Step::Allreduce { len } => {
                let _ = comm.allreduce(vec![1.0; *len], ReduceOp::Sum);
            }
            Step::Barrier => comm.barrier(),
            Step::SetGear(g) => comm.set_gear(*g),
            Step::SkewedCompute { uops } => {
                // Rank-dependent work so ranks finish at different times
                // and early finishers get idle-padded power traces.
                let scale = (comm.rank() + 1) as f64;
                comm.compute(&WorkBlock::cpu_only(uops * scale));
            }
        }
    }
    // Any spans still open are closed by finalize.
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Per-rank and cluster-wide attributed energy equal the exact
    /// power-trace integrals: the attribution partitions every joule.
    #[test]
    fn attribution_conserves_energy(
        steps in proptest::collection::vec(step_strategy(), 1..14),
        n in 1usize..5,
        gear in 1usize..=6,
    ) {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) =
            c.run(&ClusterConfig::uniform(n, gear), move |comm| execute(comm, &steps));
        let attr = RunAttribution::of_run(&run);
        for (ra, rank) in attr.ranks.iter().zip(&run.ranks) {
            let exact = rank.power.exact_energy_j();
            let sum: f64 = ra.categories.iter().map(|s| s.energy_j).sum();
            prop_assert!(
                (sum - exact).abs() <= 1e-9 * exact.abs().max(1e-12),
                "rank {}: attributed {sum} vs exact {exact}", ra.rank
            );
            prop_assert!(
                (ra.phased_j + ra.unphased_j - ra.total_j).abs()
                    <= 1e-9 * ra.total_j.abs().max(1e-12)
            );
            // No category may be negative.
            for s in &ra.categories {
                prop_assert!(s.energy_j >= -1e-12 && s.time_s >= -1e-12);
            }
        }
        prop_assert!(
            (attr.attributed_j() - run.energy_j).abs()
                <= 1e-9 * run.energy_j.abs().max(1e-12)
        );
    }

    /// Span traces produced through the Comm API are always well
    /// nested, whatever begin/end sequence the program issued.
    #[test]
    fn spans_are_always_well_nested(
        steps in proptest::collection::vec(step_strategy(), 1..16),
        n in 1usize..4,
    ) {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) =
            c.run(&ClusterConfig::uniform(n, 2), move |comm| execute(comm, &steps));
        for r in &run.ranks {
            prop_assert!(r.trace.spans_well_nested(), "rank {} spans malformed", r.rank);
            // Spans never extend past the program end.
            for s in r.trace.spans() {
                prop_assert!(s.t_end_s <= r.trace.end_s + 1e-12);
                prop_assert!(s.t_start_s <= s.t_end_s);
            }
        }
    }

    /// A rank trace survives a JSON round trip with event, span, and
    /// gear-shift ordering intact — recorded, or re-timed from the
    /// recording's skeleton (sharing its shape), whose JSON is a full
    /// run's.
    #[test]
    fn rank_trace_roundtrips_through_serde(
        steps in proptest::collection::vec(step_strategy(), 1..12),
        n in 1usize..4,
    ) {
        let c = Cluster::athlon_fast_ethernet();
        let program = |comm: &mut psc_mpi::Comm| execute(comm, &steps);
        let (run, _, _, skeleton) =
            c.run_recorded(&ClusterConfig::uniform(n, 3), None, None, program);
        let retimed = c.retime(&ClusterConfig::uniform(n, 5), None, None, &skeleton);
        let full = c.run(&ClusterConfig::uniform(n, 5), program).0;
        for (r, f) in retimed.ranks.iter().zip(&full.ranks) {
            prop_assert_eq!(json::to_string(&r.trace), json::to_string(&f.trace));
        }
        for r in run.ranks.iter().chain(&retimed.ranks) {
            let text = json::to_string(&r.trace);
            let back: RankTrace = json::from_str(&text).expect("trace must parse back");
            prop_assert_eq!(back.events(), r.trace.events());
            prop_assert_eq!(back.spans(), r.trace.spans());
            prop_assert_eq!(back.gear_shifts(), r.trace.gear_shifts());
            prop_assert!((back.end_s - r.trace.end_s).abs() < 1e-15);
            // Ordering is part of the contract: enter times must stay
            // monotone after the round trip.
            for (a, b) in back.events().zip(back.events().skip(1)) {
                prop_assert!(a.t_enter_s <= b.t_enter_s + 1e-12);
            }
        }
    }

    /// The gear a program shifts to shows up both in the trace marks
    /// and in the DVFS stall category.
    #[test]
    fn gear_shifts_are_attributed(
        gear in 2usize..=6,
        n in 1usize..4,
    ) {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) = c.run(&ClusterConfig::uniform(n, 1), move |comm| {
            comm.compute(&WorkBlock::cpu_only(1.0e8));
            comm.set_gear(gear);
            comm.compute(&WorkBlock::cpu_only(1.0e8));
        });
        let attr = RunAttribution::of_run(&run);
        for r in &run.ranks {
            prop_assert_eq!(r.trace.gear_shifts().len(), 1);
            prop_assert_eq!(r.trace.gear_shifts()[0].to_gear, gear);
        }
        let stall = attr
            .categories
            .iter()
            .find(|s| s.category == EnergyCategory::DvfsStall)
            .expect("stall category present");
        let expect_s = c.node.dvfs_transition_s * n as f64;
        prop_assert!((stall.time_s - expect_s).abs() < 1e-9);
    }
}
