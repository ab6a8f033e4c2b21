//! Runtime DVFS: the paper's future work, running.
//!
//! "Third, we will develop a new MPI implementation that will
//! automatically monitor executing programs and automatically reduce
//! the energy gear appropriately." (paper §5)
//!
//! This example runs a program of EP-like CPU-bound and CG-like
//! memory-bound phases, each in a span named after its kind, under the
//! `phase-adaptive` policy with a 10 % slowdown limit. The policy reads
//! the hardware counters when a phase name first closes (UPM is
//! gear-invariant, so one window suffices) and, at every later start of
//! that phase, shifts to the energy-minimal gear within the limit,
//! paying the DVFS transition cost each time. Compare against running
//! everything at gear 1.
//!
//! ```sh
//! cargo run --release --example runtime_dvfs
//! ```

use powerscale::machine::WorkBlock;
use powerscale::mpi::ClusterPolicy;
use powerscale::prelude::*;

/// A named phase and its µops per L2 miss.
type Phase = (&'static str, f64);
const EP: Phase = ("ep", 844.0);
const CG: Phase = ("cg", 8.6);

const ADAPTIVE: PolicySpec = PolicySpec::PhaseAdaptive { slowdown_limit: 1.10 };

/// Long runs of similar phases (the common case in iterative HPC codes)
/// and adversarial strict alternation.
fn programs() -> [(&'static str, Vec<Phase>); 2] {
    [
        ("blocked phases (EEEEECCCCC)", [[EP; 5], [CG; 5]].concat()),
        ("alternating phases (ECECECECEC)", [EP, CG].repeat(5)),
    ]
}

/// Run `phases` on one node from gear 1, under `policy` if given.
/// Returns the run and the gear each phase ran at.
fn run(
    cluster: &Cluster,
    phases: &[Phase],
    policy: Option<&dyn ClusterPolicy>,
) -> (RunResult, Vec<usize>) {
    let (run, mut gears) =
        cluster.run_with_policy(&ClusterConfig::uniform(1, 1), None, policy, |comm| {
            let phase = |&(name, upm): &Phase| {
                comm.span(name, |comm| {
                    comm.compute(&WorkBlock::with_upm(8.0e9, upm));
                    comm.gear().index
                })
            };
            phases.iter().map(phase).collect::<Vec<usize>>()
        });
    (run, gears.remove(0))
}

fn main() {
    let cluster = Cluster::athlon_fast_ethernet();
    println!("DVFS transition cost: {:.0} µs per switch\n", cluster.node.dvfs_transition_s * 1e6);

    for (label, phases) in programs() {
        let (base, _) = run(&cluster, &phases, None);
        let (adapt, gears) = run(&cluster, &phases, Some(&ADAPTIVE));
        println!("{label}:");
        println!("  gear trace: {gears:?}");
        println!(
            "  gear 1 only: {:>7.2} s, {:>7.0} J | adaptive: {:>7.2} s, {:>7.0} J",
            base.time_s, base.energy_j, adapt.time_s, adapt.energy_j
        );
        println!(
            "  → {:+.1}% energy, {:+.1}% time\n",
            100.0 * (adapt.energy_j / base.energy_j - 1.0),
            100.0 * (adapt.time_s / base.time_s - 1.0)
        );
    }

    println!(
        "The policy profiles each phase name once, at gear 1, and from then on\n\
         opens it at its own gear, so both orders save the same energy. A\n\
         reactive controller that picks the next phase's gear from the last\n\
         phase's counters would match it on blocked phases and run every\n\
         alternating phase at the other kind's gear — permanently one phase\n\
         behind. Named phases are what runtime DVFS needs (cf. Ge/Feng/\n\
         Cameron's and Hsu/Feng's later runtime systems)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_programs_save_energy_within_the_slowdown_limit() {
        let cluster = Cluster::athlon_fast_ethernet();
        for (label, phases) in programs() {
            let (base, _) = run(&cluster, &phases, None);
            let (adapt, _) = run(&cluster, &phases, Some(&ADAPTIVE));
            assert!(
                adapt.energy_j < base.energy_j,
                "{label}: {} J vs {} J",
                adapt.energy_j,
                base.energy_j
            );
            assert!(
                adapt.time_s <= 1.10 * base.time_s,
                "{label}: {} s vs {} s",
                adapt.time_s,
                base.time_s
            );
        }
    }
}
