//! Energy attribution: joining the MPI trace with the power trace.
//!
//! A rank's [`PowerTrace`] is a step function of wattage over virtual
//! time; its [`RankTrace`] says *what the rank was doing* at every
//! instant — inside which MPI call, stalled in a DVFS transition,
//! computing, or (after its program ended) idling until the slowest rank
//! finished. Integrating the power step function over each activity
//! interval attributes every joule to exactly one category, so the
//! category totals sum back to [`PowerTrace::exact_energy_j`].
//!
//! Phase spans get the same treatment: each named span is charged the
//! energy drawn between its open and close times. Top-level (depth-0)
//! spans are disjoint, so their energies plus the unphased remainder
//! also recover the rank total; nested spans are reported inclusively
//! (their joules also count toward every enclosing span).

use psc_machine::PowerTrace;
use psc_mpi::trace::{MpiOp, RankTrace};
use psc_mpi::RunResult;
use serde::{Deserialize, Serialize};

/// What a rank was doing during an interval of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnergyCategory {
    /// Outside any MPI call, before the program ended: application
    /// compute (the paper's `T^A`).
    Compute,
    /// Inside an MPI call of the given kind (the paper's `T^I`,
    /// split by operation).
    Mpi(MpiOp),
    /// Stalled in a DVFS gear transition (PLL relock / voltage ramp).
    DvfsStall,
    /// After the rank's program ended, idling until the slowest rank
    /// finished (the power-trace padding added by the cluster driver).
    Idle,
}

impl EnergyCategory {
    /// Human-readable label, e.g. `"compute"` or `"mpi:Allreduce"`.
    pub fn label(&self) -> String {
        match self {
            EnergyCategory::Compute => "compute".to_string(),
            EnergyCategory::Mpi(op) => format!("mpi:{op:?}"),
            EnergyCategory::DvfsStall => "dvfs-stall".to_string(),
            EnergyCategory::Idle => "idle".to_string(),
        }
    }
}

/// Time and energy attributed to one [`EnergyCategory`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CategorySlice {
    /// The activity category.
    pub category: EnergyCategory,
    /// Total virtual time in this category, seconds.
    pub time_s: f64,
    /// Total energy drawn in this category, joules.
    pub energy_j: f64,
}

/// Time and energy attributed to one named phase (all spans of that
/// name, summed; inclusive of nested spans' costs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseEnergy {
    /// Span name.
    pub name: String,
    /// Number of span instances aggregated.
    pub instances: usize,
    /// Total time inside spans of this name, seconds.
    pub time_s: f64,
    /// Total energy inside spans of this name, joules.
    pub energy_j: f64,
}

/// The attribution of one rank's energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankAttribution {
    /// Rank id.
    pub rank: usize,
    /// The rank's total energy, joules (the power trace's exact
    /// integral; category energies sum to this).
    pub total_j: f64,
    /// Per-category breakdown; categories partition `[0, end]`.
    pub categories: Vec<CategorySlice>,
    /// Per-phase breakdown, aggregated by span name (inclusive).
    pub phases: Vec<PhaseEnergy>,
    /// Energy inside top-level (depth-0) spans, joules.
    pub phased_j: f64,
    /// Energy outside every top-level span, joules
    /// (`total_j - phased_j`).
    pub unphased_j: f64,
}

/// The attribution of a whole run: per-rank plus cluster-wide rollups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunAttribution {
    /// Run wall-clock (virtual) time, seconds.
    pub time_s: f64,
    /// Cumulative energy of all ranks, joules.
    pub total_j: f64,
    /// Cluster-wide category rollup (summed over ranks).
    pub categories: Vec<CategorySlice>,
    /// Cluster-wide phase rollup (summed over ranks, by name).
    pub phases: Vec<PhaseEnergy>,
    /// Per-rank attributions, indexed by rank.
    pub ranks: Vec<RankAttribution>,
}

/// Attribute one rank's energy across categories and phases.
pub fn attribute_rank(rank: usize, trace: &RankTrace, power: &PowerTrace) -> RankAttribution {
    // Build the marked intervals: MPI calls and DVFS stalls. Both lists
    // are time-ordered and mutually disjoint (a stall advances the clock
    // outside any MPI call), so a merge by start time yields a sorted
    // disjoint sequence.
    let mut marked: Vec<(f64, f64, EnergyCategory)> = Vec::new();
    let mut evs = trace.events().iter().peekable();
    let mut shifts = trace.gear_shifts().iter().peekable();
    loop {
        let ev_start = evs.peek().map(|e| e.t_enter_s);
        let sh_start = shifts.peek().map(|s| s.t_s - s.stall_s);
        match (ev_start, sh_start) {
            (Some(e), Some(s)) if s < e => {
                let sh = shifts.next().unwrap();
                marked.push((sh.t_s - sh.stall_s, sh.t_s, EnergyCategory::DvfsStall));
            }
            (Some(_), _) => {
                let ev = evs.next().unwrap();
                marked.push((ev.t_enter_s, ev.t_exit_s, EnergyCategory::Mpi(ev.op)));
            }
            (None, Some(_)) => {
                let sh = shifts.next().unwrap();
                marked.push((sh.t_s - sh.stall_s, sh.t_s, EnergyCategory::DvfsStall));
            }
            (None, None) => break,
        }
    }

    let mut categories: Vec<CategorySlice> = Vec::new();
    let mut add = |cat: EnergyCategory, t0: f64, t1: f64| {
        if t1 <= t0 {
            return;
        }
        let energy_j = power.energy_between(t0, t1);
        let time_s = t1 - t0;
        if let Some(slice) = categories.iter_mut().find(|s| s.category == cat) {
            slice.time_s += time_s;
            slice.energy_j += energy_j;
        } else {
            categories.push(CategorySlice { category: cat, time_s, energy_j });
        }
    };

    // Walk the timeline: gaps between marked intervals are compute, the
    // padding past the program's end is idle.
    let mut cursor = 0.0;
    for (t0, t1, cat) in marked {
        add(EnergyCategory::Compute, cursor, t0);
        add(cat, t0, t1);
        cursor = cursor.max(t1);
    }
    add(EnergyCategory::Compute, cursor, trace.end_s);
    cursor = cursor.max(trace.end_s);
    add(EnergyCategory::Idle, cursor, power.end_s());

    // Phase spans: inclusive per-name aggregation plus the disjoint
    // top-level coverage figure.
    let mut phases: Vec<PhaseEnergy> = Vec::new();
    let mut phased_j = 0.0;
    for span in trace.spans() {
        let energy_j = power.energy_between(span.t_start_s, span.t_end_s);
        if span.depth == 0 {
            phased_j += energy_j;
        }
        if let Some(p) = phases.iter_mut().find(|p| *p.name == *span.name) {
            p.instances += 1;
            p.time_s += span.duration_s();
            p.energy_j += energy_j;
        } else {
            phases.push(PhaseEnergy {
                name: span.name.to_string(),
                instances: 1,
                time_s: span.duration_s(),
                energy_j,
            });
        }
    }

    let total_j = power.exact_energy_j();
    RankAttribution { rank, total_j, categories, phases, phased_j, unphased_j: total_j - phased_j }
}

impl RunAttribution {
    /// Attribute every rank of a run and roll the results up.
    pub fn of_run(run: &RunResult) -> Self {
        let ranks: Vec<RankAttribution> =
            run.ranks.iter().map(|r| attribute_rank(r.rank, &r.trace, &r.power)).collect();

        let mut categories: Vec<CategorySlice> = Vec::new();
        let mut phases: Vec<PhaseEnergy> = Vec::new();
        for ra in &ranks {
            for s in &ra.categories {
                if let Some(acc) = categories.iter_mut().find(|c| c.category == s.category) {
                    acc.time_s += s.time_s;
                    acc.energy_j += s.energy_j;
                } else {
                    categories.push(*s);
                }
            }
            for p in &ra.phases {
                if let Some(acc) = phases.iter_mut().find(|q| q.name == p.name) {
                    acc.instances += p.instances;
                    acc.time_s += p.time_s;
                    acc.energy_j += p.energy_j;
                } else {
                    phases.push(p.clone());
                }
            }
        }

        RunAttribution {
            time_s: run.time_s,
            total_j: ranks.iter().map(|r| r.total_j).sum(),
            categories,
            phases,
            ranks,
        }
    }

    /// Sum of the cluster-wide category energies, joules. Equals
    /// `total_j` up to floating-point rounding — the attribution
    /// invariant the tests enforce.
    pub fn attributed_j(&self) -> f64 {
        self.categories.iter().map(|s| s.energy_j).sum()
    }

    /// A fixed-width text table of the cluster-wide breakdown, for the
    /// CLI and the experiment harness reports.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "energy attribution  (total {:.1} J over {:.3} s)\n",
            self.total_j, self.time_s
        ));
        out.push_str("  category            time_s        J      %E\n");
        let mut cats = self.categories.clone();
        cats.sort_by(|a, b| b.energy_j.total_cmp(&a.energy_j));
        for c in &cats {
            out.push_str(&format!(
                "  {:<18} {:>8.3} {:>8.1} {:>6.1}%\n",
                c.category.label(),
                c.time_s,
                c.energy_j,
                100.0 * c.energy_j / self.total_j.max(f64::MIN_POSITIVE),
            ));
        }
        if !self.phases.is_empty() {
            out.push_str("  phase                 n     time_s        J      %E\n");
            let mut phases = self.phases.clone();
            phases.sort_by(|a, b| b.energy_j.total_cmp(&a.energy_j));
            for p in &phases {
                out.push_str(&format!(
                    "  {:<18} {:>4} {:>10.3} {:>8.1} {:>6.1}%\n",
                    p.name,
                    p.instances,
                    p.time_s,
                    p.energy_j,
                    100.0 * p.energy_j / self.total_j.max(f64::MIN_POSITIVE),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_machine::WorkBlock;
    use psc_mpi::{Cluster, ClusterConfig, ReduceOp};

    fn relative_gap(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
    }

    #[test]
    fn categories_sum_to_exact_energy() {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) = c.run(&ClusterConfig::uniform(4, 2), |comm| {
            comm.span("stress", |comm| {
                comm.compute(&WorkBlock::with_upm(1.0e9, 50.0));
                comm.allreduce(vec![1.0; 64], ReduceOp::Sum);
                comm.set_gear(4);
                comm.compute(&WorkBlock::with_upm(5.0e8, 50.0));
                comm.barrier();
            });
        });
        let attr = RunAttribution::of_run(&run);
        assert!(relative_gap(attr.attributed_j(), run.energy_j) < 1e-9);
        for ra in &attr.ranks {
            let sum: f64 = ra.categories.iter().map(|s| s.energy_j).sum();
            assert!(relative_gap(sum, ra.total_j) < 1e-9, "rank {}", ra.rank);
        }
    }

    #[test]
    fn attribution_sees_all_category_kinds() {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) = c.run(&ClusterConfig::uniform(2, 1), |comm| {
            if comm.rank() == 0 {
                // Rank 0 finishes its compute early and then pays the
                // finalize barrier; rank 1 shifts gears.
                comm.compute(&WorkBlock::cpu_only(1.0e9));
            } else {
                comm.set_gear(3);
                comm.compute(&WorkBlock::cpu_only(4.0e9));
            }
        });
        let attr = RunAttribution::of_run(&run);
        let has = |cat: EnergyCategory| attr.categories.iter().any(|s| s.category == cat);
        assert!(has(EnergyCategory::Compute));
        assert!(has(EnergyCategory::DvfsStall));
        assert!(has(EnergyCategory::Mpi(MpiOp::Finalize)));
    }

    #[test]
    fn phase_energy_covers_spanned_time() {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) = c.run(&ClusterConfig::uniform(1, 1), |comm| {
            comm.span("a", |comm| comm.compute(&WorkBlock::cpu_only(2.0e9)));
            comm.span("b", |comm| comm.compute(&WorkBlock::cpu_only(2.0e9)));
        });
        let attr = RunAttribution::of_run(&run);
        assert_eq!(attr.phases.len(), 2);
        let a = attr.phases.iter().find(|p| p.name == "a").unwrap();
        let b = attr.phases.iter().find(|p| p.name == "b").unwrap();
        // Same work, same gear: same time and energy.
        assert!(relative_gap(a.energy_j, b.energy_j) < 1e-9);
        let ra = &attr.ranks[0];
        // Everything but the (single-rank, message-free) finalize call
        // falls inside the two spans.
        assert!(ra.phased_j > 0.9 * ra.total_j);
        assert!(relative_gap(ra.phased_j + ra.unphased_j, ra.total_j) < 1e-9);
    }

    #[test]
    fn nested_spans_are_inclusive() {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) = c.run(&ClusterConfig::uniform(1, 1), |comm| {
            comm.span("outer", |comm| {
                comm.span("inner", |comm| comm.compute(&WorkBlock::cpu_only(1.0e9)));
                comm.compute(&WorkBlock::cpu_only(1.0e9));
            });
        });
        let attr = RunAttribution::of_run(&run);
        let outer = attr.phases.iter().find(|p| p.name == "outer").unwrap();
        let inner = attr.phases.iter().find(|p| p.name == "inner").unwrap();
        assert!(outer.energy_j > inner.energy_j);
        // The inner span holds half the outer span's compute.
        assert!(relative_gap(inner.energy_j * 2.0, outer.energy_j) < 1e-6);
        // Top-level coverage counts "outer" only once.
        assert!((attr.ranks[0].phased_j - outer.energy_j).abs() < 1e-9);
    }

    #[test]
    fn table_lists_categories_and_phases() {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) = c.run(&ClusterConfig::uniform(2, 1), |comm| {
            comm.compute(&WorkBlock::cpu_only(1.0e8));
            comm.span("halo", |comm| comm.barrier());
        });
        let table = RunAttribution::of_run(&run).table();
        assert!(table.contains("compute"));
        assert!(table.contains("mpi:Barrier"));
        assert!(table.contains("halo"));
    }
}
