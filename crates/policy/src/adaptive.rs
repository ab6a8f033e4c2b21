//! The per-phase adaptive policy.
//!
//! The paper's Table 1 shows that a *whole program's* best gear is
//! predictable from its µops-per-L2-miss ratio (UPM): CPU-bound codes
//! (high UPM) want the fastest gear, memory-bound codes (low UPM)
//! barely slow down when downshifted and save real energy. Programs
//! are not uniform, though — CG's sparse solve and its dense setup
//! want different gears. This policy applies the paper's predictor at
//! phase granularity, online:
//!
//! 1. The first time a named phase runs, profile it: the counter
//!    window handed to [`PhaseAdaptiveRank::decide`] at the phase's
//!    close gives its µop count, L2 misses, and blocked time.
//! 2. From then on, at every start of that phase, shift to the gear
//!    the node's own time/power model predicts is energy-minimal for
//!    that mix — provided the predicted phase time stays within the
//!    configured slowdown limit of the fastest gear, and the predicted
//!    saving covers the two DVFS transition stalls the round trip
//!    costs.
//! 3. At the close of a *nested* phase, restore the gear that was in
//!    effect when it started (a stack, so nested phases compose: the
//!    enclosing phase resumes at its own chosen gear). At the close of
//!    a *top-level* phase the rank stays put: in span-tiled kernels
//!    the next phase opens immediately and shifts straight to its own
//!    gear, so a restore to the configured gear would only buy two
//!    extra DVFS stalls per phase boundary.
//!
//! Decisions are memoized per phase name after first profile, so the
//! policy never flip-flops between gears for the same phase.

use psc_machine::{NodeSpec, WorkBlock};
use psc_mpi::{Observation, PolicyEvent, RankPolicy};
use std::collections::BTreeMap;

/// One profiled phase: the work its counters described and the time it
/// spent blocked in message-passing calls (gear-invariant).
#[derive(Debug, Clone, Copy)]
struct Profile {
    work: WorkBlock,
    idle_s: f64,
}

/// Per-rank state of the phase-adaptive policy. See the module docs.
#[derive(Debug)]
pub struct PhaseAdaptiveRank {
    slowdown_limit: f64,
    node: NodeSpec,
    profiles: BTreeMap<String, Profile>,
    /// Memoized per-phase gear choice, settled right after profiling.
    choices: BTreeMap<String, usize>,
    /// Gear in effect when each currently-open phase started, innermost
    /// last; popped (and restored) at the matching phase end.
    restore: Vec<usize>,
}

impl PhaseAdaptiveRank {
    /// Build the policy for one rank. `slowdown_limit` is the maximum
    /// tolerated ratio of predicted phase time to predicted phase time
    /// at the fastest gear (≥ 1.0).
    pub fn new(slowdown_limit: f64, node: &NodeSpec) -> Self {
        PhaseAdaptiveRank {
            slowdown_limit,
            node: node.clone(),
            profiles: BTreeMap::new(),
            choices: BTreeMap::new(),
            restore: Vec::new(),
        }
    }

    /// The gear this policy has settled on for `phase`, if it has
    /// profiled it and decided.
    pub fn choice_for(&self, phase: &str) -> Option<usize> {
        self.choices.get(phase).copied()
    }
}

/// Model-predicted time and energy of `work` plus `idle_s` of blocking
/// at a gear.
fn predict(node: &NodeSpec, work: &WorkBlock, idle_s: f64, gear_index: usize) -> (f64, f64) {
    let gear = node.gear(gear_index);
    let t = node.compute_time_s(work, gear) + idle_s;
    let e = node.compute_energy_j(work, gear) + idle_s * node.idle_power_w(gear);
    (t, e)
}

/// The gear-choice rule: the energy-minimal gear for `work` plus
/// `idle_s` of blocking, among the gears whose predicted time stays
/// within `slowdown_limit` × the fastest gear's.
///
/// `stay` is the gear the work would otherwise run at; it is always
/// admissible. Every other gear also pays `shift_s` of transition
/// stall, charged in full to time and at (at most) the fastest gear's
/// idle power to energy, matching how `set_gear` bills the stall. Ties
/// go to `stay`, then to the faster gear.
///
/// [`PhaseAdaptiveRank`] passes a round trip of two DVFS stalls. A gear
/// set before the run starts (`powerscale advise`) passes `idle_s = 0`
/// and `shift_s = 0`, and `f64::INFINITY` for the unbounded minimum.
pub fn choose_gear(
    node: &NodeSpec,
    work: &WorkBlock,
    idle_s: f64,
    stay: usize,
    slowdown_limit: f64,
    shift_s: f64,
) -> usize {
    let (t_fastest, _) = predict(node, work, idle_s, 1);
    let (_, e_stay) = predict(node, work, idle_s, stay);
    let shift_j = shift_s * node.idle_power_w(node.gears.fastest());
    let mut best = stay;
    let mut best_j = e_stay;
    for g in 1..=node.gears.len() {
        let (t, mut e) = predict(node, work, idle_s, g);
        if g != stay {
            if t + shift_s > slowdown_limit * t_fastest {
                continue;
            }
            e += shift_j;
        }
        if e < best_j {
            best = g;
            best_j = e;
        }
    }
    best
}

impl RankPolicy for PhaseAdaptiveRank {
    fn decide(&mut self, obs: &Observation<'_>) -> Option<usize> {
        match obs.event {
            PolicyEvent::PhaseStart { name, .. } => {
                self.restore.push(obs.gear_index);
                if let Some(&gear) = self.choices.get(name) {
                    return Some(gear);
                }
                if let Some(p) = self.profiles.get(name) {
                    // A round trip: shift in now, and out at a nested close.
                    let shift_s = 2.0 * self.node.dvfs_transition_s;
                    let gear = choose_gear(
                        &self.node,
                        &p.work,
                        p.idle_s,
                        obs.gear_index,
                        self.slowdown_limit,
                        shift_s,
                    );
                    self.choices.insert(name.to_string(), gear);
                    return Some(gear);
                }
                None
            }
            PolicyEvent::PhaseEnd { name, depth, .. } => {
                if !self.profiles.contains_key(name) {
                    self.profiles.insert(
                        name.to_string(),
                        Profile {
                            work: WorkBlock::new(obs.window.uops, obs.window.l2_misses),
                            idle_s: obs.window.idle_s,
                        },
                    );
                }
                let saved = self.restore.pop();
                // Only a nested close restores: the enclosing phase must
                // resume at its own gear. A top-level close stays put and
                // lets the next phase shift directly (module docs, step 3).
                if depth > 0 {
                    saved.map(Some).unwrap_or(None)
                } else {
                    None
                }
            }
            PolicyEvent::OpExit { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_machine::{presets, Counters};

    fn obs<'a>(
        node: &'a NodeSpec,
        counters: &'a Counters,
        window: &'a Counters,
        gear_index: usize,
        event: PolicyEvent<'a>,
    ) -> Observation<'a> {
        Observation {
            rank: 0,
            size: 1,
            now_s: 1.0,
            gear_index,
            node,
            counters,
            window,
            window_s: window.total_s(),
            energy_so_far_j: 0.0,
            event,
        }
    }

    fn window(uops: f64, l2_misses: f64, idle_s: f64, node: &NodeSpec) -> Counters {
        let mut c = Counters::default();
        c.record_compute(
            &WorkBlock::new(uops, l2_misses),
            node.compute_time_s(&WorkBlock::new(uops, l2_misses), node.gear(1)),
            node.gear(1).freq_hz,
        );
        c.record_idle(idle_s);
        c
    }

    #[test]
    fn memory_bound_phase_downshifts_after_first_profile() {
        let node = presets::athlon64();
        let mut p = PhaseAdaptiveRank::new(1.10, &node);
        let totals = Counters::default();
        // CG-like UPM ≈ 8.6 (paper Table 1): extreme memory pressure.
        let w = window(1.0e9, 1.0e9 / 8.6, 0.0, &node);

        // First sight: no profile yet, so no decision at start...
        let start = PolicyEvent::PhaseStart { name: "solve", depth: 0 };
        assert_eq!(p.decide(&obs(&node, &totals, &Counters::default(), 1, start)), None);
        // ...profiled at the close; a top-level close stays put.
        let end = PolicyEvent::PhaseEnd { name: "solve", depth: 0, duration_s: w.total_s() };
        assert_eq!(p.decide(&obs(&node, &totals, &w, 1, end)), None);

        // Second sight: the model should downshift a memory-bound phase.
        let again = PolicyEvent::PhaseStart { name: "solve", depth: 0 };
        let gear = p.decide(&obs(&node, &totals, &Counters::default(), 1, again)).unwrap();
        assert!(gear > 1, "memory-bound phase should leave the fastest gear, chose {gear}");
        assert_eq!(p.choice_for("solve"), Some(gear));
        // And the close leaves the chosen gear in effect for whatever
        // follows — the next phase start shifts directly to its own.
        let end = PolicyEvent::PhaseEnd { name: "solve", depth: 0, duration_s: w.total_s() };
        assert_eq!(p.decide(&obs(&node, &totals, &w, gear, end)), None);
    }

    #[test]
    fn cpu_bound_phase_stays_fast() {
        let node = presets::athlon64();
        let mut p = PhaseAdaptiveRank::new(1.05, &node);
        let totals = Counters::default();
        // EP-like: essentially no cache misses.
        let w = window(1.0e9, 1.0e3, 0.0, &node);
        let start = PolicyEvent::PhaseStart { name: "ep", depth: 0 };
        assert_eq!(p.decide(&obs(&node, &totals, &Counters::default(), 1, start)), None);
        let end = PolicyEvent::PhaseEnd { name: "ep", depth: 0, duration_s: w.total_s() };
        p.decide(&obs(&node, &totals, &w, 1, end));
        let again = PolicyEvent::PhaseStart { name: "ep", depth: 0 };
        let decision = p.decide(&obs(&node, &totals, &Counters::default(), 1, again));
        assert_eq!(decision, Some(1), "CPU-bound work is cheapest at the fastest gear");
    }

    #[test]
    fn slowdown_limit_vetoes_deep_downshifts() {
        let node = presets::athlon64();
        let totals = Counters::default();
        // Moderately memory-bound: slower gears save energy but cost
        // real time (UPM ≈ 80, LU-like).
        let w = window(1.0e9, 1.0e9 / 80.0, 0.0, &node);
        let choose = |limit: f64| {
            let mut p = PhaseAdaptiveRank::new(limit, &node);
            let start = PolicyEvent::PhaseStart { name: "x", depth: 0 };
            p.decide(&obs(&node, &totals, &Counters::default(), 1, start));
            let end = PolicyEvent::PhaseEnd { name: "x", depth: 0, duration_s: w.total_s() };
            p.decide(&obs(&node, &totals, &w, 1, end));
            let again = PolicyEvent::PhaseStart { name: "x", depth: 0 };
            p.decide(&obs(&node, &totals, &Counters::default(), 1, again)).unwrap()
        };
        let tight = choose(1.0);
        let loose = choose(2.0);
        assert_eq!(tight, 1, "a 1.0 limit forbids any slowdown");
        assert!(loose >= tight);
    }

    #[test]
    fn pure_communication_phase_drops_toward_the_slowest_gear() {
        let node = presets::athlon64();
        let mut p = PhaseAdaptiveRank::new(1.05, &node);
        let totals = Counters::default();
        // All idle: a wait-heavy exchange phase.
        let w = window(0.0, 0.0, 0.5, &node);
        let start = PolicyEvent::PhaseStart { name: "halo", depth: 0 };
        p.decide(&obs(&node, &totals, &Counters::default(), 1, start));
        let end = PolicyEvent::PhaseEnd { name: "halo", depth: 0, duration_s: 0.5 };
        p.decide(&obs(&node, &totals, &w, 1, end));
        let again = PolicyEvent::PhaseStart { name: "halo", depth: 0 };
        let gear = p.decide(&obs(&node, &totals, &Counters::default(), 1, again)).unwrap();
        assert_eq!(gear, node.gears.len(), "blocked time is cheapest at the slowest gear");
    }

    /// The UPMs of `psc_kernels::Benchmark::ALL`, descending: EP, BT,
    /// LU, MG, SP, FT, Jacobi, IS, CG, Synthetic.
    const SUITE_UPMS: [f64; 10] = [844.0, 79.6, 73.5, 70.6, 49.5, 45.0, 30.0, 14.0, 8.6, 2.6];

    #[test]
    fn static_choice_is_the_feasible_energy_argmin() {
        let node = presets::athlon64();
        assert_eq!(node.gears.len(), 6);
        for budget in [0.0, 0.01, 0.05, 0.10, 0.25, f64::INFINITY] {
            // Walk UPM downward: more memory pressure never speeds up.
            let mut previous = 1;
            for upm in SUITE_UPMS {
                let work = WorkBlock::with_upm(1.0e9, upm);
                let time = |g: usize| node.compute_time_s(&work, node.gear(g));
                let energy = |g: usize| node.compute_energy_j(&work, node.gear(g));
                let feasible = |g: usize| time(g) <= (1.0 + budget) * time(1);
                let chosen = choose_gear(&node, &work, 0.0, 1, 1.0 + budget, 0.0);
                let case = format!("UPM {upm}, budget {budget}: gear {chosen}");
                assert!(feasible(chosen), "{case} breaks the budget");
                for g in (1..=6).filter(|&g| feasible(g)) {
                    assert!(energy(chosen) <= energy(g), "{case}, but gear {g} is cheaper");
                }
                if budget == 0.0 {
                    assert_eq!(chosen, 1, "{case}");
                }
                assert!(chosen >= previous, "{case}, faster than gear {previous} at higher UPM");
                previous = chosen;
            }
        }
    }

    #[test]
    fn nested_phases_restore_in_stack_order() {
        let node = presets::athlon64();
        let mut p = PhaseAdaptiveRank::new(1.10, &node);
        let totals = Counters::default();
        let empty = Counters::default();
        // Open outer (no profile → no shift), open inner, close both:
        // the nested close restores the gear saved at its open (the
        // enclosing phase resumes at its own gear); the top-level close
        // stays put.
        p.decide(&obs(&node, &totals, &empty, 2, PolicyEvent::PhaseStart { name: "o", depth: 0 }));
        p.decide(&obs(&node, &totals, &empty, 2, PolicyEvent::PhaseStart { name: "i", depth: 1 }));
        let w = window(1.0e6, 0.0, 0.0, &node);
        assert_eq!(
            p.decide(&obs(
                &node,
                &totals,
                &w,
                2,
                PolicyEvent::PhaseEnd { name: "i", depth: 1, duration_s: 0.1 }
            )),
            Some(2)
        );
        assert_eq!(
            p.decide(&obs(
                &node,
                &totals,
                &w,
                2,
                PolicyEvent::PhaseEnd { name: "o", depth: 0, duration_s: 0.2 }
            )),
            None
        );
    }
}
