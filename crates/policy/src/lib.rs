//! # psc-policy
//!
//! Online DVFS gear policies for the simulated power-scalable cluster.
//!
//! The paper selects one energy gear per run, offline, by sweeping all
//! of them (§3). Its closing discussion asks for the obvious next step:
//! a system that "automatically reduces the energy gear" while the
//! program runs. This crate supplies that layer. A [`PolicySpec`]
//! describes a policy declaratively (so it can ride inside a
//! `RunSpec`, serialize into cache keys, and cross the serve-protocol
//! boundary); at run time it is compiled into per-rank
//! [`psc_mpi::RankPolicy`] instances that the `psc-mpi` runtime calls
//! at phase boundaries and MPI-call exits with read-only
//! [`psc_mpi::Observation`] snapshots.
//!
//! Four policies are provided:
//!
//! * [`PolicySpec::Static`] — run every rank at one fixed gear. The
//!   identity policy: installs the inert hook, so its runs are
//!   byte-identical to policy-free runs at the same gear (enforced by
//!   `tests/policy_identity.rs`).
//! * [`PolicySpec::PhaseAdaptive`] — profile each named phase on first
//!   sight, then shift to the gear the node model predicts is
//!   energy-minimal for that phase's UPM, subject to a per-phase
//!   slowdown limit and the DVFS transition cost. Its rule,
//!   [`choose_gear`], is the workspace's one answer to "which gear for
//!   this work": `powerscale advise` asks it about a whole program.
//! * [`PolicySpec::PowerCap`] — divide a cluster-wide power budget
//!   among ranks and never run a rank faster than its share allows;
//!   at collective sync points idle-heavy ranks donate headroom by
//!   slowing further (the paper's energy-time tradeoff, driven by a
//!   wall-power constraint instead of a slowdown target).
//! * [`PolicySpec::Oracle`] — replay a fixed phase-indexed gear
//!   schedule, for regression tests and best-possible-schedule studies.
//!
//! Determinism: every policy decision is a pure function of the
//! observations received so far. No host clocks, no RNGs, no shared
//! mutable state — `psc-analyze` rule P001 bans the corresponding
//! idents from this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod oracle;
pub mod powercap;

pub use adaptive::{choose_gear, PhaseAdaptiveRank};
pub use oracle::{OracleRank, OracleStep};
pub use powercap::PowerCapRank;

use psc_machine::NodeSpec;
use psc_mpi::{ClusterPolicy, InertRankPolicy, RankPolicy};
use serde::{Deserialize, Serialize};

/// Default per-phase slowdown limit for [`PolicySpec::PhaseAdaptive`]:
/// accept up to 5 % predicted phase slowdown in exchange for energy,
/// the knee region of the paper's Figures 1–3.
pub const DEFAULT_SLOWDOWN_LIMIT: f64 = 1.05;

/// A declarative description of an online gear policy.
///
/// This is the form that travels: into `RunSpec`s, JSON cache keys,
/// the serve protocol, and the CLI. [`PolicySpec::validate`] checks it
/// against a concrete node before a run; the [`ClusterPolicy`] impl
/// compiles it into per-rank policy instances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Run every rank at `gear`, ignoring the configured selection.
    /// Installs the inert hook — byte-identical to a policy-free run
    /// at the same gear.
    Static {
        /// The fixed gear, 1-based.
        gear: usize,
    },
    /// Profile each named phase once, then pick the model-predicted
    /// energy-minimal gear for it, bounded by `slowdown_limit`.
    PhaseAdaptive {
        /// Maximum tolerated ratio of predicted phase time at the
        /// chosen gear to predicted phase time at the fastest gear
        /// (≥ 1.0). `1.05` ≈ the paper's "few percent" operating point.
        slowdown_limit: f64,
    },
    /// Keep the cluster's worst-case power draw at or under
    /// `budget_w` watts at every instant.
    PowerCap {
        /// Cluster-wide budget, watts. Must admit all ranks at the
        /// slowest gear ([`PolicySpec::validate`]).
        budget_w: f64,
    },
    /// Replay a fixed schedule: at the k-th phase start of the run
    /// (counting every `span` open, 0-based), shift to the listed gear.
    Oracle {
        /// Steps ordered by strictly increasing phase ordinal.
        schedule: Vec<OracleStep>,
    },
}

impl PolicySpec {
    /// The canonical CLI names of the four policy families, in the
    /// order `powerscale policy list` prints them.
    pub const NAMES: [&'static str; 4] = ["static", "phase-adaptive", "power-cap", "oracle"];

    /// This policy's family name (one of [`PolicySpec::NAMES`]).
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Static { .. } => "static",
            PolicySpec::PhaseAdaptive { .. } => "phase-adaptive",
            PolicySpec::PowerCap { .. } => "power-cap",
            PolicySpec::Oracle { .. } => "oracle",
        }
    }

    /// One-line summary of a policy family, for `powerscale policy list`.
    pub fn summary(name: &str) -> Option<&'static str> {
        match name {
            "static" => Some("fixed gear for the whole run (identity with a policy-free run)"),
            "phase-adaptive" => {
                Some("per-phase gear from profiled UPM, bounded by a slowdown limit")
            }
            "power-cap" => Some("cluster power budget enforced at every instant"),
            "oracle" => Some("replay a fixed phase-indexed gear schedule"),
            _ => None,
        }
    }

    /// Multi-line description of a policy family, for
    /// `powerscale policy describe NAME`. Includes the argument syntax
    /// accepted by [`PolicySpec::parse`].
    pub fn describe(name: &str) -> Option<String> {
        let body = match name {
            "static" => {
                "static:G\n\
                 \n\
                 Run every rank at gear G (1-based) for the whole run. The\n\
                 installed hook is inert, so results are byte-identical to a\n\
                 policy-free run configured at gear G; use it to route static\n\
                 gears through the policy machinery.\n\
                 \n\
                 Example: static:3"
            }
            "phase-adaptive" => {
                "phase-adaptive[:LIMIT]\n\
                 \n\
                 Profile each named phase the first time it runs, then shift\n\
                 to the gear the node model predicts is energy-minimal for\n\
                 that phase's µops/L2-miss mix — subject to the phase slowing\n\
                 down at most LIMIT× relative to the fastest gear (default\n\
                 1.05) and to the DVFS transition stall paying for itself.\n\
                 Memory- and communication-bound phases downshift; CPU-bound\n\
                 phases stay fast, exactly the per-phase version of the\n\
                 paper's Table 1 prediction.\n\
                 \n\
                 Example: phase-adaptive:1.08"
            }
            "power-cap" => {
                "power-cap:WATTS\n\
                 \n\
                 Keep the cluster's worst-case draw at or below WATTS at\n\
                 every instant. Each rank holds an equal share of the budget\n\
                 and never selects a gear whose busy power exceeds it. At\n\
                 collective sync points, ranks that mostly waited donate\n\
                 headroom by slowing one more gear; ranks that mostly\n\
                 computed reclaim their cap gear. The budget must admit all\n\
                 ranks at the slowest gear.\n\
                 \n\
                 Example: power-cap:400"
            }
            "oracle" => {
                "oracle:P=G[,P=G...]\n\
                 \n\
                 Replay a fixed schedule: at the P-th phase start of the run\n\
                 (counting every span open in rank order, 0-based), shift to\n\
                 gear G. Phase ordinals must be strictly increasing. Useful\n\
                 for pinning a known-good adaptive schedule in a regression\n\
                 test, or for best-possible-schedule studies.\n\
                 \n\
                 Example: oracle:0=1,3=5,7=1"
            }
            _ => return None,
        };
        Some(format!("{name}: {}\n\nUsage: {body}\n", PolicySpec::summary(name).unwrap()))
    }

    /// Parse a CLI policy argument.
    ///
    /// Accepts the `name[:args]` shorthands documented by
    /// [`PolicySpec::describe`], or a raw JSON spec (anything starting
    /// with `{`) as produced by [`PolicySpec::to_json`].
    pub fn parse(text: &str) -> Result<PolicySpec, String> {
        let text = text.trim();
        if text.starts_with('{') {
            return PolicySpec::from_json(text);
        }
        let (name, args) = match text.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (text, None),
        };
        match name {
            "static" => {
                let args = args.ok_or("static needs a gear: static:G")?;
                let gear: usize =
                    args.parse().map_err(|_| format!("invalid gear {args:?} in static:G"))?;
                Ok(PolicySpec::Static { gear })
            }
            "phase-adaptive" => {
                let slowdown_limit = match args {
                    None => DEFAULT_SLOWDOWN_LIMIT,
                    Some(a) => a.parse().map_err(|_| {
                        format!("invalid slowdown limit {a:?} in phase-adaptive:LIMIT")
                    })?,
                };
                Ok(PolicySpec::PhaseAdaptive { slowdown_limit })
            }
            "power-cap" => {
                let args = args.ok_or("power-cap needs a budget: power-cap:WATTS")?;
                let budget_w: f64 = args
                    .parse()
                    .map_err(|_| format!("invalid budget {args:?} in power-cap:WATTS"))?;
                Ok(PolicySpec::PowerCap { budget_w })
            }
            "oracle" => {
                let args = args.ok_or("oracle needs a schedule: oracle:P=G[,P=G...]")?;
                let mut schedule = Vec::new();
                for step in args.split(',') {
                    let (p, g) = step
                        .split_once('=')
                        .ok_or_else(|| format!("malformed oracle step {step:?}: want P=G"))?;
                    let phase: usize = p
                        .parse()
                        .map_err(|_| format!("invalid phase ordinal {p:?} in oracle step"))?;
                    let gear: usize =
                        g.parse().map_err(|_| format!("invalid gear {g:?} in oracle step"))?;
                    schedule.push(OracleStep { phase, gear });
                }
                Ok(PolicySpec::Oracle { schedule })
            }
            other => Err(format!(
                "unknown policy {other:?}; available: {}",
                PolicySpec::NAMES.join(", ")
            )),
        }
    }

    /// The CLI shorthand that [`PolicySpec::parse`] maps back to this
    /// spec (inverse of `parse` for shorthand-expressible specs).
    pub fn shorthand(&self) -> String {
        match self {
            PolicySpec::Static { gear } => format!("static:{gear}"),
            PolicySpec::PhaseAdaptive { slowdown_limit } => {
                format!("phase-adaptive:{slowdown_limit}")
            }
            PolicySpec::PowerCap { budget_w } => format!("power-cap:{budget_w}"),
            PolicySpec::Oracle { schedule } => {
                let steps: Vec<String> =
                    schedule.iter().map(|s| format!("{}={}", s.phase, s.gear)).collect();
                format!("oracle:{}", steps.join(","))
            }
        }
    }

    /// Structural validation against a gear count alone: gear indices
    /// in range, a sane slowdown limit, a positive budget, a strictly
    /// increasing oracle schedule. Used where the node's power model is
    /// out of reach (the serve protocol parser); [`PolicySpec::validate`]
    /// adds the power-feasibility check on top.
    pub fn validate_gears(&self, gears: usize) -> Result<(), String> {
        let gear_ok = |g: usize, what: &str| {
            if g == 0 || g > gears {
                Err(format!("{what} gear {g} out of range 1..={gears}"))
            } else {
                Ok(())
            }
        };
        match self {
            PolicySpec::Static { gear } => gear_ok(*gear, "static"),
            PolicySpec::PhaseAdaptive { slowdown_limit } => {
                if !slowdown_limit.is_finite() || *slowdown_limit < 1.0 {
                    return Err(format!(
                        "phase-adaptive slowdown limit {slowdown_limit} must be a finite ratio ≥ 1"
                    ));
                }
                Ok(())
            }
            PolicySpec::PowerCap { budget_w } => {
                if !budget_w.is_finite() || *budget_w <= 0.0 {
                    return Err(format!("power-cap budget {budget_w} W must be a positive number"));
                }
                Ok(())
            }
            PolicySpec::Oracle { schedule } => {
                if schedule.is_empty() {
                    return Err("oracle schedule is empty".to_string());
                }
                let mut prev: Option<usize> = None;
                for step in schedule {
                    gear_ok(step.gear, "oracle")?;
                    if let Some(p) = prev {
                        if step.phase <= p {
                            return Err(format!(
                                "oracle schedule not strictly increasing: phase {} after {p}",
                                step.phase
                            ));
                        }
                    }
                    prev = Some(step.phase);
                }
                Ok(())
            }
        }
    }

    /// Check the spec against a concrete node and rank count.
    ///
    /// Everything [`PolicySpec::validate_gears`] checks, plus power
    /// feasibility: a power-cap budget must admit all ranks running at
    /// the slowest gear, or the cap is unenforceable.
    pub fn validate(&self, node: &NodeSpec, nodes: usize) -> Result<(), String> {
        self.validate_gears(node.gears.len()).map_err(|e| format!("{e} for node {}", node.name))?;
        if let PolicySpec::PowerCap { budget_w } = self {
            let floor_w = nodes as f64 * node.power.busy_w(node.gears.slowest());
            if *budget_w < floor_w {
                return Err(format!(
                    "power-cap budget {budget_w} W infeasible: {nodes} node(s) at the \
                     slowest gear already draw up to {floor_w:.1} W"
                ));
            }
        }
        Ok(())
    }

    /// Serialize to canonical JSON (the form embedded in cache keys).
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Parse a spec from JSON. Structural errors only — run
    /// [`PolicySpec::validate`] against a node before using it.
    pub fn from_json(text: &str) -> Result<PolicySpec, String> {
        serde::json::from_str(text).map_err(|e| format!("invalid policy JSON: {e:?}"))
    }
}

impl ClusterPolicy for PolicySpec {
    fn initial_gear(&self, rank: usize, size: usize, configured: usize, node: &NodeSpec) -> usize {
        match self {
            PolicySpec::Static { gear } => *gear,
            // Adaptive profiles at the configured gear first; the oracle's
            // schedule is relative to the configured starting point.
            PolicySpec::PhaseAdaptive { .. } | PolicySpec::Oracle { .. } => configured,
            PolicySpec::PowerCap { budget_w } => {
                let _ = rank;
                let cap = powercap::cap_gear(node, *budget_w / size as f64);
                configured.max(cap)
            }
        }
    }

    fn rank_policy(&self, rank: usize, size: usize, node: &NodeSpec) -> Box<dyn RankPolicy> {
        let _ = rank;
        match self {
            PolicySpec::Static { .. } => Box::new(InertRankPolicy),
            PolicySpec::PhaseAdaptive { slowdown_limit } => {
                Box::new(PhaseAdaptiveRank::new(*slowdown_limit, node))
            }
            PolicySpec::PowerCap { budget_w } => {
                Box::new(PowerCapRank::new(*budget_w / size as f64, node))
            }
            PolicySpec::Oracle { schedule } => Box::new(OracleRank::new(schedule.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_machine::presets;

    fn specimens() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Static { gear: 3 },
            PolicySpec::PhaseAdaptive { slowdown_limit: 1.05 },
            PolicySpec::PowerCap { budget_w: 600.0 },
            PolicySpec::Oracle {
                schedule: vec![OracleStep { phase: 0, gear: 2 }, OracleStep { phase: 4, gear: 5 }],
            },
        ]
    }

    #[test]
    fn specs_round_trip_through_json() {
        for spec in specimens() {
            let text = spec.to_json();
            let back = PolicySpec::from_json(&text).expect("round trip");
            assert_eq!(spec, back, "json was: {text}");
        }
    }

    #[test]
    fn parse_accepts_shorthand_and_json() {
        assert_eq!(PolicySpec::parse("static:3").unwrap(), PolicySpec::Static { gear: 3 });
        assert_eq!(
            PolicySpec::parse("phase-adaptive").unwrap(),
            PolicySpec::PhaseAdaptive { slowdown_limit: DEFAULT_SLOWDOWN_LIMIT }
        );
        assert_eq!(
            PolicySpec::parse("phase-adaptive:1.1").unwrap(),
            PolicySpec::PhaseAdaptive { slowdown_limit: 1.1 }
        );
        assert_eq!(
            PolicySpec::parse("power-cap:450").unwrap(),
            PolicySpec::PowerCap { budget_w: 450.0 }
        );
        assert_eq!(
            PolicySpec::parse("oracle:0=2,4=5").unwrap(),
            PolicySpec::Oracle {
                schedule: vec![OracleStep { phase: 0, gear: 2 }, OracleStep { phase: 4, gear: 5 },]
            }
        );
        for spec in specimens() {
            assert_eq!(PolicySpec::parse(&spec.to_json()).unwrap(), spec);
            assert_eq!(PolicySpec::parse(&spec.shorthand()).unwrap(), spec);
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "nonesuch",
            "static",
            "static:zero",
            "power-cap",
            "power-cap:lots",
            "oracle",
            "oracle:3",
            "oracle:a=b",
            "{not json",
        ] {
            assert!(PolicySpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn validate_checks_node_constraints() {
        let node = presets::athlon64();
        for spec in specimens() {
            spec.validate(&node, 4).expect("specimens are valid");
        }
        assert!(PolicySpec::Static { gear: 0 }.validate(&node, 1).is_err());
        assert!(PolicySpec::Static { gear: 7 }.validate(&node, 1).is_err());
        assert!(PolicySpec::PhaseAdaptive { slowdown_limit: 0.9 }.validate(&node, 1).is_err());
        assert!(PolicySpec::PhaseAdaptive { slowdown_limit: f64::NAN }.validate(&node, 1).is_err());
        // 4 nodes cannot fit under 100 W even at the slowest gear.
        assert!(PolicySpec::PowerCap { budget_w: 100.0 }.validate(&node, 4).is_err());
        assert!(PolicySpec::Oracle { schedule: vec![] }.validate(&node, 1).is_err());
        assert!(PolicySpec::Oracle {
            schedule: vec![OracleStep { phase: 2, gear: 1 }, OracleStep { phase: 2, gear: 2 }]
        }
        .validate(&node, 1)
        .is_err());
        assert!(PolicySpec::Oracle { schedule: vec![OracleStep { phase: 0, gear: 9 }] }
            .validate(&node, 1)
            .is_err());
    }

    #[test]
    fn every_family_has_list_and_describe_text() {
        for name in PolicySpec::NAMES {
            assert!(PolicySpec::summary(name).is_some());
            let desc = PolicySpec::describe(name).unwrap();
            assert!(desc.contains(name));
        }
        assert!(PolicySpec::summary("nonesuch").is_none());
        assert!(PolicySpec::describe("nonesuch").is_none());
        for spec in specimens() {
            assert!(PolicySpec::NAMES.contains(&spec.name()));
        }
    }

    #[test]
    fn static_overrides_initial_gear_and_installs_inert_hook() {
        let node = presets::athlon64();
        let spec = PolicySpec::Static { gear: 5 };
        assert_eq!(spec.initial_gear(0, 4, 1, &node), 5);
        assert_eq!(spec.initial_gear(3, 4, 2, &node), 5);
        // Adaptive and oracle start at the configured gear.
        let adaptive = PolicySpec::PhaseAdaptive { slowdown_limit: 1.05 };
        assert_eq!(adaptive.initial_gear(0, 4, 2, &node), 2);
    }

    #[test]
    fn power_cap_initial_gear_respects_the_share() {
        let node = presets::athlon64();
        // Generous budget: configured gear survives.
        let roomy = PolicySpec::PowerCap { budget_w: 4.0 * node.power.busy_w(node.gear(1)) };
        assert_eq!(roomy.initial_gear(0, 4, 2, &node), 2);
        // Tight budget: every rank is forced at or below its cap gear.
        let tight = PolicySpec::PowerCap { budget_w: 4.0 * node.power.busy_w(node.gear(4)) };
        let capped = tight.initial_gear(0, 4, 1, &node);
        assert!(capped >= 4, "cap gear should be at least 4, got {capped}");
        assert!(node.power.busy_w(node.gear(capped)) <= node.power.busy_w(node.gear(4)) + 1e-9);
    }
}
