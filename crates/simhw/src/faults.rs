//! Deterministic fault injection for the simulated hardware substrate.
//!
//! Real clusters lose nodes, RAPL writes occasionally latch wrong values,
//! and out-of-band telemetry paths drop samples. This module models those
//! failure modes as a *fault plan*: a seedable, reproducible schedule of
//! [`FaultEvent`]s fired at chosen bulk-synchronous iterations. The plan is
//! pure data — the runtime layer applies each event to the affected
//! [`crate::node::Node`] at the iteration boundary, so two runs with the
//! same plan (and seeds) observe byte-identical failure sequences.
//!
//! The taxonomy (paper §VII-style failure handling, applied to the unified
//! stack):
//!
//! * **Fail-stop node death** — the node powers off mid-run; every later
//!   MSR access returns [`crate::SimHwError::NodeFailed`].
//! * **Stuck RAPL limit** — limit writes appear to succeed but silently pin
//!   the package to a wrong value (a latched PL1 erratum).
//! * **Telemetry dropout** — power/energy reads fail for a window of
//!   iterations while the node keeps executing; controllers must hold
//!   last-known state.
//! * **Transient MSR fault** — a single msr-safe access denial; retrying
//!   next iteration succeeds.

use crate::units::Watts;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Health of a node as observed by the layers above the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeHealth {
    /// Operating normally.
    Healthy,
    /// Alive but misbehaving (telemetry gaps, transient MSR faults);
    /// controllers should distrust recent readings.
    Suspect,
    /// Fail-stop dead; the node is gone for the remainder of the run.
    Dead,
}

impl NodeHealth {
    /// True unless the node is [`NodeHealth::Dead`].
    pub fn is_alive(self) -> bool {
        self != NodeHealth::Dead
    }

    /// The health after a suspect marking: only a healthy node changes.
    pub(crate) fn marked_suspect(self) -> Self {
        match self {
            Self::Healthy => Self::Suspect,
            other => other,
        }
    }

    /// The health after a suspect marking is cleared: dead stays dead.
    pub(crate) fn marked_healthy(self) -> Self {
        match self {
            Self::Suspect => Self::Healthy,
            other => other,
        }
    }
}

impl std::fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Healthy => write!(f, "healthy"),
            Self::Suspect => write!(f, "suspect"),
            Self::Dead => write!(f, "dead"),
        }
    }
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Fail-stop death: the node stops executing and answering MSR traffic.
    NodeDeath,
    /// RAPL limit writes silently latch `pinned_w` watts instead of the
    /// requested value, from this point on.
    StuckRapl {
        /// The node-level limit the hardware actually enforces.
        pinned_w: f64,
    },
    /// Telemetry reads fail for the next `iterations` steps; execution and
    /// energy accounting continue underneath.
    TelemetryDropout {
        /// Number of consecutive steps whose reads fail.
        iterations: u32,
    },
    /// A single denied MSR access; the next attempt succeeds.
    TransientMsrFault,
}

impl FaultKind {
    /// Stable static name of the fault kind, used as the `fault` field of
    /// journal events (the [`std::fmt::Display`] form carries parameters).
    pub fn name(&self) -> &'static str {
        match self {
            Self::NodeDeath => "node_death",
            Self::StuckRapl { .. } => "stuck_rapl",
            Self::TelemetryDropout { .. } => "telemetry_dropout",
            Self::TransientMsrFault => "transient_msr_fault",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NodeDeath => write!(f, "node-death"),
            Self::StuckRapl { pinned_w } => write!(f, "stuck-rapl({pinned_w:.1} W)"),
            Self::TelemetryDropout { iterations } => {
                write!(f, "telemetry-dropout({iterations} iters)")
            }
            Self::TransientMsrFault => write!(f, "transient-msr-fault"),
        }
    }
}

/// A scheduled fault: fire `kind` against host index `host` at the start of
/// bulk-synchronous iteration `at_iteration` (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Iteration boundary at which the fault fires.
    pub at_iteration: u64,
    /// Index of the afflicted host within the executing job/platform.
    pub host: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events, ordered by iteration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan from an explicit event list (sorted by iteration, stably).
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_iteration);
        Self { events }
    }

    /// A seeded random plan: roughly `expected_faults` events spread over
    /// `iterations` iterations and `hosts` hosts, drawn from the full fault
    /// taxonomy. The same `(seed, hosts, iterations, expected_faults)`
    /// quadruple always yields the same plan.
    pub fn randomized(seed: u64, hosts: usize, iterations: u64, expected_faults: usize) -> Self {
        if hosts == 0 || iterations == 0 || expected_faults == 0 {
            return Self::none();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfa17_01a4_u64);
        let mut events = Vec::with_capacity(expected_faults);
        for _ in 0..expected_faults {
            let at_iteration = rng.gen_range(0..iterations);
            let host = rng.gen_range(0..hosts);
            let kind = match rng.gen_range(0u32..4) {
                0 => FaultKind::NodeDeath,
                1 => FaultKind::StuckRapl {
                    pinned_w: rng.gen_range(80.0..200.0),
                },
                2 => FaultKind::TelemetryDropout {
                    iterations: rng.gen_range(1u32..6),
                },
                _ => FaultKind::TransientMsrFault,
            };
            events.push(FaultEvent {
                at_iteration,
                host,
                kind,
            });
        }
        Self::scripted(events)
    }

    /// A facility-timescale chaos plan for multi-day campaigns, where the
    /// "iteration" axis is simulated **minutes** rather than bulk-
    /// synchronous steps. [`FaultPlan::randomized`]'s dropouts (a handful
    /// of iterations) are invisible to minute-granularity lease timeouts,
    /// so this generator draws from a campaign-shaped mix instead: mostly
    /// fail-stop node deaths, plus telemetry blackouts of 20–180 minutes —
    /// long enough to expire a heartbeat lease and exercise the detector's
    /// false-positive path on nodes that never actually died.
    ///
    /// `level` scales intensity: 0 is a clean run (empty plan); each step
    /// up multiplies the expected event count. The same
    /// `(seed, hosts, minutes, level)` quadruple always yields the same
    /// plan.
    pub fn chaos(seed: u64, hosts: usize, minutes: u64, level: u32) -> Self {
        if hosts == 0 || minutes == 0 || level == 0 {
            return Self::none();
        }
        // Calibrated so a 512-node, 4-day campaign at level 1 sees a few
        // dozen events — noticeable, not apocalyptic.
        let expected = ((hosts as u64 * minutes * level as u64) / 125_000).max(level as u64 * 4);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a0_5000_u64);
        let mut events = Vec::with_capacity(expected as usize);
        for _ in 0..expected {
            let at_iteration = rng.gen_range(0..minutes);
            let host = rng.gen_range(0..hosts);
            // 3:1 deaths to blackouts: deaths drive the requeue machinery,
            // blackouts the lease false positives.
            let kind = if rng.gen_range(0u32..4) < 3 {
                FaultKind::NodeDeath
            } else {
                FaultKind::TelemetryDropout {
                    iterations: rng.gen_range(20u32..=180),
                }
            };
            events.push(FaultEvent {
                at_iteration,
                host,
                kind,
            });
        }
        Self::scripted(events)
    }

    /// All scheduled events, ordered by iteration.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events firing at exactly `iteration`.
    pub fn events_at(&self, iteration: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.at_iteration == iteration)
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The last iteration at which anything fires, if any.
    pub fn last_iteration(&self) -> Option<u64> {
        self.events.iter().map(|e| e.at_iteration).max()
    }

    /// Restrict the plan to hosts below `hosts` (used when a plan written
    /// for a mix is sliced per job).
    pub fn restricted_to(&self, hosts: usize) -> Self {
        Self {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.host < hosts)
                .collect(),
        }
    }
}

/// Convenience constructor: kill `host` at `at_iteration`.
pub fn kill(host: usize, at_iteration: u64) -> FaultEvent {
    FaultEvent {
        at_iteration,
        host,
        kind: FaultKind::NodeDeath,
    }
}

/// Convenience constructor: pin `host`'s RAPL limit to `pinned` from
/// `at_iteration` on.
pub fn stuck_rapl(host: usize, at_iteration: u64, pinned: Watts) -> FaultEvent {
    FaultEvent {
        at_iteration,
        host,
        kind: FaultKind::StuckRapl {
            pinned_w: pinned.value(),
        },
    }
}

/// Convenience constructor: black out `host`'s telemetry for `iterations`
/// steps starting at `at_iteration`.
pub fn telemetry_dropout(host: usize, at_iteration: u64, iterations: u32) -> FaultEvent {
    FaultEvent {
        at_iteration,
        host,
        kind: FaultKind::TelemetryDropout { iterations },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plans_sort_by_iteration() {
        let plan = FaultPlan::scripted(vec![kill(1, 9), kill(0, 2), kill(2, 5)]);
        let iters: Vec<u64> = plan.events().iter().map(|e| e.at_iteration).collect();
        assert_eq!(iters, vec![2, 5, 9]);
    }

    #[test]
    fn events_at_filters_exact_iteration() {
        let plan = FaultPlan::scripted(vec![kill(0, 3), kill(1, 3), kill(2, 4)]);
        assert_eq!(plan.events_at(3).count(), 2);
        assert_eq!(plan.events_at(4).count(), 1);
        assert_eq!(plan.events_at(5).count(), 0);
    }

    #[test]
    fn randomized_plans_are_deterministic() {
        let a = FaultPlan::randomized(7, 16, 40, 6);
        let b = FaultPlan::randomized(7, 16, 40, 6);
        let c = FaultPlan::randomized(8, 16, 40, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 6);
        assert!(a
            .events()
            .iter()
            .all(|e| e.host < 16 && e.at_iteration < 40));
    }

    #[test]
    fn chaos_plans_scale_with_level_and_stay_deterministic() {
        let clean = FaultPlan::chaos(3, 512, 4 * 1440, 0);
        assert!(clean.is_empty(), "level 0 is a clean run");
        let a = FaultPlan::chaos(3, 512, 4 * 1440, 1);
        let b = FaultPlan::chaos(3, 512, 4 * 1440, 1);
        assert_eq!(a, b);
        let heavy = FaultPlan::chaos(3, 512, 4 * 1440, 3);
        assert!(heavy.len() > a.len(), "higher level injects more");
        // Only campaign-relevant kinds, with lease-visible dropout lengths.
        for e in heavy.events() {
            match e.kind {
                FaultKind::NodeDeath => {}
                FaultKind::TelemetryDropout { iterations } => {
                    assert!((20..=180).contains(&iterations))
                }
                other => panic!("unexpected chaos fault {other:?}"),
            }
        }
        // Tiny fleets still see at least a few events per level.
        assert!(FaultPlan::chaos(3, 8, 60, 2).len() >= 8);
    }

    #[test]
    fn restriction_drops_out_of_range_hosts() {
        let plan = FaultPlan::scripted(vec![kill(0, 1), kill(5, 2), kill(9, 3)]);
        let small = plan.restricted_to(6);
        assert_eq!(small.len(), 2);
        assert!(small.events().iter().all(|e| e.host < 6));
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(FaultKind::NodeDeath.to_string(), "node-death");
        assert!(FaultKind::StuckRapl { pinned_w: 120.0 }
            .to_string()
            .contains("120.0"));
        assert!(FaultKind::TelemetryDropout { iterations: 3 }
            .to_string()
            .contains("3 iters"));
        assert_eq!(NodeHealth::Suspect.to_string(), "suspect");
        assert!(NodeHealth::Healthy.is_alive());
        assert!(NodeHealth::Suspect.is_alive());
        assert!(!NodeHealth::Dead.is_alive());
    }

    #[test]
    fn empty_plans_report_empty() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().last_iteration(), None);
        assert_eq!(
            FaultPlan::scripted(vec![kill(0, 7)]).last_iteration(),
            Some(7)
        );
        assert!(FaultPlan::randomized(1, 0, 10, 5).is_empty());
    }
}
