//! Typed failure handling for the unified stack.
//!
//! The coordinator's original invariants were panics: an empty mix, a mix
//! that does not fit, a policy returning the wrong cap shape.
//! [`crate::coordinator::Coordinator::try_run_mix`] returns a
//! [`CoordinatorError`] for each instead of tearing the process down — the stack's
//! answer to §I's "the system must keep operating under its power contract
//! even when parts of it misbehave".
//!
//! The same module carries the [`ResilienceReport`]: the record of what the
//! stack *did* about injected hardware faults — which nodes died, what the
//! resource manager reclaimed, and whether the coordinator re-allocated the
//! survivors mid-run.

use pmstack_rm::SchedulerEvent;
use pmstack_simhw::{FaultEvent, FaultPlan, Watts};
use std::fmt;

/// A typed coordinator failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorError {
    /// The mix had no jobs.
    EmptyMix,
    /// The scheduler could not admit every job of the mix at once.
    MixDoesNotFit {
        /// Jobs in the mix.
        submitted: usize,
        /// Jobs the scheduler admitted.
        admitted: usize,
    },
    /// The policy produced a cap vector whose shape does not match the
    /// granted hosts.
    CapShapeMismatch {
        /// The offending job (mix order).
        job: usize,
        /// Caps the policy produced for it.
        caps: usize,
        /// Hosts the job actually holds.
        hosts: usize,
    },
    /// Every host of every job died before the run could finish.
    AllHostsFailed,
}

impl fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The wording of the first two preserves the historical panic
            // messages.
            Self::EmptyMix => write!(f, "cannot run an empty mix"),
            Self::MixDoesNotFit {
                submitted,
                admitted,
            } => write!(
                f,
                "the mix must fit the cluster and budget: {admitted} of {submitted} jobs admitted"
            ),
            Self::CapShapeMismatch { job, caps, hosts } => write!(
                f,
                "policy produced {caps} caps for job {job} holding {hosts} hosts"
            ),
            Self::AllHostsFailed => write!(f, "every host of the mix failed mid-run"),
        }
    }
}

impl std::error::Error for CoordinatorError {}

/// What the stack observed and did about hardware faults during a mix run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// Fault events scheduled against the mix's hosts (cluster-global
    /// host indices).
    pub injected: Vec<FaultEvent>,
    /// Resource-manager events raised while draining dead nodes.
    pub rm_events: Vec<SchedulerEvent>,
    /// Cluster-global ids of nodes that died during the run.
    pub dead_nodes: Vec<usize>,
    /// Watts the ledger reclaimed from degraded jobs.
    pub reclaimed: Watts,
    /// True when the coordinator re-characterized and re-allocated the
    /// surviving hosts mid-run (online mode only).
    pub reallocated: bool,
    /// Watts the ledger still held reserved when the run ended — never
    /// above the system budget, whatever failed.
    pub reserved_after: Watts,
}

impl ResilienceReport {
    /// True when no fault touched the run.
    pub fn clean(&self) -> bool {
        self.injected.is_empty() && self.dead_nodes.is_empty()
    }

    /// Record the outcome of one `fail_node` call.
    pub(crate) fn absorb(&mut self, events: Vec<SchedulerEvent>) {
        for ev in &events {
            match ev {
                SchedulerEvent::NodeFailed { node, .. } => self.dead_nodes.push(node.0),
                SchedulerEvent::JobDegraded { reclaimed, .. } => self.reclaimed += *reclaimed,
                _ => {}
            }
        }
        self.rm_events.extend(events);
    }
}

/// Slice a mix-wide fault plan (cluster-global host ids) into one job's
/// platform-local plan for a phase window: keep events whose host lies in
/// `grant` and whose iteration lies in `[start, start + len)`, remapping the
/// host to its local index and the iteration to the window origin.
pub(crate) fn slice_plan(plan: &FaultPlan, grant: &[usize], start: u64, len: u64) -> FaultPlan {
    let end = start.saturating_add(len);
    let events: Vec<FaultEvent> = plan
        .events()
        .iter()
        .filter(|e| e.at_iteration >= start && e.at_iteration < end)
        .filter_map(|e| {
            grant
                .iter()
                .position(|&g| g == e.host)
                .map(|local| FaultEvent {
                    at_iteration: e.at_iteration - start,
                    host: local,
                    kind: e.kind,
                })
        })
        .collect();
    FaultPlan::scripted(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmstack_simhw::faults::kill;

    #[test]
    fn error_displays_preserve_the_historical_panic_text() {
        assert_eq!(
            CoordinatorError::EmptyMix.to_string(),
            "cannot run an empty mix"
        );
        let e = CoordinatorError::MixDoesNotFit {
            submitted: 3,
            admitted: 1,
        };
        assert!(e.to_string().contains("must fit the cluster"));
        assert!(e.to_string().contains("1 of 3"));
        let e = CoordinatorError::CapShapeMismatch {
            job: 2,
            caps: 4,
            hosts: 3,
        };
        assert!(e.to_string().contains("4 caps"));
        assert!(CoordinatorError::AllHostsFailed
            .to_string()
            .contains("failed"));
    }

    #[test]
    fn slicing_remaps_hosts_and_iterations() {
        let plan = FaultPlan::scripted(vec![kill(7, 2), kill(9, 12), kill(3, 14), kill(9, 30)]);
        // Job holds global nodes 9 and 7; window is iterations [10, 25).
        let local = slice_plan(&plan, &[9, 7], 10, 15);
        assert_eq!(local.len(), 1);
        let ev = local.events()[0];
        assert_eq!(ev.host, 0, "global node 9 is the job's first host");
        assert_eq!(ev.at_iteration, 2, "iteration rebased to the window");
    }

    #[test]
    fn report_absorbs_rm_events() {
        use pmstack_rm::{FifoScheduler, JobSpec, NodePool, PowerLedger};
        use pmstack_simhw::NodeId;
        let mut s = FifoScheduler::new(
            NodePool::new(3),
            PowerLedger::new(Watts(600.0)),
            Watts(150.0),
        );
        s.submit(JobSpec::new("a", 2));
        s.tick();
        let mut report = ResilienceReport::default();
        assert!(report.clean());
        report.absorb(s.fail_node(NodeId(0)));
        assert_eq!(report.dead_nodes, vec![0]);
        assert!(report.reclaimed > Watts::ZERO);
        assert!(!report.clean());
    }
}
