//! Jobs as the resource manager sees them.

use pmstack_simhw::{NodeId, Watts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a job within one resource-manager instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    /// `job` then the number. The number takes the formatter's flags, so a
    /// width pads the digits alone; no caller formats an id with one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("job")?;
        fmt::Display::fmt(&self.0, f)
    }
}

/// What a user submits: a node count plus an optional power hint (the
/// `Precharacterized` policy's per-node cap travels here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Human-readable name (the workload label in the paper's mixes).
    pub name: String,
    /// Nodes requested.
    pub nodes: usize,
    /// Optional user-provided per-node power cap hint.
    pub power_hint_per_node: Option<Watts>,
}

impl JobSpec {
    /// A spec with no power hint.
    pub fn new(name: impl Into<String>, nodes: usize) -> Self {
        Self {
            name: name.into(),
            nodes,
            power_hint_per_node: None,
        }
    }

    /// Attach a per-node power hint.
    pub fn with_power_hint(mut self, per_node: Watts) -> Self {
        self.power_hint_per_node = Some(per_node);
        self
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Queued, waiting for nodes.
    Pending,
    /// Holding nodes, executing.
    Running,
    /// Finished; nodes returned.
    Completed,
}

/// A job record tracked by the resource manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// The job's identifier.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Nodes held while running (empty otherwise).
    pub nodes: Vec<NodeId>,
    /// The job-level power budget currently granted by the active policy.
    pub power_budget: Option<Watts>,
}

impl Job {
    /// A pending job from a spec.
    pub fn pending(id: JobId, spec: JobSpec) -> Self {
        Self {
            id,
            spec,
            state: JobState::Pending,
            nodes: Vec::new(),
            power_budget: None,
        }
    }

    /// Transition to running on the given nodes.
    ///
    /// # Panics
    /// If the job is not pending or the node count mismatches the spec —
    /// both are scheduler bugs, not runtime conditions.
    pub fn start(&mut self, nodes: Vec<NodeId>) {
        assert_eq!(self.state, JobState::Pending, "only pending jobs start");
        assert_eq!(nodes.len(), self.spec.nodes, "node grant mismatches spec");
        self.nodes = nodes;
        self.state = JobState::Running;
    }

    /// Transition to completed, releasing the nodes to the caller.
    pub fn complete(&mut self) -> Vec<NodeId> {
        assert_eq!(self.state, JobState::Running, "only running jobs complete");
        self.state = JobState::Completed;
        std::mem::take(&mut self.nodes)
    }

    /// Transition a running job back to pending, releasing its nodes to the
    /// caller — the kill half of checkpoint/restart (node death under the
    /// job) or a budget-shock preemption. The job keeps its identity and
    /// spec and can [`Job::start`] again on a fresh grant.
    pub fn requeue(&mut self) -> Vec<NodeId> {
        assert_eq!(self.state, JobState::Running, "only running jobs requeue");
        self.state = JobState::Pending;
        std::mem::take(&mut self.nodes)
    }

    /// Drop a failed node from a running job's grant, returning `true` if
    /// the job held it. The job keeps running degraded on the survivors;
    /// the scheduler decides what happens when none remain.
    pub fn lose_node(&mut self, id: NodeId) -> bool {
        if self.state != JobState::Running {
            return false;
        }
        let before = self.nodes.len();
        self.nodes.retain(|&n| n != id);
        self.nodes.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_print_as_job_and_the_number() {
        assert_eq!(JobId(0).to_string(), "job0");
        assert_eq!(
            format!("{} {}", JobId(42), JobId(u64::MAX)),
            "job42 job18446744073709551615"
        );
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut job = Job::pending(JobId(1), JobSpec::new("w1", 2));
        assert_eq!(job.state, JobState::Pending);
        job.start(vec![NodeId(0), NodeId(1)]);
        assert_eq!(job.state, JobState::Running);
        let released = job.complete();
        assert_eq!(released.len(), 2);
        assert_eq!(job.state, JobState::Completed);
        assert!(job.nodes.is_empty());
    }

    #[test]
    #[should_panic(expected = "node grant mismatches spec")]
    fn start_rejects_wrong_grant() {
        let mut job = Job::pending(JobId(1), JobSpec::new("w1", 2));
        job.start(vec![NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "only running jobs complete")]
    fn complete_requires_running() {
        let mut job = Job::pending(JobId(1), JobSpec::new("w1", 1));
        job.complete();
    }

    #[test]
    fn lose_node_shrinks_running_grant() {
        let mut job = Job::pending(JobId(1), JobSpec::new("w1", 2));
        assert!(!job.lose_node(NodeId(0)), "pending jobs hold nothing");
        job.start(vec![NodeId(0), NodeId(1)]);
        assert!(job.lose_node(NodeId(0)));
        assert!(!job.lose_node(NodeId(0)), "already lost");
        assert_eq!(job.nodes, vec![NodeId(1)]);
        assert_eq!(job.state, JobState::Running);
    }

    #[test]
    fn requeue_returns_to_pending_and_releases_nodes() {
        let mut job = Job::pending(JobId(1), JobSpec::new("w1", 2));
        job.start(vec![NodeId(0), NodeId(1)]);
        let released = job.requeue();
        assert_eq!(released, vec![NodeId(0), NodeId(1)]);
        assert_eq!(job.state, JobState::Pending);
        assert!(job.nodes.is_empty());
        // It can start again on a fresh grant.
        job.start(vec![NodeId(2), NodeId(3)]);
        assert_eq!(job.state, JobState::Running);
    }

    #[test]
    #[should_panic(expected = "only running jobs requeue")]
    fn requeue_requires_running() {
        let mut job = Job::pending(JobId(1), JobSpec::new("w1", 1));
        job.requeue();
    }

    #[test]
    fn power_hint_travels_with_spec() {
        let spec = JobSpec::new("hungry", 4).with_power_hint(Watts(230.0));
        assert_eq!(spec.power_hint_per_node, Some(Watts(230.0)));
    }
}
