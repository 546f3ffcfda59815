//! The scheduler: power-aware admission over one node pool and ledger.
//!
//! [`Scheduler`] owns the [`crate::pool::NodePool`], the
//! [`crate::budget::PowerLedger`], the job table and every lifecycle path:
//! submission, completion, node failure, requeue, preemption and
//! rebudgeting. Its [`Discipline`] decides only which queued jobs a
//! [`Scheduler::tick`] starts — [`Fifo`] strictly in submission order,
//! [`crate::backfill::Backfill`] letting later jobs jump a stuck head — so
//! a node dying under a backfilled schedule reclaims its watts exactly like
//! one dying under FIFO. [`FifoScheduler`] and
//! [`crate::backfill::BackfillScheduler`] name the two.
//!
//! On start, a scheduler reserves the job's power from the ledger (the
//! policy layer later rebalances the per-job grants). A job that cannot get
//! its power reservation waits even if nodes are free — power is a
//! first-class schedulable resource here, which is the RM-side behaviour
//! the paper's system-level policies presume.
//!
//! # A settled scheduler answers without a scan
//!
//! Both disciplines run the start pass to a fixpoint: when
//! [`Scheduler::tick`] returns, no queued job fits the pool and the ledger
//! as they stand. Whether a queued job fits depends only on the queue, the
//! pool and the ledger, so a tick with none of the three changed since the
//! last scan would start nothing. The scheduler keeps one flag,
//! `unsettled`, that every `&mut self` method but `tick` sets — and
//! [`Scheduler::ledger_mut`] too, since it hands out the ledger — and that
//! a scan clears; a tick with the flag clear returns no events at once
//! (`rm.scheduler.ticks_settled` counts those).
//!
//! # Dense tables
//!
//! Job ids are dense from 1, so the job table is a `Vec` and job `id` sits
//! at `id − 1`. Beside the pool, a node → owner column names the running
//! job holding each node, so draining a dead node finds its job by index
//! instead of scanning every job ever submitted.

use crate::budget::{OverCommit, PowerLedger};
use crate::job::{Job, JobId, JobSpec, JobState};
use crate::pool::NodePool;
use pmstack_obs::{EventKind, StaticCounter};
use pmstack_simhw::{NodeId, Watts};
use std::collections::VecDeque;

/// Observability: jobs submitted, under either discipline.
static JOBS_SUBMITTED: StaticCounter = StaticCounter::new("rm.jobs.submitted");
/// Observability: jobs admitted (FIFO order or backfill).
static JOBS_STARTED: StaticCounter = StaticCounter::new("rm.jobs.started");
/// Observability: jobs that ran to completion (or failed out).
static JOBS_COMPLETED: StaticCounter = StaticCounter::new("rm.jobs.completed");
/// Observability: dead nodes drained from a scheduler's pool.
static NODES_DRAINED: StaticCounter = StaticCounter::new("rm.nodes.drained");
/// Observability: jobs killed and withdrawn (lease expiry / chaos kill).
static JOBS_REQUEUED: StaticCounter = StaticCounter::new("rm.jobs.requeued");
/// Observability: running jobs checkpointed and evicted by a budget shock.
static JOBS_PREEMPTED: StaticCounter = StaticCounter::new("rm.jobs.preempted");
/// Observability: ticks answered without a scan (nothing changed since the
/// last one reached its fixpoint).
static TICKS_SETTLED: StaticCounter = StaticCounter::new("rm.scheduler.ticks_settled");

/// A scheduling decision notification.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerEvent {
    /// A job was admitted and holds nodes.
    Started {
        /// The started job.
        job: JobId,
        /// The granted nodes.
        nodes: Vec<NodeId>,
        /// The power reserved for the job.
        power: Watts,
    },
    /// A job finished and its resources were returned.
    Completed {
        /// The finished job.
        job: JobId,
    },
    /// A node suffered fail-stop death and was drained from the pool.
    NodeFailed {
        /// The dead node.
        node: NodeId,
        /// The job that held it, if it was leased.
        job: Option<JobId>,
    },
    /// A running job lost a node and continues degraded on the survivors,
    /// with its power reservation shrunk accordingly.
    JobDegraded {
        /// The degraded job.
        job: JobId,
        /// The node it lost.
        lost: NodeId,
        /// Nodes it still holds.
        remaining: usize,
        /// Watts reclaimed into the system budget.
        reclaimed: Watts,
    },
    /// A running job was killed (node death under it) and returned to
    /// pending; its surviving nodes and full power reservation came back.
    Requeued {
        /// The requeued job.
        job: JobId,
        /// Surviving nodes released back to the pool.
        released: usize,
        /// Watts released back to the ledger.
        power: Watts,
    },
    /// A running job was checkpointed and evicted by a budget shock; it
    /// re-enters the queue at the front.
    Preempted {
        /// The preempted job.
        job: JobId,
        /// Watts released back to the ledger.
        power: Watts,
    },
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Fifo {}
    impl Sealed for crate::backfill::Backfill {}
}

/// A queueing discipline: the start pass of [`Scheduler::tick`], the one
/// decision that differs between schedulers. Sealed; [`Fifo`] and
/// [`crate::backfill::Backfill`] are the two.
pub trait Discipline: sealed::Sealed + Default {
    /// Start every queued job the discipline admits right now, returning
    /// the start events in start order. Runs to a fixpoint: afterwards no
    /// queued job the discipline would consider fits.
    fn start(s: &mut Scheduler<Self>) -> Vec<SchedulerEvent>;
}

/// Strict FIFO: a stuck head of queue blocks every later job (no backfill —
/// matching the paper's static, all-jobs-start-together mixes).
#[derive(Debug, Default)]
pub struct Fifo;

impl Discipline for Fifo {
    fn start(s: &mut Scheduler<Self>) -> Vec<SchedulerEvent> {
        let mut events = Vec::new();
        while let Some(&head) = s.queue.front() {
            let Some(ev) = s.try_start(head) else {
                break;
            };
            s.queue.pop_front();
            events.push(ev);
        }
        events
    }
}

/// The strict-FIFO scheduler.
pub type FifoScheduler = Scheduler<Fifo>;

/// Index of job `id` in the job table (ids are dense from 1).
fn slot(id: JobId) -> Option<usize> {
    usize::try_from(id.0.checked_sub(1)?).ok()
}

/// A scheduler over a node pool and power ledger; `D` picks which queued
/// jobs start on a tick.
#[derive(Debug)]
pub struct Scheduler<D> {
    pool: NodePool,
    /// Per node id: the running job holding it.
    owner: Vec<Option<JobId>>,
    ledger: PowerLedger,
    pub(crate) queue: VecDeque<JobId>,
    /// Every job ever submitted; job `id` is at `id − 1`.
    jobs: Vec<Job>,
    default_per_node: Watts,
    /// Something a queued job's fit depends on may have changed since the
    /// last scan (see the module docs).
    unsettled: bool,
    pub(crate) discipline: D,
}

impl<D: Discipline> Scheduler<D> {
    /// A scheduler over `pool` and `ledger`. `default_per_node` is reserved
    /// for jobs without a power hint (typically node TDP).
    pub fn new(pool: NodePool, ledger: PowerLedger, default_per_node: Watts) -> Self {
        Self {
            owner: vec![None; pool.id_bound()],
            pool,
            ledger,
            queue: VecDeque::new(),
            jobs: Vec::new(),
            default_per_node,
            unsettled: false,
            discipline: D::default(),
        }
    }

    /// Submit a job to the back of the queue; returns its id.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        self.unsettled = true;
        JOBS_SUBMITTED.inc();
        let id = JobId(self.jobs.len() as u64 + 1);
        self.jobs.push(Job::pending(id, spec));
        self.queue.push_back(id);
        id
    }

    /// Start the queued jobs the discipline admits now. Returns nothing
    /// without a scan when nothing has changed since the last one.
    pub fn tick(&mut self) -> Vec<SchedulerEvent> {
        if !self.unsettled {
            TICKS_SETTLED.inc();
            return Vec::new();
        }
        let events = D::start(self);
        self.unsettled = false;
        events
    }

    fn job_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.jobs.get_mut(slot(id)?)
    }

    /// Node count and total power a queued job would need to start.
    fn demand(&self, id: JobId) -> (usize, Watts) {
        let job = self.job(id).expect("queued job exists");
        let per_node = job
            .spec
            .power_hint_per_node
            .unwrap_or(self.default_per_node);
        (job.spec.nodes, per_node * job.spec.nodes as f64)
    }

    /// Try to start one queued job right now: nodes and power must both
    /// fit, or nothing changes. On success the job runs and the event is
    /// returned; the discipline removes it from its queue position.
    pub(crate) fn try_start(&mut self, id: JobId) -> Option<SchedulerEvent> {
        let (nodes_needed, power) = self.demand(id);
        if self.pool.available() < nodes_needed {
            return None;
        }
        if self.ledger.reserve(id, power).is_err() {
            return None;
        }
        let nodes = self
            .pool
            .allocate(nodes_needed)
            .expect("availability checked above");
        for n in &nodes {
            self.owner[n.0] = Some(id);
        }
        let job = self.job_mut(id).expect("queued job exists");
        job.start(nodes.clone());
        job.power_budget = Some(power);
        JOBS_STARTED.inc();
        pmstack_obs::event(
            f64::NAN,
            EventKind::JobStarted {
                job: id.0,
                nodes: nodes.len() as u64,
                power_w: power.value(),
            },
        );
        Some(SchedulerEvent::Started {
            job: id,
            nodes,
            power,
        })
    }

    /// Mark a running job finished, returning its nodes and power.
    pub fn complete(&mut self, id: JobId) -> SchedulerEvent {
        self.unsettled = true;
        let job = self.job_mut(id).expect("completing unknown job");
        let nodes = job.complete();
        self.disown(&nodes);
        self.pool.release(nodes);
        self.ledger.release(id);
        JOBS_COMPLETED.inc();
        pmstack_obs::event(f64::NAN, EventKind::JobCompleted { job: id.0 });
        SchedulerEvent::Completed { job: id }
    }

    /// Handle fail-stop death of a node: drain it from the pool, shrink the
    /// owning job's grant and power reservation (reclaiming the dead node's
    /// share into the system budget), and report what happened. A job whose
    /// last node dies is completed (failed out) and fully released.
    ///
    /// Unknown or already-drained nodes produce no events — failure reports
    /// can race, and handling one twice must be harmless.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<SchedulerEvent> {
        self.unsettled = true;
        let Some(owner) = self.drain(node) else {
            return Vec::new();
        };
        let mut events = vec![SchedulerEvent::NodeFailed { node, job: owner }];
        let Some(id) = owner else {
            self.emit_drained(node, Watts::ZERO);
            return events;
        };
        let job = self.job_mut(id).expect("owner exists");
        let held_nodes = job.nodes.len();
        job.lose_node(node);
        if job.nodes.is_empty() {
            // Last node gone: the job fails out entirely.
            job.complete();
            let freed = self.ledger.reservation(id).unwrap_or(Watts::ZERO);
            self.ledger.release(id);
            self.emit_drained(node, freed);
            events.push(SchedulerEvent::Completed { job: id });
        } else {
            // Reclaim the dead node's per-node share of the reservation.
            let share = self
                .ledger
                .reservation(id)
                .map(|w| w / held_nodes as f64)
                .unwrap_or(Watts::ZERO);
            let reclaimed = self.ledger.reclaim(id, share);
            let power_budget = self.ledger.reservation(id);
            let job = self.job_mut(id).expect("owner exists");
            job.power_budget = power_budget;
            let remaining = job.nodes.len();
            self.emit_drained(node, reclaimed);
            pmstack_obs::event(
                f64::NAN,
                EventKind::JobDegraded {
                    job: id.0,
                    lost_node: node.0 as u64,
                    remaining: remaining as u64,
                },
            );
            events.push(SchedulerEvent::JobDegraded {
                job: id,
                lost: node,
                remaining,
                reclaimed,
            });
        }
        events
    }

    /// Handle node death with checkpoint/restart semantics: drain the node
    /// and [`withdraw`](Self::withdraw) the owning job entirely — all
    /// surviving nodes and the full power reservation return, and the job
    /// goes back to pending (unqueued, so the caller can apply a retry
    /// backoff before [`Scheduler::enqueue`]). This is the facility
    /// campaign's path; the coordinator's degrade-in-place path is
    /// [`Scheduler::fail_node`].
    pub fn fail_node_requeue(&mut self, node: NodeId) -> Vec<SchedulerEvent> {
        self.unsettled = true;
        let Some(owner) = self.drain(node) else {
            return Vec::new();
        };
        let mut events = vec![SchedulerEvent::NodeFailed { node, job: owner }];
        match owner {
            Some(id) => {
                let freed = self.ledger.reservation(id).unwrap_or(Watts::ZERO);
                self.emit_drained(node, freed);
                events.push(self.withdraw(id));
            }
            None => self.emit_drained(node, Watts::ZERO),
        }
        events
    }

    /// Drain `node` from the pool. Returns `None` if the pool does not
    /// manage it (failure reports can race; handling one twice must be
    /// harmless), otherwise `Some(owner)`; the owner no longer owns it.
    fn drain(&mut self, node: NodeId) -> Option<Option<JobId>> {
        if !self.pool.remove(node) {
            return None;
        }
        NODES_DRAINED.inc();
        Some(self.owner[node.0].take())
    }

    /// Clear the owner column for nodes a job gave back.
    fn disown(&mut self, nodes: &[NodeId]) {
        for n in nodes {
            self.owner[n.0] = None;
        }
    }

    fn emit_drained(&self, node: NodeId, reclaimed: Watts) {
        pmstack_obs::event(
            f64::NAN,
            EventKind::NodeDrained {
                node: node.0 as u64,
                reclaimed_w: reclaimed.value(),
            },
        );
    }

    /// Kill a running job without completing it: release surviving nodes
    /// and the full power reservation, return the job to `Pending`. It is
    /// *not* queued — the caller decides when it becomes eligible again
    /// (backoff), via [`Scheduler::enqueue`].
    pub fn withdraw(&mut self, id: JobId) -> SchedulerEvent {
        self.unsettled = true;
        let power = self.ledger.reservation(id).unwrap_or(Watts::ZERO);
        let job = self.job_mut(id).expect("withdrawing unknown job");
        let nodes = job.requeue();
        let released = nodes.len();
        self.disown(&nodes);
        self.pool.release(nodes);
        self.ledger.release(id);
        self.queue.retain(|q| *q != id);
        JOBS_REQUEUED.inc();
        pmstack_obs::event(
            f64::NAN,
            EventKind::JobRequeued {
                job: id.0,
                released: released as u64,
                power_w: power.value(),
            },
        );
        SchedulerEvent::Requeued {
            job: id,
            released,
            power,
        }
    }

    /// Re-queue a pending, withdrawn job (its backoff elapsed). Back of
    /// the queue: a restarting job does not outrank patient arrivals.
    pub fn enqueue(&mut self, id: JobId) {
        self.unsettled = true;
        let job = self.job(id).expect("enqueueing unknown job");
        assert_eq!(job.state, JobState::Pending, "only pending jobs enqueue");
        assert!(!self.queue.contains(&id), "job already queued");
        self.queue.push_back(id);
    }

    /// Checkpoint-and-evict a running job under a budget shock: resources
    /// come back like [`Scheduler::withdraw`], but the job re-enters the
    /// queue immediately — at the *front*, since it already held a grant
    /// and should resume as soon as the budget recovers.
    pub fn preempt(&mut self, id: JobId) -> SchedulerEvent {
        self.unsettled = true;
        let power = self.ledger.reservation(id).unwrap_or(Watts::ZERO);
        let job = self.job_mut(id).expect("preempting unknown job");
        let nodes = job.requeue();
        self.disown(&nodes);
        self.pool.release(nodes);
        self.ledger.release(id);
        self.queue.push_front(id);
        JOBS_PREEMPTED.inc();
        pmstack_obs::event(
            f64::NAN,
            EventKind::JobPreempted {
                job: id.0,
                power_w: power.value(),
            },
        );
        SchedulerEvent::Preempted { job: id, power }
    }

    /// Re-reserve a running job's power (a policy tightening or relaxing
    /// its cap under a moving budget). Fails like any reservation when the
    /// ledger cannot fit it; on success the job's recorded budget follows.
    pub fn rebudget(&mut self, id: JobId, power: Watts) -> Result<(), OverCommit> {
        self.unsettled = true;
        assert_eq!(
            self.job(id).expect("rebudgeting unknown job").state,
            JobState::Running,
            "rebudget targets running jobs"
        );
        self.ledger.reserve(id, power)?;
        self.job_mut(id).expect("job exists").power_budget = Some(power);
        Ok(())
    }

    /// Return a drained node to service (lease false-positive repair);
    /// `false` (no-op) if it is not drained: already in service, or never
    /// part of the pool.
    pub fn restore_node(&mut self, id: NodeId) -> bool {
        self.unsettled = true;
        self.pool.restore(id)
    }

    /// Look up a job; `None` for an id this scheduler never assigned.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(slot(id)?)
    }

    /// All jobs currently running, ascending id.
    pub fn running(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.id)
            .collect()
    }

    /// The power ledger (for the policy layer to rebalance grants).
    pub fn ledger(&self) -> &PowerLedger {
        &self.ledger
    }

    /// Mutable ledger access for the policy layer. Unsettles the
    /// scheduler: whatever the caller does to the ledger may let a queued
    /// job start.
    pub fn ledger_mut(&mut self) -> &mut PowerLedger {
        self.unsettled = true;
        &mut self.ledger
    }

    /// Nodes still free.
    pub fn free_nodes(&self) -> usize {
        self.pool.available()
    }

    /// Nodes managed (excludes drained).
    pub fn total_nodes(&self) -> usize {
        self.pool.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(nodes: usize, budget_w: f64) -> FifoScheduler {
        FifoScheduler::new(
            NodePool::new(nodes),
            PowerLedger::new(Watts(budget_w)),
            Watts(240.0),
        )
    }

    #[test]
    fn fifo_order_is_respected() {
        let mut s = scheduler(10, 1e6);
        let a = s.submit(JobSpec::new("a", 6));
        let b = s.submit(JobSpec::new("b", 6));
        let c = s.submit(JobSpec::new("c", 4));
        let events = s.tick();
        // Only `a` fits; `c` would fit but must not jump `b`.
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == a));
        s.complete(a);
        let events = s.tick();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == b));
        assert!(matches!(&events[1], SchedulerEvent::Started { job, .. } if *job == c));
    }

    #[test]
    fn power_is_admission_controlled() {
        // 4 nodes free but only 500 W: a 3-node job at 240 W/node (720 W)
        // must wait.
        let mut s = scheduler(4, 500.0);
        s.submit(JobSpec::new("big", 3));
        assert!(s.tick().is_empty());
        // A hinted job fitting the power starts.
        let mut s = scheduler(4, 500.0);
        let id = s.submit(JobSpec::new("lean", 3).with_power_hint(Watts(150.0)));
        let events = s.tick();
        assert!(
            matches!(&events[0], SchedulerEvent::Started { job, power, .. } if *job == id && *power == Watts(450.0))
        );
    }

    #[test]
    fn completion_returns_resources() {
        let mut s = scheduler(5, 1e6);
        let a = s.submit(JobSpec::new("a", 5));
        s.tick();
        assert_eq!(s.free_nodes(), 0);
        s.complete(a);
        assert_eq!(s.free_nodes(), 5);
        assert_eq!(s.ledger().reserved(), Watts::ZERO);
    }

    #[test]
    fn node_failure_degrades_the_owning_job() {
        let mut s = scheduler(4, 1e6);
        let a = s.submit(JobSpec::new("a", 3).with_power_hint(Watts(150.0)));
        s.tick();
        let held = s.job(a).unwrap().nodes.clone();
        assert_eq!(s.ledger().reservation(a), Some(Watts(450.0)));

        let events = s.fail_node(held[1]);
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            SchedulerEvent::NodeFailed { node, job: Some(j) } if node == held[1] && j == a
        ));
        assert!(matches!(
            events[1],
            SchedulerEvent::JobDegraded { job, lost, remaining: 2, reclaimed }
                if job == a && lost == held[1] && reclaimed == Watts(150.0)
        ));
        // The dead node's share returned to the system budget; the job's
        // reservation shrank to its surviving share.
        assert_eq!(s.ledger().reservation(a), Some(Watts(300.0)));
        // The node is drained: total capacity shrank and completion of the
        // job returns only survivors.
        s.complete(a);
        assert_eq!(s.free_nodes(), 3);
    }

    #[test]
    fn losing_the_last_node_fails_the_job_out() {
        let mut s = scheduler(2, 1e6);
        let a = s.submit(JobSpec::new("a", 1).with_power_hint(Watts(200.0)));
        s.tick();
        let held = s.job(a).unwrap().nodes.clone();
        let events = s.fail_node(held[0]);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], SchedulerEvent::Completed { job } if job == a));
        assert_eq!(s.job(a).unwrap().state, JobState::Completed);
        assert_eq!(s.ledger().reserved(), Watts::ZERO);
    }

    #[test]
    fn failing_a_free_or_unknown_node_is_quiet() {
        let mut s = scheduler(3, 1e6);
        // Free node: drained, reported, no job impact.
        let events = s.fail_node(NodeId(2));
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            SchedulerEvent::NodeFailed {
                node: NodeId(2),
                job: None
            }
        ));
        assert_eq!(s.free_nodes(), 2);
        // Failing it again (or a node that never existed) is a no-op.
        assert!(s.fail_node(NodeId(2)).is_empty());
        assert!(s.fail_node(NodeId(99)).is_empty());
    }

    #[test]
    fn freed_capacity_admits_waiting_jobs_after_failure() {
        // Power-constrained: two 1-node jobs at 240 W each against 300 W.
        let mut s = scheduler(4, 300.0);
        let a = s.submit(JobSpec::new("a", 1));
        let b = s.submit(JobSpec::new("b", 1));
        s.tick();
        assert_eq!(s.running(), vec![a]);
        // `a`'s node dies → its 240 W returns → `b` can now start.
        let held = s.job(a).unwrap().nodes.clone();
        s.fail_node(held[0]);
        let events = s.tick();
        assert!(
            matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == b),
            "reclaimed budget admits the waiting job"
        );
    }

    #[test]
    fn running_lists_active_jobs() {
        let mut s = scheduler(6, 1e6);
        let a = s.submit(JobSpec::new("a", 2));
        let b = s.submit(JobSpec::new("b", 2));
        s.tick();
        assert_eq!(s.running(), vec![a, b]);
        s.complete(a);
        assert_eq!(s.running(), vec![b]);
    }

    #[test]
    fn fail_node_requeue_withdraws_the_whole_job() {
        let mut s = scheduler(4, 1e6);
        let a = s.submit(JobSpec::new("a", 3).with_power_hint(Watts(150.0)));
        s.tick();
        let held = s.job(a).unwrap().nodes.clone();
        let events = s.fail_node_requeue(held[1]);
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            SchedulerEvent::NodeFailed { node, job: Some(j) } if node == held[1] && j == a
        ));
        assert!(matches!(
            events[1],
            SchedulerEvent::Requeued { job, released: 3, power } if job == a && power == Watts(450.0)
        ));
        // Full reservation returned, survivors free, job pending unqueued.
        assert_eq!(s.ledger().reserved(), Watts::ZERO);
        assert_eq!(s.free_nodes(), 3, "two survivors + one untouched node");
        assert_eq!(s.job(a).unwrap().state, JobState::Pending);
        assert!(s.tick().is_empty(), "withdrawn job is not queued yet");
        // After the backoff the caller enqueues it; it restarts on the
        // survivors.
        s.enqueue(a);
        let events = s.tick();
        assert!(matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == a));
        assert_eq!(s.job(a).unwrap().nodes.len(), 3);
    }

    #[test]
    fn preempt_releases_resources_and_requeues_at_the_front() {
        let mut s = scheduler(4, 1e6);
        let a = s.submit(JobSpec::new("a", 2).with_power_hint(Watts(100.0)));
        let b = s.submit(JobSpec::new("b", 2).with_power_hint(Watts(100.0)));
        s.tick();
        let waiting = s.submit(JobSpec::new("w", 2).with_power_hint(Watts(100.0)));
        let ev = s.preempt(a);
        assert!(
            matches!(ev, SchedulerEvent::Preempted { job, power } if job == a && power == Watts(200.0))
        );
        assert_eq!(s.free_nodes(), 2);
        // The preempted job outranks the patient arrival.
        let events = s.tick();
        assert!(matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == a));
        assert_eq!(s.job(waiting).unwrap().state, JobState::Pending);
        let _ = b;
    }

    #[test]
    fn restore_node_never_invents_a_node() {
        let mut s = scheduler(2, 1e6);
        assert!(!s.restore_node(NodeId(7)));
        assert_eq!(s.total_nodes(), 2);
        let wide = s.submit(JobSpec::new("wide", 3));
        assert!(s.tick().is_empty(), "two nodes cannot run a 3-node job");
        assert_eq!(s.job(wide).unwrap().state, JobState::Pending);
    }

    #[test]
    fn unknown_ids_have_no_job() {
        let mut s = scheduler(2, 1e6);
        let a = s.submit(JobSpec::new("a", 1));
        assert_eq!(a, JobId(1));
        assert!(s.job(JobId(0)).is_none());
        assert!(s.job(JobId(2)).is_none());
        assert!(s.job(JobId(u64::MAX)).is_none());
        assert_eq!(s.job(a).unwrap().id, a);
    }

    #[test]
    fn a_settled_tick_skips_the_scan_until_something_changes() {
        let mut s = scheduler(4, 500.0);
        s.submit(JobSpec::new("big", 3));
        assert!(s.tick().is_empty(), "720 W does not fit 500 W");
        assert!(!s.unsettled, "a scan settles the scheduler");
        assert!(s.tick().is_empty());
        // A budget raise through the ledger handle must unsettle it.
        s.ledger_mut().set_system_budget(Watts(1000.0));
        assert!(s.unsettled);
        assert_eq!(s.tick().len(), 1);
    }

    #[test]
    fn rebudget_moves_a_running_jobs_reservation() {
        let mut s = scheduler(2, 500.0);
        let a = s.submit(JobSpec::new("a", 2).with_power_hint(Watts(200.0)));
        s.tick();
        assert_eq!(s.ledger().reservation(a), Some(Watts(400.0)));
        s.rebudget(a, Watts(300.0)).unwrap();
        assert_eq!(s.ledger().reservation(a), Some(Watts(300.0)));
        assert_eq!(s.job(a).unwrap().power_budget, Some(Watts(300.0)));
        // Growing beyond the budget fails cleanly.
        assert!(s.rebudget(a, Watts(600.0)).is_err());
        assert_eq!(s.ledger().reservation(a), Some(Watts(300.0)));
    }
}
