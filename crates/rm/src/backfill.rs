//! The conservative backfill discipline.
//!
//! Strict FIFO strands nodes whenever the head of the queue is wide: a
//! 512-node job at the head blocks a 4-node job even though nodes sit
//! idle. EASY-style backfill lets later jobs jump the queue *if* they fit
//! right now — conservatively here: a job may backfill only when it also
//! fits the power ledger, so the power guarantee of strict FIFO is
//! preserved. This is the discipline the facility campaign runs to study
//! utilization-vs-fairness at the site level.
//!
//! Only the start decision differs from [`crate::scheduler::Fifo`]; every
//! other path, node failure and requeue included, is the one
//! [`Scheduler`].

use crate::scheduler::{Discipline, Scheduler, SchedulerEvent};
use pmstack_obs::EventKind;

/// Observability: jobs started out of queue order by backfill.
static JOBS_BACKFILLED: pmstack_obs::StaticCounter =
    pmstack_obs::StaticCounter::new("rm.jobs.backfilled");

/// FIFO with backfill: the head of the queue starts whenever it fits, and
/// while it is stuck any later job that fits both nodes and power starts.
#[derive(Debug, Default)]
pub struct Backfill {
    /// Jobs started out of order (observability for fairness studies).
    backfilled: usize,
}

impl Discipline for Backfill {
    fn start(s: &mut Scheduler<Self>) -> Vec<SchedulerEvent> {
        let mut events = Vec::new();
        // Scan from the head; a blocked job does not stop the scan, since
        // later jobs may still backfill. After each start the scan restarts
        // at the head, so it ends only on a pass that starts nothing.
        while let Some((pos, ev)) =
            (0..s.queue.len()).find_map(|pos| s.try_start(s.queue[pos]).map(|ev| (pos, ev)))
        {
            let id = s.queue.remove(pos).expect("the scan found it");
            if pos > 0 {
                s.discipline.backfilled += 1;
                JOBS_BACKFILLED.inc();
                pmstack_obs::event(f64::NAN, EventKind::JobBackfilled { job: id.0 });
            }
            events.push(ev);
        }
        events
    }
}

/// The backfilling scheduler.
pub type BackfillScheduler = Scheduler<Backfill>;

impl BackfillScheduler {
    /// How many jobs have started out of queue order.
    pub fn backfilled_count(&self) -> usize {
        self.discipline.backfilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::PowerLedger;
    use crate::job::{JobSpec, JobState};
    use crate::pool::NodePool;
    use pmstack_simhw::Watts;

    fn scheduler(nodes: usize) -> BackfillScheduler {
        BackfillScheduler::new(
            NodePool::new(nodes),
            PowerLedger::new(Watts(nodes as f64 * 240.0)),
            Watts(240.0),
        )
    }

    #[test]
    fn backfills_past_a_wide_head() {
        let mut s = scheduler(8);
        let wide = s.submit(JobSpec::new("wide", 6));
        s.tick();
        assert_eq!(s.free_nodes(), 2);
        // A 7-node job blocks; a 2-node job behind it backfills.
        let blocked = s.submit(JobSpec::new("blocked", 7));
        let small = s.submit(JobSpec::new("small", 2));
        let events = s.tick();
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == small));
        assert_eq!(s.backfilled_count(), 1);
        assert_eq!(s.job(blocked).unwrap().state, JobState::Pending);
        let _ = wide;
    }

    #[test]
    fn power_still_gates_backfill() {
        let mut s = BackfillScheduler::new(
            NodePool::new(8),
            PowerLedger::new(Watts(4.0 * 240.0)),
            Watts(240.0),
        );
        s.submit(JobSpec::new("head", 7)); // blocked on nodes? no: 7 ≤ 8 but power 7×240 > 960
        s.submit(JobSpec::new("greedy", 5)); // also power-blocked (5×240 > 960)
        let lean = s.submit(JobSpec::new("lean", 5).with_power_hint(Watts(150.0)));
        let events = s.tick();
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == lean));
    }

    #[test]
    fn head_retains_priority_when_it_fits() {
        let mut s = scheduler(8);
        let a = s.submit(JobSpec::new("a", 3));
        let b = s.submit(JobSpec::new("b", 3));
        let events = s.tick();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == a));
        assert!(matches!(&events[1], SchedulerEvent::Started { job, .. } if *job == b));
        assert_eq!(s.backfilled_count(), 0);
    }

    #[test]
    fn utilization_beats_fifo_on_a_blocking_pattern() {
        // FIFO leaves 3 nodes idle behind an 8-wide head; backfill fills
        // them.
        let mut bf = scheduler(8);
        bf.submit(JobSpec::new("running", 5));
        bf.tick();
        bf.submit(JobSpec::new("head", 8));
        bf.submit(JobSpec::new("filler", 3));
        bf.tick();
        assert_eq!(bf.free_nodes(), 0, "backfill fills the stranded nodes");

        let mut fifo = crate::scheduler::FifoScheduler::new(
            NodePool::new(8),
            PowerLedger::new(Watts(8.0 * 240.0)),
            Watts(240.0),
        );
        fifo.submit(JobSpec::new("running", 5));
        fifo.tick();
        fifo.submit(JobSpec::new("head", 8));
        fifo.submit(JobSpec::new("filler", 3));
        fifo.tick();
        assert_eq!(fifo.free_nodes(), 3, "FIFO strands the nodes");
    }

    #[test]
    fn completion_lets_the_head_through() {
        let mut s = scheduler(8);
        let wide = s.submit(JobSpec::new("wide", 6));
        s.tick();
        let head = s.submit(JobSpec::new("head", 7));
        let small = s.submit(JobSpec::new("small", 2));
        s.tick();
        s.complete(wide);
        s.complete(small);
        let events = s.tick();
        assert!(matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == head));
    }

    #[test]
    fn node_failure_parity_with_fifo() {
        // A node dying under a backfilled schedule takes the same degrade
        // path (drain, shrink, reclaim) FIFO does.
        let mut s = scheduler(8);
        let wide = s.submit(JobSpec::new("wide", 6).with_power_hint(Watts(120.0)));
        s.tick();
        s.submit(JobSpec::new("blocked", 7));
        let small = s.submit(JobSpec::new("small", 2).with_power_hint(Watts(120.0)));
        s.tick();
        assert_eq!(s.backfilled_count(), 1);

        let held = s.job(small).unwrap().nodes.clone();
        let events = s.fail_node(held[0]);
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            SchedulerEvent::NodeFailed { node, job: Some(j) } if node == held[0] && j == small
        ));
        assert!(matches!(
            events[1],
            SchedulerEvent::JobDegraded { job, remaining: 1, reclaimed, .. }
                if job == small && reclaimed == Watts(120.0)
        ));
        assert_eq!(s.ledger().reservation(small), Some(Watts(120.0)));
        let _ = wide;
    }

    #[test]
    fn requeue_path_restarts_via_backfill() {
        let mut s = scheduler(8);
        let a = s.submit(JobSpec::new("a", 2).with_power_hint(Watts(100.0)));
        s.tick();
        let held = s.job(a).unwrap().nodes.clone();
        let events = s.fail_node_requeue(held[1]);
        assert!(matches!(
            events[1],
            SchedulerEvent::Requeued { job, released: 2, .. } if job == a
        ));
        assert_eq!(s.job(a).unwrap().state, JobState::Pending);
        assert_eq!(s.ledger().reserved(), Watts::ZERO);
        s.enqueue(a);
        let events = s.tick();
        assert!(matches!(&events[0], SchedulerEvent::Started { job, .. } if *job == a));
    }
}
