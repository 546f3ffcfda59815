//! The append-only structured event journal: typed events stamped with
//! simulation time and wall time, held in a bounded ring buffer.
//!
//! Events are for the *rare, meaningful* state changes of the stack — a
//! fault firing, a RAPL request clamped, a job backfilled — not per-
//! iteration traffic (that is what counters and histograms are for). The
//! ring keeps the most recent [`Journal::CAPACITY`] events and counts what
//! it sheds, so a snapshot always says whether its view is complete.

use crate::recorder;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One journal entry: a typed [`EventKind`] plus its timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (never reused, even across ring wrap).
    pub seq: u64,
    /// Microseconds since the recorder's wall-clock epoch.
    pub wall_us: u64,
    /// The caller's simulation clock in seconds (`NaN` when no simulated
    /// time is meaningful; exported as `null`).
    pub sim_s: f64,
    /// What happened.
    pub kind: EventKind,
}

/// A scalar field of an event, as exposed by [`EventKind::fields`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer field (host indices, job ids, node counts).
    U64(u64),
    /// A floating-point field (watts, seconds).
    F64(f64),
    /// A static-string field (fault kinds, marker names).
    Str(&'static str),
}

/// The event taxonomy: every structured thing the stack journals.
///
/// Layers own their variants — simhw fires [`Self::FaultInjected`] and
/// [`Self::RaplClamp`], the runtime [`Self::FfwdCaptured`], the resource
/// manager the job/node lifecycle events. [`Self::Marker`] is the escape
/// hatch for ad-hoc annotations (e.g. phase boundaries in experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A fault from the fault plan fired against a live host.
    FaultInjected {
        /// Global host index the fault hit.
        host: u64,
        /// Fault kind name (e.g. `"node_death"`, `"stuck_rapl"`).
        fault: &'static str,
    },
    /// A power-limit request was clamped by per-socket RAPL bounds or a
    /// stuck-RAPL latch: what lands differs from what was asked.
    RaplClamp {
        /// Node index whose limit was clamped.
        node: u64,
        /// Requested node power limit in watts.
        requested_w: f64,
        /// Limit actually applied after clamping, in watts.
        applied_w: f64,
    },
    /// Every segment of a platform became clean: from the next iteration
    /// the whole fleet fast-forwards instead of stepping.
    FfwdCaptured {
        /// Number of hosts in the fleet.
        hosts: u64,
    },
    /// The resource manager started a job.
    JobStarted {
        /// Job id.
        job: u64,
        /// Nodes allocated to the job.
        nodes: u64,
        /// Power reserved for the job, in watts.
        power_w: f64,
    },
    /// A job ran to completion and released its resources.
    JobCompleted {
        /// Job id.
        job: u64,
    },
    /// A job was started out of queue order by the backfill scheduler.
    JobBackfilled {
        /// Job id.
        job: u64,
    },
    /// A dead node was drained from the pool and its watts reclaimed.
    NodeDrained {
        /// Node index drained.
        node: u64,
        /// Watts returned to the ledger.
        reclaimed_w: f64,
    },
    /// A running job lost a node but continues degraded.
    JobDegraded {
        /// Job id.
        job: u64,
        /// The node the job lost.
        lost_node: u64,
        /// Nodes the job still holds.
        remaining: u64,
    },
    /// A running job was killed (node death under it) and returned to the
    /// pending pool for a retried launch.
    JobRequeued {
        /// Job id.
        job: u64,
        /// Surviving nodes released back to the pool.
        released: u64,
        /// Watts released back to the ledger.
        power_w: f64,
    },
    /// A running job was checkpointed and evicted by a budget shock.
    JobPreempted {
        /// Job id.
        job: u64,
        /// Watts released back to the ledger.
        power_w: f64,
    },
    /// A node's heartbeat lease outlived its timeout and the node was
    /// declared dead.
    LeaseExpired {
        /// Node index whose lease expired.
        node: u64,
    },
    /// A job finished writing a checkpoint; a later restart resumes here.
    CheckpointSaved {
        /// Job id.
        job: u64,
        /// Checkpointed progress, node-independent work hours.
        progress_h: f64,
    },
    /// The facility power budget moved abruptly (grid-price shock).
    BudgetShock {
        /// The new system budget, watts.
        budget_w: f64,
    },
    /// Ad-hoc annotation with one numeric value.
    Marker {
        /// Marker name.
        name: &'static str,
        /// Associated value.
        value: f64,
    },
}

impl EventKind {
    /// Stable dotted event name, used as the `"event"` key in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::FaultInjected { .. } => "fault.injected",
            EventKind::RaplClamp { .. } => "rapl.clamp",
            EventKind::FfwdCaptured { .. } => "ffwd.captured",
            EventKind::JobStarted { .. } => "job.started",
            EventKind::JobCompleted { .. } => "job.completed",
            EventKind::JobBackfilled { .. } => "job.backfilled",
            EventKind::NodeDrained { .. } => "node.drained",
            EventKind::JobDegraded { .. } => "job.degraded",
            EventKind::JobRequeued { .. } => "job.requeued",
            EventKind::JobPreempted { .. } => "job.preempted",
            EventKind::LeaseExpired { .. } => "lease.expired",
            EventKind::CheckpointSaved { .. } => "checkpoint.saved",
            EventKind::BudgetShock { .. } => "budget.shock",
            EventKind::Marker { .. } => "marker",
        }
    }

    /// The event's payload as (field name, value) pairs, in declaration
    /// order — the single source the exporters serialize from.
    pub fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        match *self {
            EventKind::FaultInjected { host, fault } => vec![
                ("host", FieldValue::U64(host)),
                ("fault", FieldValue::Str(fault)),
            ],
            EventKind::RaplClamp {
                node,
                requested_w,
                applied_w,
            } => vec![
                ("node", FieldValue::U64(node)),
                ("requested_w", FieldValue::F64(requested_w)),
                ("applied_w", FieldValue::F64(applied_w)),
            ],
            EventKind::FfwdCaptured { hosts } => vec![("hosts", FieldValue::U64(hosts))],
            EventKind::JobStarted {
                job,
                nodes,
                power_w,
            } => vec![
                ("job", FieldValue::U64(job)),
                ("nodes", FieldValue::U64(nodes)),
                ("power_w", FieldValue::F64(power_w)),
            ],
            EventKind::JobCompleted { job } => vec![("job", FieldValue::U64(job))],
            EventKind::JobBackfilled { job } => vec![("job", FieldValue::U64(job))],
            EventKind::NodeDrained { node, reclaimed_w } => vec![
                ("node", FieldValue::U64(node)),
                ("reclaimed_w", FieldValue::F64(reclaimed_w)),
            ],
            EventKind::JobDegraded {
                job,
                lost_node,
                remaining,
            } => vec![
                ("job", FieldValue::U64(job)),
                ("lost_node", FieldValue::U64(lost_node)),
                ("remaining", FieldValue::U64(remaining)),
            ],
            EventKind::JobRequeued {
                job,
                released,
                power_w,
            } => vec![
                ("job", FieldValue::U64(job)),
                ("released", FieldValue::U64(released)),
                ("power_w", FieldValue::F64(power_w)),
            ],
            EventKind::JobPreempted { job, power_w } => vec![
                ("job", FieldValue::U64(job)),
                ("power_w", FieldValue::F64(power_w)),
            ],
            EventKind::LeaseExpired { node } => vec![("node", FieldValue::U64(node))],
            EventKind::CheckpointSaved { job, progress_h } => vec![
                ("job", FieldValue::U64(job)),
                ("progress_h", FieldValue::F64(progress_h)),
            ],
            EventKind::BudgetShock { budget_w } => vec![("budget_w", FieldValue::F64(budget_w))],
            EventKind::Marker { name, value } => vec![
                ("name", FieldValue::Str(name)),
                ("value", FieldValue::F64(value)),
            ],
        }
    }
}

/// Bounded ring buffer of [`Event`]s with a monotonic sequence counter and
/// a shed-count for overflow accounting.
#[derive(Debug)]
pub(crate) struct Journal {
    ring: Mutex<VecDeque<Event>>,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl Journal {
    /// Ring capacity: comfortably holds a full `repro` run's worth of job
    /// lifecycle + fault + clamp events while bounding memory.
    pub(crate) const CAPACITY: usize = 4096;

    pub(crate) fn new() -> Self {
        Self {
            ring: Mutex::new(VecDeque::with_capacity(64)),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one event, stamping wall time from the recorder epoch and
    /// shedding the oldest entry when full.
    pub(crate) fn push(&self, sim_s: f64, kind: EventKind) {
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            wall_us: recorder().wall_us(),
            sim_s,
            kind,
        };
        let mut ring = self.ring.lock().expect("journal poisoned");
        if ring.len() >= Self::CAPACITY {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    pub(crate) fn clear(&self) {
        self.ring.lock().expect("journal poisoned").clear();
        self.dropped.store(0, Ordering::Relaxed);
        // seq keeps counting: sequence numbers are never reused.
    }

    /// Copy out the retained events (oldest first) and the shed count.
    pub(crate) fn drain_copy(&self) -> (Vec<Event>, u64) {
        let ring = self.ring.lock().expect("journal poisoned");
        (
            ring.iter().cloned().collect(),
            self.dropped.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sheds_oldest_and_counts_drops() {
        let j = Journal::new();
        for i in 0..(Journal::CAPACITY as u64 + 10) {
            j.push(
                i as f64,
                EventKind::Marker {
                    name: "tick",
                    value: i as f64,
                },
            );
        }
        let (events, dropped) = j.drain_copy();
        assert_eq!(events.len(), Journal::CAPACITY);
        assert_eq!(dropped, 10);
        // Oldest surviving event is the 11th pushed; seq is monotonic.
        assert_eq!(events.first().unwrap().seq, 10);
        assert_eq!(events.last().unwrap().seq, Journal::CAPACITY as u64 + 9);
    }

    #[test]
    fn event_names_and_fields_align() {
        let kind = EventKind::RaplClamp {
            node: 7,
            requested_w: 150.0,
            applied_w: 120.0,
        };
        assert_eq!(kind.name(), "rapl.clamp");
        let fields = kind.fields();
        assert_eq!(fields[0], ("node", FieldValue::U64(7)));
        assert_eq!(fields[2], ("applied_w", FieldValue::F64(120.0)));
    }
}
