//! # pmstack-rm — a SLURM-like resource manager
//!
//! The system-level half of the paper's stack: the component that owns the
//! cluster's nodes and its site-level power budget, admits jobs, and applies
//! per-job/per-host power caps (the role SLURM's power management plugin or
//! Cray ALPS plays in §VII-C).
//!
//! The resource manager is deliberately *workload-agnostic*: it sees job
//! node counts and power numbers, never application structure. Application
//! awareness only enters through the characterization data the policies in
//! `pmstack-core` consume — that separation is the paper's whole point.
//!
//! One [`Scheduler`] type admits jobs and owns every failure path; its
//! queueing discipline, [`Fifo`] or [`Backfill`], only decides which queued
//! jobs start on a tick ([`FifoScheduler`] and [`BackfillScheduler`] name
//! the two).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backfill;
pub mod budget;
pub mod domains;
pub mod job;
pub mod lease;
pub mod lifecycle;
pub mod pool;
pub mod retry;
pub mod scheduler;

pub use backfill::{Backfill, BackfillScheduler};
pub use budget::{OverCommit, PowerLedger};
pub use domains::{DomainGrant, DomainLedger};
pub use job::{Job, JobId, JobSpec, JobState};
pub use lease::LeaseTable;
pub use lifecycle::{JobLifecycle, LifecycleState};
pub use pool::NodePool;
pub use retry::RetryPolicy;
pub use scheduler::{Discipline, Fifo, FifoScheduler, Scheduler, SchedulerEvent};
