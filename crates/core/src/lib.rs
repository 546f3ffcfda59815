//! # pmstack-core — the unified power management stack
//!
//! The paper's contribution: a resource manager and a job runtime sharing
//! one view of power, so that system-level constraints *and* application
//! behaviour both shape where every watt goes.
//!
//! * [`characterization`] — the per-host *used* (monitor) and *needed*
//!   (power-balancer) power data the policies consume, producible either
//!   analytically from the models or by actually running the
//!   `pmstack-runtime` agents (§IV-B).
//! * [`allocation`] — allocation containers and the redistribution
//!   arithmetic shared by the policies (uniform fill, headroom-weighted
//!   spread).
//! * [`policy`] + [`policies`] — the five §III policies:
//!
//!   | policy | system aware | app aware |
//!   |---|---|---|
//!   | [`policies::Precharacterized`] | no | no |
//!   | [`policies::StaticCaps`] | uniform | no |
//!   | [`policies::MinimizeWaste`] | yes | observed power only |
//!   | [`policies::JobAdaptive`] | per-job silo | yes |
//!   | [`policies::MixedAdaptive`] | **yes** | **yes** |
//!
//! * [`evaluate`] — the fast steady-state evaluator for whole workload
//!   mixes under an allocation (what the Fig. 7 / Fig. 8 grids run on).
//! * [`coordinator`] — the end-to-end stack: RM scheduling, per-job runtime
//!   controllers with the appropriate agent, and full reports; used to
//!   validate the analytic evaluator. No budget is updated over the
//!   runtime endpoint at execution time: the coordinator attaches none, and
//!   a controller given one only reports achieved power to it (ROADMAP
//!   item 2). `CoordinatorMode::Online` re-allocates once, mid-run, from
//!   measured power instead.
//! * [`resilience`] — typed coordination errors and the record of how the
//!   stack degraded gracefully under injected hardware faults (node death,
//!   stuck RAPL, telemetry dropout).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocation;
pub mod characterization;
pub mod coordinator;
pub mod evaluate;
pub mod policies;
pub mod policy;
pub mod resilience;

pub use allocation::Allocation;
pub use characterization::{CharacterizationSource, HostChar, JobChar};
pub use coordinator::{Coordinator, CoordinatorMode, MixRun};
pub use evaluate::{apply_job_runtime, evaluate_mix, JobOutcome, JobSetup, MixEvaluation};
pub use policies::{JobAdaptive, MinimizeWaste, MixedAdaptive, Precharacterized, StaticCaps};
pub use policy::{PolicyCtx, PolicyKind, PowerPolicy};
pub use resilience::{CoordinatorError, ResilienceReport};
