//! # pmstack-runtime — a GEOPM-like job runtime
//!
//! The paper uses the GEOPM job runtime to apply energy- and performance-
//! aware power management inside a job (§III-A). This crate re-implements
//! the pieces the paper depends on, against the simulated hardware:
//!
//! * [`platform`] — the *PlatformIO* layer: a job's view of its hosts,
//!   bulk-synchronous iteration execution, per-host signal sampling
//!   (power, energy, frequency, epoch time) and the power-limit control.
//! * [`agent`] + [`agents`] — the plugin architecture and the three agents
//!   the paper exercises:
//!   [`agents::MonitorAgent`] (observe only),
//!   [`agents::PowerGovernorAgent`] (uniform static
//!   caps), and [`agents::PowerBalancerAgent`]
//!   (reduce the limit where it does not impact performance, redistribute
//!   where it does — the §III-A feedback loop).
//! * [`controller`] — the per-job control loop driving iterations and
//!   agent adjustments, producing [`report`]s.
//! * [`trace`] — per-iteration signal traces (the GEOPM trace-file
//!   analogue) with a convergence detector.
//! * [`endpoint`] — the resource-manager ↔ runtime channel the paper names
//!   as future work (and emulates via pre-characterization): the RM posts a
//!   budget, the runtime reports achieved power. Only the report is wired:
//!   [`controller::Controller`] never reads a posted budget, so budgets do
//!   not change at execution time yet (ROADMAP item 2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod agents;
pub mod controller;
pub mod endpoint;
pub mod platform;
pub mod report;
pub mod trace;

pub use agent::Agent;
pub use agents::{
    DomainBalancer, DomainBalancerParams, DomainShift, FrequencyGovernorAgent,
    HierarchicalBalancerAgent, MonitorAgent, PowerBalancerAgent, PowerGovernorAgent,
};
pub use controller::Controller;
pub use endpoint::{Endpoint, EndpointRm, EndpointRuntime};
pub use platform::{FleetSnapshot, IterationBuffers, IterationOutcome, JobPlatform};
pub use report::{HostReport, JobReport};
pub use trace::{Trace, TraceRecord, Tracer};
