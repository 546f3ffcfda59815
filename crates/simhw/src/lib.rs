//! # pmstack-simhw — simulated HPC hardware substrate
//!
//! This crate stands in for the hardware layer the paper's evaluation ran on:
//! Intel Xeon E5-2695 v4 ("Broadwell") nodes of the LLNL Quartz cluster, with
//! power capping exposed through RAPL MSRs via the `msr-safe` kernel module.
//!
//! It provides:
//!
//! * [`units`] — strongly-typed physical quantities (watts, joules, hertz, …).
//! * [`msr`] — a simulated model-specific-register device with an
//!   `msr-safe`-style allowlist.
//! * [`rapl`] — RAPL package-domain semantics on top of the MSR device:
//!   unit registers, power-limit encoding, energy-status counter with
//!   32-bit wraparound, and a running-average limit-enforcement filter.
//! * [`pstate`] — the discrete frequency ladder (p-states) of the part.
//! * [`power`] — the socket/node power model `P(f, activity)` used
//!   throughout the stack.
//! * [`variation`] — seeded manufacturing-variation sampling that reproduces
//!   the tri-modal achieved-frequency distribution of Fig. 6.
//! * [`node`] / [`cluster`] — node and cluster state containers, including
//!   the frequency solver that emulates the package control unit (PCU)
//!   picking the highest p-state that fits the active power limit.
//! * [`quartz`] — the Table I machine description as compile-time constants.
//!
//! Nothing in this crate knows about workloads; workload-dependent activity
//! enters through the [`power::LoadModel`] trait implemented by
//! `pmstack-kernel`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bank;
pub mod classes;
pub mod clock;
pub mod cluster;
pub mod error;
pub mod faults;
pub mod machines;
pub mod msr;
pub mod node;
pub mod power;
pub mod pstate;
pub mod quartz;
pub mod rapl;
pub mod units;
pub mod variation;

pub use bank::{HostStep, NodeBank, StepReport, DEFAULT_SEGMENT_HOSTS};
pub use classes::{standard_classes, ClassId, ClassModels, ClassedBank, NodeClass};
pub use clock::SimClock;
pub use cluster::{Cluster, ClusterBuilder};
pub use error::SimHwError;
pub use faults::{FaultEvent, FaultKind, FaultPlan, NodeHealth};
pub use node::{Node, NodeId, NodePowerSample};
pub use power::{CapSpan, CoreClass, LoadModel, MachineSpec, OperatingPoint, PowerModel};
pub use pstate::PStateLadder;
pub use quartz::quartz_spec;
pub use rapl::{DomainConfig, RaplDomain};
pub use units::{Hertz, Joules, Seconds, Watts};
pub use variation::{VariationModel, VariationProfile};
