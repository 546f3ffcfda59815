//! # powerstack — a unified, application-aware HPC power management stack
//!
//! A from-scratch Rust reproduction of *"Introducing Application Awareness
//! Into a Unified Power Management Stack"* (Wilson et al., 2021): a resource
//! manager and a GEOPM-like job runtime that share one view of power, so
//! that site-level constraints **and** application behaviour both decide
//! where every watt goes.
//!
//! ## Layers
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`exec`] | `pmstack-exec` | work-stealing parallel-execution substrate (`par_map`), deterministic by construction |
//! | [`simhw`] | `pmstack-simhw` | simulated hardware: MSR/RAPL devices, power-frequency models, manufacturing variation, nodes, clusters |
//! | [`kernel`] | `pmstack-kernel` | the arithmetic-intensity synthetic benchmark: analytic model + native executable kernel |
//! | [`runtime`] | `pmstack-runtime` | the job runtime: platform IO, monitor/fixed-allocation/balancer agents, reports, RM endpoint |
//! | [`rm`] | `pmstack-rm` | the resource manager: node pool, FIFO scheduler, power ledger |
//! | [`core`] | `pmstack-core` | the five power policies, characterization, mix evaluation, the unified coordinator |
//! | [`analysis`] | `pmstack-analysis` | k-means, roofline, statistics, metrics, text rendering |
//! | [`experiments`] | `pmstack-experiments` | Table II mixes, Table III budgets, the Fig. 7/8 grid, figure generators |
//!
//! ## Quickstart
//!
//! ```
//! use powerstack::core::{MixedAdaptive, PolicyCtx, PowerPolicy, JobChar};
//! use powerstack::kernel::KernelConfig;
//! use powerstack::simhw::{quartz_spec, PowerModel, Watts};
//!
//! // A Quartz-like machine and two four-node jobs.
//! let model = PowerModel::new(quartz_spec()).unwrap();
//! let jobs = vec![
//!     JobChar::analytic(KernelConfig::balanced_ymm(8.0), &model, &[1.0; 4]),
//!     JobChar::analytic(KernelConfig::balanced_ymm(0.5), &model, &[1.0; 4]),
//! ];
//!
//! // Allocate a 1.5 kW system budget with the paper's MixedAdaptive policy.
//! let ctx = PolicyCtx {
//!     system_budget: Watts(1500.0),
//!     min_node: quartz_spec().min_rapl_per_node(),
//!     tdp_node: quartz_spec().tdp_per_node(),
//! };
//! let allocation = MixedAdaptive.allocate(&ctx, &jobs);
//! assert!(allocation.total() <= Watts(1500.0));
//! ```
//!
//! Run `cargo run --release -p pmstack-experiments --bin repro -- all` to
//! regenerate every table and figure of the paper.

#![warn(missing_docs)]

pub use pmstack_analysis as analysis;
pub use pmstack_core as core;
pub use pmstack_exec as exec;
pub use pmstack_experiments as experiments;
pub use pmstack_kernel as kernel;
pub use pmstack_rm as rm;
pub use pmstack_runtime as runtime;
pub use pmstack_simhw as simhw;
