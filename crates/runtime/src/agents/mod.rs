//! The agent implementations the paper's methodology uses.

mod balancer;
mod domains;
mod fixed_allocation;
mod freq_governor;
mod monitor;

pub use balancer::{BalancerParams, HierarchicalBalancerAgent, PowerBalancerAgent};
pub use domains::{DomainBalancer, DomainBalancerParams, DomainShift};
pub use fixed_allocation::FixedAllocationAgent;
pub use freq_governor::FrequencyGovernorAgent;
pub use monitor::MonitorAgent;
