//! The agent plugin interface.
//!
//! GEOPM structures its optimization algorithms as *agents* — plugins that
//! observe platform signals and adjust controls on a fixed cadence. The
//! paper leans on two of them (monitor, power balancer); the fixed-allocation
//! agent, which holds static caps, is the middle ground. Agents here are driven once per kernel iteration
//! by the [`crate::controller::Controller`].

use crate::platform::{IterationOutcome, JobPlatform};
use pmstack_simhw::Watts;

/// A runtime power-management plugin.
pub trait Agent {
    /// Stable plugin name (appears in reports).
    fn name(&self) -> &'static str;

    /// Called once before the first iteration; agents program their initial
    /// control state here.
    fn init(&mut self, platform: &mut JobPlatform) {
        let _ = platform;
    }

    /// Called after every iteration with its outcome; agents adjust limits
    /// for subsequent iterations here.
    fn adjust(&mut self, platform: &mut JobPlatform, outcome: &IterationOutcome) {
        let _ = (platform, outcome);
    }

    /// Called at a boundary between two stretches of one run: a phase
    /// change of a multi-phase application, or a re-allocation, where the
    /// resource manager posts new per-host `caps`. Adaptive agents reset
    /// their search state here so they re-converge quickly; agents that
    /// hold caps re-program from the posted ones.
    fn on_boundary(&mut self, platform: &mut JobPlatform, caps: Option<&[Watts]>) {
        let _ = (platform, caps);
    }

    /// The job-level power budget this agent enforces, if any.
    fn budget(&self) -> Option<Watts> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Passive;
    impl Agent for Passive {
        fn name(&self) -> &'static str {
            "passive"
        }
    }

    #[test]
    fn default_methods_are_inert() {
        let agent = Passive;
        assert_eq!(agent.name(), "passive");
        assert!(agent.budget().is_none());
    }
}
