//! The frequency governor agent — the DVFS control path.
//!
//! §VII surveys application-level tools (EAR, Nornir) that manage power by
//! scaling *frequency* instead of programming RAPL limits. This agent
//! implements that path over the simulated `IA32_PERF_CTL` interface: a
//! fixed frequency cap on every host of the job.
//!
//! Its instructive weakness, exercised by the tests: under manufacturing
//! variation a fixed frequency yields *different power per node* (the
//! inefficient parts draw more), so meeting a power budget with DVFS alone
//! either wastes headroom or overshoots — exactly why the paper's stack
//! standardizes on power-domain control with RAPL underneath.

use crate::agent::Agent;
use crate::platform::JobPlatform;
use pmstack_simhw::{Hertz, Watts};

/// A static per-job frequency cap through the PERF_CTL path.
#[derive(Debug, Clone, Copy)]
pub struct FrequencyGovernorAgent {
    freq: Hertz,
}

impl FrequencyGovernorAgent {
    /// Cap every host of the job at `freq`.
    pub fn new(freq: Hertz) -> Self {
        Self { freq }
    }

    /// The programmed cap.
    pub fn freq(&self) -> Hertz {
        self.freq
    }

    /// The frequency whose *nominal-node* power draw best matches a
    /// per-host power target for the given workload — how a frequency-
    /// oriented tool translates a power budget into a p-state.
    pub fn freq_for_power_target(platform: &JobPlatform, per_host_target: Watts) -> Hertz {
        let model = platform.model();
        let load = platform.load();
        use pmstack_simhw::LoadModel;
        model
            .spec()
            .pstates()
            .highest_fitting(|f| load.node_power_at(model, 1.0, f) <= per_host_target)
    }
}

impl Agent for FrequencyGovernorAgent {
    fn name(&self) -> &'static str {
        "frequency_governor"
    }

    fn init(&mut self, platform: &mut JobPlatform) {
        // Release any power limit (DVFS-only control) and program the cap.
        let tdp = platform.model().spec().tdp_per_node();
        platform.set_uniform_limit(tdp).expect("TDP is settable");
        platform
            .set_uniform_freq_cap(Some(self.freq))
            .expect("validated frequency");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::FixedAllocationAgent;
    use crate::controller::Controller;
    use pmstack_kernel::KernelConfig;
    use pmstack_simhw::{quartz_spec, Node, NodeId, PowerModel};

    fn platform(eps: &[f64]) -> JobPlatform {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let nodes = eps
            .iter()
            .enumerate()
            .map(|(i, &e)| Node::new(NodeId(i), &model, e).unwrap())
            .collect();
        JobPlatform::new(model, nodes, KernelConfig::balanced_ymm(16.0))
    }

    #[test]
    fn caps_every_host_at_the_programmed_frequency() {
        let mut p = platform(&[1.0, 1.05]);
        let mut agent = FrequencyGovernorAgent::new(Hertz::from_ghz(1.8));
        agent.init(&mut p);
        let out = p.run_iteration();
        for f in &out.host_lead {
            assert_eq!(*f, Hertz::from_ghz(1.8));
        }
    }

    #[test]
    fn dvfs_power_varies_with_hardware_variation() {
        // Fixed frequency + variation ⇒ unequal power: the weakness RAPL
        // power capping does not have.
        let mut p = platform(&[0.94, 1.07]);
        let mut agent = FrequencyGovernorAgent::new(Hertz::from_ghz(2.0));
        agent.init(&mut p);
        let out = p.run_iteration();
        assert!(
            out.host_power[1].value() > out.host_power[0].value() + 5.0,
            "inefficient node must draw visibly more: {:?}",
            out.host_power
        );
    }

    #[test]
    fn equal_power_budget_rapl_beats_dvfs_on_varied_nodes() {
        // Translate a per-host power target into a frequency (nominal-node
        // calibration, as an EAR-style tool would), run both controllers on
        // a *varied* pair of nodes, and compare at equal energy: the
        // power-capping agent adapts per node and finishes no slower
        // while respecting the budget; the DVFS governor overshoots on the
        // inefficient node.
        let target = Watts(170.0);
        let freq = FrequencyGovernorAgent::freq_for_power_target(&platform(&[1.0]), target);

        let dvfs =
            Controller::new(platform(&[0.94, 1.07]), FrequencyGovernorAgent::new(freq)).run(80);
        let rapl = Controller::new(
            platform(&[0.94, 1.07]),
            FixedAllocationAgent::new(vec![target; 2]),
        )
        .run(80);

        // Under DVFS the per-host powers diverge with the variation factor
        // (the cap is a frequency, not a power)…
        let dvfs_spread = (dvfs.hosts[1].avg_power.value() - dvfs.hosts[0].avg_power.value()).abs();
        assert!(
            dvfs_spread > 8.0,
            "DVFS power spread {dvfs_spread:.1} W should track the ±7% variation"
        );
        // …while RAPL pins both hosts near the budgeted power (small
        // residual spread from p-state quantization below the cap).
        let rapl_spread = (rapl.hosts[1].avg_power.value() - rapl.hosts[0].avg_power.value()).abs();
        assert!(
            rapl_spread < dvfs_spread / 1.5 && rapl_spread < 8.0,
            "RAPL spread {rapl_spread:.1} W should be far tighter than DVFS {dvfs_spread:.1} W"
        );
        let rapl_max_host = rapl
            .hosts
            .iter()
            .map(|h| h.avg_power.value())
            .fold(0.0, f64::max);
        assert!(
            rapl_max_host <= target.value() + 5.0,
            "RAPL host {rapl_max_host:.1} W must respect {target}"
        );
    }
}
