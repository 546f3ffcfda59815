//! The fixed-allocation agent: exact per-host caps, programmed once and
//! held.
//!
//! This is the runtime side of the paper's emulated feedback loop: the
//! resource manager's policy decides every host's cap from
//! pre-characterization data and the job runtime only enforces it (§VIII).
//! With equal caps it is the performance-agnostic way to enforce a job
//! budget — divide it evenly and hold it — which is the within-job
//! behaviour of the `StaticCaps` and `MinimizeWaste` policies.

use crate::agent::Agent;
use crate::platform::JobPlatform;
use pmstack_simhw::Watts;

/// An agent that programs exact per-host caps and holds them.
#[derive(Debug, Clone)]
pub struct FixedAllocationAgent {
    caps: Vec<Watts>,
}

impl FixedAllocationAgent {
    /// Hold the given per-host caps.
    pub fn new(caps: Vec<Watts>) -> Self {
        Self { caps }
    }
}

impl Agent for FixedAllocationAgent {
    fn name(&self) -> &'static str {
        "fixed_allocation"
    }

    fn init(&mut self, platform: &mut JobPlatform) {
        let caps = std::mem::take(&mut self.caps);
        self.on_boundary(platform, Some(&caps));
    }

    /// Hold the posted caps, writing only those that changed: re-posting
    /// the held caps writes nothing. A host refusing its cap (fail-stop
    /// dead, transient MSR denial) simply keeps its previous enforced limit
    /// and the run continues degraded: one batched write, resumed past each
    /// host that refused. Hosts past the end of `caps` keep their limits
    /// too.
    fn on_boundary(&mut self, platform: &mut JobPlatform, caps: Option<&[Watts]>) {
        let Some(caps) = caps.filter(|&caps| caps != self.caps) else {
            return;
        };
        let held = std::mem::replace(&mut self.caps, caps.to_vec());
        let mut from = 0;
        while let Err((h, _)) = platform.set_host_limits(|h| {
            let changed = held.get(h) != caps.get(h);
            caps.get(h).copied().filter(|_| h >= from && changed)
        }) {
            from = h + 1;
        }
    }

    fn budget(&self) -> Option<Watts> {
        Some(self.caps.iter().copied().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmstack_kernel::KernelConfig;
    use pmstack_simhw::{quartz_spec, FaultKind, NodeId, PowerModel};

    fn platform(n: usize) -> JobPlatform {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let hosts: Vec<(NodeId, f64)> = (0..n).map(|h| (NodeId(h), 1.0)).collect();
        JobPlatform::from_hosts(model, &hosts, KernelConfig::balanced_ymm(8.0)).unwrap()
    }

    #[test]
    fn equal_caps_split_a_budget_uniformly() {
        let mut p = platform(4);
        let mut agent = FixedAllocationAgent::new(vec![Watts(160.0); 4]);
        agent.init(&mut p);
        for l in p.host_limits() {
            assert!((l.value() - 160.0).abs() < 0.5);
        }
        assert_eq!(agent.budget(), Some(Watts(640.0)));
    }

    #[test]
    fn caps_below_the_hardware_floor_clamp_to_it() {
        let mut p = platform(2);
        // 100 W/host requested; hardware floor is 136 W/node.
        FixedAllocationAgent::new(vec![Watts(100.0); 2]).init(&mut p);
        for l in p.host_limits() {
            assert!((l.value() - 136.0).abs() < 0.5);
        }
    }

    #[test]
    fn a_boundary_writes_only_the_caps_that_changed() {
        let mut p = platform(3);
        let mut agent = FixedAllocationAgent::new(vec![Watts(150.0), Watts(160.0), Watts(170.0)]);
        agent.init(&mut p);
        // A limit changed behind the agent's back shows which hosts a
        // boundary writes.
        p.set_host_limit(0, Watts(200.0)).unwrap();
        agent.on_boundary(&mut p, None);
        agent.on_boundary(&mut p, Some(&[Watts(150.0), Watts(160.0), Watts(170.0)]));
        agent.on_boundary(&mut p, Some(&[Watts(150.0), Watts(160.0), Watts(180.0)]));
        let limits = p.host_limits();
        assert!(
            (limits[0].value() - 200.0).abs() < 0.5,
            "unchanged: not written"
        );
        assert!((limits[1].value() - 160.0).abs() < 0.5);
        assert!((limits[2].value() - 180.0).abs() < 0.5, "changed: written");
        assert_eq!(agent.budget(), Some(Watts(490.0)));
    }

    /// The batched cap write leaves what one write per host left: a dead
    /// host and a host whose MSR write glitches keep their limits, and the
    /// hosts after each are still capped.
    #[test]
    fn fixed_allocation_resumes_past_each_refusing_host() {
        let faulted = || {
            let mut p = platform(6);
            p.inject_fault(1, FaultKind::NodeDeath);
            p.inject_fault(4, FaultKind::TransientMsrFault);
            p
        };
        // Five caps for six hosts: the last host keeps its limit too.
        let caps: Vec<Watts> = (0..5).map(|h| Watts(150.0 + 10.0 * h as f64)).collect();
        let mut per_host = faulted();
        for (h, &cap) in caps.iter().enumerate() {
            let _ = per_host.set_host_limit(h, cap);
        }
        let mut batched = faulted();
        let before = batched.host_limits();
        FixedAllocationAgent::new(caps).init(&mut batched);
        let after = batched.host_limits();
        assert_eq!(after, per_host.host_limits());
        assert_eq!(batched.host_health(), per_host.host_health());
        for h in [1, 4, 5] {
            assert_eq!(after[h], before[h], "host {h} keeps its limit");
        }
        for h in [0, 2, 3] {
            assert_ne!(after[h], before[h], "host {h} is capped");
        }
    }
}
