//! The per-job control loop.
//!
//! Drives the job's iterations, lets the agent adjust limits after each one
//! (GEOPM's controller cadence), optionally reports achieved power to a
//! resource-manager [`crate::endpoint::Endpoint`], and assembles the
//! [`crate::report::JobReport`].

use crate::agent::Agent;
use crate::endpoint::EndpointRuntime;
use crate::platform::{IterationBuffers, JobPlatform};
use crate::report::{HostReport, JobReport};
use pmstack_kernel::KernelConfig;
use pmstack_simhw::{Joules, NodeHealth, Seconds, Watts};

/// Fleets at least this large fan the controller's per-host accumulators
/// (epoch sums, tail-limit sums) across the exec pool in segment-aligned
/// chunks. The break-even is the bank's: a round costs ~2 µs, and two-way
/// `f64` sums measured even at 8192 hosts (2.0 µs either way) and ahead
/// from 16384 (3.9 → 3.1 µs; 100 000: 27.7 → 14.0) on a 2-vCPU host.
const PAR_ACCUM_THRESHOLD: usize = 16384;

/// `sums[i] += src[i]` for every `i`. Elementwise, so chunking cannot change
/// a single bit; mega-fleets run the chunks on the pool, aligned to the
/// bank's segment size so the memory stride matches the stepping pass.
fn accumulate_into<T>(sums: &mut [T], src: &[T], segment: usize)
where
    T: std::ops::AddAssign + Copy + Send + Sync,
{
    debug_assert_eq!(sums.len(), src.len());
    let add = |sums: &mut [T], src: &[T]| {
        for (s, v) in sums.iter_mut().zip(src) {
            *s += *v;
        }
    };
    if sums.len() < PAR_ACCUM_THRESHOLD {
        return add(sums, src);
    }
    pmstack_exec::par_chunks_mut(sums, segment.max(1), |base, block| {
        add(block, &src[base..]);
    });
}

/// A job controller binding a platform to an agent.
pub struct Controller<A: Agent> {
    platform: JobPlatform,
    agent: A,
    endpoint: Option<EndpointRuntime>,
}

impl<A: Agent> Controller<A> {
    /// Create a controller over a platform.
    pub fn new(platform: JobPlatform, agent: A) -> Self {
        Self {
            platform,
            agent,
            endpoint: None,
        }
    }

    /// Attach a resource-manager endpoint. The controller reports the job's
    /// achieved power to it after every iteration
    /// ([`EndpointRuntime::report_achieved`]); it does not read budgets
    /// posted there, so a posted budget changes nothing. Closing the loop
    /// (the execution-time feedback the paper emulates with
    /// pre-characterization) is ROADMAP item 2.
    pub fn with_endpoint(mut self, endpoint: EndpointRuntime) -> Self {
        self.endpoint = Some(endpoint);
        self
    }

    /// Access the platform.
    pub fn platform(&self) -> &JobPlatform {
        &self.platform
    }

    /// Access the agent.
    pub fn agent(&self) -> &A {
        &self.agent
    }

    /// Run `iterations` bulk-synchronous iterations and report.
    pub fn run(&mut self, iterations: usize) -> JobReport {
        assert!(iterations > 0, "a run needs at least one iteration");
        let _span = pmstack_obs::span!("runtime.job.secs");
        // Steady-state limits are reported as the mean over the last
        // quarter of the run: dynamic agents breathe around their optimum,
        // and the time average is what pre-characterization consumes.
        let tail_start = iterations - (iterations / 4).max(1).min(iterations);
        self.drive(&[(None, iterations)], tail_start)
    }

    /// Run a multi-phase application: each phase rebinds the platform's
    /// workload, notifies the agent (adaptive agents re-open their search),
    /// and contributes its iterations to one combined report. Limits are
    /// reported as the mean over every iteration of every phase.
    pub fn run_phased(&mut self, workload: &pmstack_kernel::PhasedWorkload) -> JobReport {
        assert!(!workload.is_empty(), "a run needs at least one phase");
        let phases: Vec<_> = workload
            .phases
            .iter()
            .map(|phase| (Some(phase.config), phase.iterations))
            .collect();
        self.drive(&phases, 0)
    }

    /// The loop both runs share. Each phase rebinds the workload when it
    /// carries a config and, after the first, tells the agent; limits are
    /// averaged over the iterations from `tail_start` on, counted across
    /// phases.
    fn drive(&mut self, phases: &[(Option<KernelConfig>, usize)], tail_start: usize) -> JobReport {
        self.agent.init(&mut self.platform);

        let n = self.platform.num_hosts();
        let total_iters: usize = phases.iter().map(|&(_, iterations)| iterations).sum();
        let energy_start = self.platform.host_energy();
        let mut iteration_times = Vec::with_capacity(total_iters);
        let mut epoch_sums = vec![Seconds::ZERO; n];
        let mut elapsed = Seconds::ZERO;
        let mut flops = 0.0;
        let mut limit_sums = vec![Watts::ZERO; n];
        let mut limit_count = 0usize;
        let mut bufs = IterationBuffers::new();
        let mut limits_buf = Vec::with_capacity(n);
        let mut iter = 0usize;

        for (p, &(config, iterations)) in phases.iter().enumerate() {
            if let Some(config) = config {
                self.platform.set_config(config);
            }
            if p > 0 {
                self.agent.on_phase_change(&mut self.platform);
            }
            for _ in 0..iterations {
                self.platform.run_iteration_into(&mut bufs);
                let outcome = bufs.outcome();
                elapsed += outcome.elapsed;
                iteration_times.push(outcome.elapsed);
                let segment = self.platform.segment_hosts();
                accumulate_into(&mut epoch_sums, &outcome.host_compute_time, segment);
                Self::mark_host_trust(&mut self.platform, outcome);
                self.agent.adjust(&mut self.platform, outcome);
                if iter >= tail_start {
                    self.platform.host_limits_into(&mut limits_buf);
                    accumulate_into(&mut limit_sums, &limits_buf, segment);
                    limit_count += 1;
                }
                if let Some(ep) = &self.endpoint {
                    ep.report_achieved(outcome.total_power());
                }
                iter += 1;
            }
            flops += self.platform.load().perf().node_flops_per_iteration()
                * iterations as f64
                * n as f64;
        }

        let energy_end = self.platform.host_energy();
        let hosts: Vec<HostReport> = (0..n)
            .map(|h| {
                let energy = energy_end[h] - energy_start[h];
                HostReport {
                    host: h,
                    eps: self.platform.host_eps(h),
                    avg_power: if elapsed.value() > 0.0 {
                        energy / elapsed
                    } else {
                        Watts::ZERO
                    },
                    energy,
                    final_limit: limit_sums[h] / limit_count.max(1) as f64,
                    mean_epoch: epoch_sums[h] / total_iters as f64,
                }
            })
            .collect();
        JobReport {
            agent: self.agent.name().to_string(),
            iterations: total_iters,
            elapsed,
            iteration_times,
            energy: hosts.iter().map(|h| h.energy).sum::<Joules>(),
            flops,
            hosts,
        }
    }

    /// Propagate the iteration's telemetry quality into host health: hosts
    /// with stale readings become suspect (agents hold their last-known
    /// caps there), hosts with fresh readings are cleared again. Death is
    /// recorded by the hardware layer itself. (Associated function so the
    /// borrowed outcome can live in the caller's iteration buffers.)
    fn mark_host_trust(platform: &mut JobPlatform, outcome: &crate::platform::IterationOutcome) {
        for h in 0..outcome.host_alive.len() {
            if !outcome.host_alive[h] {
                continue;
            }
            // Skip no-op transitions: in steady state every host is already
            // Healthy and fresh, so this pass is a read-only scan instead of
            // a fleet of redundant health writes.
            let health = platform.host_health_of(h);
            if outcome.host_fresh[h] {
                if health != NodeHealth::Healthy {
                    platform.mark_host_healthy(h);
                }
            } else if health != NodeHealth::Suspect {
                platform.mark_host_suspect(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::{MonitorAgent, PowerBalancerAgent, PowerGovernorAgent};
    use pmstack_kernel::{Imbalance, KernelConfig, VectorWidth, WaitingFraction};
    use pmstack_simhw::{quartz_spec, Node, NodeId, PowerModel};

    fn platform(config: KernelConfig, eps: &[f64]) -> JobPlatform {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let nodes = eps
            .iter()
            .enumerate()
            .map(|(i, &e)| Node::new(NodeId(i), &model, e).unwrap())
            .collect();
        JobPlatform::new(model, nodes, config)
    }

    #[test]
    fn monitor_run_reports_used_power() {
        let config = KernelConfig::balanced_ymm(8.0);
        let p = platform(config, &[1.0, 1.0]);
        let mut c = Controller::new(p, MonitorAgent);
        let report = c.run(20);
        assert_eq!(report.iterations, 20);
        assert_eq!(report.hosts.len(), 2);
        // Uncapped balanced ymm 8 F/B draws ~229 W/node in the model.
        for h in &report.hosts {
            assert!(
                (h.avg_power.value() - 229.0).abs() < 8.0,
                "avg power {}",
                h.avg_power
            );
        }
        assert!(report.flops > 0.0);
        assert!(report.elapsed.value() > 0.0);
    }

    #[test]
    fn governor_run_respects_budget() {
        let config = KernelConfig::balanced_ymm(16.0);
        let p = platform(config, &[1.0, 1.0]);
        let budget = Watts(2.0 * 170.0);
        let mut c = Controller::new(p, PowerGovernorAgent::new(budget));
        let report = c.run(60);
        // After the enforcement filter settles, average power within budget
        // (small transient at the start is expected).
        assert!(
            report.avg_power() <= budget + Watts(8.0),
            "avg {} vs budget {}",
            report.avg_power(),
            budget
        );
    }

    #[test]
    fn balancer_beats_governor_on_imbalanced_job_under_same_budget() {
        // The headline property of §III-A: with the same budget, the
        // balancer finishes imbalanced work no slower and cheaper — or,
        // under scarcity, faster.
        let config = KernelConfig::new(
            16.0,
            VectorWidth::Ymm,
            WaitingFraction::P50,
            Imbalance::TwoX,
        );
        let budget = Watts(2.0 * 175.0);
        let gov = Controller::new(
            platform(config, &[1.0, 1.05]),
            PowerGovernorAgent::new(budget),
        )
        .run(150);
        let bal = Controller::new(
            platform(config, &[1.0, 1.05]),
            PowerBalancerAgent::new(budget),
        )
        .run(150);
        assert!(
            bal.elapsed.value() <= gov.elapsed.value() * 1.01,
            "balancer {} vs governor {}",
            bal.elapsed,
            gov.elapsed
        );
        assert!(
            bal.energy < gov.energy,
            "balancer energy {} vs governor {}",
            bal.energy,
            gov.energy
        );
    }

    #[test]
    fn report_iteration_series_has_run_length() {
        let config = KernelConfig::balanced_ymm(4.0);
        let mut c = Controller::new(platform(config, &[1.0]), MonitorAgent);
        let report = c.run(7);
        assert_eq!(report.iteration_times.len(), 7);
        let sum: f64 = report.iteration_times.iter().map(|t| t.value()).sum();
        assert!((sum - report.elapsed.value()).abs() < 1e-9);
    }
}
