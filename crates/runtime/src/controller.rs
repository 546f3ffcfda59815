//! The per-job control loop.
//!
//! Drives the job's iterations, lets the agent adjust limits after each one
//! (GEOPM's controller cadence), optionally reports achieved power to a
//! resource-manager [`crate::endpoint::Endpoint`], and assembles the
//! [`crate::report::JobReport`]. A run is begun once and advanced in
//! stretches; at a boundary between stretches the workload may change and
//! the resource manager may post new caps to the agent, and the report
//! always covers everything run so far.

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
    run: Option<RunState>,
}

/// What a run has accumulated since [`Controller::begin`].
#[derive(Default)]
struct RunState {
    /// Iterations from this index on add their limits to `limit_sums`.
    tail_start: usize,
    energy_start: Vec<Joules>,
    iteration_times: Vec<Seconds>,
    epoch_sums: Vec<Seconds>,
    elapsed: Seconds,
    /// FLOPs of the stretches run under earlier workloads, and the
    /// iterations run under the current one.
    flops: f64,
    load_iterations: usize,
    limit_sums: Vec<Watts>,
    bufs: IterationBuffers,
    /// The platform's [`JobPlatform::trust_epoch`] right after the last
    /// trust-marking pass.
    trusted_at: Option<u64>,
}

impl RunState {
    /// Every FLOP run so far, the current workload's stretch included.
    fn total_flops(&self, platform: &JobPlatform) -> f64 {
        self.flops
            + platform.load().perf().node_flops_per_iteration()
                * self.load_iterations as f64
                * platform.num_hosts() as f64
    }
}

impl<A: Agent> Controller<A> {
    /// Create a controller over a platform.
    pub fn new(platform: JobPlatform, agent: A) -> Self {
        Self {
            platform,
            agent,
            endpoint: None,
            run: None,
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
        self.begin(iterations);
        self.advance(iterations);
        self.report()
    }

    /// Run a multi-phase application: each phase rebinds the platform's
    /// workload and, after the first, crosses a boundary without posted
    /// caps (adaptive agents re-open their search).
    pub fn run_phased(&mut self, workload: &pmstack_kernel::PhasedWorkload) -> JobReport {
        assert!(!workload.is_empty(), "a run needs at least one phase");
        self.begin(workload.total_iterations());
        for (p, phase) in workload.phases.iter().enumerate() {
            self.set_config(phase.config);
            if p > 0 {
                self.boundary(None);
            }
            self.advance(phase.iterations);
        }
        self.report()
    }

    /// Start a run of `planned` iterations: the agent programs its initial
    /// control state and the accumulators restart. Steady-state limits are
    /// reported as the mean over the last quarter of the planned run:
    /// dynamic agents breathe around their optimum, and the time average
    /// is what pre-characterization consumes.
    pub fn begin(&mut self, planned: usize) {
        self.agent.init(&mut self.platform);
        let n = self.platform.num_hosts();
        self.run = Some(RunState {
            tail_start: planned - (planned / 4).max(1).min(planned),
            energy_start: self.platform.host_energy(),
            iteration_times: Vec::with_capacity(planned),
            epoch_sums: vec![Seconds::ZERO; n],
            limit_sums: vec![Watts::ZERO; n],
            ..RunState::default()
        });
    }

    /// Rebind the platform to a new workload mid-run (a phase change).
    pub fn set_config(&mut self, config: KernelConfig) {
        if let Some(run) = &mut self.run {
            run.flops = run.total_flops(&self.platform);
            run.load_iterations = 0;
        }
        self.platform.set_config(config);
    }

    /// Cross a boundary between two stretches of the run, handing the
    /// agent the per-host caps posted there, if any ([`Agent::on_boundary`]).
    pub fn boundary(&mut self, caps: Option<&[Watts]>) {
        self.agent.on_boundary(&mut self.platform, caps);
    }

    /// Run `iterations` more iterations of the run [`Self::begin`] started;
    /// after each, the agent adjusts limits.
    pub fn advance(&mut self, iterations: usize) {
        let _span = pmstack_obs::span!("runtime.job.secs");
        let run = self.run.as_mut().expect("begin a run before advancing it");
        let platform = &mut self.platform;
        for _ in 0..iterations {
            let in_tail = run.iteration_times.len() >= run.tail_start;
            platform.run_iteration_into(&mut run.bufs);
            let outcome = run.bufs.outcome();
            run.elapsed += outcome.elapsed;
            run.iteration_times.push(outcome.elapsed);
            let segment = platform.segment_hosts();
            accumulate_into(&mut run.epoch_sums, &outcome.host_compute_time, segment);
            // Nothing trust marking reads has moved since the last pass.
            if run.trusted_at != Some(platform.trust_epoch()) {
                Self::mark_host_trust(platform, outcome);
                run.trusted_at = Some(platform.trust_epoch());
            }
            self.agent.adjust(platform, outcome);
            if in_tail {
                let limits = platform.programmed_limits();
                accumulate_into(&mut run.limit_sums, limits, segment);
            }
            if let Some(ep) = &self.endpoint {
                ep.report_achieved(outcome.total_power());
            }
        }
        run.load_iterations += iterations;
    }

    /// The run's elapsed time and each host's energy since [`Self::begin`]:
    /// the `elapsed` and per-host `energy` of [`Self::report`], computed as
    /// it computes them, without building the rest of the report.
    pub fn energy_since_begin(&self) -> (Seconds, Vec<Joules>) {
        let run = self.run.as_ref().expect("begin a run before reading it");
        let mut energy = Vec::new();
        self.platform.host_energy_into(&mut energy);
        for (e, &start) in energy.iter_mut().zip(&run.energy_start) {
            *e -= start;
        }
        (run.elapsed, energy)
    }

    /// Report everything the run has executed so far.
    pub fn report(&self) -> JobReport {
        let run = self.run.as_ref().expect("begin a run before reporting it");
        let n = self.platform.num_hosts();
        let iterations = run.iteration_times.len();
        let tail = iterations - run.tail_start.min(iterations);
        let (_, energy) = self.energy_since_begin();
        let hosts: Vec<HostReport> = (0..n)
            .map(|h| {
                let energy = energy[h];
                HostReport {
                    host: h,
                    eps: self.platform.host_eps(h),
                    avg_power: if run.elapsed.value() > 0.0 {
                        energy / run.elapsed
                    } else {
                        Watts::ZERO
                    },
                    energy,
                    final_limit: run.limit_sums[h] / tail.max(1) as f64,
                    mean_epoch: run.epoch_sums[h] / iterations.max(1) as f64,
                }
            })
            .collect();
        JobReport {
            agent: self.agent.name().to_string(),
            iterations,
            elapsed: run.elapsed,
            iteration_times: run.iteration_times.clone(),
            energy: hosts.iter().map(|h| h.energy).sum::<Joules>(),
            flops: run.total_flops(&self.platform),
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
    use crate::agents::{FixedAllocationAgent, MonitorAgent, PowerBalancerAgent};
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
        let mut c = Controller::new(p, FixedAllocationAgent::new(vec![budget / 2.0; 2]));
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
            FixedAllocationAgent::new(vec![budget / 2.0; 2]),
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

    /// A run advanced in stretches, its caps re-posted unchanged at every
    /// boundary, is the run, and each report covers what ran so far.
    #[test]
    fn a_run_advanced_in_stretches_is_the_whole_run() {
        let config = KernelConfig::balanced_ymm(8.0);
        let caps = vec![Watts(170.0), Watts(180.0)];
        let job = || {
            let agent = FixedAllocationAgent::new(caps.clone());
            Controller::new(platform(config, &[1.0, 1.05]), agent)
        };
        let whole = job().run(30);
        let mut c = job();
        c.begin(30);
        for (len, ran) in [(7, 7), (0, 7), (13, 20), (10, 30)] {
            c.boundary(Some(&caps));
            c.advance(len);
            assert_eq!(c.report().iterations, ran);
        }
        assert_eq!(c.report(), whole);
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
