//! The end-to-end unified stack: resource manager + job runtimes.
//!
//! This is the integration the paper argues for: the RM owns the system
//! budget and node leases; per-job runtimes execute the workloads under the
//! caps a [`crate::policy::PowerPolicy`] computed from runtime-provided
//! characterization data.
//!
//! Two modes:
//!
//! * [`CoordinatorMode::Emulated`] — the paper's methodology: policies run
//!   once at job start on pre-characterization data and allocations are
//!   static ("we emulated this execution time behavior by
//!   pre-characterizing our workloads… ahead of time", §VIII).
//! * [`CoordinatorMode::Online`] — the future-work protocol implemented:
//!   mid-run, the RM re-characterizes from *measured* powers and
//!   re-allocates, exercising the execution-time feedback loop end to end.
//!
//! A [`pmstack_simhw::FaultPlan`] can be attached with
//! [`Coordinator::with_fault_plan`]. Faults fire at iteration boundaries
//! inside the job platforms; the coordinator reacts at the phase boundary:
//! dead nodes are drained through [`FifoScheduler::fail_node`] (their watts
//! reclaimed into the system budget), and in online mode the surviving
//! hosts are re-characterized and re-allocated. The whole story is recorded
//! in [`MixRun::resilience`].
//!
//! Jobs run in parallel on OS threads (crossbeam scoped), one runtime
//! controller per job, mirroring the real deployment topology.

use crate::allocation::Allocation;
use crate::characterization::{CharacterizationSource, HostChar, JobChar};
use crate::evaluate::JobSetup;
use crate::policy::{PolicyCtx, PowerPolicy};
use crate::resilience::{slice_plan, CoordinatorError, ResilienceReport};
use pmstack_kernel::KernelConfig;
use pmstack_rm::{FifoScheduler, JobSpec, NodePool, PowerLedger, SchedulerEvent};
use pmstack_runtime::{Agent, Controller, JobPlatform, JobReport};
use pmstack_simhw::{Cluster, FaultPlan, Node, NodeId, PowerModel, Watts};

/// Whether the feedback loop runs once (emulated) or live (online).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorMode {
    /// Allocate once from pre-characterization data.
    Emulated,
    /// Re-characterize from measured power and re-allocate mid-run.
    Online,
}

/// An agent that programs exact per-host caps decided by the RM-side policy
/// and holds them (the emulated-feedback-loop runtime behaviour).
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
        // Cap-count/host-count agreement is validated by the coordinator
        // before any thread spawns; here a host refusing its cap (fail-stop
        // dead, transient MSR denial) simply keeps its previous enforced
        // limit and the run continues degraded.
        let hosts = platform.num_hosts();
        for (h, &cap) in self.caps.iter().enumerate().take(hosts) {
            let _ = platform.set_host_limit(h, cap);
        }
    }

    fn budget(&self) -> Option<Watts> {
        Some(self.caps.iter().copied().sum())
    }
}

/// The result of running a mix through the full stack.
#[derive(Debug, Clone)]
pub struct MixRun {
    /// The allocation the policy produced (final allocation in online mode;
    /// hosts that died mid-run report a zero cap).
    pub allocation: Allocation,
    /// Per-job runtime reports, mix order.
    pub reports: Vec<JobReport>,
    /// What the stack observed and did about injected faults.
    pub resilience: ResilienceReport,
}

impl MixRun {
    /// Mean job elapsed time.
    pub fn mean_elapsed(&self) -> f64 {
        self.reports.iter().map(|r| r.elapsed.value()).sum::<f64>() / self.reports.len() as f64
    }

    /// Total energy across jobs, joules.
    pub fn total_energy(&self) -> f64 {
        self.reports.iter().map(|r| r.energy.value()).sum()
    }
}

/// The unified coordinator.
pub struct Coordinator {
    model: PowerModel,
    node_eps: Vec<f64>,
    jitter_sigma: f64,
    seed: u64,
    fault_plan: FaultPlan,
    fast_forward: bool,
}

impl Coordinator {
    /// Build over an existing cluster's nodes.
    pub fn new(cluster: &Cluster) -> Self {
        Self {
            model: cluster.model().clone(),
            node_eps: cluster.efficiency_factors(),
            jitter_sigma: 0.0,
            seed: 0,
            fault_plan: FaultPlan::none(),
            fast_forward: true,
        }
    }

    /// Enable or disable the steady-state fast-forward path in the job
    /// platforms (on by default). Disabling forces every iteration through
    /// the full resolve-and-step pipeline — the reference execution the
    /// determinism suite compares the cached paths against.
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Enable per-iteration jitter in the job platforms.
    pub fn with_jitter(mut self, sigma: f64, seed: u64) -> Self {
        self.jitter_sigma = sigma;
        self.seed = seed;
        self
    }

    /// Attach a fault plan. Event host indices are cluster-global node ids;
    /// events against nodes outside the cluster are dropped.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan.restricted_to(self.node_eps.len());
        self
    }

    /// Run a mix of `(name, config, node_count)` jobs under `policy` and a
    /// system `budget` for `iterations` bulk-synchronous iterations each,
    /// through the full stack. A mix that cannot be coordinated is a typed
    /// error, not a panic.
    pub fn try_run_mix(
        &self,
        mix: &[(String, KernelConfig, usize)],
        policy: &dyn PowerPolicy,
        budget: Watts,
        iterations: usize,
        mode: CoordinatorMode,
    ) -> Result<MixRun, CoordinatorError> {
        let _span = pmstack_obs::span!("core.run_mix.secs");
        if mix.is_empty() {
            return Err(CoordinatorError::EmptyMix);
        }
        let spec = self.model.spec();
        let ctx = PolicyCtx {
            system_budget: budget,
            min_node: spec.min_rapl_per_node(),
            tdp_node: spec.tdp_per_node(),
        };

        // RM: admit all jobs of the mix (they run concurrently, as in the
        // paper's experiments).
        let mut scheduler = FifoScheduler::new(
            NodePool::new(self.node_eps.len()),
            PowerLedger::new(budget),
            budget / self.node_eps.len() as f64,
        );
        let ids: Vec<_> = mix
            .iter()
            .map(|(name, _, nodes)| scheduler.submit(JobSpec::new(name.clone(), *nodes)))
            .collect();
        let started: Vec<Vec<NodeId>> = scheduler
            .tick()
            .into_iter()
            .filter_map(|ev| match ev {
                SchedulerEvent::Started { nodes, .. } => Some(nodes),
                _ => None,
            })
            .collect();
        if started.len() != mix.len() {
            return Err(CoordinatorError::MixDoesNotFit {
                submitted: mix.len(),
                admitted: started.len(),
            });
        }

        // Collect each job's granted hosts and their efficiency factors.
        let mut setups: Vec<JobSetup> = Vec::with_capacity(mix.len());
        let mut grants: Vec<Vec<usize>> = Vec::with_capacity(mix.len());
        for (nodes, (_, config, _)) in started.iter().zip(mix) {
            let host_ids: Vec<usize> = nodes.iter().map(|n| n.0).collect();
            let host_eps: Vec<f64> = host_ids.iter().map(|&i| self.node_eps[i]).collect();
            setups.push(JobSetup {
                config: *config,
                host_eps,
            });
            grants.push(host_ids);
        }

        // Characterize (pre-characterization data, §IV-B) and allocate.
        let chars: Vec<JobChar> = pmstack_exec::par_map(&setups, |s| {
            JobChar::analytic(s.config, &self.model, &s.host_eps)
        });
        let allocation = policy.allocate(&ctx, &chars);
        validate_shape(&allocation, &grants)?;
        for (j, id) in ids.iter().enumerate() {
            // Budget-blind policies may overcommit; the ledger records it
            // faithfully so the violation is observable (Fig. 7 bars >100%).
            let _ = scheduler.ledger_mut().reserve(*id, allocation.job_total(j));
        }

        let mut resilience = ResilienceReport {
            injected: self
                .fault_plan
                .events()
                .iter()
                .copied()
                .filter(|e| grants.iter().any(|g| g.contains(&e.host)))
                .collect(),
            ..ResilienceReport::default()
        };

        match mode {
            CoordinatorMode::Emulated => {
                let plans: Vec<FaultPlan> = grants
                    .iter()
                    .map(|g| slice_plan(&self.fault_plan, g, 0, u64::MAX))
                    .collect();
                let (reports, alive) =
                    self.execute_phase(&setups, &grants, &allocation, iterations, &plans);
                // The RM learns of deaths after the fact and drains them so
                // the ledger reflects the surviving capacity.
                for (j, mask) in alive.iter().enumerate() {
                    for (h, &ok) in mask.iter().enumerate() {
                        if !ok {
                            resilience.absorb(scheduler.fail_node(NodeId(grants[j][h])));
                        }
                    }
                }
                resilience.reserved_after = scheduler.ledger().reserved();
                debug_assert!(resilience.reserved_after <= budget + Watts(1e-6));
                Ok(MixRun {
                    allocation,
                    reports,
                    resilience,
                })
            }
            CoordinatorMode::Online => {
                let first = (iterations / 2).max(1);
                let second = (iterations - iterations / 2).max(1);
                let plans1: Vec<FaultPlan> = grants
                    .iter()
                    .map(|g| slice_plan(&self.fault_plan, g, 0, first as u64))
                    .collect();
                let (mut reports, alive1) =
                    self.execute_phase(&setups, &grants, &allocation, first, &plans1);

                // Drain nodes lost in the first window: the scheduler
                // shrinks the owner's grant and the ledger reclaims the
                // dead share into the system budget.
                for (j, mask) in alive1.iter().enumerate() {
                    for (h, &ok) in mask.iter().enumerate() {
                        if !ok {
                            resilience.absorb(scheduler.fail_node(NodeId(grants[j][h])));
                        }
                    }
                }

                // Execution-time feedback over the *survivors*: measured
                // average power becomes the new "used"; needed cannot
                // exceed what was measured.
                let survivors: Vec<Vec<usize>> = alive1
                    .iter()
                    .map(|mask| (0..mask.len()).filter(|&h| mask[h]).collect::<Vec<usize>>())
                    .collect();
                let live_jobs: Vec<usize> = (0..mix.len())
                    .filter(|&j| !survivors[j].is_empty())
                    .collect();
                if live_jobs.is_empty() {
                    return Err(CoordinatorError::AllHostsFailed);
                }
                let measured: Vec<JobChar> = live_jobs
                    .iter()
                    .map(|&j| JobChar {
                        hosts: survivors[j]
                            .iter()
                            .map(|&h| {
                                let hr = &reports[j].hosts[h];
                                HostChar {
                                    used: hr.avg_power,
                                    needed: chars[j].hosts[h].needed.min(hr.avg_power),
                                }
                            })
                            .collect(),
                        source: CharacterizationSource::Measured,
                    })
                    .collect();
                let allocation2 = policy.allocate(&ctx, &measured);
                resilience.reallocated = true;
                let surv_grants: Vec<Vec<usize>> = live_jobs
                    .iter()
                    .map(|&j| survivors[j].iter().map(|&h| grants[j][h]).collect())
                    .collect();
                validate_shape(&allocation2, &surv_grants)?;
                for (k, &j) in live_jobs.iter().enumerate() {
                    let _ = scheduler
                        .ledger_mut()
                        .reserve(ids[j], allocation2.job_total(k));
                }

                let surv_setups: Vec<JobSetup> = live_jobs
                    .iter()
                    .map(|&j| JobSetup {
                        config: setups[j].config,
                        host_eps: survivors[j]
                            .iter()
                            .map(|&h| setups[j].host_eps[h])
                            .collect(),
                    })
                    .collect();
                let plans2: Vec<FaultPlan> = surv_grants
                    .iter()
                    .map(|g| slice_plan(&self.fault_plan, g, first as u64, second as u64))
                    .collect();
                let (reports2, alive2) =
                    self.execute_phase(&surv_setups, &surv_grants, &allocation2, second, &plans2);
                for (k, mask) in alive2.iter().enumerate() {
                    for (h, &ok) in mask.iter().enumerate() {
                        if !ok {
                            resilience.absorb(scheduler.fail_node(NodeId(surv_grants[k][h])));
                        }
                    }
                }
                resilience.reserved_after = scheduler.ledger().reserved();
                debug_assert!(resilience.reserved_after <= budget + Watts(1e-6));

                // Merge the phase reports; a job with no survivors keeps
                // its phase-1 report as its whole story.
                for (k, &j) in live_jobs.iter().enumerate() {
                    let merged =
                        merge_reports(reports[j].clone(), reports2[k].clone(), &survivors[j]);
                    reports[j] = merged;
                }

                // The final allocation, expanded back to the full mix shape
                // with zero caps on dead hosts.
                let mut final_jobs: Vec<Vec<Watts>> =
                    grants.iter().map(|g| vec![Watts::ZERO; g.len()]).collect();
                for (k, &j) in live_jobs.iter().enumerate() {
                    for (b, &h) in survivors[j].iter().enumerate() {
                        final_jobs[j][h] = allocation2.jobs[k][b];
                    }
                }
                Ok(MixRun {
                    allocation: Allocation { jobs: final_jobs },
                    reports,
                    resilience,
                })
            }
        }
    }

    /// Run every job of the mix for `iterations`, fanned out over the
    /// work-stealing pool, under the given allocation and per-job fault
    /// plans (platform-local indices). Each job derives its jitter seed from
    /// its mix position, so results are independent of scheduling order.
    /// Returns the reports plus each job's per-host liveness at phase end.
    fn execute_phase(
        &self,
        setups: &[JobSetup],
        grants: &[Vec<usize>],
        allocation: &Allocation,
        iterations: usize,
        plans: &[FaultPlan],
    ) -> (Vec<JobReport>, Vec<Vec<bool>>) {
        let results = pmstack_exec::par_map_indexed(setups, |j, setup| {
            let host_ids = &grants[j];
            let caps = allocation.jobs[j].clone();
            let plan = plans[j].clone();
            let model = &self.model;
            let nodes: Vec<Node> = host_ids
                .iter()
                .zip(&setup.host_eps)
                .map(|(&id, &eps)| {
                    Node::new(pmstack_simhw::NodeId(id), model, eps)
                        .expect("eps sampled from a valid profile")
                })
                .collect();
            let mut platform =
                JobPlatform::new(model.clone(), nodes, setup.config).with_fault_plan(plan);
            platform.set_fast_forward(self.fast_forward);
            if self.jitter_sigma > 0.0 {
                platform =
                    platform.with_jitter(self.jitter_sigma, self.seed.wrapping_add(j as u64));
            }
            let mut controller = Controller::new(platform, FixedAllocationAgent::new(caps));
            let report = controller.run(iterations);
            let alive: Vec<bool> = (0..report.hosts.len())
                .map(|h| controller.platform().is_host_alive(h))
                .collect();
            (report, alive)
        });
        results.into_iter().unzip()
    }
}

/// Check that the policy produced one cap per granted host.
fn validate_shape(allocation: &Allocation, grants: &[Vec<usize>]) -> Result<(), CoordinatorError> {
    for (j, grant) in grants.iter().enumerate() {
        let caps = allocation.jobs.get(j).map_or(0, Vec::len);
        if caps != grant.len() {
            return Err(CoordinatorError::CapShapeMismatch {
                job: j,
                caps,
                hosts: grant.len(),
            });
        }
    }
    Ok(())
}

/// Combine two phase reports of the same job. `survivors[b]` names the host
/// index of report `a` that host `b` of report `b` continued as (identity
/// when nothing died between the phases). Hosts of `a` absent from
/// `survivors` contribute only their first-phase energy.
fn merge_reports(mut a: JobReport, b: JobReport, survivors: &[usize]) -> JobReport {
    assert_eq!(b.hosts.len(), survivors.len());
    a.iterations += b.iterations;
    a.elapsed += b.elapsed;
    a.iteration_times.extend(b.iteration_times);
    a.energy += b.energy;
    a.flops += b.flops;
    for (bi, &ai) in survivors.iter().enumerate() {
        let ha = &mut a.hosts[ai];
        let hb = &b.hosts[bi];
        let total = ha.energy + hb.energy;
        ha.energy = total;
        ha.final_limit = hb.final_limit;
        ha.mean_epoch = (ha.mean_epoch + hb.mean_epoch) / 2.0;
    }
    // Every host's average re-derives from its total energy over the
    // combined elapsed time (dead hosts simply stop accumulating).
    for h in &mut a.hosts {
        h.avg_power = if a.elapsed.value() > 0.0 {
            h.energy / a.elapsed
        } else {
            Watts::ZERO
        };
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_mix;
    use crate::policies::{MixedAdaptive, StaticCaps};
    use pmstack_kernel::{Imbalance, VectorWidth, WaitingFraction};
    use pmstack_simhw::{quartz_spec, VariationProfile};

    fn cluster(n: usize) -> Cluster {
        Cluster::builder(quartz_spec())
            .nodes(n)
            .variation(VariationProfile::quartz())
            .seed(42)
            .build()
            .unwrap()
    }

    fn small_mix() -> Vec<(String, KernelConfig, usize)> {
        vec![
            (
                "wasteful".into(),
                KernelConfig::new(
                    8.0,
                    VectorWidth::Ymm,
                    WaitingFraction::P75,
                    Imbalance::ThreeX,
                ),
                3,
            ),
            ("hungry".into(), KernelConfig::balanced_ymm(8.0), 3),
        ]
    }

    #[test]
    fn emulated_run_produces_reports_for_every_job() {
        let c = cluster(6);
        let coord = Coordinator::new(&c);
        let run = coord
            .try_run_mix(
                &small_mix(),
                &MixedAdaptive,
                Watts(6.0 * 190.0),
                30,
                CoordinatorMode::Emulated,
            )
            .unwrap();
        assert_eq!(run.reports.len(), 2);
        assert!(run.reports.iter().all(|r| r.iterations == 30));
        assert!(run.total_energy() > 0.0);
        assert!(run.resilience.clean());
    }

    #[test]
    fn full_stack_agrees_with_analytic_evaluator() {
        // The RAPL-filter simulation should land close to the steady-state
        // evaluator (the settle transient is a small fraction of the run).
        let c = cluster(6);
        let coord = Coordinator::new(&c);
        let mix = small_mix();
        let budget = Watts(6.0 * 190.0);
        let run = coord
            .try_run_mix(&mix, &StaticCaps, budget, 60, CoordinatorMode::Emulated)
            .unwrap();

        let spec = c.model().spec();
        let ctx = PolicyCtx {
            system_budget: budget,
            min_node: spec.min_rapl_per_node(),
            tdp_node: spec.tdp_per_node(),
        };
        let eps = c.efficiency_factors();
        let setups = vec![
            JobSetup {
                config: mix[0].1,
                host_eps: eps[0..3].to_vec(),
            },
            JobSetup {
                config: mix[1].1,
                host_eps: eps[3..6].to_vec(),
            },
        ];
        let chars: Vec<JobChar> = setups
            .iter()
            .map(|s| JobChar::analytic(s.config, c.model(), &s.host_eps))
            .collect();
        let alloc = StaticCaps.allocate(&ctx, &chars);
        let eval = evaluate_mix(c.model(), &setups, &alloc, 60, 0.0, 0);

        let full_t = run.mean_elapsed();
        let fast_t = eval.mean_elapsed().value();
        assert!(
            (full_t - fast_t).abs() / fast_t < 0.05,
            "full {full_t} vs analytic {fast_t}"
        );
        let full_e = run.total_energy();
        let fast_e = eval.total_energy().value();
        assert!(
            (full_e - fast_e).abs() / fast_e < 0.05,
            "full {full_e} vs analytic {fast_e}"
        );
    }

    #[test]
    fn online_mode_tightens_allocation_from_measurements() {
        let c = cluster(6);
        let coord = Coordinator::new(&c);
        let mix = small_mix();
        let budget = Watts(6.0 * 230.0);
        let run = |mode| {
            coord
                .try_run_mix(&mix, &MixedAdaptive, budget, 40, mode)
                .unwrap()
        };
        let emulated = run(CoordinatorMode::Emulated);
        let online = run(CoordinatorMode::Online);
        // Online re-characterization can only shrink "needed" (measured
        // power bounds it), so it must not waste more energy.
        assert!(online.total_energy() <= emulated.total_energy() * 1.02);
        assert_eq!(online.reports[0].iterations, 40);
    }

    #[test]
    #[should_panic(expected = "must fit the cluster")]
    fn oversubscribed_mix_is_rejected() {
        let c = cluster(4);
        let coord = Coordinator::new(&c);
        coord
            .try_run_mix(
                &small_mix(),
                &StaticCaps,
                Watts(4.0 * 200.0),
                5,
                CoordinatorMode::Emulated,
            )
            .map_err(|e| e.to_string())
            .unwrap();
    }

    #[test]
    fn try_run_mix_reports_typed_errors() {
        let c = cluster(4);
        let coord = Coordinator::new(&c);
        let err = coord
            .try_run_mix(&[], &StaticCaps, Watts(800.0), 5, CoordinatorMode::Emulated)
            .unwrap_err();
        assert_eq!(err, CoordinatorError::EmptyMix);
        let err = coord
            .try_run_mix(
                &small_mix(),
                &StaticCaps,
                Watts(4.0 * 200.0),
                5,
                CoordinatorMode::Emulated,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoordinatorError::MixDoesNotFit { submitted: 2, .. }
        ));
    }

    #[test]
    fn merge_with_partial_survivors_keeps_dead_host_energy() {
        use pmstack_runtime::HostReport;
        use pmstack_simhw::{Joules, Seconds};
        let host = |h: usize, e: f64| HostReport {
            host: h,
            eps: 1.0,
            avg_power: Watts(100.0),
            energy: Joules(e),
            final_limit: Watts(150.0),
            mean_epoch: Seconds(1.0),
        };
        let a = JobReport {
            agent: "fixed_allocation".into(),
            iterations: 10,
            elapsed: Seconds(10.0),
            iteration_times: vec![Seconds(1.0); 10],
            energy: Joules(3000.0),
            flops: 1e9,
            hosts: vec![host(0, 1000.0), host(1, 1000.0), host(2, 1000.0)],
        };
        let b = JobReport {
            agent: "fixed_allocation".into(),
            iterations: 10,
            elapsed: Seconds(10.0),
            iteration_times: vec![Seconds(1.0); 10],
            energy: Joules(2000.0),
            flops: 1e9,
            hosts: vec![host(0, 1000.0), host(1, 1000.0)],
        };
        // Host 1 died between phases; b's hosts continue a's hosts 0 and 2.
        let merged = merge_reports(a, b, &[0, 2]);
        assert_eq!(merged.iterations, 20);
        assert_eq!(merged.hosts[0].energy, Joules(2000.0));
        assert_eq!(merged.hosts[1].energy, Joules(1000.0), "dead host froze");
        assert_eq!(merged.hosts[2].energy, Joules(2000.0));
        assert!((merged.hosts[1].avg_power.value() - 50.0).abs() < 1e-9);
        assert_eq!(merged.energy, Joules(5000.0));
    }
}
