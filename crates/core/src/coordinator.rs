//! The end-to-end unified stack: resource manager + job runtimes.
//!
//! This is the integration the paper argues for: the RM owns the system
//! budget and node leases; per-job runtimes execute the workloads under the
//! caps a [`crate::policy::PowerPolicy`] computed from runtime-provided
//! characterization data.
//!
//! Each job of a mix gets one runtime controller for the whole run, and a
//! mix runs as one loop over phase windows, each a stretch of every live
//! job's run. Every window opens by posting the current allocation's caps
//! to the jobs' agents ([`pmstack_runtime::Agent::on_boundary`]); the two
//! modes differ only in the schedule:
//!
//! * [`CoordinatorMode::Emulated`] — the paper's methodology, one phase of
//!   every iteration: policies run once at job start on pre-characterization
//!   data and allocations are static ("we emulated this execution time
//!   behavior by pre-characterizing our workloads… ahead of time", §VIII).
//! * [`CoordinatorMode::Online`] — the future-work protocol, two phases of
//!   `n / 2` and `n − n / 2` iterations: at the boundary the RM
//!   re-characterizes from the power *measured* since the last boundary and
//!   re-allocates, exercising the execution-time feedback loop end to end.
//!   An empty phase is dropped, so one iteration online is the emulated
//!   run.
//!
//! A [`pmstack_simhw::FaultPlan`] can be attached with
//! [`Coordinator::with_fault_plan`]. Faults fire at iteration boundaries
//! inside the job platforms, each job's platform holding its hosts' slice
//! of the plan for the whole run, so a latch, a dropout or a dead host
//! outlives a phase boundary. After every phase the coordinator drains the
//! dead nodes through [`pmstack_rm::Scheduler::fail_node`] (their watts
//! reclaimed into the system budget); between phases it re-characterizes
//! the surviving hosts and re-allocates over them. The whole story is
//! recorded in [`MixRun::resilience`].
//!
//! Jobs run in parallel on the resident `pmstack_exec` pool, one runtime
//! controller per job, mirroring the real deployment topology.

use crate::allocation::Allocation;
use crate::characterization::{CharacterizationSource, HostChar, JobChar};
use crate::evaluate::JobSetup;
use crate::policy::{PolicyCtx, PowerPolicy};
use crate::resilience::{slice_plan, CoordinatorError, ResilienceReport};
use pmstack_kernel::KernelConfig;
use pmstack_rm::{FifoScheduler, JobSpec, NodePool, PowerLedger, SchedulerEvent};
use pmstack_runtime::{Controller, FixedAllocationAgent, JobPlatform, JobReport};
use pmstack_simhw::{Cluster, FaultPlan, Joules, NodeId, PowerModel, Seconds, Watts};

/// Whether the feedback loop runs once (emulated) or live (online).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorMode {
    /// Allocate once from pre-characterization data.
    Emulated,
    /// Re-characterize from measured power and re-allocate mid-run.
    Online,
}

/// The result of running a mix through the full stack.
#[derive(Debug, Clone)]
pub struct MixRun {
    /// The last allocation the policy produced, in the mix's shape: hosts
    /// that died before the last re-allocation report a zero cap.
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
    /// through the full stack, in `mode`'s phase schedule. A mix that cannot
    /// be coordinated (zero iterations included) is a typed error, not a
    /// panic.
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
        if iterations == 0 {
            return Err(CoordinatorError::NoIterations);
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
        let (setups, grants): (Vec<JobSetup>, Vec<Vec<usize>>) = (started.iter().zip(mix))
            .map(|(nodes, (_, config, _))| {
                let grant: Vec<usize> = nodes.iter().map(|n| n.0).collect();
                let host_eps = grant.iter().map(|&i| self.node_eps[i]).collect();
                let config = *config;
                (JobSetup { config, host_eps }, grant)
            })
            .unzip();

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

        // Characterize (pre-characterization data, §IV-B) and allocate.
        let chars: Vec<JobChar> = pmstack_exec::par_map(&setups, |s| {
            JobChar::analytic(s.config, &self.model, &s.host_eps)
        });
        let mut allocation = policy.allocate(&ctx, &chars);

        // One runtime per job for the whole mix, a phase window being a
        // stretch of its run: the job's granted hosts with their slice of
        // the fault plan and, under jitter, a stream seeded by its mix
        // index (so results are independent of scheduling order and of
        // which jobs die), held by an agent that programs whatever caps
        // each phase posts.
        let mut runtimes = pmstack_exec::par_map_indexed(&setups, |j, setup| {
            let hosts: Vec<(NodeId, f64)> = (grants[j].iter().zip(&setup.host_eps))
                .map(|(&id, &eps)| (NodeId(id), eps))
                .collect();
            let mut platform = JobPlatform::from_hosts(self.model.clone(), &hosts, setup.config)
                .expect("eps sampled from a valid profile")
                .with_fault_plan(slice_plan(&self.fault_plan, &grants[j]));
            platform.set_fast_forward(self.fast_forward);
            if self.jitter_sigma > 0.0 {
                platform =
                    platform.with_jitter(self.jitter_sigma, self.seed.wrapping_add(j as u64));
            }
            let mut runtime = Controller::new(platform, FixedAllocationAgent::new(Vec::new()));
            runtime.begin(iterations);
            runtime
        });
        // Each job's elapsed time and per-host energy at the last boundary.
        let mut marks: Vec<(Seconds, Vec<Joules>)> = (grants.iter())
            .map(|g| (Seconds::ZERO, vec![Joules::ZERO; g.len()]))
            .collect();

        // The phase loop. Each phase runs the cohort — every job that still
        // holds a live host, with those hosts (local indices into its
        // grant) — under the current allocation; the cohort's `k`-th job is
        // the allocation's `k`-th row.
        let half = iterations / 2;
        let schedule: &[usize] = match mode {
            CoordinatorMode::Emulated => &[iterations],
            CoordinatorMode::Online => &[half, iterations - half],
        };
        let mut caps: Vec<Vec<Watts>> = Vec::new();
        for (p, &len) in schedule.iter().filter(|&&len| len > 0).enumerate() {
            let cohort: Vec<(usize, Vec<usize>)> = (runtimes.iter().enumerate())
                .filter_map(|(j, rt)| {
                    let platform = rt.platform();
                    let hosts: Vec<usize> = (0..platform.num_hosts())
                        .filter(|&h| platform.is_host_alive(h))
                        .collect();
                    (!hosts.is_empty()).then_some((j, hosts))
                })
                .collect();
            if cohort.is_empty() {
                return Err(CoordinatorError::AllHostsFailed);
            }
            if p > 0 {
                // Execution-time feedback over the survivors: power measured
                // since the last boundary becomes the new "used"; needed
                // cannot exceed what was measured.
                let measured: Vec<JobChar> = (cohort.iter())
                    .map(|(j, hosts)| {
                        let now = runtimes[*j].energy_since_begin();
                        let (since, before) = std::mem::replace(&mut marks[*j], now);
                        let (elapsed, energy) = &marks[*j];
                        let host = |h: usize| {
                            let used = (energy[h] - before[h]) / (*elapsed - since);
                            let needed = chars[*j].hosts[h].needed.min(used);
                            HostChar { used, needed }
                        };
                        JobChar {
                            hosts: hosts.iter().map(|&h| host(h)).collect(),
                            source: CharacterizationSource::Measured,
                        }
                    })
                    .collect();
                allocation = policy.allocate(&ctx, &measured);
                resilience.reallocated = true;
            }
            validate_shape(&allocation, &cohort)?;
            caps = expand(&allocation, &cohort, &grants);
            for (k, (j, _)) in cohort.iter().enumerate() {
                // Budget-blind policies may overcommit; the ledger records
                // it faithfully so the violation is observable (Fig. 7 bars
                // >100%).
                let _ = scheduler
                    .ledger_mut()
                    .reserve(ids[*j], allocation.job_total(k));
            }
            // Post the caps and run the window, one job per task on the
            // pool; jobs outside the cohort have no live host left.
            pmstack_exec::par_for_each_mut(&mut runtimes, |j, rt| {
                if cohort.iter().any(|(c, _)| *c == j) {
                    rt.boundary(Some(&caps[j]));
                    rt.advance(len);
                }
            });
            // The RM learns of deaths at the phase boundary and drains them:
            // the scheduler shrinks the owner's grant and the ledger reclaims
            // the dead share into the system budget.
            for (j, hosts) in &cohort {
                for &h in hosts {
                    if !runtimes[*j].platform().is_host_alive(h) {
                        resilience.absorb(scheduler.fail_node(NodeId(grants[*j][h])));
                    }
                }
            }
        }
        resilience.reserved_after = scheduler.ledger().reserved();
        debug_assert!(resilience.reserved_after <= budget + Watts(1e-6));

        Ok(MixRun {
            allocation: Allocation { jobs: caps },
            reports: runtimes.iter().map(Controller::report).collect(),
            resilience,
        })
    }
}

/// The allocation in the mix's shape: each cohort row spread over its
/// job's hosts, with zero caps on the hosts the cohort does not cover.
fn expand(
    allocation: &Allocation,
    cohort: &[(usize, Vec<usize>)],
    grants: &[Vec<usize>],
) -> Vec<Vec<Watts>> {
    let mut caps: Vec<Vec<Watts>> = (grants.iter())
        .map(|g| vec![Watts::ZERO; g.len()])
        .collect();
    for ((j, hosts), row) in cohort.iter().zip(&allocation.jobs) {
        for (&h, &cap) in hosts.iter().zip(row) {
            caps[*j][h] = cap;
        }
    }
    caps
}

/// Check that the policy produced one cap per host of each cohort job; a
/// mismatch names the job by its mix position.
fn validate_shape(
    allocation: &Allocation,
    cohort: &[(usize, Vec<usize>)],
) -> Result<(), CoordinatorError> {
    for (k, (j, hosts)) in cohort.iter().enumerate() {
        let caps = allocation.jobs.get(k).map_or(0, Vec::len);
        if caps != hosts.len() {
            return Err(CoordinatorError::CapShapeMismatch {
                job: *j,
                caps,
                hosts: hosts.len(),
            });
        }
    }
    Ok(())
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
    fn each_mode_runs_exactly_the_iterations_it_is_asked_for() {
        let c = cluster(6);
        let coord = Coordinator::new(&c);
        let budget = Watts(6.0 * 190.0);
        let run = |n, mode| coord.try_run_mix(&small_mix(), &MixedAdaptive, budget, n, mode);
        for mode in [CoordinatorMode::Emulated, CoordinatorMode::Online] {
            assert_eq!(run(0, mode).unwrap_err(), CoordinatorError::NoIterations);
            for n in 1..=3 {
                let r = run(n, mode).unwrap();
                assert!(r.reports.iter().all(|r| r.iterations == n), "{mode:?} {n}");
                let two_phases = mode == CoordinatorMode::Online && n > 1;
                assert_eq!(r.resilience.reallocated, two_phases, "{mode:?} {n}");
            }
        }
        // One iteration online is one phase: the emulated run, bit for bit.
        let one = |mode| format!("{:?}", run(1, mode).unwrap());
        assert_eq!(one(CoordinatorMode::Online), one(CoordinatorMode::Emulated));
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
}
