//! Fast steady-state evaluation of a workload mix under an allocation.
//!
//! The Fig. 7 / Fig. 8 grids sweep 5 policies × 6 mixes × 3 budgets with
//! 100-iteration statistics; running the full RAPL-filter simulation for
//! each cell would be wasteful when every policy's allocation is static at
//! steady state. This evaluator computes each host's PCU operating point
//! directly, applies seeded per-iteration jitter for the confidence
//! intervals, and aggregates exactly the metrics the paper reports. The
//! integration tests check it against the full [`crate::coordinator`] runs.

use crate::allocation::Allocation;
use crate::characterization::JobChar;
use crate::policy::{PolicyCtx, PowerPolicy};
use pmstack_kernel::{KernelConfig, KernelLoad};
use pmstack_simhw::{Joules, LoadModel, PowerModel, Seconds, Watts};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One job of a mix: its kernel configuration and its hosts' efficiency
/// factors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSetup {
    /// The workload.
    pub config: KernelConfig,
    /// Efficiency factor of each host assigned to the job.
    pub host_eps: Vec<f64>,
}

impl JobSetup {
    /// A job on `n` nominal hosts.
    pub fn uniform(config: KernelConfig, n: usize) -> Self {
        Self {
            config,
            host_eps: vec![1.0; n],
        }
    }
}

/// Steady-state outcome of one job under an allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Total elapsed time for the configured iterations.
    pub elapsed: Seconds,
    /// Per-iteration elapsed times (jittered; feeds the CIs).
    pub iteration_times: Vec<Seconds>,
    /// Total job energy.
    pub energy: Joules,
    /// Total FLOPs.
    pub flops: f64,
    /// Steady per-host power draw.
    pub host_power: Vec<Watts>,
}

impl JobOutcome {
    /// Average job power.
    pub fn avg_power(&self) -> Watts {
        if self.elapsed.value() <= 0.0 {
            return Watts::ZERO;
        }
        self.energy / self.elapsed
    }
}

/// Steady-state outcome of a whole mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixEvaluation {
    /// Per-job outcomes, mix order.
    pub jobs: Vec<JobOutcome>,
}

impl MixEvaluation {
    /// Mean job elapsed time — the paper's "system time dedicated to jobs".
    pub fn mean_elapsed(&self) -> Seconds {
        Seconds(self.jobs.iter().map(|j| j.elapsed.value()).sum::<f64>() / self.jobs.len() as f64)
    }

    /// Total energy across jobs.
    pub fn total_energy(&self) -> Joules {
        self.jobs.iter().map(|j| j.energy).sum()
    }

    /// Total FLOPs across jobs.
    pub fn total_flops(&self) -> f64 {
        self.jobs.iter().map(|j| j.flops).sum()
    }

    /// Mean of per-job average powers times job count — i.e. the steady
    /// total power draw of the mix while all jobs run.
    pub fn total_power(&self) -> Watts {
        self.jobs
            .iter()
            .map(|j| j.host_power.iter().copied().sum::<Watts>())
            .sum()
    }

    /// Mix-level energy-delay product (total energy × mean elapsed).
    pub fn energy_delay_product(&self) -> f64 {
        self.total_energy().value() * self.mean_elapsed().value()
    }

    /// Achieved FLOPS per watt (total flops over total energy).
    pub fn flops_per_watt(&self) -> f64 {
        let e = self.total_energy().value();
        if e <= 0.0 {
            0.0
        } else {
            self.total_flops() / e
        }
    }
}

/// The caps a mix's hosts hold at execution time under `policy`: its
/// allocation, through the steady-state effect of the job runtime it runs
/// its jobs under. This is the one place that decides which runtime a
/// policy gets.
///
/// Application-aware policies run each job under the *power balancer*
/// runtime agent (§III). The RM-side allocation fixes each job's total
/// power; at execution time the balancer inside the job (a) equalizes
/// performance across the job's hosts — power flows toward hosts that need
/// more (inefficient parts, heavier ranks) in proportion to their
/// characterized needed power — and (b) never burns watts above a host's
/// needed power, because it "reduces the power limit where it does not
/// impact performance". Both behaviours are what produce the paper's
/// marker-(a) (less power used under relaxed limits) and the min-budget
/// time savings where the static allocation is uniform.
///
/// Application-agnostic policies (`StaticCaps`, `MinimizeWaste`,
/// `Precharacterized`) run without a managing job runtime; their hosts draw
/// whatever their static caps allow, so their allocation is returned as is.
pub fn allocate_with_runtime(
    policy: &dyn PowerPolicy,
    ctx: &PolicyCtx,
    chars: &[JobChar],
) -> Allocation {
    let alloc = policy.allocate(ctx, chars);
    if !policy.application_aware() {
        return alloc;
    }
    assert_eq!(
        alloc.jobs.len(),
        chars.len(),
        "allocation/characterization mismatch"
    );
    let jobs = alloc
        .jobs
        .iter()
        .zip(chars)
        .map(|(caps, job)| {
            let job_total: Watts = caps.iter().copied().sum();
            let needed: Vec<Watts> = job.hosts.iter().map(|h| ctx.clamp(h.needed)).collect();
            crate::allocation::proportional_fit(&needed, job_total, ctx.min_node, ctx.tdp_node)
        })
        .collect();
    Allocation { jobs }
}

/// Evaluate a mix: jobs, their allocations, `iterations` bulk-synchronous
/// iterations each, with per-iteration jitter of relative magnitude
/// `jitter_sigma` (0 disables) drawn from a seeded generator.
///
/// Each job's jitter stream is seeded explicitly from `(seed, job index)`
/// rather than drawn from one generator threaded through the jobs in order,
/// so the result is independent of evaluation order — the jobs fan out over
/// the work-stealing pool and a parallel run is bit-identical to a
/// sequential one.
pub fn evaluate_mix(
    model: &PowerModel,
    setups: &[JobSetup],
    alloc: &Allocation,
    iterations: usize,
    jitter_sigma: f64,
    seed: u64,
) -> MixEvaluation {
    assert_eq!(
        setups.len(),
        alloc.jobs.len(),
        "allocation and mix shape mismatch"
    );
    let jobs = pmstack_exec::par_map_indexed(setups, |j, setup| {
        evaluate_job(
            model,
            setup,
            &alloc.jobs[j],
            iterations,
            jitter_sigma,
            job_jitter_seed(seed, j as u64),
        )
    });
    MixEvaluation { jobs }
}

/// Derive job `j`'s jitter seed from the mix seed — a splitmix64 finalizer
/// so adjacent (seed, job) pairs decorrelate fully.
fn job_jitter_seed(seed: u64, job: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(job.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn evaluate_job(
    model: &PowerModel,
    setup: &JobSetup,
    caps: &[Watts],
    iterations: usize,
    jitter_sigma: f64,
    seed: u64,
) -> JobOutcome {
    assert_eq!(
        setup.host_eps.len(),
        caps.len(),
        "allocation and job host-count mismatch"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let load = KernelLoad::shared(setup.config, model.spec());
    let mut host_power = Vec::with_capacity(caps.len());
    let mut slowest = Seconds::ZERO;
    for (&eps, &cap) in setup.host_eps.iter().zip(caps) {
        let op = load.operating_point(model, eps, cap);
        host_power.push(op.power);
        slowest = slowest.max(load.iteration_time(&op));
    }
    let total_power: Watts = host_power.iter().copied().sum();

    let mut iteration_times = Vec::with_capacity(iterations);
    let mut elapsed = Seconds::ZERO;
    for _ in 0..iterations {
        let jitter = if jitter_sigma > 0.0 {
            let u: f64 = rng.gen::<f64>() + rng.gen::<f64>() - 1.0;
            (1.0 + u * jitter_sigma * 1.7).max(0.5)
        } else {
            1.0
        };
        let t = Seconds(slowest.value() * jitter);
        iteration_times.push(t);
        elapsed += t;
    }

    let flops =
        load.perf().node_flops_per_iteration() * iterations as f64 * setup.host_eps.len() as f64;
    JobOutcome {
        elapsed,
        iteration_times,
        energy: total_power * elapsed,
        flops,
        host_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{MixedAdaptive, StaticCaps};
    use pmstack_kernel::{Imbalance, VectorWidth, WaitingFraction};
    use pmstack_simhw::quartz_spec;

    fn model() -> PowerModel {
        PowerModel::new(quartz_spec()).unwrap()
    }

    fn ctx(budget_w: f64) -> PolicyCtx {
        PolicyCtx {
            system_budget: Watts(budget_w),
            min_node: Watts(136.0),
            tdp_node: Watts(240.0),
        }
    }

    fn eval_under(policy: &dyn PowerPolicy, setups: &[JobSetup], budget_w: f64) -> MixEvaluation {
        let m = model();
        let chars: Vec<JobChar> = setups
            .iter()
            .map(|s| JobChar::analytic(s.config, &m, &s.host_eps))
            .collect();
        let alloc = policy.allocate(&ctx(budget_w), &chars);
        evaluate_mix(&m, setups, &alloc, 100, 0.0, 7)
    }

    #[test]
    fn evaluation_is_deterministic_without_jitter() {
        let setups = vec![JobSetup::uniform(KernelConfig::balanced_ymm(8.0), 4)];
        let a = eval_under(&StaticCaps, &setups, 4.0 * 180.0);
        let b = eval_under(&StaticCaps, &setups, 4.0 * 180.0);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        // Jittered, multi-job: per-job explicit seeding must make the
        // pooled fan-out agree with the forced-sequential reference exactly.
        let m = model();
        let setups: Vec<JobSetup> = [8.0, 0.5, 16.0, 2.0, 0.25, 4.0]
            .iter()
            .map(|&i| JobSetup::uniform(KernelConfig::balanced_ymm(i), 3))
            .collect();
        let chars: Vec<JobChar> = setups
            .iter()
            .map(|s| JobChar::analytic(s.config, &m, &s.host_eps))
            .collect();
        let alloc = StaticCaps.allocate(&ctx(18.0 * 190.0), &chars);
        let par = evaluate_mix(&m, &setups, &alloc, 50, 0.02, 11);
        let seq =
            pmstack_exec::sequential_scope(|| evaluate_mix(&m, &setups, &alloc, 50, 0.02, 11));
        assert_eq!(par, seq);
    }

    #[test]
    fn job_jitter_streams_depend_only_on_seed_and_index() {
        // Identical jobs at different indices decorrelate; a job's stream
        // does not depend on what the *other* jobs of the mix are — the
        // property that makes order of evaluation irrelevant.
        let m = model();
        let job = JobSetup::uniform(KernelConfig::balanced_ymm(8.0), 2);
        let chars: Vec<JobChar> =
            std::iter::repeat_with(|| JobChar::analytic(job.config, &m, &job.host_eps))
                .take(2)
                .collect();
        let alloc = StaticCaps.allocate(&ctx(4.0 * 190.0), &chars);
        let eval = evaluate_mix(&m, &[job.clone(), job.clone()], &alloc, 60, 0.02, 9);
        assert_ne!(
            eval.jobs[0].iteration_times, eval.jobs[1].iteration_times,
            "same config at different indices must draw distinct jitter"
        );
        // Replacing job 1 with a different workload leaves job 0's stream
        // untouched (with one threaded generator it would survive only by
        // accident of draw counts).
        let other = JobSetup::uniform(KernelConfig::balanced_ymm(0.5), 2);
        let chars2 = vec![
            JobChar::analytic(job.config, &m, &job.host_eps),
            JobChar::analytic(other.config, &m, &other.host_eps),
        ];
        let alloc2 = StaticCaps.allocate(&ctx(4.0 * 190.0), &chars2);
        let eval2 = evaluate_mix(&m, &[job, other], &alloc2, 60, 0.02, 9);
        assert_eq!(eval.jobs[0].iteration_times, eval2.jobs[0].iteration_times);
    }

    #[test]
    fn mixed_beats_static_when_power_can_cross_jobs() {
        // One wasteful (needs < uses) job + one power-hungry job under a
        // moderate budget: MixedAdaptive should finish the mix faster.
        let wasteful = KernelConfig::new(
            8.0,
            VectorWidth::Ymm,
            WaitingFraction::P75,
            Imbalance::ThreeX,
        );
        let hungry = KernelConfig::balanced_ymm(8.0);
        let setups = vec![JobSetup::uniform(wasteful, 4), JobSetup::uniform(hungry, 4)];
        let budget = 8.0 * 200.0;
        let stat = eval_under(&StaticCaps, &setups, budget);
        let mixed = eval_under(&MixedAdaptive, &setups, budget);
        assert!(
            mixed.mean_elapsed() < stat.mean_elapsed(),
            "mixed {} vs static {}",
            mixed.mean_elapsed(),
            stat.mean_elapsed()
        );
    }

    #[test]
    fn tighter_budget_never_speeds_a_mix_up() {
        let setups = vec![JobSetup::uniform(KernelConfig::balanced_ymm(16.0), 3)];
        let loose = eval_under(&StaticCaps, &setups, 3.0 * 240.0);
        let tight = eval_under(&StaticCaps, &setups, 3.0 * 150.0);
        assert!(tight.mean_elapsed() >= loose.mean_elapsed());
    }

    #[test]
    fn jitter_produces_spread_but_preserves_mean() {
        let m = model();
        let setups = vec![JobSetup::uniform(KernelConfig::balanced_ymm(8.0), 2)];
        let chars: Vec<JobChar> = setups
            .iter()
            .map(|s| JobChar::analytic(s.config, &m, &s.host_eps))
            .collect();
        let alloc = StaticCaps.allocate(&ctx(2.0 * 200.0), &chars);
        let clean = evaluate_mix(&m, &setups, &alloc, 200, 0.0, 1);
        let noisy = evaluate_mix(&m, &setups, &alloc, 200, 0.01, 1);
        let tc = clean.mean_elapsed().value();
        let tn = noisy.mean_elapsed().value();
        assert!((tn - tc).abs() / tc < 0.01);
        let times: Vec<f64> = noisy.jobs[0]
            .iteration_times
            .iter()
            .map(|t| t.value())
            .collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        assert!(times.iter().any(|t| (t - mean).abs() / mean > 0.002));
    }

    #[test]
    fn flops_per_watt_and_edp_are_consistent() {
        let setups = vec![JobSetup::uniform(KernelConfig::balanced_ymm(8.0), 2)];
        let e = eval_under(&StaticCaps, &setups, 2.0 * 200.0);
        let manual = e.total_flops() / e.total_energy().value();
        assert!((e.flops_per_watt() - manual).abs() < 1e-9);
        assert!(e.energy_delay_product() > 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_is_rejected() {
        let m = model();
        let setups = vec![JobSetup::uniform(KernelConfig::balanced_ymm(8.0), 2)];
        let alloc = Allocation { jobs: vec![] };
        evaluate_mix(&m, &setups, &alloc, 10, 0.0, 0);
    }
}
