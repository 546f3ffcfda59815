//! The replicate sweep (`repro sweep --replicates N`).
//!
//! The paper's Fig. 8 error bars come from *replicated* full-stack runs:
//! the same mix under the same policy, repeated across jitter seeds, each
//! replicate a complete 100-iteration coordinator run through the RAPL
//! simulation. This module reproduces that methodology at paper scale
//! (9 jobs × 100 nodes) and is the volume workload the columnar hot loop
//! is benchmarked on: one sweep at the default scale steps ~10⁷ node
//! iterations through `JobPlatform::run_iteration_into`.
//!
//! Each policy runs one *clean* replicate (`jitter_sigma = 0`, which the
//! steady-state fast-forward path accelerates once enforcement settles)
//! plus `replicates` jittered ones whose spread yields the error bars.

use crate::mixes::{build_scaled, MixKind};
use pmstack_analysis::render::table;
use pmstack_core::policies::by_kind;
use pmstack_core::{Coordinator, CoordinatorMode, MixRun, PolicyKind};
use pmstack_obs::JsonWriter;
use pmstack_simhw::{quartz_spec, Cluster, VariationProfile, Watts};

/// Scale knobs of the replicate sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicateParams {
    /// Nodes per job of the scaled mix (9 jobs).
    pub nodes_per_job: usize,
    /// Iterations per job per replicate.
    pub iterations: usize,
    /// Number of jittered replicates per policy (one clean run is added).
    pub replicates: usize,
    /// Per-iteration multiplicative compute-time jitter σ.
    pub jitter_sigma: f64,
    /// System budget per node, watts.
    pub budget_per_node_w: f64,
    /// Cluster variation seed; jitter seeds derive from it per replicate.
    pub seed: u64,
}

impl ReplicateParams {
    /// Paper scale: 9 jobs × 100 nodes, 100 iterations per replicate.
    pub fn default_scale(replicates: usize) -> Self {
        Self {
            nodes_per_job: 100,
            iterations: 100,
            replicates,
            jitter_sigma: 0.01,
            budget_per_node_w: 185.0,
            seed: 42,
        }
    }

    /// Reduced scale for quick checks (`--fast`).
    pub fn fast(replicates: usize) -> Self {
        Self {
            nodes_per_job: 4,
            iterations: 24,
            replicates,
            jitter_sigma: 0.01,
            budget_per_node_w: 185.0,
            seed: 42,
        }
    }
}

/// One policy's replicate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReplicates {
    /// The policy.
    pub kind: PolicyKind,
    /// Mean job elapsed time of the clean (σ = 0) replicate, seconds.
    pub clean_elapsed_s: f64,
    /// Mean over the jittered replicates of the mean job elapsed time.
    pub mean_elapsed_s: f64,
    /// Half-width of the 95 % confidence interval on the mean, seconds
    /// (zero when fewer than two jittered replicates ran).
    pub ci95_s: f64,
    /// Mean total mix energy over the jittered replicates, joules.
    pub mean_energy_j: f64,
}

/// The five-policy replicate sweep over one mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicateSweep {
    /// The mix every policy ran.
    pub mix: MixKind,
    /// The scale it ran at.
    pub params: ReplicateParams,
    /// The system budget, watts.
    pub budget_w: f64,
    /// One row per policy, paper order.
    pub rows: Vec<PolicyReplicates>,
    /// Wall-clock of the whole sweep, seconds.
    pub wall_secs: f64,
    /// Total node iterations stepped (runs × nodes × iterations).
    pub node_iterations: u64,
}

impl ReplicateSweep {
    /// Node iterations stepped per wall-clock second.
    pub fn throughput(&self) -> f64 {
        self.node_iterations as f64 / self.wall_secs.max(1e-12)
    }
}

/// Run the sweep: for each §III policy, one clean replicate plus
/// `params.replicates` jittered ones, all through the full stack
/// (emulated mode, the paper's methodology).
pub fn run_sweep(mix: MixKind, params: ReplicateParams) -> ReplicateSweep {
    let workload = build_scaled(mix, params.nodes_per_job);
    let total = workload.total_nodes();
    let cluster = Cluster::builder(quartz_spec())
        .nodes(total)
        .variation(VariationProfile::quartz())
        .seed(params.seed)
        .build()
        .expect("sweep cluster builds");
    let budget = Watts(params.budget_per_node_w * total as f64);

    // Flatten the 5 policies x (1 clean + N jittered) grid into one run
    // list and fan it out over the work-stealing pool. Each run is fully
    // determined by its (policy, jitter seed) pair, so results are
    // order-independent and the aggregation below stays deterministic.
    let run_list: Vec<(PolicyKind, Option<u64>)> = PolicyKind::all()
        .into_iter()
        .flat_map(|kind| {
            std::iter::once((kind, None)).chain(
                (0..params.replicates)
                    .map(move |r| (kind, Some(params.seed.wrapping_add(1 + r as u64)))),
            )
        })
        .collect();
    let runs_done = run_list.len() as u64;

    let run = |_: usize, &(policy, jitter_seed): &(PolicyKind, Option<u64>)| -> MixRun {
        let _span = pmstack_obs::span!("sweep.run.secs");
        let mut coord = Coordinator::new(&cluster);
        if let Some(seed) = jitter_seed {
            coord = coord.with_jitter(params.jitter_sigma, seed);
        }
        coord
            .try_run_mix(
                &workload.jobs,
                by_kind(policy).as_ref(),
                budget,
                params.iterations,
                CoordinatorMode::Emulated,
            )
            .expect("the sweep's mix fits its cluster")
    };

    // Execution order: clean runs first. The pool block-distributes, so
    // on the forced 2-worker pool below one queue starts with the cheap
    // fast-forwarded clean runs and the other with jittered full runs —
    // the cheap side drains first and exercises the steal path.
    let mut order: Vec<usize> = (0..run_list.len()).collect();
    order.sort_by_key(|&i| run_list[i].1.is_some());

    // With >= 2 hardware threads every run goes through the pool. A
    // single-hardware-thread host pays a ~15 % cache-interference tax for
    // time-slicing two workers through the whole sweep, so there only a
    // head slice runs under a forced 2-worker pool — enough to keep the
    // pool and steal counters live (CI's metrics job asserts them) at a
    // bounded (~1-2 %) cost — and the tail runs inline.
    let start = std::time::Instant::now();
    let head_len = if pmstack_exec::workers() > 1 {
        order.len()
    } else {
        order.len().min(6)
    };
    let (head, tail) = order.split_at(head_len);
    let head_results =
        pmstack_exec::par_map_indexed_min_workers(head, 2, |_, &i| run(i, &run_list[i]));
    let mut slots: Vec<Option<MixRun>> = (0..run_list.len()).map(|_| None).collect();
    for (&i, r) in head.iter().zip(head_results) {
        slots[i] = Some(r);
    }
    for &i in tail {
        slots[i] = Some(run(i, &run_list[i]));
    }
    let results: Vec<MixRun> = slots
        .into_iter()
        .map(|r| r.expect("every run executed"))
        .collect();

    // Clean run first, then the jittered ones.
    let per_policy = params.replicates + 1;
    // The per-policy reductions are independent; fan them out as well.
    // Their cost (a few means over <= replicates floats) is far below a
    // worker wakeup, so on the forced single-core pool whichever worker
    // wakes first drains its queue and steals the other's — this is what
    // keeps `exec.tasks.stolen` live on hosts with no real parallelism.
    let policies: Vec<PolicyKind> = PolicyKind::all().into_iter().collect();
    let rows: Vec<PolicyReplicates> =
        pmstack_exec::par_map_indexed_min_workers(&policies, 2, |p, &kind| {
            let clean = &results[p * per_policy];
            let jittered = &results[p * per_policy + 1..(p + 1) * per_policy];
            let elapsed: Vec<f64> = jittered.iter().map(MixRun::mean_elapsed).collect();
            let energy: Vec<f64> = jittered.iter().map(MixRun::total_energy).collect();
            let mean = if elapsed.is_empty() {
                clean.mean_elapsed()
            } else {
                elapsed.iter().sum::<f64>() / elapsed.len() as f64
            };
            let ci95 = if elapsed.len() >= 2 {
                let var = elapsed.iter().map(|t| (t - mean).powi(2)).sum::<f64>()
                    / (elapsed.len() - 1) as f64;
                1.96 * (var / elapsed.len() as f64).sqrt()
            } else {
                0.0
            };
            let mean_energy = if energy.is_empty() {
                clean.total_energy()
            } else {
                energy.iter().sum::<f64>() / energy.len() as f64
            };
            PolicyReplicates {
                kind,
                clean_elapsed_s: clean.mean_elapsed(),
                mean_elapsed_s: mean,
                ci95_s: ci95,
                mean_energy_j: mean_energy,
            }
        });
    let wall_secs = start.elapsed().as_secs_f64();
    let node_iterations = runs_done * total as u64 * params.iterations as u64;

    ReplicateSweep {
        mix,
        params,
        budget_w: budget.value(),
        rows,
        wall_secs,
        node_iterations,
    }
}

/// Render the sweep as a text artifact.
pub fn render(sweep: &ReplicateSweep) -> String {
    let header = [
        "policy",
        "clean s",
        "mean s",
        "ci95 s",
        "energy MJ",
        "vs static",
    ];
    let base = sweep
        .rows
        .iter()
        .find(|r| r.kind == PolicyKind::StaticCaps)
        .map_or(f64::NAN, |r| r.mean_elapsed_s);
    let rows: Vec<Vec<String>> = sweep
        .rows
        .iter()
        .map(|r| {
            vec![
                r.kind.to_string(),
                format!("{:.3}", r.clean_elapsed_s),
                format!("{:.3}", r.mean_elapsed_s),
                format!("±{:.3}", r.ci95_s),
                format!("{:.3}", r.mean_energy_j / 1e6),
                format!("{:+.1}%", (r.mean_elapsed_s / base - 1.0) * 100.0),
            ]
        })
        .collect();
    format!(
        "REPLICATE SWEEP: 5 POLICIES x ({} jittered + 1 clean) FULL-STACK RUNS\n\
         mix {}, 9 jobs x {} nodes, {} iterations, sigma {}, {} W budget\n\n{}\n\
         wall-clock {:.3} s for {} node iterations ({:.2e} node-iters/s)\n",
        sweep.params.replicates,
        sweep.mix,
        sweep.params.nodes_per_job,
        sweep.params.iterations,
        sweep.params.jitter_sigma,
        sweep.budget_w,
        table(&header, &rows),
        sweep.wall_secs,
        sweep.node_iterations,
        sweep.throughput(),
    )
}

/// Serialize the sweep's scale and wall-clock as the BENCH_sweep.json
/// document.
pub fn to_bench_json(sweep: &ReplicateSweep) -> String {
    let mut w = JsonWriter::default();
    w.begin_object().key("benchmark").str("replicate_sweep");
    w.key("mix").str(sweep.mix);
    w.key("replicates").usize(sweep.params.replicates);
    w.key("nodes_per_job").usize(sweep.params.nodes_per_job);
    w.key("iterations").usize(sweep.params.iterations);
    w.key("node_iterations").u64(sweep.node_iterations);
    w.key("wall_secs").fixed(sweep.wall_secs, 6);
    w.key("node_iters_per_sec").fixed(sweep.throughput(), 1);
    w.end_object();
    w.finish_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReplicateParams {
        ReplicateParams {
            nodes_per_job: 1,
            iterations: 8,
            replicates: 2,
            jitter_sigma: 0.01,
            budget_per_node_w: 185.0,
            seed: 42,
        }
    }

    #[test]
    fn sweep_covers_every_policy() {
        let sweep = run_sweep(MixKind::WastefulPower, tiny());
        assert_eq!(sweep.rows.len(), 5);
        // 5 policies x (1 clean + 2 jittered) x 9 nodes x 8 iterations.
        assert_eq!(sweep.node_iterations, 5 * 3 * 9 * 8);
        for row in &sweep.rows {
            assert!(row.clean_elapsed_s > 0.0);
            assert!(row.mean_elapsed_s > 0.0);
            assert!(row.ci95_s >= 0.0);
            assert!(row.mean_energy_j > 0.0);
        }
    }

    #[test]
    fn sweep_statistics_are_deterministic() {
        let a = run_sweep(MixKind::WastefulPower, tiny());
        let b = run_sweep(MixKind::WastefulPower, tiny());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.mean_elapsed_s.to_bits(), y.mean_elapsed_s.to_bits());
            assert_eq!(x.clean_elapsed_s.to_bits(), y.clean_elapsed_s.to_bits());
            assert_eq!(x.ci95_s.to_bits(), y.ci95_s.to_bits());
        }
    }

    #[test]
    fn render_reports_scale_and_policies() {
        let sweep = run_sweep(MixKind::WastefulPower, tiny());
        let text = render(&sweep);
        for kind in PolicyKind::all() {
            assert!(text.contains(&kind.to_string()), "missing {kind}");
        }
        assert!(text.contains("wall-clock"));
    }
}
