//! Property-based tests of the policy invariants.

use pmstack_core::{
    allocate_with_runtime, policies, CharacterizationSource, HostChar, JobChar, PolicyCtx,
    PolicyKind,
};
use pmstack_simhw::Watts;
use proptest::prelude::*;

/// Arbitrary per-host characterization with needed ≤ used, both within the
/// settable range.
fn arb_host() -> impl Strategy<Value = HostChar> {
    (140.0f64..240.0, 0.6f64..1.0).prop_map(|(used, frac)| HostChar {
        used: Watts(used),
        needed: Watts((used * frac).max(136.0)),
    })
}

fn arb_jobs() -> impl Strategy<Value = Vec<JobChar>> {
    prop::collection::vec(
        prop::collection::vec(arb_host(), 1..6).prop_map(|hosts| JobChar {
            hosts,
            source: CharacterizationSource::Analytic,
        }),
        1..6,
    )
}

fn ctx_for(jobs: &[JobChar], per_host_budget: f64) -> PolicyCtx {
    let n: usize = jobs.iter().map(JobChar::num_hosts).sum();
    PolicyCtx {
        system_budget: Watts(per_host_budget * n as f64),
        min_node: Watts(136.0),
        tdp_node: Watts(240.0),
    }
}

proptest! {
    /// Every budget-respecting policy keeps its total within the budget and
    /// every cap within the hardware's settable range, for any mix and any
    /// feasible budget.
    #[test]
    fn budget_and_range_conservation(jobs in arb_jobs(), per_host in 137.0f64..240.0) {
        let ctx = ctx_for(&jobs, per_host);
        for kind in [
            PolicyKind::StaticCaps,
            PolicyKind::MinimizeWaste,
            PolicyKind::JobAdaptive,
            PolicyKind::MixedAdaptive,
        ] {
            let alloc = policies::by_kind(kind).allocate(&ctx, &jobs);
            prop_assert!(
                alloc.total() <= ctx.system_budget + Watts(1e-6),
                "{kind}: {} > {}",
                alloc.total(),
                ctx.system_budget
            );
            prop_assert!(alloc.within(ctx.min_node, ctx.tdp_node), "{kind} out of range");
            // Shape preservation.
            prop_assert_eq!(alloc.jobs.len(), jobs.len());
            for (a, j) in alloc.jobs.iter().zip(&jobs) {
                prop_assert_eq!(a.len(), j.num_hosts());
            }
        }
    }

    /// MixedAdaptive dominance: no host ends below the smaller of its
    /// needed power and the uniform share (nobody is starved below the
    /// baseline to feed someone else).
    #[test]
    fn mixed_adaptive_never_starves(jobs in arb_jobs(), per_host in 137.0f64..240.0) {
        let ctx = ctx_for(&jobs, per_host);
        let n: usize = jobs.iter().map(JobChar::num_hosts).sum();
        let share = ctx.clamp(ctx.system_budget / n as f64);
        let alloc = policies::by_kind(PolicyKind::MixedAdaptive).allocate(&ctx, &jobs);
        for (caps, job) in alloc.jobs.iter().zip(&jobs) {
            for (cap, host) in caps.iter().zip(&job.hosts) {
                let floor = share.min(ctx.clamp(host.needed));
                prop_assert!(
                    *cap >= floor - Watts(1e-6),
                    "host with needed {} got {cap} under share {share}",
                    host.needed
                );
            }
        }
    }

    /// More budget never shrinks MixedAdaptive's total allocation, and the
    /// total is monotone up to saturation at Σ TDP.
    #[test]
    fn mixed_adaptive_monotone_in_budget(jobs in arb_jobs(), per_host in 140.0f64..230.0) {
        let lo = ctx_for(&jobs, per_host);
        let hi = ctx_for(&jobs, per_host + 8.0);
        let policy = policies::by_kind(PolicyKind::MixedAdaptive);
        let a = policy.allocate(&lo, &jobs);
        let b = policy.allocate(&hi, &jobs);
        prop_assert!(b.total() >= a.total() - Watts(1e-6));
    }

    /// JobAdaptive never moves power across job boundaries: each job's
    /// total stays within its uniform silo.
    #[test]
    fn job_adaptive_silos(jobs in arb_jobs(), per_host in 137.0f64..240.0) {
        let ctx = ctx_for(&jobs, per_host);
        let n: usize = jobs.iter().map(JobChar::num_hosts).sum();
        let share = ctx.clamp(ctx.system_budget / n as f64);
        let alloc = policies::by_kind(PolicyKind::JobAdaptive).allocate(&ctx, &jobs);
        for (j, job) in jobs.iter().enumerate() {
            let silo = share * job.num_hosts() as f64;
            prop_assert!(
                alloc.job_total(j) <= silo + Watts(1e-6),
                "job {j} total {} exceeds silo {}",
                alloc.job_total(j),
                silo
            );
        }
    }

    /// The execution-time balancer transform conserves each job's budget,
    /// never pushes a host above its needed power, and keeps relative
    /// ordering by needed power; an application-agnostic policy's caps
    /// pass through untouched.
    #[test]
    fn job_runtime_transform_invariants(jobs in arb_jobs(), per_host in 137.0f64..240.0) {
        let ctx = ctx_for(&jobs, per_host);
        let policy = policies::by_kind(PolicyKind::MixedAdaptive);
        let alloc = policy.allocate(&ctx, &jobs);
        let eff = allocate_with_runtime(policy.as_ref(), &ctx, &jobs);
        for (j, job) in jobs.iter().enumerate() {
            prop_assert!(
                eff.job_total(j) <= alloc.job_total(j) + Watts(1e-6),
                "runtime inflated job {j}"
            );
            for (cap, host) in eff.jobs[j].iter().zip(&job.hosts) {
                prop_assert!(*cap <= ctx.clamp(host.needed) + Watts(1e-6));
                prop_assert!(*cap >= ctx.min_node - Watts(1e-6));
            }
            // Ordering: a host needing more never ends with less.
            for a in 0..job.hosts.len() {
                for b in 0..job.hosts.len() {
                    if job.hosts[a].needed > job.hosts[b].needed {
                        prop_assert!(eff.jobs[j][a] >= eff.jobs[j][b] - Watts(1e-6));
                    }
                }
            }
        }
        let agnostic = policies::by_kind(PolicyKind::StaticCaps);
        prop_assert_eq!(
            allocate_with_runtime(agnostic.as_ref(), &ctx, &jobs),
            agnostic.allocate(&ctx, &jobs)
        );
    }

    /// StaticCaps is invariant to the needed-power column (it is
    /// performance-agnostic by construction).
    #[test]
    fn static_caps_ignores_needed(jobs in arb_jobs(), per_host in 137.0f64..240.0) {
        let ctx = ctx_for(&jobs, per_host);
        let mut distorted = jobs.clone();
        for job in &mut distorted {
            for host in &mut job.hosts {
                host.needed = Watts(136.0);
            }
        }
        let a = policies::by_kind(PolicyKind::StaticCaps).allocate(&ctx, &jobs);
        let b = policies::by_kind(PolicyKind::StaticCaps).allocate(&ctx, &distorted);
        prop_assert_eq!(a, b);
    }
}
