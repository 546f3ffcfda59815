//! The stack grid: the Fig. 7/8 grid evaluated on the stack that runs,
//! beside the analytic grid `repro grid` evaluates (ROADMAP item 1a-ii).
//!
//! Each job of each of the 90 (mix, budget level, policy) cells runs as a
//! `JobPlatform::from_hosts` over the cell's placement, held at the cell's
//! `allocate_with_runtime` caps by a `Controller<FixedAllocationAgent>`,
//! jittered at the grid's σ. The analytic grid evaluates the same
//! placement and caps with one operating point per host; the two engines
//! differ only in the hardware model (RAPL filters settling, per-host
//! jitter, energy stepped per iteration).
//!
//! `paper_claims_on_the_stack` runs both at `tests/paper_claims.rs`'s scale,
//! prints each cell's time, energy and power gap against its analytic
//! cell, evaluates the claims `paper_claims.rs` asserts (one list, in
//! `claims/mod.rs`), asserts every one that holds on the stack, and
//! asserts that the ones listed in [`FAILING_ON_THE_STACK`] still fail
//! there (EXPERIMENTS.md, "The stack grid", gives their numbers), so a
//! change that moves either set shows here. `full_scale_stack_grid` (ignored in
//! tier-1; `cargo test --release --test stack_grid -- --ignored
//! --nocapture`) runs the paper-scale grid and prints its gaps and its
//! wall-clock.

mod claims;

use claims::{claims, Cells};
use powerstack::core::{allocate_with_runtime, policies, JobChar, PolicyCtx, PolicyKind};
use powerstack::experiments::grid::{EvaluationGrid, GridParams};
use powerstack::experiments::{mixes, BudgetLevel, MixBudgets, MixKind, Testbed};
use powerstack::runtime::agents::FixedAllocationAgent;
use powerstack::runtime::controller::Controller;
use powerstack::runtime::JobPlatform;
use powerstack::simhw::NodeId;
use std::time::Instant;

/// One cell run on the stack.
#[derive(Debug, Clone)]
struct StackCell {
    mix: MixKind,
    level: BudgetLevel,
    policy: PolicyKind,
    budget_w: f64,
    /// Mean job elapsed time, seconds.
    elapsed_s: f64,
    /// Total mix energy, joules.
    energy_j: f64,
    /// Sum of the jobs' average powers, watts.
    power_w: f64,
}

impl StackCell {
    fn pct_of_budget(&self) -> f64 {
        100.0 * self.power_w / self.budget_w
    }
}

/// The stack grid: every (mix, level, policy) cell, cells fanned out over
/// the exec pool, in mix, level, `PolicyKind::all` order.
fn stack_grid(tb: &Testbed, params: GridParams) -> Vec<StackCell> {
    let spec = tb.model().spec();
    let preps: Vec<_> = (MixKind::all().into_iter())
        .map(|kind| {
            let setups = tb.place(&mixes::build_scaled(kind, params.nodes_per_job));
            let chars: Vec<JobChar> = (setups.iter())
                .map(|s| JobChar::analytic(s.config, tb.model(), &s.host_eps))
                .collect();
            let budgets = MixBudgets::from_characterization(&chars);
            (kind, setups, chars, budgets)
        })
        .collect();
    let work: Vec<(usize, BudgetLevel, PolicyKind)> = (0..preps.len())
        .flat_map(|m| {
            let levels = BudgetLevel::all().into_iter();
            levels.flat_map(move |l| PolicyKind::all().into_iter().map(move |p| (m, l, p)))
        })
        .collect();
    powerstack::exec::par_map(&work, |&(m, level, policy)| {
        let (kind, setups, chars, budgets) = &preps[m];
        let ctx = PolicyCtx {
            system_budget: budgets.get(level),
            min_node: spec.min_rapl_per_node(),
            tdp_node: spec.tdp_per_node(),
        };
        let alloc = allocate_with_runtime(policies::by_kind(policy).as_ref(), &ctx, chars);
        let (mut elapsed, mut energy, mut power) = (0.0, 0.0, 0.0);
        for (j, (setup, caps)) in setups.iter().zip(&alloc.jobs).enumerate() {
            let hosts: Vec<(NodeId, f64)> = (setup.host_eps.iter().enumerate())
                .map(|(h, &eps)| (NodeId(h), eps))
                .collect();
            let platform = JobPlatform::from_hosts(tb.model().clone(), &hosts, setup.config)
                .expect("placed hosts have valid ε")
                .with_jitter(params.jitter_sigma, job_seed(m, level, policy, j));
            let agent = FixedAllocationAgent::new(caps.clone());
            let report = Controller::new(platform, agent).run(params.iterations);
            elapsed += report.elapsed.value();
            energy += report.energy.value();
            power += report.energy.value() / report.elapsed.value();
        }
        StackCell {
            mix: *kind,
            level,
            policy,
            budget_w: ctx.system_budget.value(),
            elapsed_s: elapsed / setups.len() as f64,
            energy_j: energy,
            power_w: power,
        }
    })
}

/// A stable jitter seed per (mix, level, policy, job).
fn job_seed(m: usize, level: BudgetLevel, policy: PolicyKind, j: usize) -> u64 {
    let l = BudgetLevel::all().iter().position(|&k| k == level).unwrap() as u64;
    let p = PolicyKind::all().iter().position(|&k| k == policy).unwrap() as u64;
    0x5EED_0000 ^ ((m as u64) << 24) ^ (l << 16) ^ (p << 8) ^ j as u64
}

/// The stack grid's cells by key, read as the claims read a grid.
struct Stack<'a>(&'a [StackCell]);

impl Stack<'_> {
    fn get(&self, mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> &StackCell {
        (self.0.iter())
            .find(|c| c.mix == mix && c.level == level && c.policy == policy)
            .expect("the grid covers the full cross product")
    }
}

impl Cells for Stack<'_> {
    fn pct_of_budget(&self, mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> f64 {
        self.get(mix, level, policy).pct_of_budget()
    }

    fn elapsed_energy(&self, mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> (f64, f64) {
        let c = self.get(mix, level, policy);
        (c.elapsed_s, c.energy_j)
    }
}

/// The claims that do not hold on the stack at `paper_claims.rs`'s scale.
const FAILING_ON_THE_STACK: &[&str] = &[
    "marker (c): MinimizeWaste beats JobAdaptive on time (NeedUsedPower, ideal)",
    "MixedAdaptive never loses more than 1.5% time",
    "headline: best MixedAdaptive time > 3% and energy > 7%",
];

/// Print each cell's gap against the analytic cell: time and energy as
/// relative differences, power as percentage points of the budget.
fn print_gaps(stack: &[StackCell], analytic: &EvaluationGrid) {
    println!("mix             level  policy            time gap  energy gap  power gap (pts)");
    for c in stack {
        let a = analytic.cell(c.mix, c.level, c.policy);
        let rel = |s: f64, a: f64| 100.0 * (s / a - 1.0);
        println!(
            "{:<15} {:<6} {:<16} {:>8.2}% {:>10.2}% {:>10.2}",
            c.mix.to_string(),
            c.level.to_string(),
            c.policy.to_string(),
            rel(c.elapsed_s, a.mean_elapsed.value()),
            rel(c.energy_j, a.energy.value()),
            c.pct_of_budget() - a.pct_of_budget,
        );
    }
}

#[test]
fn paper_claims_on_the_stack() {
    let tb = Testbed::new(500, 42);
    let params = GridParams {
        nodes_per_job: 12,
        iterations: 60,
        jitter_sigma: 0.01,
    };
    let stack = stack_grid(&tb, params);
    assert_eq!(stack.len(), 90);
    print_gaps(&stack, &EvaluationGrid::run(&tb, params));
    let claims = claims(&Stack(&stack));
    for name in FAILING_ON_THE_STACK {
        assert!(claims.iter().any(|c| c.name == *name), "no claim {name}");
    }
    let mut wrong = Vec::new();
    for claims::Claim {
        name,
        holds,
        numbers,
    } in claims
    {
        let expected = !FAILING_ON_THE_STACK.contains(&name);
        println!(
            "{} {name}: {numbers}",
            if holds { "holds " } else { "FAILS " }
        );
        if holds != expected {
            wrong.push(format!("{name} ({numbers})"));
        }
    }
    assert!(
        wrong.is_empty(),
        "claims that moved on the stack: {wrong:#?}"
    );
}

#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn full_scale_stack_grid() {
    let tb = Testbed::paper_scale();
    let params = GridParams::default();
    let start = Instant::now();
    let stack = stack_grid(&tb, params);
    let wall = start.elapsed().as_secs_f64();
    print_gaps(&stack, &EvaluationGrid::run(&tb, params));
    for claims::Claim {
        name,
        holds,
        numbers,
    } in claims(&Stack(&stack))
    {
        println!(
            "{} {name}: {numbers}",
            if holds { "holds " } else { "FAILS " }
        );
    }
    println!("stack grid wall-clock {wall:.3} s ({} cells)", stack.len());
}
