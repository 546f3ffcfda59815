//! The policy × mix × budget evaluation grid (Figs. 7 and 8).
//!
//! All 90 (mix, level, policy) cells are independent once each mix's
//! placement, characterization, and budget ladder are known, so the grid
//! fans the cells out over the [`pmstack_exec`] work-stealing pool: a
//! per-mix preparation stage, then one pool task per cell, then an ordered
//! assembly that attaches the Fig. 8 savings rows against each cell's
//! same-(mix, level) `StaticCaps` baseline. Every cell derives its jitter
//! seed from its own coordinates, so the parallel grid is bit-identical to
//! a forced-sequential one ([`pmstack_exec::sequential_scope`]).

use crate::budgets::{BudgetLevel, MixBudgets};
use crate::mixes::{self, MixKind, WorkloadMix};
use crate::testbed::Testbed;
use pmstack_analysis::metrics::SavingsRow;
use pmstack_analysis::stats::{ci95_half_width, mean};
use pmstack_core::{
    allocate_with_runtime, evaluate_mix, policies, JobChar, JobSetup, MixEvaluation, PolicyCtx,
    PolicyKind,
};
use pmstack_obs::JsonWriter;
use pmstack_simhw::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One evaluated (mix, budget level, policy) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// The workload mix.
    pub mix: MixKind,
    /// The over-provisioning level.
    pub level: BudgetLevel,
    /// The policy.
    pub policy: PolicyKind,
    /// The absolute system budget of this cell.
    pub budget: Watts,
    /// Steady total power drawn by the mix.
    pub total_power: Watts,
    /// Fig. 7: power drawn as a percentage of the budget.
    pub pct_of_budget: f64,
    /// Mean job elapsed time.
    pub mean_elapsed: Seconds,
    /// Total mix energy.
    pub energy: Joules,
    /// Achieved FLOPS per watt.
    pub flops_per_watt: f64,
    /// Energy-delay product.
    pub edp: f64,
    /// Relative 95% CI half-width of the mean iteration time.
    pub time_ci_frac: f64,
    /// Fig. 8: savings vs the same-cell `StaticCaps` baseline (absent for
    /// the baseline itself and for `Precharacterized`, which the paper
    /// omits for running over budget).
    pub savings: Option<SavingsRow>,
}

/// The whole grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluationGrid {
    /// Every evaluated cell.
    pub cells: Vec<GridCell>,
    /// Keyed lookup index, built on first [`Self::cell`] call; identity is
    /// carried entirely by `cells`.
    index: OnceLock<HashMap<(MixKind, BudgetLevel, PolicyKind), usize>>,
}

impl PartialEq for EvaluationGrid {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
    }
}

/// Wall-clock breakdown of one grid run, for the `repro grid --time`
/// instrumentation and `BENCH_grid.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridTiming {
    /// Per-mix preparation (placement, characterization, budget ladders).
    pub prep_secs: f64,
    /// The 90-cell policy-evaluation fan-out.
    pub eval_secs: f64,
    /// Ordered assembly and savings attribution.
    pub assemble_secs: f64,
    /// End-to-end grid time.
    pub total_secs: f64,
    /// Pool width the run had available.
    pub workers: usize,
}

/// Parameters of a grid run.
#[derive(Debug, Clone, Copy)]
pub struct GridParams {
    /// Nodes per job (paper: 100).
    pub nodes_per_job: usize,
    /// Iterations per execution (paper: 100).
    pub iterations: usize,
    /// Relative per-iteration jitter (paper-scale noise: ~0.01).
    pub jitter_sigma: f64,
}

impl Default for GridParams {
    fn default() -> Self {
        Self {
            nodes_per_job: 100,
            iterations: 100,
            jitter_sigma: 0.01,
        }
    }
}

impl GridParams {
    /// Reduced-scale parameters for quick runs and tests.
    pub fn fast() -> Self {
        Self {
            nodes_per_job: 10,
            iterations: 30,
            jitter_sigma: 0.01,
        }
    }
}

/// The cell emission order within one (mix, level) group — baseline first
/// so its savings reference is adjacent.
const POLICY_ORDER: [PolicyKind; 5] = [
    PolicyKind::StaticCaps,
    PolicyKind::Precharacterized,
    PolicyKind::MinimizeWaste,
    PolicyKind::JobAdaptive,
    PolicyKind::MixedAdaptive,
];

/// Everything a mix's cells share: its placement, characterization, and
/// budget ladder.
struct MixPrep {
    kind: MixKind,
    mix: WorkloadMix,
    setups: Vec<JobSetup>,
    chars: Vec<JobChar>,
    budgets: MixBudgets,
}

impl EvaluationGrid {
    /// Evaluate all six mixes at all three levels under all five policies —
    /// all 90 cells fanned out over the work-stealing pool.
    pub fn run(testbed: &Testbed, params: GridParams) -> Self {
        Self::run_timed(testbed, params).0
    }

    /// [`Self::run`], plus the per-phase wall-clock breakdown.
    pub fn run_timed(testbed: &Testbed, params: GridParams) -> (Self, GridTiming) {
        let t_total = Instant::now();
        let kinds = MixKind::all();
        let preps = pmstack_exec::par_map(&kinds, |&kind| prep_mix(testbed, kind, params));
        let prep_secs = t_total.elapsed().as_secs_f64();

        // One pool task per (mix, level, policy) cell; costs vary by policy
        // and budget level, which is what the pool's stealing absorbs.
        let t_eval = Instant::now();
        let work: Vec<(usize, BudgetLevel, PolicyKind)> = (0..preps.len())
            .flat_map(|m| {
                BudgetLevel::all()
                    .into_iter()
                    .flat_map(move |level| POLICY_ORDER.into_iter().map(move |p| (m, level, p)))
            })
            .collect();
        let evals = pmstack_exec::par_map(&work, |&(m, level, policy)| {
            eval_cell(testbed, &preps[m], level, policy, params)
        });
        let eval_secs = t_eval.elapsed().as_secs_f64();

        let t_asm = Instant::now();
        let levels = BudgetLevel::all();
        let mut cells = Vec::with_capacity(work.len());
        for (m, prep) in preps.iter().enumerate() {
            for (li, &level) in levels.iter().enumerate() {
                let base = (m * levels.len() + li) * POLICY_ORDER.len();
                let group = &evals[base..base + POLICY_ORDER.len()];
                assemble_level(prep.kind, level, prep.budgets.get(level), group, &mut cells);
            }
        }
        let timing = GridTiming {
            prep_secs,
            eval_secs,
            assemble_secs: t_asm.elapsed().as_secs_f64(),
            total_secs: t_total.elapsed().as_secs_f64(),
            workers: pmstack_exec::workers(),
        };
        (Self::from_cells(cells), timing)
    }

    fn from_cells(cells: Vec<GridCell>) -> Self {
        Self {
            cells,
            index: OnceLock::new(),
        }
    }

    /// Look up one cell — O(1) via an index built on first use.
    pub fn cell(&self, mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> &GridCell {
        let index = self.index.get_or_init(|| {
            self.cells
                .iter()
                .enumerate()
                .map(|(i, c)| ((c.mix, c.level, c.policy), i))
                .collect()
        });
        let i = *index
            .get(&(mix, level, policy))
            .expect("grid covers the full cross product");
        &self.cells[i]
    }
}

/// Evaluate one mix at all levels under all policies — same cells, same
/// order as the corresponding slice of [`EvaluationGrid::run`].
pub fn run_mix(testbed: &Testbed, kind: MixKind, params: GridParams) -> Vec<GridCell> {
    let prep = prep_mix(testbed, kind, params);
    let mut cells = Vec::new();
    for level in BudgetLevel::all() {
        let evals: Vec<MixEvaluation> = POLICY_ORDER
            .iter()
            .map(|&policy| eval_cell(testbed, &prep, level, policy, params))
            .collect();
        assemble_level(kind, level, prep.budgets.get(level), &evals, &mut cells);
    }
    cells
}

/// Serialize one timed grid run as the BENCH_grid.json document.
pub fn to_bench_json(grid: &EvaluationGrid, params: GridParams, timing: &GridTiming) -> String {
    let mut w = JsonWriter::default();
    w.begin_object().key("benchmark").str("evaluation_grid");
    w.key("cells").usize(grid.cells.len());
    w.key("nodes_per_job").usize(params.nodes_per_job);
    w.key("iterations").usize(params.iterations);
    w.key("workers").usize(timing.workers);
    w.key("prep_secs").fixed(timing.prep_secs, 6);
    w.key("eval_secs").fixed(timing.eval_secs, 6);
    w.key("assemble_secs").fixed(timing.assemble_secs, 6);
    w.key("total_secs").fixed(timing.total_secs, 6);
    w.end_object();
    w.finish_line()
}

/// Build a mix's shared inputs: placement, per-job characterization, and
/// the Table III budget ladder.
fn prep_mix(testbed: &Testbed, kind: MixKind, params: GridParams) -> MixPrep {
    let _span = pmstack_obs::span!("grid.prep_mix.secs");
    let mix = mixes::build_scaled(kind, params.nodes_per_job);
    let setups = testbed.place(&mix);
    let chars: Vec<JobChar> = setups
        .iter()
        .map(|s| JobChar::analytic(s.config, testbed.model(), &s.host_eps))
        .collect();
    let budgets = MixBudgets::from_characterization(&chars);
    MixPrep {
        kind,
        mix,
        setups,
        chars,
        budgets,
    }
}

/// Evaluate one independent (mix, level, policy) cell.
fn eval_cell(
    testbed: &Testbed,
    prep: &MixPrep,
    level: BudgetLevel,
    policy: PolicyKind,
    params: GridParams,
) -> MixEvaluation {
    let _span = pmstack_obs::span!("grid.eval_cell.secs");
    let spec = testbed.model().spec();
    let ctx = PolicyCtx {
        system_budget: prep.budgets.get(level),
        min_node: spec.min_rapl_per_node(),
        tdp_node: spec.tdp_per_node(),
    };
    let alloc = allocate_with_runtime(policies::by_kind(policy).as_ref(), &ctx, &prep.chars);
    let seed = cell_seed(prep.mix.kind, level, policy);
    evaluate_mix(
        testbed.model(),
        &prep.setups,
        &alloc,
        params.iterations,
        params.jitter_sigma,
        seed,
    )
}

/// Turn one (mix, level) group of evaluations (in [`POLICY_ORDER`]) into
/// grid cells with savings attributed against the `StaticCaps` baseline.
fn assemble_level(
    kind: MixKind,
    level: BudgetLevel,
    budget: Watts,
    evals: &[MixEvaluation],
    out: &mut Vec<GridCell>,
) {
    let baseline = &evals[0];
    out.push(cell_from(
        kind,
        level,
        PolicyKind::StaticCaps,
        budget,
        baseline,
        None,
    ));
    for (policy, eval) in POLICY_ORDER.iter().zip(evals).skip(1) {
        let savings = (*policy != PolicyKind::Precharacterized).then(|| {
            SavingsRow::from_absolute(
                baseline.mean_elapsed().value(),
                eval.mean_elapsed().value(),
                time_ci_frac(eval),
                baseline.total_energy().value(),
                eval.total_energy().value(),
                baseline.flops_per_watt(),
                eval.flops_per_watt(),
            )
        });
        out.push(cell_from(kind, level, *policy, budget, eval, savings));
    }
}

fn cell_from(
    mix: MixKind,
    level: BudgetLevel,
    policy: PolicyKind,
    budget: Watts,
    eval: &MixEvaluation,
    savings: Option<SavingsRow>,
) -> GridCell {
    GridCell {
        mix,
        level,
        policy,
        budget,
        total_power: eval.total_power(),
        pct_of_budget: 100.0 * eval.total_power().value() / budget.value(),
        mean_elapsed: eval.mean_elapsed(),
        energy: eval.total_energy(),
        flops_per_watt: eval.flops_per_watt(),
        edp: eval.energy_delay_product(),
        time_ci_frac: time_ci_frac(eval),
        savings,
    }
}

/// Relative CI of the mean iteration time, averaged over jobs.
fn time_ci_frac(eval: &MixEvaluation) -> f64 {
    let per_job: Vec<f64> = eval
        .jobs
        .iter()
        .map(|j| {
            let times: Vec<f64> = j.iteration_times.iter().map(|t| t.value()).collect();
            let m = mean(&times);
            if m <= 0.0 {
                0.0
            } else {
                ci95_half_width(&times) / m
            }
        })
        .collect();
    mean(&per_job)
}

/// A stable seed per grid cell so reruns are bit-identical.
fn cell_seed(mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> u64 {
    let m = MixKind::all().iter().position(|&k| k == mix).unwrap_or(0) as u64;
    let l = BudgetLevel::all()
        .iter()
        .position(|&k| k == level)
        .unwrap_or(0) as u64;
    let p = PolicyKind::all()
        .iter()
        .position(|&k| k == policy)
        .unwrap_or(0) as u64;
    0x9E37_79B9 ^ (m << 16) ^ (l << 8) ^ p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> (Testbed, EvaluationGrid) {
        let tb = Testbed::new(400, 7);
        let grid = EvaluationGrid::run(&tb, GridParams::fast());
        (tb, grid)
    }

    #[test]
    fn grid_covers_full_cross_product() {
        let (_, grid) = small_grid();
        assert_eq!(grid.cells.len(), 6 * 3 * 5);
        for mix in MixKind::all() {
            for level in BudgetLevel::all() {
                for policy in PolicyKind::all() {
                    let c = grid.cell(mix, level, policy);
                    assert!(c.total_power > Watts::ZERO);
                    assert!(c.mean_elapsed.value() > 0.0);
                }
            }
        }
    }

    #[test]
    fn budget_respecting_policies_stay_at_or_under_100pct() {
        let (_, grid) = small_grid();
        for c in &grid.cells {
            if c.policy != PolicyKind::Precharacterized {
                assert!(
                    c.pct_of_budget <= 100.5,
                    "{} {} {}: {:.1}%",
                    c.mix,
                    c.level,
                    c.policy,
                    c.pct_of_budget
                );
            }
        }
    }

    #[test]
    fn precharacterized_exceeds_tight_budgets() {
        // Fig. 7: Precharacterized is over budget everywhere except max.
        let (_, grid) = small_grid();
        let mut over = 0;
        for mix in MixKind::all() {
            let c = grid.cell(mix, BudgetLevel::Min, PolicyKind::Precharacterized);
            if c.pct_of_budget > 100.0 {
                over += 1;
            }
            let c_max = grid.cell(mix, BudgetLevel::Max, PolicyKind::Precharacterized);
            assert!(
                c_max.pct_of_budget <= 100.5,
                "{mix} max: {:.1}%",
                c_max.pct_of_budget
            );
        }
        assert!(over >= 5, "only {over} mixes over budget at min");
    }

    #[test]
    fn mixed_adaptive_never_loses_time_to_static() {
        let (_, grid) = small_grid();
        for c in &grid.cells {
            if c.policy == PolicyKind::MixedAdaptive {
                let s = c.savings.expect("dynamic policies carry savings");
                assert!(
                    s.time_pct > -1.5,
                    "{} {}: MixedAdaptive {:.2}% slower than StaticCaps",
                    c.mix,
                    c.level,
                    s.time_pct
                );
            }
        }
    }

    #[test]
    fn cells_are_deterministic() {
        let tb = Testbed::new(400, 7);
        let a = run_mix(&tb, MixKind::LowPower, GridParams::fast());
        let b = run_mix(&tb, MixKind::LowPower, GridParams::fast());
        assert_eq!(a, b);
    }
}
