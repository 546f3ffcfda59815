//! The paper's headline claims, as one list evaluated over any grid of
//! (mix, budget level, policy) cells: `paper_claims.rs` asserts every one
//! on the analytic grid, and `stack_grid.rs` evaluates the same list on the
//! stack, so a threshold lives in one place.

use powerstack::analysis::savings_pct;
use powerstack::core::PolicyKind;
use powerstack::experiments::grid::EvaluationGrid;
use powerstack::experiments::{BudgetLevel, MixKind};

/// What a claim reads of one cell.
pub trait Cells {
    /// Power drawn as a percentage of the cell's budget (Fig. 7).
    fn pct_of_budget(&self, mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> f64;
    /// Mean job elapsed time and total mix energy.
    fn elapsed_energy(&self, mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> (f64, f64);

    /// Time and energy savings against the same cell's `StaticCaps`, % (the
    /// Fig. 8 rows `SavingsRow::from_absolute` computes).
    fn savings(&self, mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> (f64, f64) {
        let (base_t, base_e) = self.elapsed_energy(mix, level, PolicyKind::StaticCaps);
        let (t, e) = self.elapsed_energy(mix, level, policy);
        (savings_pct(base_t, t), savings_pct(base_e, e))
    }
}

impl Cells for EvaluationGrid {
    fn pct_of_budget(&self, mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> f64 {
        self.cell(mix, level, policy).pct_of_budget
    }

    fn elapsed_energy(&self, mix: MixKind, level: BudgetLevel, policy: PolicyKind) -> (f64, f64) {
        let c = self.cell(mix, level, policy);
        (c.mean_elapsed.value(), c.energy.value())
    }
}

/// One claim evaluated: its name, whether it holds, and the numbers it
/// turned on.
#[derive(Debug)]
pub struct Claim {
    pub name: &'static str,
    pub holds: bool,
    pub numbers: String,
}

/// Every marker and takeaway of the evaluation section, evaluated on `g`.
pub fn claims(g: &impl Cells) -> Vec<Claim> {
    use BudgetLevel::{Ideal, Max, Min};
    use MixKind::*;
    use PolicyKind::*;
    let mut out = Vec::new();
    let mut claim = |name, holds, numbers| {
        out.push(Claim {
            name,
            holds,
            numbers,
        })
    };
    let every = || {
        (MixKind::all().into_iter()).flat_map(|mix| {
            (BudgetLevel::all().into_iter())
                .flat_map(move |l| PolicyKind::all().into_iter().map(move |p| (mix, l, p)))
        })
    };
    let pcts = |level, policy| -> Vec<f64> {
        (MixKind::all().iter())
            .map(|&mix| g.pct_of_budget(mix, level, policy))
            .collect()
    };

    // ───────────────────────────────────────────────────────── Fig. 7 ──
    // Precharacterized exceeds the budget at min for (almost) every mix and
    // fits at max; budget-respecting policies never exceed 100%.
    let over = pcts(Min, Precharacterized);
    claim(
        "fig7: Precharacterized over the min budget in >= 5 of 6 mixes",
        over.iter().filter(|&&p| p > 100.0).count() >= 5,
        format!("{over:.1?}"),
    );
    let at_max = pcts(Max, Precharacterized);
    claim(
        "fig7: Precharacterized fits the max budget",
        at_max.iter().all(|&p| p <= 101.0),
        format!("{at_max:.1?}"),
    );
    let worst = (every())
        .filter(|&(_, _, p)| p != Precharacterized)
        .map(|(mix, l, p)| g.pct_of_budget(mix, l, p))
        .fold(f64::NEG_INFINITY, f64::max);
    claim(
        "fig7: every other policy within its budget",
        worst <= 100.5,
        format!("max {worst:.2}%"),
    );

    // Marker (b): at the ideal budget, MixedAdaptive utilizes more of the
    // budget than the siloed JobAdaptive (which strands power in low-power
    // jobs' silos) for mixes with cross-job imbalance in needs.
    let (mixed, job) = (
        g.pct_of_budget(WastefulPower, Ideal, MixedAdaptive),
        g.pct_of_budget(WastefulPower, Ideal, JobAdaptive),
    );
    claim(
        "marker (b): MixedAdaptive out-utilizes JobAdaptive (WastefulPower, ideal)",
        mixed > job + 1.0,
        format!("{mixed:.1}% vs {job:.1}%"),
    );

    // Marker (a): at the max budget, application-aware policies draw *less*
    // power than the static baseline (the runtime trims to needed power).
    let slack = [WastefulPower, HighImbalance, LowPower];
    let a: Vec<(f64, f64)> = (slack.iter())
        .map(|&mix| {
            (
                g.pct_of_budget(mix, Max, MixedAdaptive),
                g.pct_of_budget(mix, Max, StaticCaps),
            )
        })
        .collect();
    claim(
        "marker (a): MixedAdaptive draws less than StaticCaps at max",
        a.iter().all(|(m, s)| m < &(s - 1.0)),
        format!("{a:.1?}"),
    );

    // ───────────────────────────────────────────────────────── Fig. 8 ──
    // Takeaway 1+2: energy savings grow with the budget for the
    // application-aware policies on slack-heavy mixes.
    let grow: Vec<(f64, f64)> = (slack.iter())
        .map(|&mix| {
            (
                g.savings(mix, Min, MixedAdaptive).1,
                g.savings(mix, Max, MixedAdaptive).1,
            )
        })
        .collect();
    claim(
        "takeaways 1+2: MixedAdaptive energy savings grow with the budget",
        grow.iter().all(|(lo, hi)| *hi > lo + 2.0 && *hi > 5.0),
        format!("{grow:.1?}"),
    );

    // Marker (d): large energy savings at the max budget for WastefulPower.
    let d = g.savings(WastefulPower, Max, MixedAdaptive).1;
    claim(
        "marker (d): WastefulPower energy savings at max > 5%",
        d > 5.0,
        format!("{d:.1}%"),
    );

    // Marker (c): MinimizeWaste outperforms JobAdaptive in time savings on
    // NeedUsedPower at the ideal budget (the mix where observed power data
    // is as good as performance-aware data, and cross-job sharing wins).
    let (mw, ja) = (
        g.savings(NeedUsedPower, Ideal, MinimizeWaste).0,
        g.savings(NeedUsedPower, Ideal, JobAdaptive).0,
    );
    claim(
        "marker (c): MinimizeWaste beats JobAdaptive on time (NeedUsedPower, ideal)",
        mw > ja + 0.5,
        format!("{mw:.2}% vs {ja:.2}%"),
    );

    // Takeaway 4: NeedUsedPower offers no energy-saving opportunity — every
    // watt consumed is needed.
    let most = (PolicyKind::dynamic().into_iter())
        .flat_map(|p| BudgetLevel::all().map(|l| g.savings(NeedUsedPower, l, p).1))
        .fold(f64::NEG_INFINITY, f64::max);
    claim(
        "takeaway 4: NeedUsedPower has no energy to save",
        most < 3.0,
        format!("max {most:.2}%"),
    );

    // JobAdaptive ≈ MixedAdaptive at the min and max levels (§VI-B).
    let widest = (MixKind::all().into_iter())
        .flat_map(|mix| {
            [Min, Max].map(|l| {
                (g.savings(mix, l, JobAdaptive).0 - g.savings(mix, l, MixedAdaptive).0).abs()
            })
        })
        .fold(0.0, f64::max);
    claim(
        "JobAdaptive ~ MixedAdaptive on time at min and max",
        widest < 2.0,
        format!("max gap {widest:.2} points"),
    );

    // The proposed policy never meaningfully loses to the baseline on time,
    // and somewhere in the grid it achieves substantial time and energy
    // savings (the paper reports up to 7% and 11% respectively).
    let mixed: Vec<(f64, f64)> = (every())
        .filter(|&(_, _, p)| p == MixedAdaptive)
        .map(|(mix, l, p)| g.savings(mix, l, p))
        .collect();
    let least = mixed.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    claim(
        "MixedAdaptive never loses more than 1.5% time",
        least > -1.5,
        format!("worst {least:.2}%"),
    );
    let best_time = mixed.iter().map(|s| s.0).fold(f64::NEG_INFINITY, f64::max);
    let best_energy = mixed.iter().map(|s| s.1).fold(f64::NEG_INFINITY, f64::max);
    claim(
        "headline: best MixedAdaptive time > 3% and energy > 7%",
        best_time > 3.0 && best_energy > 7.0,
        format!("{best_time:.2}% / {best_energy:.2}%"),
    );
    out
}
