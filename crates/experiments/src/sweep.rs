//! Continuous budget sweeps.
//!
//! The paper evaluates three budget points per mix (min/ideal/max); this
//! module sweeps the whole axis between the cluster's hardware floor and
//! TDP, tracking each policy's savings as a continuous curve. The sweep
//! answers the reproduction-quality question the three-point grid cannot:
//! *where the crossovers fall* — the budget at which application awareness
//! starts and stops paying, and where `MixedAdaptive` separates from
//! `JobAdaptive`.

use crate::mixes::{self, MixKind};
use crate::testbed::Testbed;
use pmstack_core::{allocate_with_runtime, evaluate_mix, policies, JobChar, PolicyCtx, PolicyKind};
use pmstack_simhw::Watts;
use serde::{Deserialize, Serialize};

/// One point of a sweep: a budget and each policy's metrics at it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// System budget at this point.
    pub budget: Watts,
    /// Budget as a fraction of the span from the hardware floor to TDP.
    pub budget_frac: f64,
    /// Per-policy `(time savings %, energy savings %)` vs `StaticCaps`,
    /// in [`PolicyKind::dynamic`] order.
    pub savings: Vec<(f64, f64)>,
}

/// A full sweep over one mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetSweep {
    /// The mix swept.
    pub mix: MixKind,
    /// Points, ascending budget.
    pub points: Vec<SweepPoint>,
}

impl BudgetSweep {
    /// Run a sweep with `steps` budget points over `mix`.
    pub fn run(testbed: &Testbed, mix_kind: MixKind, nodes_per_job: usize, steps: usize) -> Self {
        assert!(steps >= 2, "a sweep needs at least two points");
        let mix = mixes::build_scaled(mix_kind, nodes_per_job);
        let setups = testbed.place(&mix);
        let chars: Vec<JobChar> = setups
            .iter()
            .map(|s| JobChar::analytic(s.config, testbed.model(), &s.host_eps))
            .collect();
        let spec = testbed.model().spec();
        let n = mix.total_nodes() as f64;
        let floor = spec.min_rapl_per_node() * n;
        let ceiling = spec.tdp_per_node() * n;

        let points = (0..steps)
            .map(|i| {
                let frac = i as f64 / (steps - 1) as f64;
                let budget = floor + (ceiling - floor) * frac;
                let ctx = PolicyCtx {
                    system_budget: budget,
                    min_node: spec.min_rapl_per_node(),
                    tdp_node: spec.tdp_per_node(),
                };
                let eval = |kind: PolicyKind| {
                    let alloc =
                        allocate_with_runtime(policies::by_kind(kind).as_ref(), &ctx, &chars);
                    evaluate_mix(testbed.model(), &setups, &alloc, 1, 0.0, 0)
                };
                let base = eval(PolicyKind::StaticCaps);
                let savings = PolicyKind::dynamic()
                    .iter()
                    .map(|&kind| {
                        let e = eval(kind);
                        (
                            100.0 * (1.0 - e.mean_elapsed() / base.mean_elapsed()),
                            100.0 * (1.0 - e.total_energy() / base.total_energy()),
                        )
                    })
                    .collect();
                SweepPoint {
                    budget,
                    budget_frac: frac,
                    savings,
                }
            })
            .collect();
        Self {
            mix: mix_kind,
            points,
        }
    }

    /// The lowest budget at which policy `a`'s energy savings exceed
    /// policy `b`'s by more than `margin` percentage points — a crossover
    /// locator. Indices are into [`PolicyKind::dynamic`].
    pub fn energy_crossover(&self, a: usize, b: usize, margin: f64) -> Option<Watts> {
        self.points
            .iter()
            .find(|p| p.savings[a].1 > p.savings[b].1 + margin)
            .map(|p| p.budget)
    }

    /// The budget with the largest time savings for a dynamic policy.
    pub fn peak_time_savings(&self, policy: usize) -> (Watts, f64) {
        self.points
            .iter()
            .map(|p| (p.budget, p.savings[policy].0))
            .fold((Watts::ZERO, f64::NEG_INFINITY), |acc, x| {
                if x.1 > acc.1 {
                    x
                } else {
                    acc
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(kind: MixKind) -> BudgetSweep {
        let tb = Testbed::new(300, 7);
        BudgetSweep::run(&tb, kind, 6, 12)
    }

    #[test]
    fn sweep_covers_the_budget_axis_monotonically() {
        let s = sweep(MixKind::WastefulPower);
        assert_eq!(s.points.len(), 12);
        for w in s.points.windows(2) {
            assert!(w[1].budget > w[0].budget);
        }
        assert!((s.points[0].budget_frac - 0.0).abs() < 1e-12);
        assert!((s.points[11].budget_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_savings_grow_along_the_axis_for_wasteful_mixes() {
        let s = sweep(MixKind::WastefulPower);
        let mixed = PolicyKind::dynamic()
            .iter()
            .position(|&p| p == PolicyKind::MixedAdaptive)
            .unwrap();
        let first = s.points.first().unwrap().savings[mixed].1;
        let last = s.points.last().unwrap().savings[mixed].1;
        assert!(
            last > first + 2.0,
            "energy savings should grow along the sweep: {first:.1}% → {last:.1}%"
        );
    }

    #[test]
    fn time_savings_peak_below_the_top_of_the_axis() {
        // Takeaway 1's dual: time-saving opportunity shrinks as budgets
        // relax, so the peak sits in the scarce half of the sweep.
        let s = sweep(MixKind::HighPower);
        let mixed = PolicyKind::dynamic()
            .iter()
            .position(|&p| p == PolicyKind::MixedAdaptive)
            .unwrap();
        let (peak_budget, peak) = s.peak_time_savings(mixed);
        let ceiling = s.points.last().unwrap().budget;
        assert!(peak > 0.5, "some time savings exist: {peak:.2}%");
        assert!(
            peak_budget < ceiling * 0.95,
            "peak at {peak_budget} should sit below the ceiling {ceiling}"
        );
    }

    #[test]
    fn crossover_locator_finds_app_awareness_threshold() {
        // MixedAdaptive (index of dynamic()) vs MinimizeWaste: application
        // awareness starts paying in energy once budgets exceed needs.
        let s = sweep(MixKind::WastefulPower);
        let dynamic = PolicyKind::dynamic();
        let mixed = dynamic
            .iter()
            .position(|&p| p == PolicyKind::MixedAdaptive)
            .unwrap();
        let minwaste = dynamic
            .iter()
            .position(|&p| p == PolicyKind::MinimizeWaste)
            .unwrap();
        let crossover = s.energy_crossover(mixed, minwaste, 1.0);
        assert!(
            crossover.is_some(),
            "application awareness must separate from resource awareness somewhere on the axis"
        );
    }
}
