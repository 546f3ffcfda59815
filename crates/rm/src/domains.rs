//! Per-domain power accounting on top of the [`PowerLedger`].
//!
//! The cross-layer position papers argue power must be budgeted across
//! component domains (cores, DRAM, package rest), not just the node. The
//! [`DomainLedger`] keeps the node-level ledger authoritative — a job's
//! node grant is still one [`PowerLedger`] reservation admission-controlled
//! against the fleet budget — and layers a per-job split across the three
//! RAPL domains on it, maintaining the containment invariant
//!
//! > Σ domain grants = node grant ≤ fleet budget
//!
//! at every step. Shifting watts between a job's domains (the runtime's
//! domain balancer) never changes the node grant, so it can never
//! oversubscribe the fleet.

use crate::budget::{OverCommit, PowerLedger};
use crate::job::JobId;
use pmstack_obs::StaticCounter;
use pmstack_simhw::{RaplDomain, Watts};
use std::collections::HashMap;

/// Observability: milliwatts moved between domains within a job's node grant.
static MILLIWATTS_DOMAIN_SHIFTED: StaticCounter =
    StaticCounter::new("rm.milliwatts.domain_shifted");

/// A per-domain grant, indexed by [`RaplDomain::index`]
/// (`[pkg-rest, pp0, dram]`). The domains are accounted as disjoint meters
/// summing to the node grant.
pub type DomainGrant = [Watts; 3];

/// Node-level power ledger with a per-job split across RAPL domains.
#[derive(Debug, Clone)]
pub struct DomainLedger {
    ledger: PowerLedger,
    splits: HashMap<JobId, DomainGrant>,
}

impl DomainLedger {
    /// A domain ledger over the given fleet budget.
    pub fn new(system_budget: Watts) -> Self {
        Self {
            ledger: PowerLedger::new(system_budget),
            splits: HashMap::new(),
        }
    }

    /// The fleet budget.
    pub fn system_budget(&self) -> Watts {
        self.ledger.system_budget()
    }

    /// Move the fleet budget; returns the oversubscription the caller must
    /// resolve by eviction (see [`PowerLedger::set_system_budget`]).
    pub fn set_system_budget(&mut self, budget: Watts) -> Watts {
        self.ledger.set_system_budget(budget)
    }

    /// Watts currently granted across all jobs (node-level).
    pub fn reserved(&self) -> Watts {
        self.ledger.reserved()
    }

    /// Watts still unreserved at the fleet level.
    pub fn available(&self) -> Watts {
        self.ledger.available()
    }

    /// Fraction of the fleet budget currently granted.
    pub fn utilization(&self) -> f64 {
        self.ledger.utilization()
    }

    /// A job's node-level grant.
    pub fn node_grant(&self, job: JobId) -> Option<Watts> {
        self.ledger.reservation(job)
    }

    /// A job's per-domain split.
    pub fn grant(&self, job: JobId) -> Option<DomainGrant> {
        self.splits.get(&job).copied()
    }

    /// Jobs currently holding a grant.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.splits.keys().copied()
    }

    /// Domain-aware degraded admission: reserve *up to* `Σ want` watts at
    /// the node level (failing — ledger untouched — when even `floor` does
    /// not fit), then split the grant across the domains proportionally to
    /// the request. The pkg-rest domain absorbs the rounding remainder so
    /// the split sums to the node grant exactly. Returns the per-domain
    /// grant.
    pub fn reserve_domains(
        &mut self,
        job: JobId,
        want: DomainGrant,
        floor: Watts,
    ) -> Result<DomainGrant, OverCommit> {
        let total = Watts(want.iter().map(|w| w.value()).sum());
        let granted = self.ledger.reserve_upto(job, total, floor)?;
        let split = if total.value() > 0.0 {
            let scale = granted.value() / total.value();
            let pp0 = Watts(want[RaplDomain::Pp0.index()].value() * scale);
            let dram = Watts(want[RaplDomain::Dram.index()].value() * scale);
            [granted - pp0 - dram, pp0, dram]
        } else {
            [Watts::ZERO; 3]
        };
        self.splits.insert(job, split);
        Ok(split)
    }

    /// Release a job's grant across all domains (idempotent).
    pub fn release(&mut self, job: JobId) {
        self.ledger.release(job);
        self.splits.remove(&job);
    }

    /// Reclaim up to `watts` from one domain of a job's grant — the
    /// accounting step when a plane degrades (a stuck domain, a dead
    /// device) and its share returns to the fleet. The node grant shrinks
    /// by the same amount, so containment holds. Returns the watts
    /// actually reclaimed.
    pub fn reclaim_domain(&mut self, job: JobId, d: RaplDomain, watts: Watts) -> Watts {
        let Some(split) = self.splits.get_mut(&job) else {
            return Watts::ZERO;
        };
        let held = split[d.index()];
        let take = Watts(watts.value().clamp(0.0, held.value()));
        let reclaimed = self.ledger.reclaim(job, take);
        split[d.index()] -= reclaimed;
        if self.ledger.reservation(job).is_none() {
            self.splits.remove(&job);
        }
        reclaimed
    }

    /// Shift up to `watts` from one domain of a job's grant to another —
    /// the domain balancer's primitive. The node grant is untouched, so a
    /// shift can never oversubscribe the fleet. Returns the watts actually
    /// moved (capped at what `from` holds; zero for an unknown job or a
    /// self-shift).
    pub fn shift(&mut self, job: JobId, from: RaplDomain, to: RaplDomain, watts: Watts) -> Watts {
        if from == to {
            return Watts::ZERO;
        }
        let Some(split) = self.splits.get_mut(&job) else {
            return Watts::ZERO;
        };
        let moved = Watts(watts.value().clamp(0.0, split[from.index()].value()));
        split[from.index()] -= moved;
        split[to.index()] += moved;
        MILLIWATTS_DOMAIN_SHIFTED.add(crate::budget::milliwatts(moved));
        moved
    }

    /// Check the containment invariant for every job:
    /// Σ domain grants = node grant, every domain grant non-negative, and
    /// Σ node grants ≤ fleet budget. Returns a description of the first
    /// violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        const EPS: f64 = 1e-6;
        for (&job, split) in &self.splits {
            let node = self
                .ledger
                .reservation(job)
                .ok_or_else(|| format!("{job:?}: split without a node grant"))?;
            let sum: f64 = split.iter().map(|w| w.value()).sum();
            if (sum - node.value()).abs() > EPS {
                return Err(format!(
                    "{job:?}: domain grants sum to {sum} but node grant is {node}"
                ));
            }
            for d in RaplDomain::ALL {
                if split[d.index()].value() < -EPS {
                    return Err(format!(
                        "{job:?}: negative grant in domain {d}: {}",
                        split[d.index()]
                    ));
                }
            }
        }
        let reserved = self.reserved();
        let budget = self.system_budget();
        if reserved.value() > budget.value() + EPS {
            return Err(format!(
                "fleet oversubscribed: {reserved} reserved against {budget}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn want(pkg_rest: f64, pp0: f64, dram: f64) -> DomainGrant {
        [Watts(pkg_rest), Watts(pp0), Watts(dram)]
    }

    #[test]
    fn full_grant_preserves_the_requested_split() {
        let mut ledger = DomainLedger::new(Watts(1000.0));
        let g = ledger
            .reserve_domains(JobId(1), want(100.0, 250.0, 50.0), Watts(200.0))
            .unwrap();
        assert_eq!(g, want(100.0, 250.0, 50.0));
        assert_eq!(ledger.node_grant(JobId(1)), Some(Watts(400.0)));
        ledger.check_invariants().unwrap();
    }

    #[test]
    fn partial_grant_scales_domains_proportionally() {
        let mut ledger = DomainLedger::new(Watts(1000.0));
        ledger
            .reserve_domains(JobId(1), want(400.0, 200.0, 100.0), Watts(100.0))
            .unwrap();
        // 300 W left; job 2 wants 600 W with a 150 W floor → granted 300,
        // half the request, so every domain halves.
        let g = ledger
            .reserve_domains(JobId(2), want(300.0, 200.0, 100.0), Watts(150.0))
            .unwrap();
        assert!((g[1].value() - 100.0).abs() < 1e-9);
        assert!((g[2].value() - 50.0).abs() < 1e-9);
        let sum: f64 = g.iter().map(|w| w.value()).sum();
        assert!((sum - 300.0).abs() < 1e-9, "split sums to the grant");
        ledger.check_invariants().unwrap();
    }

    #[test]
    fn below_floor_leaves_the_ledger_untouched() {
        let mut ledger = DomainLedger::new(Watts(500.0));
        ledger
            .reserve_domains(JobId(1), want(200.0, 200.0, 50.0), Watts(450.0))
            .unwrap();
        let err = ledger
            .reserve_domains(JobId(2), want(100.0, 100.0, 0.0), Watts(100.0))
            .unwrap_err();
        assert_eq!(err.requested, Watts(100.0));
        assert!(ledger.grant(JobId(2)).is_none());
        ledger.check_invariants().unwrap();
    }

    #[test]
    fn shift_moves_watts_without_touching_the_node_grant() {
        let mut ledger = DomainLedger::new(Watts(1000.0));
        ledger
            .reserve_domains(JobId(1), want(100.0, 250.0, 50.0), Watts(100.0))
            .unwrap();
        let moved = ledger.shift(JobId(1), RaplDomain::Pp0, RaplDomain::Dram, Watts(60.0));
        assert_eq!(moved, Watts(60.0));
        let g = ledger.grant(JobId(1)).unwrap();
        assert_eq!(g[RaplDomain::Pp0.index()], Watts(190.0));
        assert_eq!(g[RaplDomain::Dram.index()], Watts(110.0));
        assert_eq!(ledger.node_grant(JobId(1)), Some(Watts(400.0)));
        // Over-shift caps at what the source domain holds.
        let moved = ledger.shift(JobId(1), RaplDomain::Dram, RaplDomain::Pkg, Watts(500.0));
        assert_eq!(moved, Watts(110.0));
        // Self-shift and unknown jobs are no-ops.
        assert_eq!(
            ledger.shift(JobId(1), RaplDomain::Pkg, RaplDomain::Pkg, Watts(10.0)),
            Watts::ZERO
        );
        assert_eq!(
            ledger.shift(JobId(9), RaplDomain::Pkg, RaplDomain::Pp0, Watts(10.0)),
            Watts::ZERO
        );
        ledger.check_invariants().unwrap();
    }

    #[test]
    fn reclaim_domain_shrinks_node_grant_in_lockstep() {
        let mut ledger = DomainLedger::new(Watts(1000.0));
        ledger
            .reserve_domains(JobId(1), want(100.0, 250.0, 50.0), Watts(100.0))
            .unwrap();
        let got = ledger.reclaim_domain(JobId(1), RaplDomain::Pp0, Watts(100.0));
        assert_eq!(got, Watts(100.0));
        assert_eq!(ledger.node_grant(JobId(1)), Some(Watts(300.0)));
        assert_eq!(
            ledger.grant(JobId(1)).unwrap()[RaplDomain::Pp0.index()],
            Watts(150.0)
        );
        // Over-reclaim caps at the domain's share.
        let got = ledger.reclaim_domain(JobId(1), RaplDomain::Dram, Watts(999.0));
        assert_eq!(got, Watts(50.0));
        ledger.check_invariants().unwrap();
        // Reclaiming everything clears the job.
        ledger.reclaim_domain(JobId(1), RaplDomain::Pkg, Watts(999.0));
        ledger.reclaim_domain(JobId(1), RaplDomain::Pp0, Watts(999.0));
        assert!(ledger.grant(JobId(1)).is_none());
        assert_eq!(ledger.available(), Watts(1000.0));
    }

    #[test]
    fn release_frees_every_domain() {
        let mut ledger = DomainLedger::new(Watts(500.0));
        ledger
            .reserve_domains(JobId(1), want(100.0, 100.0, 50.0), Watts(50.0))
            .unwrap();
        ledger.release(JobId(1));
        ledger.release(JobId(1));
        assert_eq!(ledger.available(), Watts(500.0));
        assert!(ledger.grant(JobId(1)).is_none());
        ledger.check_invariants().unwrap();
    }
}
