//! The system-wide power ledger.
//!
//! The resource manager owns the site's deliverable power capacity
//! (§I: "power delivery infrastructure must ensure that a site's total power
//! consumption does not exceed the deliverable power capacity") and accounts
//! every watt it grants to jobs against it.

use crate::job::JobId;
use pmstack_obs::StaticCounter;
use pmstack_simhw::Watts;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

/// Per-job reservations. The hasher has fixed keys, so two ledgers built by
/// the same operations iterate in the same order and their float sums
/// ([`PowerLedger::reserved`]) agree to the bit; `RandomState` would give
/// every map its own order and every sum its own rounding. Job ids are
/// assigned by this program, never read from a client, so fixed keys open
/// no collision attack.
type Reservations = HashMap<JobId, Watts, BuildHasherDefault<DefaultHasher>>;

/// Observability: total milliwatts granted through successful reservations
/// (gross — re-reservations count their full new amount).
static MILLIWATTS_RESERVED: StaticCounter = StaticCounter::new("rm.milliwatts.reserved");
/// Observability: total milliwatts reclaimed from degraded jobs.
static MILLIWATTS_RECLAIMED: StaticCounter = StaticCounter::new("rm.milliwatts.reclaimed");

/// `w` in whole milliwatts for the `rm.milliwatts.*` counters: rounded once
/// per add, so concurrent adds commute. A negative amount counts zero (the
/// float-to-integer cast saturates).
pub(crate) fn milliwatts(w: Watts) -> u64 {
    (w.value() * 1e3).round() as u64
}

/// Error returned when a reservation would overcommit the system budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverCommit {
    /// Watts requested.
    pub requested: Watts,
    /// Watts still unreserved.
    pub available: Watts,
}

impl fmt::Display for OverCommit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "power reservation of {} exceeds available {}",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OverCommit {}

/// Tracks the system power budget and per-job reservations.
#[derive(Debug, Clone)]
pub struct PowerLedger {
    system_budget: Watts,
    reservations: Reservations,
}

impl PowerLedger {
    /// A ledger over the given system budget.
    pub fn new(system_budget: Watts) -> Self {
        Self {
            system_budget,
            reservations: Reservations::default(),
        }
    }

    /// The total system budget.
    pub fn system_budget(&self) -> Watts {
        self.system_budget
    }

    /// Move the system budget (a diurnal tariff change or a grid-price
    /// shock). Existing reservations are *not* clamped — admission control
    /// is the ledger's job, eviction is the caller's — so the return value
    /// is the oversubscription the caller must now resolve: watts by which
    /// current reservations exceed the new budget (zero when they fit).
    pub fn set_system_budget(&mut self, budget: Watts) -> Watts {
        assert!(budget.value() >= 0.0, "budgets are non-negative");
        self.system_budget = budget;
        Watts((self.reserved().value() - budget.value()).max(0.0))
    }

    /// Watts currently reserved across all jobs.
    pub fn reserved(&self) -> Watts {
        self.reservations.values().copied().sum()
    }

    /// Watts still unreserved.
    pub fn available(&self) -> Watts {
        self.system_budget - self.reserved()
    }

    /// A job's current reservation.
    pub fn reservation(&self, job: JobId) -> Option<Watts> {
        self.reservations.get(&job).copied()
    }

    /// Reserve `watts` for `job` (replacing any prior reservation). Fails
    /// if the new total would exceed the system budget; admission control,
    /// not clamping, because an unnoticed clamp is exactly the cross-layer
    /// conflict the paper warns about.
    pub fn reserve(&mut self, job: JobId, watts: Watts) -> Result<(), OverCommit> {
        let prior = self.reservation(job).unwrap_or(Watts::ZERO);
        let available = self.available() + prior;
        if watts > available + Watts(1e-9) {
            return Err(OverCommit {
                requested: watts,
                available,
            });
        }
        self.reservations.insert(job, watts);
        MILLIWATTS_RESERVED.add(milliwatts(watts));
        Ok(())
    }

    /// Fraction of the system budget currently reserved (0 when the budget
    /// is zero). The admission plane's saturation signal: the daemon
    /// exports it as a gauge and sheds load as it approaches 1.
    pub fn utilization(&self) -> f64 {
        let budget = self.system_budget.value();
        if budget <= 0.0 {
            return if self.reservations.is_empty() {
                0.0
            } else {
                1.0
            };
        }
        self.reserved().value() / budget
    }

    /// The degraded-admission path: reserve *up to* `want` watts for `job`,
    /// settling for whatever is available as long as it is at least
    /// `floor`. Returns the watts actually reserved. Fails — leaving the
    /// ledger untouched — when even `floor` does not fit; the caller turns
    /// that into backpressure (the daemon's 503) rather than queueing an
    /// unsatisfiable request.
    ///
    /// Unlike [`Self::reserve`], a partial grant is not an unnoticed clamp:
    /// the returned watts *are* the granted amount, and the caller scales
    /// its per-host caps to match before programming anything.
    pub fn reserve_upto(
        &mut self,
        job: JobId,
        want: Watts,
        floor: Watts,
    ) -> Result<Watts, OverCommit> {
        debug_assert!(floor <= want + Watts(1e-9), "floor must not exceed want");
        let prior = self.reservation(job).unwrap_or(Watts::ZERO);
        let available = self.available() + prior;
        if floor > available + Watts(1e-9) {
            return Err(OverCommit {
                requested: floor,
                available,
            });
        }
        let grant = Watts(want.value().min(available.value()).max(0.0));
        self.reservations.insert(job, grant);
        MILLIWATTS_RESERVED.add(milliwatts(grant));
        Ok(grant)
    }

    /// Release a job's reservation (idempotent).
    pub fn release(&mut self, job: JobId) {
        self.reservations.remove(&job);
    }

    /// Reclaim up to `watts` from a job's reservation — the accounting step
    /// when a node dies under the job and its share of power returns to the
    /// system. Returns the watts actually reclaimed (zero for an unknown
    /// job; never more than the job held, so the ledger cannot go negative).
    pub fn reclaim(&mut self, job: JobId, watts: Watts) -> Watts {
        let Some(held) = self.reservations.get_mut(&job) else {
            return Watts::ZERO;
        };
        let reclaimed = Watts(watts.value().clamp(0.0, held.value()));
        MILLIWATTS_RECLAIMED.add(milliwatts(reclaimed));
        *held -= reclaimed;
        if held.value() <= 0.0 {
            self.reservations.remove(&job);
        }
        reclaimed
    }

    /// True if observed total power `usage` fits the system budget with the
    /// given relative tolerance.
    pub fn within_budget(&self, usage: Watts, tolerance: f64) -> bool {
        usage.value() <= self.system_budget.value() * (1.0 + tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let mut ledger = PowerLedger::new(Watts(1000.0));
        ledger.reserve(JobId(1), Watts(400.0)).unwrap();
        ledger.reserve(JobId(2), Watts(500.0)).unwrap();
        assert_eq!(ledger.reserved(), Watts(900.0));
        assert_eq!(ledger.available(), Watts(100.0));
        ledger.release(JobId(1));
        assert_eq!(ledger.available(), Watts(500.0));
    }

    #[test]
    fn overcommit_is_rejected() {
        let mut ledger = PowerLedger::new(Watts(1000.0));
        ledger.reserve(JobId(1), Watts(800.0)).unwrap();
        let err = ledger.reserve(JobId(2), Watts(300.0)).unwrap_err();
        assert_eq!(err.requested, Watts(300.0));
        assert_eq!(err.available, Watts(200.0));
        // Failed reservation leaves the ledger unchanged.
        assert_eq!(ledger.reserved(), Watts(800.0));
    }

    #[test]
    fn re_reservation_replaces_not_accumulates() {
        let mut ledger = PowerLedger::new(Watts(1000.0));
        ledger.reserve(JobId(1), Watts(700.0)).unwrap();
        // Shrinking and regrowing the same job's share must be possible.
        ledger.reserve(JobId(1), Watts(900.0)).unwrap();
        assert_eq!(ledger.reserved(), Watts(900.0));
    }

    #[test]
    fn within_budget_tolerance() {
        let ledger = PowerLedger::new(Watts(1000.0));
        assert!(ledger.within_budget(Watts(1000.0), 0.0));
        assert!(ledger.within_budget(Watts(1009.0), 0.01));
        assert!(!ledger.within_budget(Watts(1020.0), 0.01));
    }

    #[test]
    fn reclaim_returns_capped_watts() {
        let mut ledger = PowerLedger::new(Watts(1000.0));
        ledger.reserve(JobId(1), Watts(600.0)).unwrap();
        // Partial reclaim frees exactly the claimed share.
        assert_eq!(ledger.reclaim(JobId(1), Watts(150.0)), Watts(150.0));
        assert_eq!(ledger.reservation(JobId(1)), Some(Watts(450.0)));
        assert_eq!(ledger.available(), Watts(550.0));
        // Over-reclaim caps at what the job held and clears the entry.
        assert_eq!(ledger.reclaim(JobId(1), Watts(9999.0)), Watts(450.0));
        assert_eq!(ledger.reservation(JobId(1)), None);
        assert_eq!(ledger.available(), Watts(1000.0));
        // Unknown job reclaims nothing.
        assert_eq!(ledger.reclaim(JobId(42), Watts(10.0)), Watts::ZERO);
    }

    #[test]
    fn budget_moves_report_oversubscription() {
        let mut ledger = PowerLedger::new(Watts(1000.0));
        ledger.reserve(JobId(1), Watts(600.0)).unwrap();
        // Raising the budget is always clean.
        assert_eq!(ledger.set_system_budget(Watts(1500.0)), Watts::ZERO);
        assert_eq!(ledger.system_budget(), Watts(1500.0));
        // A shock below current reservations reports the deficit …
        assert_eq!(ledger.set_system_budget(Watts(400.0)), Watts(200.0));
        // … and reservations are untouched until the caller evicts.
        assert_eq!(ledger.reservation(JobId(1)), Some(Watts(600.0)));
        ledger.release(JobId(1));
        assert_eq!(ledger.set_system_budget(Watts(400.0)), Watts::ZERO);
    }

    #[test]
    fn reserve_upto_grants_partially_down_to_the_floor() {
        let mut ledger = PowerLedger::new(Watts(1000.0));
        ledger.reserve(JobId(1), Watts(700.0)).unwrap();
        // Full want fits nothing, but 300 W are still available ≥ floor.
        let grant = ledger
            .reserve_upto(JobId(2), Watts(500.0), Watts(200.0))
            .unwrap();
        assert_eq!(grant, Watts(300.0));
        assert_eq!(ledger.reservation(JobId(2)), Some(Watts(300.0)));
        assert_eq!(ledger.available(), Watts::ZERO);
        // Below the floor the ledger is untouched.
        let err = ledger
            .reserve_upto(JobId(3), Watts(500.0), Watts(100.0))
            .unwrap_err();
        assert_eq!(err.requested, Watts(100.0));
        assert_eq!(ledger.reserved(), Watts(1000.0));
        assert!(ledger.reservation(JobId(3)).is_none());
        // A fitting want is granted in full.
        ledger.release(JobId(1));
        let grant = ledger
            .reserve_upto(JobId(3), Watts(500.0), Watts(100.0))
            .unwrap();
        assert_eq!(grant, Watts(500.0));
    }

    #[test]
    fn reserve_upto_rereservation_counts_the_prior_grant() {
        let mut ledger = PowerLedger::new(Watts(1000.0));
        ledger.reserve(JobId(1), Watts(900.0)).unwrap();
        // Re-reserving job 1 can use its own 900 W again.
        let grant = ledger
            .reserve_upto(JobId(1), Watts(950.0), Watts(900.0))
            .unwrap();
        assert_eq!(grant, Watts(950.0));
        assert_eq!(ledger.reserved(), Watts(950.0));
    }

    #[test]
    fn utilization_tracks_reserved_fraction() {
        let mut ledger = PowerLedger::new(Watts(1000.0));
        assert_eq!(ledger.utilization(), 0.0);
        ledger.reserve(JobId(1), Watts(250.0)).unwrap();
        assert!((ledger.utilization() - 0.25).abs() < 1e-12);
        // A zero-budget ledger is saturated iff anything is reserved.
        let empty = PowerLedger::new(Watts::ZERO);
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn reserved_is_the_same_sum_in_every_ledger() {
        // 1e16 W absorbs a lone 1 W (its ulp is 2 W) but not eight of them
        // summed first: the total depends on the order the map yields.
        let build = || {
            let mut ledger = PowerLedger::new(Watts(2e16));
            ledger.reserve(JobId(0), Watts(1e16)).unwrap();
            for j in 1..=8 {
                ledger.reserve(JobId(j), Watts(1.0)).unwrap();
            }
            ledger
        };
        let bits = |w: Watts| w.value().to_bits();
        let first = build();
        for _ in 1..32 {
            let ledger = build();
            assert_eq!(bits(ledger.reserved()), bits(first.reserved()));
            assert_eq!(bits(ledger.available()), bits(first.available()));
        }
    }

    #[test]
    fn release_is_idempotent() {
        let mut ledger = PowerLedger::new(Watts(100.0));
        ledger.release(JobId(9));
        ledger.reserve(JobId(9), Watts(50.0)).unwrap();
        ledger.release(JobId(9));
        ledger.release(JobId(9));
        assert_eq!(ledger.available(), Watts(100.0));
    }
}
