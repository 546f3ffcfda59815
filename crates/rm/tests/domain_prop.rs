//! Property tests for the multi-domain [`DomainLedger`] against an
//! independent mirrored model.
//!
//! The mirror is a from-scratch transcription of the intended accounting
//! semantics over plain `f64`s — no shared code with the ledger — and the
//! property drives random interleavings of domain-aware
//! reserve/reserve_upto-style admission, release, per-domain reclaim and
//! domain shifts through both, asserting after **every** operation that
//!
//! * both sides agree on every job's node grant and per-domain split,
//! * Σ domain grants = node grant for every job,
//! * Σ node grants ≤ fleet budget,
//!
//! which is the containment chain the issue demands at every step.

use pmstack_rm::{DomainLedger, JobId};
use pmstack_simhw::{RaplDomain, Watts};
use proptest::prelude::*;
use std::collections::HashMap;

const EPS: f64 = 1e-6;

/// The independent mirror: per-job `[pkg-rest, pp0, dram]` grants and the
/// budget, with the accounting rules written out longhand.
#[derive(Debug, Default)]
struct Mirror {
    budget: f64,
    grants: HashMap<u64, [f64; 3]>,
}

impl Mirror {
    fn reserved(&self) -> f64 {
        self.grants.values().map(|g| g.iter().sum::<f64>()).sum()
    }

    /// Degraded admission: grant min(Σ want, available) if ≥ floor holds,
    /// splitting proportionally with pkg-rest absorbing the remainder.
    fn reserve(&mut self, job: u64, want: [f64; 3], floor: f64) -> Option<[f64; 3]> {
        let prior: f64 = self.grants.get(&job).map_or(0.0, |g| g.iter().sum());
        let available = self.budget - self.reserved() + prior;
        if floor > available + 1e-9 {
            return None;
        }
        let total: f64 = want.iter().sum();
        let granted = total.min(available).max(0.0);
        let split = if total > 0.0 {
            let scale = granted / total;
            let pp0 = want[1] * scale;
            let dram = want[2] * scale;
            [granted - pp0 - dram, pp0, dram]
        } else {
            [0.0; 3]
        };
        self.grants.insert(job, split);
        Some(split)
    }

    fn release(&mut self, job: u64) {
        self.grants.remove(&job);
    }

    fn reclaim(&mut self, job: u64, d: usize, watts: f64) -> f64 {
        let Some(g) = self.grants.get_mut(&job) else {
            return 0.0;
        };
        let take = watts.clamp(0.0, g[d]);
        g[d] -= take;
        if g.iter().sum::<f64>() <= 0.0 {
            self.grants.remove(&job);
        }
        take
    }

    fn shift(&mut self, job: u64, from: usize, to: usize, watts: f64) -> f64 {
        if from == to {
            return 0.0;
        }
        let Some(g) = self.grants.get_mut(&job) else {
            return 0.0;
        };
        let moved = watts.clamp(0.0, g[from]);
        g[from] -= moved;
        g[to] += moved;
        moved
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Reserve {
        job: u64,
        want: [f64; 3],
        floor_frac: f64,
    },
    Release {
        job: u64,
    },
    Reclaim {
        job: u64,
        domain: usize,
        watts: f64,
    },
    Shift {
        job: u64,
        from: usize,
        to: usize,
        watts: f64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let job = 0u64..6;
    prop_oneof![
        (
            job.clone(),
            (0.0f64..300.0, 0.0f64..300.0, 0.0f64..80.0),
            0.0f64..1.0,
        )
            .prop_map(|(job, (a, b, c), floor_frac)| Op::Reserve {
                job,
                want: [a, b, c],
                floor_frac,
            }),
        job.clone().prop_map(|job| Op::Release { job }),
        (job.clone(), 0usize..3, 0.0f64..400.0).prop_map(|(job, domain, watts)| Op::Reclaim {
            job,
            domain,
            watts,
        }),
        (job, 0usize..3, 0usize..3, 0.0f64..400.0).prop_map(|(job, from, to, watts)| Op::Shift {
            job,
            from,
            to,
            watts,
        }),
    ]
}

fn domain(i: usize) -> RaplDomain {
    RaplDomain::ALL[i]
}

fn assert_agreement(ledger: &DomainLedger, mirror: &Mirror) -> Result<(), TestCaseError> {
    // The ledger's own invariant checker must be clean after every op.
    prop_assert!(
        ledger.check_invariants().is_ok(),
        "ledger invariants violated: {:?}",
        ledger.check_invariants()
    );
    // Both sides agree on who holds a grant and how it splits.
    for (&job, g) in &mirror.grants {
        let split = ledger.grant(JobId(job));
        prop_assert!(split.is_some(), "job {} missing from ledger", job);
        let split = split.unwrap();
        for d in 0..3 {
            prop_assert!(
                (split[d].value() - g[d]).abs() < EPS,
                "job {} domain {} diverged: ledger {} mirror {}",
                job,
                d,
                split[d],
                g[d]
            );
        }
        // Σ domain grants = node grant.
        let node = ledger.node_grant(JobId(job)).unwrap();
        let sum: f64 = split.iter().map(|w| w.value()).sum();
        prop_assert!((sum - node.value()).abs() < EPS);
    }
    for job in ledger.jobs() {
        prop_assert!(
            mirror.grants.contains_key(&job.0),
            "job {:?} missing from mirror",
            job
        );
    }
    // Σ node grants ≤ fleet budget.
    prop_assert!(
        ledger.reserved().value() <= ledger.system_budget().value() + EPS,
        "fleet oversubscribed: {} > {}",
        ledger.reserved(),
        ledger.system_budget()
    );
    prop_assert!((ledger.reserved().value() - mirror.reserved()).abs() < EPS);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn domain_ledger_matches_mirrored_model(
        budget in 200.0f64..1200.0,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut ledger = DomainLedger::new(Watts(budget));
        let mut mirror = Mirror {
            budget,
            grants: HashMap::new(),
        };

        for op in ops {
            match op {
                Op::Reserve { job, want, floor_frac } => {
                    let total: f64 = want.iter().sum();
                    let floor = total * floor_frac;
                    let got = ledger.reserve_domains(
                        JobId(job),
                        [Watts(want[0]), Watts(want[1]), Watts(want[2])],
                        Watts(floor),
                    );
                    let expect = mirror.reserve(job, want, floor);
                    match (got, expect) {
                        (Ok(split), Some(m)) => {
                            for d in 0..3 {
                                prop_assert!(
                                    (split[d].value() - m[d]).abs() < EPS,
                                    "grant split diverged in domain {}", d
                                );
                            }
                        }
                        (Err(_), None) => {}
                        (got, expect) => prop_assert!(
                            false,
                            "admission outcome diverged: ledger {:?} mirror {:?}",
                            got, expect
                        ),
                    }
                }
                Op::Release { job } => {
                    ledger.release(JobId(job));
                    mirror.release(job);
                }
                Op::Reclaim { job, domain: d, watts } => {
                    let got = ledger.reclaim_domain(JobId(job), domain(d), Watts(watts));
                    let expect = mirror.reclaim(job, d, watts);
                    prop_assert!(
                        (got.value() - expect).abs() < EPS,
                        "reclaim diverged: ledger {} mirror {}", got, expect
                    );
                }
                Op::Shift { job, from, to, watts } => {
                    let got = ledger.shift(JobId(job), domain(from), domain(to), Watts(watts));
                    let expect = mirror.shift(job, from, to, watts);
                    prop_assert!(
                        (got.value() - expect).abs() < EPS,
                        "shift diverged: ledger {} mirror {}", got, expect
                    );
                }
            }
            assert_agreement(&ledger, &mirror)?;
        }
    }

    /// Budget shocks: lowering the budget reports a deficit both sides
    /// agree on, and evicting jobs until the deficit clears restores the
    /// containment chain.
    #[test]
    fn budget_shock_and_eviction_restores_containment(
        budget in 400.0f64..1000.0,
        shock_frac in 0.1f64..1.2,
        wants in prop::collection::vec(
            (0.0f64..250.0, 0.0f64..250.0, 0.0f64..60.0),
            1..6,
        ),
    ) {
        let mut ledger = DomainLedger::new(Watts(budget));
        let mut mirror = Mirror { budget, grants: HashMap::new() };
        for (i, (a, b, c)) in wants.iter().copied().enumerate() {
            let got = ledger.reserve_domains(
                JobId(i as u64),
                [Watts(a), Watts(b), Watts(c)],
                Watts::ZERO,
            );
            let expect = mirror.reserve(i as u64, [a, b, c], 0.0);
            prop_assert_eq!(got.is_ok(), expect.is_some());
        }
        assert_agreement(&ledger, &mirror)?;

        let new_budget = budget * shock_frac;
        let deficit = ledger.set_system_budget(Watts(new_budget));
        mirror.budget = new_budget;
        let expect_deficit = (mirror.reserved() - new_budget).max(0.0);
        prop_assert!((deficit.value() - expect_deficit).abs() < EPS);

        // The caller's eviction loop: drop jobs until the fleet fits again.
        let mut jobs: Vec<JobId> = ledger.jobs().collect();
        jobs.sort();
        for job in jobs {
            if ledger.reserved().value() <= new_budget + EPS {
                break;
            }
            ledger.release(job);
            mirror.release(job.0);
        }
        assert_agreement(&ledger, &mirror)?;
    }
}
