//! Property-based tests of the kernel model invariants.

use pmstack_kernel::{Imbalance, KernelConfig, KernelLoad, VectorWidth, WaitingFraction};
use pmstack_simhw::{quartz_spec, Hertz, LoadModel, OperatingPoint, PowerModel, Watts};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = KernelConfig> {
    (
        prop_oneof![Just(0.0), 0.05f64..40.0,],
        prop_oneof![
            Just(VectorWidth::Scalar),
            Just(VectorWidth::Xmm),
            Just(VectorWidth::Ymm)
        ],
        prop_oneof![
            Just(WaitingFraction::P0),
            Just(WaitingFraction::P25),
            Just(WaitingFraction::P50),
            Just(WaitingFraction::P75)
        ],
        prop_oneof![
            Just(Imbalance::Balanced),
            Just(Imbalance::TwoX),
            Just(Imbalance::ThreeX)
        ],
    )
        .prop_map(|(i, v, w, k)| KernelConfig::new(i, v, w, k))
}

/// A node-level cap anywhere from nothing to twice the quartz TDP, or one of
/// the values no enforcement loop should produce but a resolve must survive.
fn arb_cap() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..480.0,
        0.0f64..480.0,
        0.0f64..480.0,
        prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    ]
}

proptest! {
    /// Needed power never exceeds used power, and both stay within the
    /// physical envelope (static floor … beyond-TDP ceiling scaled by ε).
    #[test]
    fn needed_le_used_and_bounded(config in arb_config(), eps in 0.85f64..1.18) {
        let spec = quartz_spec();
        let model = PowerModel::new(spec.clone()).unwrap();
        let load = KernelLoad::new(config, &spec);
        let used = load.used_power(&model, eps);
        let needed = load.needed_power(&model, eps);
        prop_assert!(needed <= used + Watts(1e-9));
        prop_assert!(needed > model.static_power(eps));
        prop_assert!(used < Watts(300.0));
    }

    /// The PCU operating point always fits the cap when the cap is
    /// achievable at the minimum p-state, and power is monotone in the cap.
    #[test]
    fn operating_point_fits_and_monotone(config in arb_config(), eps in 0.9f64..1.1) {
        let spec = quartz_spec();
        let model = PowerModel::new(spec.clone()).unwrap();
        let load = KernelLoad::new(config, &spec);
        let floor = load.operating_point(&model, eps, Watts(0.0)).power;
        let mut last = Watts::ZERO;
        for cap_w in (140..=240).step_by(5) {
            let op = load.operating_point(&model, eps, Watts(cap_w as f64));
            if Watts(cap_w as f64) >= floor {
                prop_assert!(op.power <= Watts(cap_w as f64) + Watts(1e-6));
            }
            prop_assert!(op.power >= last - Watts(1e-9));
            last = op.power;
            // Trail never exceeds lead; both stay on the ladder's range.
            prop_assert!(op.trail <= op.lead);
            prop_assert!(op.lead >= spec.f_min && op.lead <= spec.f_turbo);
        }
    }

    /// A span says exactly where its point is the answer: over every
    /// configuration, ε and cached cap — NaN and ±∞ included — `holds(cap)`
    /// is true if and only if resolving at `cap` returns the cached point
    /// bit for bit (NaN alone never holds). Probed at random caps and within
    /// a few ulps of every candidate's edge: a span that were merely safe
    /// but narrow would pass every digest and silently re-search.
    #[test]
    fn span_holds_exactly_where_the_point_is_the_answer(
        config in arb_config(),
        eps in 0.9f64..1.1,
        cached in arb_cap(),
        probes in prop::collection::vec(arb_cap(), 8..9),
    ) {
        let spec = quartz_spec();
        let model = PowerModel::new(spec.clone()).unwrap();
        let load = KernelLoad::new(config, &spec);
        let bits = |op: OperatingPoint| {
            [op.lead.value(), op.trail.value(), op.power.value()].map(f64::to_bits)
        };
        let (op, span) = load.operating_point_span(&model, eps, Watts(cached));
        prop_assert_eq!(bits(op), bits(load.operating_point(&model, eps, Watts(cached))));
        prop_assert_eq!(span.holds(Watts(cached)), !cached.is_nan());

        // Every candidate the PCU can pick, hence every edge a span can have:
        // the lead throttled below turbo with the trail riding at the spin
        // floor, the trail demoted under a turbo lead, everything at turbo.
        let (turbo, floor) = (spec.f_turbo, spec.poll_freq_floor);
        let mut caps = probes;
        for &step in spec.pstates().steps() {
            let mut points = vec![(step.min(turbo), step.min(floor))];
            if step >= floor {
                points.push((turbo, step));
            }
            for (lead, trail) in points {
                let edge = load.power(&model, eps, lead, trail).value() - 1e-9;
                let (mut below, mut above) = (edge, edge);
                caps.push(edge);
                for _ in 0..3 {
                    below = below.next_down();
                    above = above.next_up();
                    caps.extend([below, above]);
                }
            }
        }
        for cap in caps {
            let same = bits(load.operating_point(&model, eps, Watts(cap))) == bits(op);
            prop_assert_eq!(
                span.holds(Watts(cap)),
                same && !cap.is_nan(),
                "cached at {} W, probed at {} W ({:?}, eps {})", cached, cap, config, eps
            );
        }
    }

    /// Iteration time is positive, scales linearly with 1/frequency, and
    /// the lead frequency fully determines it (trail never matters).
    #[test]
    fn iteration_time_scaling(config in arb_config(), ghz in 1.2f64..2.6) {
        let spec = quartz_spec();
        let perf = pmstack_kernel::PerfModel::new(config, &spec);
        let t_ref = perf.iteration_time(spec.f_turbo).value();
        let t = perf.iteration_time(Hertz::from_ghz(ghz)).value();
        prop_assert!(t_ref > 0.0);
        let expected = t_ref * spec.f_turbo.ghz() / ghz;
        prop_assert!((t - expected).abs() / expected < 1e-9);
    }

    /// A tighter cap never makes the iteration faster.
    #[test]
    fn tighter_cap_never_faster(config in arb_config(), eps in 0.9f64..1.1) {
        let spec = quartz_spec();
        let model = PowerModel::new(spec.clone()).unwrap();
        let load = KernelLoad::new(config, &spec);
        let mut last_time = f64::INFINITY;
        for cap_w in (136..=240).step_by(8) {
            let op = load.operating_point(&model, eps, Watts(cap_w as f64));
            let t = load.iteration_time(&op).value();
            prop_assert!(t <= last_time + 1e-9, "cap {cap_w} W slowed down");
            last_time = t;
        }
    }

    /// The continuous achieved frequency is consistent with the discrete
    /// operating point (within one p-state) and monotone in the cap.
    #[test]
    fn achieved_frequency_consistency(config in arb_config(), eps in 0.9f64..1.1) {
        let spec = quartz_spec();
        let model = PowerModel::new(spec.clone()).unwrap();
        let load = KernelLoad::new(config, &spec);
        let mut last = 0.0f64;
        for cap_w in (140..=240).step_by(10) {
            let cont = load.achieved_frequency(&model, eps, Watts(cap_w as f64));
            let disc = load.operating_point(&model, eps, Watts(cap_w as f64)).lead;
            prop_assert!(cont.ghz() >= last - 1e-9, "not monotone");
            last = cont.ghz();
            prop_assert!(
                (cont.ghz() - disc.ghz()).abs() <= 0.11,
                "continuous {} vs discrete {} differ by more than a p-state",
                cont.ghz(),
                disc.ghz()
            );
        }
    }

    /// Waiting ranks widen the used-vs-needed gap; balanced configurations
    /// have none.
    #[test]
    fn waiting_creates_harvestable_slack(i in 0.1f64..40.0, eps in 0.9f64..1.1) {
        let spec = quartz_spec();
        let model = PowerModel::new(spec.clone()).unwrap();
        let gap = |w, k| {
            let load = KernelLoad::new(KernelConfig::new(i, VectorWidth::Ymm, w, k), &spec);
            load.used_power(&model, eps).value() - load.needed_power(&model, eps).value()
        };
        let balanced = gap(WaitingFraction::P0, Imbalance::Balanced);
        prop_assert!(balanced.abs() < 1e-9);
        let heavy = gap(WaitingFraction::P75, Imbalance::ThreeX);
        let light = gap(WaitingFraction::P25, Imbalance::TwoX);
        prop_assert!(heavy > light && light > 0.0);
    }
}
