//! Property-based tests of the hardware substrate invariants.

use pmstack_simhw::bank::repeat_add;
use pmstack_simhw::power::CoreClass;
use pmstack_simhw::rapl::{
    decode_power_limit, encode_power_limit, EnergyCounterReader, PowerLimit, RaplPackage,
    RaplUnits, DEFAULT_UNIT_REGISTER,
};
use pmstack_simhw::{quartz_spec, Hertz, PStateLadder, PowerModel, Seconds, Watts};
use proptest::prelude::*;

proptest! {
    /// PL1 encode/decode round-trips within one LSB for any limit in the
    /// settable range and any representable window.
    #[test]
    fn power_limit_roundtrip(limit_w in 1.0f64..4000.0, window_s in 0.001f64..10.0) {
        let units = RaplUnits::decode(DEFAULT_UNIT_REGISTER);
        let pl = PowerLimit {
            limit: Watts(limit_w),
            enabled: true,
            clamp: true,
            time_window: Seconds(window_s),
        };
        let decoded = decode_power_limit(encode_power_limit(&pl, &units), &units);
        prop_assert!((decoded.limit.value() - limit_w).abs() <= units.power_w / 2.0 + 1e-9);
        prop_assert!(decoded.enabled && decoded.clamp);
        // Window quantization error of the (1+F/4)*2^E format is < 12.5%.
        prop_assert!((decoded.time_window.value() - window_s).abs() <= window_s * 0.125 + units.time_s);
    }

    /// The energy counter reader reconstructs any sequence of power draws
    /// despite 32-bit wraparound.
    #[test]
    fn energy_counter_wraparound(powers in prop::collection::vec(1.0f64..260.0, 1..40)) {
        let mut pkg = RaplPackage::new(Watts(120.0), Watts(68.0), Watts(135.0)).unwrap();
        let units = pkg.units();
        let mut reader = EnergyCounterReader::new(&units);
        reader.sample(pkg.read_energy_counter().unwrap());
        // Bias the trajectory near a wrap point to exercise it.
        pkg.advance(Seconds(1.0), Watts(units.energy_j * 4294967296.0 - 500.0));
        reader.sample(pkg.read_energy_counter().unwrap());

        let mut recovered = 0.0;
        let mut truth = 0.0;
        for p in powers {
            pkg.advance(Seconds(1.0), Watts(p));
            truth += p;
            recovered += reader.sample(pkg.read_energy_counter().unwrap()).value();
        }
        prop_assert!((recovered - truth).abs() < 1.0, "recovered {recovered} vs {truth}");
    }

    /// Node power is monotone in frequency and in the variation factor for
    /// any positive activity.
    #[test]
    fn power_monotone(kappa in 0.1f64..5.0, eps in 0.85f64..1.18, ghz in 1.2f64..2.5) {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let classes = |f: f64| {
            [CoreClass { count: 34, kappa, freq: Hertz::from_ghz(f) }]
        };
        let p_lo = model.node_power(eps, &classes(ghz));
        let p_hi = model.node_power(eps, &classes(ghz + 0.1));
        prop_assert!(p_hi > p_lo);
        let p_more_eps = model.node_power(eps + 0.01, &classes(ghz));
        prop_assert!(p_more_eps > p_lo);
    }

    /// freq_for_power inverts node_power wherever a solution exists.
    #[test]
    fn freq_power_inversion(kappa in 0.5f64..4.0, eps in 0.9f64..1.1, ghz in 1.25f64..2.55) {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let f = Hertz::from_ghz(ghz);
        let p = model.node_power(eps, &[CoreClass { count: 34, kappa, freq: f }]);
        let back = model.freq_for_power(eps, 34, kappa, p).expect("in range");
        prop_assert!((back.ghz() - ghz).abs() < 1e-6);
    }

    /// The p-state ladder's floor is always the highest step not above the
    /// query, and highest_fitting agrees with a linear scan.
    #[test]
    fn ladder_floor_consistency(query_ghz in 1.0f64..3.0, cutoff_ghz in 1.0f64..3.0) {
        let ladder = PStateLadder::new(
            Hertz::from_ghz(1.2),
            Hertz::from_ghz(2.6),
            Hertz(100e6),
        ).unwrap();
        if let Some(f) = ladder.floor(Hertz::from_ghz(query_ghz)) {
            prop_assert!(f.ghz() <= query_ghz + 1e-9);
            // No higher step also fits.
            for &s in ladder.steps() {
                if s > f {
                    prop_assert!(s.ghz() > query_ghz + 1e-9);
                }
            }
        } else {
            prop_assert!(query_ghz < 1.2);
        }
        let fit = ladder.highest_fitting(|s| s.ghz() <= cutoff_ghz);
        let scan = ladder
            .steps()
            .iter()
            .rev()
            .find(|s| s.ghz() <= cutoff_ghz)
            .copied()
            .unwrap_or(ladder.min());
        prop_assert_eq!(fit, scan);
    }

    /// RAPL enforcement always settles to the programmed limit, from any
    /// starting limit, within a bounded number of windows.
    #[test]
    fn enforcement_settles(target_w in 68.0f64..120.0, start_w in 68.0f64..120.0) {
        let mut pkg = RaplPackage::new(Watts(120.0), Watts(68.0), Watts(120.0)).unwrap();
        let mk = |w: f64| PowerLimit {
            limit: Watts(w),
            enabled: true,
            clamp: true,
            time_window: Seconds(1.0),
        };
        pkg.set_limit(mk(start_w)).unwrap();
        for _ in 0..100 {
            pkg.advance(Seconds(0.5), Watts(100.0));
        }
        pkg.set_limit(mk(target_w)).unwrap();
        for _ in 0..100 {
            pkg.advance(Seconds(0.5), Watts(100.0));
        }
        prop_assert!((pkg.enforced_limit().value() - target_w).abs() < 0.1);
    }
}

/// What [`repeat_add`] stands for.
fn add_loop(e: f64, d: f64, k: u64) -> f64 {
    let mut x = e;
    for _ in 0..k {
        x += d;
    }
    x
}

/// The spacing above a finite `x ≥ 0`.
fn ulp(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1) - x
}

/// The replayed delta, relative to the cell it is added to.
#[derive(Debug, Clone, Copy)]
enum Delta {
    Zero,
    /// `factor` times the cell (and nonzero on an empty one).
    Above(f64),
    /// `10^p` times the cell: from well under half an ulp up.
    Ratio(f64),
    /// `(q + ½)` ulps of the cell's binade, or of the one `shift` above it:
    /// every sum from an odd cell is a tie.
    Tie(u64, i32),
}

impl Delta {
    fn of(self, e: f64) -> f64 {
        match self {
            Delta::Zero => 0.0,
            Delta::Above(factor) => (e * factor).max(factor * 1e-3),
            Delta::Ratio(p) => e * 10f64.powf(p),
            Delta::Tie(q, shift) => (q as f64 + 0.5) * ulp(e) * 2f64.powi(shift),
        }
    }
}

fn arb_cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (1u64..1 << 52).prop_map(f64::from_bits),
        (-3.0f64..15.0).prop_map(|p| 10f64.powf(p)),
        (-12i32..50, 1u64..200).prop_map(|(p, c)| f64::from_bits(2f64.powi(p).to_bits() - c)),
    ]
}

fn arb_delta() -> impl Strategy<Value = Delta> {
    prop_oneof![
        Just(Delta::Zero),
        (1.0f64..10.0).prop_map(Delta::Above),
        (-17.0f64..-1.0).prop_map(Delta::Ratio),
        (0u64..9, 0i32..3).prop_map(|(q, shift)| Delta::Tie(q, shift)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `repeat_add(e, d, k)` is `k` sequential `e += d`, bit for bit, over
    /// empty, subnormal and wide-ranging cells, cells just below a power of
    /// two, and deltas that are zero, larger than the cell, far below or
    /// near its ulp, or exact half-ulp ties of its binade or the ones above
    /// — with `q` even and odd.
    #[test]
    fn repeat_add_is_the_loop(
        e in arb_cell(),
        delta in arb_delta(),
        k in prop_oneof![0u64..10, 0u64..=100_000],
    ) {
        let d = delta.of(e);
        prop_assert_eq!(
            repeat_add(e, d, k).to_bits(),
            add_loop(e, d, k).to_bits(),
            "e {:e} d {:e} k {}", e, d, k
        );
    }
}

/// The top of a binade, where its jump must stop: cells `c` ulps under
/// 2^(m+1), deltas a quarter, a half or three quarters past `q` ulps, every
/// count up to a few dozen — including the step from `2^(m+1) − 3u` by
/// `2.5u`, whose exact sum lands on the rounding boundary `2^(m+1) − u/2`
/// and ties up to 2^(m+1).
#[test]
fn repeat_add_stops_at_the_top_of_a_binade() {
    for top in [2f64.powi(11), 2f64.powi(40)] {
        let u = ulp(top / 2.0);
        let (e, d) = (top - 3.0 * u, 2.5 * u);
        assert_eq!(e + d, top, "the boundary case rounds up");
        assert_eq!(repeat_add(e, d, 1).to_bits(), top.to_bits());
        for c in 1..=40u32 {
            let e = top - f64::from(c) * u;
            for q in 0..6u32 {
                for frac in [0.25, 0.5, 0.75] {
                    let d = (f64::from(q) + frac) * u;
                    for k in 0..=64 {
                        assert_eq!(
                            repeat_add(e, d, k).to_bits(),
                            add_loop(e, d, k).to_bits(),
                            "top {top:e}: e = top - {c}u, d = {}u, k {k}",
                            f64::from(q) + frac
                        );
                    }
                }
            }
        }
    }
}
