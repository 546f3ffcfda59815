//! Cross-crate integration: the full RM + runtime + hardware stack against
//! the analytic evaluator, the measured-vs-analytic characterization, and
//! the figure/table generators.

use powerstack::core::{
    evaluate_mix, policies, Coordinator, CoordinatorMode, JobChar, JobSetup, PolicyCtx, PolicyKind,
};
use powerstack::experiments::{figures, tables, Testbed};
use powerstack::kernel::{Imbalance, KernelConfig, VectorWidth, WaitingFraction};
use powerstack::simhw::{quartz_spec, Cluster, VariationProfile, Watts};

fn mix() -> Vec<(String, KernelConfig, usize)> {
    vec![
        (
            "wasteful".into(),
            KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P50, Imbalance::TwoX),
            3,
        ),
        ("hungry".into(), KernelConfig::balanced_ymm(16.0), 3),
        (
            "streaming".into(),
            KernelConfig::new(
                0.25,
                VectorWidth::Ymm,
                WaitingFraction::P25,
                Imbalance::ThreeX,
            ),
            3,
        ),
    ]
}

fn cluster() -> Cluster {
    Cluster::builder(quartz_spec())
        .nodes(9)
        .variation(VariationProfile::quartz())
        .seed(13)
        .build()
        .unwrap()
}

/// The full simulation (RAPL filters, per-iteration stepping, RM admission)
/// must agree with the closed-form evaluator for every policy — the two
/// paths share models but not code paths.
#[test]
fn full_stack_matches_analytic_evaluator_for_every_policy() {
    let cluster = cluster();
    let coordinator = Coordinator::new(&cluster);
    let spec = cluster.model().spec();
    let budget = Watts(9.0 * 190.0);
    let ctx = PolicyCtx {
        system_budget: budget,
        min_node: spec.min_rapl_per_node(),
        tdp_node: spec.tdp_per_node(),
    };

    let eps = cluster.efficiency_factors();
    let setups: Vec<JobSetup> = mix()
        .iter()
        .enumerate()
        .map(|(j, (_, config, n))| JobSetup {
            config: *config,
            host_eps: eps[j * n..(j + 1) * n].to_vec(),
        })
        .collect();
    let chars: Vec<JobChar> = setups
        .iter()
        .map(|s| JobChar::analytic(s.config, cluster.model(), &s.host_eps))
        .collect();

    for policy in [
        PolicyKind::StaticCaps,
        PolicyKind::MinimizeWaste,
        PolicyKind::Precharacterized,
    ] {
        let run = coordinator
            .try_run_mix(
                &mix(),
                policies::by_kind(policy).as_ref(),
                budget,
                60,
                CoordinatorMode::Emulated,
            )
            .expect("the mix fits its cluster");
        let alloc = policies::by_kind(policy).allocate(&ctx, &chars);
        let eval = evaluate_mix(cluster.model(), &setups, &alloc, 60, 0.0, 0);

        let t_full = run.mean_elapsed();
        let t_fast = eval.mean_elapsed().value();
        assert!(
            (t_full - t_fast).abs() / t_fast < 0.05,
            "{policy}: full {t_full:.2}s vs analytic {t_fast:.2}s"
        );
        let e_full = run.total_energy();
        let e_fast = eval.total_energy().value();
        assert!(
            (e_full - e_fast).abs() / e_fast < 0.05,
            "{policy}: full {e_full:.0}J vs analytic {e_fast:.0}J"
        );
    }
}

/// Measured characterization (running the monitor and balancer agents) must
/// agree with the analytic closed forms across the configuration space.
#[test]
fn measured_characterization_matches_analytic() {
    let model = powerstack::simhw::PowerModel::new(quartz_spec()).unwrap();
    for config in [
        KernelConfig::balanced_ymm(4.0),
        KernelConfig::new(1.0, VectorWidth::Ymm, WaitingFraction::P50, Imbalance::TwoX),
        KernelConfig::new(
            16.0,
            VectorWidth::Ymm,
            WaitingFraction::P75,
            Imbalance::ThreeX,
        ),
        KernelConfig::new(
            0.25,
            VectorWidth::Xmm,
            WaitingFraction::P25,
            Imbalance::TwoX,
        ),
    ] {
        let analytic = JobChar::analytic(config, &model, &[0.97, 1.03]);
        let measured = JobChar::measured(config, &model, &[0.97, 1.03], 150);
        for (a, m) in analytic.hosts.iter().zip(&measured.hosts) {
            assert!(
                (a.used.value() - m.used.value()).abs() < 6.0,
                "{}: used analytic {} vs measured {}",
                config.label(),
                a.used,
                m.used
            );
            assert!(
                (a.needed.value() - m.needed.value()).abs() < 14.0,
                "{}: needed analytic {} vs measured {}",
                config.label(),
                a.needed,
                m.needed
            );
        }
    }
}

/// The online feedback mode completes and does not waste energy relative to
/// the emulated (pre-characterized) mode.
#[test]
fn online_mode_is_no_worse_than_emulated() {
    let cluster = cluster();
    let coordinator = Coordinator::new(&cluster);
    let budget = Watts(9.0 * 210.0);
    let policy = policies::by_kind(PolicyKind::MixedAdaptive);
    let run = |mode| {
        coordinator
            .try_run_mix(&mix(), policy.as_ref(), budget, 40, mode)
            .expect("the mix fits its cluster")
    };
    let emulated = run(CoordinatorMode::Emulated);
    let online = run(CoordinatorMode::Online);
    assert!(online.total_energy() <= emulated.total_energy() * 1.03);
    assert!(online.mean_elapsed() <= emulated.mean_elapsed() * 1.03);
}

/// Every figure and table generator produces non-empty, well-formed output.
#[test]
fn all_artifacts_render() {
    let tb = Testbed::new(400, 7);
    let artifacts = vec![
        tables::table1(),
        tables::table2(),
        tables::table3(&tb, 10),
        figures::fig1(42),
        figures::fig2(),
        figures::fig3(),
        figures::fig4(),
        figures::fig5(),
        figures::fig6(&tb),
    ];
    for (i, a) in artifacts.iter().enumerate() {
        assert!(a.len() > 100, "artifact {i} suspiciously short:\n{a}");
        assert!(!a.contains("NaN"), "artifact {i} contains NaN:\n{a}");
    }
}
