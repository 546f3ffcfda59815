//! Portability: §V-A1 claims the methodology ports to other architectures
//! through a machine-generic plugin layer. Every layer of this stack takes
//! a `MachineSpec`, so the same policies, agents, and evaluation must run
//! unchanged on a different part — verified here on a Skylake-SP-class
//! node description.

use powerstack::core::{
    allocate_with_runtime, evaluate_mix, policies, JobChar, JobSetup, PolicyCtx, PolicyKind,
};
use powerstack::kernel::{Imbalance, KernelConfig, KernelLoad, VectorWidth, WaitingFraction};
use powerstack::runtime::{Agent, Controller, JobPlatform, PowerBalancerAgent};
use powerstack::simhw::machines::skylake_sp_spec;
use powerstack::simhw::{LoadModel, Node, NodeId, PowerModel, Watts};

fn config() -> KernelConfig {
    KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P50, Imbalance::TwoX)
}

#[test]
fn kernel_model_ports_to_the_other_part() {
    let spec = skylake_sp_spec();
    let model = PowerModel::new(spec.clone()).unwrap();
    let load = KernelLoad::new(config(), &spec);
    let used = load.used_power(&model, 1.0);
    let needed = load.needed_power(&model, 1.0);
    // The physical envelope of the new part.
    assert!(used <= spec.tdp_per_node());
    assert!(needed <= used);
    assert!(needed > model.static_power(1.0));
    // The PCU staging behaves the same way: a cap between needed and used
    // preserves the turbo lead.
    let cap = Watts((used.value() + needed.value()) / 2.0);
    let op = load.operating_point(&model, 1.0, cap);
    assert_eq!(op.lead, spec.f_turbo);
    assert!(op.power <= cap + Watts(1e-6));
}

#[test]
fn balancer_converges_on_the_other_part() {
    let spec = skylake_sp_spec();
    let model = PowerModel::new(spec.clone()).unwrap();
    let nodes = vec![
        Node::new(NodeId(0), &model, 0.97).unwrap(),
        Node::new(NodeId(1), &model, 1.04).unwrap(),
    ];
    let mut platform = JobPlatform::new(model.clone(), nodes, config());
    let budget = spec.tdp_per_node() * 2.0;
    let mut agent = PowerBalancerAgent::new(budget);
    agent.init(&mut platform);
    let mut controller = Controller::new(platform, agent);
    let report = controller.run(120);
    // Harvested below uncapped draw, respecting the budget.
    let load = KernelLoad::new(config(), &spec);
    let used_total: f64 = [0.97, 1.04]
        .iter()
        .map(|&e| load.used_power(&model, e).value())
        .sum();
    assert!(report.avg_power().value() < used_total * 0.99);
    assert!(report.avg_power() <= budget);
}

#[test]
fn policies_keep_their_ordering_on_the_other_part() {
    let spec = skylake_sp_spec();
    let model = PowerModel::new(spec.clone()).unwrap();
    let wasteful = KernelConfig::new(
        8.0,
        VectorWidth::Ymm,
        WaitingFraction::P75,
        Imbalance::ThreeX,
    );
    let hungry = KernelConfig::balanced_ymm(8.0);
    let setups = vec![JobSetup::uniform(wasteful, 5), JobSetup::uniform(hungry, 5)];
    let chars: Vec<JobChar> = setups
        .iter()
        .map(|s| JobChar::analytic(s.config, &model, &s.host_eps))
        .collect();
    // A budget between the wasteful job's needs and the hungry job's.
    let budget = (chars[0].total_needed() + chars[1].total_needed()) * 0.55;
    let ctx = PolicyCtx {
        system_budget: budget,
        min_node: spec.min_rapl_per_node(),
        tdp_node: spec.tdp_per_node(),
    };
    let eval = |kind: PolicyKind| {
        let alloc = allocate_with_runtime(policies::by_kind(kind).as_ref(), &ctx, &chars);
        evaluate_mix(&model, &setups, &alloc, 20, 0.0, 0)
    };
    let stat = eval(PolicyKind::StaticCaps);
    let mixed = eval(PolicyKind::MixedAdaptive);
    // The paper's central ordering survives the architecture change.
    assert!(
        mixed.mean_elapsed() <= stat.mean_elapsed(),
        "MixedAdaptive {} vs StaticCaps {} on Skylake",
        mixed.mean_elapsed(),
        stat.mean_elapsed()
    );
    assert!(mixed.total_energy() <= stat.total_energy() * 1.001);
}
