//! Watch the GEOPM-style power balancer converge, and analyze the
//! execution trace it leaves (the GEOPM trace-file analogue).
//!
//! A two-node job with heavy barrier polling runs under a generous budget.
//! The balancer probes each node's limit downward while the critical path
//! holds the turbo ceiling, harvesting the polling slack — the Fig. 4 →
//! Fig. 5 gap — and settles into a small limit cycle around the workload's
//! needed power. A `Tracer` records all 60 iterations; the trace reports
//! where each host converged and prints the per-iteration CSV a plotting
//! pipeline would consume.
//!
//! ```text
//! cargo run --release --example balancer_convergence
//! ```

use powerstack::kernel::{Imbalance, KernelConfig, KernelLoad, VectorWidth, WaitingFraction};
use powerstack::runtime::{Agent, JobPlatform, PowerBalancerAgent, Tracer};
use powerstack::simhw::{quartz_spec, Node, NodeId, PowerModel, Watts};

fn main() {
    let spec = quartz_spec();
    let model = PowerModel::new(spec.clone()).expect("valid spec");
    let config = KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P75, Imbalance::TwoX);

    let load = KernelLoad::new(config, &spec);
    let used = load.used_power(&model, 1.0);
    let needed = load.needed_power(&model, 1.0);
    println!("workload: {}", config.label());
    println!("uncapped draw {used:.1}, needed for full speed {needed:.1}\n");

    let nodes = vec![
        Node::new(NodeId(0), &model, 0.97).expect("valid eps"),
        Node::new(NodeId(1), &model, 1.04).expect("valid eps"),
    ];
    let mut platform = JobPlatform::new(model, nodes, config);
    let mut agent = PowerBalancerAgent::new(Watts(2.0 * 240.0));
    agent.init(&mut platform);

    let mut tracer = Tracer::new();
    for _ in 0..60 {
        let out = platform.run_iteration();
        tracer.record(&out);
        agent.adjust(&mut platform, &out);
    }
    let trace = tracer.finish();

    for host in 0..2 {
        let series = trace.host(host);
        let first = series.first().expect("non-empty trace");
        let last = series.last().expect("non-empty trace");
        let conv = trace
            .convergence_iteration(host, Watts(6.0))
            .map(|i| i.to_string())
            .unwrap_or_else(|| "—".into());
        println!(
            "host {host}: limit {:.0} → {:.0} W, power {:.0} → {:.0} W, converged at iteration {conv}",
            first.limit.value(),
            last.limit.value(),
            first.power.value(),
            last.power.value(),
        );
    }
    let final_total: Watts = agent.targets().iter().copied().sum();
    println!(
        "\nconverged near needed power ({needed:.0}/node): final targets total {final_total:.1}\n\
         pool of harvested (unspent) watts: {:.1}",
        agent.pool()
    );

    println!("\nfirst ten records of the trace CSV:");
    for line in trace.to_csv().lines().take(11) {
        println!("  {line}");
    }
}
