//! Overhead of the observability layer on the columnar hot loop: a settled
//! 64-host `run_iteration_into` replay, measured with the recorder disabled
//! (the default — every instrumentation site must collapse to one relaxed
//! atomic load) and enabled. The disabled row is the one that matters: it
//! must stay within ~2 % of the uninstrumented baseline recorded in
//! BENCH_step.json.

use criterion::{criterion_group, criterion_main, Criterion};
use pmstack_kernel::{Imbalance, KernelConfig, VectorWidth, WaitingFraction};
use pmstack_runtime::{IterationBuffers, JobPlatform};
use pmstack_simhw::{quartz_spec, Node, NodeId, PowerModel, Watts};
use std::hint::black_box;

fn demo_config() -> KernelConfig {
    KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P50, Imbalance::TwoX)
}

fn settled_platform(hosts: usize) -> (JobPlatform, IterationBuffers) {
    let model = PowerModel::new(quartz_spec()).unwrap();
    let nodes: Vec<Node> = (0..hosts)
        .map(|i| Node::new(NodeId(i), &model, 0.95 + 0.1 * (i as f64 / hosts as f64)).unwrap())
        .collect();
    let mut p = JobPlatform::new(model, nodes, demo_config());
    p.set_fast_forward(true);
    for h in 0..hosts {
        p.set_host_limit(h, Watts(185.0)).unwrap();
    }
    let mut bufs = IterationBuffers::new();
    for _ in 0..400 {
        p.run_iteration_into(&mut bufs);
    }
    assert!(p.steady_state_active(), "fleet must settle first");
    (p, bufs)
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");

    pmstack_obs::disable();
    let (mut p, mut bufs) = settled_platform(64);
    g.bench_function("recorder_disabled/64_hosts", |b| {
        b.iter(|| {
            p.run_iteration_into(&mut bufs);
            black_box(bufs.outcome().elapsed)
        })
    });

    pmstack_obs::enable();
    let (mut p, mut bufs) = settled_platform(64);
    g.bench_function("recorder_enabled/64_hosts", |b| {
        b.iter(|| {
            p.run_iteration_into(&mut bufs);
            black_box(bufs.outcome().elapsed)
        })
    });
    pmstack_obs::disable();

    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
