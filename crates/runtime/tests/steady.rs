//! What a steady iteration costs, read off the stack's own counters: with
//! every segment clean, an iteration must neither fan out across the exec
//! pool nor write a single energy cell, however many segments the fleet
//! has; a one-host write and a churn iteration (one dirty segment) must not
//! fan out either. One test in its own binary, so no other test moves the
//! process-wide counters underneath it.

use pmstack_kernel::KernelConfig;
use pmstack_runtime::{IterationBuffers, JobPlatform};
use pmstack_simhw::{quartz_spec, Node, NodeId, PowerModel, Watts};

fn counter(name: &str) -> u64 {
    pmstack_obs::snapshot().counter(name).unwrap_or(0)
}

#[test]
fn a_steady_iteration_fans_out_zero_times_and_writes_no_cell() {
    pmstack_obs::enable();
    let model = PowerModel::new(quartz_spec()).unwrap();
    let nodes = (0..96)
        .map(|i| Node::new(NodeId(i), &model, 0.92 + 0.012 * (i % 16) as f64).unwrap())
        .collect();
    let mut p =
        JobPlatform::new(model, nodes, KernelConfig::balanced_ymm(16.0)).with_segment_hosts(4);
    let segments = p.num_segments() as u64;
    assert_eq!(segments, 24);
    p.set_fast_forward(true);
    let mut bufs = IterationBuffers::new();

    // Every segment dirty: the iteration that does fan out, wherever the
    // pool has a second worker.
    p.set_uniform_limit(Watts(190.0)).unwrap();
    let fanouts = counter("exec.pool.fanouts");
    p.run_iteration_into(&mut bufs);
    if pmstack_exec::workers() > 1 {
        assert!(
            counter("exec.pool.fanouts") > fanouts,
            "24 dirty segments fan out"
        );
    }
    for _ in 0..600 {
        if p.steady_state_active() {
            break;
        }
        p.run_iteration_into(&mut bufs);
    }
    assert!(p.steady_state_active(), "the fleet settled");
    p.apply_pending_replays();

    let before = p.host_energy();
    let (fanouts, applied) = (
        counter("exec.pool.fanouts"),
        counter("simhw.bank.replays.applied"),
    );
    for _ in 0..100 {
        p.run_iteration_into(&mut bufs);
        assert!(p.steady_state_active());
    }
    let read = p.host_energy();
    assert_eq!(
        counter("exec.pool.fanouts"),
        fanouts,
        "a steady iteration fanned out"
    );
    assert_eq!(
        counter("simhw.bank.replays.applied"),
        applied,
        "a steady iteration or a read wrote an energy cell"
    );
    assert!(read.iter().zip(&before).all(|(now, then)| now > then));

    // The 100 iterations are all still pending, one count per segment each,
    // and writing them into the cells reads the same.
    p.apply_pending_replays();
    assert_eq!(
        counter("simhw.bank.replays.applied") - applied,
        100 * segments
    );
    assert_eq!(p.host_energy(), read);

    // A one-host write is a batched write over one segment: it stays on
    // the calling thread. So does a churn iteration — host 0's limit
    // alternates, one dirty segment of 24 resolves and steps, and neither
    // the pre-step pass nor the step has a second segment to share.
    let fanouts = counter("exec.pool.fanouts");
    for i in 0..20 {
        p.set_host_limit(0, Watts(185.0 + (i % 2) as f64)).unwrap();
    }
    assert_eq!(
        counter("exec.pool.fanouts"),
        fanouts,
        "a one-host write fanned out"
    );
    for i in 0..20 {
        p.set_host_limit(0, Watts(185.0 + (i % 2) as f64)).unwrap();
        p.run_iteration_into(&mut bufs);
        assert_eq!(p.num_segments() as u64, segments);
    }
    assert_eq!(
        counter("exec.pool.fanouts"),
        fanouts,
        "a churn iteration fanned out"
    );
}
