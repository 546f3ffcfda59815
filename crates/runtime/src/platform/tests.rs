use super::*;
use pmstack_kernel::{Imbalance, VectorWidth, WaitingFraction};
use pmstack_simhw::{quartz_spec, NodeId};

fn platform(n_hosts: usize, eps: &[f64]) -> JobPlatform {
    let model = PowerModel::new(quartz_spec()).unwrap();
    let nodes = (0..n_hosts)
        .map(|i| Node::new(NodeId(i), &model, eps.get(i).copied().unwrap_or(1.0)).unwrap())
        .collect();
    JobPlatform::new(
        model,
        nodes,
        KernelConfig::new(
            8.0,
            VectorWidth::Ymm,
            WaitingFraction::P0,
            Imbalance::Balanced,
        ),
    )
}

#[test]
fn iteration_elapsed_is_max_of_hosts() {
    let mut p = platform(3, &[1.0, 1.0, 1.07]);
    // Tight limit: the inefficient host is slower.
    p.set_uniform_limit(Watts(150.0)).unwrap();
    // Let enforcement settle.
    for _ in 0..30 {
        p.run_iteration();
    }
    let out = p.run_iteration();
    let max_t = out
        .host_compute_time
        .iter()
        .copied()
        .fold(Seconds::ZERO, Seconds::max);
    assert_eq!(out.elapsed, max_t);
    assert!(out.host_compute_time[2] >= out.host_compute_time[0]);
}

#[test]
fn energy_accumulates_over_iterations() {
    let mut p = platform(2, &[1.0, 1.0]);
    p.run_iteration();
    let e1 = p.host_energy();
    p.run_iteration();
    let e2 = p.host_energy();
    assert!(e2[0] > e1[0] && e2[1] > e1[1]);
}

#[test]
fn fleet_snapshot_reflects_live_state() {
    let mut p = platform(3, &[1.0, 1.0, 1.07]);
    // Liveness is the bank's own tally, so it is there before the first
    // iteration has filled an outcome.
    let snap = p.fleet_snapshot(&IterationOutcome::default());
    assert_eq!(snap.hosts, 3);
    assert_eq!(snap.alive, 3);
    assert_eq!(snap.energy_j, 0.0);
    let out = p.run_iteration();
    let snap = p.fleet_snapshot(&out);
    assert_eq!(snap.hosts, 3);
    assert_eq!(snap.alive, 3);
    assert_eq!(snap.segments, p.num_segments());
    assert!(snap.energy_j > 0.0);
    assert!(snap.power_w > 0.0);
    assert!(snap.iteration_s > 0.0);
    assert!((snap.elapsed_s - p.elapsed().value()).abs() < 1e-12);
}

#[test]
fn jitter_is_reproducible_and_small() {
    let mk = |seed| {
        let mut p = platform(1, &[1.0]).with_jitter(0.01, seed);
        (0..5)
            .map(|_| p.run_iteration().elapsed.value())
            .collect::<Vec<_>>()
    };
    assert_eq!(mk(3), mk(3));
    assert_ne!(mk(3), mk(4));
    let ts = mk(3);
    let mean = ts.iter().sum::<f64>() / ts.len() as f64;
    assert!(ts.iter().all(|t| (t - mean).abs() / mean < 0.1));
}

#[test]
fn limits_are_programmable_per_host() {
    let mut p = platform(2, &[1.0, 1.0]);
    p.set_host_limit(0, Watts(150.0)).unwrap();
    p.set_host_limit(1, Watts(200.0)).unwrap();
    let limits = p.host_limits();
    assert!((limits[0].value() - 150.0).abs() < 0.5);
    assert!((limits[1].value() - 200.0).abs() < 0.5);
    assert!(p.set_host_limit(5, Watts(150.0)).is_err());
}

#[test]
fn out_of_range_limits_are_clamped_by_node() {
    let mut p = platform(1, &[1.0]);
    // 50 W/node is below the 136 W floor; node clamps per socket.
    p.set_host_limit(0, Watts(50.0)).unwrap();
    assert!((p.host_limits()[0].value() - 136.0).abs() < 0.5);
}

#[test]
fn total_power_sums_hosts() {
    let mut p = platform(3, &[1.0, 1.0, 1.0]);
    let out = p.run_iteration();
    let sum: f64 = out.host_power.iter().map(|w| w.value()).sum();
    assert!((out.total_power().value() - sum).abs() < 1e-9);
}

#[test]
fn planned_node_death_fires_at_its_iteration() {
    let plan = pmstack_simhw::FaultPlan::scripted(vec![pmstack_simhw::faults::kill(1, 3)]);
    let mut p = platform(2, &[1.0, 1.0]).with_fault_plan(plan);
    let before = p.run_iteration(); // iterations 0, 1, 2
    assert!(before.host_alive.iter().all(|&a| a));
    p.run_iteration();
    p.run_iteration();
    let after = p.run_iteration(); // iteration 3: host 1 dies at barrier
    assert!(after.host_alive[0]);
    assert!(!after.host_alive[1]);
    assert_eq!(after.alive_count(), 1);
    assert!(after.degraded());
    assert_eq!(after.host_power[1], Watts::ZERO);
    // The survivors keep the job going: elapsed still positive, and the
    // dead host no longer accumulates energy.
    let e1 = p.host_energy();
    p.run_iteration();
    let e2 = p.host_energy();
    assert!(e2[0] > e1[0]);
    assert_eq!(e2[1], e1[1]);
}

#[test]
fn telemetry_dropout_serves_stale_readings_then_recovers() {
    let plan =
        pmstack_simhw::FaultPlan::scripted(vec![pmstack_simhw::faults::telemetry_dropout(0, 1, 3)]);
    let mut p = platform(1, &[1.0]).with_fault_plan(plan);
    let fresh = p.run_iteration();
    assert!(fresh.host_fresh[0]);
    let known = fresh.host_power[0];
    let e_before = p.host_energy();
    for _ in 0..3 {
        let out = p.run_iteration();
        assert!(out.host_alive[0], "dropout must not kill the host");
        assert!(!out.host_fresh[0]);
        assert_eq!(out.host_power[0], known, "stale reading is last-known");
    }
    // The hardware kept running underneath the blackout.
    assert!(p.host_energy()[0] > e_before[0]);
    let recovered = p.run_iteration();
    assert!(recovered.host_fresh[0]);
}

#[test]
fn stuck_rapl_pins_the_programmed_limit() {
    let mut p = platform(1, &[1.0]);
    p.inject_fault(0, pmstack_simhw::FaultKind::StuckRapl { pinned_w: 200.0 });
    // Writes "succeed" but the latch wins.
    p.set_host_limit(0, Watts(150.0)).unwrap();
    assert!((p.host_limits()[0].value() - 200.0).abs() < 0.5);
}

#[test]
fn uniform_limit_skips_dead_hosts() {
    let mut p = platform(2, &[1.0, 1.0]);
    p.inject_fault(1, pmstack_simhw::FaultKind::NodeDeath);
    p.set_uniform_limit(Watts(180.0)).unwrap();
    assert!((p.host_limits()[0].value() - 180.0).abs() < 0.5);
    assert!(!p.is_host_alive(1));
    assert_eq!(p.alive_hosts(), 1);
    assert_eq!(p.host_health()[1], NodeHealth::Dead);
}

#[test]
fn host_operating_point_rejects_unknown_hosts() {
    let p = platform(2, &[1.0, 1.0]);
    assert!(p.host_operating_point(1).is_ok());
    assert!(matches!(
        p.host_operating_point(2),
        Err(SimHwError::UnknownNode(2))
    ));
}

/// The heart of the tentpole's correctness claim at the platform level:
/// with fast-forward on and off, every observable of every iteration is
/// bit-identical — including across a mid-run limit write that breaks
/// and later re-establishes the steady state.
#[test]
fn fast_forward_is_bit_identical_to_stepping() {
    let mk = || {
        let mut p = platform(4, &[0.95, 1.0, 1.03, 1.07]);
        p.set_uniform_limit(Watts(180.0)).unwrap();
        p
    };
    let mut fast = mk();
    let mut slow = mk();
    slow.set_fast_forward(false);
    let mut fb = IterationBuffers::new();
    let mut sb = IterationBuffers::new();
    let mut engaged = false;
    for iter in 0..220 {
        if iter == 120 {
            fast.set_host_limit(2, Watts(160.0)).unwrap();
            slow.set_host_limit(2, Watts(160.0)).unwrap();
        }
        fast.run_iteration_into(&mut fb);
        slow.run_iteration_into(&mut sb);
        engaged |= fast.steady_state_active();
        let (f, s) = (fb.outcome(), sb.outcome());
        assert_eq!(f.elapsed.value().to_bits(), s.elapsed.value().to_bits());
        for h in 0..4 {
            assert_eq!(
                f.host_power[h].value().to_bits(),
                s.host_power[h].value().to_bits(),
                "power diverged at iteration {iter} host {h}"
            );
            assert_eq!(
                f.host_limit[h].value().to_bits(),
                s.host_limit[h].value().to_bits()
            );
            assert_eq!(f.host_alive[h], s.host_alive[h]);
            assert_eq!(f.host_fresh[h], s.host_fresh[h]);
        }
    }
    assert!(engaged, "fast-forward should engage after settling");
    assert!(
        !slow.steady_state_active(),
        "disabled platform never arms steady state"
    );
    let (fe, se) = (fast.host_energy(), slow.host_energy());
    for h in 0..4 {
        assert_eq!(
            fe[h].value().to_bits(),
            se[h].value().to_bits(),
            "energy diverged on host {h}"
        );
    }
}

/// With fast-forward off the platform writes `ops` itself, so the spans
/// the bank recorded stop describing the slots. The hazard is a limit
/// that creeps back into a span recorded before the toggle on the very
/// step before fast-forward returns: the slot then holds the oracle's
/// point for the limit before that step. Turning it back on at every
/// iteration of such a descent must match the twin that never used a
/// span.
#[test]
fn toggling_fast_forward_mid_run_forgets_the_spans() {
    for on_again_after in 0..25 {
        let mk = || platform(3, &[0.95, 1.0, 1.07]);
        let (mut toggled, mut twin) = (mk(), mk());
        twin.set_fast_forward(false);
        let (mut tb, mut wb) = (IterationBuffers::new(), IterationBuffers::new());
        let mut run = |toggled: &mut JobPlatform, twin: &mut JobPlatform, iterations| {
            for _ in 0..iterations {
                toggled.run_iteration_into(&mut tb);
                twin.run_iteration_into(&mut wb);
                assert_eq!(tb.outcome(), wb.outcome(), "back on after {on_again_after}");
            }
        };
        let limit = |toggled: &mut JobPlatform, twin: &mut JobPlatform, w| {
            toggled.set_uniform_limit(Watts(w)).unwrap();
            twin.set_uniform_limit(Watts(w)).unwrap();
        };
        // Spans recorded part-way down a descent ...
        limit(&mut toggled, &mut twin, 150.0);
        run(&mut toggled, &mut twin, 4);
        // ... then up and down again through them with the oracle writing.
        toggled.set_fast_forward(false);
        limit(&mut toggled, &mut twin, 240.0);
        run(&mut toggled, &mut twin, 10);
        limit(&mut toggled, &mut twin, 150.0);
        run(&mut toggled, &mut twin, on_again_after);
        toggled.set_fast_forward(true);
        run(&mut toggled, &mut twin, 10);
        assert_eq!(toggled.host_energy(), twin.host_energy());
    }
}

/// Fault events and jitter must each keep the fast path disarmed.
#[test]
fn fast_forward_disarms_on_faults_and_jitter() {
    let plan = pmstack_simhw::FaultPlan::scripted(vec![pmstack_simhw::faults::kill(0, 200)]);
    let mut p = platform(2, &[1.0, 1.0]).with_fault_plan(plan);
    p.set_uniform_limit(Watts(180.0)).unwrap();
    let mut bufs = IterationBuffers::new();
    for _ in 0..200 {
        p.run_iteration_into(&mut bufs);
    }
    assert!(p.steady_state_active());
    p.run_iteration_into(&mut bufs); // iteration 200: the death fires
    assert!(!bufs.outcome().host_alive[0]);

    let mut j = platform(2, &[1.0, 1.0]).with_jitter(0.01, 9);
    for _ in 0..80 {
        j.run_iteration_into(&mut bufs);
    }
    assert!(
        !j.steady_state_active(),
        "jitter must never arm steady state"
    );
}

/// The double buffer keeps the previous outcome readable and reuses
/// allocations across iterations.
#[test]
fn iteration_buffers_double_buffer() {
    let mut p = platform(2, &[1.0, 1.0]);
    let mut bufs = IterationBuffers::new();
    p.run_iteration_into(&mut bufs);
    let first = bufs.outcome().clone();
    p.run_iteration_into(&mut bufs);
    assert_eq!(bufs.previous(), &first);
    assert_eq!(bufs.outcome().host_power.len(), 2);
}

/// Stamps only mean something to the platform and sharding that wrote
/// them. Buffers that served platform A and are then handed to a
/// same-sized platform B — steady from its first iteration, as a fresh
/// platform is — or that stay with a platform across a re-shard, must be
/// rewritten, not trusted: every iteration equals the one the same
/// platform produces into buffers of its own.
#[test]
fn buffers_moved_between_platforms_are_rewritten() {
    let a_eps = [0.95, 0.95, 0.95];
    let b_eps = [1.07, 1.07, 1.07];
    let mut bufs = IterationBuffers::new();
    let mut a = platform(3, &a_eps);
    for _ in 0..4 {
        a.run_iteration_into(&mut bufs);
    }
    assert!(a.steady_state_active());

    let mut b = platform(3, &b_eps);
    let mut b_twin = platform(3, &b_eps);
    let mut own = IterationBuffers::new();
    for iter in 0..4 {
        b.run_iteration_into(&mut bufs);
        b_twin.run_iteration_into(&mut own);
        assert_eq!(bufs.outcome(), own.outcome(), "iteration {iter}");
    }
    assert_ne!(bufs.outcome().host_power, a.run_iteration().host_power);

    // 3 hosts as 1+1+1 and as 2+1: the same buffers across the re-shard.
    let mut c = platform(3, &[0.95, 1.0, 1.07]).with_segment_hosts(1);
    let mut c_twin = platform(3, &[0.95, 1.0, 1.07]).with_segment_hosts(1);
    for _ in 0..4 {
        c.run_iteration_into(&mut bufs);
        c_twin.run_iteration_into(&mut own);
    }
    c.set_host_limit(2, Watts(150.0)).unwrap();
    c_twin.set_host_limit(2, Watts(150.0)).unwrap();
    let mut c = c.with_segment_hosts(2);
    let mut c_twin = c_twin.with_segment_hosts(2);
    let mut own = IterationBuffers::new();
    for iter in 0..4 {
        c.run_iteration_into(&mut bufs);
        c_twin.run_iteration_into(&mut own);
        assert_eq!(
            bufs.outcome(),
            own.outcome(),
            "re-sharded, iteration {iter}"
        );
    }
}
