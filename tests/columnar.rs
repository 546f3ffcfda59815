//! Directed cases of the lockstep harness (`tests/lockstep/main.rs` states
//! its contract) for the columnar `JobPlatform`: each runs the harness's
//! oracle (the seed's iteration formula over per-`Node` stepping) and
//! platform adapters through one fixed schedule, compared after every
//! iteration, and states the fast-forward facts the schedule is built to
//! reach (armed, disarmed, re-armed, replays counted) outright.

#[path = "lockstep/harness.rs"]
mod harness;

use harness::*;
use pmstack_runtime::JobPlatform;
use pmstack_simhw::{FaultKind, DEFAULT_SEGMENT_HOSTS};
use FaultKind::*;
use Op::*;

/// ε of host `i` in a directed fleet.
fn eps(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.94 + 0.01 * (i % 9) as f64).collect()
}

/// The oracle over part `kind` hosts of ε `eps`, jittered by `sigma` from
/// `seed`, and one platform per `(fast-forward, segment hosts, scoped)`,
/// each firing the planned faults of `ops` from its own fault plan.
fn platforms(
    kind: usize,
    eps: &[f64],
    jitter: (f64, u64),
    builds: &[(bool, usize, bool)],
    ops: &[Op],
) -> Run {
    let ((sigma, seed), config) = (jitter, phase(8.0, true));
    let oracle = Oracle::new(kind, eps, config, sigma, seed);
    let plan = fault_plan(ops, eps.len());
    let suts = (builds.iter()).map(|&(ff, seg, scoped)| {
        let p = JobPlatform::new(part_model(kind), oracle.nodes.clone(), config);
        let mut p = p
            .with_fault_plan(plan.clone())
            .with_jitter(sigma, seed)
            .with_segment_hosts(seg);
        p.set_fast_forward(ff);
        PlatformSut::paired(p, (ff, sigma == 0.0, scoped), donor(kind, eps, config))
    });
    let suts = suts.collect();
    Run {
        oracle,
        suts,
        platform: true,
        traced: false,
        scoped: false,
    }
}

/// What the run's first platform shows.
fn shown(run: &Run) -> Observed {
    run.suts[0].0.observe(false, &[])
}

fn steady(run: &Run) -> bool {
    shown(run).steady.unwrap()
}

/// The platform with fast-forward armed and disarmed runs the seed's
/// iterations, jittered or not, through limit writes, caps and every
/// `FaultKind` fired from the fault plan.
#[test]
fn columnar_matches_seed_semantics() -> Checked {
    let mut ops = vec![Uniform(190.0), Step(0.2), Step(0.2)];
    ops.extend([Fault(1, NodeDeath, true), Step(0.2)]);
    ops.extend([Fault(2, StuckRapl { pinned_w: 150.0 }, true), Step(0.2)]);
    ops.extend([Limit(3, 170.0), Cap(4, Some(1.9)), Step(0.2), Step(0.2)]);
    ops.extend([Fault(5, TelemetryDropout { iterations: 2 }, true)]);
    ops.extend([Fault(6, TransientMsrFault, true), Step(0.2)]);
    ops.extend([Limits(0, 7, 11), Step(0.2), Cap(4, None), Idle(60)]);
    for jitter in [(0.0, 3), (0.01, 11)] {
        let builds = [(true, 3, false), (false, DEFAULT_SEGMENT_HOSTS, false)];
        platforms(0, &eps(7), jitter, &builds, &ops).run(ops.clone())?;
    }
    Ok(())
}

/// A stable jittered segment keeps its limit, power, lead, alive and fresh
/// slices while its compute-time slice is redrawn every iteration, across
/// fresh buffers (straight after a dropout, so a settled segment that is
/// not quiescent writes its limits into them) and buffers another platform
/// filled. The fast platform
/// and its twin with fast-forward off both run the oracle's iterations;
/// the fast one keeps the points whose span the enforced limit is still
/// inside, so a span that survived a nudge, a cap, a death or a workload
/// change it should not have shows as a wrong outcome.
#[test]
fn reused_outcome_slices_match_the_stepping_twin() -> Checked {
    let builds = [(true, 4, false), (false, DEFAULT_SEGMENT_HOSTS, false)];
    let mut ops = vec![
        Uniform(180.0),
        Idle(300),
        Fault(3, TelemetryDropout { iterations: 3 }, false),
    ];
    ops.extend([
        Buffers(false),
        Step(0.2),
        Step(0.2),
        Buffers(true),
        Step(0.2),
        Step(0.2),
    ]);
    ops.extend([Nudge(2, 1.5), Step(0.2), Cap(5, Some(2.0)), Step(0.2)]);
    ops.extend([Fault(7, NodeDeath, false), Step(0.2)]);
    ops.extend([Config(4.0, false), Step(0.2), Tick, Idle(200)]);
    let run = platforms(0, &eps(9), (0.01, 5), &builds, &ops);
    run.run(ops)
}

/// Fast-forward engages once the filters settle, stays bit-identical to the
/// seed's iterations through capture and replay, is disarmed by a control
/// write and re-arms once the new limit settles.
#[test]
fn fast_forward_replay_is_bit_identical_over_long_run() -> Checked {
    let (eps, ff) = ([0.97, 1.0, 1.04], [(true, DEFAULT_SEGMENT_HOSTS, false)]);
    let mut run = platforms(0, &eps, (0.0, 7), &ff, &[]);
    for h in 0..eps.len() {
        run.apply(Limit(h, 180.0))?;
    }
    run.apply(Idle(250))?;
    assert!(
        steady(&run),
        "fast-forward must arm once the filters settle"
    );
    run.apply(Limit(1, 200.0))?;
    assert!(!steady(&run), "control writes must disarm replay");
    run.apply(Idle(150))?;
    assert!(
        steady(&run),
        "replay must re-arm once the new limit settles"
    );
    Ok(())
}

/// Single-host disturbances on segment-edge hosts of a sharded platform
/// (the last host of segment 0, the first of segment 1, the lone host of
/// the ragged last segment, and a mid-segment dropout): the run stays the
/// oracle's, each disturbance disarms fast-forward and it re-arms once the
/// disturbance settles, so a one-host write wedges no other segment out of
/// its cache.
#[test]
fn sharded_single_host_writes_stay_bit_identical_and_rearm() -> Checked {
    let n = 13;
    let mut run = platforms(0, &eps(n), (0.0, 23), &[(true, 3, false)], &[]);
    for h in 0..n {
        run.apply(Limit(h, 180.0))?;
    }
    run.apply(Idle(200))?;
    assert_eq!(shown(&run).snapshot.unwrap().segments, 5);
    assert!(steady(&run), "replay should be armed by 200 iterations");
    let dropout = Fault(7, TelemetryDropout { iterations: 3 }, false);
    let writes = [(Limit(2, 200.0), 119), (Limit(3, 170.0), 119)];
    let more = [
        (Limit(12, 195.0), 119),
        (Nudge(7, 0.5), 119),
        (dropout, 139),
    ];
    for (op, settle) in writes.into_iter().chain(more) {
        run.apply(op)?;
        assert!(!steady(&run), "{op:?} must disarm replay");
        run.apply(Idle(settle))?;
        assert!(steady(&run), "replay should re-arm after {op:?} settles");
    }
    Ok(())
}

/// The platform's operating-point resolve agrees with the `Node`'s own
/// under frequency caps on every part: a control op reads back every host's
/// `host_operating_point`, compared with the oracle `Node`'s.
#[test]
fn platform_operating_point_matches_node_resolve() -> Checked {
    let builds = [(true, DEFAULT_SEGMENT_HOSTS, false)];
    for kind in 0..PARTS {
        let mut ops = vec![Config(8.0, false), Cap(0, Some(1.9)), Step(0.2)];
        ops.extend([Cap(1, Some(1.4)), Step(0.2), Cap(0, None)]);
        platforms(kind, &[1.0, 1.03], (0.0, 0), &builds, &ops).run(ops)?;
    }
    Ok(())
}

/// The pre-step pass fans out by segment once two segments resolve. On a
/// multi-segment fleet (tiny segments, a ragged last one, jitter on and
/// off, fast-forward on and off), through uniform and batched limit writes,
/// a death, a stuck latch, a dropout and one-host churn, the platform that
/// fans out on the pool and its twin kept on the calling thread by
/// `sequential_scope` both run the oracle's iterations.
#[test]
fn chunked_prestep_matches_the_calling_thread() -> Checked {
    // Plain steps, not idle stretches: each stretch ends in a printed
    // comparison of every host's `Node`, which dominates this case's time.
    let mut ops = vec![Uniform(180.0)];
    ops.extend([Step(0.2); 12].into_iter().chain([Limits(0, 37, 5)]));
    ops.extend(
        [Step(0.2); 8]
            .into_iter()
            .chain([Fault(5, NodeDeath, false)]),
    );
    ops.extend([Limits(0, 37, 9), Step(0.2)]);
    ops.extend([Fault(9, StuckRapl { pinned_w: 150.0 }, false)]);
    ops.extend([Fault(30, TelemetryDropout { iterations: 2 }, false)]);
    ops.extend([Step(0.2); 9].into_iter().chain([Uniform(205.0)]));
    ops.extend([Step(0.2); 10]);
    for i in 40..48 {
        ops.extend([Limit(0, 190.0 + f64::from(i % 2)), Step(0.2)]);
    }
    ops.extend([Step(0.2); 32]);
    for seg in [1, 3, 7] {
        for sigma in [0.0, 0.01] {
            for ff in [true, false] {
                let builds = [(ff, seg, false), (ff, seg, true)];
                platforms(0, &eps(37), (sigma, 5), &builds, &ops).run(ops.clone())?;
            }
        }
    }
    Ok(())
}
