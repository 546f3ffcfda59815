//! Directed cases of the lockstep harness (`tests/lockstep/main.rs` states
//! its contract) for the sharded `NodeBank`: each drives the harness's
//! oracle and bank adapters through one fixed schedule, compared after
//! every op as the properties compare them, and states the segment-cache
//! facts the schedule is built to reach (settled segments, replay counts,
//! geometry) outright, so the segment model is pinned too and not only
//! agreed with.

#[path = "lockstep/harness.rs"]
mod harness;

use harness::*;
use pmstack_simhw::{
    quartz_spec, standard_classes, ClassId, FaultKind, Node, NodeBank, NodeClass, NodeId,
    RaplDomain, Seconds, StepReport, DEFAULT_SEGMENT_HOSTS,
};
use proptest::prelude::TestCaseError;
use FaultKind::*;
use Op::*;
use RaplDomain::{Dram, Pp0};

/// ε of host `i` in a directed fleet.
fn eps(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.94 + 0.01 * (i % 9) as f64).collect()
}

/// The oracle over part `kind` hosts of ε `eps`, and one bank adapter per
/// `(bank, partial)`: each bank built from the oracle's `Node`s.
fn run_of(oracle: Oracle, banks: Vec<(NodeBank, bool)>, kind: usize) -> Run {
    let config = phase(8.0, true);
    let suts = (banks.into_iter())
        .map(|(bank, partial)| BankSut::new(bank, kind, config, (partial, false)).paired())
        .collect();
    Run {
        oracle,
        suts,
        platform: false,
        traced: false,
        scoped: false,
    }
}

/// A sharded bank of `seg`-host segments over `n` hosts of part `kind`, and
/// a flat one beside it when `flat`.
fn banks(kind: usize, n: usize, seg: usize, flat: bool) -> Run {
    let oracle = Oracle::new(kind, &eps(n), phase(8.0, true), 0.0, 0);
    let mut sharded = NodeBank::from_nodes(oracle.nodes.clone());
    sharded.set_segment_hosts(seg);
    let mut banks = vec![(sharded, true)];
    if flat {
        banks.push((NodeBank::from_nodes(oracle.nodes.clone()), false));
    }
    run_of(oracle, banks, kind)
}

/// What the run's first system shows.
fn shown(run: &Run) -> Observed {
    run.suts[0].0.observe(false, &[])
}

/// Each segment of the run's first system: settled or not.
fn settled(run: &Run) -> Vec<bool> {
    shown(run).segments.unwrap().iter().map(|s| s.1).collect()
}

/// Step at 0.2 s until the first system reports every segment settled
/// (bounded, so a bug fails fast).
fn settle(run: &mut Run) -> Checked {
    for _ in 0..200 {
        run.apply(Step(0.2))?;
        if shown(run).report.unwrap().all_settled {
            return Ok(());
        }
    }
    panic!("bank failed to settle in 200 iterations");
}

/// The report of one more step at `dt`.
fn step(run: &mut Run, dt: f64) -> Result<StepReport, TestCaseError> {
    run.apply(Step(dt))?;
    Ok(shown(run).report.unwrap())
}

fn report(all_settled: bool, segments_replayed: usize, segments_stepped: usize) -> StepReport {
    StepReport {
        all_settled,
        segments_replayed,
        segments_stepped,
    }
}

/// Sharded stepping with replay is bit-identical to flat stepping and to
/// the per-`Node` oracle on segments of one host, ragged last segments and
/// fleets smaller than one segment. An idle stretch piles pending replays
/// up while reads go on (the harness materialises every host every 500
/// iterations), then writes, faults, re-shards and rebuilds the bank
/// straight out of it: every path that writes an energy cell must first
/// write the count.
#[test]
fn sharded_replay_is_bit_identical_to_flat_and_reference() -> Checked {
    for (n, seg, idle) in [(13, 4, 1100), (1, 1, 300), (7, 9, 300), (11, 1, 300)] {
        let mut run = banks(0, n, seg, true);
        for op in [Limit(0, 160.0), Step(0.2), Idle(idle)] {
            run.apply(op)?;
        }
        let replays = shown(&run).replays.unwrap();
        assert!(replays > 0, "{n} hosts: nothing replayed");
        let mut ops = vec![Limit(n - 1, 170.0), Fault(0, TransientMsrFault, false)];
        ops.extend([
            Reshard(3),
            Step(0.2),
            Idle(idle / 2),
            Fault(n / 2, NodeDeath, false),
        ]);
        run.run([ops, vec![Rebuild, Idle(40), Reshard(seg)]].concat())?;
    }
    Ok(())
}

/// `Resolver::resolve_segment` keeps the slots whose host's enforced limit
/// is still inside the cached point's span, so a span kept across a write
/// that changed the point's other inputs would serve a wrong point. Through
/// limits creeping through their filters (and nudged inside a span),
/// frequency caps, stuck planes, deaths and a load swap the bank is told
/// about, on a flat bank re-sharded mid-run, every slot must hold what the
/// per-host resolve returns, and a slot the pass did not report rewritten
/// must be the one it held before (the adapter keeps unreported slots).
#[test]
fn resolved_segments_match_the_per_host_resolve() -> Checked {
    for kind in [0, 3] {
        let run = banks(kind, 9, DEFAULT_SEGMENT_HOSTS, false);
        let mut ops = vec![Limit(0, 150.0), Limit(4, 120.0), Step(0.2), Nudge(0, 1.5)];
        ops.extend([
            Step(0.2),
            Nudge(4, -2.5),
            Step(0.2),
            Cap(2, Some(1.8)),
            Step(0.2),
        ]);
        ops.extend([Reshard(3), Step(0.2), Plane(5, Pp0, 60.0, true), Step(0.2)]);
        ops.extend([
            Fault(6, NodeDeath, false),
            Step(0.2),
            Config(3.0, false),
            Step(0.2),
        ]);
        run.run([ops, vec![Cap(2, None), Idle(12)]].concat())?;
    }
    Ok(())
}

/// `from_part` fills every column from one part instead of ingesting a
/// `Node` per host, so it must build the bank `from_nodes` builds from
/// `Node`s made like the part: on every part, every host materialises to
/// the oracle's `Node`, and the two banks, sharded alike, step bit for bit
/// alike over 60 iterations at jittered `dt`s with creeping limits. An ε
/// that `Node::new` refuses is refused with its error.
#[test]
fn a_bank_built_from_one_part_matches_one_built_from_nodes() -> Checked {
    let n = 9;
    for kind in 0..PARTS {
        let oracle = Oracle::new(kind, &eps(n), phase(8.0, true), 0.0, 0);
        let model = part_model(kind);
        let part = || part_node(kind, &model, NodeId(7), 1.0).unwrap();
        let mut hosts: Vec<_> = oracle.nodes.iter().map(|n| (n.id(), n.eps())).collect();
        let mut from_part = NodeBank::from_part(part(), &hosts).unwrap();
        let mut from_nodes = NodeBank::from_nodes(oracle.nodes.clone());
        assert_eq!((from_part.len(), from_part.alive_count()), (n, n));
        from_part.set_segment_hosts(4);
        from_nodes.set_segment_hosts(4);
        let mut ops = Vec::new();
        for i in 0..60 {
            if i % 20 == 0 {
                let w = |h: usize| 100.0 + 50.0 * ((h + i) % 5) as f64;
                ops.extend((0..n).map(|h| Limit(h, w(h))));
            }
            let dt = 0.05 + 0.35 * ((i * 37) % 101) as f64 / 100.0;
            ops.push(Step(if i % 3 == 0 { 0.2 } else { dt }));
        }
        run_of(oracle, vec![(from_part, true), (from_nodes, true)], kind).run(ops)?;

        for (at, bad) in [(0, 0.0), (4, -1.0), (8, f64::NAN)] {
            hosts[at].1 = bad;
            let refused = NodeBank::from_part(part(), &hosts).map(|_| ());
            assert!(refused.is_err(), "ε {bad} on part {kind}");
            assert_eq!(refused, part_node(kind, &model, NodeId(0), bad).map(|_| ()));
            hosts[at].1 = 1.0;
        }
    }
    Ok(())
}

/// Limit writes against stuck, glitched, dead and silent hosts, in every
/// order relative to the fault and with or without a step between: the
/// bank resolves the write in its columns, the oracle on the `Node`, and
/// both must answer alike and leave the same `Node` behind.
#[test]
fn writes_and_faults_commute_like_on_the_node() -> Checked {
    let faults = [
        StuckRapl { pinned_w: 140.0 },
        TransientMsrFault,
        NodeDeath,
        TelemetryDropout { iterations: 2 },
    ];
    for fault in faults {
        let (a, b, f) = (Limit(1, 150.0), Limit(1, 400.0), Fault(1, fault, false));
        for order in [
            [a, b, f],
            [a, f, b],
            [f, a, b],
            [b, a, f],
            [b, f, a],
            [f, b, a],
        ] {
            for step_between in [false, true] {
                let steps = order.iter().flat_map(|&op| {
                    let step = step_between.then_some(Step(0.2));
                    std::iter::once(op).chain(step)
                });
                banks(0, 3, 2, true).run(steps.collect())?;
            }
        }
    }
    Ok(())
}

/// A plane limit write runs on a `Node` materialised from the columns and
/// is ingested back. When the host's PL1 was just rewritten in the columns,
/// the materialised `Node` must carry it, the PL1 must survive the round
/// trip, and so must the plane limits under the next PL1 write: on every
/// class with planes, each control op is followed by the written host's
/// `Node` against the oracle's, and each step by every read.
#[test]
fn domain_limit_after_a_pl1_write_round_trips() -> Checked {
    for kind in 3..PARTS {
        let tdp = part_model(kind).spec().tdp_per_node().value();
        let mut run = banks(kind, 2, 1, true);
        for (round, h) in [(0, 0), (1, 1), (2, 1), (3, 0)] {
            let pkg = tdp * (0.7 + 0.05 * f64::from(round));
            run.apply(Limit(h, pkg))?;
            run.apply(Plane(h, Pp0, pkg * 0.5, false))?;
            run.apply(Limit(h, pkg * 0.9))?;
            run.apply(Plane(h, Dram, 11.0, false))?;
            run.apply(Step(0.2))?;
        }
        run.check_all(&"the last round")?;
    }
    Ok(())
}

/// Ingest then materialise is the identity, for `Node`s carrying every
/// kind of state the columns hold: mid-filter energy and enforcement, a
/// frequency cap, a stuck PKG latch, dead and suspect health, a telemetry
/// countdown, a pending glitch, and PP0/DRAM limits, plane cells and a
/// stuck plane. The oracle's `Node`s are ingested into a new bank directly,
/// and the bank that took the same ops is rebuilt from its own materialised
/// `Node`s; both must print (`Debug` prints every field) as the oracle's.
/// A fault that changes nothing runs the materialise → `Node` → ingest
/// route and must leave the host as it was.
#[test]
fn ingest_then_materialise_round_trips_every_state() -> Checked {
    let noop = TelemetryDropout { iterations: 0 };
    for kind in [0, 3] {
        let mut run = banks(kind, 7, 3, false);
        let mut ops = vec![Limit(1, 140.0), Cap(1, Some(1.9))];
        ops.extend([Fault(2, StuckRapl { pinned_w: 150.0 }, false)]);
        ops.extend([Fault(3, NodeDeath, false), Mark(4, true)]);
        ops.extend([Fault(4, TelemetryDropout { iterations: 4 }, false)]);
        ops.extend([Plane(5, Pp0, 100.0, false), Plane(5, Dram, 11.0, false)]);
        ops.extend([Plane(6, Pp0, 120.0, true), Plane(6, Pp0, 90.0, false)]);
        ops.extend([
            Step(0.2),
            Step(0.2),
            Step(0.2),
            Fault(5, TransientMsrFault, false),
        ]);
        for op in ops {
            run.apply(op)?;
        }
        let ingested = NodeBank::from_nodes(run.oracle.nodes.clone());
        for (h, want) in run.oracle.nodes.iter().enumerate() {
            assert_eq!(
                format!("{:?}", ingested.node(h)),
                format!("{want:?}"),
                "host {h}"
            );
        }
        let alive = run.oracle.nodes.iter().filter(|n| !n.is_dead()).count();
        assert_eq!(ingested.alive_count(), alive);
        run.apply(Rebuild)?;
        for h in 0..7 {
            run.apply(Fault(h, noop, false))?;
            run.apply(Fault(h, noop, false))?;
        }
        run.run(vec![Rebuild, Step(0.2)])?;
    }
    Ok(())
}

/// The bank keeps one prototype, and with it the part's sub-plane split and
/// the class id: a node differing in either would be materialised as the
/// other, so the bank refuses to mix them before the ingest (which assumes
/// the bank's part) can fail some other way.
#[test]
fn mixed_classes_do_not_share_a_bank() {
    let model = part_model(0);
    let first = part_node(0, &model, NodeId(0), 1.0).unwrap();
    let plain = NodeClass::pkg_only("quartz", quartz_spec());
    let split = standard_classes().swap_remove(0);
    for (cid, class) in [(ClassId(1), plain), (ClassId(0), split)] {
        let odd = Node::with_class(NodeId(1), cid, &class, &model, 1.0).unwrap();
        let nodes = vec![first.clone(), odd];
        let built = std::panic::catch_unwind(|| NodeBank::from_nodes(nodes));
        let message = built.err().and_then(|e| e.downcast::<&str>().ok());
        let refused = message.is_some_and(|m| m.contains("one part and one class"));
        assert!(
            refused,
            "class {cid} with {:?} shared a bank",
            class.domains
        );
    }
}

/// Segments cover the fleet in order, the last one ragged, and a fleet
/// smaller than one segment is one segment; the harness compares every
/// segment's range with its model after every op.
#[test]
fn segment_geometry_covers_ragged_fleets() -> Checked {
    let mut run = banks(0, 13, 4, false);
    let ranges = |run: &Run| shown(run).segments.unwrap().into_iter().map(|s| s.0);
    assert_eq!(
        ranges(&run).collect::<Vec<_>>(),
        [0..4, 4..8, 8..12, 12..13]
    );
    let mut bank = NodeBank::from_nodes(run.oracle.nodes.clone());
    bank.set_segment_hosts(4);
    assert_eq!((bank.segment_of(11), bank.segment_of(12)), (2, 3));
    for op in [Step(0.2), Limit(12, 150.0), Reshard(5), Step(0.2)] {
        run.apply(op)?;
    }
    assert_eq!(ranges(&run).collect::<Vec<_>>(), [0..5, 5..10, 10..13]);

    let mut small = banks(0, 3, 1024, false);
    assert!(ranges(&small).eq(std::iter::once(0..3)), "one segment");
    small.apply(Step(0.2))
}

/// A control write dirties its host's segment and no other: the next step
/// replays the rest and steps that one.
#[test]
fn control_write_invalidates_only_its_segment() -> Checked {
    let mut run = banks(0, 12, 4, true);
    settle(&mut run)?;
    assert_eq!(settled(&run), [true; 3]);
    run.apply(Limit(5, 150.0))?;
    assert_eq!(
        settled(&run),
        [true, false, true],
        "written segment must re-resolve"
    );
    let report = step(&mut run, 0.2)?;
    assert_eq!((report.segments_replayed, report.segments_stepped), (2, 1));
    Ok(())
}

/// A fault on the first host of a segment, a cap on the last host of the
/// one before it and the cap's clearing each dirty that host's segment
/// alone, and the fleet settles again after each.
#[test]
fn fault_and_restore_on_segment_edge_hosts() -> Checked {
    let mut run = banks(0, 8, 4, true);
    settle(&mut run)?;
    let dropout = Fault(4, TelemetryDropout { iterations: 2 }, false);
    for (op, after) in [
        (dropout, [true, false]),
        (Cap(3, Some(1.8)), [false, true]),
        (Cap(3, None), [false, true]),
    ] {
        run.apply(op)?;
        assert_eq!(settled(&run), after, "after {op:?}");
        settle(&mut run)?;
    }
    assert_eq!(settled(&run), [true; 2]);
    Ok(())
}

/// Health is bookkeeping for the trust layer; it never feeds the stepping
/// arithmetic, so flipping it must not cost a re-resolve.
#[test]
fn health_marks_do_not_invalidate_segments() -> Checked {
    let mut run = banks(0, 6, 2, true);
    settle(&mut run)?;
    run.apply(Mark(0, true))?;
    run.apply(Mark(0, false))?;
    assert_eq!(settled(&run), [true; 3]);
    assert_eq!(step(&mut run, 0.2)?, report(true, 3, 0));
    Ok(())
}

/// A dead host never steps again, so a telemetry countdown or a pending
/// MSR glitch it holds is never consumed and cannot keep its segment from
/// replaying. Hosts that die holding a `TelemetryDropout` and a
/// `TransientMsrFault`, and one glitched after it died, dirty their
/// segments; once those settle, every segment replays, through an idle
/// stretch the harness reads back every 500 iterations, and every output
/// still matches the per-`Node` oracle.
#[test]
fn dead_hosts_holding_one_shot_state_replay_once_settled() -> Checked {
    let mut run = banks(0, 12, 4, true);
    settle(&mut run)?;
    for op in [
        Fault(1, TelemetryDropout { iterations: 50 }, false),
        Fault(1, NodeDeath, false),
        Fault(5, TransientMsrFault, false),
        Fault(5, NodeDeath, false),
        Fault(9, NodeDeath, false),
        Fault(9, TransientMsrFault, false),
    ] {
        run.apply(op)?;
    }
    assert_eq!(settled(&run), [false; 3]);
    settle(&mut run)?;
    assert_eq!(step(&mut run, 0.2)?, report(true, 3, 0));
    let replays = shown(&run).replays.unwrap();
    run.apply(Idle(600))?;
    assert_eq!(shown(&run).replays.unwrap(), replays + 3 * 600);
    let nodes = &run.oracle.nodes;
    assert!(nodes[1].is_dead() && nodes[1].telemetry_down(), "host 1");
    for h in [5, 9] {
        let node = format!("{:?}", nodes[h]);
        assert!(
            nodes[h].is_dead() && node.contains("msr_glitch: true"),
            "host {h}"
        );
    }
    run.check_all(&"after the idle stretch")
}

/// A different `dt` changes the filter coefficient, so a settled fixed
/// point no longer proves the update a no-op: the step re-steps every
/// segment.
#[test]
fn replay_requires_matching_dt() -> Checked {
    let mut run = banks(0, 4, 2, true);
    settle(&mut run)?;
    let report = step(&mut run, 0.5)?;
    assert_eq!((report.segments_replayed, report.segments_stepped), (0, 2));
    Ok(())
}

/// The step report counts replayed and stepped segments, and says whether
/// enforcement is still in flight.
#[test]
fn step_report_counts_partial_invalidation() -> Checked {
    let mut run = banks(0, 9, 3, true);
    settle(&mut run)?;
    assert_eq!(step(&mut run, 0.2)?, report(true, 3, 0));
    run.apply(Limit(8, 140.0))?;
    let report = step(&mut run, 0.2)?;
    assert_eq!((report.segments_replayed, report.segments_stepped), (2, 1));
    assert!(!report.all_settled, "re-enforcement is in flight");
    Ok(())
}

/// The span is tight at the bank, not only safe: while limits creep down
/// through their enforcement filters, a host is searched exactly when the
/// per-host resolve starts returning a different point (the properties in
/// `tests/lockstep/main.rs` check that the points are right), and not once
/// more.
#[test]
fn a_creeping_limit_is_searched_only_when_its_point_moves() {
    let (eps, config) = ([0.9, 0.92, 0.94, 0.96, 0.98, 1.0], phase(8.0, true));
    let bank = NodeBank::from_nodes(Oracle::new(0, &eps, config, 0.0, 0).nodes);
    let mut sut = BankSut::new(bank, 0, config, (true, true));
    for h in 0..eps.len() {
        sut.control(&Limit(h, 140.0 + 4.0 * h as f64)).unwrap();
    }
    let mut moves = vec![0; eps.len()];
    for _ in 0..2000 {
        let before = sut.reported.clone();
        sut.step(Seconds(0.05), false);
        for (m, (a, b)) in moves.iter_mut().zip(before.iter().zip(&sut.reported)) {
            *m += u32::from(a != b);
        }
        if sut.report.all_settled {
            break;
        }
    }
    assert!(
        sut.report.all_settled,
        "enforcement must reach its fixed point"
    );
    assert_eq!(sut.searched, moves);
    assert!(
        moves.iter().all(|&m| m > 3),
        "limits crossed several steps: {moves:?}"
    );
}
