//! The lockstep harness: every path that steps the simulated RAPL device —
//! a flat `NodeBank`, a sharded one stepped partially, a `JobPlatform` with
//! fast-forward on or off, the daemon's tick — against one per-`Node`
//! oracle, bit for bit, after every op.
//!
//! * **One oracle** (`harness::Oracle`): `Node`s stepped by `try_step`, and
//!   for a platform the seed's iteration formula over those `Node`s
//!   (jittered compute times, the barrier at the slowest, the limits
//!   enforced before the step, last-known readings while telemetry is
//!   out). A segment model (`harness::Segs`) driven by the oracle's
//!   per-host facts predicts each system's segment caches: a stepped
//!   segment settles when every filter in it held its bits, is quiescent
//!   when no host read back stale, and replays while both hold at the same
//!   `dt` bits.
//! * **One generator** (`harness::op`): single, batched (with holes) and
//!   uniform limit writes, caps, every `FaultKind` now or planned, plane
//!   limits and stuck planes, health marks, re-shards, workload changes,
//!   rebuilds, buffer swaps, steps at jittered `dt`s, the daemon's tick and
//!   idle stretches that pile up pending replays; per case, the part (three
//!   quartz socket counts, three classes with planes), fleet, sharding,
//!   constructor, jitter and pool or `sequential_scope`.
//! * **One comparator** (`harness::same` over `harness::Observed`): after
//!   every op, replies, energies through the segment walk, limits,
//!   liveness, the last step's operating points, results and report,
//!   segment caches, replay counts, steadiness, the outcome, the one before
//!   it and the fleet snapshot; after a control op also every per-host read
//!   and the `Node` each touched host materialises (`Debug` prints every
//!   field; plane energies, filters and energy-status MSRs are read by
//!   name too). Floats compare by `==` as a case runs, and by their printed
//!   bits, with every `Node` materialised, after each idle stretch and at
//!   the end.
//!
//! **The adapter contract.** A system under test implements `harness::Sut`:
//! `control` applies a non-step op through the system's public API and
//! answers a count or a value's bits, or the refusal and, where the API
//! names it, the host it stopped at; `planned` fires a planned fault unless
//! the system fires its own plan; `step` runs one iteration (a bank
//! resolves through the `Resolver` and steps at `dt`, a platform runs to
//! its barrier; the daemon's tick runs under `sequential_scope`, then
//! applies every pending replay); `observe` fills every field of
//! `Observed` its public reads can; `segment_hosts` reports the sharding
//! its segment model follows. A new path that steps or writes the device
//! gets an adapter here, not a suite of its own. The write counters and
//! the `RaplClamp` journal are process-wide: `tests/lockstep_counters.rs`,
//! a binary no other test shares, compares them. `tests/shards.rs` (banks)
//! and `tests/columnar.rs` (platforms) hold directed cases: fixed schedules
//! through the same oracle, adapters and comparator, each stating the
//! segment-cache or fast-forward facts its schedule reaches.

mod harness;

use harness::*;
use pmstack_runtime::JobPlatform;
use pmstack_simhw::{Node, NodeBank, NodeId, DEFAULT_SEGMENT_HOSTS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A flat bank stepping everything and a sharded one, built by
    /// `from_part` or `from_nodes`, stepping partially: both are the
    /// oracle's `Node`s. `from_part` refuses an ε as `Node::new` does.
    #[test]
    fn banks_step_like_the_per_node_oracle(
        kind in 0usize..PARTS,
        eps in prop::collection::vec(0.85f64..1.15, 1..34),
        shape in (1usize..10, 0u8..2, 0u8..2),
        ops in prop::collection::vec(op(true, 1..800), 0..32),
        bad in (prop_oneof![Just(0.0), Just(-1.0), Just(f64::NAN)], 0usize..64),
    ) {
        let ((seg, from_part, scoped), n) = ((shape.0, shape.1 == 1, shape.2 == 1), eps.len());
        let config = phase(8.0, true);
        let oracle = Oracle::new(kind, &eps, config, 0.0, 0);
        let model = part_model(kind);
        let part = || part_node(kind, &model, NodeId(7), 1.0).unwrap();
        let mut hosts: Vec<_> = oracle.nodes.iter().map(|n| (n.id(), n.eps())).collect();
        let mut sharded = match from_part {
            true => NodeBank::from_part(part(), &hosts).unwrap(),
            false => NodeBank::from_nodes(oracle.nodes.clone()),
        };
        sharded.set_segment_hosts(seg);
        hosts[bad.1 % n].1 = bad.0;
        let refused = NodeBank::from_part(part(), &hosts).map(|_| ());
        prop_assert_eq!(refused, part_node(kind, &model, NodeId(0), bad.0).map(|_| ()));

        let flat = NodeBank::from_nodes(oracle.nodes.clone());
        let suts = vec![
            BankSut::new(flat, kind, config, (false, scoped)).paired(),
            BankSut::new(sharded, kind, config, (true, scoped)).paired(),
        ];
        Run { oracle, suts, platform: false, traced: false, scoped }.run(ops)?;
    }

    /// A platform with fast-forward on, sharded and built by `from_hosts`
    /// or `new`, and its twin with fast-forward off: both run the oracle's
    /// iterations. Every jittered case runs one idle stretch long enough for
    /// its segments to settle, so it reaches segments that are stable under
    /// jitter and keeps them across both sides of the double buffer.
    #[test]
    fn platforms_run_like_the_per_node_oracle(
        kind in 0usize..PARTS,
        eps in prop::collection::vec(0.92f64..1.08, 1..14),
        shape in (1usize..6, 0u8..2, 0u8..2),
        jitter in (prop_oneof![Just(0.0), Just(0.0), 0.002f64..0.02], 0u64..u64::MAX),
        ops in prop::collection::vec(op(false, 1..800), 0..40),
        settle in (0usize..64, 100u32..400),
    ) {
        let ((seg, from_hosts, scoped), n) = ((shape.0, shape.1 == 1, shape.2 == 1), eps.len());
        let (sigma, seed) = jitter;
        let mut ops = ops;
        if sigma > 0.0 {
            ops.insert(settle.0 % (ops.len() + 1), Op::Idle(settle.1));
        }
        let config = phase(8.0, true);
        let oracle = Oracle::new(kind, &eps, config, sigma, seed);
        let plan = fault_plan(&ops, n);
        let build = |nodes: Vec<Node>, from_hosts: bool, ff: bool, seg: usize| {
            let model = part_model(kind);
            let hosts: Vec<_> = nodes.iter().map(|n| (n.id(), n.eps())).collect();
            let p = match from_hosts && kind <= 2 {
                true => JobPlatform::from_hosts(model, &hosts, config).unwrap(),
                false => JobPlatform::new(model, nodes, config),
            };
            let mut p = p.with_fault_plan(plan.clone()).with_jitter(sigma, seed).with_segment_hosts(seg);
            p.set_fast_forward(ff);
            p
        };
        let (fast, calm) = (build(oracle.nodes.clone(), from_hosts, true, seg), sigma == 0.0);
        let twin = build(oracle.nodes.clone(), false, false, DEFAULT_SEGMENT_HOSTS);
        let suts = vec![
            PlatformSut::paired(fast, (true, calm, scoped), donor(kind, &eps, config)),
            PlatformSut::paired(twin, (false, calm, scoped), donor(kind, &eps, config)),
        ];
        Run { oracle, suts, platform: true, traced: false, scoped }.run(ops)?;
    }
}

// Directed cases for the two shortcuts a jittered iteration takes, through
// the same oracle, adapters and comparator: a stable span at target steps
// its energy alone at any `dt` (`simhw::bank` segments), and a segment
// whose points and results did not move keeps its outcome slices (the
// platform's outcome epoch). Each runs a sharded bank stepped partially and
// platforms with fast-forward on beside the references that take neither
// shortcut: a flat bank stepping everything, a platform with fast-forward
// off.

use pmstack_simhw::{FaultKind, Seconds};

/// ε of host `i` in a directed fleet.
fn directed_eps(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.94 + 0.01 * (i % 9) as f64).collect()
}

/// The oracle over `n` quartz hosts, jittered by `sigma`, with a sharded
/// bank (`seg`-host segments, stepped partially) and a flat one stepping
/// everything; with `platforms`, steps are platform iterations and a
/// platform with fast-forward on (`seg`-host segments) and one with it off
/// run beside the banks.
fn directed(n: usize, seg: usize, sigma: f64, platforms: bool, ops: &[Op]) -> Run {
    let (config, eps) = (phase(8.0, true), directed_eps(n));
    let oracle = Oracle::new(0, &eps, config, sigma, 7);
    let mut sharded = NodeBank::from_nodes(oracle.nodes.clone());
    sharded.set_segment_hosts(seg);
    let flat = NodeBank::from_nodes(oracle.nodes.clone());
    let mut suts = vec![
        BankSut::new(sharded, 0, config, (true, false)).paired(),
        BankSut::new(flat, 0, config, (false, false)).paired(),
    ];
    if platforms {
        let plan = fault_plan(ops, n);
        for (ff, seg) in [(true, seg), (false, DEFAULT_SEGMENT_HOSTS)] {
            let p = JobPlatform::new(part_model(0), oracle.nodes.clone(), config);
            let mut p = (p.with_fault_plan(plan.clone()))
                .with_jitter(sigma, 7)
                .with_segment_hosts(seg);
            p.set_fast_forward(ff);
            let donor = donor(0, &eps, config);
            suts.push(PlatformSut::paired(p, (ff, sigma == 0.0, false), donor));
        }
    }
    Run {
        oracle,
        suts,
        platform: platforms,
        traced: false,
        scoped: false,
    }
}

/// Apply `ops` in order, each compared as the properties compare it.
fn apply(run: &mut Run, ops: &[Op]) -> Checked {
    ops.iter().try_for_each(|&op| run.apply(op))
}

/// Which segments of the run's sharded bank sit at target.
fn at_target(run: &Run) -> Vec<bool> {
    run.suts[0].0.observe(false, &[]).at_target.unwrap()
}

/// The trust epoch of the run's platform with fast-forward on.
fn trust_epoch(run: &Run) -> u64 {
    run.suts[2].0.observe(false, &[]).trust_epoch.unwrap()
}

/// (a) A jittered span whose filters all reach their targets steps its
/// energy alone, and every way out of that — a cap write, a fault, a
/// telemetry dropout, a workload change — is stepped in full again until
/// the span is back at target.
#[test]
fn a_span_at_target_steps_its_energy_alone_until_disturbed() -> Checked {
    use FaultKind::*;
    let mut run = directed(6, 3, 0.01, true, &[]);
    apply(&mut run, &[Op::Uniform(180.0), Op::Idle(120)])?;
    prop_assert_eq!(at_target(&run), vec![true, true]);
    let disturbances = [
        Op::Limit(1, 150.0),
        Op::Fault(4, TransientMsrFault, false),
        Op::Fault(2, TelemetryDropout { iterations: 2 }, false),
        Op::Config(6.0, false),
    ];
    for op in disturbances {
        run.apply(op)?;
        prop_assert!(
            at_target(&run).contains(&false),
            "{op:?} left every segment at target"
        );
        apply(&mut run, &[Op::Step(0.0), Op::Idle(120)])?;
        prop_assert_eq!(
            at_target(&run),
            vec![true, true],
            "not back at target after {:?}",
            op
        );
    }
    run.check_all(&"the last op")
}

/// (b) A span whose filters settled one ulp short of their targets at one
/// `dt` is stable but not at target, so a step at a longer `dt`, which
/// moves its filters again, takes the full arithmetic.
#[test]
fn a_span_settled_off_target_moves_at_another_dt() -> Checked {
    let mut run = directed(6, 3, 0.0, false, &[]);
    let mut ops = vec![Op::Uniform(150.0)];
    ops.extend(std::iter::repeat_n(Op::Step(0.02), 3000));
    apply(&mut run, &ops)?;
    let shown = run.suts[0].0.observe(false, &[]);
    let stable = shown.segments.unwrap().iter().all(|s| s.1 && s.2);
    prop_assert!(stable, "the small steps did not settle every segment");
    prop_assert!(
        at_target(&run).contains(&false),
        "every segment reached its target"
    );
    let before = run.suts[0].0.observe(true, &[]).hosts.unwrap();
    apply(&mut run, &[Op::Step(2.0), Op::Step(2.0)])?;
    let after = run.suts[0].0.observe(true, &[]).hosts.unwrap();
    let moved = before
        .iter()
        .zip(&after)
        .any(|(a, b)| format!("{a:?}") != format!("{b:?}"));
    prop_assert!(moved, "the long steps moved no filter");
    run.check_all(&Seconds(2.0))
}

/// (c) While limits creep toward a new uniform cap, a segment whose hosts
/// all stay inside their points' spans keeps its outcome slices, beside a
/// segment where one host's big cut leaves its span and moves its point.
#[test]
fn a_resolve_that_moves_no_point_keeps_the_outcome() -> Checked {
    for sigma in [0.0, 0.01] {
        let mut run = directed(8, 4, sigma, true, &[]);
        apply(&mut run, &[Op::Uniform(200.0), Op::Idle(80)])?;
        apply(
            &mut run,
            &[Op::Uniform(199.9), Op::Limit(5, 150.0), Op::Step(0.0)],
        )?;
        let mut moves = Vec::new();
        for _ in 0..12 {
            let before = trust_epoch(&run);
            run.apply(Op::Step(0.0))?;
            moves.push(trust_epoch(&run) - before);
        }
        // One segment of two moves while host 5's point does; the other
        // keeps its slices throughout.
        prop_assert!(
            moves.iter().all(|&m| m <= 1),
            "σ {}: moves {:?}",
            sigma,
            moves
        );
        prop_assert!(
            moves.contains(&1),
            "σ {}: host 5 never moved: {:?}",
            sigma,
            moves
        );
        run.check_all(&"the last op")?;
    }
    Ok(())
}

/// (d) Caps re-posted to a settled fleet that encode to the PL1 bits the
/// hosts hold dirty no segment: the banks keep replaying or stepping at
/// target and a calm platform stays steady; a cap that changes the bits
/// still dirties its segment.
#[test]
fn caps_that_encode_to_the_held_bits_dirty_nothing() -> Checked {
    for sigma in [0.0, 0.01] {
        let mut run = directed(6, 3, sigma, true, &[]);
        apply(&mut run, &[Op::Uniform(180.0), Op::Idle(120)])?;
        // 90 W a socket, in RAPL's 1/8 W units, whatever the rounding.
        let same = [
            Op::Limit(1, 180.01),
            Op::Uniform(179.99),
            Op::Uniform(180.02),
            Op::Limit(4, 180.0),
        ];
        for op in same {
            run.apply(op)?;
            let segments = run.suts[0].0.observe(false, &[]).segments.unwrap();
            prop_assert!(
                segments.iter().all(|s| s.1),
                "σ {}: {:?} dirtied a segment",
                sigma,
                op
            );
            if sigma == 0.0 {
                let steady = run.suts[2].0.observe(false, &[]).steady.unwrap();
                prop_assert!(steady, "{op:?} took the platform out of steady state");
            }
            run.apply(Op::Step(0.0))?;
        }
        run.apply(Op::Limit(4, 181.0))?;
        let segments = run.suts[0].0.observe(false, &[]).segments.unwrap();
        prop_assert!(
            !segments[1].1,
            "σ {}: a changed cap left its segment settled",
            sigma
        );
        apply(&mut run, &[Op::Idle(60)])?;
        run.check_all(&"the last op")?;
    }
    Ok(())
}
