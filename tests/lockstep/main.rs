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
