//! Segment-sharding invariants of the columnar [`NodeBank`].
//!
//! The contract under test: `step_all_partial` on a bank sharded into
//! arbitrary (including pathological) segment sizes is **bit-identical** to
//! flat `step_all` stepping and to the per-[`Node`] reference, under any
//! interleaving of control writes and fault injections — including ones
//! that straddle segment boundaries — while invalidating *only* the
//! segments the writes actually touch.

use pmstack_simhw::msr::address;
use pmstack_simhw::power::CoreClass;
use pmstack_simhw::{
    quartz_spec, standard_classes, CapSpan, ClassId, FaultKind, Hertz, HostStep, LoadModel, Node,
    NodeBank, NodeClass, NodeId, OperatingPoint, PowerModel, RaplDomain, Seconds, SimHwError,
    Watts,
};
use proptest::prelude::*;

struct FlatLoad {
    kappa: f64,
}

impl LoadModel for FlatLoad {
    fn node_power_at(&self, model: &PowerModel, eps: f64, lead: Hertz) -> Watts {
        model.node_power(
            eps,
            &[CoreClass {
                count: model.spec().cores_used_per_node,
                kappa: self.kappa,
                freq: lead,
            }],
        )
    }
}

/// [`FlatLoad`] with a resolve that bounds its answer, as a table-driven
/// workload does: the default ladder walk picks the highest step whose
/// power fits (the bottom step when none does), so the point holds from its
/// own power up to the lowest power of any step above it.
struct SpannedLoad(FlatLoad);

impl LoadModel for SpannedLoad {
    fn node_power_at(&self, model: &PowerModel, eps: f64, lead: Hertz) -> Watts {
        self.0.node_power_at(model, eps, lead)
    }

    fn operating_point_span(
        &self,
        model: &PowerModel,
        eps: f64,
        cap: Watts,
    ) -> (OperatingPoint, CapSpan) {
        let op = self.operating_point(model, eps, cap);
        let ladder = model.spec().pstates();
        let excluded = (ladder.steps().iter())
            .filter(|&&step| step > op.lead)
            .map(|&step| self.node_power_at(model, eps, step))
            .reduce(Watts::min);
        let fits = (op.lead > ladder.min()).then_some(op.power);
        (op, CapSpan::between(fits, excluded))
    }
}

fn op_bits(op: Option<OperatingPoint>) -> Option<[u64; 3]> {
    op.map(|op| [op.lead.value(), op.trail.value(), op.power.value()].map(f64::to_bits))
}

fn fleet(n: usize) -> (PowerModel, Vec<Node>) {
    let model = PowerModel::new(quartz_spec()).unwrap();
    let nodes = (0..n)
        .map(|i| Node::new(NodeId(i), &model, 0.9 + 0.02 * (i % 12) as f64).unwrap())
        .collect();
    (model, nodes)
}

/// One scheduled disturbance in the lockstep properties below.
#[derive(Debug, Clone, Copy)]
enum Disturb {
    Limit(f64),
    /// Two limit writes to one host back to back, no step between: the
    /// second lands on the register columns the first just wrote.
    LimitTwice(f64, f64),
    /// The same limit written to every host.
    UniformLimit(f64),
    Cap(f64),
    ClearCap,
    Dropout(u32),
    Glitch,
    Stuck(f64),
    Death,
}

fn disturb_strategy() -> impl Strategy<Value = Disturb> {
    prop_oneof![
        (120.0f64..230.0).prop_map(Disturb::Limit),
        (120.0f64..230.0, 60.0f64..300.0).prop_map(|(a, b)| Disturb::LimitTwice(a, b)),
        (120.0f64..230.0).prop_map(Disturb::UniformLimit),
        (1.3f64..2.5).prop_map(Disturb::Cap),
        Just(Disturb::ClearCap),
        (1u32..4).prop_map(Disturb::Dropout),
        Just(Disturb::Glitch),
        (100.0f64..200.0).prop_map(Disturb::Stuck),
        Just(Disturb::Death),
    ]
}

/// The control surface the bank and the per-`Node` reference share, so one
/// function applies a disturbance to either.
trait Fleet {
    fn hosts(&self) -> usize;
    fn limit(&mut self, h: usize, w: Watts) -> Result<(), SimHwError>;
    fn cap(&mut self, h: usize, cap: Option<Hertz>) -> Result<(), SimHwError>;
    fn fault(&mut self, h: usize, kind: FaultKind);
}

impl Fleet for NodeBank {
    fn hosts(&self) -> usize {
        self.len()
    }
    fn limit(&mut self, h: usize, w: Watts) -> Result<(), SimHwError> {
        self.set_power_limit(h, w)
    }
    fn cap(&mut self, h: usize, cap: Option<Hertz>) -> Result<(), SimHwError> {
        self.set_freq_cap(h, cap)
    }
    fn fault(&mut self, h: usize, kind: FaultKind) {
        self.inject(h, kind);
    }
}

/// The per-`Node` reference fleet.
impl Fleet for Vec<Node> {
    fn hosts(&self) -> usize {
        self.len()
    }
    fn limit(&mut self, h: usize, w: Watts) -> Result<(), SimHwError> {
        self[h].set_power_limit(w)
    }
    fn cap(&mut self, h: usize, cap: Option<Hertz>) -> Result<(), SimHwError> {
        self[h].set_freq_cap(cap)
    }
    fn fault(&mut self, h: usize, kind: FaultKind) {
        self[h].inject(kind);
    }
}

/// Apply one disturbance; returns the outcome of every control write it
/// made, which must be the same on every representation.
fn disturb(fleet: &mut impl Fleet, host: usize, d: Disturb) -> Vec<Result<(), SimHwError>> {
    match d {
        Disturb::Limit(w) => vec![fleet.limit(host, Watts(w))],
        Disturb::LimitTwice(a, b) => {
            vec![fleet.limit(host, Watts(a)), fleet.limit(host, Watts(b))]
        }
        Disturb::UniformLimit(w) => (0..fleet.hosts())
            .map(|h| fleet.limit(h, Watts(w)))
            .collect(),
        Disturb::Cap(ghz) => vec![fleet.cap(host, Some(Hertz::from_ghz(ghz)))],
        Disturb::ClearCap => vec![fleet.cap(host, None)],
        Disturb::Dropout(iterations) => {
            fleet.fault(host, FaultKind::TelemetryDropout { iterations });
            vec![]
        }
        Disturb::Glitch => {
            fleet.fault(host, FaultKind::TransientMsrFault);
            vec![]
        }
        Disturb::Stuck(pinned_w) => {
            fleet.fault(host, FaultKind::StuckRapl { pinned_w });
            vec![]
        }
        Disturb::Death => {
            fleet.fault(host, FaultKind::NodeDeath);
            vec![]
        }
    }
}

/// A `Node` a bank materialises must be indistinguishable from the
/// reference `Node` that took the same operations directly: every register
/// the control path programs, and everything derived from it.
fn assert_node_matches(got: &Node, want: &Node) {
    let bits = |w: Watts| w.value().to_bits();
    for (k, (g, w)) in got.packages().iter().zip(want.packages()).enumerate() {
        assert_eq!(g.limit(), w.limit(), "package {k} PL1 fields");
        for d in [RaplDomain::Pp0, RaplDomain::Dram] {
            assert_eq!(
                g.domain_limit(d).ok(),
                w.domain_limit(d).ok(),
                "package {k} {d}"
            );
        }
        for addr in [
            address::PKG_POWER_LIMIT,
            address::PKG_ENERGY_STATUS,
            address::PERF_CTL,
        ] {
            assert_eq!(
                g.msrs().read(addr),
                w.msrs().read(addr),
                "package {k} MSR {addr:#x}"
            );
        }
        assert_eq!(bits(g.enforced_limit()), bits(w.enforced_limit()));
    }
    assert_eq!(bits(got.power_limit()), bits(want.power_limit()));
    assert_eq!(bits(got.enforced_limit()), bits(want.enforced_limit()));
    assert_eq!(
        got.energy().value().to_bits(),
        want.energy().value().to_bits()
    );
    assert_eq!(got.freq_cap(), want.freq_cap());
    assert_eq!(got.stuck_limit(), want.stuck_limit());
    assert_eq!(got.health(), want.health());
    assert_eq!(got.telemetry_down(), want.telemetry_down());
    assert_eq!(
        got.current_freq().value().to_bits(),
        want.current_freq().value().to_bits()
    );
    // A pending MSR glitch has no accessor; it shows as the next write being
    // refused, once. Probe it on copies.
    assert_eq!(
        got.clone().set_power_limit(Watts(200.0)),
        want.clone().set_power_limit(Watts(200.0)),
        "one-shot MSR glitch"
    );
    // Neither has a stuck plane's latch: it shows as the pinned value
    // winning the next plane write.
    if want.has_domains() {
        assert_eq!(
            got.clone().set_domain_limit(RaplDomain::Pp0, Watts(1.0)),
            want.clone().set_domain_limit(RaplDomain::Pp0, Watts(1.0)),
            "stuck PP0 latch"
        );
    }
}

/// Every host of `bank`, materialised, against the reference fleet.
fn assert_nodes_match(bank: &NodeBank, reference: &[Node]) {
    for (h, want) in reference.iter().enumerate() {
        assert_node_matches(&bank.node(h), want);
    }
}

/// The three representations the sharded lockstep property steps together.
struct Lockstep {
    model: PowerModel,
    load: FlatLoad,
    parallel: bool,
    reference: Vec<Node>,
    flat: NodeBank,
    sharded: NodeBank,
    ops: Vec<Option<OperatingPoint>>,
    res_flat: Vec<HostStep>,
    res_shard: Vec<HostStep>,
}

impl Lockstep {
    /// Apply one disturbance to all three; every control write must come
    /// out the same, and every `Node` the bank materialises right after it
    /// must be the reference `Node`.
    fn disturb(&mut self, host: usize, d: Disturb) -> Result<(), TestCaseError> {
        let expected = disturb(&mut self.reference, host, d);
        prop_assert_eq!(
            &disturb(&mut self.flat, host, d),
            &expected,
            "flat: {:?}",
            d
        );
        prop_assert_eq!(
            &disturb(&mut self.sharded, host, d),
            &expected,
            "sharded: {:?}",
            d
        );
        assert_nodes_match(&self.sharded, &self.reference);
        Ok(())
    }

    /// One iteration on all three, then every read compared.
    fn step(&mut self, dt: Seconds) -> Result<(), TestCaseError> {
        let (model, load, sharded) = (&self.model, &self.load, &self.sharded);
        for (h, op) in self.ops.iter_mut().enumerate() {
            *op = sharded
                .is_alive(h)
                .then(|| sharded.operating_point(h, model, load));
        }
        let settled_flat = self
            .flat
            .step_all(dt, &self.ops, &mut self.res_flat, self.parallel);
        let report =
            self.sharded
                .step_all_partial(dt, &self.ops, &mut self.res_shard, self.parallel);
        for node in self.reference.iter_mut() {
            let _ = node.try_step(model, load, dt);
        }

        prop_assert_eq!(settled_flat, report.all_settled, "settled flags diverged");
        prop_assert_eq!(&self.res_flat, &self.res_shard, "step outcomes diverged");
        let (flat, sharded) = (&self.flat, &self.sharded);
        for ((h, node), walked) in self.reference.iter().enumerate().zip(sharded.energies()) {
            prop_assert_eq!(
                sharded.energy(h).value().to_bits(),
                flat.energy(h).value().to_bits(),
                "energy diverged from flat on host {}",
                h
            );
            prop_assert_eq!(
                sharded.energy(h).value().to_bits(),
                node.energy().value().to_bits(),
                "energy diverged from reference on host {}",
                h
            );
            prop_assert_eq!(
                walked.value().to_bits(),
                node.energy().value().to_bits(),
                "walked energy diverged on host {}",
                h
            );
            prop_assert_eq!(
                sharded.enforced_limit(h).value().to_bits(),
                node.enforced_limit().value().to_bits(),
                "enforced limit diverged on host {}",
                h
            );
            prop_assert_eq!(
                sharded.power_limit(h).value().to_bits(),
                node.power_limit().value().to_bits(),
                "programmed limit diverged on host {}",
                h
            );
            prop_assert_eq!(
                sharded.last_freq(h).value().to_bits(),
                flat.last_freq(h).value().to_bits(),
                "last_freq diverged on host {}",
                h
            );
        }
        Ok(())
    }
}

/// A stretch of undisturbed iterations: at iteration `at`, `len` more,
/// long enough for a settled segment's pending replays to carry its
/// energy across several binades; then, right after, an optional re-shard
/// of the sharded bank and a disturbance of host `host`.
type Idle = (usize, usize, usize, Option<usize>, Disturb);

fn idle_strategy() -> impl Strategy<Value = Option<Idle>> {
    prop_oneof![
        Just(None),
        (
            0usize..16,
            1usize..3000,
            0usize..34,
            prop_oneof![Just(None), (1usize..10).prop_map(Some)],
            disturb_strategy(),
        )
            .prop_map(Some),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded stepping with replay enabled is bit-identical to flat
    /// stepping and to the per-node reference under random control/fault
    /// schedules, for any fleet/segment geometry (segments of 1 host,
    /// ragged final segments, fleets smaller than one segment) — and every
    /// `Node` the bank materialises right after a write is the reference
    /// `Node`. An idle stretch lets pending replays pile up while reads
    /// (energy, the segment walk, materialised `Node`s) go on, then writes,
    /// faults or re-shards the bank straight out of it: every path that
    /// writes an energy cell must first write the count.
    #[test]
    fn sharded_replay_is_bit_identical_to_flat_and_reference(
        n in 1usize..34,
        seg in 1usize..10,
        parallel in (0u8..2).prop_map(|b| b == 1),
        schedule in prop::collection::vec(
            (0usize..16, 0usize..34, disturb_strategy()),
            0..12,
        ),
        idle in idle_strategy(),
    ) {
        let (model, reference) = fleet(n);
        let mut sharded = NodeBank::from_nodes(reference.clone());
        sharded.set_segment_hosts(seg);
        let mut run = Lockstep {
            model,
            load: FlatLoad { kappa: 2.6 },
            parallel,
            flat: NodeBank::from_nodes(reference.clone()),
            sharded,
            reference,
            ops: vec![None; n],
            res_flat: vec![HostStep::Skipped; n],
            res_shard: vec![HostStep::Skipped; n],
        };

        let dt = Seconds(0.2);
        for iter in 0..16 {
            for &(_, host, d) in schedule.iter().filter(|(at, ..)| *at == iter) {
                run.disturb(host % n, d)?;
            }
            run.step(dt)?;
            if let Some((_, len, host, reshard, d)) = idle.filter(|i| i.0 == iter) {
                for i in 0..len {
                    run.step(dt)?;
                    if i % 512 == 511 {
                        assert_nodes_match(&run.sharded, &run.reference);
                    }
                }
                if let Some(hosts) = reshard {
                    run.sharded.set_segment_hosts(hosts);
                    assert_nodes_match(&run.sharded, &run.reference);
                }
                run.disturb(host % n, d)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Resolver::resolve_segment` keeps the slots whose host's enforced limit is still
    /// inside the cached point's span, so a span kept across a write that
    /// changed the point's other inputs would serve a wrong point. After
    /// every pass — limits creeping through their filters, frequency caps,
    /// stuck planes, deaths, a load swap the bank is told about, on a flat
    /// bank that is re-sharded mid-run — every slot must hold what the
    /// per-host resolve returns, bit for bit, and a slot the pass did not
    /// report rewritten must be the one it held before.
    #[test]
    fn resolved_segments_match_the_per_host_resolve(
        n in 1usize..34,
        seg in 1usize..10,
        swap_at in 0usize..24,
        schedule in prop::collection::vec((0usize..24, 0usize..34, disturb_strategy()), 0..12),
    ) {
        let (model, nodes) = fleet(n);
        let loads = [2.6, 2.2].map(|kappa| SpannedLoad(FlatLoad { kappa }));
        let mut load = &loads[0];
        let mut bank = NodeBank::from_nodes(nodes);
        let mut ops = vec![None; n];
        let mut results = vec![HostStep::Skipped; n];
        for iter in 0..24 {
            if iter == 12 {
                bank.set_segment_hosts(seg);
            }
            if iter == swap_at {
                load = &loads[1];
                bank.invalidate_segments();
            }
            for &(_, host, d) in schedule.iter().filter(|(at, ..)| *at == iter) {
                disturb(&mut bank, host % n, d);
            }
            let before = ops.clone();
            let mut reported = vec![None; n];
            let mut limits = vec![Watts::ZERO; n];
            let cols = (&mut limits[..], (&mut ops[..], &mut reported[..]));
            bank.resolve_pieces(cols, false, |res, (limits, (ops, reported))| {
                for sidx in res.segments() {
                    let range = res.hosts(sidx);
                    res.segment_enforced_limits(sidx, limits);
                    res.resolve_segment(sidx, &model, load, limits, ops, |h, op| {
                        assert!(range.contains(&h), "host {h} is outside segment {sidx}");
                        reported[h] = Some(op.copied());
                    });
                }
                0
            });
            for h in 0..n {
                prop_assert_eq!(limits[h].value().to_bits(), bank.enforced_limit(h).value().to_bits());
                let want = bank.is_alive(h).then(|| bank.operating_point(h, &model, load));
                prop_assert_eq!(op_bits(ops[h]), op_bits(want), "host {} at iteration {}", h, iter);
                let kept = reported[h].unwrap_or(before[h]);
                prop_assert_eq!(op_bits(ops[h]), op_bits(kept), "host {} moved unreported", h);
            }
            bank.step_all_partial(Seconds(0.2), &ops, &mut results, false);
        }
    }
}

/// A part `from_part` is tested over: the quartz node with 2, 1 and 3
/// sockets (the step kernel's two fixed widths and its dynamic one), then
/// each standard class, built with its PP0/DRAM planes.
fn part_model(kind: usize) -> PowerModel {
    let spec = match kind {
        0..=2 => {
            let mut spec = quartz_spec();
            spec.sockets_per_node = [2, 1, 3][kind];
            spec.cores_used_per_node = spec
                .cores_used_per_node
                .min(spec.sockets_per_node * spec.cores_per_socket);
            spec
        }
        k => standard_classes().swap_remove(k - 3).spec,
    };
    PowerModel::new(spec).unwrap()
}

/// The `Node` of part `kind` a per-host build makes for `(id, eps)`.
fn part_node(kind: usize, model: &PowerModel, id: NodeId, eps: f64) -> Result<Node, SimHwError> {
    match kind {
        0..=2 => Node::new(id, model, eps),
        k => Node::with_class(id, ClassId(0), &standard_classes()[k - 3], model, eps),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `from_part` fills every column from one part instead of ingesting a
    /// `Node` per host, so it must build the bank `from_nodes` builds from
    /// `Node`s made like the part: every host materialises to the same
    /// `Node` (registers, planes, id and ε included; `Debug` prints every
    /// field), and the two banks step bit for bit alike over 60 iterations
    /// at jittered `dt`s, with creeping limits, on any sharding. An ε that
    /// `Node::new` refuses is refused with its error.
    #[test]
    fn a_bank_built_from_one_part_matches_one_built_from_nodes(
        kind in 0usize..6,
        eps in prop::collection::vec(0.85f64..1.15, 1..40),
        seg in 1usize..12,
        limits in prop::collection::vec(100.0f64..300.0, 1..5),
        dts in prop::collection::vec(prop_oneof![Just(0.2), 0.05f64..0.4], 60..61),
        bad in prop_oneof![Just(0.0), Just(-1.0), Just(f64::NAN)],
        bad_at in 0usize..40,
    ) {
        let model = part_model(kind);
        let n = eps.len();
        let hosts: Vec<(NodeId, f64)> =
            (eps.iter().enumerate()).map(|(i, &e)| (NodeId(1000 + 3 * i), e)).collect();
        let nodes: Vec<Node> = (hosts.iter())
            .map(|&(id, e)| part_node(kind, &model, id, e).unwrap())
            .collect();
        let part = || part_node(kind, &model, NodeId(7), 1.0).unwrap();
        let mut want = NodeBank::from_nodes(nodes);
        let mut got = NodeBank::from_part(part(), &hosts).unwrap();
        prop_assert_eq!(got.len(), n);
        prop_assert_eq!(got.alive_count(), n);
        let materialised_alike = |got: &NodeBank, want: &NodeBank| {
            for h in 0..n {
                let (a, b) = (got.node(h), want.node(h));
                assert_node_matches(&a, &b);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "host {h}");
            }
        };
        materialised_alike(&got, &want);

        want.set_segment_hosts(seg);
        got.set_segment_hosts(seg);
        let load = FlatLoad { kappa: 2.6 };
        let mut ops = vec![None; n];
        let (mut res_want, mut res_got) = (vec![HostStep::Skipped; n], vec![HostStep::Skipped; n]);
        for (iter, &dt) in dts.iter().enumerate() {
            if iter % 20 == 0 {
                for h in 0..n {
                    let w = Watts(limits[(h + iter) % limits.len()]);
                    prop_assert_eq!(got.set_power_limit(h, w), want.set_power_limit(h, w));
                }
            }
            for (h, op) in ops.iter_mut().enumerate() {
                *op = Some(want.operating_point(h, &model, &load));
                prop_assert_eq!(
                    op_bits(Some(got.operating_point(h, &model, &load))),
                    op_bits(*op),
                    "operating point, host {}", h
                );
            }
            let dt = Seconds(dt);
            let report = got.step_all_partial(dt, &ops, &mut res_got, false);
            prop_assert_eq!(report, want.step_all_partial(dt, &ops, &mut res_want, false));
            prop_assert_eq!(&res_got, &res_want);
            for h in 0..n {
                prop_assert_eq!(got.energy(h).value().to_bits(), want.energy(h).value().to_bits());
                prop_assert_eq!(
                    got.enforced_limit(h).value().to_bits(),
                    want.enforced_limit(h).value().to_bits()
                );
                prop_assert_eq!(got.last_freq(h).value().to_bits(), want.last_freq(h).value().to_bits());
            }
        }
        materialised_alike(&got, &want);

        let mut bad_hosts = hosts.clone();
        bad_hosts[bad_at % n].1 = bad;
        let refused = NodeBank::from_part(part(), &bad_hosts).map(|_| ());
        prop_assert_eq!(refused, part_node(kind, &model, NodeId(0), bad).map(|_| ()));
        prop_assert!(part_node(kind, &model, NodeId(0), bad).is_err());
    }
}

/// The span is tight at the bank, not only safe: while a limit creeps down
/// through its enforcement filter the host is searched exactly when the
/// per-host resolve starts returning a different point, and not once more.
#[test]
fn a_creeping_limit_is_searched_only_when_its_point_moves() {
    let (model, nodes) = fleet(6);
    let load = SpannedLoad(FlatLoad { kappa: 2.6 });
    let mut bank = NodeBank::from_nodes(nodes);
    let n = bank.len();
    for h in 0..n {
        bank.set_power_limit(h, Watts(140.0 + 4.0 * h as f64))
            .unwrap();
    }
    let mut ops = vec![None; n];
    let mut results = vec![HostStep::Skipped; n];
    let (mut searches, mut moves) = (vec![0; n], vec![0; n]);
    let mut settled = false;
    let mut limits = vec![Watts::ZERO; n];
    for _ in 0..2000 {
        let before = ops.clone();
        let cols = (&mut limits[..], (&mut ops[..], &mut searches[..]));
        bank.resolve_pieces(cols, false, |res, (limits, (ops, searches))| {
            res.segment_enforced_limits(0, limits);
            res.resolve_segment(0, &model, &load, limits, ops, |h, _| searches[h] += 1);
            0
        });
        for h in 0..n {
            let want = Some(bank.operating_point(h, &model, &load));
            assert_eq!(op_bits(ops[h]), op_bits(want));
            moves[h] += usize::from(op_bits(before[h]) != op_bits(want));
        }
        settled = bank
            .step_all_partial(Seconds(0.05), &ops, &mut results, false)
            .all_settled;
        if settled {
            break;
        }
    }
    assert!(settled, "enforcement must reach its fixed point");
    assert_eq!(searches, moves);
    assert!(
        moves.iter().all(|&m| m > 3),
        "limits crossed several steps: {moves:?}"
    );
}

/// Step a bank with freshly resolved operating points until the partial
/// stepper reports everything settled (bounded, so a bug fails fast).
fn settle(bank: &mut NodeBank, model: &PowerModel, load: &FlatLoad, dt: Seconds) {
    let n = bank.len();
    let mut ops = vec![None; n];
    let mut results = vec![HostStep::Skipped; n];
    for _ in 0..200 {
        for (h, op) in ops.iter_mut().enumerate() {
            *op = bank
                .is_alive(h)
                .then(|| bank.operating_point(h, model, load));
        }
        if bank
            .step_all_partial(dt, &ops, &mut results, false)
            .all_settled
        {
            return;
        }
    }
    panic!("bank failed to settle in 200 iterations");
}

fn step_once(
    bank: &mut NodeBank,
    model: &PowerModel,
    load: &FlatLoad,
    dt: Seconds,
) -> pmstack_simhw::StepReport {
    let n = bank.len();
    let mut ops = vec![None; n];
    let mut results = vec![HostStep::Skipped; n];
    for (h, op) in ops.iter_mut().enumerate() {
        *op = bank
            .is_alive(h)
            .then(|| bank.operating_point(h, model, load));
    }
    bank.step_all_partial(dt, &ops, &mut results, false)
}

/// Limit writes against stuck, glitched and dead hosts, in every order
/// relative to the fault and with or without a step in between: the bank
/// resolves the write in its columns, the reference on the `Node`, and both
/// must return the same result and leave the same `Node` behind.
#[test]
fn writes_and_faults_commute_like_on_the_node() {
    #[derive(Clone, Copy)]
    enum Op {
        Write(f64),
        Fault(FaultKind),
    }
    let load = FlatLoad { kappa: 2.6 };
    let dt = Seconds(0.2);
    let faults = [
        FaultKind::StuckRapl { pinned_w: 140.0 },
        FaultKind::TransientMsrFault,
        FaultKind::NodeDeath,
        FaultKind::TelemetryDropout { iterations: 2 },
    ];
    for fault in faults {
        let (a, b, f) = (Op::Write(150.0), Op::Write(400.0), Op::Fault(fault));
        let orders = [
            [a, b, f],
            [a, f, b],
            [f, a, b],
            [b, a, f],
            [b, f, a],
            [f, b, a],
        ];
        for order in orders {
            for step_between in [false, true] {
                let (model, mut reference) = fleet(3);
                let mut bank = NodeBank::from_nodes(reference.clone());
                bank.set_segment_hosts(2);
                for op in order {
                    match op {
                        Op::Write(w) => assert_eq!(
                            bank.set_power_limit(1, Watts(w)),
                            reference[1].set_power_limit(Watts(w)),
                            "write of {w} W around {fault:?}"
                        ),
                        Op::Fault(kind) => {
                            bank.inject(1, kind);
                            reference[1].inject(kind);
                        }
                    }
                    assert_eq!(
                        bank.power_limit(1).value().to_bits(),
                        reference[1].power_limit().value().to_bits()
                    );
                    if step_between {
                        step_once(&mut bank, &model, &load, dt);
                        for node in reference.iter_mut() {
                            let _ = node.try_step(&model, &load, dt);
                        }
                    }
                    assert_nodes_match(&bank, &reference);
                }
            }
        }
    }
}

/// A sub-domain write runs on a `Node` materialised from the columns and is
/// ingested back. When the host's PL1 was just rewritten in the columns, the
/// materialised `Node` must carry it — and the PL1 must survive the round
/// trip, as must the plane limits under the next PL1 write. The fleet mixes
/// the three standard classes as one bank per class: host `g` is slot
/// `g / 3` of class `g % 3`'s bank.
#[test]
fn domain_limit_after_a_pl1_write_round_trips() {
    let classes = standard_classes();
    let models: Vec<PowerModel> = (classes.iter())
        .map(|c| PowerModel::new(c.spec.clone()).unwrap())
        .collect();
    let eps: Vec<f64> = (0..6).map(|h| 0.95 + 0.01 * h as f64).collect();
    let build = |g: usize| {
        let c = g % 3;
        Node::with_class(NodeId(g), ClassId(c), &classes[c], &models[c], eps[g]).unwrap()
    };
    let mut banks: Vec<NodeBank> = (0..3)
        .map(|c| NodeBank::from_nodes((c..6).step_by(3).map(build).collect()))
        .collect();
    let mut reference: Vec<Node> = (0..6).map(build).collect();
    let load = FlatLoad { kappa: 2.6 };
    let dt = Seconds(0.2);

    for (round, h) in [(0usize, 0usize), (1, 4), (2, 2), (3, 0)] {
        let (bank, l) = (&mut banks[h % 3], h / 3);
        let pkg = classes[h % 3].spec.tdp_per_node() * (0.7 + 0.05 * round as f64);
        let pp0 = pkg * 0.5;
        // PL1 in the columns, then straight into the Node for the plane.
        assert_eq!(
            bank.set_power_limit(l, pkg),
            reference[h].set_power_limit(pkg)
        );
        assert_eq!(
            bank.set_domain_limit(l, RaplDomain::Pp0, pp0),
            reference[h].set_domain_limit(RaplDomain::Pp0, pp0)
        );
        // And a second PL1 write on top of the refreshed columns.
        assert_eq!(
            bank.set_power_limit(l, pkg * 0.9),
            reference[h].set_power_limit(pkg * 0.9)
        );
        assert_eq!(
            bank.set_domain_limit(l, RaplDomain::Dram, Watts(11.0)),
            reference[h].set_domain_limit(RaplDomain::Dram, Watts(11.0))
        );
        assert_node_matches(&bank.node(l), &reference[h]);
        for (bank, model) in banks.iter_mut().zip(&models) {
            let ops: Vec<_> = (0..bank.len())
                .map(|l| Some(bank.operating_point(l, model, &load)))
                .collect();
            let mut results = vec![HostStep::Skipped; bank.len()];
            bank.step_all_partial(dt, &ops, &mut results, false);
        }
        for (g, node) in reference.iter_mut().enumerate() {
            let _ = node.try_step(&models[g % 3], &load, dt);
        }
        for (g, node) in reference.iter().enumerate() {
            let (bank, l) = (&banks[g % 3], g / 3);
            assert_eq!(
                bank.power_limit(l).value().to_bits(),
                node.power_limit().value().to_bits(),
                "programmed limit on host {g}"
            );
            assert_eq!(
                bank.enforced_limit(l).value().to_bits(),
                node.enforced_limit().value().to_bits(),
                "enforced limit on host {g}"
            );
            assert_eq!(
                bank.energy(l).value().to_bits(),
                node.energy().value().to_bits(),
                "energy on host {g}"
            );
        }
    }
}

/// Ingest then materialise is the identity, for nodes carrying every kind
/// of state the columns hold: mid-filter energy and enforcement, a
/// frequency cap, a stuck PKG latch, dead and suspect health, a telemetry
/// countdown, a pending glitch, and PP0/DRAM limits, meters and a stuck
/// plane (a locked PL1 register: the bank's locked-register unit test). `Debug`
/// prints every field, floats in full and the register file slot by slot,
/// so beyond `assert_node_matches` nothing can differ. A fault that changes
/// nothing runs the materialise → `Node` → ingest route and must leave the
/// host as it was.
#[test]
fn ingest_then_materialise_round_trips_every_state() {
    let load = FlatLoad { kappa: 2.8 };
    let dt = Seconds(0.2);
    let (model, mut plain) = fleet(7);
    plain[1].set_power_limit(Watts(140.0)).unwrap();
    plain[1].set_freq_cap(Some(Hertz::from_ghz(1.9))).unwrap();
    plain[2].inject(FaultKind::StuckRapl { pinned_w: 150.0 });
    plain[3].inject(FaultKind::NodeDeath);
    plain[4].mark_suspect();
    plain[4].inject(FaultKind::TelemetryDropout { iterations: 4 });
    let class = standard_classes().swap_remove(0);
    let mut split: Vec<Node> = (0..3)
        .map(|i| {
            Node::with_class(
                NodeId(i),
                ClassId(0),
                &class,
                &model,
                0.95 + 0.03 * i as f64,
            )
        })
        .collect::<Result<_, _>>()
        .unwrap();
    split[1].set_power_limit(Watts(180.0)).unwrap();
    split[1]
        .set_domain_limit(RaplDomain::Pp0, Watts(100.0))
        .unwrap();
    split[1]
        .set_domain_limit(RaplDomain::Dram, Watts(11.0))
        .unwrap();
    split[2]
        .inject_domain_stuck(RaplDomain::Pp0, Watts(120.0))
        .unwrap();
    split[2]
        .set_domain_limit(RaplDomain::Pp0, Watts(90.0))
        .unwrap();
    for _ in 0..3 {
        for node in plain[1..].iter_mut().chain(&mut split[1..]) {
            let _ = node.try_step(&model, &load, dt);
        }
    }
    plain[5].inject(FaultKind::TransientMsrFault);

    let noop = FaultKind::TelemetryDropout { iterations: 0 };
    for mut fleet in [plain, split] {
        let mut bank = NodeBank::from_nodes(fleet.clone());
        for (h, want) in fleet.iter_mut().enumerate() {
            for _ in 0..2 {
                let got = bank.node(h);
                assert_node_matches(&got, want);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "host {h}");
                bank.inject(h, noop);
                want.inject(noop);
            }
        }
        let dead = fleet.iter().filter(|n| n.is_dead()).count();
        assert_eq!(bank.alive_count(), fleet.len() - dead);
    }
}

/// The bank keeps one prototype, and with it the part's sub-plane split and
/// the class id: a node differing in either would be materialised as the
/// other, so the bank refuses to mix them.
#[test]
fn mixed_classes_do_not_share_a_bank() {
    let (model, nodes) = fleet(1);
    let plain = NodeClass::pkg_only("quartz", quartz_spec());
    let split = standard_classes().swap_remove(0);
    for (cid, class) in [(ClassId(1), plain), (ClassId(0), split)] {
        let mut mixed = nodes.clone();
        mixed.push(Node::with_class(NodeId(1), cid, &class, &model, 1.0).unwrap());
        let built = std::panic::catch_unwind(|| NodeBank::from_nodes(mixed));
        assert!(built.is_err(), "class {cid} with {:?}", class.domains);
    }
}

#[test]
fn segment_geometry_covers_ragged_fleets() {
    let (_, nodes) = fleet(13);
    let mut bank = NodeBank::from_nodes(nodes);
    bank.set_segment_hosts(4);
    assert_eq!(bank.num_segments(), 4);
    assert_eq!(bank.segment_range(0), 0..4);
    assert_eq!(bank.segment_range(2), 8..12);
    // Ragged final segment holds the single leftover host.
    assert_eq!(bank.segment_range(3), 12..13);
    assert_eq!(bank.segment_of(11), 2);
    assert_eq!(bank.segment_of(12), 3);

    // A fleet smaller than one segment is one segment.
    let (_, one) = fleet(3);
    let mut small = NodeBank::from_nodes(one);
    small.set_segment_hosts(1024);
    assert_eq!(small.num_segments(), 1);
    assert_eq!(small.segment_range(0), 0..3);
}

#[test]
fn control_write_invalidates_only_its_segment() {
    let (model, nodes) = fleet(12);
    let load = FlatLoad { kappa: 2.5 };
    let mut bank = NodeBank::from_nodes(nodes);
    bank.set_segment_hosts(4);
    settle(&mut bank, &model, &load, Seconds(0.2));
    assert!((0..3).all(|s| bank.segment_settled(s)));

    bank.set_power_limit(5, Watts(150.0)).unwrap();
    assert!(bank.segment_settled(0));
    assert!(!bank.segment_settled(1), "written segment must re-resolve");
    assert!(bank.segment_settled(2));

    let report = step_once(&mut bank, &model, &load, Seconds(0.2));
    assert_eq!(report.segments_replayed, 2);
    assert_eq!(report.segments_stepped, 1);
}

#[test]
fn fault_and_restore_on_segment_edge_hosts() {
    let (model, nodes) = fleet(8);
    let load = FlatLoad { kappa: 2.5 };
    let mut bank = NodeBank::from_nodes(nodes);
    bank.set_segment_hosts(4);
    settle(&mut bank, &model, &load, Seconds(0.2));

    // First host of the second segment: only segment 1 re-steps.
    bank.inject(4, FaultKind::TelemetryDropout { iterations: 2 });
    assert!(bank.segment_settled(0));
    assert!(!bank.segment_settled(1));
    settle(&mut bank, &model, &load, Seconds(0.2));

    // Last host of the first segment: only segment 0 re-steps.
    bank.set_freq_cap(3, Some(Hertz::from_ghz(1.8))).unwrap();
    assert!(!bank.segment_settled(0));
    assert!(bank.segment_settled(1));
    settle(&mut bank, &model, &load, Seconds(0.2));

    // Restore (clear the cap) dirties the same single segment again.
    bank.set_freq_cap(3, None).unwrap();
    assert!(!bank.segment_settled(0));
    assert!(bank.segment_settled(1));
    settle(&mut bank, &model, &load, Seconds(0.2));
    assert!((0..2).all(|s| bank.segment_settled(s)));
}

#[test]
fn health_marks_do_not_invalidate_segments() {
    let (model, nodes) = fleet(6);
    let load = FlatLoad { kappa: 2.5 };
    let mut bank = NodeBank::from_nodes(nodes);
    bank.set_segment_hosts(2);
    settle(&mut bank, &model, &load, Seconds(0.2));

    // Health is bookkeeping for the trust layer; it never feeds the
    // stepping arithmetic, so flipping it must not cost a re-resolve.
    bank.mark_suspect(0);
    bank.mark_healthy(0);
    assert!((0..3).all(|s| bank.segment_settled(s)));
    let report = step_once(&mut bank, &model, &load, Seconds(0.2));
    assert_eq!(report.segments_replayed, 3);
    assert_eq!(report.segments_stepped, 0);
}

#[test]
fn replay_requires_matching_dt() {
    let (model, nodes) = fleet(4);
    let load = FlatLoad { kappa: 2.5 };
    let mut bank = NodeBank::from_nodes(nodes);
    bank.set_segment_hosts(2);
    settle(&mut bank, &model, &load, Seconds(0.2));

    // A different dt changes the filter coefficient, so the settled
    // fixed point no longer proves the update is a no-op: full re-step.
    let n = bank.len();
    let mut ops = vec![None; n];
    let mut results = vec![HostStep::Skipped; n];
    for (h, op) in ops.iter_mut().enumerate() {
        *op = Some(bank.operating_point(h, &model, &load));
    }
    let report = bank.step_all_partial(Seconds(0.5), &ops, &mut results, false);
    assert_eq!(report.segments_replayed, 0);
    assert_eq!(report.segments_stepped, 2);
}

#[test]
fn step_report_counts_partial_invalidation() {
    let (model, nodes) = fleet(9);
    let load = FlatLoad { kappa: 2.5 };
    let mut bank = NodeBank::from_nodes(nodes);
    bank.set_segment_hosts(3);
    settle(&mut bank, &model, &load, Seconds(0.2));

    let report = step_once(&mut bank, &model, &load, Seconds(0.2));
    assert_eq!(report.segments_replayed, 3);
    assert_eq!(report.segments_stepped, 0);
    assert!(report.all_settled);

    bank.set_power_limit(8, Watts(140.0)).unwrap();
    let report = step_once(&mut bank, &model, &load, Seconds(0.2));
    assert_eq!(report.segments_replayed, 2);
    assert_eq!(report.segments_stepped, 1);
    assert!(!report.all_settled, "re-enforcement is in flight");
}
