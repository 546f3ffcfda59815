//! Property tests pinning the columnar platform to the seed semantics.
//!
//! The reference below is a line-for-line transcription of the pre-columnar
//! `JobPlatform::run_iteration`: per-`Node` virtual stepping, a fresh
//! operating-point resolve per host per iteration, and `Vec`s collected per
//! call. The columnar bank, the settled operating-point cache, and the
//! steady-state fast-forward replay must all be *bit-identical* to it — for
//! every observable of every iteration, over random fault plans, jitter
//! seeds, and limit/cap schedules.

use pmstack_kernel::{Imbalance, KernelConfig, KernelLoad, VectorWidth, WaitingFraction};
use pmstack_runtime::{IterationBuffers, IterationOutcome, JobPlatform};
use pmstack_simhw::msr::address;
use pmstack_simhw::{
    quartz_spec, ClassId, ClassedBank, FaultEvent, FaultKind, FaultPlan, Hertz, HostStep, Joules,
    Node, NodeClass, NodeId, OperatingPoint, PowerModel, Seconds, SimHwError, Watts,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One iteration's observables, bit-comparable.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    elapsed: u64,
    compute: Vec<u64>,
    power: Vec<u64>,
    lead: Vec<u64>,
    limit: Vec<u64>,
    alive: Vec<bool>,
    fresh: Vec<bool>,
}

/// The seed's per-node iteration loop, kept as the oracle.
struct Reference {
    model: PowerModel,
    load: KernelLoad,
    nodes: Vec<Node>,
    plan: FaultPlan,
    sigma: f64,
    rng: ChaCha8Rng,
    iteration: u64,
    last_power: Vec<Watts>,
    last_lead: Vec<Hertz>,
}

impl Reference {
    fn new(config: KernelConfig, eps: &[f64], plan: FaultPlan, sigma: f64, seed: u64) -> Self {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let load = KernelLoad::new(config, model.spec());
        let nodes: Vec<Node> = eps
            .iter()
            .enumerate()
            .map(|(i, &e)| Node::new(NodeId(i), &model, e).unwrap())
            .collect();
        let n = nodes.len();
        Self {
            model,
            load,
            nodes,
            plan,
            sigma,
            rng: ChaCha8Rng::seed_from_u64(seed),
            iteration: 0,
            last_power: vec![Watts::ZERO; n],
            last_lead: vec![Hertz(0.0); n],
        }
    }

    fn draw_jitter(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let u: f64 = self.rng.gen::<f64>() + self.rng.gen::<f64>() - 1.0;
        (1.0 + u * self.sigma * 1.7).max(0.5)
    }

    fn run_iteration(&mut self) -> Observed {
        let events: Vec<FaultEvent> = self
            .plan
            .events()
            .iter()
            .filter(|e| e.at_iteration == self.iteration)
            .copied()
            .collect();
        for ev in events {
            if let Some(node) = self.nodes.get_mut(ev.host) {
                node.inject(ev.kind);
            }
        }
        self.iteration += 1;

        let n = self.nodes.len();
        let mut ops = Vec::with_capacity(n);
        let mut compute = Vec::with_capacity(n);
        for host in 0..n {
            if self.nodes[host].is_dead() {
                ops.push(None);
                compute.push(Seconds::ZERO);
                continue;
            }
            let op = self.nodes[host].operating_point(&self.model, &self.load);
            let jitter = self.draw_jitter();
            compute.push(Seconds(self.load.iteration_time(&op).value() * jitter));
            ops.push(Some(op));
        }
        let elapsed = compute.iter().copied().fold(Seconds::ZERO, Seconds::max);
        let limits: Vec<Watts> = self.nodes.iter().map(|n| n.enforced_limit()).collect();

        let mut power = Vec::with_capacity(n);
        let mut lead = Vec::with_capacity(n);
        let mut alive = Vec::with_capacity(n);
        let mut fresh = Vec::with_capacity(n);
        for (host, &op) in ops.iter().enumerate().take(n) {
            let Some(op) = op else {
                power.push(Watts::ZERO);
                lead.push(Hertz(0.0));
                alive.push(false);
                fresh.push(false);
                continue;
            };
            alive.push(true);
            match self.nodes[host].try_step(&self.model, &self.load, elapsed) {
                Ok(sample) => {
                    self.last_power[host] = sample.power;
                    self.last_lead[host] = op.lead;
                    power.push(sample.power);
                    lead.push(op.lead);
                    fresh.push(true);
                }
                Err(_) => {
                    power.push(self.last_power[host]);
                    lead.push(self.last_lead[host]);
                    fresh.push(false);
                }
            }
        }
        Observed {
            elapsed: elapsed.value().to_bits(),
            compute: compute.iter().map(|t| t.value().to_bits()).collect(),
            power: power.iter().map(|p| p.value().to_bits()).collect(),
            lead: lead.iter().map(|f| f.value().to_bits()).collect(),
            limit: limits.iter().map(|l| l.value().to_bits()).collect(),
            alive,
            fresh,
        }
    }

    fn energies(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.energy().value().to_bits())
            .collect()
    }
}

fn observe(bufs: &IterationBuffers) -> Observed {
    observe_outcome(bufs.outcome())
}

fn observe_outcome(o: &IterationOutcome) -> Observed {
    Observed {
        elapsed: o.elapsed.value().to_bits(),
        compute: o
            .host_compute_time
            .iter()
            .map(|t| t.value().to_bits())
            .collect(),
        power: o.host_power.iter().map(|p| p.value().to_bits()).collect(),
        lead: o.host_lead.iter().map(|f| f.value().to_bits()).collect(),
        limit: o.host_limit.iter().map(|l| l.value().to_bits()).collect(),
        alive: o.host_alive.clone(),
        fresh: o.host_fresh.clone(),
    }
}

fn build_platform(
    config: KernelConfig,
    eps: &[f64],
    plan: FaultPlan,
    sigma: f64,
    seed: u64,
    fast_forward: bool,
) -> JobPlatform {
    let model = PowerModel::new(quartz_spec()).unwrap();
    let nodes = eps
        .iter()
        .enumerate()
        .map(|(i, &e)| Node::new(NodeId(i), &model, e).unwrap())
        .collect();
    let mut p = JobPlatform::new(model, nodes, config)
        .with_fault_plan(plan)
        .with_jitter(sigma, seed);
    p.set_fast_forward(fast_forward);
    p
}

/// A scheduled control write: at iteration `at`, set host `host`'s limit
/// (and possibly a frequency cap).
#[derive(Debug, Clone)]
struct ControlWrite {
    at: u64,
    host: usize,
    limit: LimitArg,
    cap_ghz: Option<f64>,
    shape: WriteShape,
}

/// The limit a scheduled write programs: anywhere in the settable range and
/// beyond, or a few watts off what the host is programmed to now. A p-state
/// is 3-6 W wide here, so while the enforcement filter is still creeping the
/// second kind lands inside the span of the host's cached operating point
/// about as often as across its edge.
#[derive(Debug, Clone, Copy)]
enum LimitArg {
    Absolute(f64),
    Nudge(f64),
}

fn arb_limit() -> impl Strategy<Value = LimitArg> {
    prop_oneof![
        (120.0f64..260.0).prop_map(LimitArg::Absolute),
        (-4.0f64..4.0).prop_map(LimitArg::Nudge),
    ]
}

impl ControlWrite {
    fn watts(&self, reference: &[Node]) -> Watts {
        match self.limit {
            LimitArg::Absolute(w) => Watts(w),
            LimitArg::Nudge(dw) => reference[self.host].power_limit() + Watts(dw),
        }
    }
}

/// What else happens around a scheduled limit write, before the next step.
#[derive(Debug, Clone, Copy)]
enum WriteShape {
    Single,
    /// A second limit write to the same host straight after the first.
    Twice(f64),
    /// The limit goes to every host through `set_uniform_limit`.
    Uniform,
    /// Every host is materialised as a `Node` right after the write.
    ThenView,
}

fn arb_shape() -> impl Strategy<Value = WriteShape> {
    prop_oneof![
        Just(WriteShape::Single),
        (60.0f64..300.0).prop_map(WriteShape::Twice),
        Just(WriteShape::Uniform),
        Just(WriteShape::ThenView),
    ]
}

/// `JobPlatform::set_uniform_limit` on the per-node reference: dead hosts
/// are skipped, any other refusal stops the sweep.
fn reference_uniform_limit(nodes: &mut [Node], limit: Watts) -> Result<(), SimHwError> {
    for node in nodes {
        match node.set_power_limit(limit) {
            Ok(()) | Err(SimHwError::NodeFailed(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The `Node`s a platform materialises right after a control write —
/// before any step has run — carry the registers the reference `Node`s were
/// programmed with directly.
fn assert_nodes_match(platform: &JobPlatform, want: &[Node]) {
    for (h, want) in want.iter().enumerate() {
        let got = &platform.node(h);
        for (k, (g, w)) in got.packages().iter().zip(want.packages()).enumerate() {
            assert_eq!(g.limit(), w.limit(), "host {h} package {k} PL1 fields");
            for addr in [address::PKG_POWER_LIMIT, address::PERF_CTL] {
                assert_eq!(
                    g.msrs().read(addr),
                    w.msrs().read(addr),
                    "host {h} package {k} MSR {addr:#x}"
                );
            }
        }
        let bits = |w: Watts| w.value().to_bits();
        assert_eq!(
            bits(got.power_limit()),
            bits(want.power_limit()),
            "host {h}"
        );
        assert_eq!(
            bits(got.enforced_limit()),
            bits(want.enforced_limit()),
            "host {h}"
        );
        assert_eq!(got.freq_cap(), want.freq_cap(), "host {h}");
        // A pending MSR glitch has no accessor; it shows as the next write
        // being refused, once. Probe it on copies.
        assert_eq!(
            got.clone().set_power_limit(Watts(200.0)),
            want.clone().set_power_limit(Watts(200.0)),
            "host {h} one-shot MSR glitch"
        );
    }
}

fn arb_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::NodeDeath),
        (100.0f64..260.0).prop_map(|w| FaultKind::StuckRapl { pinned_w: w }),
        (1u32..5).prop_map(|iterations| FaultKind::TelemetryDropout { iterations }),
        Just(FaultKind::TransientMsrFault),
    ]
}

fn arb_config() -> impl Strategy<Value = KernelConfig> {
    (
        0.5f64..24.0,
        prop_oneof![
            Just(WaitingFraction::P0),
            Just(WaitingFraction::P50),
            Just(WaitingFraction::P75)
        ],
    )
        .prop_map(|(i, w)| {
            let k = if w == WaitingFraction::P0 {
                Imbalance::Balanced
            } else {
                Imbalance::TwoX
            };
            KernelConfig::new(i, VectorWidth::Ymm, w, k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Columnar stepping — with fast-forward both armed and disarmed — is
    /// bit-identical to the seed's per-node loop for every observable of
    /// every iteration, over random fault plans, jitter seeds, and
    /// limit/cap schedules.
    #[test]
    fn columnar_matches_seed_semantics(
        config in arb_config(),
        eps in prop::collection::vec(0.92f64..1.08, 1..5),
        sigma in prop_oneof![Just(0.0), 0.002f64..0.02],
        seed in 0u64..u64::MAX,
        faults in prop::collection::vec((0u64..50, 0usize..5, arb_kind()), 0..4),
        writes in prop::collection::vec(
            (
                0u64..50,
                0usize..5,
                arb_limit(),
                prop_oneof![Just(None), (1.2f64..2.6).prop_map(Some)],
                arb_shape(),
            ),
            0..8,
        ),
        reconfig in prop_oneof![Just(None), (0u64..50, arb_config()).prop_map(Some)],
    ) {
        let n = eps.len();
        let plan = FaultPlan::scripted(
            faults
                .iter()
                .map(|&(at_iteration, host, kind)| FaultEvent {
                    at_iteration,
                    host: host % n,
                    kind,
                })
                .collect(),
        );
        let writes: Vec<ControlWrite> = writes
            .iter()
            .map(|&(at, host, limit, cap_ghz, shape)| ControlWrite {
                at,
                host: host % n,
                limit,
                cap_ghz,
                shape,
            })
            .collect();

        let mut reference = Reference::new(config, &eps, plan.clone(), sigma, seed);
        let mut fast = build_platform(config, &eps, plan.clone(), sigma, seed, true);
        let mut slow = build_platform(config, &eps, plan.clone(), sigma, seed, false);
        // Pathologically small segments: every host write and fault now
        // straddles a segment boundary somewhere in the schedule.
        let mut sharded =
            build_platform(config, &eps, plan, sigma, seed, true).with_segment_hosts(2);
        let mut fast_bufs = IterationBuffers::new();
        let mut slow_bufs = IterationBuffers::new();
        let mut shard_bufs = IterationBuffers::new();

        for iter in 0..50u64 {
            fast.run_iteration_into(&mut fast_bufs);
            slow.run_iteration_into(&mut slow_bufs);
            sharded.run_iteration_into(&mut shard_bufs);
            let expected = reference.run_iteration();
            prop_assert_eq!(&observe(&fast_bufs), &expected, "fast-forward path, iteration {}", iter);
            prop_assert_eq!(&observe(&slow_bufs), &expected, "reference path, iteration {}", iter);
            prop_assert_eq!(&observe(&shard_bufs), &expected, "sharded path, iteration {}", iter);

            // A phase change while limits are still creeping: the cached
            // points were resolved against the old workload's tables.
            if let Some((_, next)) = reconfig.filter(|(at, _)| *at == iter) {
                reference.load = KernelLoad::new(next, reference.model.spec());
                for p in [&mut fast, &mut slow, &mut sharded] {
                    p.set_config(next);
                }
            }
            for w in writes.iter().filter(|w| w.at == iter) {
                let limit = w.watts(&reference.nodes);
                let expected = match w.shape {
                    WriteShape::Uniform => reference_uniform_limit(&mut reference.nodes, limit),
                    _ => reference.nodes[w.host].set_power_limit(limit),
                };
                for p in [&mut fast, &mut slow, &mut sharded] {
                    let got = match w.shape {
                        WriteShape::Uniform => p.set_uniform_limit(limit),
                        _ => p.set_host_limit(w.host, limit),
                    };
                    prop_assert_eq!(&got, &expected, "limit write {:?}", w);
                }
                if let WriteShape::Twice(second) = w.shape {
                    let expected = reference.nodes[w.host].set_power_limit(Watts(second));
                    for p in [&mut fast, &mut slow, &mut sharded] {
                        prop_assert_eq!(&p.set_host_limit(w.host, Watts(second)), &expected);
                    }
                }
                if let Some(ghz) = w.cap_ghz {
                    let cap = Some(Hertz(ghz * 1e9));
                    let expected = reference.nodes[w.host].set_freq_cap(cap);
                    for p in [&mut fast, &mut slow, &mut sharded] {
                        prop_assert_eq!(&p.set_host_freq_cap(w.host, cap), &expected);
                    }
                }
                if let WriteShape::ThenView = w.shape {
                    assert_nodes_match(&fast, &reference.nodes);
                    assert_nodes_match(&sharded, &reference.nodes);
                }
            }
        }

        let expected_energy = reference.energies();
        let fast_energy: Vec<u64> = fast.host_energy().iter().map(|e| e.value().to_bits()).collect();
        let slow_energy: Vec<u64> = slow.host_energy().iter().map(|e| e.value().to_bits()).collect();
        let shard_energy: Vec<u64> = sharded.host_energy().iter().map(|e| e.value().to_bits()).collect();
        prop_assert_eq!(&fast_energy, &expected_energy);
        prop_assert_eq!(&slow_energy, &expected_energy);
        prop_assert_eq!(&shard_energy, &expected_energy);
    }
}

/// One scheduled event of the slice-reuse property below.
#[derive(Debug, Clone, Copy)]
enum Churn {
    Limit(f64),
    /// A limit a few watts off the programmed one: inside the cached
    /// operating point's span about as often as across its edge.
    Nudge(f64),
    Cap(Option<f64>),
    UniformLimit(f64),
    Death,
    Dropout(u32),
    /// A stuck RAPL plane: later limit writes "succeed" and change nothing.
    Stuck(f64),
    /// A workload change, to a kernel with or without ranks to demote.
    Config(f64, bool),
    /// Both platforms continue into `IterationBuffers::new()`.
    FreshBuffers,
    /// Both platforms continue into buffers that last served another
    /// platform of the same size.
    ForeignBuffers,
    /// This many undisturbed iterations, reads compared throughout — long
    /// enough for a clean segment's pending replays to carry its energy
    /// across several binades — then the follow-up right away.
    Idle(u32, Follow),
}

/// What lands on a platform straight out of an idle stretch.
#[derive(Debug, Clone, Copy)]
enum Follow {
    Limit(f64),
    Death,
    Stuck(f64),
    Dropout(u32),
    /// Both platforms re-sharded into segments of this many hosts.
    Reshard(usize),
}

fn arb_follow() -> impl Strategy<Value = Follow> {
    prop_oneof![
        (120.0f64..260.0).prop_map(Follow::Limit),
        Just(Follow::Death),
        (120.0f64..220.0).prop_map(Follow::Stuck),
        (1u32..4).prop_map(Follow::Dropout),
        (1usize..6).prop_map(Follow::Reshard),
    ]
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    prop_oneof![
        (1u32..3000, arb_follow()).prop_map(|(n, then)| Churn::Idle(n, then)),
        (120.0f64..260.0).prop_map(Churn::Limit),
        (-4.0f64..4.0).prop_map(Churn::Nudge),
        (-4.0f64..4.0).prop_map(Churn::Nudge),
        prop_oneof![Just(None), (1.2f64..2.6).prop_map(Some)].prop_map(Churn::Cap),
        (120.0f64..260.0).prop_map(Churn::UniformLimit),
        Just(Churn::Death),
        (1u32..4).prop_map(Churn::Dropout),
        (120.0f64..220.0).prop_map(Churn::Stuck),
        (0.5f64..24.0, 0u8..2).prop_map(|(i, w)| Churn::Config(i, w == 1)),
        Just(Churn::FreshBuffers),
        Just(Churn::ForeignBuffers),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hazard segment-granular outcomes create: a segment's slices of
    /// the double buffer are left alone while its stamp says they are
    /// current, so a wrong stamp serves an old iteration's values. Over
    /// 4-host segments and random single-host writes, uniform writes,
    /// deaths, telemetry dropouts that end mid-run, workload changes and
    /// buffers swapped for fresh or another platform's, `outcome()` and
    /// `previous()` must
    /// equal — field for field, after every iteration — those of a twin
    /// that steps everything, and per-host energy must be bit-identical.
    ///
    /// Under jitter every iteration has a new `dt`, so no segment replays;
    /// but a stable one (settled, and its last step read every host back
    /// fresh) keeps its limit, power, lead, alive and fresh slices at any
    /// `dt`, while its compute-time slice is redrawn every iteration and the
    /// RNG stream must not move. The same comparison shows all three. Every
    /// jittered case runs one idle stretch long enough for its 4-host
    /// segments to settle, so it reaches stable jittered segments and keeps
    /// them across both sides of the double buffer.
    ///
    /// The twin also resolves every host through the PCU search every
    /// iteration, while the fast platform keeps the points whose span the
    /// enforced limit is still inside. The schedule is dense enough that
    /// most events land on segments whose filters are still creeping, so a
    /// span that survived a frequency-cap write, a death, a stuck plane or a
    /// workload change it should not have shows as a wrong outcome.
    #[test]
    fn reused_outcome_slices_match_the_stepping_twin(
        eps in prop::collection::vec(0.92f64..1.08, 1..14),
        sigma in prop_oneof![Just(0.0), Just(0.0), 0.002f64..0.02],
        seed in 0u64..u64::MAX,
        schedule in prop::collection::vec((0u64..48, 0usize..14, arb_churn()), 0..16),
        settle in (0u64..48, 0usize..14, 100u32..400, arb_follow()),
    ) {
        let n = eps.len();
        let mut schedule = schedule;
        if sigma > 0.0 {
            let (at, host, len, then) = settle;
            schedule.push((at, host, Churn::Idle(len, then)));
        }
        let phase = |intensity, waiting| match waiting {
            true => KernelConfig::new(
                intensity,
                VectorWidth::Ymm,
                WaitingFraction::P50,
                Imbalance::TwoX,
            ),
            false => KernelConfig::balanced_ymm(intensity),
        };
        let config = phase(8.0, true);
        let mk = |fast_forward| {
            build_platform(config, &eps, FaultPlan::none(), sigma, seed, fast_forward)
                .with_segment_hosts(4)
        };
        let (mut fast, mut twin) = (mk(true), mk(false));
        // What another platform of the same shape leaves in its buffers: a
        // steady fleet's outcome, stamped by that platform.
        let foreign = || {
            let donor_eps: Vec<f64> = eps.iter().rev().map(|e| 2.0 - e).collect();
            let mut donor =
                build_platform(config, &donor_eps, FaultPlan::none(), 0.0, 0, true)
                    .with_segment_hosts(4);
            let mut bufs = IterationBuffers::new();
            for _ in 0..3 {
                donor.run_iteration_into(&mut bufs);
            }
            bufs
        };
        let mut fast_bufs = IterationBuffers::new();
        let mut twin_bufs = IterationBuffers::new();
        for iter in 0..64u64 {
            for &(_, host, churn) in schedule.iter().filter(|(at, ..)| *at == iter) {
                let host = host % n;
                for p in [&mut fast, &mut twin] {
                    // Refusals (a dead host) must agree too; the comparison
                    // below would show a platform that applied one anyway.
                    match churn {
                        Churn::Limit(w) => drop(p.set_host_limit(host, Watts(w))),
                        Churn::Nudge(dw) => {
                            let limit = p.host_limits()[host] + Watts(dw);
                            drop(p.set_host_limit(host, limit))
                        }
                        Churn::Cap(ghz) => {
                            drop(p.set_host_freq_cap(host, ghz.map(|g| Hertz(g * 1e9))))
                        }
                        Churn::UniformLimit(w) => drop(p.set_uniform_limit(Watts(w))),
                        Churn::Death => p.inject_fault(host, FaultKind::NodeDeath),
                        Churn::Dropout(iterations) => {
                            p.inject_fault(host, FaultKind::TelemetryDropout { iterations })
                        }
                        Churn::Stuck(pinned_w) => {
                            p.inject_fault(host, FaultKind::StuckRapl { pinned_w })
                        }
                        Churn::Config(intensity, waiting) => {
                            p.set_config(phase(intensity, waiting))
                        }
                        Churn::FreshBuffers | Churn::ForeignBuffers | Churn::Idle(..) => {}
                    }
                }
                match churn {
                    Churn::FreshBuffers => {
                        fast_bufs = IterationBuffers::new();
                        twin_bufs = IterationBuffers::new();
                    }
                    Churn::ForeignBuffers => {
                        fast_bufs = foreign();
                        twin_bufs = foreign();
                    }
                    Churn::Idle(len, then) => {
                        for i in 0..len {
                            step_twins([&mut fast, &mut twin], [&mut fast_bufs, &mut twin_bufs], iter)?;
                            if i % 500 == 499 {
                                compare_reads(&fast, &twin)?;
                            }
                        }
                        compare_reads(&fast, &twin)?;
                        if let Follow::Reshard(hosts) = then {
                            fast = fast.with_segment_hosts(hosts);
                            twin = twin.with_segment_hosts(hosts);
                        }
                        for p in [&mut fast, &mut twin] {
                            match then {
                                Follow::Limit(w) => drop(p.set_host_limit(host, Watts(w))),
                                Follow::Death => p.inject_fault(host, FaultKind::NodeDeath),
                                Follow::Stuck(pinned_w) => {
                                    p.inject_fault(host, FaultKind::StuckRapl { pinned_w })
                                }
                                Follow::Dropout(iterations) => {
                                    p.inject_fault(host, FaultKind::TelemetryDropout { iterations })
                                }
                                Follow::Reshard(_) => {}
                            }
                        }
                        compare_reads(&fast, &twin)?;
                    }
                    _ => {}
                }
            }
            step_twins([&mut fast, &mut twin], [&mut fast_bufs, &mut twin_bufs], iter)?;
        }
    }
}

/// One iteration of the fast platform and its stepping twin: outcome,
/// previous outcome and per-host energy must agree bit for bit.
fn step_twins(
    [fast, twin]: [&mut JobPlatform; 2],
    [fast_bufs, twin_bufs]: [&mut IterationBuffers; 2],
    iter: u64,
) -> Result<(), TestCaseError> {
    fast.run_iteration_into(fast_bufs);
    twin.run_iteration_into(twin_bufs);
    prop_assert_eq!(
        observe(fast_bufs),
        observe(twin_bufs),
        "outcome, iteration {}",
        iter
    );
    prop_assert_eq!(
        observe_outcome(fast_bufs.previous()),
        observe_outcome(twin_bufs.previous()),
        "previous, iteration {}",
        iter
    );
    let energy = |p: &JobPlatform| -> Vec<u64> {
        p.host_energy()
            .iter()
            .map(|e| e.value().to_bits())
            .collect()
    };
    prop_assert_eq!(energy(fast), energy(twin), "energy, iteration {}", iter);
    Ok(())
}

/// Every other energy read the platform offers: materialised `Node`s (their
/// energy and energy-status MSRs) and the fleet snapshot.
fn compare_reads(fast: &JobPlatform, twin: &JobPlatform) -> Result<(), TestCaseError> {
    let status = |node: &Node| -> Vec<_> {
        (node.packages().iter())
            .map(|p| p.msrs().read(address::PKG_ENERGY_STATUS))
            .collect()
    };
    for h in 0..fast.num_hosts() {
        let (a, b) = (fast.node(h), twin.node(h));
        prop_assert_eq!(
            a.energy().value().to_bits(),
            b.energy().value().to_bits(),
            "node {}",
            h
        );
        prop_assert_eq!(status(&a), status(&b), "node {} energy status", h);
    }
    let snap = |p: &JobPlatform| p.fleet_snapshot(&IterationOutcome::default()).energy_j;
    prop_assert_eq!(
        snap(fast).to_bits(),
        snap(twin).to_bits(),
        "fleet snapshot energy"
    );
    Ok(())
}

/// The platform iteration loop transcribed onto a [`ClassedBank`]: the same
/// fault delivery, jitter draws, elapsed fold, pre-step limit observation,
/// batched stepping and stale-telemetry fallback, but against the
/// heterogeneous container instead of the homogeneous [`NodeBank`]
/// (`pmstack_simhw::NodeBank`) the platform embeds.
struct ClassedDriver {
    load: KernelLoad,
    bank: ClassedBank,
    plan: FaultPlan,
    sigma: f64,
    rng: ChaCha8Rng,
    iteration: u64,
    last_power: Vec<Watts>,
    last_lead: Vec<Hertz>,
}

impl ClassedDriver {
    fn new(config: KernelConfig, eps: &[f64], plan: FaultPlan, sigma: f64, seed: u64) -> Self {
        let spec = quartz_spec();
        let load = KernelLoad::new(config, &spec);
        let classes = vec![NodeClass::pkg_only("quartz", spec)];
        let membership = vec![ClassId(0); eps.len()];
        let bank = ClassedBank::new(classes, &membership, eps).unwrap();
        let n = eps.len();
        Self {
            load,
            bank,
            plan,
            sigma,
            rng: ChaCha8Rng::seed_from_u64(seed),
            iteration: 0,
            last_power: vec![Watts::ZERO; n],
            last_lead: vec![Hertz(0.0); n],
        }
    }

    fn draw_jitter(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let u: f64 = self.rng.gen::<f64>() + self.rng.gen::<f64>() - 1.0;
        (1.0 + u * self.sigma * 1.7).max(0.5)
    }

    fn run_iteration(&mut self) -> Observed {
        let events: Vec<FaultEvent> = self
            .plan
            .events()
            .iter()
            .filter(|e| e.at_iteration == self.iteration)
            .copied()
            .collect();
        for ev in events {
            if ev.host < self.bank.len() {
                self.bank.inject(ev.host, ev.kind);
            }
        }
        self.iteration += 1;

        let n = self.bank.len();
        let mut ops: Vec<Option<OperatingPoint>> = Vec::with_capacity(n);
        let mut compute = Vec::with_capacity(n);
        for host in 0..n {
            if !self.bank.is_alive(host) {
                ops.push(None);
                compute.push(Seconds::ZERO);
                continue;
            }
            let op = self.bank.operating_point(host, &self.load);
            let jitter = self.draw_jitter();
            compute.push(Seconds(self.load.iteration_time(&op).value() * jitter));
            ops.push(Some(op));
        }
        let elapsed = compute.iter().copied().fold(Seconds::ZERO, Seconds::max);
        let limits: Vec<Watts> = (0..n).map(|h| self.bank.enforced_limit(h)).collect();

        let mut steps = vec![HostStep::Skipped; n];
        self.bank.step_all_partial(elapsed, &ops, &mut steps, false);

        let mut power = Vec::with_capacity(n);
        let mut lead = Vec::with_capacity(n);
        let mut alive = Vec::with_capacity(n);
        let mut fresh = Vec::with_capacity(n);
        for host in 0..n {
            match (&ops[host], steps[host]) {
                (None, _) => {
                    power.push(Watts::ZERO);
                    lead.push(Hertz(0.0));
                    alive.push(false);
                    fresh.push(false);
                }
                (Some(op), HostStep::Fresh) => {
                    self.last_power[host] = op.power;
                    self.last_lead[host] = op.lead;
                    power.push(op.power);
                    lead.push(op.lead);
                    alive.push(true);
                    fresh.push(true);
                }
                (Some(_), HostStep::Stale) => {
                    power.push(self.last_power[host]);
                    lead.push(self.last_lead[host]);
                    alive.push(true);
                    fresh.push(false);
                }
                (Some(_), HostStep::Skipped) => unreachable!("live host was not stepped"),
            }
        }
        Observed {
            elapsed: elapsed.value().to_bits(),
            compute: compute.iter().map(|t| t.value().to_bits()).collect(),
            power: power.iter().map(|p| p.value().to_bits()).collect(),
            lead: lead.iter().map(|f| f.value().to_bits()).collect(),
            limit: limits.iter().map(|l| l.value().to_bits()).collect(),
            alive,
            fresh,
        }
    }

    fn energies(&self) -> Vec<u64> {
        (0..self.bank.len())
            .map(|h| self.bank.energy(h).value().to_bits())
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// A one-class, PKG-only heterogeneous fleet run through the platform's
    /// iteration loop is bit-identical to the seed's per-node loop for every
    /// observable of every iteration — the degenerate-heterogeneity contract
    /// at the runtime layer, mirroring the bank-level lockstep suite in
    /// `crates/simhw/tests/shards.rs`.
    #[test]
    fn one_class_fleet_matches_seed_semantics(
        config in arb_config(),
        eps in prop::collection::vec(0.92f64..1.08, 1..5),
        sigma in prop_oneof![Just(0.0), 0.002f64..0.02],
        seed in 0u64..u64::MAX,
        faults in prop::collection::vec((0u64..40, 0usize..5, arb_kind()), 0..4),
        writes in prop::collection::vec(
            (
                0u64..40,
                0usize..5,
                arb_limit(),
                prop_oneof![Just(None), (1.2f64..2.6).prop_map(Some)],
                arb_shape(),
            ),
            0..4,
        ),
    ) {
        let n = eps.len();
        let plan = FaultPlan::scripted(
            faults
                .iter()
                .map(|&(at_iteration, host, kind)| FaultEvent {
                    at_iteration,
                    host: host % n,
                    kind,
                })
                .collect(),
        );
        let writes: Vec<ControlWrite> = writes
            .iter()
            .map(|&(at, host, limit, cap_ghz, shape)| ControlWrite {
                at,
                host: host % n,
                limit,
                cap_ghz,
                shape,
            })
            .collect();

        let mut reference = Reference::new(config, &eps, plan.clone(), sigma, seed);
        let mut classed = ClassedDriver::new(config, &eps, plan, sigma, seed);

        for iter in 0..40u64 {
            let expected = reference.run_iteration();
            let got = classed.run_iteration();
            prop_assert_eq!(&got, &expected, "classed one-class path, iteration {}", iter);

            for w in writes.iter().filter(|w| w.at == iter) {
                // The classed bank has no uniform entry point of its own:
                // a uniform write is the per-host write on every host.
                let hosts = match w.shape {
                    WriteShape::Uniform => 0..n,
                    _ => w.host..w.host + 1,
                };
                let limit = w.watts(&reference.nodes);
                for h in hosts {
                    prop_assert_eq!(
                        classed.bank.set_power_limit(h, limit),
                        reference.nodes[h].set_power_limit(limit)
                    );
                }
                if let WriteShape::Twice(second) = w.shape {
                    prop_assert_eq!(
                        classed.bank.set_power_limit(w.host, Watts(second)),
                        reference.nodes[w.host].set_power_limit(Watts(second))
                    );
                }
                if let Some(ghz) = w.cap_ghz {
                    let cap = Some(Hertz(ghz * 1e9));
                    prop_assert_eq!(
                        classed.bank.set_freq_cap(w.host, cap),
                        reference.nodes[w.host].set_freq_cap(cap)
                    );
                }
            }
        }
        prop_assert_eq!(classed.energies(), reference.energies());
    }
}

/// Deterministic long run: the fast-forward replay must actually engage and
/// stay bit-identical to the seed loop through capture, replay, a mid-run
/// control write (which disarms it), and re-capture.
#[test]
fn fast_forward_replay_is_bit_identical_over_long_run() {
    let config = KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P50, Imbalance::TwoX);
    let eps = [0.97, 1.0, 1.04];
    let mut reference = Reference::new(config, &eps, FaultPlan::none(), 0.0, 7);
    let mut p = build_platform(config, &eps, FaultPlan::none(), 0.0, 7, true);
    let mut bufs = IterationBuffers::new();

    // Cap hard enough that the enforcement filter has real work to do.
    for h in 0..eps.len() {
        p.set_host_limit(h, Watts(180.0)).unwrap();
        reference.nodes[h].set_power_limit(Watts(180.0)).unwrap();
    }

    let mut engaged = false;
    for iter in 0..400 {
        if iter == 250 {
            assert!(
                p.steady_state_active(),
                "fast-forward should be armed once the filters settle"
            );
            engaged = true;
            p.set_host_limit(1, Watts(200.0)).unwrap();
            reference.nodes[1].set_power_limit(Watts(200.0)).unwrap();
            assert!(
                !p.steady_state_active(),
                "control writes must disarm replay"
            );
        }
        p.run_iteration_into(&mut bufs);
        let expected = reference.run_iteration();
        assert_eq!(observe(&bufs), expected, "iteration {iter}");
    }
    assert!(engaged);
    assert!(
        p.steady_state_active(),
        "replay should re-arm after the new limit settles"
    );
    let energies: Vec<u64> = p
        .host_energy()
        .iter()
        .map(|e| e.value().to_bits())
        .collect();
    assert_eq!(energies, reference.energies());
}

/// Single-host disturbances on segment-edge hosts of a sharded platform:
/// the run stays bit-identical to the seed loop throughout, and steady-state
/// replay re-arms after each localized invalidation (proving a one-host
/// write does not wedge the other segments out of their caches).
#[test]
fn sharded_single_host_writes_stay_bit_identical_and_rearm() {
    let config = KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P50, Imbalance::TwoX);
    // 13 hosts at 3 per segment: 5 segments, ragged final segment of one.
    let eps: Vec<f64> = (0..13).map(|i| 0.94 + 0.01 * (i % 9) as f64).collect();
    let mut reference = Reference::new(config, &eps, FaultPlan::none(), 0.0, 23);
    let mut p =
        build_platform(config, &eps, FaultPlan::none(), 0.0, 23, true).with_segment_hosts(3);
    assert_eq!(p.num_segments(), 5);
    let mut bufs = IterationBuffers::new();

    for h in 0..eps.len() {
        p.set_host_limit(h, Watts(180.0)).unwrap();
        reference.nodes[h].set_power_limit(Watts(180.0)).unwrap();
    }

    let mut rearms = 0;
    for iter in 0..700 {
        match iter {
            // Last host of segment 0, first host of segment 1, the lone
            // host of the ragged final segment, and a mid-segment fault.
            200 => {
                assert!(p.steady_state_active(), "replay should be armed by 200");
                p.set_host_limit(2, Watts(200.0)).unwrap();
                reference.nodes[2].set_power_limit(Watts(200.0)).unwrap();
            }
            320 => {
                p.set_host_limit(3, Watts(170.0)).unwrap();
                reference.nodes[3].set_power_limit(Watts(170.0)).unwrap();
            }
            440 => {
                p.set_host_limit(12, Watts(195.0)).unwrap();
                reference.nodes[12].set_power_limit(Watts(195.0)).unwrap();
            }
            560 => {
                p.inject_fault(7, FaultKind::TelemetryDropout { iterations: 3 });
                reference.nodes[7].inject(FaultKind::TelemetryDropout { iterations: 3 });
            }
            _ => {}
        }
        if matches!(iter, 200 | 320 | 440 | 560) {
            assert!(!p.steady_state_active(), "disturbance must disarm replay");
        }
        if matches!(iter, 319 | 439 | 559 | 699) {
            assert!(
                p.steady_state_active(),
                "replay should re-arm after the localized disturbance settles (iter {iter})"
            );
            rearms += 1;
        }
        p.run_iteration_into(&mut bufs);
        let expected = reference.run_iteration();
        assert_eq!(observe(&bufs), expected, "iteration {iter}");
    }
    assert_eq!(rearms, 4);
    let energies: Vec<u64> = p
        .host_energy()
        .iter()
        .map(|e| e.value().to_bits())
        .collect();
    assert_eq!(energies, reference.energies());
}

/// The bank's operating-point resolve (used by the platform) agrees with the
/// node's own resolve under frequency caps.
#[test]
fn platform_operating_point_matches_node_resolve() {
    let config = KernelConfig::balanced_ymm(8.0);
    let eps = [1.0, 1.03];
    let mut p = build_platform(config, &eps, FaultPlan::none(), 0.0, 0, true);
    let model = PowerModel::new(quartz_spec()).unwrap();
    let load = KernelLoad::new(config, model.spec());
    let mut nodes: Vec<Node> = eps
        .iter()
        .enumerate()
        .map(|(i, &e)| Node::new(NodeId(i), &model, e).unwrap())
        .collect();
    p.set_host_freq_cap(0, Some(Hertz(1.9e9))).unwrap();
    nodes[0].set_freq_cap(Some(Hertz(1.9e9))).unwrap();
    for (h, node) in nodes.iter().enumerate() {
        let got = p.host_operating_point(h).unwrap();
        let want = node.operating_point(&model, &load);
        assert_eq!(got.lead.value().to_bits(), want.lead.value().to_bits());
        assert_eq!(got.trail.value().to_bits(), want.trail.value().to_bits());
        assert_eq!(got.power.value().to_bits(), want.power.value().to_bits());
    }
    let _ = Joules::ZERO; // keep the unit import honest if fields change
}

/// The pre-step pass fans out by segment once two segments resolve. On a
/// multi-segment fleet — tiny segments, a ragged last one, jitter on and
/// off, fast-forward on and off — through uniform and batched limit writes,
/// a death, a stuck latch, a dropout and one-host churn, the platform that
/// fans out on the pool and its twin kept on the calling thread by
/// `sequential_scope` produce the same outcome every iteration (limits,
/// compute times, powers, leads: what the operating points and their times
/// hold), the same operating point for every host, and the same energy.
#[test]
fn chunked_prestep_matches_the_calling_thread() {
    let config = KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P50, Imbalance::TwoX);
    let eps: Vec<f64> = (0..37).map(|i| 0.93 + 0.011 * (i % 13) as f64).collect();
    for segment_hosts in [1, 3, 7] {
        for sigma in [0.0, 0.01] {
            for ff in [true, false] {
                let mk = || {
                    let p = build_platform(config, &eps, FaultPlan::none(), sigma, 5, ff);
                    p.with_segment_hosts(segment_hosts)
                };
                let (mut pool, mut scoped) = (mk(), mk());
                let (mut pb, mut sb) = (IterationBuffers::new(), IterationBuffers::new());
                for iter in 0..80 {
                    let disturb = |p: &mut JobPlatform| match iter {
                        0 => p.set_uniform_limit(Watts(180.0)).unwrap(),
                        12 => {
                            let written = p
                                .set_host_limits(|h| {
                                    (h % 3 == 0).then_some(Watts(165.0 + h as f64))
                                })
                                .unwrap();
                            assert_eq!(written, 13);
                        }
                        20 => {
                            p.inject_fault(5, FaultKind::NodeDeath);
                            p.inject_fault(9, FaultKind::StuckRapl { pinned_w: 150.0 });
                            p.inject_fault(30, FaultKind::TelemetryDropout { iterations: 2 });
                        }
                        30 => p.set_uniform_limit(Watts(205.0)).unwrap(),
                        40..=60 => p
                            .set_host_limit(0, Watts(190.0 + (iter % 2) as f64))
                            .unwrap(),
                        _ => {}
                    };
                    disturb(&mut pool);
                    pmstack_exec::sequential_scope(|| disturb(&mut scoped));
                    pool.run_iteration_into(&mut pb);
                    pmstack_exec::sequential_scope(|| scoped.run_iteration_into(&mut sb));
                    assert_eq!(
                        observe(&pb),
                        observe(&sb),
                        "{segment_hosts}-host segments, sigma {sigma}, ff {ff}, iteration {iter}"
                    );
                }
                for h in 0..eps.len() {
                    let (a, b) = (pool.host_operating_point(h), scoped.host_operating_point(h));
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "host {h}");
                }
                assert_eq!(pool.host_energy(), scoped.host_energy());
                assert_eq!(pool.host_limits(), scoped.host_limits());
            }
        }
    }
}
