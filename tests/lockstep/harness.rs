//! The lockstep harness: one oracle, one generator, one comparator, and an
//! adapter per system under test. `main.rs` states the contract.

#![allow(dead_code)] // each test binary uses its own share of the harness

use pmstack_kernel::{Imbalance, KernelConfig, KernelLoad, VectorWidth, WaitingFraction};
use pmstack_obs::EventKind;
use pmstack_runtime::{FleetSnapshot, IterationBuffers, IterationOutcome, JobPlatform};
use pmstack_simhw::power::OperatingPoint;
use pmstack_simhw::{
    quartz_spec, standard_classes, ClassId, FaultEvent, FaultKind, FaultPlan, Hertz, HostStep,
    Joules, Node, NodeBank, NodeHealth, NodeId, PowerModel, RaplDomain, Seconds, SimHwError,
    StepReport, Watts,
};
use proptest::prelude::*;
use proptest::strategy::{BoxedStrategy, Union};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Debug;
use std::ops::Range;

/// Parts a fleet is built of: the quartz node with 2, 1 and 3 sockets (the
/// step kernel's two fixed widths and its dynamic one), then each standard
/// class with its PP0/DRAM planes.
pub const PARTS: usize = 6;

pub fn part_model(kind: usize) -> PowerModel {
    let spec = match kind {
        0..=2 => {
            let mut spec = quartz_spec();
            spec.sockets_per_node = [2, 1, 3][kind];
            let cores = spec.sockets_per_node * spec.cores_per_socket;
            spec.cores_used_per_node = spec.cores_used_per_node.min(cores);
            spec
        }
        k => standard_classes().swap_remove(k - 3).spec,
    };
    PowerModel::new(spec).unwrap()
}

/// The `Node` of part `kind` a per-host build makes for `(id, eps)`.
pub fn part_node(
    kind: usize,
    model: &PowerModel,
    id: NodeId,
    eps: f64,
) -> Result<Node, SimHwError> {
    match kind {
        0..=2 => Node::new(id, model, eps),
        k => Node::with_class(id, ClassId(0), &standard_classes()[k - 3], model, eps),
    }
}

/// The kernel every fleet runs: `intensity` flops/byte, balanced or half
/// its ranks waiting on a 2× imbalance.
pub fn phase(intensity: f64, waiting: bool) -> KernelConfig {
    let (w, k) = (WaitingFraction::P50, Imbalance::TwoX);
    match waiting {
        true => KernelConfig::new(intensity, VectorWidth::Ymm, w, k),
        false => KernelConfig::balanced_ymm(intensity),
    }
}

/// One generated operation. Every system under test takes it, and the
/// oracle takes it on its `Node`s. Hosts are drawn below 64; the driver
/// takes them modulo the fleet size.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// One iteration: a bank steps at `dt`, a platform at its barrier.
    Step(f64),
    /// The daemon's tick: one iteration under `sequential_scope`, every
    /// pending replay applied, a fleet snapshot.
    Tick,
    /// This many undisturbed iterations at 0.2 s: long enough for a settled
    /// segment's pending replays to carry its energy across binades.
    Idle(u32),
    Limit(usize, f64),
    /// A limit a few watts off the host's programmed one: inside its cached
    /// operating point's span about as often as across its edge. The driver
    /// turns it into a `Limit` off the oracle's programmed limit (each
    /// system's own is compared after every op).
    Nudge(usize, f64),
    /// One batched write over hosts `lo..lo + len` (cut at the fleet's
    /// end), host `h` asking [`batch_ask`]`(seed, h)`.
    Limits(usize, usize, u64),
    /// Every host asks the same limit; a dead host's refusal is skipped.
    Uniform(f64),
    Cap(usize, Option<f64>),
    /// A fault now, or (`planned`) at the start of the next iteration, as a
    /// platform's fault plan fires it.
    Fault(usize, FaultKind, bool),
    /// A PP0/DRAM limit write, or (`stuck`) a stuck plane (bank only).
    Plane(usize, RaplDomain, f64, bool),
    /// Mark the host suspect (`true`) or healthy.
    Mark(usize, bool),
    Reshard(usize),
    /// A workload change the bank is told about.
    Config(f64, bool),
    /// Continue into fresh buffers (`false`) or ones another platform of the
    /// same size last filled (platform only).
    Buffers(bool),
    /// Rebuild the bank from its own materialised `Node`s (bank only).
    Rebuild,
}

/// The limit host `h` asks for in the batched write seeded `seed`: none
/// for one host in five, the rest past the settable range on both sides.
pub fn batch_ask(seed: u64, h: usize) -> Option<Watts> {
    let x = (seed ^ (h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D);
    let x = x ^ (x >> 31);
    (!x.is_multiple_of(5)).then(|| Watts(40.0 + (x >> 8) as f64 % 280.0))
}

/// The host range a batched write `Limits(lo, len, _)` covers on `n` hosts.
pub fn batch_range(lo: usize, len: usize, n: usize) -> Range<usize> {
    lo.min(n)..(lo + len).min(n)
}

pub fn fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::NodeDeath),
        Just(FaultKind::NodeDeath),
        (100.0f64..260.0).prop_map(|pinned_w| FaultKind::StuckRapl { pinned_w }),
        (1u32..5).prop_map(|iterations| FaultKind::TelemetryDropout { iterations }),
        Just(FaultKind::TransientMsrFault),
    ]
}

/// The op mix: steps, single-host writes and faults twice as likely as the
/// rest. `bank` adds the bank-only ops; a platform draws buffer swaps.
pub fn op(bank: bool, idle: Range<u32>) -> impl Strategy<Value = Op> {
    fn b(s: impl Strategy<Value = Op> + 'static) -> BoxedStrategy<Op> {
        s.boxed()
    }
    let host = || 0usize..64;
    let limit = || b((host(), 60.0f64..300.0).prop_map(|(h, w)| Op::Limit(h, w)));
    let nudge = || b((host(), -4.0f64..4.0).prop_map(|(h, w)| Op::Nudge(h, w)));
    let fault = || b((host(), fault_kind(), 0u8..2).prop_map(|(h, k, p)| Op::Fault(h, k, p == 1)));
    let dt = prop_oneof![Just(0.2), 0.05f64..0.4];
    let cap = prop_oneof![Just(None), (1.2f64..2.6).prop_map(Some)];
    let mut ops = vec![
        b(dt.prop_map(Op::Step)),
        b(Just(Op::Step(0.2))),
        b(Just(Op::Tick)),
        b(idle.prop_map(Op::Idle)),
        limit(),
        limit(),
        nudge(),
        b((host(), host(), 0u64..u64::MAX).prop_map(|(lo, len, s)| Op::Limits(lo, len, s))),
        b((120.0f64..260.0).prop_map(Op::Uniform)),
        b((host(), cap).prop_map(|(h, c)| Op::Cap(h, c))),
        fault(),
        fault(),
        b((host(), 0u8..2).prop_map(|(h, s)| Op::Mark(h, s == 1))),
        b((1usize..10).prop_map(Op::Reshard)),
        b((0.5f64..24.0, 0u8..2).prop_map(|(i, w)| Op::Config(i, w == 1))),
    ];
    if bank {
        let plane = prop_oneof![Just(RaplDomain::Pp0), Just(RaplDomain::Dram)];
        let stuck = (host(), plane, 0.0f64..200.0, 0u8..4);
        ops.push(b(stuck.prop_map(|(h, d, w, s)| Op::Plane(h, d, w, s == 0))));
        ops.push(b(Just(Op::Rebuild)));
    } else {
        ops.push(b((0u8..2).prop_map(|f| Op::Buffers(f == 1))));
    }
    Union::new(ops)
}

/// The fault plan that fires `ops`' planned faults where the oracle takes
/// them: at the start of the next iteration.
pub fn fault_plan(ops: &[Op], n: usize) -> FaultPlan {
    let mut at_iteration = 0;
    let mut events = Vec::new();
    for op in ops {
        match *op {
            Op::Fault(h, kind, true) => events.push(FaultEvent {
                at_iteration,
                host: h % n,
                kind,
            }),
            Op::Step(_) | Op::Tick => at_iteration += 1,
            Op::Idle(len) => at_iteration += u64::from(len),
            _ => {}
        }
    }
    FaultPlan::scripted(events)
}

/// Per host, what one oracle step showed: whether every package filter was
/// already at its bitwise fixed point, and whether the host neither
/// consumed nor holds one-shot telemetry state it could still consume (a
/// dead host never steps, so it never does). A segment model turns them
/// into segment caches.
#[derive(Default)]
pub struct Facts {
    settled: Vec<bool>,
    quiescent: Vec<bool>,
}

/// What a comparison found: nothing, or the first difference.
pub type Checked = Result<(), TestCaseError>;

/// What a control op answered: `Ok` carries a count or a value's bits,
/// `Err` the refusal and, where the system names it, the host it stopped
/// at.
pub type Reply = Result<u64, (Option<usize>, SimHwError)>;

fn reply<T>(out: Result<T, SimHwError>, h: usize, bits: impl Fn(T) -> u64) -> Reply {
    out.map(bits).map_err(|e| (Some(h), e))
}

/// The reply to an op that cannot be refused, once it ran.
fn done(op: impl FnOnce()) -> Reply {
    op();
    Ok(0)
}

/// The per-`Node` oracle: a fleet of `Node`s stepped one by one, and the
/// seed's iteration formula (compute times, barrier max, observed limits,
/// last-power fallback) over that same fleet.
pub struct Oracle {
    pub model: PowerModel,
    pub load: KernelLoad,
    pub nodes: Vec<Node>,
    sigma: f64,
    rng: ChaCha8Rng,
    /// Each host's last fresh power and lead.
    last: Vec<(Watts, Hertz)>,
    /// The operating points and per-host results of the last step.
    pub ops: Vec<Option<OperatingPoint>>,
    pub results: Vec<HostStep>,
    pub outcome: IterationOutcome,
    pub previous: IterationOutcome,
    pub elapsed: Seconds,
    planned: Vec<(usize, FaultKind)>,
    /// The `Node` writes record their own clamps and `RaplClamp` events;
    /// the control writes a bank counts are counted here.
    pub control_writes: u64,
    /// The hosts whose limit writes in the last control op left every
    /// register and the one-shot MSR glitch as they were: a bank keeps
    /// their segments' caches.
    pub kept: Vec<usize>,
}

impl Oracle {
    pub fn new(kind: usize, eps: &[f64], config: KernelConfig, sigma: f64, seed: u64) -> Self {
        let model = part_model(kind);
        let nodes: Vec<Node> = (eps.iter().enumerate())
            .map(|(i, &e)| part_node(kind, &model, NodeId(1000 + 3 * i), e).unwrap())
            .collect();
        let n = nodes.len();
        Self {
            load: KernelLoad::new(config, model.spec()),
            model,
            nodes,
            sigma,
            rng: ChaCha8Rng::seed_from_u64(seed),
            last: vec![(Watts::ZERO, Hertz(0.0)); n],
            ops: vec![None; n],
            results: vec![HostStep::Skipped; n],
            outcome: IterationOutcome::default(),
            previous: IterationOutcome::default(),
            elapsed: Seconds::ZERO,
            planned: Vec::new(),
            control_writes: 0,
            kept: Vec::new(),
        }
    }

    fn limit(&mut self, h: usize, w: Watts) -> Result<(), SimHwError> {
        self.control_writes += 1;
        let registers = |n: &Node| {
            let pkgs = n.packages().iter().map(|p| format!("{:?}", p.msrs()));
            (pkgs.collect::<Vec<_>>(), glitched(n))
        };
        let before = registers(&self.nodes[h]);
        let out = self.nodes[h].set_power_limit(w);
        if registers(&self.nodes[h]) == before {
            self.kept.push(h);
        }
        out
    }

    /// Apply a control op (hosts already in range); returns its reply and
    /// the hosts whose segments it dirties.
    pub fn control(&mut self, op: &Op) -> (Reply, Vec<usize>) {
        let n = self.nodes.len();
        let unit = |()| 0;
        match *op {
            Op::Limit(h, w) => (reply(self.limit(h, Watts(w)), h, unit), vec![h]),
            Op::Limits(lo, len, seed) => {
                let mut touched = Vec::new();
                let asks = batch_range(lo, len, n).filter_map(|h| Some((h, batch_ask(seed, h)?)));
                for (h, w) in asks {
                    touched.push(h);
                    if let Err(e) = self.limit(h, w) {
                        return (Err((Some(h), e)), touched);
                    }
                }
                (Ok(touched.len() as u64), touched)
            }
            Op::Uniform(w) => {
                for h in 0..n {
                    match self.limit(h, Watts(w)) {
                        Ok(()) | Err(SimHwError::NodeFailed(_)) => {}
                        Err(e) => return (Err((Some(h), e)), (0..=h).collect()),
                    }
                }
                (Ok(0), (0..n).collect())
            }
            Op::Cap(h, ghz) => {
                self.control_writes += 1;
                let out = self.nodes[h].set_freq_cap(ghz.map(Hertz::from_ghz));
                (reply(out, h, unit), vec![h])
            }
            Op::Fault(h, kind, true) => {
                self.planned.push((h, kind));
                (Ok(0), vec![])
            }
            Op::Fault(h, kind, false) => (done(|| self.nodes[h].inject(kind)), vec![h]),
            Op::Plane(h, d, w, true) => (
                reply(self.nodes[h].inject_domain_stuck(d, Watts(w)), h, unit),
                vec![h],
            ),
            Op::Plane(h, d, w, false) => {
                let out = self.nodes[h].set_domain_limit(d, Watts(w));
                (reply(out, h, |w| w.value().to_bits()), vec![h])
            }
            Op::Mark(h, true) => (done(|| self.nodes[h].mark_suspect()), vec![]),
            Op::Mark(h, false) => (done(|| self.nodes[h].mark_healthy()), vec![]),
            Op::Config(intensity, waiting) => {
                self.load = KernelLoad::new(phase(intensity, waiting), self.model.spec());
                (Ok(0), vec![])
            }
            _ => (Ok(0), vec![]),
        }
    }

    /// Fire the planned faults; returns them.
    pub fn fire_planned(&mut self) -> Vec<(usize, FaultKind)> {
        let planned = std::mem::take(&mut self.planned);
        for &(h, kind) in &planned {
            self.nodes[h].inject(kind);
        }
        planned
    }

    /// Each host's operating point, `None` for a dead one.
    fn resolve(&self) -> Vec<Option<OperatingPoint>> {
        let live = |n: &Node| (!n.is_dead()).then(|| n.operating_point(&self.model, &self.load));
        self.nodes.iter().map(live).collect()
    }

    /// Step every `Node` by `dt`, as a bank steps its hosts.
    pub fn step(&mut self, dt: Seconds) -> Facts {
        self.ops = self.resolve();
        let filters = |n: &Node| -> Vec<u64> {
            let pkgs = n.packages().iter();
            pkgs.map(|p| p.enforced_limit().value().to_bits()).collect()
        };
        let mut facts = Facts::default();
        for (node, result) in self.nodes.iter_mut().zip(&mut self.results) {
            let before = filters(node);
            *result = match node.try_step(&self.model, &self.load, dt) {
                Ok(_) => HostStep::Fresh,
                Err(SimHwError::NodeFailed(_)) => HostStep::Skipped,
                Err(_) => HostStep::Stale,
            };
            facts.settled.push(before == filters(node));
            facts.quiescent.push(*result != HostStep::Stale);
        }
        self.elapsed += dt;
        facts
    }

    /// The seed's bulk-synchronous iteration over the `Node`s: resolve each
    /// live host, draw its jitter, release the barrier at the slowest, step
    /// every `Node` through it and read each one back.
    pub fn iteration(&mut self) -> Facts {
        let ops = self.resolve();
        let mut compute = vec![Seconds::ZERO; ops.len()];
        for (t, op) in compute.iter_mut().zip(&ops) {
            if let Some(op) = op {
                *t = Seconds(self.load.iteration_time(op).value() * self.jitter());
            }
        }
        let elapsed = compute.iter().copied().fold(Seconds::ZERO, Seconds::max);
        let host_limit = self.nodes.iter().map(Node::enforced_limit).collect();
        let facts = self.step(elapsed);
        let mut outcome = IterationOutcome {
            elapsed,
            host_compute_time: compute,
            host_limit,
            ..IterationOutcome::default()
        };
        for (h, op) in ops.iter().enumerate() {
            let (power, lead, alive, fresh) = match (op, self.results[h]) {
                (None, _) => (Watts::ZERO, Hertz(0.0), false, false),
                (Some(op), HostStep::Fresh) => {
                    self.last[h] = (op.power, op.lead);
                    (op.power, op.lead, true, true)
                }
                (Some(_), _) => (self.last[h].0, self.last[h].1, true, false),
            };
            outcome.host_power.push(power);
            outcome.host_lead.push(lead);
            outcome.host_alive.push(alive);
            outcome.host_fresh.push(fresh);
        }
        self.previous = std::mem::replace(&mut self.outcome, outcome);
        facts
    }

    fn jitter(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let u: f64 = self.rng.gen::<f64>() + self.rng.gen::<f64>() - 1.0;
        (1.0 + u * self.sigma * 1.7).max(0.5)
    }

    /// Everything the oracle's fleet shows; `segs` supplies the segment
    /// caches, `full` the per-host reads and the `Node`s ([`Oracle::full`]).
    pub fn observe(&self, segs: &Segs, full: Option<&(Vec<HostRow>, Vec<NodeView>)>) -> Observed {
        let nodes = &self.nodes;
        let energy: Vec<Joules> = nodes.iter().map(Node::energy).collect();
        Observed {
            snapshot: Some(FleetSnapshot {
                hosts: nodes.len(),
                alive: nodes.iter().filter(|n| !n.is_dead()).count(),
                segments: segs.cache.len(),
                elapsed_s: self.elapsed.value(),
                steady: segs.steady,
                energy_j: energy.iter().sum::<Joules>().value(),
                power_w: self.outcome.total_power().value(),
                iteration_s: self.outcome.elapsed.value(),
            }),
            energy: Some(energy),
            limits: Some(nodes.iter().map(Node::power_limit).collect()),
            alive: Some(nodes.iter().map(|n| !n.is_dead()).collect()),
            ops: Some(self.ops.clone()),
            results: Some(self.results.clone()),
            report: Some(segs.report),
            segments: Some(segs.view(nodes.len())),
            replays: Some(segs.replays),
            steady: Some(segs.steady),
            outcome: Some(self.outcome.clone()),
            previous: Some(self.previous.clone()),
            hosts: full.map(|f| f.0.clone()),
            nodes: full.map(|f| f.1.clone()),
            at_target: None,
            trust_epoch: None,
        }
    }

    /// Every host read back, and the `Node`s of hosts `shown`.
    pub fn full(&self, shown: &[usize]) -> (Vec<HostRow>, Vec<NodeView>) {
        let op = |n: &Node| n.operating_point(&self.model, &self.load);
        let rows = self.nodes.iter().map(|n| HostRow::of(n, op(n))).collect();
        let views = shown.iter().map(|&h| NodeView::of(&self.nodes[h]));
        (rows, views.collect())
    }
}

/// True when a `Node` holds a pending MSR glitch. Only a live write or step
/// reveals one, so a dead node is read through its `Debug`, which prints
/// every field.
fn glitched(node: &Node) -> bool {
    format!("{node:?}").contains("msr_glitch: true")
}

const NO_STEP: StepReport = StepReport {
    all_settled: true,
    segments_replayed: 0,
    segments_stepped: 0,
};

/// One system's segment caches, driven by the oracle's [`Facts`]: a write,
/// fault or plane write dirties its host's segment; a stepped segment
/// settles at the step's `dt` when every host's filters held, quiescent
/// when every host did too; a settled, quiescent segment at the same `dt`
/// bits replays. `replay` is off for a system that steps everything.
pub struct Segs {
    hosts: usize,
    cache: Vec<Option<(u64, bool)>>,
    replay: bool,
    /// Steady after the last iteration: replay on, jitter off, and every
    /// segment would replay again (a platform's `steady_state_active`).
    steady: bool,
    calm: bool,
    report: StepReport,
    pub invalidated: u64,
    pub replays: u64,
}

impl Segs {
    pub fn new(n: usize, hosts: usize, replay: bool, calm: bool) -> Self {
        let (steady, report) = (false, NO_STEP);
        let mut segs = Self {
            hosts,
            cache: vec![],
            replay,
            steady,
            calm,
            report,
            invalidated: 0,
            replays: 0,
        };
        segs.reshard(n, hosts);
        segs
    }

    pub fn dirty(&mut self, h: usize) {
        let cache = &mut self.cache[h / self.hosts];
        self.invalidated += u64::from(cache.is_some());
        *cache = None;
        self.steady = false;
    }

    pub fn invalidate(&mut self) {
        self.invalidated += self.cache.iter().filter(|c| c.is_some()).count() as u64;
        self.cache.fill(None);
        self.steady = false;
    }

    pub fn reshard(&mut self, n: usize, hosts: usize) {
        (self.hosts, self.cache) = (hosts, vec![None; n.div_ceil(hosts)]);
        self.steady = false;
    }

    pub fn step(&mut self, dt: Seconds, facts: &Facts) {
        let (bits, n) = (dt.value().to_bits(), facts.settled.len());
        let mut report = NO_STEP;
        for (sidx, cache) in self.cache.iter_mut().enumerate() {
            if self.replay && *cache == Some((bits, true)) {
                report.segments_replayed += 1;
                continue;
            }
            let hosts = sidx * self.hosts..((sidx + 1) * self.hosts).min(n);
            let settled = facts.settled[hosts.clone()].iter().all(|&s| s);
            *cache = settled.then(|| (bits, facts.quiescent[hosts].iter().all(|&q| q)));
            report.all_settled &= settled;
            report.segments_stepped += 1;
        }
        self.replays += report.segments_replayed as u64;
        let replays = |c: &Option<(u64, bool)>| *c == Some((bits, true));
        self.steady = self.replay && self.calm && self.cache.iter().all(replays);
        self.report = report;
    }

    /// Each segment's hosts, and whether it is settled and stable.
    fn view(&self, n: usize) -> Vec<(Range<usize>, bool, bool)> {
        let hosts = |s: usize| s * self.hosts..((s + 1) * self.hosts).min(n);
        let slot =
            |(s, c): (usize, &Option<(u64, bool)>)| (hosts(s), c.is_some(), c.is_some_and(|c| c.1));
        self.cache.iter().enumerate().map(slot).collect()
    }
}

/// One host as a system reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRow {
    energy: Joules,
    enforced: Watts,
    lead: Hertz,
    health: NodeHealth,
    cap: Option<Hertz>,
    eps: f64,
    op: OperatingPoint,
    /// PKG, PP0, DRAM energy (`None` where the part has no such plane).
    domains: [Option<Joules>; 3],
}

impl HostRow {
    /// A `Node`'s reads, and its operating point `op`.
    fn of(n: &Node, op: OperatingPoint) -> Self {
        Self {
            energy: n.energy(),
            enforced: n.enforced_limit(),
            lead: n.current_freq(),
            health: n.health(),
            cap: n.freq_cap(),
            eps: n.eps(),
            op,
            domains: RaplDomain::ALL.map(|d| n.domain_energy(d).ok()),
        }
    }
}

/// A materialised `Node`: every field (`Debug` prints them all, floats in
/// full and the register file slot by slot), and its plane reads named,
/// floats as their bits, so `==` compares it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    plane_enforced: [Option<u64>; 2],
    /// Each package's PP0 and DRAM energy-status MSRs.
    plane_status: Vec<[Option<u32>; 2]>,
    debug: String,
}

impl NodeView {
    pub fn of(node: &Node) -> Self {
        let planes = [RaplDomain::Pp0, RaplDomain::Dram];
        let enforced = |d| node.domain_enforced(d).ok().map(|w| w.value().to_bits());
        let status = |p: &pmstack_simhw::rapl::RaplPackage| {
            planes.map(|d| p.read_domain_energy_counter(d).ok())
        };
        Self {
            debug: format!("{node:?}"),
            plane_enforced: planes.map(enforced),
            plane_status: node.packages().iter().map(status).collect(),
        }
    }
}

/// Everything compared after an op. A system fills what it exposes and
/// leaves the rest `None`; the oracle fills everything.
#[derive(Debug, Default)]
pub struct Observed {
    /// Per-host energy through the segment walk.
    pub energy: Option<Vec<Joules>>,
    pub limits: Option<Vec<Watts>>,
    pub alive: Option<Vec<bool>>,
    /// The last step's operating points, per-host results and report.
    pub ops: Option<Vec<Option<OperatingPoint>>>,
    pub results: Option<Vec<HostStep>>,
    pub report: Option<StepReport>,
    pub segments: Option<Vec<(Range<usize>, bool, bool)>>,
    pub replays: Option<u64>,
    pub steady: Option<bool>,
    pub outcome: Option<IterationOutcome>,
    pub previous: Option<IterationOutcome>,
    pub snapshot: Option<FleetSnapshot>,
    pub hosts: Option<Vec<HostRow>>,
    pub nodes: Option<Vec<NodeView>>,
    /// Facts a directed case asserts, compared with nothing: a bank's
    /// segments at target, a platform's trust epoch.
    pub at_target: Option<Vec<bool>>,
    pub trust_epoch: Option<u64>,
}

/// The comparator: `Debug` for `Debug`, which tells apart every two `f64`s
/// with different bits but NaN payloads. A mismatch names the first line
/// that differs. Where `printed` is off, values equal by `==` pass without
/// being printed: for a type without floats `==` is the same test, and for
/// one with floats it differs from the bits only at ±0 and NaN, which the
/// next printed comparison of the same state still sees.
pub fn same<T: Debug + PartialEq>(
    got: &T,
    want: &T,
    printed: bool,
    what: impl Fn() -> String,
) -> Checked {
    if !printed && got == want {
        return Ok(());
    }
    let (g, w) = (format!("{got:#?}"), format!("{want:#?}"));
    if g == w {
        return Ok(());
    }
    let mut lines = g.lines().zip(w.lines()).enumerate();
    let diff = lines.find(|(_, (a, b))| a != b);
    let (line, (a, b)) = diff.unwrap_or((0, ("(lengths differ)", "")));
    let what = what();
    Err(TestCaseError::fail(format!(
        "{what}: line {line}\n  got: {a}\n want: {b}"
    )))
}

impl Observed {
    /// Compare every field `self` (a system) filled with `want`'s; with
    /// `printed`, the fields holding floats as printed.
    pub fn check(&self, want: &Observed, printed: bool, what: impl Fn() -> String) -> Checked {
        macro_rules! fields {
            ($($f:ident: $floats:expr),*) => {$(
                if let Some(got) = &self.$f {
                    let want = want.$f.as_ref().expect("the oracle fills every field");
                    let what = || format!("{}, {}", what(), stringify!($f));
                    same(got, want, printed && $floats, what)?;
                }
            )*};
        }
        fields!(
            energy: true, limits: true, alive: false, ops: true, results: false, report: false,
            segments: false, replays: false, steady: false, outcome: true, previous: true,
            snapshot: true, hosts: true, nodes: false
        );
        Ok(())
    }
}

/// A system under test.
pub trait Sut {
    fn name(&self) -> String;
    /// Apply a control op (anything but a step; hosts in range, a nudge
    /// already a limit).
    fn control(&mut self, op: &Op) -> Reply;
    /// Fire a planned fault, unless the system fires its own plan.
    fn planned(&mut self, h: usize, kind: FaultKind);
    /// One iteration at `dt` (a bank; a platform runs to its barrier), as
    /// the daemon's tick when `tick`.
    fn step(&mut self, dt: Seconds, tick: bool);
    /// `full` adds every per-host read, and the `Node` it materialises for
    /// each host of `shown`.
    fn observe(&self, full: bool, shown: &[usize]) -> Observed;
    /// The segment size it is sharded at.
    fn segment_hosts(&self) -> usize;
}

/// Run `f` on the pool, or on the calling thread alone when `scoped`.
fn on<T>(scoped: bool, f: impl FnOnce() -> T) -> T {
    match scoped {
        true => pmstack_exec::sequential_scope(f),
        false => f(),
    }
}

/// A `NodeBank`: flat (`partial` off: `step_all`) or sharded and partially
/// stepped, resolving its operating points through the `Resolver` as the
/// platform does.
pub struct BankSut {
    pub bank: NodeBank,
    model: PowerModel,
    load: KernelLoad,
    partial: bool,
    scoped: bool,
    ops: Vec<Option<OperatingPoint>>,
    results: Vec<HostStep>,
    pub report: StepReport,
    /// Each `ops` slot as the resolve reported it: a slot it did not report
    /// rewritten must be the one it held.
    pub reported: Vec<Option<OperatingPoint>>,
    /// Per host, how many resolves searched it.
    pub searched: Vec<u32>,
}

impl BankSut {
    /// A bank of part `kind` running `config`, stepping partially or not,
    /// on the calling thread alone or not.
    pub fn new(bank: NodeBank, kind: usize, config: KernelConfig, how: (bool, bool)) -> Self {
        let (partial, scoped) = how;
        let (model, n) = (part_model(kind), bank.len());
        Self {
            load: KernelLoad::new(config, model.spec()),
            model,
            bank,
            partial,
            scoped,
            ops: vec![None; n],
            results: vec![HostStep::Skipped; n],
            report: NO_STEP,
            reported: vec![None; n],
            searched: vec![0; n],
        }
    }

    /// The bank and its segment model, as a [`Run`] holds them.
    pub fn paired(self) -> (Box<dyn Sut>, Segs) {
        let (n, hosts) = (self.bank.len(), self.bank.segment_hosts());
        let segs = Segs::new(n, hosts, self.partial, true);
        (Box::new(self), segs)
    }

    /// Resolve every segment's hosts as the platform's pre-step pass does:
    /// enforced limits, then the points whose span they left.
    fn resolve(&mut self) {
        let (model, load, n) = (&self.model, &self.load, self.bank.len());
        let (mut limits, mut fresh) = (vec![Watts::ZERO; n], vec![None; n]);
        let cols = (&mut limits[..], (&mut self.ops[..], &mut fresh[..]));
        self.bank
            .resolve_pieces(cols, !self.scoped, |res, (limits, (ops, fresh))| {
                for sidx in res.segments() {
                    res.segment_enforced_limits(sidx, limits);
                    let report =
                        |h: usize, op: Option<&OperatingPoint>| fresh[h] = Some(op.copied());
                    res.resolve_segment(sidx, model, load, limits, ops, report);
                }
                0
            });
        for (h, fresh) in fresh.into_iter().enumerate() {
            if let Some(op) = fresh {
                (self.reported[h], self.searched[h]) = (op, self.searched[h] + 1);
            }
        }
    }
}

impl Sut for BankSut {
    fn name(&self) -> String {
        let how = if self.partial { "partial" } else { "full" };
        format!("bank ({how}, {}-host segments)", self.bank.segment_hosts())
    }

    fn control(&mut self, op: &Op) -> Reply {
        let (n, scoped, unit) = (self.bank.len(), self.scoped, |()| 0);
        let b = &mut self.bank;
        match *op {
            Op::Limit(h, w) => reply(on(scoped, || b.set_power_limit(h, Watts(w))), h, unit),
            Op::Limits(lo, len, seed) => {
                let write = || b.set_power_limits(batch_range(lo, len, n), |h| batch_ask(seed, h));
                on(scoped, write)
                    .map(|w| w as u64)
                    .map_err(|(h, e)| (Some(h), e))
            }
            Op::Uniform(w) => {
                let mut from = 0;
                loop {
                    match on(scoped, || b.set_power_limits(from..n, |_| Some(Watts(w)))) {
                        Ok(_) => return Ok(0),
                        Err((h, SimHwError::NodeFailed(_))) => from = h + 1,
                        Err((h, e)) => return Err((Some(h), e)),
                    }
                }
            }
            Op::Cap(h, ghz) => reply(b.set_freq_cap(h, ghz.map(Hertz::from_ghz)), h, unit),
            Op::Fault(h, kind, false) => done(|| b.inject(h, kind)),
            Op::Plane(h, d, w, true) => reply(b.inject_domain_stuck(h, d, Watts(w)), h, unit),
            Op::Plane(h, d, w, false) => reply(b.set_domain_limit(h, d, Watts(w)), h, |w| {
                w.value().to_bits()
            }),
            Op::Mark(h, true) => done(|| b.mark_suspect(h)),
            Op::Mark(h, false) => done(|| b.mark_healthy(h)),
            Op::Reshard(hosts) => done(|| b.set_segment_hosts(hosts)),
            Op::Config(intensity, waiting) => {
                self.load = KernelLoad::new(phase(intensity, waiting), self.model.spec());
                done(|| b.invalidate_segments())
            }
            Op::Rebuild => {
                let hosts = b.segment_hosts();
                *b = NodeBank::from_nodes((0..n).map(|h| b.node(h)).collect());
                done(|| b.set_segment_hosts(hosts))
            }
            _ => Ok(0),
        }
    }

    fn planned(&mut self, h: usize, kind: FaultKind) {
        self.bank.inject(h, kind);
    }

    fn step(&mut self, dt: Seconds, tick: bool) {
        let scoped = self.scoped || tick;
        on(scoped, || self.resolve());
        let (b, ops, results) = (&mut self.bank, &self.ops, &mut self.results);
        self.report = on(scoped, || match self.partial {
            true => b.step_all_partial(dt, ops, results, !scoped),
            false => StepReport {
                all_settled: b.step_all(dt, ops, results, !scoped),
                segments_stepped: b.num_segments(),
                ..NO_STEP
            },
        });
        if tick {
            self.bank.apply_pending_replays();
        }
    }

    fn observe(&self, full: bool, shown: &[usize]) -> Observed {
        let (b, hosts) = (&self.bank, 0..self.bank.len());
        let slot = |s| {
            (
                b.segment_range(s),
                b.segment_settled(s),
                b.segment_stable(s),
            )
        };
        let row = |h| HostRow {
            energy: b.energy(h),
            enforced: b.enforced_limit(h),
            lead: b.last_freq(h),
            health: b.health(h),
            cap: b.freq_cap(h),
            eps: b.eps(h),
            op: b.operating_point(h, &self.model, &self.load),
            domains: RaplDomain::ALL.map(|d| b.domain_energy(h, d).ok()),
        };
        Observed {
            energy: Some(b.energies().collect()),
            limits: Some(hosts.clone().map(|h| b.power_limit(h)).collect()),
            alive: Some(hosts.clone().map(|h| b.is_alive(h)).collect()),
            ops: Some(self.reported.clone()),
            results: Some(self.results.clone()),
            report: Some(self.report),
            segments: Some((0..b.num_segments()).map(slot).collect()),
            replays: Some(b.replays()),
            at_target: Some(
                (0..b.num_segments())
                    .map(|s| b.segment_at_target(s))
                    .collect(),
            ),
            hosts: full.then(|| hosts.map(row).collect()),
            nodes: full.then(|| shown.iter().map(|&h| NodeView::of(&b.node(h))).collect()),
            ..Observed::default()
        }
    }

    fn segment_hosts(&self) -> usize {
        self.bank.segment_hosts()
    }
}

/// What another platform of the same size as `eps` leaves in its buffers: a
/// steady fleet's outcome, stamped by that platform.
pub fn donor(kind: usize, eps: &[f64], config: KernelConfig) -> Box<dyn Fn() -> IterationBuffers> {
    let model = part_model(kind);
    let nodes: Vec<Node> = (eps.iter().rev().enumerate())
        .map(|(i, e)| part_node(kind, &model, NodeId(i), 2.0 - e).unwrap())
        .collect();
    Box::new(move || {
        let mut donor =
            JobPlatform::new(part_model(kind), nodes.clone(), config).with_segment_hosts(4);
        let mut bufs = IterationBuffers::new();
        for _ in 0..3 {
            donor.run_iteration_into(&mut bufs);
        }
        bufs
    })
}

/// A `JobPlatform`, its iteration buffers and how many iterations they have
/// served since they were swapped in.
pub struct PlatformSut {
    p: JobPlatform,
    bufs: IterationBuffers,
    served: u32,
    scoped: bool,
    /// What another platform of the same size leaves in its buffers.
    donor: Box<dyn Fn() -> IterationBuffers>,
}

impl PlatformSut {
    /// A platform stepping with fast-forward `ff` and jitter on unless
    /// `calm`, and its segment model, as a [`Run`] holds them.
    pub fn paired(
        p: JobPlatform,
        (ff, calm, scoped): (bool, bool, bool),
        donor: Box<dyn Fn() -> IterationBuffers>,
    ) -> (Box<dyn Sut>, Segs) {
        let segs = Segs::new(p.num_hosts(), p.segment_hosts(), ff, calm);
        let (bufs, served) = (IterationBuffers::new(), 0);
        (
            Box::new(Self {
                p,
                bufs,
                served,
                scoped,
                donor,
            }),
            segs,
        )
    }
}

impl Sut for PlatformSut {
    fn name(&self) -> String {
        format!("platform ({}-host segments)", self.p.segment_hosts())
    }

    fn control(&mut self, op: &Op) -> Reply {
        let (n, scoped, unit) = (self.p.num_hosts(), self.scoped, |()| 0);
        let p = &mut self.p;
        let answer = |r: Result<(), SimHwError>| r.map(unit).map_err(|e| (None, e));
        match *op {
            Op::Limit(h, w) => answer(on(scoped, || p.set_host_limit(h, Watts(w)))),
            Op::Limits(lo, len, seed) => {
                let hosts = batch_range(lo, len, n);
                let ask = |h| hosts.contains(&h).then(|| batch_ask(seed, h)).flatten();
                let out = on(scoped, || p.set_host_limits(ask));
                out.map(|w| w as u64).map_err(|(h, e)| (Some(h), e))
            }
            Op::Uniform(w) => answer(on(scoped, || p.set_uniform_limit(Watts(w)))),
            Op::Cap(h, ghz) => answer(p.set_host_freq_cap(h, ghz.map(Hertz::from_ghz))),
            Op::Fault(h, kind, false) => done(|| p.inject_fault(h, kind)),
            Op::Mark(h, true) => done(|| p.mark_host_suspect(h)),
            Op::Mark(h, false) => done(|| p.mark_host_healthy(h)),
            Op::Reshard(hosts) => {
                let spare =
                    JobPlatform::from_hosts(part_model(0), &[(NodeId(0), 1.0)], phase(1.0, false));
                let p = std::mem::replace(&mut self.p, spare.unwrap());
                self.p = p.with_segment_hosts(hosts);
                Ok(0)
            }
            Op::Config(intensity, waiting) => done(|| p.set_config(phase(intensity, waiting))),
            Op::Buffers(foreign) => {
                self.bufs = if foreign {
                    (self.donor)()
                } else {
                    IterationBuffers::new()
                };
                self.served = 0;
                Ok(0)
            }
            // Planned faults fire from the platform's own fault plan.
            _ => Ok(0),
        }
    }

    fn planned(&mut self, _: usize, _: FaultKind) {}

    fn step(&mut self, _: Seconds, tick: bool) {
        let (p, bufs) = (&mut self.p, &mut self.bufs);
        on(self.scoped || tick, || p.run_iteration_into(bufs));
        if tick {
            p.apply_pending_replays();
        }
        self.served += 1;
    }

    fn observe(&self, full: bool, shown: &[usize]) -> Observed {
        let (p, hosts) = (&self.p, 0..self.p.num_hosts());
        // The outcome is this platform's once the buffers served an
        // iteration; the previous one once they served two.
        let (current, previous) = (self.served >= 1, self.served >= 2);
        let row = |h| HostRow {
            health: p.host_health_of(h),
            eps: p.host_eps(h),
            ..HostRow::of(&p.node(h), p.host_operating_point(h).unwrap())
        };
        Observed {
            energy: Some(p.host_energy()),
            limits: Some(p.host_limits()),
            alive: Some(hosts.clone().map(|h| p.is_host_alive(h)).collect()),
            replays: Some(p.segment_replays()),
            steady: Some(p.steady_state_active()),
            outcome: current.then(|| self.bufs.outcome().clone()),
            previous: previous.then(|| self.bufs.previous().clone()),
            snapshot: current.then(|| p.fleet_snapshot(self.bufs.outcome())),
            trust_epoch: Some(p.trust_epoch()),
            hosts: full.then(|| hosts.map(row).collect()),
            nodes: full.then(|| shown.iter().map(|&h| NodeView::of(&p.node(h))).collect()),
            ..Observed::default()
        }
    }

    fn segment_hosts(&self) -> usize {
        self.p.segment_hosts()
    }
}

/// The oracle and the systems under test, each with its segment model,
/// taking every op in lockstep.
pub struct Run {
    pub oracle: Oracle,
    pub suts: Vec<(Box<dyn Sut>, Segs)>,
    /// Steps are platform iterations (the oracle's iteration formula).
    pub platform: bool,
    /// Compare each control op's [`Trace`] too, while the recorder is on.
    pub traced: bool,
    /// The systems run on the calling thread alone.
    pub scoped: bool,
}

impl Run {
    /// Apply `op` to the oracle and every system, then compare: every reply,
    /// and everything each system shows. A control op also reads every host
    /// back and materialises the `Node`s of the hosts it touched (every
    /// host, for a re-shard or a rebuild); an idle stretch materialises
    /// every host every 500 iterations and at its end.
    pub fn apply(&mut self, op: Op) -> Checked {
        let n = self.oracle.nodes.len();
        let op = match op {
            Op::Step(dt) => return self.step(Seconds(dt), false),
            Op::Tick => return self.step(Seconds(0.2), true),
            Op::Idle(len) => {
                for i in 1..=len {
                    self.step(Seconds(0.2), false)?;
                    if i % 500 == 0 {
                        self.check_all(&op)?;
                    }
                }
                return self.check_all(&op);
            }
            Op::Nudge(h, dw) => Op::Limit(h % n, self.oracle.nodes[h % n].power_limit().0 + dw),
            Op::Limit(h, w) => Op::Limit(h % n, w),
            Op::Cap(h, c) => Op::Cap(h % n, c),
            Op::Fault(h, k, p) => Op::Fault(h % n, k, p),
            Op::Plane(h, d, w, s) => Op::Plane(h % n, d, w, s),
            Op::Mark(h, s) => Op::Mark(h % n, s),
            Op::Limits(lo, len, seed) => Op::Limits(lo % n, len, seed),
            op => op,
        };
        let tracing = self.traced && pmstack_obs::enabled();
        let writes = self.oracle.control_writes;
        let hazard = tracing && self.hazard();
        let ((want, mut touched), mut expect, _) = traced(tracing, || self.oracle.control(&op));
        expect.control_writes = self.oracle.control_writes - writes;
        let kept = std::mem::take(&mut self.oracle.kept);
        for (sut, segs) in &mut self.suts {
            let (invalidated, name) = (segs.invalidated, sut.name());
            let (got, trace, fanouts) = traced(tracing, || sut.control(&op));
            // A platform's one-host and uniform writes do not name the host
            // a refusal stopped at.
            let host = want.as_ref().err().and_then(|e| e.0);
            let got = got.map_err(|(h, e)| (h.or(host), e));
            same(&got, &want, true, || format!("{name}: reply to {op:?}"))?;
            // A limit write that stores what the host holds dirties nothing.
            (touched.iter())
                .filter(|h| !kept.contains(h))
                .for_each(|&h| segs.dirty(h));
            match op {
                Op::Reshard(_) => segs.reshard(n, sut.segment_hosts()),
                // A new bank has counted no replays.
                Op::Rebuild => {
                    segs.reshard(n, sut.segment_hosts());
                    segs.replays = 0;
                }
                Op::Config(..) => segs.invalidate(),
                _ => {}
            }
            if tracing {
                expect.invalidated = segs.invalidated - invalidated;
                same(&trace, &expect, true, || format!("{name}: trace of {op:?}"))?;
                // A write over two segments that no host can fail, on the
                // pool, is the chunked one.
                if let Op::Limits(lo, len, _) = op {
                    let (hosts, sh) = (batch_range(lo, len, n), sut.segment_hosts());
                    let spans = !hosts.is_empty() && (hosts.end - 1) / sh > hosts.start / sh;
                    if spans && !hazard && !self.scoped && pmstack_exec::workers() > 1 {
                        prop_assert!(fanouts > 0, "{name}: {op:?} did not fan out");
                    }
                }
            }
        }
        touched = match op {
            Op::Reshard(_) | Op::Rebuild => (0..n).collect(),
            Op::Mark(h, _) => vec![h],
            _ => touched,
        };
        self.check(true, &touched, false, &op)
    }

    /// Compare the build, every op of `ops` and the state they leave.
    pub fn run(mut self, ops: Vec<Op>) -> Checked {
        self.check_all(&"the build")?;
        for op in ops {
            self.apply(op)?;
        }
        self.check_all(&"the last op")
    }

    /// Compare everything, every host's `Node` included, floats by their
    /// bits.
    pub fn check_all(&self, what: &dyn Debug) -> Checked {
        let all: Vec<usize> = (0..self.oracle.nodes.len()).collect();
        self.check(true, &all, true, what)
    }

    /// True when some host is dead, stuck or holds a glitch: a batched
    /// write then takes no host on the pool.
    fn hazard(&self) -> bool {
        let hazard = |n: &Node| n.is_dead() || n.stuck_limit().is_some() || glitched(n);
        self.oracle.nodes.iter().any(hazard)
    }

    /// One iteration everywhere: the planned faults fire first.
    fn step(&mut self, dt: Seconds, tick: bool) -> Checked {
        let fired = self.oracle.fire_planned();
        let (facts, dt) = match self.platform {
            true => (self.oracle.iteration(), self.oracle.outcome.elapsed),
            false => (self.oracle.step(dt), dt),
        };
        for (sut, segs) in &mut self.suts {
            for &(h, kind) in &fired {
                sut.planned(h, kind);
                segs.dirty(h);
            }
            sut.step(dt, tick);
            segs.step(dt, &facts);
        }
        // A fired fault went through a materialised `Node`: show it.
        let shown: Vec<usize> = fired.iter().map(|&(h, _)| h).collect();
        let op = if tick { Op::Tick } else { Op::Step(dt.value()) };
        self.check(tick || !shown.is_empty(), &shown, false, &op)
    }

    /// Compare what every system shows with the oracle: with `full`, every
    /// per-host read and the `Node`s of hosts `shown` too; with `printed`,
    /// floats by their bits.
    pub fn check(&self, full: bool, shown: &[usize], printed: bool, op: &dyn Debug) -> Checked {
        let reads = full.then(|| self.oracle.full(shown));
        for (sut, segs) in &self.suts {
            let want = self.oracle.observe(segs, reads.as_ref());
            let got = sut.observe(full, shown);
            got.check(&want, printed, || format!("{} after {op:?}", sut.name()))?;
        }
        Ok(())
    }
}

/// What an op did beyond the state it left: the control-write, clamp and
/// invalidation counts and the `RaplClamp` journal, in order.
#[derive(Debug, Default, PartialEq)]
pub struct Trace {
    pub control_writes: u64,
    pub clamped: u64,
    pub invalidated: u64,
    pub clamps: Vec<(u64, u64, u64)>,
}

/// Run `f`; with `on`, with the recorder's counters and journal reset, and
/// read back what it recorded and how many rounds fanned out.
pub fn traced<T>(on: bool, f: impl FnOnce() -> T) -> (T, Trace, u64) {
    if !on {
        return (f(), Trace::default(), 0);
    }
    pmstack_obs::reset();
    let out = f();
    let snap = pmstack_obs::snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    let clamps = (snap.events.iter()).filter_map(|e| match e.kind {
        EventKind::RaplClamp {
            node,
            requested_w,
            applied_w,
        } => Some((node, requested_w.to_bits(), applied_w.to_bits())),
        _ => None,
    });
    let trace = Trace {
        control_writes: count("simhw.bank.control_writes"),
        clamped: count("simhw.rapl.clamped"),
        invalidated: count("simhw.bank.shard.invalidated"),
        clamps: clamps.collect(),
    };
    (out, trace, count("exec.pool.fanouts"))
}
