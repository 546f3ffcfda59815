//! A compute node: two RAPL packages, a variation factor, and the PCU
//! frequency-resolution logic.

use crate::classes::{ClassId, NodeClass};
use crate::error::{Result, SimHwError};
use crate::faults::{FaultKind, NodeHealth};
use crate::power::{LoadModel, PowerModel};
use crate::rapl::{resolve_pl1_request, Pl1Gate, RaplDomain, RaplPackage};
use crate::units::{Hertz, Joules, Seconds, Watts};
use pmstack_obs::{EventKind, StaticCounter};
use serde::{Deserialize, Serialize};

/// Observability: faults fired against nodes (any kind).
static FAULTS_INJECTED: StaticCounter = StaticCounter::new("simhw.faults.injected");

/// Identifier of a node within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{:04}", self.0)
    }
}

/// An instantaneous sample of a node's power state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodePowerSample {
    /// Instantaneous node power draw.
    pub power: Watts,
    /// Cumulative node energy since construction.
    pub energy: Joules,
    /// Current lead (critical-core) frequency.
    pub freq: Hertz,
}

/// One simulated node.
///
/// Everything but the class id is crate-visible: the columnar bank ingests
/// a node field by field and materialises one from a copy of its part's
/// prototype (`crate::bank::NodeBank::node`).
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) eps: f64,
    pub(crate) packages: Vec<RaplPackage>,
    pub(crate) last_freq: Hertz,
    /// Software frequency cap programmed through `IA32_PERF_CTL`
    /// (`None` = uncapped). The DVFS control path of EAR-style tools.
    pub(crate) freq_cap: Option<Hertz>,
    /// Observed health; faults move this away from `Healthy`.
    pub(crate) health: NodeHealth,
    /// When set, RAPL limit writes silently latch this node-level value
    /// instead of the requested one (stuck-limit erratum).
    pub(crate) stuck_limit: Option<Watts>,
    /// Remaining telemetry-read attempts that fail while the node keeps
    /// executing underneath.
    pub(crate) telemetry_down_for: u32,
    /// One-shot msr-safe denial consumed by the next MSR access.
    pub(crate) msr_glitch: bool,
    /// The node class this node was built from (`ClassId(0)` for the
    /// classic homogeneous constructor).
    class_id: ClassId,
}

impl Node {
    /// Construct a node with efficiency factor `eps` from a machine spec.
    pub fn new(id: NodeId, model: &PowerModel, eps: f64) -> Result<Self> {
        check_eps(eps)?;
        let spec = model.spec();
        // Sized exactly: a fallible `collect` has no size hint and would
        // round a two-package node up to a four-package allocation.
        let mut packages = Vec::with_capacity(spec.sockets_per_node);
        for _ in 0..spec.sockets_per_node {
            packages.push(RaplPackage::new(
                spec.tdp_per_socket,
                spec.min_rapl_per_socket,
                // RAPL allows programming somewhat above TDP; we cap the
                // settable range at TDP since the policies never exceed it.
                spec.tdp_per_socket,
            )?);
        }
        Ok(Self {
            id,
            eps,
            packages,
            last_freq: spec.f_turbo,
            freq_cap: None,
            health: NodeHealth::Healthy,
            stuck_limit: None,
            telemetry_down_for: 0,
            msr_glitch: false,
            class_id: ClassId(0),
        })
    }

    /// Construct a node of a specific [`NodeClass`]: the classic
    /// construction against the class's machine spec, plus PP0/DRAM
    /// sub-domains on every package when the class declares a domain split.
    /// `model` must be the power model built from `class.spec`.
    pub fn with_class(
        id: NodeId,
        class_id: ClassId,
        class: &NodeClass,
        model: &PowerModel,
        eps: f64,
    ) -> Result<Self> {
        debug_assert_eq!(
            model.spec().name,
            class.spec.name,
            "model must be built from the class's spec"
        );
        let mut node = Self::new(id, model, eps)?;
        node.class_id = class_id;
        if let Some(cfg) = class.domains {
            for pkg in &mut node.packages {
                pkg.enable_domains(cfg)?;
            }
        }
        Ok(node)
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The class this node belongs to.
    pub fn class_id(&self) -> ClassId {
        self.class_id
    }

    /// Whether the node's packages carry PP0/DRAM sub-domains.
    pub fn has_domains(&self) -> bool {
        self.packages.iter().any(|p| p.has_domains())
    }

    /// Program a node-level sub-plane limit by splitting it evenly across
    /// sockets; each package clamps into its plane range (and a stuck plane
    /// silently latches). Returns the node-level watts actually programmed.
    /// Shares the package path's fault surface: dead nodes fail, a pending
    /// transient MSR fault is consumed as a one-shot denial.
    pub fn set_domain_limit(&mut self, d: RaplDomain, node_limit: Watts) -> Result<Watts> {
        if self.health == NodeHealth::Dead {
            return Err(SimHwError::NodeFailed(self.id.0));
        }
        if std::mem::take(&mut self.msr_glitch) {
            return Err(SimHwError::MsrNotAllowed {
                address: crate::msr::address::PP0_POWER_LIMIT,
                write: true,
            });
        }
        let per_socket = node_limit / self.packages.len() as f64;
        let mut programmed = Watts::ZERO;
        for pkg in &mut self.packages {
            programmed += pkg.set_domain_limit(d, per_socket)?;
        }
        Ok(programmed)
    }

    /// Cumulative node-level energy of one domain (sum over sockets).
    pub fn domain_energy(&self, d: RaplDomain) -> Result<Joules> {
        let mut total = Joules::ZERO;
        for pkg in &self.packages {
            total += pkg.domain_energy(d)?;
        }
        Ok(total)
    }

    /// Node-level enforced limit of one domain (sum over sockets).
    pub fn domain_enforced(&self, d: RaplDomain) -> Result<Watts> {
        let mut total = Watts::ZERO;
        for pkg in &self.packages {
            total += pkg.domain_enforced(d)?;
        }
        Ok(total)
    }

    /// Pin one sub-plane's limit on every socket (stuck-RAPL confined to a
    /// single domain; sibling planes stay live).
    pub fn inject_domain_stuck(&mut self, d: RaplDomain, node_pinned: Watts) -> Result<()> {
        let per_socket = node_pinned / self.packages.len() as f64;
        for pkg in &mut self.packages {
            pkg.inject_domain_stuck(d, per_socket)?;
        }
        Ok(())
    }

    /// The node's efficiency factor ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The RAPL packages (one per socket).
    pub fn packages(&self) -> &[RaplPackage] {
        &self.packages
    }

    /// True when `other` is built from the same part and class, so one
    /// prototype materialises both.
    pub(crate) fn same_part(&self, other: &Self) -> bool {
        self.class_id == other.class_id
            && self.packages.len() == other.packages.len()
            && (self.packages.iter())
                .zip(&other.packages)
                .all(|(a, b)| a.same_part(b))
    }

    /// The node-level state a package-limit request is resolved against.
    fn pl1_gate(&self) -> Pl1Gate {
        let pkg = &self.packages[0];
        Pl1Gate {
            dead: self.health == NodeHealth::Dead,
            stuck: self.stuck_limit,
            sockets: self.packages.len(),
            min: pkg.min_limit(),
            max: pkg.max_limit(),
            units: pkg.units(),
        }
    }

    /// Program a node-level power limit by splitting it evenly across
    /// sockets, clamped into each package's settable range. This is what the
    /// job runtime's platform layer does on the real system.
    ///
    /// Fault behaviour: a dead node returns [`SimHwError::NodeFailed`]; a
    /// pending transient MSR fault is consumed and surfaces as a one-shot
    /// `msr-safe` denial; a stuck-RAPL node *silently* latches the pinned
    /// value instead of the requested one and reports success — exactly the
    /// failure that makes read-back verification necessary. All of it is
    /// decided by `rapl::resolve_pl1_request`.
    pub fn set_power_limit(&mut self, node_limit: Watts) -> Result<()> {
        let id = self.id.0;
        let write = resolve_pl1_request(&self.pl1_gate(), &mut self.msr_glitch, || id, node_limit)?;
        for pkg in &mut self.packages {
            pkg.program_pl1(write.raw)?;
        }
        Ok(())
    }

    /// The programmed node-level limit (sum over sockets).
    pub fn power_limit(&self) -> Watts {
        self.packages.iter().map(|p| p.limit().limit).sum()
    }

    /// The limit the enforcement loops currently hold (sum over sockets);
    /// settles toward the programmed limit as the node advances.
    pub fn enforced_limit(&self) -> Watts {
        self.packages.iter().map(|p| p.enforced_limit()).sum()
    }

    /// Cumulative node energy (exact, simulation-side).
    pub fn energy(&self) -> Joules {
        self.packages.iter().map(|p| p.exact_energy()).sum()
    }

    /// The most recent lead frequency resolved by [`Self::resolve_frequency`].
    pub fn current_freq(&self) -> Hertz {
        self.last_freq
    }

    /// Program a frequency cap through `IA32_PERF_CTL` (the DVFS path used
    /// by frequency-scaling tools like EAR, §VII-B). The ratio field is the
    /// frequency in 100 MHz units. Pass `None` to release the cap. A
    /// rejected request leaves the cap and the register as they were.
    pub fn set_freq_cap(&mut self, cap: Option<Hertz>) -> Result<()> {
        let id = self.id.0;
        let raw = resolve_freq_cap_request(self.health == NodeHealth::Dead, || id, cap)?;
        for pkg in &mut self.packages {
            pkg.msrs_mut().write(crate::msr::address::PERF_CTL, raw)?;
        }
        self.freq_cap = cap;
        Ok(())
    }

    /// The currently programmed frequency cap, if any.
    pub fn freq_cap(&self) -> Option<Hertz> {
        self.freq_cap
    }

    /// Apply the software frequency cap on top of a PCU-resolved operating
    /// point: DVFS clamps the whole node, so both lead and trail drop to
    /// the cap if they exceed it, and power is re-derived at the clamped
    /// lead through the workload's uniform-throttle path.
    fn clamp_to_freq_cap(
        &self,
        model: &PowerModel,
        load: &dyn LoadModel,
        op: crate::power::OperatingPoint,
    ) -> crate::power::OperatingPoint {
        match self.freq_cap {
            Some(cap_f) if op.lead > cap_f => crate::power::OperatingPoint {
                lead: cap_f,
                trail: op.trail.min(cap_f),
                power: load.node_power_at(model, self.eps, cap_f),
            },
            _ => op,
        }
    }

    /// The operating point this node settles on right now: the workload's
    /// PCU resolution under the node's *enforced* RAPL limit, clamped by
    /// any software frequency cap.
    pub fn operating_point(
        &self,
        model: &PowerModel,
        load: &dyn LoadModel,
    ) -> crate::power::OperatingPoint {
        self.clamp_to_freq_cap(
            model,
            load,
            load.operating_point(model, self.eps, self.enforced_limit()),
        )
    }

    /// Emulate the PCU: resolve the workload's operating point under `cap`
    /// and return the lead frequency. Delegates to
    /// [`LoadModel::operating_point`], which models the PCU demoting
    /// spin-polling cores before the critical path.
    pub fn resolve_frequency(
        &mut self,
        model: &PowerModel,
        load: &dyn LoadModel,
        cap: Watts,
    ) -> Hertz {
        let op = self.clamp_to_freq_cap(model, load, load.operating_point(model, self.eps, cap));
        self.last_freq = op.lead;
        op.lead
    }

    /// Advance hardware state by `dt`: resolve the operating point against
    /// the currently *enforced* limit, accumulate energy at the resulting
    /// power, settle enforcement filters. Returns the sample for this step.
    pub fn step(
        &mut self,
        model: &PowerModel,
        load: &dyn LoadModel,
        dt: Seconds,
    ) -> NodePowerSample {
        if self.health == NodeHealth::Dead {
            // A dead node draws nothing and holds its final energy counter.
            return NodePowerSample {
                power: Watts(0.0),
                energy: self.energy(),
                freq: Hertz(0.0),
            };
        }
        let cap = self.enforced_limit();
        let op = self.clamp_to_freq_cap(model, load, load.operating_point(model, self.eps, cap));
        self.last_freq = op.lead;
        let per_socket = op.power / self.packages.len() as f64;
        for pkg in &mut self.packages {
            pkg.advance(dt, per_socket);
        }
        NodePowerSample {
            power: op.power,
            energy: self.energy(),
            freq: op.lead,
        }
    }

    /// Advance hardware state by `dt` like [`Self::step`], but surface the
    /// node's fault state through the telemetry path:
    ///
    /// * dead node — [`SimHwError::NodeFailed`], nothing advances;
    /// * telemetry blackout or transient MSR fault — the hardware *does*
    ///   advance (the job keeps running and drawing power) but the read
    ///   fails with [`SimHwError::TelemetryUnavailable`].
    ///
    /// Controllers that only ever call the infallible [`Self::step`] see
    /// through blackouts — this entry point is what an out-of-band
    /// monitoring agent actually experiences.
    pub fn try_step(
        &mut self,
        model: &PowerModel,
        load: &dyn LoadModel,
        dt: Seconds,
    ) -> Result<NodePowerSample> {
        if self.health == NodeHealth::Dead {
            return Err(SimHwError::NodeFailed(self.id.0));
        }
        let sample = self.step(model, load, dt);
        if self.telemetry_down_for > 0 {
            self.telemetry_down_for -= 1;
            return Err(SimHwError::TelemetryUnavailable { node: self.id.0 });
        }
        if std::mem::take(&mut self.msr_glitch) {
            return Err(SimHwError::TelemetryUnavailable { node: self.id.0 });
        }
        Ok(sample)
    }

    /// Apply an injected fault to this node.
    pub fn inject(&mut self, kind: FaultKind) {
        FAULTS_INJECTED.inc();
        pmstack_obs::event(
            f64::NAN,
            EventKind::FaultInjected {
                host: self.id.0 as u64,
                fault: kind.name(),
            },
        );
        match kind {
            FaultKind::NodeDeath => self.health = NodeHealth::Dead,
            FaultKind::StuckRapl { pinned_w } => {
                self.stuck_limit = Some(Watts(pinned_w));
                // Latch the wrong value immediately; ignore MSR-layer
                // errors — the erratum bypasses the safe path.
                let _ = self.set_power_limit(Watts(pinned_w));
            }
            FaultKind::TelemetryDropout { iterations } => {
                self.telemetry_down_for = self.telemetry_down_for.saturating_add(iterations);
            }
            FaultKind::TransientMsrFault => self.msr_glitch = true,
        }
    }

    /// The node's observed health.
    pub fn health(&self) -> NodeHealth {
        self.health
    }

    /// True when the node is fail-stop dead.
    pub fn is_dead(&self) -> bool {
        self.health == NodeHealth::Dead
    }

    /// Mark the node suspect (telemetry gaps, transient faults) without
    /// killing it. Dead nodes stay dead.
    pub fn mark_suspect(&mut self) {
        self.health = self.health.marked_suspect();
    }

    /// Clear a suspect marking after the node has behaved for a while.
    /// Dead nodes stay dead.
    pub fn mark_healthy(&mut self) {
        self.health = self.health.marked_healthy();
    }

    /// The pinned limit if the node's RAPL interface is stuck.
    pub fn stuck_limit(&self) -> Option<Watts> {
        self.stuck_limit
    }

    /// True while the telemetry path is blacked out.
    pub fn telemetry_down(&self) -> bool {
        self.telemetry_down_for > 0
    }

    /// Steady-state power under `cap` (no filter dynamics): the power drawn
    /// at the operating point the PCU would settle on. Used by the fast
    /// analytic evaluation path.
    pub fn steady_power(&mut self, model: &PowerModel, load: &dyn LoadModel, cap: Watts) -> Watts {
        let op = self.clamp_to_freq_cap(model, load, load.operating_point(model, self.eps, cap));
        self.last_freq = op.lead;
        op.power
    }
}

#[cfg(test)]
impl Node {
    /// Test backdoor for firmware that locked package `k`'s PL1 register:
    /// sets the lock bit (63), which msr-safe never lets software change.
    pub(crate) fn lock_pl1(&mut self, k: usize) {
        let msrs = self.packages[k].msrs_mut();
        let raw = msrs.hw_load(crate::msr::address::PKG_POWER_LIMIT);
        msrs.hw_store(crate::msr::address::PKG_POWER_LIMIT, raw | 1 << 63);
    }
}

/// Refuse an efficiency factor that is not finite and positive: the one
/// check behind [`Node::new`] and `NodeBank::from_part`.
pub(crate) fn check_eps(eps: f64) -> Result<()> {
    if eps.is_finite() && eps > 0.0 {
        Ok(())
    } else {
        Err(SimHwError::InvalidParameter(format!(
            "node efficiency factor must be positive, got {eps}"
        )))
    }
}

/// The `IA32_PERF_CTL` value of a frequency cap: the ratio field (bits
/// 15:8) holds the frequency in 100 MHz units; zero releases the cap.
pub(crate) fn perf_ctl_ratio(cap: Option<Hertz>) -> u64 {
    cap.map_or(0, |f| ((f.value() / 100e6).round() as u64 & 0xFF) << 8)
}

/// Decide what a frequency-cap request writes to `IA32_PERF_CTL`, shared by
/// [`Node::set_freq_cap`] and the columnar bank: a dead node fails with
/// [`SimHwError::NodeFailed`], a cap that is not a positive frequency is
/// rejected, anything else yields the register value (still subject to the
/// register's write mask). `node` is only called on the error path.
pub(crate) fn resolve_freq_cap_request(
    dead: bool,
    node: impl Fn() -> usize,
    cap: Option<Hertz>,
) -> Result<u64> {
    if dead {
        return Err(SimHwError::NodeFailed(node()));
    }
    if let Some(f) = cap {
        if !f.is_valid() || f.value() <= 0.0 {
            return Err(SimHwError::InvalidParameter(format!(
                "frequency cap must be positive, got {f}"
            )));
        }
    }
    Ok(perf_ctl_ratio(cap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::CoreClass;
    use crate::quartz::quartz_spec;

    /// A trivially simple load for node-level tests: all used cores busy at
    /// a fixed activity, lead frequency applied to every core.
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

    fn setup() -> (PowerModel, Node) {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let node = Node::new(NodeId(0), &model, 1.0).unwrap();
        (model, node)
    }

    #[test]
    fn uncapped_node_runs_at_turbo() {
        let (model, mut node) = setup();
        let load = FlatLoad { kappa: 2.5 };
        let f = node.resolve_frequency(&model, &load, Watts(240.0));
        assert_eq!(f, model.spec().f_turbo);
    }

    #[test]
    fn tight_cap_throttles() {
        let (model, mut node) = setup();
        let load = FlatLoad { kappa: 2.9 };
        let f_tight = node.resolve_frequency(&model, &load, Watts(140.0));
        assert!(f_tight < model.spec().f_turbo);
        assert!(f_tight >= model.spec().f_min);
        // Modeled power at the resolved state fits the cap.
        assert!(load.node_power_at(&model, 1.0, f_tight) <= Watts(140.0 + 1e-6));
    }

    #[test]
    fn inefficient_node_is_slower_under_same_cap() {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let mut eff = Node::new(NodeId(1), &model, 0.94).unwrap();
        let mut ineff = Node::new(NodeId(2), &model, 1.07).unwrap();
        let load = FlatLoad { kappa: 2.9 };
        let f_eff = eff.resolve_frequency(&model, &load, Watts(140.0));
        let f_ineff = ineff.resolve_frequency(&model, &load, Watts(140.0));
        assert!(f_eff > f_ineff, "{f_eff:?} should beat {f_ineff:?}");
    }

    #[test]
    fn cap_below_floor_resolves_to_min_pstate() {
        let (model, mut node) = setup();
        let load = FlatLoad { kappa: 2.9 };
        let f = node.resolve_frequency(&model, &load, Watts(5.0));
        assert_eq!(f, model.spec().f_min);
    }

    #[test]
    fn stepping_accumulates_energy() {
        let (model, mut node) = setup();
        let load = FlatLoad { kappa: 2.5 };
        node.set_power_limit(Watts(240.0)).unwrap();
        let mut last = Joules::ZERO;
        for _ in 0..10 {
            let s = node.step(&model, &load, Seconds(0.1));
            assert!(s.energy >= last);
            last = s.energy;
        }
        // Energy ≈ power × 1 s.
        let p = load.node_power_at(&model, 1.0, node.current_freq());
        assert!((last.value() - p.value()).abs() / p.value() < 0.05);
    }

    #[test]
    fn limit_change_takes_effect_gradually() {
        let (model, mut node) = setup();
        let load = FlatLoad { kappa: 2.9 };
        node.set_power_limit(Watts(240.0)).unwrap();
        for _ in 0..30 {
            node.step(&model, &load, Seconds(0.1));
        }
        let f_before = node.current_freq();
        node.set_power_limit(Watts(150.0)).unwrap();
        // One step later the enforced limit has barely moved.
        node.step(&model, &load, Seconds(0.05));
        assert!(node.enforced_limit().value() > 200.0);
        // After many windows it has settled and the node throttled.
        for _ in 0..100 {
            node.step(&model, &load, Seconds(0.2));
        }
        assert!(node.enforced_limit().value() < 155.0);
        assert!(node.current_freq() < f_before);
    }

    #[test]
    fn freq_cap_clamps_the_operating_point() {
        let (model, mut node) = setup();
        let load = FlatLoad { kappa: 2.5 };
        node.set_freq_cap(Some(Hertz::from_ghz(1.8))).unwrap();
        let f = node.resolve_frequency(&model, &load, Watts(240.0));
        assert_eq!(f, Hertz::from_ghz(1.8));
        // The cap is visible through PERF_CTL's ratio field.
        let raw = node.packages()[0]
            .msrs()
            .read(crate::msr::address::PERF_CTL)
            .unwrap();
        assert_eq!((raw >> 8) & 0xFF, 18);
        // Releasing the cap restores turbo.
        node.set_freq_cap(None).unwrap();
        let f = node.resolve_frequency(&model, &load, Watts(240.0));
        assert_eq!(f, model.spec().f_turbo);
    }

    #[test]
    fn freq_cap_and_power_cap_compose() {
        let (model, mut node) = setup();
        let load = FlatLoad { kappa: 2.9 };
        // Power cap alone resolves ~1.8-1.9 GHz at 140 W; a looser freq cap
        // leaves the power cap binding…
        let f_power = node.resolve_frequency(&model, &load, Watts(140.0));
        node.set_freq_cap(Some(Hertz::from_ghz(2.4))).unwrap();
        assert_eq!(node.resolve_frequency(&model, &load, Watts(140.0)), f_power);
        // …while a tighter freq cap takes over.
        node.set_freq_cap(Some(Hertz::from_ghz(1.3))).unwrap();
        let f = node.resolve_frequency(&model, &load, Watts(140.0));
        assert_eq!(f, Hertz::from_ghz(1.3));
        // DVFS-clamped power is below the RAPL cap.
        assert!(load.node_power_at(&model, 1.0, f) < Watts(140.0));
    }

    #[test]
    fn invalid_freq_cap_rejected() {
        let (_, mut node) = setup();
        let perf_ctl = |n: &Node| {
            n.packages()[0]
                .msrs()
                .read(crate::msr::address::PERF_CTL)
                .unwrap()
        };
        // A rejected cap latches nothing, whether or not one was in force.
        for held in [None, Some(Hertz::from_ghz(1.8))] {
            node.set_freq_cap(held).unwrap();
            let raw = perf_ctl(&node);
            for bad in [Hertz(-1.0), Hertz(0.0), Hertz(f64::NAN)] {
                assert!(node.set_freq_cap(Some(bad)).is_err());
                assert_eq!(node.freq_cap(), held);
                assert_eq!(perf_ctl(&node), raw);
            }
        }

        let mut bank = crate::bank::NodeBank::from_nodes(vec![node]);
        for bad in [Hertz(-1.0), Hertz(0.0), Hertz(f64::NAN)] {
            assert!(bank.set_freq_cap(0, Some(bad)).is_err());
            assert_eq!(bank.freq_cap(0), Some(Hertz::from_ghz(1.8)));
            assert_eq!(bank.node(0).freq_cap(), Some(Hertz::from_ghz(1.8)));
            assert_eq!((perf_ctl(&bank.node(0)) >> 8) & 0xFF, 18);
        }
    }

    #[test]
    fn invalid_eps_rejected() {
        let model = PowerModel::new(quartz_spec()).unwrap();
        assert!(Node::new(NodeId(0), &model, 0.0).is_err());
        assert!(Node::new(NodeId(0), &model, f64::NAN).is_err());
    }

    #[test]
    fn dead_node_rejects_control_and_draws_nothing() {
        let (model, mut node) = setup();
        let load = FlatLoad { kappa: 2.5 };
        node.set_power_limit(Watts(200.0)).unwrap();
        let e_before = node.energy();
        node.inject(crate::faults::FaultKind::NodeDeath);
        assert!(node.is_dead());
        assert!(matches!(
            node.set_power_limit(Watts(180.0)),
            Err(SimHwError::NodeFailed(0))
        ));
        assert!(matches!(
            node.try_step(&model, &load, Seconds(0.1)),
            Err(SimHwError::NodeFailed(0))
        ));
        let s = node.step(&model, &load, Seconds(0.1));
        assert_eq!(s.power, Watts(0.0));
        assert_eq!(s.energy, e_before);
    }

    #[test]
    fn stuck_rapl_silently_pins_the_limit() {
        let (model, mut node) = setup();
        let _ = model;
        node.inject(crate::faults::FaultKind::StuckRapl { pinned_w: 140.0 });
        // The write "succeeds" but the programmed value is the pinned one.
        node.set_power_limit(Watts(240.0)).unwrap();
        assert_eq!(node.power_limit(), Watts(140.0));
        assert_eq!(node.stuck_limit(), Some(Watts(140.0)));
        assert!(!node.is_dead());
    }

    #[test]
    fn telemetry_dropout_fails_reads_while_hardware_advances() {
        let (model, mut node) = setup();
        let load = FlatLoad { kappa: 2.5 };
        node.set_power_limit(Watts(240.0)).unwrap();
        node.inject(crate::faults::FaultKind::TelemetryDropout { iterations: 2 });
        assert!(node.telemetry_down());
        let e0 = node.energy();
        for _ in 0..2 {
            assert!(matches!(
                node.try_step(&model, &load, Seconds(0.1)),
                Err(SimHwError::TelemetryUnavailable { node: 0 })
            ));
        }
        // Energy kept accumulating underneath the blackout…
        assert!(node.energy() > e0);
        // …and the third read succeeds.
        assert!(node.try_step(&model, &load, Seconds(0.1)).is_ok());
        assert!(!node.telemetry_down());
    }

    #[test]
    fn transient_msr_fault_denies_exactly_one_write() {
        let (model, mut node) = setup();
        let _ = model;
        node.inject(crate::faults::FaultKind::TransientMsrFault);
        assert!(matches!(
            node.set_power_limit(Watts(200.0)),
            Err(SimHwError::MsrNotAllowed { write: true, .. })
        ));
        node.set_power_limit(Watts(200.0)).unwrap();
    }

    #[test]
    fn suspect_marking_never_resurrects_the_dead() {
        let (_, mut node) = setup();
        node.mark_suspect();
        assert_eq!(node.health(), crate::faults::NodeHealth::Suspect);
        node.mark_healthy();
        assert_eq!(node.health(), crate::faults::NodeHealth::Healthy);
        node.inject(crate::faults::FaultKind::NodeDeath);
        node.mark_suspect();
        node.mark_healthy();
        assert!(node.is_dead());
    }
}
