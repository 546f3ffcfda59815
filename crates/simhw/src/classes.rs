//! Heterogeneous node classes and the classed fleet bank.
//!
//! The paper's evaluation assumes a homogeneous Xeon fleet; ROADMAP item 4
//! calls that out as the limitation to lift. A [`NodeClass`] bundles
//! everything the stack needs to treat a *kind* of node as a first-class
//! citizen: the machine description (power curve, frequency ladder, TDP),
//! the class's idle floor, and an optional PP0/DRAM sub-plane split
//! ([`DomainConfig`]).
//!
//! [`ClassedBank`] extends the columnar [`NodeBank`] to a mixed fleet by
//! composition rather than by widening the columns: it holds **one bank per
//! class**, so every class keeps its own contiguous column segments (the
//! sharded replay/fast-forward machinery works per class, unchanged), and a
//! global host index maps onto `(class, local)` slots. A 1-class classed
//! bank therefore delegates every step to exactly the code path a
//! homogeneous [`NodeBank`] runs — the lockstep differential suite in
//! `tests/shards.rs` proves the two bit-identical.
//!
//! Sub-plane energy for a classed fleet is metered in per-host columns here
//! (node-level, summed over sockets) rather than through the per-package
//! [`crate::rapl::RaplPackage`] sub-domain state, which the columnar hot
//! path deliberately leaves cold; limit programming still runs the `Node`
//! method on a materialised copy of the host (the bank keeps each plane's
//! limit register and stuck latch in columns), so allowlist, clamp and
//! stuck-fault semantics hold.

use crate::bank::{HostStep, NodeBank, StepReport};
use crate::error::{Result, SimHwError};
use crate::faults::{FaultKind, NodeHealth};
use crate::node::{Node, NodeId};
use crate::power::{LoadModel, MachineSpec, OperatingPoint, PowerModel};
use crate::rapl::{DomainConfig, RaplDomain};
use crate::units::{Hertz, Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Identifier of a node class within a fleet description.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ClassId(pub usize);

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class{}", self.0)
    }
}

/// Everything the stack needs to know about one kind of node.
#[derive(Debug, Clone)]
pub struct NodeClass {
    /// Short stable name (wire formats, metrics labels, CLI).
    pub name: String,
    /// The machine description: power curve, frequency ladder, TDP.
    pub spec: MachineSpec,
    /// Node-level idle floor — the draw below which capping is pointless.
    pub idle_floor: Watts,
    /// Optional PP0/DRAM sub-plane split; `None` keeps the class PKG-only
    /// with exact pre-domain semantics.
    pub domains: Option<DomainConfig>,
}

impl NodeClass {
    /// A PKG-only class wrapping a machine spec, with the idle floor at the
    /// spec's minimum RAPL limit.
    pub fn pkg_only(name: &str, spec: MachineSpec) -> Self {
        let idle_floor = spec.min_rapl_per_node();
        Self {
            name: name.to_string(),
            spec,
            idle_floor,
            domains: None,
        }
    }

    /// Validate the class description.
    pub fn validate(&self) -> Result<()> {
        self.spec.validate()?;
        if !self.idle_floor.is_valid() || self.idle_floor.value() < 0.0 {
            return Err(SimHwError::InvalidParameter(format!(
                "class {}: idle floor must be finite and non-negative",
                self.name
            )));
        }
        if self.idle_floor > self.spec.tdp_per_node() {
            return Err(SimHwError::InvalidParameter(format!(
                "class {}: idle floor {} exceeds TDP {}",
                self.name,
                self.idle_floor,
                self.spec.tdp_per_node()
            )));
        }
        Ok(())
    }
}

/// The three standard classes of the heterogeneous evaluation fleet:
/// quartz (the paper's Broadwell nodes), a Skylake-SP "performance" class,
/// and the single-socket stout "efficiency" class — each with a PP0/DRAM
/// split in line with its part.
pub fn standard_classes() -> Vec<NodeClass> {
    vec![
        NodeClass {
            name: "quartz".to_string(),
            spec: crate::quartz::quartz_spec(),
            idle_floor: Watts(72.0),
            domains: Some(DomainConfig {
                pp0_fraction: 0.72,
                dram_power: Watts(14.0),
            }),
        },
        NodeClass {
            name: "skylake".to_string(),
            spec: crate::machines::skylake_sp_spec(),
            idle_floor: Watts(90.0),
            domains: Some(DomainConfig {
                pp0_fraction: 0.70,
                dram_power: Watts(20.0),
            }),
        },
        NodeClass {
            name: "stout".to_string(),
            spec: crate::machines::stout_spec(),
            idle_floor: Watts(30.0),
            domains: Some(DomainConfig {
                pp0_fraction: 0.78,
                dram_power: Watts(9.0),
            }),
        },
    ]
}

/// One power model per class, index-aligned with the class list.
#[derive(Debug, Clone)]
pub struct ClassModels {
    models: Vec<PowerModel>,
}

impl ClassModels {
    /// Build a model per class (validating each class on the way).
    pub fn new(classes: &[NodeClass]) -> Result<Self> {
        let models = classes
            .iter()
            .map(|c| {
                c.validate()?;
                PowerModel::new(c.spec.clone())
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { models })
    }

    /// The model of one class.
    pub fn model(&self, c: ClassId) -> &PowerModel {
        &self.models[c.0]
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// Columnar storage for a *mixed* fleet: one [`NodeBank`] per class, a
/// global host index mapped onto `(class, local)` slots, and per-host
/// sub-plane meter columns for classes with PP0/DRAM domains.
#[derive(Debug, Clone)]
pub struct ClassedBank {
    classes: Vec<NodeClass>,
    models: ClassModels,
    banks: Vec<NodeBank>,
    /// Global host → `(class index, local index within the class bank)`.
    assign: Vec<(usize, usize)>,
    /// Class → global host ids, in local order.
    globals: Vec<Vec<usize>>,
    /// Class → the class bank's step results, in local order. Kept across
    /// calls: a replayed segment leaves its slots as the last step wrote
    /// them ([`NodeBank::step_all_partial`]).
    local_results: Vec<Vec<HostStep>>,
    /// Per-host node-level PP0 exact energy (zero for PKG-only classes).
    pp0_energy: Vec<Joules>,
    /// Per-host node-level DRAM exact energy (zero for PKG-only classes).
    dram_energy: Vec<Joules>,
}

impl ClassedBank {
    /// Build a classed bank: host `h` belongs to `membership[h]` and gets
    /// efficiency factor `eps[h]`. Hosts of one class occupy contiguous
    /// local slots in their class's bank, in global order.
    pub fn new(classes: Vec<NodeClass>, membership: &[ClassId], eps: &[f64]) -> Result<Self> {
        if classes.is_empty() {
            return Err(SimHwError::InvalidParameter(
                "a classed bank needs at least one class".into(),
            ));
        }
        if membership.len() != eps.len() {
            return Err(SimHwError::InvalidParameter(format!(
                "membership ({}) and eps ({}) lengths differ",
                membership.len(),
                eps.len()
            )));
        }
        let models = ClassModels::new(&classes)?;
        let mut per_class: Vec<Vec<Node>> = vec![Vec::new(); classes.len()];
        let mut globals: Vec<Vec<usize>> = vec![Vec::new(); classes.len()];
        let mut assign = Vec::with_capacity(membership.len());
        for (h, (&cid, &e)) in membership.iter().zip(eps).enumerate() {
            let c = cid.0;
            if c >= classes.len() {
                return Err(SimHwError::InvalidParameter(format!(
                    "host {h} assigned to unknown class {c}"
                )));
            }
            let node = Node::with_class(NodeId(h), cid, &classes[c], models.model(cid), e)?;
            assign.push((c, per_class[c].len()));
            per_class[c].push(node);
            globals[c].push(h);
        }
        let banks = per_class.into_iter().map(NodeBank::from_nodes).collect();
        let local_results = globals
            .iter()
            .map(|g| vec![HostStep::Skipped; g.len()])
            .collect();
        let n = membership.len();
        Ok(Self {
            classes,
            models,
            banks,
            assign,
            globals,
            local_results,
            pp0_energy: vec![Joules::ZERO; n],
            dram_energy: vec![Joules::ZERO; n],
        })
    }

    /// Number of hosts across all classes.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True when the fleet holds no hosts.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The class a host belongs to.
    pub fn class_of(&self, h: usize) -> ClassId {
        ClassId(self.assign[h].0)
    }

    /// One class description.
    pub fn class(&self, c: ClassId) -> &NodeClass {
        &self.classes[c.0]
    }

    /// The per-class power models.
    pub fn models(&self) -> &ClassModels {
        &self.models
    }

    /// Global host ids of one class, in local (bank) order.
    pub fn hosts_of(&self, c: ClassId) -> &[usize] {
        &self.globals[c.0]
    }

    /// The class's underlying bank (read paths; control must go through
    /// the classed bank so the mapping stays authoritative).
    pub fn bank(&self, c: ClassId) -> &NodeBank {
        &self.banks[c.0]
    }

    fn slot(&self, h: usize) -> (usize, usize) {
        self.assign[h]
    }

    /// The host's efficiency factor ε.
    pub fn eps(&self, h: usize) -> f64 {
        let (c, l) = self.slot(h);
        self.banks[c].eps(l)
    }

    /// The host's observed health.
    pub fn health(&self, h: usize) -> NodeHealth {
        let (c, l) = self.slot(h);
        self.banks[c].health(l)
    }

    /// True unless the host is fail-stop dead.
    pub fn is_alive(&self, h: usize) -> bool {
        let (c, l) = self.slot(h);
        self.banks[c].is_alive(l)
    }

    /// The most recent lead frequency the host resolved.
    pub fn last_freq(&self, h: usize) -> Hertz {
        let (c, l) = self.slot(h);
        self.banks[c].last_freq(l)
    }

    /// The host's programmed node-level PKG limit.
    pub fn power_limit(&self, h: usize) -> Watts {
        let (c, l) = self.slot(h);
        self.banks[c].power_limit(l)
    }

    /// The PKG limit the host's enforcement loops currently hold.
    pub fn enforced_limit(&self, h: usize) -> Watts {
        let (c, l) = self.slot(h);
        self.banks[c].enforced_limit(l)
    }

    /// Cumulative exact host PKG energy.
    pub fn energy(&self, h: usize) -> Joules {
        let (c, l) = self.slot(h);
        self.banks[c].energy(l)
    }

    /// The operating point the host settles on right now, resolved against
    /// its own class's power model.
    pub fn operating_point<L: LoadModel + ?Sized>(&self, h: usize, load: &L) -> OperatingPoint {
        let (c, l) = self.slot(h);
        self.banks[c].operating_point(l, self.models.model(ClassId(c)), load)
    }

    /// Program a node-level PKG power limit.
    pub fn set_power_limit(&mut self, h: usize, limit: Watts) -> Result<()> {
        let (c, l) = self.slot(h);
        self.banks[c].set_power_limit(l, limit)
    }

    /// Program or release a frequency cap.
    pub fn set_freq_cap(&mut self, h: usize, cap: Option<Hertz>) -> Result<()> {
        let (c, l) = self.slot(h);
        self.banks[c].set_freq_cap(l, cap)
    }

    /// Apply an injected fault.
    pub fn inject(&mut self, h: usize, kind: FaultKind) {
        let (c, l) = self.slot(h);
        self.banks[c].inject(l, kind);
    }

    /// Mark the host suspect.
    pub fn mark_suspect(&mut self, h: usize) {
        let (c, l) = self.slot(h);
        self.banks[c].mark_suspect(l);
    }

    /// Clear a suspect marking (dead hosts stay dead).
    pub fn mark_healthy(&mut self, h: usize) {
        let (c, l) = self.slot(h);
        self.banks[c].mark_healthy(l);
    }

    /// Program a node-level sub-plane limit through a materialised `Node`
    /// (allowlist, clamp, stuck-latch semantics all apply). Returns the
    /// watts actually programmed.
    pub fn set_domain_limit(&mut self, h: usize, d: RaplDomain, limit: Watts) -> Result<Watts> {
        let (c, l) = self.slot(h);
        self.banks[c].with_node(l, |n| n.set_domain_limit(d, limit))
    }

    /// Pin one sub-plane's limit on a host (stuck-RAPL confined to a single
    /// domain).
    pub fn inject_domain_stuck(&mut self, h: usize, d: RaplDomain, pinned: Watts) -> Result<()> {
        let (c, l) = self.slot(h);
        self.banks[c].with_node(l, |n| n.inject_domain_stuck(d, pinned))
    }

    /// Cumulative node-level energy of one domain. PKG reads the bank's
    /// columns; PP0/DRAM read the classed meter columns (an error for a
    /// PKG-only class, mirroring the per-package contract).
    pub fn domain_energy(&self, h: usize, d: RaplDomain) -> Result<Joules> {
        match d {
            RaplDomain::Pkg => Ok(self.energy(h)),
            RaplDomain::Pp0 | RaplDomain::Dram => {
                let (c, _) = self.slot(h);
                if self.classes[c].domains.is_none() {
                    return Err(SimHwError::InvalidParameter(format!(
                        "domain {} not enabled on class {}",
                        d, self.classes[c].name
                    )));
                }
                Ok(match d {
                    RaplDomain::Pp0 => self.pp0_energy[h],
                    _ => self.dram_energy[h],
                })
            }
        }
    }

    /// Advance every host with an operating point by `dt` (global host
    /// indexing: `ops[h]`/`results[h]`). Each class's bank steps its own
    /// contiguous columns, so settled segments of one class replay/skip
    /// independently of churn in another. Returns `true` when every
    /// stepped enforcement filter was already at its bitwise fixed point.
    pub fn step_all(
        &mut self,
        dt: Seconds,
        ops: &[Option<OperatingPoint>],
        results: &mut [HostStep],
        parallel: bool,
    ) -> bool {
        self.step_classes(dt, ops, results, parallel, false)
            .all_settled
    }

    /// Like [`ClassedBank::step_all`] but with per-segment replay enabled,
    /// merging the per-class [`StepReport`]s.
    pub fn step_all_partial(
        &mut self,
        dt: Seconds,
        ops: &[Option<OperatingPoint>],
        results: &mut [HostStep],
        parallel: bool,
    ) -> StepReport {
        self.step_classes(dt, ops, results, parallel, true)
    }

    fn step_classes(
        &mut self,
        dt: Seconds,
        ops: &[Option<OperatingPoint>],
        results: &mut [HostStep],
        parallel: bool,
        partial: bool,
    ) -> StepReport {
        let n = self.assign.len();
        assert_eq!(ops.len(), n, "one operating point slot per host");
        assert_eq!(results.len(), n, "one result slot per host");
        let mut report = StepReport {
            all_settled: true,
            segments_replayed: 0,
            segments_stepped: 0,
        };
        for (c, bank) in self.banks.iter_mut().enumerate() {
            if bank.is_empty() {
                continue;
            }
            let globals = &self.globals[c];
            let local_ops: Vec<Option<OperatingPoint>> = globals.iter().map(|&g| ops[g]).collect();
            let local_results = &mut self.local_results[c];
            let r = if partial {
                bank.step_all_partial(dt, &local_ops, local_results, parallel)
            } else {
                let settled = bank.step_all(dt, &local_ops, local_results, parallel);
                StepReport {
                    all_settled: settled,
                    segments_replayed: 0,
                    segments_stepped: bank.num_segments(),
                }
            };
            report.all_settled &= r.all_settled;
            report.segments_replayed += r.segments_replayed;
            report.segments_stepped += r.segments_stepped;
            for (&g, &res) in globals.iter().zip(local_results.iter()) {
                results[g] = res;
            }
            // Advance the sub-plane meters from the same per-host powers
            // the bank just accumulated: PP0 draws its fraction of node
            // power, DRAM draws its per-package power while the node is
            // live — node-level, matching the per-package arithmetic
            // summed over sockets.
            if let Some(cfg) = self.classes[c].domains {
                let sockets = bank.sockets() as f64;
                for &g in globals {
                    let Some(op) = ops[g] else { continue };
                    crate::rapl::DOMAIN_ADVANCED.inc();
                    self.pp0_energy[g] += op.power * cfg.pp0_fraction * dt;
                    if op.power.value() > 0.0 {
                        self.dram_energy[g] += cfg.dram_power * sockets * dt;
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::CoreClass;

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

    fn mixed_fleet() -> ClassedBank {
        let classes = standard_classes();
        // Interleave classes so local/global mapping is non-trivial.
        let membership: Vec<ClassId> = (0..9).map(|h| ClassId(h % 3)).collect();
        let eps: Vec<f64> = (0..9).map(|h| 0.95 + 0.01 * h as f64).collect();
        ClassedBank::new(classes, &membership, &eps).unwrap()
    }

    #[test]
    fn standard_classes_validate() {
        for c in standard_classes() {
            c.validate().unwrap();
        }
    }

    #[test]
    fn mixed_fleet_maps_hosts_to_class_banks() {
        let bank = mixed_fleet();
        assert_eq!(bank.len(), 9);
        assert_eq!(bank.num_classes(), 3);
        for h in 0..9 {
            assert_eq!(bank.class_of(h), ClassId(h % 3));
        }
        for c in 0..3 {
            assert_eq!(bank.hosts_of(ClassId(c)), &[c, c + 3, c + 6]);
            assert_eq!(bank.bank(ClassId(c)).len(), 3);
        }
        // Per-class TDPs differ: the classes really are different parts.
        assert_ne!(
            bank.class(ClassId(0)).spec.tdp_per_node(),
            bank.class(ClassId(2)).spec.tdp_per_node()
        );
    }

    #[test]
    fn stepping_accumulates_domain_meters() {
        let mut bank = mixed_fleet();
        let load = FlatLoad { kappa: 2.5 };
        let n = bank.len();
        let mut results = vec![HostStep::Skipped; n];
        for _ in 0..10 {
            let ops: Vec<_> = (0..n)
                .map(|h| Some(bank.operating_point(h, &load)))
                .collect();
            bank.step_all(Seconds(0.2), &ops, &mut results, false);
        }
        for h in 0..n {
            let pkg = bank.domain_energy(h, RaplDomain::Pkg).unwrap();
            let pp0 = bank.domain_energy(h, RaplDomain::Pp0).unwrap();
            let dram = bank.domain_energy(h, RaplDomain::Dram).unwrap();
            assert!(pkg > Joules::ZERO);
            assert!(pp0 > Joules::ZERO && pp0 < pkg, "PP0 below PKG on host {h}");
            assert!(dram > Joules::ZERO);
            let frac = bank.class(bank.class_of(h)).domains.unwrap().pp0_fraction;
            assert!(
                (pp0.value() / pkg.value() - frac).abs() < 1e-9,
                "PP0 meter tracks the class split on host {h}"
            );
        }
    }

    #[test]
    fn domain_limits_route_through_the_backing_node() {
        let mut bank = mixed_fleet();
        let programmed = bank
            .set_domain_limit(0, RaplDomain::Pp0, Watts(100.0))
            .unwrap();
        assert!(programmed > Watts(0.0));
        // A stuck PP0 plane silently latches while DRAM stays live (host 2
        // is stout: single socket, PP0 range ≈ [40.6, 81.9] W, so 60 W pins
        // exactly).
        bank.inject_domain_stuck(2, RaplDomain::Pp0, Watts(60.0))
            .unwrap();
        let latched = bank
            .set_domain_limit(2, RaplDomain::Pp0, Watts(80.0))
            .unwrap();
        assert_eq!(latched, Watts(60.0));
        let dram = bank
            .set_domain_limit(2, RaplDomain::Dram, Watts(12.0))
            .unwrap();
        assert!((dram.value() - 12.0).abs() < 0.3);
    }

    #[test]
    fn dead_hosts_stop_metering() {
        let mut bank = mixed_fleet();
        let load = FlatLoad { kappa: 2.5 };
        let n = bank.len();
        let mut results = vec![HostStep::Skipped; n];
        bank.inject(4, FaultKind::NodeDeath);
        assert!(!bank.is_alive(4));
        let ops: Vec<_> = (0..n)
            .map(|h| bank.is_alive(h).then(|| bank.operating_point(h, &load)))
            .collect();
        bank.step_all(Seconds(0.2), &ops, &mut results, false);
        assert_eq!(results[4], HostStep::Skipped);
        assert_eq!(
            bank.domain_energy(4, RaplDomain::Pp0).unwrap(),
            Joules::ZERO
        );
        assert!(bank.domain_energy(3, RaplDomain::Pp0).unwrap() > Joules::ZERO);
    }

    #[test]
    fn pkg_only_class_rejects_domain_reads() {
        let classes = vec![NodeClass::pkg_only("plain", crate::quartz::quartz_spec())];
        let membership = vec![ClassId(0); 2];
        let bank = ClassedBank::new(classes, &membership, &[1.0, 1.0]).unwrap();
        assert!(bank.domain_energy(0, RaplDomain::Pkg).is_ok());
        assert!(bank.domain_energy(0, RaplDomain::Pp0).is_err());
        assert!(bank.domain_energy(0, RaplDomain::Dram).is_err());
    }

    #[test]
    fn invalid_construction_is_rejected() {
        let classes = standard_classes();
        assert!(ClassedBank::new(vec![], &[], &[]).is_err());
        assert!(ClassedBank::new(classes.clone(), &[ClassId(7)], &[1.0]).is_err());
        assert!(ClassedBank::new(classes, &[ClassId(0)], &[]).is_err());
    }
}
