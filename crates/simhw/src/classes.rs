//! Heterogeneous node classes.
//!
//! The paper's evaluation assumes a homogeneous Xeon fleet; ROADMAP item 11
//! calls that out as the limitation to lift. A [`NodeClass`] bundles
//! everything the stack needs to treat a *kind* of node as a first-class
//! citizen: the machine description (power curve, frequency ladder, TDP),
//! the class's idle floor, and an optional PP0/DRAM sub-plane split
//! ([`DomainConfig`]).
//!
//! A mixed fleet steps as one [`crate::NodeBank`] per class-pure group of
//! hosts, each built from [`crate::Node::with_class`]: a bank holds one part,
//! so every class keeps its own contiguous column segments and no bank
//! kernel branches on class. A bank whose part has PP0/DRAM planes steps
//! each package's plane cells as a `Node` steps its planes, and programs
//! their limits through a materialised `Node`
//! (the `planes` module of [`crate::bank`]). `repro hetero` builds one bank
//! per job, since every job there runs on one class.

use crate::error::{Result, SimHwError};
use crate::power::{MachineSpec, PowerModel};
use crate::rapl::DomainConfig;
use crate::units::Watts;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{HostStep, NodeBank};
    use crate::faults::FaultKind;
    use crate::node::{Node, NodeId};
    use crate::power::{CoreClass, LoadModel};
    use crate::rapl::RaplDomain;
    use crate::units::{Hertz, Joules, Seconds};

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

    /// Three hosts of `class`, built as a mixed fleet builds each of its
    /// class-pure banks.
    fn class_nodes(c: usize, class: &NodeClass, model: &PowerModel) -> Vec<Node> {
        (0..3)
            .map(|h| Node::with_class(NodeId(h), ClassId(c), class, model, 0.95 + 0.01 * h as f64))
            .collect::<Result<_>>()
            .unwrap()
    }

    /// One bank per standard class, with its model and class.
    fn class_banks() -> Vec<(NodeClass, PowerModel, NodeBank)> {
        standard_classes()
            .into_iter()
            .enumerate()
            .map(|(c, class)| {
                let model = PowerModel::new(class.spec.clone()).unwrap();
                let bank = NodeBank::from_nodes(class_nodes(c, &class, &model));
                (class, model, bank)
            })
            .collect()
    }

    /// Step every live host of `bank` `iterations` times at 0.2 s.
    fn step_live(bank: &mut NodeBank, model: &PowerModel, iterations: usize) {
        let load = FlatLoad { kappa: 2.5 };
        let n = bank.len();
        let mut results = vec![HostStep::Skipped; n];
        for _ in 0..iterations {
            let ops: Vec<_> = (0..n)
                .map(|h| {
                    bank.is_alive(h)
                        .then(|| bank.operating_point(h, model, &load))
                })
                .collect();
            bank.step_all(Seconds(0.2), &ops, &mut results, false);
        }
    }

    #[test]
    fn standard_classes_validate() {
        for c in standard_classes() {
            c.validate().unwrap();
        }
    }

    /// The plane cells a step advances split each package's draw as the
    /// class says (the lockstep harness pins them to a `Node`'s).
    #[test]
    fn stepping_accumulates_domain_meters() {
        for (class, model, mut bank) in class_banks() {
            step_live(&mut bank, &model, 10);
            let frac = class.domains.unwrap().pp0_fraction;
            for h in 0..bank.len() {
                let pkg = bank.domain_energy(h, RaplDomain::Pkg).unwrap();
                let pp0 = bank.domain_energy(h, RaplDomain::Pp0).unwrap();
                let dram = bank.domain_energy(h, RaplDomain::Dram).unwrap();
                assert!(pkg > Joules::ZERO);
                assert!(
                    pp0 > Joules::ZERO && pp0 < pkg,
                    "PP0 below PKG on {}",
                    class.name
                );
                assert!(dram > Joules::ZERO);
                assert!(
                    (pp0.value() / pkg.value() - frac).abs() < 1e-9,
                    "PP0 meter tracks the class split on {} host {h}",
                    class.name
                );
            }
        }
    }

    /// Sub-plane limits run on a materialised `Node`, so every write answers
    /// what the same write answers on a `Node` built alike: the clamp into
    /// the plane's range, a stuck plane latching while its sibling stays
    /// live, and a dead host refusing.
    #[test]
    fn domain_limits_route_through_the_backing_node() {
        for (c, (class, model, mut bank)) in class_banks().into_iter().enumerate() {
            let mut reference = class_nodes(c, &class, &model);
            let programmed = bank.set_domain_limit(0, RaplDomain::Pp0, Watts(100.0));
            assert!(programmed.as_ref().unwrap() > &Watts(0.0));
            assert_eq!(
                programmed,
                reference[0].set_domain_limit(RaplDomain::Pp0, Watts(100.0))
            );
            // Far above every class's PP0 range: clamped to its top.
            let clamped = bank
                .set_domain_limit(1, RaplDomain::Pp0, Watts(1e4))
                .unwrap();
            assert!(clamped < Watts(1e4));
            assert_eq!(
                Ok(clamped),
                reference[1].set_domain_limit(RaplDomain::Pp0, Watts(1e4))
            );
            bank.inject_domain_stuck(2, RaplDomain::Pp0, Watts(60.0))
                .unwrap();
            reference[2]
                .inject_domain_stuck(RaplDomain::Pp0, Watts(60.0))
                .unwrap();
            let latched = bank.set_domain_limit(2, RaplDomain::Pp0, Watts(80.0));
            assert_eq!(
                latched,
                reference[2].set_domain_limit(RaplDomain::Pp0, Watts(80.0))
            );
            let dram = bank.set_domain_limit(2, RaplDomain::Dram, Watts(12.0));
            assert_eq!(
                dram,
                reference[2].set_domain_limit(RaplDomain::Dram, Watts(12.0))
            );
            assert!((dram.unwrap().value() - 12.0).abs() < 0.3);
            bank.inject(0, FaultKind::NodeDeath);
            assert!(bank
                .set_domain_limit(0, RaplDomain::Dram, Watts(12.0))
                .is_err());
        }
        // Host 2 of the stout bank is single-socket with a PP0 range of
        // about [40.6, 81.9] W, so the stuck latch pins exactly 60 W.
        let (_, _, mut stout) = class_banks().swap_remove(2);
        stout
            .inject_domain_stuck(2, RaplDomain::Pp0, Watts(60.0))
            .unwrap();
        assert_eq!(
            stout.set_domain_limit(2, RaplDomain::Pp0, Watts(80.0)),
            Ok(Watts(60.0))
        );
    }

    #[test]
    fn dead_hosts_stop_metering() {
        for (_, model, mut bank) in class_banks() {
            bank.inject(1, FaultKind::NodeDeath);
            assert!(!bank.is_alive(1));
            step_live(&mut bank, &model, 1);
            for d in [RaplDomain::Pp0, RaplDomain::Dram] {
                assert_eq!(bank.domain_energy(1, d).unwrap(), Joules::ZERO);
                assert!(bank.domain_energy(0, d).unwrap() > Joules::ZERO);
            }
        }
    }

    /// A bank built from a PKG-only class has no plane cells: a
    /// PP0/DRAM read or write is refused, and its PKG energy reads as usual.
    #[test]
    fn pkg_only_class_rejects_domain_reads() {
        let class = NodeClass::pkg_only("plain", crate::quartz::quartz_spec());
        let model = PowerModel::new(class.spec.clone()).unwrap();
        let mut bank = NodeBank::from_nodes(class_nodes(0, &class, &model));
        step_live(&mut bank, &model, 2);
        assert!(bank.domain_energy(0, RaplDomain::Pkg).unwrap() > Joules::ZERO);
        assert!(bank.domain_energy(0, RaplDomain::Pp0).is_err());
        assert!(bank.domain_energy(0, RaplDomain::Dram).is_err());
        assert!(bank
            .set_domain_limit(0, RaplDomain::Pp0, Watts(100.0))
            .is_err());
    }
}
