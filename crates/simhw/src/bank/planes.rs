//! PP0/DRAM sub-planes: the per-package plane cells and limit programming.
//!
//! A bank whose part has planes keeps each package's PP0 and DRAM state —
//! limit register, stuck latch, energy and enforcement filter — in the
//! `planes` column, per (host, socket); a PKG-only bank keeps none, and its
//! step does no per-host work for them.
//!
//! **The invariant this file owns: the step advances a host's plane cells
//! exactly where [`crate::Node::try_step`] advances its planes.** Every
//! host the step is handed an operating point for, replayed segments
//! included, advances each package's planes through
//! `rapl::advance_planes` — the arithmetic `RaplPackage::advance` runs — at
//! its share of the node's power, so [`NodeBank::node`] and
//! [`NodeBank::domain_energy`] read what a `Node` stepped alike reads. The
//! cells read `ops` directly rather than through the replay counts, so
//! [`NodeBank::step_all_partial`] advances them exactly as
//! [`NodeBank::step_all`] does over the same operating points.
//!
//! Limit programming runs the `Node` method on a materialised copy of the
//! host (`with_node`), so allowlist, clamp and stuck-latch semantics are the
//! `Node`'s.

use super::NodeBank;
use crate::error::{Result, SimHwError};
use crate::power::OperatingPoint;
use crate::rapl::{advance_planes, RaplDomain, DOMAIN_ADVANCED};
use crate::units::{Joules, Seconds, Watts};

impl NodeBank {
    /// Program a node-level sub-plane limit through a materialised `Node`
    /// (allowlist, clamp and stuck-latch semantics all apply). Returns the
    /// watts actually programmed.
    pub fn set_domain_limit(&mut self, h: usize, d: RaplDomain, limit: Watts) -> Result<Watts> {
        self.with_node(h, |n| n.set_domain_limit(d, limit))
    }

    /// Pin one sub-plane's limit on a host (stuck-RAPL confined to a single
    /// domain).
    pub fn inject_domain_stuck(&mut self, h: usize, d: RaplDomain, pinned: Watts) -> Result<()> {
        self.with_node(h, |n| n.inject_domain_stuck(d, pinned))
    }

    /// Cumulative node-level energy of one domain, summed over sockets as
    /// [`crate::Node::domain_energy`] sums it. PKG reads the energy columns,
    /// PP0/DRAM the plane cells (an error for a PKG-only part, mirroring the
    /// per-package contract).
    pub fn domain_energy(&self, h: usize, d: RaplDomain) -> Result<Joules> {
        match d {
            RaplDomain::Pkg => Ok(self.energy(h)),
            _ if self.domains.is_none() => Err(SimHwError::InvalidParameter(format!(
                "domain {d} not enabled on this bank's part"
            ))),
            _ => {
                let cells = &self.planes[h * self.sockets..(h + 1) * self.sockets];
                Ok(cells
                    .iter()
                    .fold(Joules::ZERO, |e, c| e + c[d.index() - 1].energy))
            }
        }
    }

    /// Advance the plane cells of every host with an operating point by
    /// `dt`, each package at its share of the host's power.
    pub(super) fn advance_planes(&mut self, dt: Seconds, ops: &[Option<OperatingPoint>]) {
        let Some(cfg) = self.domains else { return };
        let (s, part) = (self.sockets, (&cfg, &self.units, self.pl1_max));
        let hosts = (self.planes.chunks_exact_mut(s)).zip(self.target.chunks_exact(s));
        for ((planes, targets), op) in hosts.zip(ops) {
            let Some(op) = op else { continue };
            for (cells, &target) in planes.iter_mut().zip(targets) {
                advance_planes(cells, part, target, op.power / s as f64, dt);
            }
        }
        DOMAIN_ADVANCED.add((ops.iter().flatten().count() * s) as u64);
    }
}
