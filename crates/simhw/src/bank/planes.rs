//! PP0/DRAM sub-planes: node-level meters and limit programming.
//!
//! A bank whose part has planes keeps two node-level meters per host (PP0
//! and DRAM, summed over sockets) in the `meters` column; a PKG-only bank
//! keeps none and its step does no per-host work for them.
//!
//! **The invariant this file owns: the meters advance for every host the
//! step is handed an operating point for, replayed segments included.**
//! PP0 draws its fraction of the node's power and DRAM its per-package power
//! on every socket while the node draws any power. The meters read `ops`
//! directly rather than through the replay counts, so
//! [`NodeBank::step_all_partial`] meters exactly what [`NodeBank::step_all`]
//! does over the same operating points.
//!
//! The meters are the bank's own accounting, separate from the per-package
//! plane meters in the `planes` column: those are ingested and
//! materialised with the rest of a host's `Node` and the step leaves them
//! cold. Limit programming runs the `Node` method on a materialised copy of
//! the host (`with_node`), so allowlist, clamp and stuck-latch semantics
//! are the `Node`'s.

use super::NodeBank;
use crate::error::{Result, SimHwError};
use crate::power::OperatingPoint;
use crate::rapl::{RaplDomain, DOMAIN_ADVANCED};
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

    /// Cumulative node-level energy of one domain. PKG reads the energy
    /// columns; PP0/DRAM read the meters (an error for a PKG-only part,
    /// mirroring the per-package contract).
    pub fn domain_energy(&self, h: usize, d: RaplDomain) -> Result<Joules> {
        match d {
            RaplDomain::Pkg => Ok(self.energy(h)),
            _ if self.domains.is_none() => Err(SimHwError::InvalidParameter(format!(
                "domain {d} not enabled on this bank's part"
            ))),
            _ => Ok(self.meters[h][d.index() - 1]),
        }
    }

    /// Advance the meters of every host with an operating point by `dt`.
    pub(super) fn advance_meters(&mut self, dt: Seconds, ops: &[Option<OperatingPoint>]) {
        let Some(cfg) = self.domains else { return };
        let sockets = self.sockets as f64;
        let mut advanced = 0;
        for (meter, op) in self.meters.iter_mut().zip(ops) {
            let Some(op) = op else { continue };
            advanced += 1;
            meter[0] += op.power * cfg.pp0_fraction * dt;
            if op.power.value() > 0.0 {
                meter[1] += cfg.dram_power * sockets * dt;
            }
        }
        DOMAIN_ADVANCED.add(advanced);
    }
}
