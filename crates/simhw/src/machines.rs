//! Alternative machine descriptions.
//!
//! §V-A1: "Although these experiments are executed on a single Intel
//! architecture, they can be ported to other architectures (Intel and
//! non-Intel) by leveraging GEOPM's portable plugin infrastructure." The
//! stack here is machine-generic in the same way: every layer consumes a
//! [`MachineSpec`], so porting is a matter of describing the part. This module provides a second, Skylake-SP-class
//! description used by the portability tests — wider vectors, more cores,
//! higher TDP, different variation envelope.

use crate::power::MachineSpec;
use crate::units::{Hertz, Watts};

/// A Skylake-SP-class dual-socket node (Xeon Gold 6148-like): 40 cores,
/// 150 W sockets, higher bandwidth, lower base clock.
pub fn skylake_sp_spec() -> MachineSpec {
    MachineSpec {
        name: "Intel Xeon Gold 6148 (Skylake-SP node)".to_string(),
        sockets_per_node: 2,
        cores_per_socket: 20,
        cores_used_per_node: 38,
        f_min: Hertz::from_ghz(1.0),
        f_base: Hertz::from_ghz(2.4),
        f_turbo: Hertz::from_ghz(2.8),
        f_step: Hertz(100e6),
        tdp_per_socket: Watts(150.0),
        min_rapl_per_socket: Watts(75.0),
        alpha: 2.4,
        uncore_per_socket: Watts(20.0),
        leak_per_core: Watts(1.0),
        dram_bw_bytes_per_s: 200e9,
        poll_freq_floor: Hertz::from_ghz(2.5),
    }
}

/// A dense single-socket throughput node (Xeon D-2183IT-like): 16 cores,
/// 105 W, low clocks — the "efficiency" class of a mixed fleet.
pub fn stout_spec() -> MachineSpec {
    MachineSpec {
        name: "Intel Xeon D-2183IT (Stout node)".to_string(),
        sockets_per_node: 1,
        cores_per_socket: 16,
        cores_used_per_node: 15,
        f_min: Hertz::from_ghz(1.0),
        f_base: Hertz::from_ghz(2.0),
        f_turbo: Hertz::from_ghz(2.4),
        f_step: Hertz(100e6),
        tdp_per_socket: Watts(105.0),
        min_rapl_per_socket: Watts(52.0),
        alpha: 2.2,
        uncore_per_socket: Watts(12.0),
        leak_per_core: Watts(0.8),
        dram_bw_bytes_per_s: 90e9,
        poll_freq_floor: Hertz::from_ghz(2.2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stout_spec_is_valid() {
        stout_spec().validate().unwrap();
        let s = stout_spec();
        assert_eq!(s.tdp_per_node(), Watts(105.0));
        assert_eq!(s.min_rapl_per_node(), Watts(52.0));
        assert!(s.pstates().len() > 10);
    }

    #[test]
    fn skylake_spec_is_valid() {
        skylake_sp_spec().validate().unwrap();
        let s = skylake_sp_spec();
        assert_eq!(s.tdp_per_node(), Watts(300.0));
        assert_eq!(s.min_rapl_per_node(), Watts(150.0));
        assert!(s.pstates().len() > 10);
    }

    #[test]
    fn specs_are_actually_different_parts() {
        let quartz = crate::quartz::quartz_spec();
        let skl = skylake_sp_spec();
        assert_ne!(quartz.tdp_per_socket, skl.tdp_per_socket);
        assert_ne!(quartz.cores_per_socket, skl.cores_per_socket);
        assert_ne!(quartz.f_base, skl.f_base);
    }
}
