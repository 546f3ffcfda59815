//! Simulated model-specific registers with an `msr-safe` style allowlist.
//!
//! The paper's testbed exposes power knobs through the msr-safe Linux kernel
//! module, which mediates userspace MSR access with per-register read/write
//! masks. This module reproduces that contract: every access is checked
//! against an allowlist, and writes may only touch writable bits.

use crate::error::{Result, SimHwError};

/// Intel MSR addresses used by the stack (subset relevant to RAPL/p-states).
pub mod address {
    /// `MSR_RAPL_POWER_UNIT`: units for power/energy/time fields.
    pub const RAPL_POWER_UNIT: u32 = 0x606;
    /// `MSR_PKG_POWER_LIMIT`: package power limit control (PL1/PL2).
    pub const PKG_POWER_LIMIT: u32 = 0x610;
    /// `MSR_PKG_ENERGY_STATUS`: 32-bit package energy counter.
    pub const PKG_ENERGY_STATUS: u32 = 0x611;
    /// `MSR_PKG_POWER_INFO`: TDP and min/max settable power.
    pub const PKG_POWER_INFO: u32 = 0x614;
    /// `MSR_PP0_POWER_LIMIT`: power-plane-0 (cores) limit control.
    pub const PP0_POWER_LIMIT: u32 = 0x638;
    /// `MSR_PP0_ENERGY_STATUS`: 32-bit core-plane energy counter.
    pub const PP0_ENERGY_STATUS: u32 = 0x639;
    /// `MSR_DRAM_POWER_LIMIT`: DRAM-domain limit control.
    pub const DRAM_POWER_LIMIT: u32 = 0x618;
    /// `MSR_DRAM_ENERGY_STATUS`: 32-bit DRAM-domain energy counter.
    pub const DRAM_ENERGY_STATUS: u32 = 0x619;
    /// `IA32_PERF_STATUS`: current p-state readback.
    pub const PERF_STATUS: u32 = 0x198;
    /// `IA32_PERF_CTL`: requested p-state.
    pub const PERF_CTL: u32 = 0x199;
}

/// One allowlist entry: which bits may be read and which may be written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsrPermission {
    /// Bits readable through the device.
    pub read_mask: u64,
    /// Bits writable through the device.
    pub write_mask: u64,
}

impl MsrPermission {
    /// Fully readable, not writable.
    pub const READ_ONLY: Self = Self {
        read_mask: u64::MAX,
        write_mask: 0,
    };

    /// Fully readable and writable.
    pub const READ_WRITE: Self = Self {
        read_mask: u64::MAX,
        write_mask: u64::MAX,
    };
}

/// The default RAPL/p-state allowlist used on the paper's testbed, in slot
/// order: the registers the control and stepping paths touch come first, so
/// the linear scan finds them in a compare or two.
const DEFAULT_ALLOWLIST: [(u32, MsrPermission); 10] = [
    (address::RAPL_POWER_UNIT, MsrPermission::READ_ONLY),
    (
        address::PKG_POWER_LIMIT,
        MsrPermission {
            read_mask: u64::MAX,
            // PL1+PL2 fields, enable/clamp bits and time windows are
            // writable; the lock bit (63) is not.
            write_mask: 0x00FF_FFFF_00FF_FFFF,
        },
    ),
    (address::PKG_ENERGY_STATUS, MsrPermission::READ_ONLY),
    (address::PKG_POWER_INFO, MsrPermission::READ_ONLY),
    // Sub-domain planes carry a single 24-bit limit field each (limit,
    // enable, clamp, window); the lock bit (31) is not writable.
    (
        address::PP0_POWER_LIMIT,
        MsrPermission {
            read_mask: u64::MAX,
            write_mask: 0x00FF_FFFF,
        },
    ),
    (address::PP0_ENERGY_STATUS, MsrPermission::READ_ONLY),
    (
        address::DRAM_POWER_LIMIT,
        MsrPermission {
            read_mask: u64::MAX,
            write_mask: 0x00FF_FFFF,
        },
    ),
    (address::DRAM_ENERGY_STATUS, MsrPermission::READ_ONLY),
    (address::PERF_STATUS, MsrPermission::READ_ONLY),
    (address::PERF_CTL, MsrPermission::READ_WRITE),
];

/// One register of the file: its raw value plus its allowlist entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u32,
    /// False for a register only the hardware backdoor has stored to: it
    /// holds a value but stays invisible through the allowlist (`perm` is
    /// then all-zero and unused).
    allowed: bool,
    value: u64,
    perm: MsrPermission,
}

impl Slot {
    fn write_mask(&self) -> u64 {
        if self.allowed {
            self.perm.write_mask
        } else {
            0
        }
    }
}

/// The msr-safe write rule: a register with no writable bits denies the
/// write outright, and a write may not *change* bits outside the write mask
/// (rewriting the current value of a read-only bit is tolerated — this is
/// how real tooling writes back read-modify-write patterns). A `write_mask`
/// of zero also stands for "not allowlisted". Shared by [`MsrDevice::write`]
/// and the columnar bank, which validates against its own raw-register
/// column instead of the device.
pub(crate) fn check_write(addr: u32, write_mask: u64, current: u64, value: u64) -> Result<()> {
    if write_mask == 0 {
        return Err(SimHwError::MsrNotAllowed {
            address: addr,
            write: true,
        });
    }
    let offending = (current ^ value) & !write_mask;
    if offending != 0 {
        return Err(SimHwError::MsrReadOnlyBits {
            address: addr,
            offending,
        });
    }
    Ok(())
}

/// A simulated per-package MSR device.
///
/// Registers hold raw `u64` values; semantics (encodings, counters) live in
/// [`crate::rapl`]. The register file is a dense slot table found by linear
/// scan: a package has about ten registers, so a scan beats hashing the
/// address, and a fleet of 200 000 packages pays one small allocation each.
#[derive(Debug, Clone)]
pub struct MsrDevice {
    slots: Vec<Slot>,
}

impl MsrDevice {
    /// An empty device with no allowlisted registers.
    pub fn new() -> Self {
        Self { slots: Vec::new() }
    }

    /// A device with the default RAPL/p-state allowlist used on the
    /// paper's testbed.
    pub fn with_default_allowlist() -> Self {
        Self {
            slots: DEFAULT_ALLOWLIST
                .iter()
                .map(|&(addr, perm)| Slot {
                    addr,
                    allowed: true,
                    value: 0,
                    perm,
                })
                .collect(),
        }
    }

    fn slot(&self, addr: u32) -> Option<&Slot> {
        self.slots.iter().find(|s| s.addr == addr)
    }

    /// The slot for `addr`, appended (un-allowlisted, zero) when absent.
    fn slot_mut(&mut self, addr: u32) -> &mut Slot {
        let i = match self.slots.iter().position(|s| s.addr == addr) {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    addr,
                    allowed: false,
                    value: 0,
                    perm: MsrPermission {
                        read_mask: 0,
                        write_mask: 0,
                    },
                });
                self.slots.len() - 1
            }
        };
        &mut self.slots[i]
    }

    /// Add (or replace) an allowlist entry.
    pub fn allow(&mut self, addr: u32, perm: MsrPermission) {
        let slot = self.slot_mut(addr);
        slot.allowed = true;
        slot.perm = perm;
    }

    /// Read an MSR through the allowlist. Unknown or unreadable registers
    /// fault, as with msr-safe.
    pub fn read(&self, addr: u32) -> Result<u64> {
        match self.slot(addr) {
            Some(slot) if slot.allowed => Ok(slot.value & slot.perm.read_mask),
            _ => Err(SimHwError::MsrNotAllowed {
                address: addr,
                write: false,
            }),
        }
    }

    /// Write an MSR through the allowlist, enforcing the write mask.
    ///
    /// A write is rejected outright if it would *change* read-only bits;
    /// writing the current value of a read-only bit is permitted (this is
    /// how real tooling writes back read-modify-write patterns).
    pub fn write(&mut self, addr: u32, value: u64) -> Result<()> {
        match self.slots.iter_mut().find(|s| s.addr == addr) {
            Some(slot) => {
                check_write(addr, slot.write_mask(), slot.value, value)?;
                slot.value = value;
                Ok(())
            }
            // Not in the file at all, so not allowlisted either.
            None => check_write(addr, 0, 0, value),
        }
    }

    /// The bits of `addr` writable through the allowlist; zero when the
    /// register is not allowlisted.
    pub(crate) fn write_mask(&self, addr: u32) -> u64 {
        self.slot(addr).map_or(0, Slot::write_mask)
    }

    /// Backdoor write used by the *hardware model itself* (e.g. energy
    /// counter updates). Not subject to the allowlist, like silicon updating
    /// its own registers.
    pub(crate) fn hw_store(&mut self, addr: u32, value: u64) {
        self.slot_mut(addr).value = value;
    }

    /// Backdoor read for the hardware model.
    pub(crate) fn hw_load(&self, addr: u32) -> u64 {
        self.slot(addr).map_or(0, |s| s.value)
    }
}

impl Default for MsrDevice {
    fn default() -> Self {
        Self::with_default_allowlist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_register_faults() {
        let dev = MsrDevice::with_default_allowlist();
        let err = dev.read(0xDEAD).unwrap_err();
        assert!(matches!(
            err,
            SimHwError::MsrNotAllowed {
                address: 0xDEAD,
                write: false
            }
        ));
    }

    #[test]
    fn read_only_register_rejects_writes() {
        let mut dev = MsrDevice::with_default_allowlist();
        let err = dev.write(address::PKG_ENERGY_STATUS, 1).unwrap_err();
        assert!(matches!(err, SimHwError::MsrNotAllowed { write: true, .. }));
    }

    #[test]
    fn lock_bit_is_not_writable() {
        let mut dev = MsrDevice::with_default_allowlist();
        // Setting the lock bit (63) must be rejected.
        let err = dev.write(address::PKG_POWER_LIMIT, 1 << 63).unwrap_err();
        assert!(matches!(err, SimHwError::MsrReadOnlyBits { .. }));
        // Writing only PL fields is fine.
        dev.write(address::PKG_POWER_LIMIT, 0x0001_83D0).unwrap();
        assert_eq!(dev.read(address::PKG_POWER_LIMIT).unwrap(), 0x0001_83D0);
    }

    #[test]
    fn rewriting_existing_read_only_bits_is_tolerated() {
        let mut dev = MsrDevice::with_default_allowlist();
        dev.hw_store(address::PKG_POWER_LIMIT, 1 << 63);
        // Read-modify-write that preserves the lock bit must succeed.
        let v = dev.hw_load(address::PKG_POWER_LIMIT) | 0x50;
        dev.write(address::PKG_POWER_LIMIT, v).unwrap();
        assert_eq!(
            dev.read(address::PKG_POWER_LIMIT).unwrap(),
            (1 << 63) | 0x50
        );
    }

    #[test]
    fn hw_backdoor_bypasses_allowlist() {
        let mut dev = MsrDevice::with_default_allowlist();
        dev.hw_store(address::PKG_ENERGY_STATUS, 42);
        assert_eq!(dev.read(address::PKG_ENERGY_STATUS).unwrap(), 42);
    }

    #[test]
    fn custom_allow_on_a_new_address() {
        let mut dev = MsrDevice::with_default_allowlist();
        assert!(dev.write(0x1A0, 7).is_err());
        dev.allow(0x1A0, MsrPermission::READ_WRITE);
        assert_eq!(dev.read(0x1A0).unwrap(), 0);
        dev.write(0x1A0, 7).unwrap();
        assert_eq!(dev.read(0x1A0).unwrap(), 7);
    }

    #[test]
    fn allow_replaces_a_permission_and_keeps_the_value() {
        let mut dev = MsrDevice::with_default_allowlist();
        dev.write(address::PERF_CTL, 0x1200).unwrap();
        dev.allow(
            address::PERF_CTL,
            MsrPermission {
                read_mask: 0xFF00,
                write_mask: 0,
            },
        );
        assert_eq!(dev.read(address::PERF_CTL).unwrap(), 0x1200);
        assert!(matches!(
            dev.write(address::PERF_CTL, 0x1300),
            Err(SimHwError::MsrNotAllowed { write: true, .. })
        ));
        dev.allow(address::PERF_CTL, MsrPermission::READ_WRITE);
        dev.write(address::PERF_CTL, 0x1300).unwrap();
        assert_eq!(dev.read(address::PERF_CTL).unwrap(), 0x1300);
    }

    #[test]
    fn backdoor_store_to_an_unallowlisted_address_stays_hidden() {
        let mut dev = MsrDevice::with_default_allowlist();
        dev.hw_store(0xC001, 99);
        assert_eq!(dev.hw_load(0xC001), 99);
        assert!(matches!(
            dev.read(0xC001),
            Err(SimHwError::MsrNotAllowed {
                address: 0xC001,
                write: false
            })
        ));
        assert!(matches!(
            dev.write(0xC001, 1),
            Err(SimHwError::MsrNotAllowed {
                address: 0xC001,
                write: true
            })
        ));
        assert_eq!(dev.hw_load(0xC001), 99);
    }

    #[test]
    fn unallowlisted_device_is_fully_opaque() {
        let dev = MsrDevice::new();
        assert!(dev.read(address::RAPL_POWER_UNIT).is_err());
    }
}
