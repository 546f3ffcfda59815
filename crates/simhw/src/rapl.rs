//! RAPL (Running Average Power Limit) package-domain semantics.
//!
//! Implements the pieces of Intel's RAPL interface that the power-management
//! stack depends on, layered over the [`crate::msr`] device:
//!
//! * the `MSR_RAPL_POWER_UNIT` register and its fixed-point unit fields,
//! * `MSR_PKG_POWER_LIMIT` PL1 encode/decode with enable and clamp bits,
//! * `MSR_PKG_ENERGY_STATUS`, a 32-bit counter in energy units that wraps,
//! * `MSR_PKG_POWER_INFO` describing TDP and the settable range,
//! * a first-order *running average* enforcement filter: when software moves
//!   the limit, the effectively enforced cap settles toward the target with
//!   the PL1 time-window constant, which is what makes rapid cap changes
//!   behave gently on real parts.

use crate::error::{Result, SimHwError};
use crate::msr::{address, MsrDevice};
use crate::units::{Joules, Seconds, Watts};
use pmstack_obs::{EventKind, StaticCounter};

/// Observability: limit writes where the applied per-socket value differed
/// from the request (range clamp or stuck-RAPL latch).
static RAPL_CLAMPED: StaticCounter = StaticCounter::new("simhw.rapl.clamped");
/// Observability: sub-domain energy/enforcement updates (one per advance of
/// a package with sub-domains enabled; the classed bank's meter columns
/// count through the same counter).
pub(crate) static DOMAIN_ADVANCED: StaticCounter = StaticCounter::new("simhw.domain.advanced");
/// Observability: sub-domain limit programmings.
static DOMAIN_LIMIT_WRITES: StaticCounter = StaticCounter::new("simhw.domain.limit_writes");
/// Observability: sub-domain limit requests clamped into the settable range.
static DOMAIN_CLAMPED: StaticCounter = StaticCounter::new("simhw.domain.clamped");
/// Observability: sub-domain limit writes silently latched by a stuck-RAPL
/// fault in that domain.
static DOMAIN_STUCK_LATCHED: StaticCounter = StaticCounter::new("simhw.domain.stuck_latched");

/// Default `MSR_RAPL_POWER_UNIT` value on the Broadwell-EP parts of the
/// testbed: power unit = 2^-3 W (0.125 W), energy unit = 2^-14 J (61 µJ),
/// time unit = 2^-10 s (976 µs).
pub const DEFAULT_UNIT_REGISTER: u64 = 0x000A_0E03;

/// Decoded fixed-point units from `MSR_RAPL_POWER_UNIT`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaplUnits {
    /// Watts per power-field LSB.
    pub power_w: f64,
    /// Joules per energy-counter LSB.
    pub energy_j: f64,
    /// Seconds per time-field LSB.
    pub time_s: f64,
}

impl RaplUnits {
    /// Decode the unit register.
    pub fn decode(raw: u64) -> Self {
        let pw = (raw & 0xF) as u32;
        let en = ((raw >> 8) & 0x1F) as u32;
        let tm = ((raw >> 16) & 0xF) as u32;
        Self {
            power_w: 1.0 / f64::from(1u32 << pw),
            energy_j: 1.0 / (1u64 << en) as f64,
            time_s: 1.0 / f64::from(1u32 << tm),
        }
    }
}

/// Decoded PL1 fields of `MSR_PKG_POWER_LIMIT`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLimit {
    /// The PL1 limit.
    pub limit: Watts,
    /// Whether the limit is enabled.
    pub enabled: bool,
    /// Whether clamping (running below requested p-states) is allowed.
    pub clamp: bool,
    /// The PL1 averaging time window.
    pub time_window: Seconds,
}

/// Encode the PL1 fields into the raw register layout
/// (bits 14:0 limit, 15 enable, 16 clamp, 23:17 time window as `(1+F/4)·2^E`).
pub fn encode_power_limit(pl: &PowerLimit, units: &RaplUnits) -> u64 {
    let raw_limit = ((pl.limit.value() / units.power_w).round() as u64) & 0x7FFF;
    let mut raw = raw_limit;
    if pl.enabled {
        raw |= 1 << 15;
    }
    if pl.clamp {
        raw |= 1 << 16;
    }
    let (e, f) = encode_time_window(pl.time_window.value() / units.time_s);
    raw |= (u64::from(e) & 0x1F) << 17;
    raw |= (u64::from(f) & 0x3) << 22;
    raw
}

/// Decode PL1 fields from the raw register layout.
pub fn decode_power_limit(raw: u64, units: &RaplUnits) -> PowerLimit {
    let limit = Watts((raw & 0x7FFF) as f64 * units.power_w);
    let enabled = raw & (1 << 15) != 0;
    let clamp = raw & (1 << 16) != 0;
    let e = ((raw >> 17) & 0x1F) as u32;
    let f = ((raw >> 22) & 0x3) as u32;
    let window_units = (1.0 + f64::from(f) / 4.0) * (1u64 << e) as f64;
    PowerLimit {
        limit,
        enabled,
        clamp,
        time_window: Seconds(window_units * units.time_s),
    }
}

/// Encode a time window (in time units) as `(E, F)` with value
/// `(1 + F/4) * 2^E`, picking the closest representable value (the lower
/// one on a tie; `(0, 0)` for anything that is not a finite window above
/// one unit).
///
/// Closed form of a search over all 128 `(E, F)` pairs: the binary exponent
/// of `units` names `E`, and the mantissa is rounded to the nearest quarter,
/// which may carry into `(E + 1, 0)`. Every step is exact in `f64`
/// (power-of-two scaling, differences of values within a factor of two), so
/// the result equals the search's wherever the search's own arithmetic was
/// exact — every input below 2^82 time units, pinned by
/// `time_window_closed_form_matches_the_search`. Past that the search's
/// error terms all rounded to the same value and it fell back on the
/// *shortest* window; this saturates at the longest.
fn encode_time_window(units: f64) -> (u32, u32) {
    const LARGEST: f64 = 1.75 * (1u64 << 31) as f64;
    if !(units > 1.0 && units.is_finite()) {
        return (0, 0);
    }
    if units >= LARGEST {
        return (31, 3);
    }
    // 1 < units < 2^32, so the biased exponent field is 1023..=1054.
    let e = ((units.to_bits() >> 52) & 0x7FF) as u32 - 1023;
    let quarters = (units / (1u64 << e) as f64 - 1.0) * 4.0;
    let f = quarters as u32;
    let f = if quarters - f64::from(f) > 0.5 {
        f + 1
    } else {
        f
    };
    if f == 4 {
        (e + 1, 0)
    } else {
        (e, f)
    }
}

/// The node-level state a package-limit request is resolved against: what
/// [`crate::node::Node`] holds in fields and the columnar
/// [`crate::bank::NodeBank`] holds in columns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pl1Gate {
    /// The node is fail-stop dead.
    pub dead: bool,
    /// A stuck-RAPL fault pinned the node-level limit.
    pub stuck: Option<Watts>,
    /// Packages the node-level limit is split across.
    pub sockets: usize,
    /// Per-package settable range.
    pub min: Watts,
    /// Per-package settable range.
    pub max: Watts,
    /// The packages' RAPL units.
    pub units: RaplUnits,
}

/// What a package-limit request programs into every package of the node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pl1Write {
    /// The `MSR_PKG_POWER_LIMIT` value to write (still subject to the
    /// register's write mask, see [`crate::msr::check_write`]).
    pub raw: u64,
    /// `raw` decoded: the limit, in RAPL units, the package then reports and
    /// enforces.
    pub limit: PowerLimit,
}

/// Decide what a node-level power-limit request programs — the one place
/// the control path's fault semantics live, shared by
/// [`crate::node::Node::set_power_limit`] and
/// [`crate::bank::NodeBank::set_power_limit`]:
///
/// * a dead node fails with [`SimHwError::NodeFailed`];
/// * a pending transient MSR fault is consumed (`glitch` is cleared — the
///   function's only effect on simulation state) and surfaces as a one-shot
///   `msr-safe` denial;
/// * a stuck-RAPL node silently latches its pinned value;
/// * the per-socket share is clamped into the settable range, recorded as a
///   `RaplClamp` event whenever the applied value differs from the request;
/// * the result is quantised to RAPL units by an encode → decode round trip.
///
/// `node` names the node for errors and events; it is only called on those
/// paths, so the bank does not touch its cold `Node` to learn an id.
pub(crate) fn resolve_pl1_request(
    gate: &Pl1Gate,
    glitch: &mut bool,
    node: impl Fn() -> usize,
    requested: Watts,
) -> Result<Pl1Write> {
    if gate.dead {
        return Err(SimHwError::NodeFailed(node()));
    }
    if std::mem::take(glitch) {
        return Err(SimHwError::MsrNotAllowed {
            address: address::PKG_POWER_LIMIT,
            write: true,
        });
    }
    let share = gate.stuck.unwrap_or(requested) / gate.sockets as f64;
    let per_socket = share.clamp(gate.min, gate.max);
    if pmstack_obs::enabled() && (gate.stuck.is_some() || per_socket != share) {
        RAPL_CLAMPED.inc();
        pmstack_obs::event(
            f64::NAN,
            EventKind::RaplClamp {
                node: node() as u64,
                requested_w: requested.0,
                applied_w: (per_socket * gate.sockets as f64).0,
            },
        );
    }
    let raw = encode_power_limit(
        &PowerLimit {
            limit: per_socket,
            enabled: true,
            clamp: true,
            time_window: Seconds(1.0),
        },
        &gate.units,
    );
    Ok(Pl1Write {
        raw,
        limit: decode_power_limit(raw, &gate.units),
    })
}

/// The per-step enforcement inputs `(target, tau)` of a decoded PL1: the
/// programmed limit when enabled (else the package maximum), and the time
/// window floored at 1 ms.
pub(crate) fn enforcement_params_of(pl: &PowerLimit, max_limit: Watts) -> (Watts, f64) {
    let target = if pl.enabled { pl.limit } else { max_limit };
    (target, pl.time_window.value().max(1e-3))
}

/// The 32-bit energy-status counter value of an exact energy.
fn energy_status(energy: Joules, units: &RaplUnits) -> u64 {
    (energy.value() / units.energy_j) as u64 & 0xFFFF_FFFF
}

/// One sub-plane's state beside its part: the limit register, the
/// stuck-fault latch and the meter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlaneState {
    /// The raw plane limit register.
    pub raw: u64,
    /// A stuck-RAPL fault's pinned limit.
    pub stuck: Option<Watts>,
    /// Exact accumulated plane energy.
    pub energy: Joules,
    /// The limit the plane's enforcement filter holds.
    pub enforced: Watts,
}

/// Everything that distinguishes a package from another of its part: what
/// the columnar bank keeps in per-(host, socket) columns
/// ([`RaplPackage::state`] reads it, [`RaplPackage::set_state`] loads it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PackageState {
    /// Exact accumulated package energy.
    pub energy: Joules,
    /// The limit the enforcement filter holds.
    pub enforced: Watts,
    /// The raw `MSR_PKG_POWER_LIMIT` value.
    pub pl1_raw: u64,
    /// PP0 then DRAM, for a part with sub-planes.
    pub planes: Option<[PlaneState; 2]>,
}

/// The RAPL domains modeled by the simulator: the package plane and the
/// optional PP0 (core) and DRAM sub-planes, addressed scaphandre-style
/// through their own limit and energy-status MSRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaplDomain {
    /// The whole package (`0x610`/`0x611`).
    Pkg,
    /// Power plane 0, the cores (`0x638`/`0x639`).
    Pp0,
    /// The DRAM plane (`0x618`/`0x619`).
    Dram,
}

impl RaplDomain {
    /// All three domains, package first.
    pub const ALL: [Self; 3] = [Self::Pkg, Self::Pp0, Self::Dram];

    /// Stable lowercase name (metrics labels, wire formats).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Pkg => "pkg",
            Self::Pp0 => "pp0",
            Self::Dram => "dram",
        }
    }

    /// Index into per-domain arrays (`Pkg` = 0).
    pub fn index(&self) -> usize {
        match self {
            Self::Pkg => 0,
            Self::Pp0 => 1,
            Self::Dram => 2,
        }
    }
}

impl std::fmt::Display for RaplDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Static split describing how a package's draw maps onto its sub-planes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainConfig {
    /// Fraction of package power drawn by the core plane (PP0), in `(0, 1]`.
    pub pp0_fraction: f64,
    /// DRAM-plane power per package while the package draws any power.
    pub dram_power: Watts,
}

impl DomainConfig {
    fn validate(&self) -> Result<()> {
        if !(self.pp0_fraction > 0.0 && self.pp0_fraction <= 1.0) {
            return Err(SimHwError::InvalidParameter(format!(
                "pp0_fraction {} outside (0, 1]",
                self.pp0_fraction
            )));
        }
        if !self.dram_power.is_valid() || self.dram_power.value() <= 0.0 {
            return Err(SimHwError::InvalidParameter(
                "dram_power must be finite and positive".into(),
            ));
        }
        Ok(())
    }
}

/// State of one sub-plane (PP0 or DRAM): its own exact energy, enforcement
/// filter, settable range, and stuck-fault latch. Registers live in the
/// owning package's MSR device.
#[derive(Debug, Clone)]
struct SubDomain {
    energy_exact: Joules,
    enforced: Watts,
    min_limit: Watts,
    max_limit: Watts,
    /// A stuck-RAPL fault pinned this plane's limit; writes silently latch.
    stuck: Option<Watts>,
    limit_msr: u32,
    energy_msr: u32,
}

impl SubDomain {
    fn new(min_limit: Watts, max_limit: Watts, limit_msr: u32, energy_msr: u32) -> Self {
        Self {
            energy_exact: Joules::ZERO,
            enforced: max_limit,
            min_limit,
            max_limit,
            stuck: None,
            limit_msr,
            energy_msr,
        }
    }
}

/// One RAPL package domain (one CPU socket) with its MSR device, energy
/// accounting, and limit-enforcement filter.
#[derive(Debug, Clone)]
pub struct RaplPackage {
    msrs: MsrDevice,
    units: RaplUnits,
    /// Exact accumulated energy (the 32-bit counter is derived from this).
    energy_exact: Joules,
    /// The limit the enforcement loop is currently holding (settles toward
    /// the programmed PL1 with the time-window constant).
    enforced: Watts,
    /// Settable range, from `MSR_PKG_POWER_INFO`.
    min_limit: Watts,
    max_limit: Watts,
    tdp: Watts,
    /// Optional sub-plane split; `None` keeps the package PKG-only with the
    /// exact pre-domain semantics.
    domains: Option<DomainConfig>,
    pp0: Option<SubDomain>,
    dram: Option<SubDomain>,
}

impl RaplPackage {
    /// A package with the given TDP and settable limit range. The limit is
    /// initialized to TDP (the power-on default), enabled, with a 1 s PL1
    /// window.
    pub fn new(tdp: Watts, min_limit: Watts, max_limit: Watts) -> Result<Self> {
        if !(tdp.is_valid() && min_limit.is_valid() && max_limit.is_valid()) {
            return Err(SimHwError::InvalidParameter(
                "RAPL package powers must be finite and non-negative".into(),
            ));
        }
        if min_limit > max_limit {
            return Err(SimHwError::InvalidParameter(format!(
                "min limit {min_limit} exceeds max limit {max_limit}"
            )));
        }
        let mut msrs = MsrDevice::with_default_allowlist();
        msrs.hw_store(address::RAPL_POWER_UNIT, DEFAULT_UNIT_REGISTER);
        let units = RaplUnits::decode(DEFAULT_UNIT_REGISTER);

        // MSR_PKG_POWER_INFO: TDP bits 14:0, min 30:16, max 46:32.
        let tdp_u = (tdp.value() / units.power_w).round() as u64 & 0x7FFF;
        let min_u = (min_limit.value() / units.power_w).round() as u64 & 0x7FFF;
        let max_u = (max_limit.value() / units.power_w).round() as u64 & 0x7FFF;
        msrs.hw_store(
            address::PKG_POWER_INFO,
            tdp_u | (min_u << 16) | (max_u << 32),
        );

        let mut pkg = Self {
            msrs,
            units,
            energy_exact: Joules::ZERO,
            enforced: tdp,
            min_limit,
            max_limit,
            tdp,
            domains: None,
            pp0: None,
            dram: None,
        };
        pkg.set_limit(PowerLimit {
            limit: tdp,
            enabled: true,
            clamp: true,
            time_window: Seconds(1.0),
        })?;
        Ok(pkg)
    }

    /// The decoded RAPL units.
    pub fn units(&self) -> RaplUnits {
        self.units
    }

    /// The package TDP.
    pub fn tdp(&self) -> Watts {
        self.tdp
    }

    /// Minimum settable power limit.
    pub fn min_limit(&self) -> Watts {
        self.min_limit
    }

    /// Maximum settable power limit.
    pub fn max_limit(&self) -> Watts {
        self.max_limit
    }

    /// Program PL1. Limits outside the part's settable range are rejected,
    /// matching hardware which silently clamps — we make it an error so the
    /// software stack above must do its own clamping deliberately.
    pub fn set_limit(&mut self, pl: PowerLimit) -> Result<()> {
        if pl.limit < self.min_limit || pl.limit > self.max_limit {
            return Err(SimHwError::PowerLimitOutOfRange {
                requested_w: pl.limit.value(),
                min_w: self.min_limit.value(),
                max_w: self.max_limit.value(),
            });
        }
        let raw = encode_power_limit(&pl, &self.units);
        self.msrs.write(address::PKG_POWER_LIMIT, raw)
    }

    /// The currently programmed PL1 fields.
    pub fn limit(&self) -> PowerLimit {
        decode_power_limit(self.msrs.hw_load(address::PKG_POWER_LIMIT), &self.units)
    }

    /// The limit the enforcement loop currently holds. This settles toward
    /// the programmed PL1 with the PL1 time-window constant whenever
    /// [`Self::advance`] is called.
    pub fn enforced_limit(&self) -> Watts {
        if self.limit().enabled {
            self.enforced
        } else {
            self.max_limit
        }
    }

    /// Advance hardware state by `dt` while the package draws `power`:
    /// accumulates the energy counter (with 32-bit wraparound) and settles
    /// the enforcement filter toward the programmed limit.
    pub fn advance(&mut self, dt: Seconds, power: Watts) {
        debug_assert!(dt.is_valid() && power.is_valid());
        self.energy_exact += power * dt;
        self.msrs.hw_store(
            address::PKG_ENERGY_STATUS,
            energy_status(self.energy_exact, &self.units),
        );

        let (target, tau) = self.enforcement_params();
        let alpha = 1.0 - (-dt.value() / tau).exp();
        self.enforced += (target - self.enforced) * alpha;

        if self.domains.is_some() {
            self.advance_sub_domains(dt, power);
        }
    }

    /// Advance the PP0/DRAM planes alongside the package: independent energy
    /// counters (same 32-bit wrap semantics), independent enforcement
    /// filters. Runs only when sub-domains are enabled, so PKG-only packages
    /// execute exactly the pre-domain arithmetic.
    fn advance_sub_domains(&mut self, dt: Seconds, power: Watts) {
        let cfg = self.domains.expect("checked by caller");
        DOMAIN_ADVANCED.inc();
        let pkg_target = {
            let (target, _) = self.enforcement_params();
            target
        };
        let units = self.units;

        if let Some(pp0) = self.pp0.as_mut() {
            let draw = power * cfg.pp0_fraction;
            pp0.energy_exact += draw * dt;
            let counts = energy_status(pp0.energy_exact, &units);
            let msr = pp0.energy_msr;
            let pl = decode_power_limit(self.msrs.hw_load(pp0.limit_msr), &units);
            // Clamp ordering: the plane's own limit applies first, then the
            // package share caps it — equivalently the min of the two.
            let own = if pl.enabled { pl.limit } else { pp0.max_limit };
            let target = own.min(pkg_target * cfg.pp0_fraction);
            let tau = pl.time_window.value().max(1e-3);
            let alpha = 1.0 - (-dt.value() / tau).exp();
            pp0.enforced += (target - pp0.enforced) * alpha;
            self.msrs.hw_store(msr, counts);
        }
        if let Some(dram) = self.dram.as_mut() {
            // The DRAM plane sits outside the package's power envelope: it
            // draws its configured power whenever the package is live.
            let draw = if power.value() > 0.0 {
                cfg.dram_power
            } else {
                Watts::ZERO
            };
            dram.energy_exact += draw * dt;
            let counts = energy_status(dram.energy_exact, &units);
            let msr = dram.energy_msr;
            let pl = decode_power_limit(self.msrs.hw_load(dram.limit_msr), &units);
            let target = if pl.enabled { pl.limit } else { dram.max_limit };
            let tau = pl.time_window.value().max(1e-3);
            let alpha = 1.0 - (-dt.value() / tau).exp();
            dram.enforced += (target - dram.enforced) * alpha;
            self.msrs.hw_store(msr, counts);
        }
    }

    /// Enable the PP0/DRAM sub-planes with the given split. The PP0 settable
    /// range is the package range scaled by the core-plane fraction; the
    /// DRAM range is `[0, 2·dram_power]`. Each plane's limit register is
    /// initialized to its maximum, enabled, with a 1 s window.
    pub fn enable_domains(&mut self, cfg: DomainConfig) -> Result<()> {
        cfg.validate()?;
        let pp0 = SubDomain::new(
            self.min_limit * cfg.pp0_fraction,
            self.max_limit * cfg.pp0_fraction,
            address::PP0_POWER_LIMIT,
            address::PP0_ENERGY_STATUS,
        );
        let dram = SubDomain::new(
            Watts::ZERO,
            cfg.dram_power * 2.0,
            address::DRAM_POWER_LIMIT,
            address::DRAM_ENERGY_STATUS,
        );
        for d in [&pp0, &dram] {
            let pl = PowerLimit {
                limit: d.max_limit,
                enabled: true,
                clamp: true,
                time_window: Seconds(1.0),
            };
            let raw = encode_power_limit(&pl, &self.units);
            self.msrs.write(d.limit_msr, raw)?;
        }
        self.domains = Some(cfg);
        self.pp0 = Some(pp0);
        self.dram = Some(dram);
        Ok(())
    }

    /// Whether PP0/DRAM sub-planes are enabled.
    pub fn has_domains(&self) -> bool {
        self.domains.is_some()
    }

    fn sub_domain(&self, d: RaplDomain) -> Result<&SubDomain> {
        let sub = match d {
            RaplDomain::Pkg => None,
            RaplDomain::Pp0 => self.pp0.as_ref(),
            RaplDomain::Dram => self.dram.as_ref(),
        };
        sub.ok_or_else(|| {
            SimHwError::InvalidParameter(format!("domain {} not enabled on this package", d))
        })
    }

    /// Program a sub-plane limit. Unlike the package's [`Self::set_limit`],
    /// requests are *clamped* into the plane's settable range (hardware
    /// semantics for the secondary planes) — clamp to the range first, then
    /// a stuck-RAPL fault latch wins. Returns the watts actually programmed.
    /// `RaplDomain::Pkg` is rejected; the package plane keeps its explicit
    /// reject-out-of-range contract.
    pub fn set_domain_limit(&mut self, d: RaplDomain, limit: Watts) -> Result<Watts> {
        if d == RaplDomain::Pkg {
            return Err(SimHwError::InvalidParameter(
                "package limits go through set_limit".into(),
            ));
        }
        let sub = self.sub_domain(d)?;
        let (min, max, stuck, msr) = (sub.min_limit, sub.max_limit, sub.stuck, sub.limit_msr);
        let clamped = limit.clamp(min, max);
        if clamped != limit {
            DOMAIN_CLAMPED.inc();
        }
        let programmed = match stuck {
            Some(pinned) => {
                DOMAIN_STUCK_LATCHED.inc();
                pinned
            }
            None => clamped,
        };
        let pl = PowerLimit {
            limit: programmed,
            enabled: true,
            clamp: true,
            time_window: Seconds(1.0),
        };
        let raw = encode_power_limit(&pl, &self.units);
        self.msrs.write(msr, raw)?;
        DOMAIN_LIMIT_WRITES.inc();
        Ok(programmed)
    }

    /// Pin a sub-plane's limit to `pinned_w`: subsequent writes to that
    /// plane silently latch the pinned value while sibling planes (and the
    /// package plane) stay live.
    pub fn inject_domain_stuck(&mut self, d: RaplDomain, pinned_w: Watts) -> Result<()> {
        if d == RaplDomain::Pkg {
            return Err(SimHwError::InvalidParameter(
                "package-plane stuck faults are injected at the node level".into(),
            ));
        }
        let sub = self.sub_domain(d)?;
        let pinned = pinned_w.clamp(sub.min_limit, sub.max_limit);
        match d {
            RaplDomain::Pp0 => self.pp0.as_mut().expect("checked").stuck = Some(pinned),
            RaplDomain::Dram => self.dram.as_mut().expect("checked").stuck = Some(pinned),
            RaplDomain::Pkg => unreachable!(),
        }
        let pl = PowerLimit {
            limit: pinned,
            enabled: true,
            clamp: true,
            time_window: Seconds(1.0),
        };
        let raw = encode_power_limit(&pl, &self.units);
        let msr = self.sub_domain(d)?.limit_msr;
        self.msrs.write(msr, raw)?;
        Ok(())
    }

    /// Exact accumulated energy of one domain.
    pub fn domain_energy(&self, d: RaplDomain) -> Result<Joules> {
        match d {
            RaplDomain::Pkg => Ok(self.energy_exact),
            _ => Ok(self.sub_domain(d)?.energy_exact),
        }
    }

    /// A domain's currently-enforced limit.
    pub fn domain_enforced(&self, d: RaplDomain) -> Result<Watts> {
        match d {
            RaplDomain::Pkg => Ok(self.enforced_limit()),
            _ => Ok(self.sub_domain(d)?.enforced),
        }
    }

    /// A domain's decoded limit register.
    pub fn domain_limit(&self, d: RaplDomain) -> Result<PowerLimit> {
        match d {
            RaplDomain::Pkg => Ok(self.limit()),
            _ => {
                let msr = self.sub_domain(d)?.limit_msr;
                Ok(decode_power_limit(self.msrs.hw_load(msr), &self.units))
            }
        }
    }

    /// Read a domain's raw 32-bit energy counter through the allowlist.
    pub fn read_domain_energy_counter(&self, d: RaplDomain) -> Result<u32> {
        let msr = match d {
            RaplDomain::Pkg => address::PKG_ENERGY_STATUS,
            _ => self.sub_domain(d)?.energy_msr,
        };
        Ok(self.msrs.read(msr)? as u32)
    }

    /// The per-step enforcement inputs `(target, tau)` exactly as
    /// [`Self::advance`] decodes them from the PL1 register: the programmed
    /// limit when enabled (else the package max), and the floored time
    /// window. The columnar [`crate::bank::NodeBank`] caches these between
    /// limit writes instead of re-decoding the MSR every step.
    pub(crate) fn enforcement_params(&self) -> (Watts, f64) {
        enforcement_params_of(&self.limit(), self.max_limit)
    }

    /// Write a resolved PL1 register value through the allowlist.
    pub(crate) fn program_pl1(&mut self, raw: u64) -> Result<()> {
        self.msrs.write(address::PKG_POWER_LIMIT, raw)
    }

    /// True when `other` is the same part: every field [`Self::set_state`]
    /// leaves as it finds it agrees. Of those only the power range and the
    /// sub-plane split can differ between packages; the units and the
    /// allowlist are fixed by [`Self::new`], and nothing outside this crate
    /// reaches a node's packages mutably.
    pub(crate) fn same_part(&self, other: &Self) -> bool {
        self.tdp == other.tdp
            && self.min_limit == other.min_limit
            && self.max_limit == other.max_limit
            && self.domains == other.domains
    }

    /// Ingest side of the columnar bank: everything that distinguishes this
    /// package from another of its part.
    pub(crate) fn state(&self) -> PackageState {
        let plane = |sub: &SubDomain| PlaneState {
            raw: self.msrs.hw_load(sub.limit_msr),
            stuck: sub.stuck,
            energy: sub.energy_exact,
            enforced: sub.enforced,
        };
        PackageState {
            energy: self.energy_exact,
            enforced: self.enforced,
            pl1_raw: self.msrs.hw_load(address::PKG_POWER_LIMIT),
            planes: (self.pp0.as_ref())
                .zip(self.dram.as_ref())
                .map(|(pp0, dram)| [plane(pp0), plane(dram)]),
        }
    }

    /// Materialise side: load `s` into this package, a copy of the part's
    /// prototype. The energy-status counters are derived from the exact
    /// energies: each per-step store overwrites the previous one, so storing
    /// once from the final energy is value-equivalent to the stores
    /// [`Self::advance`] made.
    pub(crate) fn set_state(&mut self, s: &PackageState) {
        debug_assert_eq!(s.planes.is_some(), self.domains.is_some());
        self.energy_exact = s.energy;
        self.enforced = s.enforced;
        let units = self.units;
        self.msrs.hw_store(address::PKG_POWER_LIMIT, s.pl1_raw);
        self.msrs
            .hw_store(address::PKG_ENERGY_STATUS, energy_status(s.energy, &units));
        let subs = self.pp0.iter_mut().chain(self.dram.iter_mut());
        for (sub, plane) in subs.zip(s.planes.iter().flatten()) {
            sub.stuck = plane.stuck;
            sub.energy_exact = plane.energy;
            sub.enforced = plane.enforced;
            self.msrs.hw_store(sub.limit_msr, plane.raw);
            self.msrs
                .hw_store(sub.energy_msr, energy_status(plane.energy, &units));
        }
    }

    /// Read the raw 32-bit energy counter (what a tool like GEOPM samples).
    pub fn read_energy_counter(&self) -> Result<u32> {
        Ok(self.msrs.read(address::PKG_ENERGY_STATUS)? as u32)
    }

    /// Exact accumulated energy (simulation-side ground truth, used by
    /// tests to validate counter-based sampling).
    pub fn exact_energy(&self) -> Joules {
        self.energy_exact
    }

    /// Access the underlying MSR device (for tooling that goes through the
    /// register interface directly).
    pub fn msrs(&self) -> &MsrDevice {
        &self.msrs
    }

    /// Mutable access to the underlying MSR device.
    pub fn msrs_mut(&mut self) -> &mut MsrDevice {
        &mut self.msrs
    }
}

/// Computes energy deltas from successive 32-bit counter reads, handling
/// wraparound — the standard idiom for RAPL sampling loops.
#[derive(Debug, Clone, Copy)]
pub struct EnergyCounterReader {
    last: Option<u32>,
    energy_per_count: Joules,
}

impl EnergyCounterReader {
    /// A reader using the given units.
    pub fn new(units: &RaplUnits) -> Self {
        Self {
            last: None,
            energy_per_count: Joules(units.energy_j),
        }
    }

    /// Feed a new counter sample; returns the energy consumed since the
    /// previous sample (zero for the first).
    pub fn sample(&mut self, counter: u32) -> Joules {
        let delta = match self.last {
            None => 0u32,
            Some(prev) => counter.wrapping_sub(prev),
        };
        self.last = Some(counter);
        self.energy_per_count * f64::from(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkg() -> RaplPackage {
        RaplPackage::new(Watts(120.0), Watts(68.0), Watts(135.0)).unwrap()
    }

    #[test]
    fn units_decode_matches_broadwell() {
        let u = RaplUnits::decode(DEFAULT_UNIT_REGISTER);
        assert!((u.power_w - 0.125).abs() < 1e-12);
        assert!((u.energy_j - 1.0 / 16384.0).abs() < 1e-12);
        assert!((u.time_s - 1.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn power_limit_roundtrip() {
        let u = RaplUnits::decode(DEFAULT_UNIT_REGISTER);
        let pl = PowerLimit {
            limit: Watts(91.5),
            enabled: true,
            clamp: true,
            time_window: Seconds(1.0),
        };
        let decoded = decode_power_limit(encode_power_limit(&pl, &u), &u);
        assert!((decoded.limit.value() - 91.5).abs() < u.power_w);
        assert!(decoded.enabled);
        assert!(decoded.clamp);
        // Window is quantized to (1+F/4)*2^E time units.
        assert!((decoded.time_window.value() - 1.0).abs() < 0.1);
    }

    /// The exhaustive search the closed-form `encode_time_window` replaced,
    /// kept as its reference.
    fn encode_time_window_search(units: f64) -> (u32, u32) {
        let mut best = (0u32, 0u32);
        let mut best_err = f64::INFINITY;
        for e in 0..32u32 {
            for f in 0..4u32 {
                let v = (1.0 + f64::from(f) / 4.0) * (1u64 << e) as f64;
                let err = (v - units).abs();
                if err < best_err {
                    best_err = err;
                    best = (e, f);
                }
            }
        }
        best
    }

    #[test]
    fn time_window_closed_form_matches_the_search() {
        let next = |x: f64| f64::from_bits(x.to_bits() + 1);
        let prev = |x: f64| f64::from_bits(x.to_bits() - 1);
        // Every representable window, ascending.
        let windows: Vec<f64> = (0..32u32)
            .flat_map(|e| (0..4u32).map(move |f| (1.0 + f64::from(f) / 4.0) * (1u64 << e) as f64))
            .collect();
        assert_eq!(windows.len(), 128);
        let mut inputs = vec![
            0.0,
            -0.0,
            -3.0,
            1e-9,
            0.5,
            f64::MIN_POSITIVE,
            2f64.powi(32),
            1e12,
            prev(2f64.powi(82)),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for (i, &w) in windows.iter().enumerate() {
            assert_eq!(encode_time_window(w), ((i / 4) as u32, (i % 4) as u32));
            inputs.extend([w, prev(w), next(w)]);
            if let Some(&above) = windows.get(i + 1) {
                // The midpoint is a tie (the lower window wins); one ulp
                // either side of it is not.
                let mid = (w + above) / 2.0;
                inputs.extend([mid, prev(mid), next(mid), w + (above - w) / 3.0]);
            }
        }
        for units in inputs {
            assert_eq!(
                encode_time_window(units),
                encode_time_window_search(units),
                "window of {units:e} time units"
            );
        }
        // From 2^82 up the search cannot tell its candidates apart (their
        // distances all round to the same f64) and returns the first one it
        // tried; the closed form keeps saturating.
        assert_eq!(encode_time_window_search(f64::MAX), (0, 0));
        for huge in [2f64.powi(82), 1e200, f64::MAX] {
            assert_eq!(encode_time_window(huge), (31, 3));
        }
    }

    #[test]
    fn limits_outside_range_are_rejected() {
        let mut p = pkg();
        let err = p
            .set_limit(PowerLimit {
                limit: Watts(20.0),
                enabled: true,
                clamp: true,
                time_window: Seconds(1.0),
            })
            .unwrap_err();
        assert!(matches!(err, SimHwError::PowerLimitOutOfRange { .. }));
    }

    #[test]
    fn energy_counter_accumulates_and_wraps() {
        let mut p = pkg();
        let u = p.units();
        // Drive enough energy through to wrap the 32-bit counter
        // (2^32 * 61 µJ ≈ 262 kJ).
        let wrap_j = u.energy_j * 4294967296.0;
        p.advance(Seconds(1.0), Watts(wrap_j - 100.0));
        let c1 = p.read_energy_counter().unwrap();
        p.advance(Seconds(1.0), Watts(200.0));
        let c2 = p.read_energy_counter().unwrap();
        assert!(c2 < c1, "counter must wrap");

        let mut rd = EnergyCounterReader::new(&u);
        rd.sample(c1);
        let delta = rd.sample(c2);
        assert!(
            (delta.value() - 200.0).abs() < 1.0,
            "wraparound-corrected delta ≈ 200 J, got {delta}"
        );
    }

    #[test]
    fn enforcement_filter_settles_with_time_window() {
        let mut p = pkg();
        p.set_limit(PowerLimit {
            limit: Watts(70.0),
            enabled: true,
            clamp: true,
            time_window: Seconds(1.0),
        })
        .unwrap();
        // Immediately after the write the enforced limit is still near TDP.
        assert!(p.enforced_limit().value() > 100.0);
        // After several time windows, it has settled onto the target.
        for _ in 0..50 {
            p.advance(Seconds(0.2), Watts(100.0));
        }
        assert!((p.enforced_limit().value() - 70.0).abs() < 0.5);
    }

    #[test]
    fn disabled_limit_enforces_max() {
        let mut p = pkg();
        p.set_limit(PowerLimit {
            limit: Watts(70.0),
            enabled: false,
            clamp: false,
            time_window: Seconds(1.0),
        })
        .unwrap();
        assert_eq!(p.enforced_limit(), p.max_limit());
    }

    #[test]
    fn power_info_register_reports_range() {
        let p = pkg();
        let raw = p.msrs().read(address::PKG_POWER_INFO).unwrap();
        let u = p.units();
        let tdp = (raw & 0x7FFF) as f64 * u.power_w;
        let min = ((raw >> 16) & 0x7FFF) as f64 * u.power_w;
        let max = ((raw >> 32) & 0x7FFF) as f64 * u.power_w;
        assert!((tdp - 120.0).abs() < u.power_w);
        assert!((min - 68.0).abs() < u.power_w);
        assert!((max - 135.0).abs() < u.power_w);
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert!(RaplPackage::new(Watts(120.0), Watts(135.0), Watts(68.0)).is_err());
        assert!(RaplPackage::new(Watts(f64::NAN), Watts(68.0), Watts(135.0)).is_err());
    }
}
