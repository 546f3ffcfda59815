//! The socket/node power model and the machine description.
//!
//! Node power is modeled as
//!
//! ```text
//! P_node(f…) = n_sockets · P_uncore
//!            + ε · [ n_cores_used · P_leak  +  Σ_core  κ_core · φ(f_core) ]
//! φ(f) = (f / f_base)^α
//! ```
//!
//! where `κ_core` is a dimensionless *activity coefficient* supplied by the
//! workload layer (FMA-heavy code has high κ, memory-stalled code lower κ,
//! a spin-polling core its own κ), and `ε` is the node's manufacturing
//! variation factor. The exponent α ≈ 2.4 folds the voltage/frequency curve
//! into a single power law, a standard compact model for DVFS studies.
//!
//! Workload specifics never enter this crate: the [`LoadModel`] trait lets a
//! workload report total node power at a given *lead frequency* (the
//! frequency of the cores on the critical path); how the other core classes
//! (slack cores, polling cores) trail the lead frequency is the workload
//! model's business.

use crate::error::{Result, SimHwError};
use crate::pstate::PStateLadder;
use crate::units::{Hertz, Watts};
use serde::{Deserialize, Serialize};

/// Static description of one machine model (Table I plus model parameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-readable part name.
    pub name: String,
    /// CPU sockets per node.
    pub sockets_per_node: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Cores per node actually running application ranks (the paper uses 34
    /// of 36, leaving two for system services).
    pub cores_used_per_node: usize,
    /// Minimum p-state.
    pub f_min: Hertz,
    /// Base (guaranteed) frequency.
    pub f_base: Hertz,
    /// All-core turbo ceiling.
    pub f_turbo: Hertz,
    /// P-state granularity.
    pub f_step: Hertz,
    /// Thermal design power per socket.
    pub tdp_per_socket: Watts,
    /// Minimum settable RAPL limit per socket.
    pub min_rapl_per_socket: Watts,
    /// Frequency/voltage power-law exponent α.
    pub alpha: f64,
    /// Uncore power per socket (fabric, LLC, memory controller idle).
    pub uncore_per_socket: Watts,
    /// Leakage power per active core.
    pub leak_per_core: Watts,
    /// Node-level DRAM bandwidth in bytes/second.
    pub dram_bw_bytes_per_s: f64,
    /// Effective frequency floor the PCU holds for spin-polling cores when
    /// power is not scarce. Spin loops retire at high IPC and look busy to
    /// the PCU, so they are only trailed modestly below the compute cores;
    /// calibrated so balancer-characterized "needed power" reproduces the
    /// Fig. 5 bands.
    pub poll_freq_floor: Hertz,
}

impl MachineSpec {
    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        let check = |cond: bool, msg: &str| -> Result<()> {
            if cond {
                Ok(())
            } else {
                Err(SimHwError::InvalidParameter(msg.to_string()))
            }
        };
        check(self.sockets_per_node > 0, "sockets_per_node must be > 0")?;
        check(self.cores_per_socket > 0, "cores_per_socket must be > 0")?;
        check(
            self.cores_used_per_node <= self.sockets_per_node * self.cores_per_socket,
            "cores_used_per_node exceeds physical cores",
        )?;
        check(
            self.f_min <= self.f_base && self.f_base <= self.f_turbo,
            "frequency ordering must be f_min <= f_base <= f_turbo",
        )?;
        check(
            self.min_rapl_per_socket <= self.tdp_per_socket,
            "min RAPL limit must not exceed TDP",
        )?;
        check(self.alpha > 1.0, "alpha must exceed 1")?;
        check(
            self.dram_bw_bytes_per_s > 0.0,
            "dram bandwidth must be positive",
        )?;
        Ok(())
    }

    /// TDP for a whole node.
    pub fn tdp_per_node(&self) -> Watts {
        self.tdp_per_socket * self.sockets_per_node as f64
    }

    /// Minimum settable RAPL limit for a whole node.
    pub fn min_rapl_per_node(&self) -> Watts {
        self.min_rapl_per_socket * self.sockets_per_node as f64
    }

    /// The p-state ladder of this part.
    pub fn pstates(&self) -> PStateLadder {
        PStateLadder::new(self.f_min, self.f_turbo, self.f_step)
            .expect("validated spec produces a valid ladder")
    }
}

/// A monotone frequency ↔ power-law lookup table: `φ(f) = (f/f_base)^α`
/// tabulated over the p-state range (ladder steps are exact knots, each
/// 100 MHz interval subdivided), with linear interpolation between knots.
///
/// This removes `powf` from per-host per-iteration hot loops: forward
/// lookups serve [`PowerModel::phi_fast`] and the kernel's operating-point
/// tables; the inverse serves [`PowerModel::cap_to_freq`]. Interpolation
/// error is bounded by the knot spacing (tested: < 0.1 W of node power
/// across the ladder, see `lut_power_error_is_below_a_tenth_watt`).
#[derive(Debug, Clone)]
pub struct PhiTable {
    /// Knot frequencies in Hz, ascending; ladder steps appear exactly.
    freqs: Vec<f64>,
    /// `φ` at each knot, computed once with `powf` (ascending, since α > 1).
    phis: Vec<f64>,
}

/// Sub-steps per 100 MHz p-state interval in the φ table. With α ≈ 2.4 the
/// curvature error of linear interpolation over `f_step / 8` is below
/// 10 mW of node power — two orders under the 0.1 W accuracy budget.
const PHI_REFINE: usize = 8;

impl PhiTable {
    /// Tabulate `spec`'s power law over `[min(f_min, poll_floor), f_turbo]`.
    fn build(spec: &MachineSpec) -> Self {
        let mut anchors: Vec<f64> = Vec::new();
        // Extend below the ladder when the spin floor sits under f_min, so
        // trailing-core frequencies stay inside the table.
        let lo = spec.f_min.value().min(spec.poll_freq_floor.value());
        let mut f = lo;
        while f < spec.f_min.value() - 1e-3 {
            anchors.push(f);
            f += spec.f_step.value();
        }
        anchors.extend(
            spec.pstates()
                .steps()
                .iter()
                .map(|h| h.value())
                .filter(|&s| s > lo - 1e-3),
        );
        let mut freqs = Vec::with_capacity(anchors.len() * PHI_REFINE);
        for pair in anchors.windows(2) {
            for j in 0..PHI_REFINE {
                freqs.push(pair[0] + (pair[1] - pair[0]) * j as f64 / PHI_REFINE as f64);
            }
        }
        freqs.push(*anchors.last().expect("spec has at least one p-state"));
        let phis = freqs
            .iter()
            .map(|&f| (f / spec.f_base.value()).powf(spec.alpha))
            .collect();
        Self { freqs, phis }
    }

    /// The knot frequencies in Hz, ascending — exposed so per-workload
    /// tables (the kernel's operating-point curves) can align their knots
    /// with the φ table's and inherit its exact-at-ladder-step property.
    pub fn knots(&self) -> &[f64] {
        &self.freqs
    }

    /// Lowest tabulated frequency.
    pub fn min_freq(&self) -> Hertz {
        Hertz(self.freqs[0])
    }

    /// Highest tabulated frequency.
    pub fn max_freq(&self) -> Hertz {
        Hertz(*self.freqs.last().expect("table is non-empty"))
    }

    /// Interpolated `φ(f)`; `None` outside the tabulated range (callers
    /// fall back to the closed form).
    pub fn phi_at(&self, f: Hertz) -> Option<f64> {
        let x = f.value();
        if !(self.freqs[0]..=*self.freqs.last().unwrap()).contains(&x) {
            return None;
        }
        let hi = self.freqs.partition_point(|&k| k <= x);
        if hi == self.freqs.len() {
            return Some(*self.phis.last().unwrap());
        }
        // freqs[hi-1] <= x < freqs[hi]; exact-knot queries interpolate with
        // t = 0 and return the knot's powf value bit-for-bit.
        let (f0, f1) = (self.freqs[hi - 1], self.freqs[hi]);
        let (p0, p1) = (self.phis[hi - 1], self.phis[hi]);
        let t = (x - f0) / (f1 - f0);
        Some(p0 + t * (p1 - p0))
    }

    /// Inverse lookup: the frequency at which `φ` reaches `phi`, by binary
    /// search over the monotone knots plus linear interpolation. Clamps to
    /// the table ends (`None` only for non-finite input).
    pub fn freq_for_phi(&self, phi: f64) -> Option<Hertz> {
        if !phi.is_finite() {
            return None;
        }
        if phi <= self.phis[0] {
            return Some(Hertz(self.freqs[0]));
        }
        if phi >= *self.phis.last().unwrap() {
            return Some(self.max_freq());
        }
        let hi = self.phis.partition_point(|&p| p <= phi);
        let (p0, p1) = (self.phis[hi - 1], self.phis[hi]);
        let (f0, f1) = (self.freqs[hi - 1], self.freqs[hi]);
        let t = (phi - p0) / (p1 - p0);
        Some(Hertz(f0 + t * (f1 - f0)))
    }
}

/// The node power model. Thin by design: all workload knowledge arrives as
/// activity coefficients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerModel {
    spec: MachineSpec,
    /// Lazily-built φ lookup table (hot paths only; the closed form stays
    /// authoritative for calibration-grade queries).
    lut: std::sync::OnceLock<PhiTable>,
}

impl PartialEq for PowerModel {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
    }
}

/// One class of cores: `count` cores running with activity `kappa` at
/// frequency `freq`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreClass {
    /// Number of cores in this class.
    pub count: usize,
    /// Dimensionless activity coefficient κ.
    pub kappa: f64,
    /// Operating frequency of this class.
    pub freq: Hertz,
}

impl PowerModel {
    /// Build a model over a validated spec.
    pub fn new(spec: MachineSpec) -> Result<Self> {
        spec.validate()?;
        Ok(Self {
            spec,
            lut: std::sync::OnceLock::new(),
        })
    }

    /// The machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The frequency power-law factor `φ(f) = (f / f_base)^α`, closed form.
    #[inline]
    pub fn phi(&self, f: Hertz) -> f64 {
        (f.value() / self.spec.f_base.value()).powf(self.spec.alpha)
    }

    /// The φ lookup table, built on first use.
    pub fn lut(&self) -> &PhiTable {
        self.lut.get_or_init(|| PhiTable::build(&self.spec))
    }

    /// Table-interpolated `φ(f)`: bit-identical to [`Self::phi`] at p-state
    /// ladder knots, within the 0.1 W node-power accuracy budget between
    /// them, and falling back to the closed form outside the table.
    #[inline]
    pub fn phi_fast(&self, f: Hertz) -> f64 {
        self.lut().phi_at(f).unwrap_or_else(|| self.phi(f))
    }

    /// The workload-dependent dynamic-power coefficient `Σ count·κ·φ(f)`
    /// of a set of core classes, in Watts at ε = 1. Factored out so callers
    /// (the kernel's operating-point tables) can precompute it per ladder
    /// step and reproduce [`Self::node_power`] bit-for-bit as
    /// `static_power(ε) + Watts(coefficient · ε)`.
    pub fn dynamic_coefficient(&self, classes: &[CoreClass]) -> f64 {
        classes
            .iter()
            .map(|c| c.count as f64 * c.kappa * self.phi(c.freq))
            .sum()
    }

    /// Static node power: uncore plus leakage for the used cores, with the
    /// leakage part subject to the node's variation factor `eps`.
    pub fn static_power(&self, eps: f64) -> Watts {
        self.spec.uncore_per_socket * self.spec.sockets_per_node as f64
            + self.spec.leak_per_core * self.spec.cores_used_per_node as f64 * eps
    }

    /// Total node power for a set of core classes on a node with variation
    /// factor `eps`.
    pub fn node_power(&self, eps: f64, classes: &[CoreClass]) -> Watts {
        debug_assert!(
            classes.iter().map(|c| c.count).sum::<usize>() <= self.spec.cores_used_per_node,
            "core classes exceed usable cores"
        );
        let dynamic = self.dynamic_coefficient(classes);
        self.static_power(eps) + Watts(dynamic * eps)
    }

    /// Invert [`Self::node_power`] for a single homogeneous class: the
    /// frequency at which `count` cores of activity `kappa` draw exactly
    /// `budget`. Returns `None` if even the minimum p-state exceeds the
    /// budget or the budget exceeds the power at the turbo ceiling
    /// (callers clamp to the ladder in both cases).
    pub fn freq_for_power(
        &self,
        eps: f64,
        count: usize,
        kappa: f64,
        budget: Watts,
    ) -> Option<Hertz> {
        let dyn_budget = (budget - self.static_power(eps)).value() / eps;
        if dyn_budget <= 0.0 || count == 0 || kappa <= 0.0 {
            return None;
        }
        let phi = dyn_budget / (count as f64 * kappa);
        let f = self.spec.f_base.value() * phi.powf(1.0 / self.spec.alpha);
        if f < self.spec.f_min.value() || f > self.spec.f_turbo.value() {
            return None;
        }
        Some(Hertz(f))
    }

    /// Table-driven analogue of [`Self::freq_for_power`]: the frequency at
    /// which `count` cores of activity `kappa` draw exactly `budget`, found
    /// by inverse lookup in the φ table instead of `powf(1/α)`. Same `None`
    /// contract (budget below the minimum p-state's draw or above the turbo
    /// ceiling's); the answer differs from the closed form only by the
    /// interpolation error, which is under the ladder's 100 MHz quantum.
    pub fn cap_to_freq(&self, eps: f64, count: usize, kappa: f64, budget: Watts) -> Option<Hertz> {
        let dyn_budget = (budget - self.static_power(eps)).value() / eps;
        if dyn_budget <= 0.0 || count == 0 || kappa <= 0.0 {
            return None;
        }
        let phi = dyn_budget / (count as f64 * kappa);
        let lut = self.lut();
        // Mirror freq_for_power's range contract on the *ladder* range, not
        // the (possibly wider) table range.
        let phi_min = lut.phi_at(self.spec.f_min)?;
        let phi_max = lut.phi_at(self.spec.f_turbo)?;
        if phi < phi_min || phi > phi_max {
            return None;
        }
        lut.freq_for_phi(phi)
    }
}

/// The operating point the package control unit settles on under a cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Frequency of the critical-path cores.
    pub lead: Hertz,
    /// Frequency of the trailing (slack / spin-polling) cores.
    pub trail: Hertz,
    /// Modeled node power at this point.
    pub power: Watts,
}

/// The tolerance every PCU resolve adds to the cap before comparing a
/// candidate's power against it, so a cap that *is* a candidate's power still
/// selects that candidate after rounding.
pub const CAP_SLACK: Watts = Watts(1e-9);

/// The caps over which a resolved [`OperatingPoint`] stays the PCU's answer.
///
/// A resolve picks the highest candidate whose power fits `cap + CAP_SLACK`,
/// so its answer is a step function of the cap: it holds from the chosen
/// candidate's power up to, but excluding, the power of the lowest candidate
/// the resolve saw not fit. A span is that interval, kept closed (the
/// excluded edge is stored as the float just below it) so that "is the cached
/// point still the answer" is two compares and `±∞` caps need no special
/// case. NaN caps never hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapSpan {
    lo: f64,
    hi: f64,
}

impl CapSpan {
    /// The empty span: no cap holds. What a resolve returns when it cannot
    /// bound its answer, and what a cached point is worth once any *other*
    /// input of the resolve (ε, frequency cap, workload) has changed.
    pub const NEVER: Self = Self {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// The span of a point chosen because `fits` is the highest candidate
    /// power within the cap (`None`: nothing fit, the point is the hardware
    /// floor) and `excluded` the lowest candidate power above it (`None`:
    /// the point is the uncapped one).
    pub fn between(fits: Option<Watts>, excluded: Option<Watts>) -> Self {
        Self {
            lo: fits.map_or(f64::NEG_INFINITY, Watts::value),
            hi: excluded.map_or(f64::INFINITY, |p| p.value().next_down()),
        }
    }

    /// True when a resolve at `cap` returns the point this span came with,
    /// bit for bit.
    #[inline]
    pub fn holds(&self, cap: Watts) -> bool {
        let budget = (cap + CAP_SLACK).value();
        self.lo <= budget && budget <= self.hi
    }
}

/// A workload's PCU candidates on one machine, tabulated as coefficient
/// columns. Each candidate's power at efficiency factor ε is
/// `static_power(ε) + D·ε` for a dynamic coefficient `D` that does not
/// depend on ε, so a resolve is a count over the `D` columns.
///
/// The candidates read as one list `stage3 ‖ stage2 ‖ uncapped`: stage 3
/// throttles the lead (trailing cores at `min(lead, floor)`), stage 2
/// demotes the trailing cores with the lead at turbo, and the uncapped point
/// runs everything at turbo. The list must never descend in `D`.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateTable {
    turbo: Hertz,
    floor: Hertz,
    d_used: f64,
    stage2_trail: Vec<Hertz>,
    stage2_d: Vec<f64>,
    stage3_lead: Vec<Hertz>,
    stage3_d: Vec<f64>,
}

impl CandidateTable {
    /// A table over `stage2` (`(trail, D)`, ascending) and `stage3`
    /// (`(lead, D)`, ascending, at least one entry: its first is the
    /// hardware floor), with the uncapped point's coefficient `d_used` at
    /// `turbo` and the spin floor `floor` of stage-3 trailing cores.
    ///
    /// # Panics
    /// If `stage3` is empty.
    pub fn new(
        turbo: Hertz,
        floor: Hertz,
        d_used: f64,
        stage2: &[(Hertz, f64)],
        stage3: &[(Hertz, f64)],
    ) -> Self {
        assert!(!stage3.is_empty(), "a table needs a stage-3 candidate");
        let (stage2_trail, stage2_d) = stage2.iter().copied().unzip();
        let (stage3_lead, stage3_d) = stage3.iter().copied().unzip();
        Self {
            turbo,
            floor,
            d_used,
            stage2_trail,
            stage2_d,
            stage3_lead,
            stage3_d,
        }
    }

    /// The uncapped point's coefficient.
    pub fn d_used(&self) -> f64 {
        self.d_used
    }

    /// Stage-2 candidates `(trail, D)`, ascending.
    pub fn stage2(&self) -> impl Iterator<Item = (Hertz, f64)> + '_ {
        self.stage2_trail
            .iter()
            .copied()
            .zip(self.stage2_d.iter().copied())
    }

    /// Stage-3 candidates `(lead, D)`, ascending.
    pub fn stage3(&self) -> impl Iterator<Item = (Hertz, f64)> + '_ {
        self.stage3_lead
            .iter()
            .copied()
            .zip(self.stage3_d.iter().copied())
    }

    /// The point the PCU resolves under `cap` for a host of static power
    /// `stat` and efficiency factor `eps ≥ 0`, with the [`CapSpan`] it holds
    /// over: the highest candidate whose power fits `cap + CAP_SLACK`, the
    /// lowest stage-3 candidate when nothing fits.
    ///
    /// Each stage *counts* its fitting candidates instead of searching for
    /// the last one. The count is the search's partition point exactly:
    /// `D` ascends within a stage, `ε ≥ 0`, and `stat + D·ε` is monotone in
    /// `D` under IEEE rounding (a product and a sum of non-decreasing
    /// operands round non-decreasingly), so the fitting candidates are a
    /// prefix. The count has no data-dependent branch.
    ///
    /// The span comes from what the resolve evaluated: the chosen candidate
    /// fits, and every stage it fell through showed a lowest candidate that
    /// does not, so any cap inside it takes the same path; the list never
    /// descending, any cap outside it ends on another candidate.
    #[inline]
    pub fn resolve(&self, stat: Watts, eps: f64, cap: Watts) -> (OperatingPoint, CapSpan) {
        let power = |d: f64| stat + Watts(d * eps);
        let budget = cap + CAP_SLACK;
        let fitting =
            |ds: &[f64]| -> usize { ds.iter().map(|&d| usize::from(power(d) <= budget)).sum() };
        // Stage 1: everything at turbo.
        let p_used = power(self.d_used);
        if p_used <= budget {
            let op = OperatingPoint {
                lead: self.turbo,
                trail: self.turbo,
                power: p_used,
            };
            return (op, CapSpan::between(Some(p_used), None));
        }
        let mut excluded = p_used;
        // Stage 2: the highest fitting trail.
        let c = fitting(&self.stage2_d);
        if let Some(&d) = self.stage2_d.get(c) {
            excluded = excluded.min(power(d));
        }
        if c > 0 {
            let op = OperatingPoint {
                lead: self.turbo,
                trail: self.stage2_trail[c - 1],
                power: power(self.stage2_d[c - 1]),
            };
            return (op, CapSpan::between(Some(op.power), Some(excluded)));
        }
        // Stage 3: the highest fitting lead, bottoming out at the minimum
        // p-state when nothing fits — so the lowest candidate is the answer
        // whether or not it fits, and its span has no lower edge.
        let c = fitting(&self.stage3_d).max(1);
        if let Some(&d) = self.stage3_d.get(c) {
            excluded = excluded.min(power(d));
        }
        let lead = self.stage3_lead[c - 1];
        let op = OperatingPoint {
            lead,
            trail: lead.min(self.floor),
            power: power(self.stage3_d[c - 1]),
        };
        let fits = (c > 1).then_some(op.power);
        (op, CapSpan::between(fits, Some(excluded)))
    }
}

/// A workload's view of node power as a function of the *lead* (critical
/// path) core frequency. Implemented by `pmstack-kernel`.
pub trait LoadModel {
    /// Total node power when the critical-path cores run at `lead_freq`.
    /// The implementation decides how trailing core classes (slack cores,
    /// polling cores) follow the lead frequency.
    fn node_power_at(&self, model: &PowerModel, eps: f64, lead_freq: Hertz) -> Watts;

    /// The operating point the PCU resolves for a node-level power `cap`.
    ///
    /// The default walks the p-state ladder from the top and picks the
    /// highest lead frequency whose power fits the cap (falling back to the
    /// minimum p-state when nothing fits — hardware cannot stop the clock).
    /// Workloads with distinguishable core classes override this to model
    /// the PCU demoting low-utilization (spin-polling) cores *before*
    /// touching the critical path, which is the hardware behaviour the
    /// GEOPM power balancer exploits.
    fn operating_point(&self, model: &PowerModel, eps: f64, cap: Watts) -> OperatingPoint {
        let ladder = model.spec().pstates();
        let lead = ladder.highest_fitting(|s| self.node_power_at(model, eps, s) <= cap + CAP_SLACK);
        OperatingPoint {
            lead,
            trail: lead,
            power: self.node_power_at(model, eps, lead),
        }
    }

    /// [`Self::operating_point`] together with the [`CapSpan`] it holds
    /// over. The default bounds nothing ([`CapSpan::NEVER`]): a caller that
    /// caches the point re-resolves every time, which is always correct. A
    /// workload that resolves against tabulated candidates overrides this to
    /// return the neighbouring candidates' powers, and must then make
    /// `operating_point` return exactly this point.
    fn operating_point_span(
        &self,
        model: &PowerModel,
        eps: f64,
        cap: Watts,
    ) -> (OperatingPoint, CapSpan) {
        (self.operating_point(model, eps, cap), CapSpan::NEVER)
    }

    /// The [`CandidateTable`] [`Self::operating_point_span`] resolves against
    /// on `model`, if it resolves against one: then, for every `ε > 0` and
    /// cap, `table.resolve(model.static_power(ε), ε, cap)` must equal
    /// `operating_point_span(model, ε, cap)` bit for bit. A caller resolving
    /// many hosts looks the table up once instead of once per host. The
    /// default has none.
    fn candidates(&self, _model: &PowerModel) -> Option<&CandidateTable> {
        None
    }
}

impl<T: LoadModel + ?Sized> LoadModel for &T {
    fn candidates(&self, model: &PowerModel) -> Option<&CandidateTable> {
        (**self).candidates(model)
    }

    fn node_power_at(&self, model: &PowerModel, eps: f64, lead_freq: Hertz) -> Watts {
        (**self).node_power_at(model, eps, lead_freq)
    }

    fn operating_point(&self, model: &PowerModel, eps: f64, cap: Watts) -> OperatingPoint {
        (**self).operating_point(model, eps, cap)
    }

    fn operating_point_span(
        &self,
        model: &PowerModel,
        eps: f64,
        cap: Watts,
    ) -> (OperatingPoint, CapSpan) {
        (**self).operating_point_span(model, eps, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quartz::quartz_spec;

    fn model() -> PowerModel {
        PowerModel::new(quartz_spec()).unwrap()
    }

    #[test]
    fn phi_is_one_at_base() {
        let m = model();
        assert!((m.phi(m.spec().f_base) - 1.0).abs() < 1e-12);
        assert!(m.phi(m.spec().f_turbo) > 1.0);
        assert!(m.phi(m.spec().f_min) < 1.0);
    }

    #[test]
    fn power_monotonic_in_frequency() {
        let m = model();
        let at = |f: f64| {
            m.node_power(
                1.0,
                &[CoreClass {
                    count: 34,
                    kappa: 2.5,
                    freq: Hertz::from_ghz(f),
                }],
            )
        };
        assert!(at(1.2) < at(1.8));
        assert!(at(1.8) < at(2.6));
    }

    #[test]
    fn variation_scales_dynamic_and_leakage() {
        let m = model();
        let classes = [CoreClass {
            count: 34,
            kappa: 2.5,
            freq: Hertz::from_ghz(2.1),
        }];
        let p_eff = m.node_power(0.94, &classes);
        let p_ineff = m.node_power(1.07, &classes);
        assert!(p_ineff > p_eff);
        // Uncore is unaffected by variation: difference is strictly less
        // than the full ratio.
        let ratio = p_ineff.value() / p_eff.value();
        assert!(ratio < 1.07 / 0.94);
    }

    #[test]
    fn freq_for_power_inverts_node_power() {
        let m = model();
        let kappa = 2.7;
        let f = Hertz::from_ghz(1.9);
        let p = m.node_power(
            1.0,
            &[CoreClass {
                count: 34,
                kappa,
                freq: f,
            }],
        );
        let back = m.freq_for_power(1.0, 34, kappa, p).unwrap();
        assert!((back.ghz() - 1.9).abs() < 1e-9);
    }

    #[test]
    fn freq_for_power_out_of_range_is_none() {
        let m = model();
        assert!(m.freq_for_power(1.0, 34, 2.5, Watts(10.0)).is_none());
        assert!(m.freq_for_power(1.0, 34, 2.5, Watts(10_000.0)).is_none());
        assert!(m.freq_for_power(1.0, 0, 2.5, Watts(200.0)).is_none());
    }

    #[test]
    fn uncapped_power_is_near_tdp_for_hot_workload() {
        // The calibration target: a hot (κ≈3) workload at the turbo ceiling
        // should draw close to, but within, the 240 W node TDP.
        let m = model();
        let p = m.node_power(
            1.0,
            &[CoreClass {
                count: 34,
                kappa: 2.98,
                freq: m.spec().f_turbo,
            }],
        );
        assert!(
            p.value() > 215.0 && p.value() < 240.0,
            "expected ~232 W, got {p}"
        );
    }

    #[test]
    fn lut_is_exact_at_ladder_knots() {
        let m = model();
        for &step in m.spec().pstates().steps() {
            assert_eq!(
                m.phi_fast(step).to_bits(),
                m.phi(step).to_bits(),
                "phi_fast must be bit-identical to phi at ladder step {step}"
            );
        }
        // The spin-poll floor is also an anchor when it sits off-ladder.
        let floor = m.spec().poll_freq_floor;
        assert!((m.phi_fast(floor) - m.phi(floor)).abs() < 1e-12);
    }

    #[test]
    fn lut_power_error_is_below_a_tenth_watt() {
        // Sweep the whole tabulated range at 1 MHz resolution and translate
        // the φ interpolation error into node power for the hottest
        // plausible workload (34 cores, κ = 3, ε = 1.07): the worst case
        // for absolute error. The budget is 0.1 W per node.
        let m = model();
        let (lo, hi) = (m.lut().min_freq().value(), m.lut().max_freq().value());
        let per_phi = 34.0 * 3.0 * 1.07; // dP/dφ in Watts
        let mut worst = 0.0f64;
        let mut f = lo;
        while f <= hi {
            let err = (m.phi_fast(Hertz(f)) - m.phi(Hertz(f))).abs() * per_phi;
            worst = worst.max(err);
            f += 1e6;
        }
        assert!(
            worst < 0.1,
            "worst LUT node-power error {worst} W exceeds 0.1 W"
        );
    }

    #[test]
    fn lut_inverse_roundtrips_within_interpolation_error() {
        let m = model();
        let lut = m.lut();
        let mut f = lut.min_freq().value();
        while f <= lut.max_freq().value() {
            let phi = m.phi_fast(Hertz(f));
            let back = lut.freq_for_phi(phi).unwrap().value();
            assert!(
                (back - f).abs() < 1e6,
                "inverse lookup at {f} Hz came back {back} Hz"
            );
            f += 7.3e6;
        }
    }

    #[test]
    fn cap_to_freq_matches_closed_form_inversion() {
        let m = model();
        for cap_w in [150.0, 170.0, 190.0, 210.0, 230.0] {
            let closed = m.freq_for_power(1.0, 34, 2.7, Watts(cap_w));
            let lut = m.cap_to_freq(1.0, 34, 2.7, Watts(cap_w));
            match (closed, lut) {
                (Some(a), Some(b)) => assert!(
                    (a.value() - b.value()).abs() < 5e6,
                    "cap {cap_w} W: closed form {a} vs LUT {b}"
                ),
                // Both out of ladder range is consistent too.
                (None, None) => {}
                (a, b) => panic!("cap {cap_w} W: closed form {a:?} vs LUT {b:?}"),
            }
        }
        // Out-of-range contract matches freq_for_power.
        assert!(m.cap_to_freq(1.0, 34, 2.5, Watts(10.0)).is_none());
        assert!(m.cap_to_freq(1.0, 34, 2.5, Watts(10_000.0)).is_none());
        assert!(m.cap_to_freq(1.0, 0, 2.5, Watts(200.0)).is_none());
    }

    #[test]
    fn spec_validation_catches_errors() {
        let mut bad = quartz_spec();
        bad.cores_used_per_node = 100;
        assert!(bad.validate().is_err());
        let mut bad = quartz_spec();
        bad.f_min = Hertz::from_ghz(3.0);
        assert!(bad.validate().is_err());
        let mut bad = quartz_spec();
        bad.alpha = 0.5;
        assert!(bad.validate().is_err());
    }
}
