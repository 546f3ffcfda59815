//! The kernel as a hardware load: power as a function of the operating
//! point, and the PCU demotion logic under a cap.
//!
//! A node running the kernel has three core classes (critical, common,
//! waiting — see [`crate::composition`]). The package control unit resolves
//! a power cap in two stages, mirroring per-core p-state hardware:
//!
//! 1. **Uncapped** — with power headroom, everything races at the turbo
//!    ceiling, including spin loops (this is why the uncapped power of
//!    Fig. 4 is insensitive to imbalance).
//! 2. **Trail demotion** — when the cap binds, cores with pause-idle cycles
//!    (polling and slack ranks) are demoted first, down to the spin floor
//!    frequency, while the critical path stays at turbo. This region is the
//!    power the GEOPM balancer can harvest with *zero* performance loss —
//!    the gap between Fig. 4 (used) and Fig. 5 (needed).
//! 3. **Lead throttle** — below that, everybody slows together and the
//!    iteration stretches.

use crate::config::KernelConfig;
use crate::perf::PerfModel;
use pmstack_simhw::power::{CapSpan, CoreClass, OperatingPoint, CAP_SLACK};
use pmstack_simhw::{Hertz, Joules, LoadModel, MachineSpec, PowerModel, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Precomputed operating-point curves for one (kernel, machine) binding.
///
/// Every hot query the stack makes of a [`KernelLoad`] reduces to
/// `static_power(ε) + D·ε` for some dynamic coefficient `D = Σ count·κ·φ(f)`
/// that does **not** depend on ε — so D can be tabulated once per binding
/// and each per-node query becomes a binary search plus two FLOPs, with no
/// `powf` in the loop. Coefficients are computed with the exact closed-form
/// `φ`, so table-driven answers at ladder steps are bit-identical to the
/// direct scans they replace (see the `table_*_matches_scan` tests).
#[derive(Debug, Clone)]
struct OpTables {
    /// The machine the tables were built for; queries against a different
    /// spec fall back to the direct scans.
    spec: MachineSpec,
    /// D at (turbo, turbo) — the uncapped draw.
    d_used: f64,
    /// D at (turbo, spin floor) — the zero-loss minimum.
    d_needed: f64,
    /// Stage-2 demotion candidates, ascending trail frequency:
    /// `(trail, D(turbo, trail))` for ladder steps in `[floor, turbo)`.
    stage2: Vec<(Hertz, f64)>,
    /// Stage-3 throttle candidates, ascending lead frequency:
    /// `(lead, D(lead, min(lead, floor)))` for ladder steps below turbo.
    stage3: Vec<(Hertz, f64)>,
    /// Dense monotone curve `lead → D(lead, min(lead, floor))` over the φ
    /// table's knots (ladder steps are exact knots), for the continuous
    /// queries: `node_power_at` interpolates it forward and
    /// `achieved_frequency` inverts it.
    dense_freqs: Vec<f64>,
    dense_d: Vec<f64>,
}

impl OpTables {
    /// Interpolated dense coefficient at `lead` Hz; `None` outside the
    /// tabulated range.
    fn dense_lookup(&self, x: f64) -> Option<f64> {
        if !(self.dense_freqs[0]..=*self.dense_freqs.last()?).contains(&x) {
            return None;
        }
        let hi = self.dense_freqs.partition_point(|&k| k <= x);
        if hi == self.dense_freqs.len() {
            return Some(*self.dense_d.last()?);
        }
        let (f0, f1) = (self.dense_freqs[hi - 1], self.dense_freqs[hi]);
        let (d0, d1) = (self.dense_d[hi - 1], self.dense_d[hi]);
        Some(d0 + (x - f0) / (f1 - f0) * (d1 - d0))
    }
}

/// Cache key for [`KernelLoad::shared`]: the kernel configuration (f64
/// fields by bit pattern) plus a fingerprint of the machine spec.
#[derive(PartialEq, Eq, Hash)]
struct LoadKey {
    intensity: u64,
    vector: crate::config::VectorWidth,
    waiting: crate::config::WaitingFraction,
    imbalance: crate::config::Imbalance,
    bytes_per_rank: u64,
    iterations: usize,
    spec_fp: u64,
}

impl LoadKey {
    fn new(config: &KernelConfig, spec: &MachineSpec) -> Self {
        let mut h = DefaultHasher::new();
        spec.name.hash(&mut h);
        spec.sockets_per_node.hash(&mut h);
        spec.cores_per_socket.hash(&mut h);
        spec.cores_used_per_node.hash(&mut h);
        for v in [
            spec.f_min.value(),
            spec.f_base.value(),
            spec.f_turbo.value(),
            spec.f_step.value(),
            spec.tdp_per_socket.value(),
            spec.min_rapl_per_socket.value(),
            spec.alpha,
            spec.uncore_per_socket.value(),
            spec.leak_per_core.value(),
            spec.dram_bw_bytes_per_s,
            spec.poll_freq_floor.value(),
        ] {
            v.to_bits().hash(&mut h);
        }
        Self {
            intensity: config.intensity.to_bits(),
            vector: config.vector,
            waiting: config.waiting,
            imbalance: config.imbalance,
            bytes_per_rank: config.bytes_per_rank.to_bits(),
            iterations: config.iterations,
            spec_fp: h.finish(),
        }
    }
}

/// Process-wide memo of (config, machine) → built load, so the grid's ~800
/// re-bindings of the same few dozen kernel configurations each pay the
/// table construction cost exactly once.
static LOAD_CACHE: OnceLock<Mutex<HashMap<LoadKey, Arc<KernelLoad>>>> = OnceLock::new();

/// A kernel configuration bound to a machine, usable as a
/// [`LoadModel`] by the simulated nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelLoad {
    perf: PerfModel,
    poll_floor: Hertz,
    f_turbo: Hertz,
    /// Lazily-built operating-point tables (see [`OpTables`]); identity is
    /// carried entirely by the fields above.
    tables: OnceLock<OpTables>,
}

impl PartialEq for KernelLoad {
    fn eq(&self, other: &Self) -> bool {
        self.perf == other.perf
            && self.poll_floor == other.poll_floor
            && self.f_turbo == other.f_turbo
    }
}

impl KernelLoad {
    /// Bind `config` to the machine described by `spec`. Delegates to the
    /// process-wide cache so repeated bindings of one configuration share
    /// their precomputed operating-point tables.
    pub fn new(config: KernelConfig, spec: &MachineSpec) -> Self {
        Self::shared(config, spec).as_ref().clone()
    }

    /// The cached form of [`Self::new`]: one [`Arc`]'d load per distinct
    /// (config, machine) pair, with operating-point tables pre-built.
    pub fn shared(config: KernelConfig, spec: &MachineSpec) -> Arc<KernelLoad> {
        static MEMO_HIT: pmstack_obs::StaticCounter =
            pmstack_obs::StaticCounter::new("kernel.load.memo_hit");
        static MEMO_MISS: pmstack_obs::StaticCounter =
            pmstack_obs::StaticCounter::new("kernel.load.memo_miss");
        let key = LoadKey::new(&config, spec);
        let cache = LOAD_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("load cache poisoned");
        if map.contains_key(&key) {
            MEMO_HIT.inc();
        } else {
            MEMO_MISS.inc();
        }
        map.entry(key)
            .or_insert_with(|| {
                let load = Self::build(config, spec);
                // Pre-build the tables so every clone handed out by `new`
                // inherits them instead of rebuilding per instance.
                if let Ok(model) = PowerModel::new(spec.clone()) {
                    let _ = load.optabs(&model);
                }
                Arc::new(load)
            })
            .clone()
    }

    /// The raw, uncached constructor.
    fn build(config: KernelConfig, spec: &MachineSpec) -> Self {
        Self {
            perf: PerfModel::new(config, spec),
            poll_floor: spec.poll_freq_floor,
            f_turbo: spec.f_turbo,
            tables: OnceLock::new(),
        }
    }

    /// The operating-point tables for `model`, or `None` when `model`'s
    /// spec differs from the one the tables were built against (callers
    /// fall back to the direct scans).
    fn optabs(&self, model: &PowerModel) -> Option<&OpTables> {
        let t = self.tables.get_or_init(|| self.build_tables(model));
        (&t.spec == model.spec()).then_some(t)
    }

    fn build_tables(&self, model: &PowerModel) -> OpTables {
        let spec = model.spec().clone();
        let ladder = spec.pstates();
        let d = |lead: Hertz, trail: Hertz| model.dynamic_coefficient(&self.classes(lead, trail));
        let stage2 = ladder
            .steps()
            .iter()
            .copied()
            .filter(|&t| t < self.f_turbo && t >= self.poll_floor)
            .map(|t| (t, d(self.f_turbo, t)))
            .collect();
        let stage3: Vec<(Hertz, f64)> = ladder
            .steps()
            .iter()
            .copied()
            .filter(|&l| l < self.f_turbo)
            .map(|l| (l, d(l, l.min(self.poll_floor))))
            .collect();
        let (dense_freqs, dense_d): (Vec<f64>, Vec<f64>) = model
            .lut()
            .knots()
            .iter()
            .copied()
            .filter(|&f| f >= spec.f_min.value() - 1e-3 && f <= self.f_turbo.value() + 1e-3)
            .map(|f| {
                let lead = Hertz(f);
                (f, d(lead, lead.min(self.poll_floor)))
            })
            .unzip();
        OpTables {
            spec,
            d_used: d(self.f_turbo, self.f_turbo),
            d_needed: d(self.f_turbo, self.poll_floor),
            stage2,
            stage3,
            dense_freqs,
            dense_d,
        }
    }

    /// The underlying performance model.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// The configuration.
    pub fn config(&self) -> &KernelConfig {
        self.perf.config()
    }

    /// The frequency of the *common* (partially busy) cores when fully
    /// waiting cores run at `trail`: the PCU demotes a core in proportion to
    /// its pause-idle duty cycle, so a common core that computes `1/k` of
    /// the iteration only trails `(1 - 1/k)` of the way from the lead
    /// frequency to the waiting cores' frequency.
    fn common_freq(&self, lead: Hertz, trail: Hertz) -> Hertz {
        let k = self.config().imbalance.factor();
        let idle_frac = 1.0 - 1.0 / k;
        (lead - (lead - trail) * idle_frac).max(trail)
    }

    /// The three core classes at a (lead, trail) operating point — the one
    /// place the kernel translates its composition into the power model's
    /// vocabulary; [`Self::power`] and the tables both go through it so
    /// their dynamic coefficients are computed identically.
    fn classes(&self, lead: Hertz, trail: Hertz) -> [CoreClass; 3] {
        let comp = self.perf.composition();
        let coeffs = self.perf.coeffs();
        let f_common = self.common_freq(lead, trail);
        let common_frac = self.perf.common_compute_fraction(lead, f_common);
        let kappa_common =
            common_frac * coeffs.kappa_compute + (1.0 - common_frac) * coeffs.kappa_poll;
        [
            CoreClass {
                count: comp.critical,
                kappa: coeffs.kappa_compute,
                freq: lead,
            },
            CoreClass {
                count: comp.common,
                kappa: kappa_common,
                freq: f_common,
            },
            CoreClass {
                count: comp.waiting,
                kappa: coeffs.kappa_poll,
                freq: trail,
            },
        ]
    }

    /// Node power with critical cores at `lead` and fully-waiting cores at
    /// `trail`; common cores sit between the two, trailing in proportion to
    /// their pause-idle duty cycle.
    pub fn power(&self, model: &PowerModel, eps: f64, lead: Hertz, trail: Hertz) -> Watts {
        model.node_power(eps, &self.classes(lead, trail))
    }

    /// Power of an unconstrained node: everything (including spin loops)
    /// races at the turbo ceiling. This is what the GEOPM *monitor* agent
    /// observes (Fig. 4).
    pub fn used_power(&self, model: &PowerModel, eps: f64) -> Watts {
        match self.optabs(model) {
            Some(t) => model.static_power(eps) + Watts(t.d_used * eps),
            None => self.power(model, eps, self.f_turbo, self.f_turbo),
        }
    }

    /// Minimum power at which the node loses no performance: critical cores
    /// at turbo, trailing cores demoted to the spin floor. This is what the
    /// *power balancer* characterization converges to (Fig. 5).
    pub fn needed_power(&self, model: &PowerModel, eps: f64) -> Watts {
        match self.optabs(model) {
            Some(t) => model.static_power(eps) + Watts(t.d_needed * eps),
            None => self.power(model, eps, self.f_turbo, self.poll_floor),
        }
    }

    /// The *continuous* achieved lead frequency under `cap` — the
    /// time-average a frequency counter reports while RAPL dithers between
    /// adjacent p-states. Used by the hardware-variation screen (Fig. 6),
    /// where the quantized ladder would hide the variation signal.
    ///
    /// Solved by inverting the precomputed monotone power curve; differs
    /// from the reference bisection only by the curve's interpolation
    /// error, well under one ladder step.
    pub fn achieved_frequency(&self, model: &PowerModel, eps: f64, cap: Watts) -> Hertz {
        if self.needed_power(model, eps) <= cap {
            return self.f_turbo;
        }
        let Some(t) = self.optabs(model) else {
            return self.achieved_frequency_bisect(model, eps, cap);
        };
        // P(lead) = static(ε) + D(lead)·ε, so invert D at the target.
        let d_target = (cap - model.static_power(eps)).value() / eps;
        if t.dense_d[0] >= d_target {
            return Hertz(t.dense_freqs[0]);
        }
        let hi = t.dense_d.partition_point(|&d| d <= d_target);
        if hi >= t.dense_d.len() {
            return self.f_turbo;
        }
        let (d0, d1) = (t.dense_d[hi - 1], t.dense_d[hi]);
        let (f0, f1) = (t.dense_freqs[hi - 1], t.dense_freqs[hi]);
        let s = if d1 > d0 {
            (d_target - d0) / (d1 - d0)
        } else {
            0.0
        };
        Hertz(f0 + s * (f1 - f0))
    }

    /// Reference bisection for [`Self::achieved_frequency`]; the fallback
    /// when tables don't apply and the oracle its tests compare against.
    fn achieved_frequency_bisect(&self, model: &PowerModel, eps: f64, cap: Watts) -> Hertz {
        if self.power(model, eps, self.f_turbo, self.poll_floor) <= cap {
            return self.f_turbo;
        }
        let spec = model.spec();
        let power_at = |lead: Hertz| self.power(model, eps, lead, lead.min(self.poll_floor));
        let (mut lo, mut hi) = (spec.f_min, self.f_turbo);
        if power_at(lo) >= cap {
            return lo;
        }
        for _ in 0..48 {
            let mid = Hertz((lo.value() + hi.value()) / 2.0);
            if power_at(mid) <= cap {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Elapsed time of one iteration at the given operating point.
    pub fn iteration_time(&self, op: &OperatingPoint) -> Seconds {
        self.perf.iteration_time(op.lead)
    }

    /// Node energy for one iteration at the given operating point.
    pub fn iteration_energy(&self, op: &OperatingPoint) -> Joules {
        op.power * self.iteration_time(op)
    }
}

impl KernelLoad {
    /// Reference ladder scan for [`LoadModel::operating_point`]; the
    /// fallback when tables don't apply and the oracle the table path is
    /// tested bit-identical against.
    fn operating_point_scan(&self, model: &PowerModel, eps: f64, cap: Watts) -> OperatingPoint {
        let slack = CAP_SLACK;
        // Stage 1: everything at turbo.
        let p_uncapped = self.power(model, eps, self.f_turbo, self.f_turbo);
        if p_uncapped <= cap + slack {
            return OperatingPoint {
                lead: self.f_turbo,
                trail: self.f_turbo,
                power: p_uncapped,
            };
        }
        // Stage 2: demote trailing cores down to the spin floor while the
        // critical path holds turbo. Power is monotone in trail, so the
        // first fitting step scanning downward is the highest fitting.
        let ladder = model.spec().pstates();
        for &trail in ladder.steps().iter().rev() {
            if trail >= self.f_turbo || trail < self.poll_floor {
                continue;
            }
            let p = self.power(model, eps, self.f_turbo, trail);
            if p <= cap + slack {
                return OperatingPoint {
                    lead: self.f_turbo,
                    trail,
                    power: p,
                };
            }
        }
        // Stage 3: throttle the lead; trailing cores ride at
        // min(lead, floor).
        for &lead in ladder.steps().iter().rev() {
            if lead >= self.f_turbo {
                continue;
            }
            let trail = lead.min(self.poll_floor);
            let p = self.power(model, eps, lead, trail);
            if p <= cap + slack {
                return OperatingPoint {
                    lead,
                    trail,
                    power: p,
                };
            }
        }
        // Nothing fits: hardware bottoms out at the minimum p-state.
        let lead = ladder.min();
        let trail = lead.min(self.poll_floor);
        OperatingPoint {
            lead,
            trail,
            power: self.power(model, eps, lead, trail),
        }
    }
}

impl LoadModel for KernelLoad {
    fn node_power_at(&self, model: &PowerModel, eps: f64, lead: Hertz) -> Watts {
        if lead >= self.f_turbo {
            return self.used_power(model, eps);
        }
        if let Some(t) = self.optabs(model) {
            if let Some(d) = t.dense_lookup(lead.value()) {
                return model.static_power(eps) + Watts(d * eps);
            }
        }
        self.power(model, eps, lead, lead.min(self.poll_floor))
    }

    fn operating_point(&self, model: &PowerModel, eps: f64, cap: Watts) -> OperatingPoint {
        self.operating_point_span(model, eps, cap).0
    }

    /// Table-driven PCU resolution: the same three stages as
    /// [`Self::operating_point_scan`], but each stage is one binary search
    /// over a precomputed monotone coefficient array. Power at every
    /// candidate is `static(ε) + D·ε` with D computed exactly once at table
    /// build, so the chosen point and its power are bit-identical to the
    /// scan's.
    ///
    /// Read as one ascending list `stage3 ‖ stage2 ‖ d_used`, the search
    /// picks the highest candidate whose power fits, so the point holds from
    /// its own power up to the power of the next candidate. The span is
    /// built from what the search itself evaluated — the chosen candidate
    /// fits, and every stage it fell through showed a lowest candidate that
    /// does not — so any cap inside it sends the search down the same path,
    /// and (the list never descending, see `candidate_coefficients_ascend`)
    /// any cap outside it ends on another candidate. Without tables the scan
    /// answers and the span is empty.
    fn operating_point_span(
        &self,
        model: &PowerModel,
        eps: f64,
        cap: Watts,
    ) -> (OperatingPoint, CapSpan) {
        // A degenerate ladder (f_min == f_turbo) has no stage-3 candidate.
        let Some(t) = self.optabs(model).filter(|t| !t.stage3.is_empty()) else {
            return (self.operating_point_scan(model, eps, cap), CapSpan::NEVER);
        };
        let stat = model.static_power(eps);
        let power = |d: f64| stat + Watts(d * eps);
        let budget = cap + CAP_SLACK;
        let fits = |d: f64| power(d) <= budget;
        // Stage 1: everything at turbo.
        let p_used = power(t.d_used);
        if p_used <= budget {
            let op = OperatingPoint {
                lead: self.f_turbo,
                trail: self.f_turbo,
                power: p_used,
            };
            return (op, CapSpan::between(Some(p_used), None));
        }
        let mut excluded = p_used;
        // Stage 2: highest fitting trail (D ascends with trail, so fitting
        // entries are a prefix).
        let c = t.stage2.partition_point(|&(_, d)| fits(d));
        if let Some(&(_, d)) = t.stage2.get(c) {
            excluded = excluded.min(power(d));
        }
        if c > 0 {
            let (trail, d) = t.stage2[c - 1];
            let op = OperatingPoint {
                lead: self.f_turbo,
                trail,
                power: power(d),
            };
            return (op, CapSpan::between(Some(op.power), Some(excluded)));
        }
        // Stage 3: highest fitting lead, bottoming out at the minimum
        // p-state when nothing fits — so the lowest candidate is the answer
        // whether or not it fits, and its span has no lower edge.
        let c = t.stage3.partition_point(|&(_, d)| fits(d)).max(1);
        if let Some(&(_, d)) = t.stage3.get(c) {
            excluded = excluded.min(power(d));
        }
        let (lead, d) = t.stage3[c - 1];
        let op = OperatingPoint {
            lead,
            trail: lead.min(self.poll_floor),
            power: power(d),
        };
        let fitting = (c > 1).then_some(op.power);
        (op, CapSpan::between(fitting, Some(excluded)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Imbalance, VectorWidth, WaitingFraction};
    use pmstack_simhw::{quartz_spec, PowerModel};

    fn setup(intensity: f64, w: WaitingFraction, k: Imbalance) -> (PowerModel, KernelLoad) {
        let spec = quartz_spec();
        let model = PowerModel::new(spec.clone()).unwrap();
        let load = KernelLoad::new(KernelConfig::new(intensity, VectorWidth::Ymm, w, k), &spec);
        (model, load)
    }

    #[test]
    fn uncapped_power_matches_fig4_range() {
        // Fig. 4: balanced ymm rows range ~207-232 W/node uncapped.
        for &i in &KernelConfig::heatmap_intensities() {
            let (model, load) = setup(i, WaitingFraction::P0, Imbalance::Balanced);
            let p = load.used_power(&model, 1.0).value();
            assert!((200.0..240.0).contains(&p), "I={i}: {p} W");
        }
    }

    #[test]
    fn uncapped_power_insensitive_to_imbalance() {
        // Fig. 4: along a row, uncapped power moves only a few percent as
        // waiting/imbalance increase.
        let (model, base) = setup(1.0, WaitingFraction::P0, Imbalance::Balanced);
        let p0 = base.used_power(&model, 1.0).value();
        for (w, k) in KernelConfig::heatmap_columns() {
            let (_, load) = setup(1.0, w, k);
            let p = load.used_power(&model, 1.0).value();
            assert!(
                (p - p0).abs() / p0 < 0.06,
                "{w}/{k}: {p} vs {p0} differs more than 6%"
            );
        }
    }

    #[test]
    fn needed_power_strongly_sensitive_to_waiting() {
        // Fig. 5: needed power drops with the share of waiting ranks.
        let (model, p0) = setup(1.0, WaitingFraction::P0, Imbalance::Balanced);
        let (_, p25) = setup(1.0, WaitingFraction::P25, Imbalance::TwoX);
        let (_, p75) = setup(1.0, WaitingFraction::P75, Imbalance::TwoX);
        let n0 = p0.needed_power(&model, 1.0).value();
        let n25 = p25.needed_power(&model, 1.0).value();
        let n75 = p75.needed_power(&model, 1.0).value();
        assert!(n0 > n25 && n25 > n75, "{n0} > {n25} > {n75} expected");
        // Balanced configuration has no harvestable slack.
        let u0 = p0.used_power(&model, 1.0).value();
        assert!((u0 - n0).abs() < 1e-9);
        // Heavy waiting leaves ~8-12% harvestable (Fig. 5 vs Fig. 4).
        let (_, u75) = setup(1.0, WaitingFraction::P75, Imbalance::TwoX);
        let gap = 1.0 - n75 / u75.used_power(&model, 1.0).value();
        assert!((0.05..0.20).contains(&gap), "harvestable gap {gap}");
    }

    #[test]
    fn operating_point_uncapped_is_turbo() {
        let (model, load) = setup(8.0, WaitingFraction::P0, Imbalance::Balanced);
        let op = load.operating_point(&model, 1.0, Watts(240.0));
        assert_eq!(op.lead, Hertz::from_ghz(2.6));
        assert_eq!(op.trail, Hertz::from_ghz(2.6));
    }

    #[test]
    fn cap_between_needed_and_used_preserves_lead() {
        let (model, load) = setup(8.0, WaitingFraction::P50, Imbalance::TwoX);
        let used = load.used_power(&model, 1.0);
        let needed = load.needed_power(&model, 1.0);
        assert!(needed < used);
        let cap = Watts((used.value() + needed.value()) / 2.0);
        let op = load.operating_point(&model, 1.0, cap);
        assert_eq!(op.lead, Hertz::from_ghz(2.6), "critical path untouched");
        assert!(op.trail < Hertz::from_ghz(2.6));
        assert!(op.power <= cap + Watts(1e-6));
    }

    #[test]
    fn cap_below_needed_throttles_lead() {
        let (model, load) = setup(8.0, WaitingFraction::P50, Imbalance::TwoX);
        let needed = load.needed_power(&model, 1.0);
        let op = load.operating_point(&model, 1.0, needed - Watts(20.0));
        assert!(op.lead < Hertz::from_ghz(2.6));
        assert!(op.power <= needed - Watts(20.0) + Watts(1e-6));
    }

    #[test]
    fn impossible_cap_bottoms_out_at_min_pstate() {
        let (model, load) = setup(8.0, WaitingFraction::P0, Imbalance::Balanced);
        let op = load.operating_point(&model, 1.0, Watts(1.0));
        assert_eq!(op.lead, Hertz::from_ghz(1.2));
        assert!(op.power > Watts(1.0), "power floor exceeds absurd cap");
    }

    #[test]
    fn operating_point_power_is_monotone_in_cap() {
        let (model, load) = setup(4.0, WaitingFraction::P25, Imbalance::ThreeX);
        let mut last = Watts::ZERO;
        for cap_w in (130..=240).step_by(10) {
            let op = load.operating_point(&model, 1.0, Watts(cap_w as f64));
            assert!(
                op.power >= last - Watts(1e-9),
                "power not monotone at {cap_w} W"
            );
            last = op.power;
        }
    }

    #[test]
    fn iteration_energy_is_power_times_time() {
        let (model, load) = setup(8.0, WaitingFraction::P0, Imbalance::Balanced);
        let op = load.operating_point(&model, 1.0, Watts(200.0));
        let e = load.iteration_energy(&op);
        assert!((e.value() - op.power.value() * load.iteration_time(&op).value()).abs() < 1e-9);
    }

    #[test]
    fn inefficient_node_needs_more_power() {
        let (model, load) = setup(8.0, WaitingFraction::P0, Imbalance::Balanced);
        assert!(load.needed_power(&model, 1.07) > load.needed_power(&model, 0.94));
    }

    #[test]
    fn table_operating_point_matches_scan_bit_for_bit() {
        // The table path must be indistinguishable from the ladder scan it
        // replaced: same chosen p-states, same power to the last bit, for
        // every stage of the PCU resolution.
        for &(w, k) in &[
            (WaitingFraction::P0, Imbalance::Balanced),
            (WaitingFraction::P25, Imbalance::TwoX),
            (WaitingFraction::P50, Imbalance::TwoX),
            (WaitingFraction::P75, Imbalance::ThreeX),
        ] {
            for intensity in [0.25, 1.0, 8.0, 32.0] {
                let (model, load) = setup(intensity, w, k);
                for eps in [0.94, 1.0, 1.07] {
                    for cap_dw in 0..=60 {
                        let cap = Watts(120.0 + 2.0 * cap_dw as f64);
                        let table = load.operating_point(&model, eps, cap);
                        let scan = load.operating_point_scan(&model, eps, cap);
                        assert_eq!(table.lead, scan.lead, "lead at {cap}, eps {eps}");
                        assert_eq!(table.trail, scan.trail, "trail at {cap}, eps {eps}");
                        assert_eq!(
                            table.power.value().to_bits(),
                            scan.power.value().to_bits(),
                            "power at {cap}, eps {eps}: {} vs {}",
                            table.power,
                            scan.power
                        );
                    }
                }
            }
        }
    }

    /// What `operating_point_span` rests on. Read as one list, `stage3 ‖
    /// stage2 ‖ d_used` must never descend — then "the next candidate's
    /// power" bounds the chosen one's span — and it ascends strictly except
    /// where trailing cores draw nothing to demote (a balanced kernel's
    /// stage-2 entries all equal `d_used`), candidates the search can never
    /// pick because the one above them fits whenever they do. Without usable
    /// tables the resolve bounds nothing.
    #[test]
    fn candidate_coefficients_ascend() {
        let spec = quartz_spec();
        let model = PowerModel::new(spec.clone()).unwrap();
        let intensities = [0.0].into_iter().chain(KernelConfig::heatmap_intensities());
        for intensity in intensities {
            for vector in VectorWidth::all() {
                for (w, k) in KernelConfig::heatmap_columns() {
                    let config = KernelConfig::new(intensity, vector, w, k);
                    let load = KernelLoad::new(config, &spec);
                    let t = load.optabs(&model).expect("tables for the bound spec");
                    let ds: Vec<f64> = (t.stage3.iter().chain(&t.stage2))
                        .map(|&(_, d)| d)
                        .chain([t.d_used])
                        .collect();
                    assert!(ds.windows(2).all(|p| p[0] <= p[1]), "{config}: {ds:?}");
                    let demotable = w != WaitingFraction::P0;
                    let strict = if demotable {
                        ds.len()
                    } else {
                        t.stage3.len() + 1
                    };
                    assert!(
                        ds[..strict].windows(2).all(|p| p[0] < p[1]),
                        "{config}: {ds:?}"
                    );
                }
            }
        }

        let load = KernelLoad::new(KernelConfig::balanced_ymm(8.0), &spec);
        let mut foreign = spec.clone();
        foreign.tdp_per_socket = foreign.tdp_per_socket * 1.5;
        let mut flat = spec.clone();
        flat.f_min = flat.f_turbo;
        flat.f_base = flat.f_turbo;
        flat.poll_freq_floor = flat.f_turbo;
        let one_step = KernelLoad::build(KernelConfig::balanced_ymm(8.0), &flat);
        for (load, spec) in [(&load, foreign), (&one_step, flat)] {
            let model = PowerModel::new(spec).unwrap();
            for cap in [0.0, 150.0, 400.0, f64::INFINITY] {
                let (op, span) = load.operating_point_span(&model, 1.0, Watts(cap));
                assert_eq!(op, load.operating_point_scan(&model, 1.0, Watts(cap)));
                assert_eq!(span, CapSpan::NEVER);
                assert!(!span.holds(Watts(cap)));
            }
        }
    }

    #[test]
    fn table_achieved_frequency_matches_bisection() {
        // The curve inversion may differ from the 48-step bisection only by
        // the dense table's interpolation error — far under one p-state.
        let (model, load) = setup(8.0, WaitingFraction::P50, Imbalance::TwoX);
        for eps in [0.94, 1.0, 1.07] {
            for cap_w in (136..=240).step_by(4) {
                let cap = Watts(cap_w as f64);
                let fast = load.achieved_frequency(&model, eps, cap);
                let slow = load.achieved_frequency_bisect(&model, eps, cap);
                assert!(
                    (fast.value() - slow.value()).abs() < 5e6,
                    "cap {cap}, eps {eps}: table {fast} vs bisect {slow}"
                );
            }
        }
    }

    #[test]
    fn shared_loads_are_cached_and_equal() {
        let spec = quartz_spec();
        let config = KernelConfig::balanced_ymm(4.0);
        let a = KernelLoad::shared(config, &spec);
        let b = KernelLoad::shared(config, &spec);
        assert!(Arc::ptr_eq(&a, &b), "same key must hit the cache");
        assert_eq!(*a, KernelLoad::new(config, &spec));
        // A different configuration gets its own entry.
        let c = KernelLoad::shared(KernelConfig::balanced_ymm(2.0), &spec);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
