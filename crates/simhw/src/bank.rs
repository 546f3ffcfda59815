//! Columnar (struct-of-arrays) storage for a fleet of [`Node`]s.
//!
//! The per-[`Node`] stepping path pays, on every node every iteration, a PL1
//! register decode, an energy-counter store, and an `exp()` per package; the
//! per-[`Node`] control path pays a register-file lookup, an encode and a
//! decode per package; and every `Node` carries its own register file. A
//! control loop that re-caps every host every interval makes all of it hot,
//! so [`NodeBank`] keeps no per-host `Node` at all — only columns, and one
//! prototype `Node` of the part every host is built from:
//!
//! * **hot columns** — energy, enforced limit, last frequency, telemetry
//!   blackout countdown, MSR glitch flag, and the two control registers the
//!   runtime reprograms: the raw `MSR_PKG_POWER_LIMIT` value of every
//!   package (with the enforcement target/τ/enable and the programmed limit
//!   decoded from it) and the `IA32_PERF_CTL` frequency cap.
//!   [`NodeBank::set_power_limit`] and [`NodeBank::set_freq_cap`] resolve a
//!   request entirely in the columns — through
//!   [`crate::rapl::resolve_pl1_request`] and
//!   [`crate::node::resolve_freq_cap_request`], the same functions the
//!   `Node` methods call, so dead-node rejection, glitch consumption,
//!   stuck-RAPL latching, range clamping and the msr-safe write mask have
//!   one implementation.
//! * **cold columns** — id, health, efficiency, the stuck-RAPL latch and,
//!   for a part with PP0/DRAM planes, each plane's limit register, stuck
//!   latch and meter per (host, socket).
//!
//! **Materialised views.** The columns are the only copy of a host's state.
//! [`NodeBank::from_nodes`] *ingests* each `Node` into them and drops it in
//! the same pass; [`NodeBank::node`] *materialises* one by value, from the
//! prototype plus the host's columns, register file included. An operation
//! the columns do not resolve themselves — a fault, a sub-plane write — runs
//! the `Node` method on a materialised copy and ingests the result
//! (`with_node`), so `Node` stays the one implementation of fault and
//! sub-plane semantics. Health marks are column-only.
//!
//! [`NodeBank::step_all`] replays exactly the arithmetic of
//! [`RaplPackage::advance`] over the columns — same operand values, same
//! operation order — so a bank-stepped fleet is bit-identical to a fleet
//! stepped through [`Node::try_step`] (property-tested in
//! `pmstack-runtime/tests/columnar.rs`). It additionally reports whether the
//! enforcement filters reached a bitwise fixed point, which is what arms the
//! runtime's steady-state fast-forward.
//!
//! ## Segments
//!
//! The bank is sharded into fixed-size **segments** of
//! [`DEFAULT_SEGMENT_HOSTS`] hosts (tunable via
//! [`NodeBank::set_segment_hosts`]). Each segment carries its own cache slot
//! recording whether its enforcement filters sat at a bitwise fixed point
//! after the last step — and at which `dt` — so a control write or fault on
//! one host dirties only that host's segment.
//!
//! Every step also records, per host, the per-package energy it added
//! (`op.power / sockets * dt`, the exact product): the segment's **replay
//! delta**. [`NodeBank::step_all_partial`] uses it: a segment whose slot
//! proves "settled, quiescent, same `dt` bits" is *replayed* — one
//! branch-free pass adding the recorded delta to its energy slab, and
//! nothing else — while dirty segments take the full stepping arithmetic.
//! The replay is bit-identical to stepping because
//!
//! * a settled filter's update is a bitwise no-op, and the skip is only
//!   taken when the `dt` bits match the settle-time `dt` (α depends on `dt`,
//!   so a different window would re-excite the filters);
//! * `last_freq` already holds the lead the settling step latched;
//! * a dead host's recorded delta is `+0.0`, which leaves a non-negative
//!   energy cell bitwise alone;
//! * *quiescent* means the settling step neither consumed nor left behind
//!   any one-shot telemetry state, so one more step would report exactly
//!   what that one reported. A step that read a host back `Stale` therefore
//!   never arms a replay; the segment takes one more (no-op) step first.
//!
//! The bank owns the delta, so a replay reads nothing of the caller's `ops`
//! and writes nothing to its `results`; the price is the contract on
//! [`NodeBank::step_all_partial`]. Per-(host,socket) columns are contiguous
//! per segment, so both paths run over dense slabs the autovectorizer can
//! chew on.
//!
//! ## Operating-point spans
//!
//! A segment that must be stepped is usually one whose limits are still
//! creeping through their filters, and the PCU's answer to a creeping limit
//! changes only when the limit crosses the power of a neighbouring candidate
//! point. [`LoadModel::operating_point_span`] returns, with the point, the
//! [`CapSpan`] of limits it holds over; the bank keeps one per host, and
//! [`NodeBank::resolve_segment`] re-resolves a host only when
//! [`NodeBank::enforced_limit`] has left it. The bank is the right owner
//! because it sees every write to the resolve's *other* inputs: a
//! frequency-cap write, anything routed through a materialised `Node` (a
//! fault can kill the host or latch a stuck plane, and the ingest that
//! follows reloads ε and the cap with it) and [`NodeBank::invalidate_segments`]
//! (the load swap the bank cannot see) drop the span.
//! [`NodeBank::set_power_limit`] deliberately does not: the limit is the
//! span's argument, so a write that lands inside the span keeps the point
//! and one that lands outside is caught by the next check.
//! [`NodeBank::operating_point`] ignores spans and stays the oracle.

use crate::error::Result;
use crate::faults::{FaultKind, NodeHealth};
use crate::msr::{address, check_write};
use crate::node::{perf_ctl_ratio, resolve_freq_cap_request, Node, NodeId};
use crate::power::{CapSpan, LoadModel, OperatingPoint, PowerModel};
use crate::rapl::{
    decode_power_limit, enforcement_params_of, resolve_pl1_request, PackageState, Pl1Gate,
    PlaneState, RaplUnits, DEFAULT_UNIT_REGISTER,
};
use crate::units::{Hertz, Joules, Seconds, Watts};
use pmstack_obs::StaticCounter;

/// Observability: batched stepping calls.
static STEP_ALL_CALLS: StaticCounter = StaticCounter::new("simhw.step_all.calls");
/// Observability: batched steps whose enforcement filters were all at their
/// bitwise fixed point (the steady-state signal).
static STEP_ALL_SETTLED: StaticCounter = StaticCounter::new("simhw.step_all.settled");
/// Observability: settled segment caches dirtied by a control op or fault.
static SHARD_INVALIDATED: StaticCounter = StaticCounter::new("simhw.bank.shard.invalidated");
/// Observability: segments advanced on the replay path (filter updates
/// skipped) by [`NodeBank::step_all_partial`].
static SHARD_REPLAYED: StaticCounter = StaticCounter::new("simhw.bank.shard.replayed");
/// Observability: limit and frequency-cap requests resolved in the columns.
static CONTROL_WRITES: StaticCounter = StaticCounter::new("simhw.bank.control_writes");
/// Observability: hosts a [`NodeBank::resolve_segment`] pass left alone
/// because their enforced limit was still inside the cached point's span.
static RESOLVE_KEPT: StaticCounter = StaticCounter::new("simhw.bank.resolve.kept");
/// Observability: hosts a [`NodeBank::resolve_segment`] pass re-resolved.
static RESOLVE_SEARCHED: StaticCounter = StaticCounter::new("simhw.bank.resolve.searched");

/// A multi-segment step fans out across the pool only when at least this many
/// segments take the stepping arithmetic. A fan-out spawns and joins one
/// thread per worker (~70 µs for two, measured at 100 000 hosts); stepping a
/// default-sized segment costs ~11 µs and replaying one ~0.6 µs, so an
/// iteration that steps a few dirty segments and replays the rest is faster
/// on the calling thread. Two workers break even near 14 evenly spread dirty
/// segments. (Counted in segments, not hosts, so the tiny segments the test
/// suites shard small fleets into still reach the fan-out.)
const PAR_MIN_STEPPED_SEGMENTS: usize = 16;

/// Default hosts per segment: big enough that per-segment bookkeeping is
/// noise (one cache probe per 1024 hosts), small enough that a 100k-host
/// fleet has ~98 independently invalidatable shards.
pub const DEFAULT_SEGMENT_HOSTS: usize = 1024;

/// One segment's settled-state cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegCache {
    /// Must be stepped: a control op / fault touched the segment, or its
    /// filters were still moving after the last step.
    Invalid,
    /// Every enforcement filter in the segment was at its bitwise fixed
    /// point after a step with these `dt` bits. `quiescent` records that the
    /// step neither consumed one-shot telemetry state (no host read back
    /// `Stale`) nor left any pending, so repeating it would report the same
    /// — which the replay path additionally requires.
    Settled { dt_bits: u64, quiescent: bool },
}

/// What [`NodeBank::step_all_partial`] did, per segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Every *stepped* enforcement filter was already at its bitwise fixed
    /// point (replayed segments are settled by construction) — the
    /// steady-state signal the fast-forward path keys on.
    pub all_settled: bool,
    /// Segments advanced on the replay path (filter updates skipped).
    pub segments_replayed: usize,
    /// Segments that took the full stepping arithmetic.
    pub segments_stepped: usize,
}

/// Outcome of one host's step inside [`NodeBank::step_all`], mirroring the
/// three ways [`Node::try_step`] can go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostStep {
    /// The host was not stepped (no operating point supplied — dead host).
    Skipped,
    /// Hardware advanced and telemetry read back cleanly.
    Fresh,
    /// Hardware advanced but the telemetry read failed (blackout or
    /// transient MSR fault) — the caller must fall back on stale data.
    Stale,
}

/// Struct-of-arrays storage for a fleet of nodes with batched stepping.
///
/// Per-(host, socket) columns use index `host * sockets + socket`.
#[derive(Debug, Clone)]
pub struct NodeBank {
    /// The part every host is built from (`None` for an empty bank). Its
    /// own per-host state is host 0's at ingest and never read again:
    /// [`NodeBank::node`] overwrites all of it.
    part: Option<Node>,
    sockets: usize,
    /// Hosts per segment (last segment may be shorter).
    segment_hosts: usize,
    /// Per-segment settled-state cache, `len == len().div_ceil(segment_hosts)`.
    seg: Vec<SegCache>,

    /// Fail-stop dead hosts; zero selects the branch-free energy replay.
    dead_hosts: usize,

    // Per bank: every package of a bank is the same part behind the same
    // allowlist (one machine spec per bank, see `from_nodes`).
    units: RaplUnits,
    pl1_min: Watts,
    pl1_max: Watts,
    pl1_write_mask: u64,
    perf_ctl_write_mask: u64,

    // Hot columns, per (host, socket): authoritative.
    energy: Vec<Joules>,
    enforced: Vec<Watts>,
    /// Raw `MSR_PKG_POWER_LIMIT`; `target`/`tau`/`enabled` are decoded from
    /// it on every write.
    pl1_raw: Vec<u64>,
    target: Vec<Watts>,
    tau: Vec<f64>,
    enabled: Vec<bool>,

    // Hot columns, per host.
    last_freq: Vec<Hertz>,
    telemetry_down: Vec<u32>,
    msr_glitch: Vec<bool>,
    freq_cap: Vec<Option<Hertz>>,
    programmed: Vec<Watts>,
    /// What the last step added to each of the host's energy cells (`+0.0`
    /// for a host it skipped): the segment's replay delta, meaningful while
    /// its cache slot is `Settled` and quiescent.
    replay_delta: Vec<Joules>,
    /// The enforced limits over which the point [`NodeBank::resolve_segment`]
    /// last wrote for the host is still the answer; [`CapSpan::NEVER`] once
    /// any other input of the resolve has changed.
    op_span: Vec<CapSpan>,

    // Cold columns, per host: changed only by ingest and health marks.
    id: Vec<NodeId>,
    eps: Vec<f64>,
    health: Vec<NodeHealth>,
    stuck: Vec<Option<Watts>>,
    /// Per (host, socket), PP0 then DRAM; empty unless the part has them.
    planes: Vec<[PlaneState; 2]>,
}

impl NodeBank {
    /// Build a bank over `nodes`, ingesting each into the columns and
    /// dropping it in the same pass. All nodes must be one part of one
    /// class: the same socket count, and every package the same TDP,
    /// settable range and sub-plane split (true of any fleet built from one
    /// machine spec or [`crate::NodeClass`]). The bank keeps those once, in
    /// its prototype, not per host.
    ///
    /// # Panics
    /// If the nodes are not built from one part of one class.
    pub fn from_nodes(nodes: Vec<Node>) -> Self {
        let n = nodes.len();
        let sockets = nodes.first().map_or(0, |n| n.packages().len());
        let first = nodes.first().and_then(|n| n.packages().first());
        let units = first.map_or(RaplUnits::decode(DEFAULT_UNIT_REGISTER), |p| p.units());
        let pl1_min = first.map_or(Watts::ZERO, |p| p.min_limit());
        let pl1_max = first.map_or(Watts::ZERO, |p| p.max_limit());
        let write_mask = |addr| first.map_or(0, |p| p.msrs().write_mask(addr));
        let planes = first
            .and_then(|p| p.state().planes)
            .map_or(Vec::new(), |planes| vec![planes; n * sockets]);
        let mut bank = Self {
            part: None,
            sockets,
            segment_hosts: DEFAULT_SEGMENT_HOSTS,
            seg: vec![SegCache::Invalid; n.div_ceil(DEFAULT_SEGMENT_HOSTS)],
            dead_hosts: 0,
            units,
            pl1_min,
            pl1_max,
            pl1_write_mask: write_mask(address::PKG_POWER_LIMIT),
            perf_ctl_write_mask: write_mask(address::PERF_CTL),
            energy: vec![Joules::ZERO; n * sockets],
            enforced: vec![Watts(0.0); n * sockets],
            pl1_raw: vec![0; n * sockets],
            target: vec![Watts(0.0); n * sockets],
            tau: vec![1.0; n * sockets],
            enabled: vec![true; n * sockets],
            last_freq: vec![Hertz(0.0); n],
            telemetry_down: vec![0; n],
            msr_glitch: vec![false; n],
            freq_cap: vec![None; n],
            programmed: vec![Watts(0.0); n],
            replay_delta: vec![Joules::ZERO; n],
            op_span: vec![CapSpan::NEVER; n],
            id: vec![NodeId(0); n],
            eps: vec![1.0; n],
            health: vec![NodeHealth::Healthy; n],
            stuck: vec![None; n],
            planes,
        };
        // Each node is dropped while its lines are still warm from the
        // ingest: a second teardown pass over 100 000 cold nodes costs about
        // as much again as this one.
        for (h, node) in nodes.into_iter().enumerate() {
            bank.ingest(h, &node);
            match &bank.part {
                Some(part) => assert!(
                    part.same_part(&node),
                    "NodeBank requires one part and one class across its hosts"
                ),
                None => bank.part = Some(node),
            }
        }
        bank
    }

    /// Number of hosts in the bank.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when the bank holds no hosts.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Sockets per host.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Hosts per segment.
    pub fn segment_hosts(&self) -> usize {
        self.segment_hosts
    }

    /// Number of segments (`len().div_ceil(segment_hosts())`).
    pub fn num_segments(&self) -> usize {
        self.seg.len()
    }

    /// The segment index covering host `h`.
    pub fn segment_of(&self, h: usize) -> usize {
        h / self.segment_hosts
    }

    /// The host range of segment `sidx` (the last segment may be shorter
    /// than `segment_hosts()`).
    pub fn segment_range(&self, sidx: usize) -> std::ops::Range<usize> {
        let lo = sidx * self.segment_hosts;
        lo..(lo + self.segment_hosts).min(self.len())
    }

    /// True when segment `sidx`'s enforcement filters were all at their
    /// bitwise fixed point after the last step, with no control op or fault
    /// on the segment since.
    pub fn segment_settled(&self, sidx: usize) -> bool {
        matches!(self.seg[sidx], SegCache::Settled { .. })
    }

    /// True when [`NodeBank::step_all_partial`] at this `dt` would replay
    /// segment `sidx` instead of stepping it.
    pub fn segment_replayable(&self, sidx: usize, dt: Seconds) -> bool {
        replayable(self.seg[sidx], dt.value().to_bits())
    }

    /// Drop every segment cache and every operating-point span, for a
    /// change the bank cannot see: the caller's operating points are about
    /// to differ from the ones the recorded replay deltas and spans were
    /// taken from (a new load model, or `ops` slots the caller wrote
    /// itself). The next step re-proves settledness and re-records; the
    /// next [`NodeBank::resolve_segment`] re-resolves every host.
    pub fn invalidate_segments(&mut self) {
        for cache in &mut self.seg {
            if *cache != SegCache::Invalid {
                SHARD_INVALIDATED.inc();
            }
            *cache = SegCache::Invalid;
        }
        self.op_span.fill(CapSpan::NEVER);
    }

    /// Re-shard the bank into segments of `hosts` hosts. Drops every
    /// segment cache (the next step re-proves settledness); the hot columns
    /// themselves are untouched, so this is callable at any point.
    pub fn set_segment_hosts(&mut self, hosts: usize) {
        assert!(hosts >= 1, "segment size must be at least 1 host");
        self.segment_hosts = hosts;
        self.seg = vec![SegCache::Invalid; self.len().div_ceil(hosts)];
    }

    /// The host's efficiency factor ε.
    pub fn eps(&self, h: usize) -> f64 {
        self.eps[h]
    }

    /// The host's observed health.
    pub fn health(&self, h: usize) -> NodeHealth {
        self.health[h]
    }

    /// True unless the host is fail-stop dead.
    pub fn is_alive(&self, h: usize) -> bool {
        self.health[h] != NodeHealth::Dead
    }

    /// Hosts that are not fail-stop dead, from the bank's own tally.
    pub fn alive_count(&self) -> usize {
        self.len() - self.dead_hosts
    }

    /// The host's programmed frequency cap, if any.
    pub fn freq_cap(&self, h: usize) -> Option<Hertz> {
        self.freq_cap[h]
    }

    /// The most recent lead frequency the host resolved.
    pub fn last_freq(&self, h: usize) -> Hertz {
        self.last_freq[h]
    }

    /// The host's programmed node-level limit (sum over sockets), matching
    /// [`Node::power_limit`].
    pub fn power_limit(&self, h: usize) -> Watts {
        self.programmed[h]
    }

    /// The limit the host's enforcement loops currently hold (sum over
    /// sockets), bit-identical to [`Node::enforced_limit`].
    pub fn enforced_limit(&self, h: usize) -> Watts {
        let s = self.sockets;
        (h * s..(h + 1) * s)
            .map(|i| {
                if self.enabled[i] {
                    self.enforced[i]
                } else {
                    self.pl1_max
                }
            })
            .sum()
    }

    /// Cumulative exact host energy (sum over sockets), bit-identical to
    /// [`Node::energy`].
    pub fn energy(&self, h: usize) -> Joules {
        let s = self.sockets;
        (h * s..(h + 1) * s).map(|i| self.energy[i]).sum()
    }

    /// The operating point the host settles on right now, replicating
    /// [`Node::operating_point`] (PCU resolution under the enforced limit,
    /// clamped by any software frequency cap).
    pub fn operating_point<L: LoadModel + ?Sized>(
        &self,
        h: usize,
        model: &PowerModel,
        load: &L,
    ) -> OperatingPoint {
        self.resolve_host(h, model, load).0
    }

    /// [`NodeBank::operating_point`] with the span of enforced limits it
    /// holds over. The frequency-cap clamp is a function of the PCU's answer
    /// and of inputs whose writes drop the span, so it holds over the same
    /// limits the PCU's answer does.
    fn resolve_host<L: LoadModel + ?Sized>(
        &self,
        h: usize,
        model: &PowerModel,
        load: &L,
    ) -> (OperatingPoint, CapSpan) {
        let (op, span) = load.operating_point_span(model, self.eps[h], self.enforced_limit(h));
        let op = match self.freq_cap[h] {
            Some(cap_f) if op.lead > cap_f => OperatingPoint {
                lead: cap_f,
                trail: op.trail.min(cap_f),
                power: load.node_power_at(model, self.eps[h], cap_f),
            },
            _ => op,
        };
        (op, span)
    }

    /// Bring `ops` up to date for segment `sidx`: afterwards every slot of
    /// the segment holds what [`NodeBank::operating_point`] returns for its
    /// host right now (`None` for a fail-stop dead host), bit for bit. Only
    /// the hosts whose enforced limit has left the span of the point last
    /// written for them are re-resolved; each of those is passed to
    /// `rewrote` with its new slot, the others cost two compares.
    ///
    /// The spans describe the slots this method wrote, so the caller hands
    /// back the same `ops` call after call, resolves with the same `model`
    /// and `load`, and calls [`NodeBank::invalidate_segments`] when it swaps
    /// the load or writes a slot itself. A load model that bounds nothing
    /// (the [`LoadModel`] default) is re-resolved every time.
    pub fn resolve_segment<L: LoadModel + ?Sized>(
        &mut self,
        sidx: usize,
        model: &PowerModel,
        load: &L,
        ops: &mut [Option<OperatingPoint>],
        mut rewrote: impl FnMut(usize, Option<&OperatingPoint>),
    ) {
        assert_eq!(ops.len(), self.len(), "one slot per host");
        let range = self.segment_range(sidx);
        let hosts = range.len() as u64;
        let mut searched = 0;
        for h in range {
            if self.op_span[h].holds(self.enforced_limit(h)) {
                continue;
            }
            searched += 1;
            // Dead hosts drop out of the computation; the span dropped at
            // death stays empty, so the slot is simply rewritten each pass.
            ops[h] = self.is_alive(h).then(|| {
                let (op, span) = self.resolve_host(h, model, load);
                self.op_span[h] = span;
                op
            });
            rewrote(h, ops[h].as_ref());
        }
        // Zero adds are skipped, as for the outcome counters: a sweep's
        // workers would only bounce the counter's cache line.
        if searched > 0 {
            RESOLVE_SEARCHED.add(searched);
        }
        if searched < hosts {
            RESOLVE_KEPT.add(hosts - searched);
        }
    }

    /// True when no host has a pending telemetry blackout or MSR glitch —
    /// i.e. the hot flags hold no one-shot state a fast-forwarded iteration
    /// could consume differently from a stepped one.
    pub fn quiescent(&self) -> bool {
        self.telemetry_down.iter().all(|&t| t == 0) && self.msr_glitch.iter().all(|&g| !g)
    }

    /// Program a node-level power limit in the columns. The request is
    /// resolved by [`resolve_pl1_request`] — the function
    /// [`Node::set_power_limit`] calls — against the host's columns, each
    /// package's raw register column is checked against the msr-safe write
    /// mask and updated, and the enforcement inputs are re-decoded from it.
    /// Like every control write this dirties the host's segment, whatever
    /// the outcome.
    /// It does not drop the host's operating-point span: the limit is the
    /// span's argument, checked against it on the next resolve.
    pub fn set_power_limit(&mut self, h: usize, limit: Watts) -> Result<()> {
        CONTROL_WRITES.inc();
        self.dirty_segment(h);
        let s = self.sockets;
        let gate = Pl1Gate {
            dead: self.health[h] == NodeHealth::Dead,
            stuck: self.stuck[h],
            sockets: s,
            min: self.pl1_min,
            max: self.pl1_max,
            units: self.units,
        };
        let id = self.id[h].0;
        let write = resolve_pl1_request(&gate, &mut self.msr_glitch[h], || id, limit)?;
        let (target, tau) = enforcement_params_of(&write.limit, self.pl1_max);
        // Packages are written in order, as on the `Node`: one that refuses
        // the write leaves the ones before it reprogrammed.
        for i in h * s..(h + 1) * s {
            if let Err(refused) = check_write(
                address::PKG_POWER_LIMIT,
                self.pl1_write_mask,
                self.pl1_raw[i],
                write.raw,
            ) {
                self.programmed[h] = self.programmed_limit(h);
                return Err(refused);
            }
            self.pl1_raw[i] = write.raw;
            self.target[i] = target;
            self.tau[i] = tau;
            self.enabled[i] = write.limit.enabled;
        }
        // Every package now holds `write.limit`: summed as
        // [`Node::power_limit`] sums it.
        self.programmed[h] = (0..s).map(|_| write.limit.limit).sum();
        Ok(())
    }

    /// The programmed node-level limit decoded from the raw register column
    /// (sum over sockets, in [`Node::power_limit`]'s order).
    fn programmed_limit(&self, h: usize) -> Watts {
        let s = self.sockets;
        self.pl1_raw[h * s..(h + 1) * s]
            .iter()
            .map(|&raw| decode_power_limit(raw, &self.units).limit)
            .sum()
    }

    /// Program or release a frequency cap in the columns, resolved by
    /// [`resolve_freq_cap_request`] — the function [`Node::set_freq_cap`]
    /// calls. `PERF_CTL` is only ever written through this path, so its
    /// current value for the write-mask check follows from the cap column.
    pub fn set_freq_cap(&mut self, h: usize, cap: Option<Hertz>) -> Result<()> {
        CONTROL_WRITES.inc();
        self.dirty_segment(h);
        let (dead, id) = (self.health[h] == NodeHealth::Dead, self.id[h].0);
        let raw = resolve_freq_cap_request(dead, || id, cap)?;
        let current = perf_ctl_ratio(self.freq_cap[h]);
        check_write(address::PERF_CTL, self.perf_ctl_write_mask, current, raw)?;
        self.freq_cap[h] = cap;
        self.op_span[h] = CapSpan::NEVER;
        Ok(())
    }

    /// Apply an injected fault (routed through [`Node::inject`]).
    pub fn inject(&mut self, h: usize, kind: FaultKind) {
        self.with_node(h, |n| n.inject(kind));
    }

    /// Mark the host suspect, in the health column alone: trust tracking
    /// calls this every iteration, and health never feeds the stepping
    /// arithmetic, so it neither materialises a `Node` nor dirties a segment.
    pub fn mark_suspect(&mut self, h: usize) {
        self.health[h] = self.health[h].marked_suspect();
    }

    /// Clear a suspect marking (dead hosts stay dead); column-only, like
    /// [`NodeBank::mark_suspect`].
    pub fn mark_healthy(&mut self, h: usize) {
        self.health[h] = self.health[h].marked_healthy();
    }

    /// Advance every host with an operating point by `dt`, replaying exactly
    /// the arithmetic of [`Node::try_step`] over the columns:
    ///
    /// * energy accumulates at `op.power / sockets` per package;
    /// * each enforcement filter settles one `alpha` step toward its target;
    /// * `last_freq` latches `op.lead`;
    /// * telemetry blackouts count down and glitches are consumed, surfaced
    ///   as [`HostStep::Stale`].
    ///
    /// `ops[h] == None` means "do not step host `h`" (the dead-host path).
    /// Returns `true` when every stepped enforcement filter was already at
    /// its bitwise fixed point — the steady-state signal the fast-forward
    /// path keys on. `parallel` lets a bank with enough segments to step fan
    /// them out across the worker pool; a one-segment bank never does.
    ///
    /// Every host takes the full stepping arithmetic; segment caches are
    /// still maintained so a later [`NodeBank::step_all_partial`] can pick
    /// up where this left off.
    pub fn step_all(
        &mut self,
        dt: Seconds,
        ops: &[Option<OperatingPoint>],
        results: &mut [HostStep],
        parallel: bool,
    ) -> bool {
        self.step_segments(dt, ops, results, parallel, false)
            .all_settled
    }

    /// Like [`NodeBank::step_all`], but segments whose cache proves
    /// "settled, quiescent, same `dt` bits" skip the filter updates and
    /// replay instead, leaving results bit-identical to a full step. A
    /// fault or control write on one host therefore costs re-stepping only
    /// that host's segment; the rest of the fleet stays on the replay path.
    ///
    /// For a replayed segment (see [`NodeBank::segment_replayable`]):
    ///
    /// * `ops` is **not read**. The segment re-adds the energy delta its
    ///   settling step recorded, so the call is exact only while the
    ///   caller's operating points for it are the ones it settled on. That
    ///   holds by construction when they are resolved from the bank
    ///   ([`NodeBank::operating_point`] is a pure function of columns that
    ///   any invalidating change dirties) with the same model and load, or
    ///   cached from the settling iteration, which is how `JobPlatform`
    ///   drives this. A caller that swaps the load model must call
    ///   [`NodeBank::invalidate_segments`] first.
    /// * `results` is **not written**. One more step would report what the
    ///   settling step reported ([`HostStep::Fresh`] for every host it
    ///   advanced, [`HostStep::Skipped`] for the rest — a step that read a
    ///   host back `Stale` does not arm a replay), and the slots still say
    ///   so in a slice the caller hands back call after call. A caller that
    ///   passes a different slice each time must keep its own copy, as
    ///   [`crate::ClassedBank`] does.
    pub fn step_all_partial(
        &mut self,
        dt: Seconds,
        ops: &[Option<OperatingPoint>],
        results: &mut [HostStep],
        parallel: bool,
    ) -> StepReport {
        self.step_segments(dt, ops, results, parallel, true)
    }

    fn step_segments(
        &mut self,
        dt: Seconds,
        ops: &[Option<OperatingPoint>],
        results: &mut [HostStep],
        parallel: bool,
        allow_replay: bool,
    ) -> StepReport {
        let _span = pmstack_obs::span!("simhw.step_all.secs");
        STEP_ALL_CALLS.inc();
        let n = self.len();
        assert_eq!(ops.len(), n, "one operating point slot per host");
        assert_eq!(results.len(), n, "one result slot per host");
        let mut report = StepReport {
            all_settled: true,
            segments_replayed: 0,
            segments_stepped: 0,
        };
        if n == 0 {
            STEP_ALL_SETTLED.inc();
            return report;
        }
        let s = self.sockets;
        let sh = self.segment_hosts;
        let segs = self.seg.len();
        let dt_bits = dt.value().to_bits();
        let mut cols = SpanCols {
            energy: &mut self.energy,
            enforced: &mut self.enforced,
            last_freq: &mut self.last_freq,
            telemetry_down: &mut self.telemetry_down,
            msr_glitch: &mut self.msr_glitch,
            replay_delta: &mut self.replay_delta,
            results,
        };
        let (target, tau) = (&self.target, &self.tau);

        // Chunk boundaries are segment boundaries, so each worker owns its
        // segments' cache slots outright and the replay/step decision is
        // local to the chunk. A bank of one segment is the case that never
        // reaches the fan-out threshold.
        let steps = |c: &&SegCache| !(allow_replay && replayable(**c, dt_bits));
        let dirty = self.seg.iter().filter(steps).count();
        let workers = if parallel && dirty >= PAR_MIN_STEPPED_SEGMENTS {
            pmstack_exec::workers()
        } else {
            1
        };
        let run = |chunk: &mut SegChunk<'_>| {
            run_seg_chunk(chunk, s, sh, dt, dt_bits, ops, target, tau, allow_replay);
        };
        let mut fold = |chunk: &SegChunk<'_>| {
            report.all_settled &= chunk.all_settled;
            report.segments_replayed += chunk.replayed;
            report.segments_stepped += chunk.stepped;
        };
        if workers > 1 {
            let chunk_segs = segs.div_ceil(workers);
            let mut chunks: Vec<SegChunk<'_>> = Vec::with_capacity(workers);
            let mut seg_rem = &mut self.seg[..];
            let mut base = 0;
            while !seg_rem.is_empty() {
                let take_segs = chunk_segs.min(seg_rem.len());
                let take_hosts = (take_segs * sh).min(n - base);
                let (sa, st) = seg_rem.split_at_mut(take_segs);
                seg_rem = st;
                chunks.push(SegChunk::new(base, cols.split_off_front(take_hosts, s), sa));
                base += take_hosts;
            }
            pmstack_exec::par_for_each_mut(&mut chunks, |_, chunk| run(chunk));
            chunks.iter().for_each(&mut fold);
        } else {
            // The whole fleet is one chunk, built on the stack: the loop
            // allocates nothing once the caller's vectors exist.
            let mut chunk = SegChunk::new(0, cols, &mut self.seg);
            run(&mut chunk);
            fold(&chunk);
        }
        if report.segments_replayed > 0 {
            SHARD_REPLAYED.add(report.segments_replayed as u64);
        }
        if report.all_settled {
            STEP_ALL_SETTLED.inc();
        }
        report
    }

    /// Host `h` as a `Node`, materialised by value from the part prototype
    /// and the host's columns: registers, counters, filters, faults and
    /// health exactly as the same operations applied to a `Node` directly
    /// would have left them. Nothing is written back; control goes through
    /// the bank.
    pub fn node(&self, h: usize) -> Node {
        let mut node = self.part.clone().expect("a bank with hosts has a part");
        node.id = self.id[h];
        node.eps = self.eps[h];
        node.last_freq = self.last_freq[h];
        node.freq_cap = self.freq_cap[h];
        node.health = self.health[h];
        node.stuck_limit = self.stuck[h];
        node.telemetry_down_for = self.telemetry_down[h];
        node.msr_glitch = self.msr_glitch[h];
        // `PERF_CTL` is only ever written with the cap's ratio.
        let perf_ctl = perf_ctl_ratio(self.freq_cap[h]);
        for (k, pkg) in node.packages.iter_mut().enumerate() {
            let i = h * self.sockets + k;
            pkg.set_state(&PackageState {
                energy: self.energy[i],
                enforced: self.enforced[i],
                pl1_raw: self.pl1_raw[i],
                planes: self.planes.get(i).copied(),
            });
            pkg.msrs_mut().hw_store(address::PERF_CTL, perf_ctl);
        }
        node
    }

    /// Route an operation the columns do not resolve themselves (faults,
    /// sub-domain programming) through a `Node`: materialise the host, run
    /// the operation on it, ingest the result. The host's segment cache is
    /// dirtied, as by a column control write.
    pub(crate) fn with_node<T>(&mut self, h: usize, f: impl FnOnce(&mut Node) -> T) -> T {
        let mut node = self.node(h);
        let out = f(&mut node);
        self.ingest(h, &node);
        self.dirty_segment(h);
        out
    }

    /// Drop host `h`'s segment cache, counting settled→invalid transitions.
    fn dirty_segment(&mut self, h: usize) {
        let sidx = self.segment_of(h);
        if matches!(self.seg[sidx], SegCache::Settled { .. }) {
            SHARD_INVALIDATED.inc();
        }
        self.seg[sidx] = SegCache::Invalid;
    }

    /// Load every column of host `h` from `node`.
    fn ingest(&mut self, h: usize, node: &Node) {
        let s = self.sockets;
        for (k, pkg) in node.packages().iter().enumerate() {
            let i = h * s + k;
            let state = pkg.state();
            let pl = pkg.limit();
            (self.target[i], self.tau[i]) = enforcement_params_of(&pl, self.pl1_max);
            self.energy[i] = state.energy;
            self.enforced[i] = state.enforced;
            self.pl1_raw[i] = state.pl1_raw;
            self.enabled[i] = pl.enabled;
            if let Some(planes) = state.planes {
                self.planes[i] = planes;
            }
        }
        self.id[h] = node.id;
        self.eps[h] = node.eps;
        self.last_freq[h] = node.last_freq;
        self.telemetry_down[h] = node.telemetry_down_for;
        self.msr_glitch[h] = node.msr_glitch;
        self.freq_cap[h] = node.freq_cap;
        self.stuck[h] = node.stuck_limit;
        self.dead_hosts -= usize::from(self.health[h] == NodeHealth::Dead);
        self.health[h] = node.health;
        self.dead_hosts += usize::from(node.is_dead());
        self.programmed[h] = self.programmed_limit(h);
        // ε, health, the cap and the stuck latch may all have changed.
        self.op_span[h] = CapSpan::NEVER;
    }
}

/// True when a segment's cache proves the replay path is bit-identical to
/// stepping: filters settled under the *same* `dt` bits (α depends on `dt`)
/// and no one-shot telemetry state was pending.
fn replayable(cache: SegCache, dt_bits: u64) -> bool {
    matches!(
        cache,
        SegCache::Settled { dt_bits: b, quiescent: true } if b == dt_bits
    )
}

/// The cache slot a segment earns by being stepped.
fn cache_after_step(settled: bool, quiescent: bool, dt_bits: u64) -> SegCache {
    if settled {
        SegCache::Settled { dt_bits, quiescent }
    } else {
        SegCache::Invalid
    }
}

/// A disjoint span of the hot columns (per-(host,socket) columns hold
/// `hosts * sockets` elements, per-host columns `hosts`).
struct SpanCols<'a> {
    energy: &'a mut [Joules],
    enforced: &'a mut [Watts],
    last_freq: &'a mut [Hertz],
    telemetry_down: &'a mut [u32],
    msr_glitch: &'a mut [bool],
    replay_delta: &'a mut [Joules],
    results: &'a mut [HostStep],
}

impl<'a> SpanCols<'a> {
    /// Detach the first `hosts` hosts as an independent span, leaving the
    /// remainder in `self` — the splitter the chunk builders iterate.
    fn split_off_front(&mut self, hosts: usize, sockets: usize) -> SpanCols<'a> {
        fn take<'b, T>(slot: &mut &'b mut [T], n: usize) -> &'b mut [T] {
            let (head, tail) = std::mem::take(slot).split_at_mut(n);
            *slot = tail;
            head
        }
        SpanCols {
            energy: take(&mut self.energy, hosts * sockets),
            enforced: take(&mut self.enforced, hosts * sockets),
            last_freq: take(&mut self.last_freq, hosts),
            telemetry_down: take(&mut self.telemetry_down, hosts),
            msr_glitch: take(&mut self.msr_glitch, hosts),
            replay_delta: take(&mut self.replay_delta, hosts),
            results: take(&mut self.results, hosts),
        }
    }

    /// Reborrow hosts `lo..lo + len` of this span.
    fn sub(&mut self, lo: usize, len: usize, sockets: usize) -> SpanCols<'_> {
        SpanCols {
            energy: &mut self.energy[lo * sockets..(lo + len) * sockets],
            enforced: &mut self.enforced[lo * sockets..(lo + len) * sockets],
            last_freq: &mut self.last_freq[lo..lo + len],
            telemetry_down: &mut self.telemetry_down[lo..lo + len],
            msr_glitch: &mut self.msr_glitch[lo..lo + len],
            replay_delta: &mut self.replay_delta[lo..lo + len],
            results: &mut self.results[lo..lo + len],
        }
    }
}

/// One worker's segment-aligned chunk: whole segments plus their cache
/// slots.
struct SegChunk<'a> {
    base: usize,
    cols: SpanCols<'a>,
    seg: &'a mut [SegCache],
    replayed: usize,
    stepped: usize,
    all_settled: bool,
}

impl<'a> SegChunk<'a> {
    fn new(base: usize, cols: SpanCols<'a>, seg: &'a mut [SegCache]) -> Self {
        Self {
            base,
            cols,
            seg,
            replayed: 0,
            stepped: 0,
            all_settled: true,
        }
    }
}

/// Replay or step each segment a chunk owns, refreshing its cache slot.
#[allow(clippy::too_many_arguments)]
fn run_seg_chunk(
    chunk: &mut SegChunk<'_>,
    sockets: usize,
    segment_hosts: usize,
    dt: Seconds,
    dt_bits: u64,
    ops: &[Option<OperatingPoint>],
    target: &[Watts],
    tau: &[f64],
    allow_replay: bool,
) {
    let total = chunk.cols.results.len();
    let mut lo = 0;
    for si in 0..chunk.seg.len() {
        let len = segment_hosts.min(total - lo);
        let mut cols = chunk.cols.sub(lo, len, sockets);
        if allow_replay && replayable(chunk.seg[si], dt_bits) {
            replay_span(&mut cols, sockets);
            chunk.replayed += 1;
        } else {
            let (settled, quiescent) =
                step_span(&mut cols, chunk.base + lo, sockets, dt, ops, target, tau);
            chunk.seg[si] = cache_after_step(settled, quiescent, dt_bits);
            chunk.all_settled &= settled;
            chunk.stepped += 1;
        }
        lo += len;
    }
}

/// Step every host of one span, replicating [`RaplPackage::advance`]
/// bit-for-bit. `alpha` is memoized on τ: every package sharing a time
/// window (the common case — all of them) reuses one `exp()` per span
/// instead of paying one per package per host. Returns `(settled,
/// quiescent)`: whether every filter update was a bitwise no-op, and
/// whether the span neither consumed one-shot telemetry state in this step
/// nor holds any afterwards.
///
/// Not inlined: with one call site left it would be, and folded into
/// [`run_seg_chunk`]'s loop it slows the replay arm beside it (a steady
/// 100 000-host iteration measured 0.068 ms → 0.074 ms).
///
/// [`RaplPackage::advance`]: crate::rapl::RaplPackage::advance
#[inline(never)]
fn step_span(
    cols: &mut SpanCols<'_>,
    base: usize,
    sockets: usize,
    dt: Seconds,
    ops: &[Option<OperatingPoint>],
    target: &[Watts],
    tau: &[f64],
) -> (bool, bool) {
    let mut memo_tau = f64::NAN;
    let mut memo_alpha = 0.0;
    let mut settled = true;
    let mut quiescent = true;
    for i in 0..cols.results.len() {
        let h = base + i;
        let Some(op) = ops[h] else {
            cols.results[i] = HostStep::Skipped;
            cols.replay_delta[i] = Joules::ZERO;
            quiescent &= cols.telemetry_down[i] == 0 && !cols.msr_glitch[i];
            continue;
        };
        cols.last_freq[i] = op.lead;
        let delta = op.power / sockets as f64 * dt;
        cols.replay_delta[i] = delta;
        for k in 0..sockets {
            let gi = h * sockets + k;
            let li = i * sockets + k;
            cols.energy[li] += delta;
            let t = tau[gi];
            if t != memo_tau {
                memo_alpha = 1.0 - (-dt.value() / t).exp();
                memo_tau = t;
            }
            let held = cols.enforced[li];
            let next = held + (target[gi] - held) * memo_alpha;
            if next.value().to_bits() != held.value().to_bits() {
                settled = false;
            }
            cols.enforced[li] = next;
        }
        // A host that reads back `Stale` consumed one-shot state: the next
        // step reports something else, so this one cannot be replayed.
        cols.results[i] = if cols.telemetry_down[i] > 0 {
            cols.telemetry_down[i] -= 1;
            quiescent = false;
            HostStep::Stale
        } else if std::mem::take(&mut cols.msr_glitch[i]) {
            quiescent = false;
            HostStep::Stale
        } else {
            HostStep::Fresh
        };
    }
    (settled, quiescent)
}

/// Advance a settled, quiescent span without touching the filters, the
/// caller's `ops` or its `results`: every energy cell takes the delta its
/// host's last step recorded — the same `op.power / sockets * dt` product a
/// real step would add, `+0.0` for a host that step skipped. `last_freq`
/// already holds what that step latched, `results` what it reported.
fn replay_span(cols: &mut SpanCols<'_>, sockets: usize) {
    debug_assert!(
        cols.telemetry_down.iter().all(|&t| t == 0) && cols.msr_glitch.iter().all(|&g| !g),
        "replayed a span holding one-shot telemetry state"
    );
    add_per_host(cols.energy, cols.replay_delta, sockets);
}

/// Add `deltas[h]` to each of host `h`'s `sockets` energy cells, for every
/// host, with no branch in the loop. The common socket counts get a
/// fixed-width inner loop (a dynamic chunk width measured 2x slower).
fn add_per_host(energy: &mut [Joules], deltas: &[Joules], sockets: usize) {
    fn fixed<const S: usize>(energy: &mut [Joules], deltas: &[Joules]) {
        for (cells, &delta) in energy.chunks_exact_mut(S).zip(deltas) {
            for e in cells {
                *e += delta;
            }
        }
    }
    match sockets {
        0 => {}
        1 => fixed::<1>(energy, deltas),
        2 => fixed::<2>(energy, deltas),
        _ => {
            for (cells, &delta) in energy.chunks_exact_mut(sockets).zip(deltas) {
                for e in cells {
                    *e += delta;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::CoreClass;
    use crate::quartz::quartz_spec;

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

    fn bits_of(col: &[Hertz]) -> Vec<u64> {
        col.iter().map(|f| f.value().to_bits()).collect()
    }

    fn fleet(n: usize) -> (PowerModel, Vec<Node>) {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let nodes = (0..n)
            .map(|i| Node::new(NodeId(i), &model, 0.9 + 0.02 * i as f64).unwrap())
            .collect();
        (model, nodes)
    }

    /// Step the reference fleet and the bank in lockstep, asserting every
    /// observable is bit-identical after each iteration.
    fn assert_lockstep(
        model: &PowerModel,
        load: &FlatLoad,
        reference: &mut [Node],
        bank: &mut NodeBank,
        dt: Seconds,
        iterations: usize,
    ) {
        let n = reference.len();
        let mut ops = vec![None; n];
        let mut results = vec![HostStep::Skipped; n];
        for _ in 0..iterations {
            for (h, node) in reference.iter().enumerate() {
                ops[h] = (!node.is_dead()).then(|| bank.operating_point(h, model, load));
            }
            bank.step_all(dt, &ops, &mut results, false);
            for node in reference.iter_mut() {
                let _ = node.try_step(model, load, dt);
            }
            for (h, node) in reference.iter().enumerate() {
                assert_eq!(
                    bank.energy(h).value().to_bits(),
                    node.energy().value().to_bits(),
                    "energy diverged on host {h}"
                );
                assert_eq!(
                    bank.enforced_limit(h).value().to_bits(),
                    node.enforced_limit().value().to_bits(),
                    "enforced limit diverged on host {h}"
                );
            }
        }
    }

    #[test]
    fn bank_steps_bit_identically_to_nodes() {
        let (model, mut reference) = fleet(5);
        let load = FlatLoad { kappa: 2.7 };
        let mut bank = NodeBank::from_nodes(reference.clone());
        for (h, node) in reference.iter_mut().enumerate() {
            node.set_power_limit(Watts(170.0 + 10.0 * h as f64))
                .unwrap();
            bank.set_power_limit(h, Watts(170.0 + 10.0 * h as f64))
                .unwrap();
        }
        reference[2]
            .set_freq_cap(Some(Hertz::from_ghz(1.9)))
            .unwrap();
        bank.set_freq_cap(2, Some(Hertz::from_ghz(1.9))).unwrap();
        assert_lockstep(&model, &load, &mut reference, &mut bank, Seconds(0.2), 40);
    }

    #[test]
    fn bank_replicates_fault_semantics() {
        let (model, mut reference) = fleet(4);
        let load = FlatLoad { kappa: 2.5 };
        let mut bank = NodeBank::from_nodes(reference.clone());
        for (h, kind) in [
            (0, FaultKind::NodeDeath),
            (1, FaultKind::StuckRapl { pinned_w: 140.0 }),
            (2, FaultKind::TelemetryDropout { iterations: 3 }),
            (3, FaultKind::TransientMsrFault),
        ] {
            reference[h].inject(kind);
            bank.inject(h, kind);
        }
        assert!(!bank.is_alive(0));
        assert!(!bank.quiescent());
        // The stuck write latched the pinned value on both sides.
        assert_eq!(
            bank.power_limit(1).value().to_bits(),
            reference[1].power_limit().value().to_bits()
        );
        assert_lockstep(&model, &load, &mut reference, &mut bank, Seconds(0.2), 6);
        assert!(bank.quiescent(), "dropout and glitch should be consumed");
    }

    /// `step_all` never replays, so every one of the 20 two-host segments is
    /// stepped on every call — enough to fan out (a one-segment bank never
    /// does, whatever `parallel` says).
    #[test]
    fn parallel_and_sequential_stepping_agree() {
        let (model, nodes) = fleet(2 * (PAR_MIN_STEPPED_SEGMENTS + 4));
        let load = FlatLoad { kappa: 2.6 };
        let mut seq = NodeBank::from_nodes(nodes.clone());
        let mut par = NodeBank::from_nodes(nodes);
        seq.set_segment_hosts(2);
        par.set_segment_hosts(2);
        for h in 0..seq.len() {
            seq.set_power_limit(h, Watts(180.0)).unwrap();
            par.set_power_limit(h, Watts(180.0)).unwrap();
        }
        let mut results_a = vec![HostStep::Skipped; seq.len()];
        let mut results_b = vec![HostStep::Skipped; par.len()];
        let mut ops = vec![None; seq.len()];
        for _ in 0..10 {
            for (h, op) in ops.iter_mut().enumerate() {
                *op = Some(seq.operating_point(h, &model, &load));
            }
            let sa = seq.step_all(Seconds(0.2), &ops, &mut results_a, false);
            let sb = par.step_all(Seconds(0.2), &ops, &mut results_b, true);
            assert_eq!(sa, sb);
            assert_eq!(results_a, results_b);
        }
        for h in 0..seq.len() {
            assert_eq!(
                seq.energy(h).value().to_bits(),
                par.energy(h).value().to_bits()
            );
        }
    }

    /// The multi-segment fan-out only engages from `PAR_MIN_STEPPED_SEGMENTS`
    /// dirty segments up, which the small proptest fleets rarely reach: pin
    /// it here. 41 hosts in 2-host segments (21, the last one ragged), 17 of
    /// them dirtied and 4 left replayable: chunked across the pool or run on
    /// the calling thread, every bit and every report must agree.
    #[test]
    fn fanned_out_segments_agree_with_the_calling_thread() {
        let (model, nodes) = fleet(41);
        let load = FlatLoad { kappa: 2.6 };
        let dt = Seconds(0.2);
        let mut seq = NodeBank::from_nodes(nodes);
        seq.set_segment_hosts(2);
        let n = seq.len();
        let mut ops = vec![None; n];
        let mut results = vec![HostStep::Skipped; n];
        let resolve = |bank: &NodeBank, ops: &mut [Option<OperatingPoint>]| {
            for (h, op) in ops.iter_mut().enumerate() {
                *op = Some(bank.operating_point(h, &model, &load));
            }
        };
        for _ in 0..3 {
            resolve(&seq, &mut ops);
            seq.step_all_partial(dt, &ops, &mut results, false);
        }
        assert!((0..seq.num_segments()).all(|s| seq.segment_replayable(s, dt)));
        for s in 0..PAR_MIN_STEPPED_SEGMENTS + 1 {
            let h = seq.segment_range(s).start;
            seq.set_power_limit(h, Watts(150.0 + s as f64)).unwrap();
        }
        seq.inject(40, FaultKind::TelemetryDropout { iterations: 2 });
        let mut par = seq.clone();
        let mut par_results = results.clone();
        for _ in 0..6 {
            resolve(&seq, &mut ops);
            let a = seq.step_all_partial(dt, &ops, &mut results, false);
            let b = par.step_all_partial(dt, &ops, &mut par_results, true);
            assert_eq!(a, b);
            assert!(a.segments_replayed >= 3 && a.segments_stepped >= 17);
            assert_eq!(results, par_results);
            let bits = |col: &[Joules]| col.iter().map(|e| e.value().to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&seq.energy), bits(&par.energy));
            let bits = |col: &[Watts]| col.iter().map(|e| e.value().to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&seq.enforced), bits(&par.enforced));
            assert_eq!(seq.seg, par.seg);
        }
    }

    /// The replay adds the recorded delta through a fixed-width loop for 1
    /// and 2 sockets and a chunked one for any other count, and a dead host
    /// replays as `+0.0`. For every socket count and dead set, `k` replays
    /// of a settled bank must leave exactly the bits `k` full steps leave,
    /// without reading the `ops` or touching the `results` handed over.
    #[test]
    fn replaying_a_settled_bank_is_bit_identical_to_stepping_it() {
        let load = FlatLoad { kappa: 2.6 };
        let dt = Seconds(0.21);
        for sockets in [1usize, 2, 3] {
            let mut spec = quartz_spec();
            spec.sockets_per_node = sockets;
            spec.cores_used_per_node = spec
                .cores_used_per_node
                .min(sockets * spec.cores_per_socket);
            let model = PowerModel::new(spec).unwrap();
            let nodes: Vec<Node> = (0..37)
                .map(|i| Node::new(NodeId(i), &model, 0.9 + 0.01 * (i % 13) as f64).unwrap())
                .collect();
            for dead in [vec![], vec![5], vec![0, 1, 2, 17, 35, 36]] {
                let mut bank = NodeBank::from_nodes(nodes.clone());
                bank.set_segment_hosts(8);
                assert_eq!(bank.sockets(), sockets);
                let n = bank.len();
                for h in 0..n {
                    bank.set_power_limit(h, Watts(80.0 * sockets as f64))
                        .unwrap();
                }
                for &h in &dead {
                    bank.inject(h, FaultKind::NodeDeath);
                }
                assert_eq!(bank.alive_count(), n - dead.len());
                let mut ops = vec![None; n];
                let mut results = vec![HostStep::Skipped; n];
                let mut settled = false;
                for _ in 0..2000 {
                    for (h, op) in ops.iter_mut().enumerate() {
                        *op = bank
                            .is_alive(h)
                            .then(|| bank.operating_point(h, &model, &load));
                    }
                    settled = bank.step_all(dt, &ops, &mut results, false);
                    if settled {
                        break;
                    }
                }
                assert!(settled, "enforcement must reach a bitwise fixed point");
                assert!((0..bank.num_segments()).all(|s| bank.segment_replayable(s, dt)));
                assert!(!bank.segment_replayable(0, Seconds(0.2)), "other dt");

                let mut stepped = bank.clone();
                let expected = results.clone();
                let junk = vec![None; n];
                for _ in 0..7 {
                    stepped.step_all(dt, &ops, &mut results, false);
                    assert_eq!(results, expected);
                    let mut untouched = vec![HostStep::Stale; n];
                    let report = bank.step_all_partial(dt, &junk, &mut untouched, false);
                    assert_eq!(report.segments_replayed, bank.num_segments());
                    assert!(untouched.iter().all(|&r| r == HostStep::Stale));
                }
                let bits =
                    |col: &[Joules]| col.iter().map(|e| e.value().to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&bank.energy),
                    bits(&stepped.energy),
                    "{sockets} sockets, dead hosts {dead:?}"
                );
                assert_eq!(bits_of(&bank.last_freq), bits_of(&stepped.last_freq));

                // A load swap the bank cannot see: the caller invalidates,
                // and the next call steps with the new operating points.
                bank.invalidate_segments();
                let report = bank.step_all_partial(dt, &ops, &mut results, false);
                assert_eq!(report.segments_replayed, 0);
            }
        }
    }

    /// A lock bit preset through the hardware backdoor makes `msr-safe`
    /// refuse the limit write. The bank checks its raw-register column, the
    /// `Node` its device; both refuse the same package with the same error
    /// and leave the packages before it reprogrammed. The bank ingests the
    /// locked register and materialises it back bit for bit (the
    /// round trip of every other state is in `tests/shards.rs`).
    #[test]
    fn locked_pl1_register_refuses_the_write_on_both_sides() {
        use crate::error::SimHwError;
        const LOCK: u64 = 1 << 63;
        for locked in [vec![0], vec![1], vec![0, 1]] {
            let (_, mut reference) = fleet(2);
            for &k in &locked {
                reference[1].lock_pl1(k);
            }
            let mut bank = NodeBank::from_nodes(reference.clone());
            assert_eq!(format!("{:?}", bank.node(1)), format!("{:?}", reference[1]));
            for w in [150.0, 190.0] {
                let got = bank.set_power_limit(1, Watts(w));
                assert_eq!(got, reference[1].set_power_limit(Watts(w)));
                assert_eq!(
                    got,
                    Err(SimHwError::MsrReadOnlyBits {
                        address: address::PKG_POWER_LIMIT,
                        offending: LOCK,
                    })
                );
                assert_eq!(
                    bank.power_limit(1).value().to_bits(),
                    reference[1].power_limit().value().to_bits()
                );
                let node = bank.node(1);
                for (got, want) in node.packages().iter().zip(reference[1].packages()) {
                    let raw =
                        |p: &crate::rapl::RaplPackage| p.msrs().read(address::PKG_POWER_LIMIT);
                    assert_eq!(raw(got), raw(want));
                    assert_eq!(got.limit(), want.limit());
                }
            }
            // The unlocked host next to it still takes writes.
            bank.set_power_limit(0, Watts(150.0)).unwrap();
        }
    }

    /// The settable range is kept once per bank, so a bank over two parts
    /// would clamp one of them to the other's range: refuse to build it.
    #[test]
    #[should_panic(expected = "one part and one class")]
    fn mixed_parts_do_not_share_a_bank() {
        let (_, mut nodes) = fleet(1);
        let mut spec = quartz_spec();
        spec.tdp_per_socket = spec.tdp_per_socket * 1.5;
        let other = PowerModel::new(spec).unwrap();
        nodes.push(Node::new(NodeId(1), &other, 1.0).unwrap());
        let _ = NodeBank::from_nodes(nodes);
    }
}
