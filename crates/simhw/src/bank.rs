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
//!   request entirely in the columns — through `rapl::resolve_pl1_request`
//!   and `node::resolve_freq_cap_request`, the same crate-private functions
//!   the `Node` methods call, so dead-node rejection, glitch consumption,
//!   stuck-RAPL latching, range clamping and the msr-safe write mask have
//!   one implementation.
//! * **one batched control write** — the runtime re-caps every host every
//!   control interval, so a limit write is [`NodeBank::set_power_limits`]:
//!   one write over many hosts, of which [`NodeBank::set_power_limit`] is
//!   the one-host case. Every field of the request but the limit is a
//!   constant of the bank, encoded once; per host the write is the limit
//!   field's rounding and its decode, each segment is dirtied once, and the
//!   counters take one add per write. A host whose request needs more —
//!   death, a pending glitch, a stuck latch, a clamp the recorder journals,
//!   a register the mask refuses — goes through `resolve_pl1_request` on
//!   the calling thread, in host order; a write in which no host can fail
//!   runs in segment-aligned chunks on the exec pool.
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
//! [`crate::rapl::RaplPackage::advance`] over the columns — same operand values, same
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
//! proves "settled, quiescent, same `dt` bits" is *replayed*, while dirty
//! segments take the full stepping arithmetic. One more step of a replayed
//! segment would change nothing but its energy cells, each by its host's
//! recorded delta, because
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
//! So a replay is a **count**: the segment's pending-replay counter goes up
//! by one and no per-host column is touched. `k` pending replays stand for
//! `k` sequential `cell += delta` on every energy cell, and [`repeat_add`]
//! computes exactly that, bit for bit, in O(1 + binades crossed) (its docs
//! have the argument). Readers compute: [`NodeBank::energy`],
//! [`NodeBank::energies`] and [`NodeBank::node`] (whose energy-status MSR
//! follows) return the accrued value without caching it. Every path that
//! writes an energy cell first writes the count into its segment's cells,
//! with the delta the replays were recorded under, and zeroes it: the step
//! arm (before the step overwrites the delta), `with_node` (whose
//! materialise → ingest round trip rewrites the host's cells) and
//! [`NodeBank::set_segment_hosts`] (before the counts lose their segments).
//! A limit, cap or invalidation writes no energy and leaves the count for
//! the next step. [`NodeBank::apply_pending_replays`] writes every count,
//! for a caller that reads every iteration and wants each read to stay one
//! add per cell; correctness never needs it.
//!
//! The bank owns the delta, so a replay reads nothing of the caller's `ops`
//! and writes nothing to its `results`; the price is the contract on
//! [`NodeBank::step_all_partial`]. Per-(host,socket) columns are contiguous
//! per segment, so a step runs over dense slabs.
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
//! [`NodeBank::set_power_limits`] deliberately does not: the limit is the
//! span's argument, so a write that lands inside the span keeps the point
//! and one that lands outside is caught by the next check.
//! [`NodeBank::operating_point`] ignores spans and stays the oracle.
//!
//! A resolve that searches looks the load's [`CandidateTable`] up once per
//! segment ([`LoadModel::candidates`]) and counts each host's fitting
//! candidates over its coefficient columns. A caller's pre-step pass runs
//! through [`NodeBank::resolve_pieces`], which fans it out by segment: the
//! bank's step, its batched write and that pass all cut their columns with
//! one splitter ([`SegSplit`], [`par_segments`]).

use crate::error::{Result, SimHwError};
use crate::faults::{FaultKind, NodeHealth};
use crate::msr::{address, check_write};
use crate::node::{check_eps, perf_ctl_ratio, resolve_freq_cap_request, Node, NodeId};
use crate::power::{CandidateTable, CapSpan, LoadModel, OperatingPoint, PowerModel};
use crate::rapl::{
    decode_limit_field, decode_power_limit, encode_limit_field, encode_power_limit,
    enforcement_params_of, pl1_request, resolve_pl1_request, PackageState, Pl1Gate, PlaneState,
    RaplPackage, RaplUnits, DEFAULT_UNIT_REGISTER,
};
use crate::units::{Hertz, Joules, Seconds, Watts};
use pmstack_obs::StaticCounter;
use std::ops::Range;

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
/// Observability: pending replays written into energy cells (a segment's
/// whole count in one add per application). A steady iteration leaves it.
static REPLAYS_APPLIED: StaticCounter = StaticCounter::new("simhw.bank.replays.applied");
/// Observability: limit and frequency-cap requests resolved in the columns.
static CONTROL_WRITES: StaticCounter = StaticCounter::new("simhw.bank.control_writes");
/// Observability: hosts a [`NodeBank::resolve_segment`] pass left alone
/// because their enforced limit was still inside the cached point's span.
static RESOLVE_KEPT: StaticCounter = StaticCounter::new("simhw.bank.resolve.kept");
/// Observability: hosts a [`NodeBank::resolve_segment`] pass re-resolved.
static RESOLVE_SEARCHED: StaticCounter = StaticCounter::new("simhw.bank.resolve.searched");

/// A multi-segment step fans out across the resident pool only when at
/// least this many segments are stepped; chunks balance stepped segments.
/// A replayed segment is a count increment, nothing per host, so it is no
/// work to share: a steady iteration (every segment replays) and churn (one
/// dirty segment) stay on the calling thread. A round costs ~2 µs (the
/// wake, the chunk plan, the join) against ~10–16 µs to step a
/// default-sized segment of 2-socket hosts. On a 2-vCPU Xeon, 100 000
/// hosts in 98 segments, medians of 600 iterations, inline → fanned: two
/// stepped segments 28–33 → 19–25 µs, four 70 → 37 µs; one 9.4 → 9.5 µs
/// (no second chunk to give it), and a steady iteration takes 0.4 µs.
/// (Counted in segments, not hosts, so the tiny segments the test suites
/// shard small fleets into still reach the fan-out.)
const PAR_MIN_STEPPED: usize = 2;

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
    /// Per segment: replays since its energy cells were last written, each
    /// standing for one add of every host's `replay_delta`.
    pending: Vec<u64>,
    /// Segment replays counted over the bank's life: what
    /// `simhw.bank.shard.replayed` adds for this bank alone, recorder on or
    /// off.
    replays: u64,

    /// Fail-stop dead hosts; zero selects the branch-free energy replay.
    dead_hosts: usize,

    // Per bank: every package of a bank is the same part behind the same
    // allowlist (one machine spec per bank, see `from_nodes`).
    units: RaplUnits,
    pl1_min: Watts,
    pl1_max: Watts,
    pl1_write_mask: u64,
    perf_ctl_write_mask: u64,
    /// Every field a limit write programs besides the limit itself (enable,
    /// clamp, the one-second window of `rapl::pl1_request`), encoded once,
    /// and the τ they decode to.
    pl1_fields: u64,
    pl1_tau: f64,
    /// Some host may hold state its limit write cannot take on the batched
    /// path: a pending MSR glitch, a stuck latch, or a PL1 register whose
    /// bits outside the write mask differ from `pl1_fields`. Set by every
    /// ingest that brings one in, cleared by the scan a multi-segment write
    /// makes while it is set (see [`NodeBank::set_power_limits`]).
    write_hazard: bool,

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
    /// its cache slot is `Settled` and quiescent, and what its pending
    /// replays add.
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
        let mut bank = Self::filled(nodes.first(), nodes.len());
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

    /// Build a bank of `hosts.len()` hosts, each in the state `part` is in
    /// but with its own id and efficiency factor ε: what
    /// [`NodeBank::from_nodes`] builds from one `Node` per host made like
    /// `part` (for a fresh fleet, `Node::new(id, model, ε)` or
    /// [`Node::with_class`]), without making them. Each column is filled
    /// from the one part.
    ///
    /// # Errors
    /// An ε that [`Node::new`] refuses, with its error.
    pub fn from_part(part: Node, hosts: &[(NodeId, f64)]) -> Result<Self> {
        let mut bank = Self::filled(Some(&part), hosts.len());
        for (h, &(id, eps)) in hosts.iter().enumerate() {
            check_eps(eps)?;
            bank.id[h] = id;
            bank.eps[h] = eps;
        }
        bank.part = Some(part);
        Ok(bank)
    }

    /// Columns for `n` hosts, each holding `template`'s state (id and ε
    /// included), and no part yet: the one allocation behind both
    /// constructors. `from_nodes` then ingests each host's own node over
    /// its row, `from_part` writes each host's id and ε.
    fn filled(template: Option<&Node>, n: usize) -> Self {
        let pkgs = template.map_or(&[][..], |t| t.packages());
        let sockets = pkgs.len();
        let first = pkgs.first();
        let units = first.map_or(RaplUnits::decode(DEFAULT_UNIT_REGISTER), |p| p.units());
        let pl1_min = first.map_or(Watts::ZERO, |p| p.min_limit());
        let pl1_max = first.map_or(Watts::ZERO, |p| p.max_limit());
        let write_mask = |addr| first.map_or(0, |p| p.msrs().write_mask(addr));
        // One row of a per-(host, socket) column, repeated for every host.
        fn tile<T: Copy>(
            pkgs: &[RaplPackage],
            n: usize,
            cell: impl Fn(&RaplPackage) -> T,
        ) -> Vec<T> {
            pkgs.iter().map(cell).collect::<Vec<_>>().repeat(n)
        }
        // A per-host column (empty with no template, which means no hosts).
        fn per_host<T: Clone>(t: Option<&Node>, n: usize, cell: impl Fn(&Node) -> T) -> Vec<T> {
            t.map_or(Vec::new(), |t| vec![cell(t); n])
        }
        let params = |p: &RaplPackage| enforcement_params_of(&p.limit(), pl1_max);
        let pl1_fields = encode_power_limit(&pl1_request(Watts::ZERO), &units);
        let pl1_tau = enforcement_params_of(&decode_power_limit(pl1_fields, &units), pl1_max).1;
        let planes = match first.and_then(|p| p.state().planes) {
            Some(_) => tile(pkgs, n, |p| {
                p.state()
                    .planes
                    .expect("every package of a part has planes")
            }),
            None => Vec::new(),
        };
        let mut bank = Self {
            part: None,
            sockets,
            segment_hosts: DEFAULT_SEGMENT_HOSTS,
            seg: vec![SegCache::Invalid; n.div_ceil(DEFAULT_SEGMENT_HOSTS)],
            pending: vec![0; n.div_ceil(DEFAULT_SEGMENT_HOSTS)],
            replays: 0,
            dead_hosts: if template.is_some_and(Node::is_dead) {
                n
            } else {
                0
            },
            units,
            pl1_min,
            pl1_max,
            pl1_write_mask: write_mask(address::PKG_POWER_LIMIT),
            perf_ctl_write_mask: write_mask(address::PERF_CTL),
            pl1_fields,
            pl1_tau,
            write_hazard: false,
            energy: tile(pkgs, n, |p| p.state().energy),
            enforced: tile(pkgs, n, |p| p.state().enforced),
            pl1_raw: tile(pkgs, n, |p| p.state().pl1_raw),
            target: tile(pkgs, n, |p| params(p).0),
            tau: tile(pkgs, n, |p| params(p).1),
            enabled: tile(pkgs, n, |p| p.limit().enabled),
            last_freq: per_host(template, n, |t| t.last_freq),
            telemetry_down: per_host(template, n, |t| t.telemetry_down_for),
            msr_glitch: per_host(template, n, |t| t.msr_glitch),
            freq_cap: per_host(template, n, |t| t.freq_cap),
            programmed: vec![Watts(0.0); n],
            replay_delta: vec![Joules::ZERO; n],
            op_span: vec![CapSpan::NEVER; n],
            id: per_host(template, n, |t| t.id),
            eps: per_host(template, n, |t| t.eps),
            health: per_host(template, n, |t| t.health),
            stuck: per_host(template, n, |t| t.stuck_limit),
            planes,
        };
        if n > 0 {
            let programmed = bank.programmed_limit(0);
            bank.programmed.fill(programmed);
            // Every row is the template's.
            bank.write_hazard = bank.hazardous(0);
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
    #[inline]
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
    #[inline]
    pub fn segment_range(&self, sidx: usize) -> std::ops::Range<usize> {
        let lo = sidx * self.segment_hosts;
        lo..(lo + self.segment_hosts).min(self.len())
    }

    /// Segment replays this bank has counted over its life (each one
    /// segment advanced on the replay path): `simhw.bank.shard.replayed`
    /// for this bank alone, whatever else runs in the process.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// True when segment `sidx`'s enforcement filters were all at their
    /// bitwise fixed point after the last step, with no control op or fault
    /// on the segment since.
    #[inline]
    pub fn segment_settled(&self, sidx: usize) -> bool {
        matches!(self.seg[sidx], SegCache::Settled { .. })
    }

    /// True when segment `sidx` is settled and its last step was quiescent
    /// (no host read back `Stale`, no one-shot telemetry state left), at
    /// whatever `dt`: one more step reports what that one did and moves
    /// no host's lead. Its filters may still move if the next `dt` differs
    /// (α depends on `dt`); the step that does so leaves the segment
    /// unsettled, so the next test fails.
    #[inline]
    pub fn segment_stable(&self, sidx: usize) -> bool {
        matches!(
            self.seg[sidx],
            SegCache::Settled {
                quiescent: true,
                ..
            }
        )
    }

    /// True when [`NodeBank::step_all_partial`] at this `dt` would replay
    /// segment `sidx` instead of stepping it.
    #[inline]
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

    /// Re-shard the bank into segments of `hosts` hosts. Writes every
    /// pending replay into the energy cells (the counts are per old
    /// segment) and drops every segment cache (the next step re-proves
    /// settledness); the state the columns describe is unchanged, so this
    /// is callable at any point.
    pub fn set_segment_hosts(&mut self, hosts: usize) {
        assert!(hosts >= 1, "segment size must be at least 1 host");
        self.apply_pending_replays();
        self.segment_hosts = hosts;
        self.seg = vec![SegCache::Invalid; self.len().div_ceil(hosts)];
        self.pending = vec![0; self.seg.len()];
    }

    /// Write every segment's pending replays into its energy cells and zero
    /// the counts. Nothing reads differently afterwards; a caller that reads
    /// the energy every iteration calls this once per iteration so each read
    /// stays one add per cell, however long segments stay clean.
    pub fn apply_pending_replays(&mut self) {
        let applied = (0..self.pending.len())
            .map(|sidx| self.apply_segment_replays(sidx))
            .sum();
        count_applied(applied);
    }

    /// Write segment `sidx`'s pending replays into its energy cells, with
    /// the deltas they were recorded under, and zero its count. Returns the
    /// count, for the caller to [`count_applied`].
    fn apply_segment_replays(&mut self, sidx: usize) -> u64 {
        let k = std::mem::take(&mut self.pending[sidx]);
        if k > 0 {
            let range = self.segment_range(sidx);
            let s = self.sockets;
            let energy = &mut self.energy[range.start * s..range.end * s];
            apply_replays(energy, &self.replay_delta[range], s, k);
        }
        k
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
        self.resolve_in().enforced_limit(h)
    }

    /// Every host of segment `sidx`'s [`NodeBank::enforced_limit`], written
    /// into `out` at the host's index: one pass over the segment's cells
    /// with the socket count fixed for the common parts.
    pub fn segment_enforced_limits(&self, sidx: usize, out: &mut [Watts]) {
        self.resolve_in().segment_enforced_limits(sidx, 0, out);
    }

    /// Cumulative exact host energy (sum over sockets), bit-identical to
    /// [`Node::energy`]: the cells with the segment's pending replays
    /// accrued.
    pub fn energy(&self, h: usize) -> Joules {
        let s = self.sockets;
        let k = self.pending[self.segment_of(h)];
        accrued(&self.energy[h * s..(h + 1) * s], self.replay_delta[h], k)
    }

    /// Every host's [`NodeBank::energy`], in host order, walked segment by
    /// segment.
    pub fn energies(&self) -> impl Iterator<Item = Joules> + '_ {
        let s = self.sockets;
        (self.pending.iter().enumerate()).flat_map(move |(sidx, &k)| {
            let hosts = self.segment_range(sidx);
            let cells = self.energy[hosts.start * s..hosts.end * s].chunks_exact(s);
            (cells.zip(&self.replay_delta[hosts]))
                .map(move |(cells, &delta)| accrued(cells, delta, k))
        })
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
        let input = self.resolve_in();
        let table = load.candidates(model);
        input
            .resolve_host(h, input.enforced_limit(h), model, load, table)
            .0
    }

    /// Bring `ops` up to date for segment `sidx`: afterwards every slot of
    /// the segment holds what [`NodeBank::operating_point`] returns for its
    /// host right now (`None` for a fail-stop dead host), bit for bit. Only
    /// the hosts whose enforced limit has left the span of the point last
    /// written for them are re-resolved; each of those is passed to
    /// `rewrote` with its new slot, the others cost two compares.
    ///
    /// `limits` holds, at each of the segment's host indices, the host's
    /// [`NodeBank::enforced_limit`] as it is now — what
    /// [`NodeBank::segment_enforced_limits`] writes — so a caller that
    /// observes the limits anyway computes them once.
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
        limits: &[Watts],
        ops: &mut [Option<OperatingPoint>],
        rewrote: impl FnMut(usize, Option<&OperatingPoint>),
    ) {
        assert_eq!(ops.len(), self.len(), "one slot per host");
        assert_eq!(limits.len(), self.len(), "one limit per host");
        let segs = 0..self.seg.len();
        let (input, op_span) = self.resolve_parts();
        let mut resolver = Resolver::new(input, op_span, segs);
        resolver.resolve_segment(sidx, model, load, limits, ops, rewrote);
        resolver.flush();
    }

    /// Run a pre-step pass over the bank's segments and sum what it
    /// returns: `run` gets a [`Resolver`] and `cols`, the caller's per-host
    /// and per-segment columns. With `fan_out` off that is one call on the
    /// calling thread covering every segment; with it on, the segments are
    /// split as [`par_segments`] splits them, balanced on the segments
    /// [`SegSplit::weight`] marks (the ones that will resolve), each chunk
    /// one call with a [`Resolver`] over its segments. The caller decides
    /// `fan_out` from what it already knows, so a pass that stays on the
    /// calling thread costs no count of the segments.
    ///
    /// Every call sees the same bank and writes only its own hosts' spans,
    /// so the outcome does not depend on the split; the resolve counters
    /// take one add per call.
    pub fn resolve_pieces<C: SegSplit>(
        &mut self,
        cols: C,
        fan_out: bool,
        run: impl Fn(&mut Resolver<'_>, &mut C) -> usize + Sync,
    ) -> usize {
        let (n, sh, segs) = (self.len(), self.segment_hosts, self.seg.len());
        let (input, op_span) = self.resolve_parts();
        let piece = |segs: Range<usize>, op_span: &mut [CapSpan], cols: &mut C| {
            let mut resolver = Resolver::new(input, op_span, segs);
            let out = run(&mut resolver, cols);
            resolver.flush();
            out
        };
        if !fan_out {
            let mut cols = cols;
            return piece(0..segs, op_span, &mut cols);
        }
        let cols = (Spans(op_span), cols);
        par_segments(cols, segs, sh, n, |segs, (Spans(op_span), cols)| {
            piece(segs, op_span, cols)
        })
        .into_iter()
        .sum()
    }

    /// The columns a resolve reads.
    fn resolve_in(&self) -> ResolveIn<'_> {
        ResolveIn {
            sockets: self.sockets,
            segment_hosts: self.segment_hosts,
            len: self.len(),
            pl1_max: self.pl1_max,
            enforced: &self.enforced,
            enabled: &self.enabled,
            eps: &self.eps,
            freq_cap: &self.freq_cap,
            health: &self.health,
        }
    }

    /// The columns a resolve reads, beside the span column it writes (the
    /// fields of `resolve_in`, borrowed one by one).
    fn resolve_parts(&mut self) -> (ResolveIn<'_>, &mut [CapSpan]) {
        let input = ResolveIn {
            sockets: self.sockets,
            segment_hosts: self.segment_hosts,
            len: self.id.len(),
            pl1_max: self.pl1_max,
            enforced: &self.enforced,
            enabled: &self.enabled,
            eps: &self.eps,
            freq_cap: &self.freq_cap,
            health: &self.health,
        };
        (input, &mut self.op_span)
    }

    /// True when no host has a pending telemetry blackout or MSR glitch —
    /// i.e. the hot flags hold no one-shot state a fast-forwarded iteration
    /// could consume differently from a stepped one.
    pub fn quiescent(&self) -> bool {
        self.telemetry_down.iter().all(|&t| t == 0) && self.msr_glitch.iter().all(|&g| !g)
    }

    /// Program a node-level power limit in the columns: the one-host case
    /// of [`NodeBank::set_power_limits`]. Like every control write this
    /// dirties the host's segment, whatever the outcome.
    /// It does not drop the host's operating-point span: the limit is the
    /// span's argument, checked against it on the next resolve.
    pub fn set_power_limit(&mut self, h: usize, limit: Watts) -> Result<()> {
        CONTROL_WRITES.inc();
        let dead = self.health[h] == NodeHealth::Dead;
        let program = self
            .batchable()
            .then(|| self.write_fields().program(limit, dead));
        let Some(Some(program)) = program else {
            return self.write_one(h, limit);
        };
        self.dirty_segment(h);
        let cells = h * self.sockets..(h + 1) * self.sockets;
        self.programmed[h] = program.store(
            &mut self.pl1_raw[cells.clone()],
            &mut self.target[cells.clone()],
            &mut self.tau[cells.clone()],
            &mut self.enabled[cells],
        );
        Ok(())
    }

    /// Program node-level power limits on many hosts in one write: each
    /// host `h` of `hosts` for which `limit_of(h)` is `Some(limit)` ends up
    /// as `set_power_limit(h, limit)` called in host order would leave it,
    /// bit for bit, counters and journal included, up to the first error:
    /// the hosts before the failing one are written, the ones after it are
    /// not, and the error comes back with the host it stopped at. `None`
    /// leaves a host alone. Returns how many hosts were written.
    ///
    /// Every field of the request but the limit is a constant of the bank,
    /// encoded once, so per host the write is the limit field's rounding and
    /// its decode. Each segment written is dirtied once, and the
    /// control-write and invalidation counters take one add per write.
    ///
    /// A host whose request needs more goes through
    /// `rapl::resolve_pl1_request` — the function [`Node::set_power_limit`]
    /// calls — on the calling thread, in host order: a dead host, a pending
    /// MSR glitch (consumed), a stuck latch, a request that clamps while the
    /// recorder is on (its `RaplClamp` event), a PL1 register the write mask
    /// refuses. A write over two or more segments in which no host can fail
    /// (none dead, no glitch, no refusing register) runs in segment-aligned
    /// chunks on the exec pool; a chunk leaves a host that needs more, and
    /// what follows it in the chunk, to the calling thread.
    pub fn set_power_limits(
        &mut self,
        hosts: Range<usize>,
        limit_of: impl Fn(usize) -> Option<Watts> + Sync,
    ) -> std::result::Result<usize, (usize, SimHwError)> {
        assert!(hosts.end <= self.len(), "hosts out of range");
        if hosts.is_empty() {
            return Ok(0);
        }
        // One division unless the write spans segments.
        let (sh, first) = (self.segment_hosts, self.segment_of(hosts.start));
        let last = if hosts.end > (first + 1) * sh {
            (hosts.end - 1) / sh
        } else {
            first
        };
        let segs = first..last + 1;
        if segs.len() > 1 && self.write_hazard {
            self.write_hazard = self.holds_write_hazard();
        }
        let batched = self.batchable();
        let workers = if batched && segs.len() > 1 && self.dead_hosts == 0 {
            pmstack_exec::workers().min(segs.len())
        } else {
            1
        };
        let mut tally = WriteTally::default();
        let out = if workers > 1 && !pmstack_exec::is_inline() {
            self.write_chunked(hosts, segs, workers, &limit_of, &mut tally)
        } else {
            self.write_in_order(hosts, first, batched, &limit_of, &mut tally)
        };
        if tally.written > 0 {
            CONTROL_WRITES.add(tally.written);
        }
        if tally.invalidated > 0 {
            SHARD_INVALIDATED.add(tally.invalidated);
        }
        out.map(|()| tally.written as usize)
    }

    /// [`NodeBank::set_power_limits`] on the calling thread: batched runs
    /// up to each host that needs `resolve_pl1_request` (every host, with
    /// `batched` off), which is then written alone.
    /// `seg` is the segment of `hosts.start`.
    fn write_in_order(
        &mut self,
        hosts: Range<usize>,
        seg: usize,
        batched: bool,
        limit_of: &impl Fn(usize) -> Option<Watts>,
        tally: &mut WriteTally,
    ) -> std::result::Result<(), (usize, SimHwError)> {
        let (mut from, mut seg) = (hosts.start, seg);
        loop {
            let (mut cols, fields, health) = self.write_parts(0..self.seg.len());
            let span = from..hosts.end;
            let stop = write_span(
                &mut cols, 0, span, seg, batched, &fields, health, limit_of, tally,
            );
            let Some((h, limit)) = stop else {
                return Ok(());
            };
            tally.written += 1;
            self.write_one(h, limit).map_err(|e| (h, e))?;
            from = h + 1;
            seg = self.segment_of(from);
        }
    }

    /// [`NodeBank::set_power_limits`] over segments `segs`, in `workers`
    /// segment-aligned chunks on the exec pool. No host can fail, so each
    /// chunk writes what it can; a chunk that stops at a host needing
    /// `resolve_pl1_request` leaves it and the rest of its hosts to the
    /// calling thread, which takes them chunk by chunk, in host order.
    fn write_chunked(
        &mut self,
        hosts: Range<usize>,
        segs: Range<usize>,
        workers: usize,
        limit_of: &(impl Fn(usize) -> Option<Watts> + Sync),
        tally: &mut WriteTally,
    ) -> std::result::Result<(), (usize, SimHwError)> {
        let (n, sh, first) = (self.len(), self.segment_hosts, segs.start);
        let mut resume = Vec::new();
        {
            let (cols, fields, health) = self.write_parts(segs.clone());
            let pieces = seg_chunks(cols, segs.len(), sh, n - first * sh, workers, segs.len());
            let mut chunks: Vec<_> = (pieces.into_iter())
                .map(|(local, cols)| {
                    let segs = first + local.start..first + local.end;
                    (segs, cols, None, WriteTally::default())
                })
                .collect();
            pmstack_exec::par_for_each_mut(&mut chunks, |_, (segs, cols, stop, t)| {
                let from = hosts.start.max(segs.start * sh);
                let (span, seg) = (from..hosts.end, from / sh);
                *stop = write_span(
                    cols, segs.start, span, seg, true, &fields, health, limit_of, t,
                );
            });
            for (segs, _, stop, t) in chunks {
                tally.written += t.written;
                tally.invalidated += t.invalidated;
                if let Some((h, limit)) = stop {
                    resume.push((h, limit, hosts.end.min(segs.end * sh)));
                }
            }
        }
        for (h, limit, end) in resume {
            tally.written += 1;
            self.write_one(h, limit).map_err(|e| (h, e))?;
            let seg = self.segment_of(h + 1);
            self.write_in_order(h + 1..end, seg, true, limit_of, tally)?;
        }
        Ok(())
    }

    /// True when a host's limit write may skip `resolve_pl1_request`: no
    /// host holds a glitch, a stuck latch or a refusing register, and the
    /// mask lets the limit field through, so its verdict does not depend on
    /// the limit.
    fn batchable(&self) -> bool {
        let mask = self.pl1_write_mask;
        !self.write_hazard && mask != 0 && LIMIT_FIELD & !mask == 0
    }

    /// The constants a limit write encodes with.
    fn write_fields(&self) -> Pl1Fields {
        Pl1Fields {
            raw: self.pl1_fields,
            tau: self.pl1_tau,
            units: self.units,
            min: self.pl1_min,
            max: self.pl1_max,
            sockets: self.sockets,
            segment_hosts: self.segment_hosts,
            record: pmstack_obs::enabled(),
        }
    }

    /// The columns a limit write changes over segments `segs`, the
    /// constants it encodes with, and the health column it checks.
    fn write_parts(&mut self, segs: Range<usize>) -> (WriteCols<'_>, Pl1Fields, &[NodeHealth]) {
        let s = self.sockets;
        let n = self.id.len();
        let hosts = segs.start * self.segment_hosts..(segs.end * self.segment_hosts).min(n);
        let cells = hosts.start * s..hosts.end * s;
        let fields = self.write_fields();
        let cols = WriteCols {
            sockets: s,
            pl1_raw: &mut self.pl1_raw[cells.clone()],
            target: &mut self.target[cells.clone()],
            tau: &mut self.tau[cells.clone()],
            enabled: &mut self.enabled[cells],
            programmed: &mut self.programmed[hosts],
            seg: &mut self.seg[segs],
        };
        (cols, fields, &self.health)
    }

    /// One host's limit write through `resolve_pl1_request`, against the
    /// host's columns: each package's raw register column is checked against
    /// the msr-safe write mask and updated, and the enforcement inputs are
    /// re-decoded from it. Dirties the host's segment, whatever the outcome.
    fn write_one(&mut self, h: usize, limit: Watts) -> Result<()> {
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

    /// True when host `h` holds state a batched limit write cannot take: a
    /// pending MSR glitch, a stuck latch, or a PL1 register the write of
    /// this bank's fixed fields would be refused on.
    fn hazardous(&self, h: usize) -> bool {
        let s = self.sockets;
        self.msr_glitch[h]
            || self.stuck[h].is_some()
            || (h * s..(h + 1) * s).any(|i| self.pl1_refuses(self.pl1_raw[i]))
    }

    /// True when some host is [`NodeBank::hazardous`]: the scan that clears
    /// `write_hazard`.
    fn holds_write_hazard(&self) -> bool {
        (0..self.len()).any(|h| self.hazardous(h))
    }

    /// True when the write mask would refuse to move `raw` to this bank's
    /// fixed fields (whatever the limit field: a refusing mask either
    /// covers it or refuses everything).
    fn pl1_refuses(&self, raw: u64) -> bool {
        let mask = self.pl1_write_mask;
        mask == 0 || (raw ^ self.pl1_fields) & !mask & !LIMIT_FIELD != 0
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
    /// `resolve_freq_cap_request` — the function [`Node::set_freq_cap`]
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
    /// path keys on. `parallel` lets a bank that steps enough segments split
    /// them across the exec pool; a one-segment bank never does.
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
    /// * `ops` is **not read**. The segment counts one more add of the
    ///   energy delta its settling step recorded (module docs, "Segments"),
    ///   so the call is exact only while the
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
        let dt_bits = dt.value().to_bits();
        // Chunk boundaries are segment boundaries, so each worker owns its
        // segments' cache slots and counts outright and the replay/step
        // decision is local to the chunk. A bank of one segment never fans
        // out.
        let (workers, total) = if parallel {
            self.fan_out_plan(dt_bits, allow_replay)
        } else {
            (1, 0)
        };
        let cols = SpanCols {
            sockets: s,
            energy: &mut self.energy,
            enforced: &mut self.enforced,
            last_freq: &mut self.last_freq,
            telemetry_down: &mut self.telemetry_down,
            msr_glitch: &mut self.msr_glitch,
            replay_delta: &mut self.replay_delta,
            results,
        };
        let segs = SegCols {
            seg: &mut self.seg,
            pending: &mut self.pending,
            dt_bits,
            allow_replay,
        };
        let (target, tau) = (&self.target, &self.tau);
        let run = |chunk: &mut SegChunk<'_>| {
            run_seg_chunk(chunk, sh, dt, ops, target, tau);
        };
        let mut applied = 0;
        let mut fold = |chunk: &SegChunk<'_>| {
            report.all_settled &= chunk.all_settled;
            report.segments_replayed += chunk.replayed;
            report.segments_stepped += chunk.stepped;
            applied += chunk.applied;
        };
        if workers > 1 {
            // Chunks balance the stepped segments.
            let nsegs = segs.seg.len();
            let mut chunks: Vec<SegChunk<'_>> =
                seg_chunks((cols, segs), nsegs, sh, n, workers, total)
                    .into_iter()
                    .map(|(segs, (cols, seg))| SegChunk::new(segs.start * sh, cols, seg))
                    .collect();
            pmstack_exec::par_for_each_mut(&mut chunks, |_, chunk| run(chunk));
            chunks.iter().for_each(&mut fold);
        } else {
            // The whole fleet is one chunk, built on the stack: the loop
            // allocates nothing once the caller's vectors exist.
            let mut chunk = SegChunk::new(0, cols, segs);
            run(&mut chunk);
            fold(&chunk);
        }
        if report.segments_replayed > 0 {
            self.replays += report.segments_replayed as u64;
            SHARD_REPLAYED.add(report.segments_replayed as u64);
        }
        count_applied(applied);
        if report.all_settled {
            STEP_ALL_SETTLED.inc();
        }
        report
    }

    /// How a parallel step at `dt_bits` would run: the number of chunks (one
    /// per pool worker, or 1 to stay on the calling thread, as it does
    /// wherever the exec pool would run inline) and the number of segments
    /// it steps.
    fn fan_out_plan(&self, dt_bits: u64, allow_replay: bool) -> (usize, usize) {
        if self.seg.len() < 2 || pmstack_exec::is_inline() {
            return (1, 0);
        }
        let stepped = (self.seg.iter())
            .filter(|&&c| steps(c, dt_bits, allow_replay))
            .count();
        let chunks = if stepped < PAR_MIN_STEPPED {
            1
        } else {
            pmstack_exec::workers().min(stepped)
        };
        (chunks, stepped)
    }

    /// Host `h` as a `Node`, materialised by value from the part prototype
    /// and the host's columns: registers, counters, filters, faults and
    /// health exactly as the same operations applied to a `Node` directly
    /// would have left them. Nothing is written back; control goes through
    /// the bank.
    pub fn node(&self, h: usize) -> Node {
        let mut node = self.part.clone().expect("a bank with hosts has a part");
        let mut accrual = Accrual::new(self.replay_delta[h], self.pending[self.segment_of(h)]);
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
                energy: accrual.of(self.energy[i]),
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
    /// dirtied, as by a column control write. The ingest rewrites the
    /// host's energy cells, so the segment's pending replays are written
    /// into them first: kept pending, they would be counted again on top of
    /// the accrued energy the `Node` carried.
    pub(crate) fn with_node<T>(&mut self, h: usize, f: impl FnOnce(&mut Node) -> T) -> T {
        count_applied(self.apply_segment_replays(self.segment_of(h)));
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
        self.write_hazard |= self.hazardous(h);
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

/// Count pending replays written into cells, one add per application
/// (none for zero, so steady iterations leave the counter's line alone).
fn count_applied(k: u64) {
    if k > 0 {
        REPLAYS_APPLIED.add(k);
    }
}

/// True when a step at `dt_bits` takes the segment through the full
/// stepping arithmetic rather than counting a replay.
fn steps(cache: SegCache, dt_bits: u64, allow_replay: bool) -> bool {
    !(allow_replay && replayable(cache, dt_bits))
}

/// The cache slot a segment earns by being stepped.
fn cache_after_step(settled: bool, quiescent: bool, dt_bits: u64) -> SegCache {
    if settled {
        SegCache::Settled { dt_bits, quiescent }
    } else {
        SegCache::Invalid
    }
}

/// Columns a segment-aligned fan-out hands out in disjoint pieces, every
/// column cut at the same segment boundary: per-(host, socket) columns at
/// `hosts × sockets` elements, per-host columns at `hosts`, per-segment
/// columns at `segs`. The bank's step, its batched limit write and a
/// caller's pre-step pass ([`NodeBank::resolve_pieces`]) all chunk through
/// this one splitter.
pub trait SegSplit: Send + Sized {
    /// Detach the first `segs` segments, holding the first `hosts` hosts,
    /// as an independent piece, leaving the remainder in `self`.
    fn split_off_front(&mut self, segs: usize, hosts: usize) -> Self;

    /// Whether segment `seg` (counted from the start of this piece) is
    /// work the chunks should share out evenly; segments that weigh nothing
    /// ride along with the chunk they fall in.
    fn weight(&self, _seg: usize) -> bool {
        true
    }
}

impl<A: SegSplit, B: SegSplit> SegSplit for (A, B) {
    fn split_off_front(&mut self, segs: usize, hosts: usize) -> Self {
        (
            self.0.split_off_front(segs, hosts),
            self.1.split_off_front(segs, hosts),
        )
    }

    fn weight(&self, seg: usize) -> bool {
        self.0.weight(seg) && self.1.weight(seg)
    }
}

/// Detach the first `n` elements of a mutable slice, leaving the rest in
/// `slot`: the cut every [`SegSplit`] makes.
pub fn take_front<'b, T>(slot: &mut &'b mut [T], n: usize) -> &'b mut [T] {
    let (head, tail) = std::mem::take(slot).split_at_mut(n);
    *slot = tail;
    head
}

/// Run `run` over `cols` in segment-aligned chunks on the exec pool and
/// return each chunk's result, in chunk order. `cols` holds `segs` segments
/// of `segment_hosts` hosts, `hosts` in all (the last segment may be
/// short); the chunks, at most one per pool worker, balance the segments
/// [`SegSplit::weight`] marks, and `run` gets each chunk's segments with its
/// piece. Where the exec pool would run inline, or fewer than two segments
/// weigh, it is one call on the calling thread over everything. Weighing is
/// a pass over the segments, so a caller that already knows it will not fan
/// out calls its pass itself.
pub fn par_segments<C: SegSplit, R: Send>(
    cols: C,
    segs: usize,
    segment_hosts: usize,
    hosts: usize,
    run: impl Fn(Range<usize>, &mut C) -> R + Sync,
) -> Vec<R> {
    let workers = if segs >= 2 && !pmstack_exec::is_inline() {
        pmstack_exec::workers()
    } else {
        1
    };
    let total = if workers > 1 {
        (0..segs).filter(|&i| cols.weight(i)).count()
    } else {
        0
    };
    if total < PAR_MIN_STEPPED {
        let mut cols = cols;
        return vec![run(0..segs, &mut cols)];
    }
    let chunks = seg_chunks(cols, segs, segment_hosts, hosts, workers.min(total), total);
    let mut tasks: Vec<_> = (chunks.into_iter())
        .map(|(segs, cols)| (segs, cols, None))
        .collect();
    pmstack_exec::par_for_each_mut(&mut tasks, |_, (segs, cols, out)| {
        *out = Some(run(segs.clone(), cols));
    });
    (tasks.into_iter())
        .map(|(_, _, out)| out.expect("every chunk ran"))
        .collect()
}

/// Split `cols` — `segs` segments of `segment_hosts` hosts, `hosts` hosts
/// in all (the last segment may be short) — into at most `workers` chunks
/// of whole segments: chunk `k` takes segments until the weighing segments
/// chunked so far reach `k / workers` of `total`, and the last takes the
/// rest. Returns each chunk's segments, counted from the first, with its
/// piece.
fn seg_chunks<C: SegSplit>(
    mut cols: C,
    segs: usize,
    segment_hosts: usize,
    hosts: usize,
    workers: usize,
    total: usize,
) -> Vec<(Range<usize>, C)> {
    let mut chunks = Vec::with_capacity(workers);
    let (mut next, mut chunked) = (0, 0);
    for k in 1..=workers {
        let (first, mut take) = (next, 0);
        while next < segs && (k == workers || chunked * workers < k * total) {
            chunked += usize::from(cols.weight(take));
            take += 1;
            next += 1;
        }
        if take == 0 {
            continue;
        }
        let take_hosts = (next * segment_hosts).min(hosts) - first * segment_hosts;
        chunks.push((first..next, cols.split_off_front(take, take_hosts)));
    }
    chunks
}

/// A disjoint span of the hot columns a step writes (per-(host,socket)
/// columns hold `hosts * sockets` elements, per-host columns `hosts`).
struct SpanCols<'a> {
    sockets: usize,
    energy: &'a mut [Joules],
    enforced: &'a mut [Watts],
    last_freq: &'a mut [Hertz],
    telemetry_down: &'a mut [u32],
    msr_glitch: &'a mut [bool],
    replay_delta: &'a mut [Joules],
    results: &'a mut [HostStep],
}

impl SegSplit for SpanCols<'_> {
    fn split_off_front(&mut self, _segs: usize, hosts: usize) -> Self {
        let cells = hosts * self.sockets;
        SpanCols {
            sockets: self.sockets,
            energy: take_front(&mut self.energy, cells),
            enforced: take_front(&mut self.enforced, cells),
            last_freq: take_front(&mut self.last_freq, hosts),
            telemetry_down: take_front(&mut self.telemetry_down, hosts),
            msr_glitch: take_front(&mut self.msr_glitch, hosts),
            replay_delta: take_front(&mut self.replay_delta, hosts),
            results: take_front(&mut self.results, hosts),
        }
    }
}

impl SpanCols<'_> {
    /// Reborrow hosts `lo..lo + len` of this span.
    fn sub(&mut self, lo: usize, len: usize) -> SpanCols<'_> {
        let s = self.sockets;
        SpanCols {
            sockets: s,
            energy: &mut self.energy[lo * s..(lo + len) * s],
            enforced: &mut self.enforced[lo * s..(lo + len) * s],
            last_freq: &mut self.last_freq[lo..lo + len],
            telemetry_down: &mut self.telemetry_down[lo..lo + len],
            msr_glitch: &mut self.msr_glitch[lo..lo + len],
            replay_delta: &mut self.replay_delta[lo..lo + len],
            results: &mut self.results[lo..lo + len],
        }
    }
}

/// The per-segment columns a step writes: cache slots and pending-replay
/// counts. A segment weighs when the step at `dt_bits` steps it.
struct SegCols<'a> {
    seg: &'a mut [SegCache],
    pending: &'a mut [u64],
    dt_bits: u64,
    allow_replay: bool,
}

impl SegSplit for SegCols<'_> {
    fn split_off_front(&mut self, segs: usize, _hosts: usize) -> Self {
        SegCols {
            seg: take_front(&mut self.seg, segs),
            pending: take_front(&mut self.pending, segs),
            ..*self
        }
    }

    fn weight(&self, seg: usize) -> bool {
        steps(self.seg[seg], self.dt_bits, self.allow_replay)
    }
}

/// One worker's segment-aligned chunk of a step: whole segments plus their
/// cache slots and pending-replay counts.
struct SegChunk<'a> {
    base: usize,
    cols: SpanCols<'a>,
    segs: SegCols<'a>,
    replayed: usize,
    stepped: usize,
    /// Pending replays written into cells before a step.
    applied: u64,
    all_settled: bool,
}

impl<'a> SegChunk<'a> {
    fn new(base: usize, cols: SpanCols<'a>, segs: SegCols<'a>) -> Self {
        Self {
            base,
            cols,
            segs,
            replayed: 0,
            stepped: 0,
            applied: 0,
            all_settled: true,
        }
    }
}

/// Replay (count) or step each segment a chunk owns, refreshing its cache
/// slot.
fn run_seg_chunk(
    chunk: &mut SegChunk<'_>,
    segment_hosts: usize,
    dt: Seconds,
    ops: &[Option<OperatingPoint>],
    target: &[Watts],
    tau: &[f64],
) {
    let total = chunk.cols.results.len();
    let (dt_bits, allow_replay) = (chunk.segs.dt_bits, chunk.segs.allow_replay);
    let mut lo = 0;
    for si in 0..chunk.segs.seg.len() {
        let len = segment_hosts.min(total - lo);
        if !steps(chunk.segs.seg[si], dt_bits, allow_replay) {
            debug_assert!(
                (chunk.cols.telemetry_down[lo..lo + len].iter()).all(|&t| t == 0)
                    && chunk.cols.msr_glitch[lo..lo + len].iter().all(|&g| !g),
                "replayed a span holding one-shot telemetry state"
            );
            chunk.segs.pending[si] += 1;
            chunk.replayed += 1;
        } else {
            let mut cols = chunk.cols.sub(lo, len);
            // The step overwrites the delta the pending replays stand for.
            let k = std::mem::take(&mut chunk.segs.pending[si]);
            apply_replays(cols.energy, cols.replay_delta, cols.sockets, k);
            chunk.applied += k;
            let (settled, quiescent) = step_span(&mut cols, chunk.base + lo, dt, ops, target, tau);
            chunk.segs.seg[si] = cache_after_step(settled, quiescent, dt_bits);
            chunk.all_settled &= settled;
            chunk.stepped += 1;
        }
        lo += len;
    }
}

/// The mask bits of the PL1 limit field (bits 14:0).
const LIMIT_FIELD: u64 = 0x7FFF;

/// What a batched limit write encodes with: the bank's fixed PL1 fields and
/// the τ they decode to, its units and settable range, and whether the
/// recorder is on (a clamp then journals an event).
#[derive(Debug, Clone, Copy)]
struct Pl1Fields {
    raw: u64,
    tau: f64,
    units: RaplUnits,
    min: Watts,
    max: Watts,
    sockets: usize,
    segment_hosts: usize,
    record: bool,
}

impl Pl1Fields {
    /// What `resolve_pl1_request` programs for `requested` on a host with
    /// no glitch, latch or refusing register — the share, its clamp, the
    /// limit field's rounding and its decode — or `None` when the request
    /// must go through `resolve_pl1_request` itself: the host is dead, or
    /// the request clamps while the recorder is on (its `RaplClamp` event).
    #[inline]
    fn program(&self, requested: Watts, dead: bool) -> Option<Pl1Program> {
        let share = requested / self.sockets as f64;
        let per_socket = share.clamp(self.min, self.max);
        if dead || self.record && per_socket != share {
            return None;
        }
        let raw = self.raw | encode_limit_field(per_socket, &self.units);
        Some(Pl1Program {
            raw,
            limit: decode_limit_field(raw, &self.units),
            tau: self.tau,
        })
    }
}

/// What a limit write programs into each of a host's packages: the raw
/// register, the limit it decodes to, and the window's τ.
#[derive(Debug, Clone, Copy)]
struct Pl1Program {
    raw: u64,
    limit: Watts,
    tau: f64,
}

impl Pl1Program {
    /// Program one host's package cells; returns its node-level limit,
    /// summed as [`Node::power_limit`] sums it.
    #[inline]
    fn store(
        self,
        pl1_raw: &mut [u64],
        target: &mut [Watts],
        tau: &mut [f64],
        enabled: &mut [bool],
    ) -> Watts {
        let cells = pl1_raw.iter_mut().zip(target).zip(tau).zip(enabled);
        for (((raw, target), tau), enabled) in cells {
            (*raw, *target, *tau, *enabled) = (self.raw, self.limit, self.tau, true);
        }
        (0..pl1_raw.len()).map(|_| self.limit).sum()
    }
}

/// What a limit write adds to the control-write and invalidation counters.
#[derive(Debug, Default, Clone, Copy)]
struct WriteTally {
    written: u64,
    invalidated: u64,
}

/// A segment-aligned piece of the columns a limit write changes.
struct WriteCols<'a> {
    sockets: usize,
    pl1_raw: &'a mut [u64],
    target: &'a mut [Watts],
    tau: &'a mut [f64],
    enabled: &'a mut [bool],
    programmed: &'a mut [Watts],
    seg: &'a mut [SegCache],
}

impl SegSplit for WriteCols<'_> {
    fn split_off_front(&mut self, segs: usize, hosts: usize) -> Self {
        let cells = hosts * self.sockets;
        WriteCols {
            sockets: self.sockets,
            pl1_raw: take_front(&mut self.pl1_raw, cells),
            target: take_front(&mut self.target, cells),
            tau: take_front(&mut self.tau, cells),
            enabled: take_front(&mut self.enabled, cells),
            programmed: take_front(&mut self.programmed, hosts),
            seg: take_front(&mut self.seg, segs),
        }
    }
}

/// Write the hosts of `hosts` that the piece `cols` (starting at segment
/// `first_seg`) holds, in host order, each as `resolve_pl1_request` would
/// program it when it neither fails nor latches nor journals, dirtying each
/// segment before its first write. `seg` is the segment of `hosts.start`,
/// inside the piece (the walk divides nothing). Returns the first host that
/// needs `resolve_pl1_request` itself (with `batched` off: the first host
/// written at all), with its limit and its segment already dirtied, or
/// `None` once the piece is done.
#[allow(clippy::too_many_arguments)]
fn write_span(
    cols: &mut WriteCols<'_>,
    first_seg: usize,
    hosts: Range<usize>,
    seg: usize,
    batched: bool,
    fields: &Pl1Fields,
    health: &[NodeHealth],
    limit_of: &impl Fn(usize) -> Option<Watts>,
    tally: &mut WriteTally,
) -> Option<(usize, Watts)> {
    let (s, sh) = (fields.sockets, fields.segment_hosts);
    let base = first_seg * sh;
    let end = hosts.end.min(base + cols.programmed.len());
    let (mut lo, mut si) = (hosts.start, seg - first_seg);
    while lo < end {
        let seg_end = end.min((first_seg + si + 1) * sh);
        let mut dirtied = false;
        for (h, &health) in (lo..seg_end).zip(&health[lo..seg_end]) {
            let Some(limit) = limit_of(h) else {
                continue;
            };
            if !dirtied {
                let cache = &mut cols.seg[si];
                tally.invalidated += u64::from(matches!(cache, SegCache::Settled { .. }));
                *cache = SegCache::Invalid;
                dirtied = true;
            }
            let program = batched.then(|| fields.program(limit, health == NodeHealth::Dead));
            let Some(Some(program)) = program else {
                return Some((h, limit));
            };
            let (i, cells) = (h - base, (h - base) * s..(h - base + 1) * s);
            cols.programmed[i] = program.store(
                &mut cols.pl1_raw[cells.clone()],
                &mut cols.target[cells.clone()],
                &mut cols.tau[cells.clone()],
                &mut cols.enabled[cells],
            );
            tally.written += 1;
        }
        (lo, si) = (seg_end, si + 1);
    }
    None
}

/// The columns a resolve reads, shared by every piece of a pre-step pass.
#[derive(Clone, Copy)]
struct ResolveIn<'a> {
    sockets: usize,
    segment_hosts: usize,
    len: usize,
    pl1_max: Watts,
    enforced: &'a [Watts],
    enabled: &'a [bool],
    eps: &'a [f64],
    freq_cap: &'a [Option<Hertz>],
    health: &'a [NodeHealth],
}

impl ResolveIn<'_> {
    fn segment_range(&self, sidx: usize) -> Range<usize> {
        let lo = sidx * self.segment_hosts;
        lo..(lo + self.segment_hosts).min(self.len)
    }

    /// [`NodeBank::enforced_limit`].
    fn enforced_limit(&self, h: usize) -> Watts {
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

    /// Segment `sidx`'s enforced limits into `out`, whose first slot is
    /// host `base`'s.
    fn segment_enforced_limits(&self, sidx: usize, base: usize, out: &mut [Watts]) {
        fn fixed<const S: usize>(
            enforced: &[Watts],
            enabled: &[bool],
            max: Watts,
            width: usize,
            out: &mut [Watts],
        ) {
            let w = if S == 0 { width } else { S };
            let cells = enforced.chunks_exact(w).zip(enabled.chunks_exact(w));
            for (limit, (enforced, enabled)) in out.iter_mut().zip(cells) {
                // The sum `enforced_limit` takes, in its order.
                *limit = (enforced.iter().zip(enabled))
                    .map(|(&e, &on)| if on { e } else { max })
                    .sum();
            }
        }
        let range = self.segment_range(sidx);
        let s = self.sockets;
        let cells = range.start * s..range.end * s;
        let (enforced, enabled) = (&self.enforced[cells.clone()], &self.enabled[cells]);
        let out = &mut out[range.start - base..range.end - base];
        match s {
            1 => fixed::<1>(enforced, enabled, self.pl1_max, s, out),
            2 => fixed::<2>(enforced, enabled, self.pl1_max, s, out),
            _ => fixed::<0>(enforced, enabled, self.pl1_max, s, out),
        }
    }

    /// [`NodeBank::operating_point`] under enforced limit `limit`, with the
    /// span of enforced limits it holds over: resolved against `table` when
    /// the caller looked one up, else through the load's own resolve. The
    /// frequency-cap clamp is a function of the PCU's answer and of inputs
    /// whose writes drop the span, so it holds over the same limits the
    /// PCU's answer does.
    fn resolve_host<L: LoadModel + ?Sized>(
        &self,
        h: usize,
        limit: Watts,
        model: &PowerModel,
        load: &L,
        table: Option<&CandidateTable>,
    ) -> (OperatingPoint, CapSpan) {
        let eps = self.eps[h];
        let (op, span) = match table {
            Some(t) => t.resolve(model.static_power(eps), eps, limit),
            None => load.operating_point_span(model, eps, limit),
        };
        let op = match self.freq_cap[h] {
            Some(cap_f) if op.lead > cap_f => OperatingPoint {
                lead: cap_f,
                trail: op.trail.min(cap_f),
                power: load.node_power_at(model, eps, cap_f),
            },
            _ => op,
        };
        (op, span)
    }
}

/// A segment-aligned piece of the bank for a pre-step pass
/// ([`NodeBank::resolve_pieces`]): the columns a resolve reads, and the
/// operating-point spans of the piece's hosts. Segment indices are the
/// bank's; host indices and the slices passed in are the piece's, counted
/// from its first host.
pub struct Resolver<'a> {
    input: ResolveIn<'a>,
    op_span: &'a mut [CapSpan],
    segs: Range<usize>,
    base: usize,
    searched: u64,
    kept: u64,
}

impl<'a> Resolver<'a> {
    fn new(input: ResolveIn<'a>, op_span: &'a mut [CapSpan], segs: Range<usize>) -> Self {
        let base = segs.start * input.segment_hosts;
        Self {
            input,
            op_span,
            segs,
            base,
            searched: 0,
            kept: 0,
        }
    }

    /// The bank segments of this piece.
    pub fn segments(&self) -> Range<usize> {
        self.segs.clone()
    }

    /// Segment `sidx`'s hosts, counted from the piece's first host.
    pub fn hosts(&self, sidx: usize) -> Range<usize> {
        let range = self.input.segment_range(sidx);
        range.start - self.base..range.end - self.base
    }

    /// [`NodeBank::segment_enforced_limits`] into the piece's `out`.
    pub fn segment_enforced_limits(&self, sidx: usize, out: &mut [Watts]) {
        self.input.segment_enforced_limits(sidx, self.base, out);
    }

    /// The piece's host `h` through the PCU search, spans ignored: its
    /// [`NodeBank::operating_point`], `None` for a fail-stop dead host.
    pub fn operating_point<L: LoadModel + ?Sized>(
        &self,
        h: usize,
        model: &PowerModel,
        load: &L,
    ) -> Option<OperatingPoint> {
        let h = self.base + h;
        (self.input.health[h] != NodeHealth::Dead).then(|| {
            let limit = self.input.enforced_limit(h);
            self.input.resolve_host(h, limit, model, load, None).0
        })
    }

    /// [`NodeBank::resolve_segment`] over the piece's `limits` and `ops`,
    /// passing `rewrote` the piece's host index. The load's candidate table
    /// is looked up once for the segment.
    pub fn resolve_segment<L: LoadModel + ?Sized>(
        &mut self,
        sidx: usize,
        model: &PowerModel,
        load: &L,
        limits: &[Watts],
        ops: &mut [Option<OperatingPoint>],
        mut rewrote: impl FnMut(usize, Option<&OperatingPoint>),
    ) {
        let table = load.candidates(model);
        let range = self.hosts(sidx);
        let hosts = range.len() as u64;
        let mut searched = 0;
        for h in range {
            let (limit, global) = (limits[h], self.base + h);
            debug_assert_eq!(
                limit.value().to_bits(),
                self.input.enforced_limit(global).value().to_bits()
            );
            if self.op_span[h].holds(limit) {
                continue;
            }
            searched += 1;
            // Dead hosts drop out of the computation; the span dropped at
            // death stays empty, so the slot is simply rewritten each pass.
            ops[h] = (self.input.health[global] != NodeHealth::Dead).then(|| {
                let (op, span) = self.input.resolve_host(global, limit, model, load, table);
                self.op_span[h] = span;
                op
            });
            rewrote(h, ops[h].as_ref());
        }
        self.searched += searched;
        self.kept += hosts - searched;
    }

    /// Add the piece's resolve counts. Zero adds are skipped, as for the
    /// outcome counters: a sweep's workers would only bounce the counter's
    /// cache line.
    fn flush(&self) {
        if self.searched > 0 {
            RESOLVE_SEARCHED.add(self.searched);
        }
        if self.kept > 0 {
            RESOLVE_KEPT.add(self.kept);
        }
    }
}

/// A piece of the operating-point span column, cut by hosts.
struct Spans<'a>(&'a mut [CapSpan]);

impl SegSplit for Spans<'_> {
    fn split_off_front(&mut self, _segs: usize, hosts: usize) -> Self {
        Spans(take_front(&mut self.0, hosts))
    }
}

/// Step every host of one span, replicating [`RaplPackage::advance`]
/// bit-for-bit. Returns `(settled, quiescent)`: whether every filter update
/// was a bitwise no-op, and whether the span neither consumed one-shot
/// telemetry state in this step nor holds any afterwards.
///
/// Three passes over the span, each over zipped columns with the socket
/// count fixed for the common parts: the per-host pass (lead, energy
/// delta, telemetry), the energy adds ([`add_per_host`]: a skipped host's
/// delta is `+0.0`, which leaves its non-negative cells bitwise alone), and
/// the filter updates (a skipped host's filters keep their value, and a
/// kept value is a no-op for the settled flag). `alpha` is memoized on τ:
/// every package sharing a time window (the common case — all of them)
/// reuses one `exp()` per span instead of paying one per package per host.
///
/// [`RaplPackage::advance`]: crate::rapl::RaplPackage::advance
fn step_span(
    cols: &mut SpanCols<'_>,
    base: usize,
    dt: Seconds,
    ops: &[Option<OperatingPoint>],
    target: &[Watts],
    tau: &[f64],
) -> (bool, bool) {
    let sockets = cols.sockets;
    let hosts = base..base + cols.results.len();
    let cells = hosts.start * sockets..hosts.end * sockets;
    let (ops, target, tau) = (&ops[hosts], &target[cells.clone()], &tau[cells]);
    match sockets {
        1 => step_cells::<1>(cols, 1, dt, ops, target, tau),
        2 => step_cells::<2>(cols, 2, dt, ops, target, tau),
        _ => step_cells::<0>(cols, sockets, dt, ops, target, tau),
    }
}

/// [`step_span`] over the span's own slices, `S` sockets wide (`S == 0`:
/// `sockets` wide, read at run time).
fn step_cells<const S: usize>(
    cols: &mut SpanCols<'_>,
    sockets: usize,
    dt: Seconds,
    ops: &[Option<OperatingPoint>],
    target: &[Watts],
    tau: &[f64],
) -> (bool, bool) {
    let w = if S == 0 { sockets } else { S };
    let mut quiescent = true;
    let per_host = (ops.iter().zip(cols.results.iter_mut()))
        .zip(cols.last_freq.iter_mut().zip(cols.replay_delta.iter_mut()))
        .zip(
            cols.telemetry_down
                .iter_mut()
                .zip(cols.msr_glitch.iter_mut()),
        );
    for (((op, result), (last_freq, delta)), (down, glitch)) in per_host {
        let Some(op) = op else {
            *result = HostStep::Skipped;
            *delta = Joules::ZERO;
            quiescent &= *down == 0 && !*glitch;
            continue;
        };
        *last_freq = op.lead;
        *delta = op.power / w as f64 * dt;
        // A host that reads back `Stale` consumed one-shot state: the next
        // step reports something else, so this one cannot be replayed.
        *result = if *down > 0 {
            *down -= 1;
            HostStep::Stale
        } else if std::mem::take(glitch) {
            HostStep::Stale
        } else {
            HostStep::Fresh
        };
        quiescent &= *result == HostStep::Fresh;
    }

    add_per_host(cols.energy, cols.replay_delta, w);

    let mut memo_tau = f64::NAN;
    let mut memo_alpha = 0.0;
    let mut settled = true;
    let filters = (cols.enforced.chunks_exact_mut(w))
        .zip(target.chunks_exact(w).zip(tau.chunks_exact(w)))
        .zip(cols.results.iter());
    for ((enforced, (target, tau)), result) in filters {
        let live = *result != HostStep::Skipped;
        for ((held, &target), &t) in enforced.iter_mut().zip(target).zip(tau) {
            if t != memo_tau {
                memo_alpha = 1.0 - (-dt.value() / t).exp();
                memo_tau = t;
            }
            let next = if live {
                *held + (target - *held) * memo_alpha
            } else {
                *held
            };
            settled &= next.value().to_bits() == held.value().to_bits();
            *held = next;
        }
    }
    (settled, quiescent)
}

/// `k` sequential `e += d`, bit for bit, for finite `e ≥ 0` and `d ≥ 0`,
/// in O(1 + binades crossed) instead of O(k): what an energy cell holds
/// after `k` replays of its host's delta.
///
/// Inside one binade [2^m, 2^(m+1)) with ulp `u` every value is a multiple
/// of `u`, and an exact sum below the rounding boundary 2^(m+1) − u/2
/// rounds onto that grid, so from any `y` in the binade the increment
/// `fl(y + d) − y` is the constant `round(d/u)·u`. The exception is a `d`
/// that is an exact half-multiple `(q + ½)·u`: ties go to even, so the
/// increment depends on `y`'s last mantissa bit — but one in-binade step
/// leaves that bit even, and from an even `y` the increment (`q·u` or
/// `(q + 1)·u`, whichever is even) keeps it even, so it is constant from
/// then on.
///
/// Hence: take one plain step `x0 → x1`. If it stayed inside its binade,
/// observe the increment `r = fl(x1 + d) − x1` at `x1` (not at `x0`, whose
/// last bit may be odd) and jump `j = ⌊(2^(m+1) − 2u − x1) / r⌋` steps at
/// once. `x1 + j·r` is a multiple of `u` below 2^(m+1), so it and `j·r`
/// are exact; every skipped step's exact sum is at most
/// `x1 + j·r + u/2 ≤ 2^(m+1) − 3u/2`, below the rounding boundary, so each
/// of them added exactly `r`. A step that leaves its binade is taken plainly
/// instead, as is every step from a subnormal or from the top binade
/// (whose 2^(m+1) overflows); a step that changes nothing, or an `r == 0`,
/// ends the walk, since every later add is the same no-op.
pub fn repeat_add(e: f64, d: f64, k: u64) -> f64 {
    let (mut x, mut k) = (e, k);
    while k > 0 {
        let x1 = x + d;
        k -= 1;
        if x1.to_bits() == x.to_bits() {
            return x1;
        }
        let exp = x1.to_bits() >> 52;
        if k == 0 || exp != x.to_bits() >> 52 || exp == 0 || exp >= 0x7fe {
            x = x1;
            continue;
        }
        let r = (x1 + d) - x1;
        if r == 0.0 {
            return x1;
        }
        let u = f64::from_bits(x1.to_bits() + 1) - x1;
        let top = f64::from_bits((exp + 1) << 52);
        // A negative quotient (`x1` already inside the margin) saturates
        // to no jump.
        let j = (((top - 2.0 * u - x1) / r).floor() as u64).min(k);
        x = x1 + j as f64 * r;
        k -= j;
    }
    x
}

/// One host's energy cells after `k` pending replays of its `delta`: one
/// [`repeat_add`] per run of bit-equal cells (a host's sockets usually
/// hold the same energy).
struct Accrual {
    delta: f64,
    k: u64,
    /// The last cell's bits and its accrued value.
    memo: (u64, Joules),
}

impl Accrual {
    fn new(delta: Joules, k: u64) -> Self {
        Self {
            delta: delta.value(),
            k,
            // A NaN's bits: no energy cell holds them.
            memo: (u64::MAX, Joules::ZERO),
        }
    }

    fn of(&mut self, e: Joules) -> Joules {
        let bits = e.value().to_bits();
        if bits != self.memo.0 {
            self.memo = (bits, Joules(repeat_add(e.value(), self.delta, self.k)));
        }
        self.memo.1
    }
}

/// One host's energy: the sum of its cells after `k` pending replays of
/// its `delta`. With nothing pending it is the plain sum; the accrual is
/// kept out of line so that read stays a tight loop (inlined, a 100 000-host
/// read measured ~225 µs against ~130).
fn accrued(cells: &[Joules], delta: Joules, k: u64) -> Joules {
    #[inline(never)]
    fn walk(cells: &[Joules], delta: Joules, k: u64) -> Joules {
        let mut accrual = Accrual::new(delta, k);
        cells.iter().map(|&e| accrual.of(e)).sum()
    }
    match k {
        0 => cells.iter().copied().sum(),
        _ => walk(cells, delta, k),
    }
}

/// Add `deltas[h]` to each of host `h`'s `sockets` energy cells, for every
/// host, with no branch in the loop: one pending replay, which is what a
/// caller that applies every iteration writes. The common socket counts get
/// a fixed-width inner loop (a dynamic chunk width measured 2x slower);
/// the [`repeat_add`] walk costs ~6x this per cell.
fn add_per_host(energy: &mut [Joules], deltas: &[Joules], sockets: usize) {
    fn fixed<const S: usize>(energy: &mut [Joules], deltas: &[Joules]) {
        for (cells, &delta) in energy.chunks_exact_mut(S).zip(deltas) {
            for e in cells {
                *e += delta;
            }
        }
    }
    match sockets {
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

/// Write `k` pending replays into a span's energy cells: each of host `h`'s
/// `sockets` cells takes `k` adds of `deltas[h]`.
fn apply_replays(energy: &mut [Joules], deltas: &[Joules], sockets: usize, k: u64) {
    match k {
        0 => return,
        1 => return add_per_host(energy, deltas, sockets),
        _ => {}
    }
    for (h, &delta) in deltas.iter().enumerate() {
        let mut accrual = Accrual::new(delta, k);
        for e in &mut energy[h * sockets..(h + 1) * sockets] {
            *e = accrual.of(*e);
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
        let (model, nodes) = fleet(40);
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

    /// Every column a step writes, as bits — the energy both as read and as
    /// stored — plus the segment caches and pending counts.
    fn stepped_state(bank: &NodeBank) -> (Vec<[u64; 5]>, Vec<SegCache>, Vec<u64>) {
        let n = bank.len();
        let s = bank.sockets;
        let rows = (0..n * s)
            .map(|i| {
                let h = i / s;
                [
                    bank.energy(h).value().to_bits(),
                    bank.energy[i].value().to_bits(),
                    bank.enforced[i].value().to_bits(),
                    bank.last_freq[h].value().to_bits(),
                    bank.replay_delta[h].value().to_bits(),
                ]
            })
            .collect();
        (rows, bank.seg.clone(), bank.pending.clone())
    }

    /// The multi-segment fan-out engages from `PAR_MIN_STEPPED` stepped
    /// segments, splitting them between chunks that also carry replayed
    /// segments: pin it here on 41 hosts in 2-host segments (21, the last
    /// one ragged). A replay-only iteration and churn's one dirty segment
    /// plan a single chunk; two dirty segments at the ends of the bank fan
    /// out while every other segment holds pending replays, which the
    /// stepped ones must write first; many dirty segments beside a few
    /// replayed ones fan out too. Fanned across the pool, kept on the
    /// calling thread by `sequential_scope`, or stepped with `parallel`
    /// off, every bit, cache slot, count and report must agree.
    #[test]
    fn fanned_out_segments_agree_with_the_calling_thread() {
        let (model, nodes) = fleet(41);
        let load = FlatLoad { kappa: 2.6 };
        let dt = Seconds(0.2);
        let mut pool = NodeBank::from_nodes(nodes);
        pool.set_segment_hosts(2);
        let (n, segs) = (pool.len(), pool.num_segments());
        let mut scoped = pool.clone();
        let mut single = pool.clone();
        let mut ops = vec![None; n];
        let mut results = [
            vec![HostStep::Skipped; n],
            vec![HostStep::Skipped; n],
            vec![HostStep::Skipped; n],
        ];
        let mut iterate = |banks: [&mut NodeBank; 3], ops: &mut [Option<OperatingPoint>]| {
            let [pool, scoped, single] = banks;
            for (h, op) in ops.iter_mut().enumerate() {
                *op = Some(pool.operating_point(h, &model, &load));
            }
            let stepped = (0..segs)
                .filter(|&s| !pool.segment_replayable(s, dt))
                .count();
            let want = match stepped {
                0 | 1 => 1,
                _ => pmstack_exec::workers().min(stepped),
            };
            let (chunks, _) = pool.fan_out_plan(dt.value().to_bits(), true);
            assert_eq!(chunks, want, "{stepped} stepped segments");
            let [a, b, c] = &mut results;
            let report = pool.step_all_partial(dt, ops, a, true);
            let in_scope =
                pmstack_exec::sequential_scope(|| scoped.step_all_partial(dt, ops, b, true));
            let one_chunk = single.step_all_partial(dt, ops, c, false);
            assert_eq!(report, in_scope);
            assert_eq!(report, one_chunk);
            assert_eq!(a, b);
            assert_eq!(a, c);
            assert_eq!(stepped_state(pool), stepped_state(scoped));
            assert_eq!(stepped_state(pool), stepped_state(single));
            report
        };

        for _ in 0..3 {
            iterate([&mut pool, &mut scoped, &mut single], &mut ops);
        }
        assert!((0..segs).all(|s| pool.segment_replayable(s, dt)));

        // Replay only: every segment counts, none steps.
        for _ in 0..3 {
            let report = iterate([&mut pool, &mut scoped, &mut single], &mut ops);
            assert_eq!(
                (report.segments_replayed, report.segments_stepped),
                (segs, 0)
            );
        }
        assert!(pool.pending.iter().all(|&k| k >= 3));

        // Churn: host 20's limit alternates, so its segment (the middle one)
        // steps and the other 20 replay.
        for i in 0..4 {
            for bank in [&mut pool, &mut scoped, &mut single] {
                bank.set_power_limit(20, Watts(180.0 + (i % 2) as f64))
                    .unwrap();
            }
            let report = iterate([&mut pool, &mut scoped, &mut single], &mut ops);
            assert_eq!(
                (report.segments_replayed, report.segments_stepped),
                (segs - 1, 1)
            );
        }

        for _ in 0..500 {
            if (0..segs).all(|s| pool.segment_replayable(s, dt)) {
                break;
            }
            iterate([&mut pool, &mut scoped, &mut single], &mut ops);
        }

        // Two dirty segments, one at each end: each chunk steps one, after
        // writing its pending replays, beside segments that keep counting.
        for i in 0..3 {
            for bank in [&mut pool, &mut scoped, &mut single] {
                bank.set_power_limit(0, Watts(170.0 + i as f64)).unwrap();
                bank.set_power_limit(n - 1, Watts(170.0 + i as f64))
                    .unwrap();
            }
            let report = iterate([&mut pool, &mut scoped, &mut single], &mut ops);
            assert_eq!(
                (report.segments_replayed, report.segments_stepped),
                (segs - 2, 2)
            );
            assert!(pool.pending[1..segs - 1].iter().all(|&k| k > 0));
        }

        // Many dirty: 17 segments rewritten, a dropout on the ragged tail.
        for s in 0..17 {
            let h = pool.segment_range(s).start;
            for bank in [&mut pool, &mut scoped, &mut single] {
                bank.set_power_limit(h, Watts(150.0 + s as f64)).unwrap();
            }
        }
        for bank in [&mut pool, &mut scoped, &mut single] {
            bank.inject(40, FaultKind::TelemetryDropout { iterations: 2 });
        }
        for _ in 0..6 {
            let report = iterate([&mut pool, &mut scoped, &mut single], &mut ops);
            assert!(report.segments_replayed >= 3 && report.segments_stepped >= 17);
        }
        for bank in [&mut pool, &mut scoped, &mut single] {
            bank.apply_pending_replays();
        }
        assert!(pool.pending.iter().all(|&k| k == 0));
        assert_eq!(stepped_state(&pool), stepped_state(&scoped));
        assert_eq!(stepped_state(&pool), stepped_state(&single));
    }

    /// A replay counts; reads accrue the count over each host's socket
    /// cells, and a dead host's delta is `+0.0`. For every socket count and
    /// dead set, `k` replays of a settled bank must read exactly the bits
    /// `k` full steps leave — energy and the materialised `Node`'s
    /// energy-status MSR — without reading the `ops` or touching the
    /// `results` handed over, and once applied, the raw energy column must
    /// be the stepped one.
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
                let bits =
                    |col: &[Joules]| col.iter().map(|e| e.value().to_bits()).collect::<Vec<_>>();
                let reads = |b: &NodeBank| bits(&b.energies().collect::<Vec<_>>());
                let raw = bits(&bank.energy);
                for k in 1..=700 {
                    stepped.step_all(dt, &ops, &mut results, false);
                    assert_eq!(results, expected);
                    let mut untouched = vec![HostStep::Stale; n];
                    let report = bank.step_all_partial(dt, &junk, &mut untouched, false);
                    assert_eq!(report.segments_replayed, bank.num_segments());
                    assert!(untouched.iter().all(|&r| r == HostStep::Stale));
                    assert_eq!(bits(&bank.energy), raw, "a replay wrote a cell");
                    if k % 100 == 0 || k < 4 {
                        assert_eq!(
                            reads(&bank),
                            reads(&stepped),
                            "{sockets} sockets, dead hosts {dead:?}, {k} replays"
                        );
                        for h in [0, 17, n - 1] {
                            let status = |node: Node| {
                                (node.packages().iter())
                                    .map(|p| p.msrs().read(address::PKG_ENERGY_STATUS))
                                    .collect::<Vec<_>>()
                            };
                            assert_eq!(status(bank.node(h)), status(stepped.node(h)));
                        }
                    }
                }
                bank.apply_pending_replays();
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
