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
//! [`NodeBank::set_power_limit`] deliberately does not: the limit is the
//! span's argument, so a write that lands inside the span keeps the point
//! and one that lands outside is caught by the next check.
//! [`NodeBank::operating_point`] ignores spans and stays the oracle.

use crate::error::Result;
use crate::faults::{FaultKind, NodeHealth};
use crate::msr::{address, check_write};
use crate::node::{check_eps, perf_ctl_ratio, resolve_freq_cap_request, Node, NodeId};
use crate::power::{CapSpan, LoadModel, OperatingPoint, PowerModel};
use crate::rapl::{
    decode_power_limit, enforcement_params_of, resolve_pl1_request, PackageState, Pl1Gate,
    PlaneState, RaplPackage, RaplUnits, DEFAULT_UNIT_REGISTER,
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

    /// True when segment `sidx` is settled and its last step was quiescent
    /// (no host read back `Stale`, no one-shot telemetry state left), at
    /// whatever `dt`: one more step reports what that one did and moves
    /// no host's lead. Its filters may still move if the next `dt` differs
    /// (α depends on `dt`); the step that does so leaves the segment
    /// unsettled, so the next test fails.
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

    /// Every host of segment `sidx`'s [`NodeBank::enforced_limit`], written
    /// into `out` at the host's index: one pass over the segment's cells
    /// with the socket count fixed for the common parts.
    pub fn segment_enforced_limits(&self, sidx: usize, out: &mut [Watts]) {
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
        let out = &mut out[range];
        match s {
            1 => fixed::<1>(enforced, enabled, self.pl1_max, s, out),
            2 => fixed::<2>(enforced, enabled, self.pl1_max, s, out),
            _ => fixed::<0>(enforced, enabled, self.pl1_max, s, out),
        }
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
        self.resolve_host(h, self.enforced_limit(h), model, load).0
    }

    /// [`NodeBank::operating_point`] under enforced limit `limit`, with the
    /// span of enforced limits it holds over. The frequency-cap clamp is a
    /// function of the PCU's answer and of inputs whose writes drop the
    /// span, so it holds over the same limits the PCU's answer does.
    fn resolve_host<L: LoadModel + ?Sized>(
        &self,
        h: usize,
        limit: Watts,
        model: &PowerModel,
        load: &L,
    ) -> (OperatingPoint, CapSpan) {
        let (op, span) = load.operating_point_span(model, self.eps[h], limit);
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
        mut rewrote: impl FnMut(usize, Option<&OperatingPoint>),
    ) {
        assert_eq!(ops.len(), self.len(), "one slot per host");
        assert_eq!(limits.len(), self.len(), "one limit per host");
        let range = self.segment_range(sidx);
        let hosts = range.len() as u64;
        let mut searched = 0;
        for h in range {
            let limit = limits[h];
            debug_assert_eq!(
                limit.value().to_bits(),
                self.enforced_limit(h).value().to_bits()
            );
            if self.op_span[h].holds(limit) {
                continue;
            }
            searched += 1;
            // Dead hosts drop out of the computation; the span dropped at
            // death stays empty, so the slot is simply rewritten each pass.
            ops[h] = self.is_alive(h).then(|| {
                let (op, span) = self.resolve_host(h, limit, model, load);
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
    /// resolved by `resolve_pl1_request` — the function
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
        let run = |chunk: &mut SegChunk<'_>| {
            run_seg_chunk(chunk, s, sh, dt, dt_bits, ops, target, tau, allow_replay);
        };
        let mut applied = 0;
        let mut fold = |chunk: &SegChunk<'_>| {
            report.all_settled &= chunk.all_settled;
            report.segments_replayed += chunk.replayed;
            report.segments_stepped += chunk.stepped;
            applied += chunk.applied;
        };
        if workers > 1 {
            // Chunk `k` takes whole segments until the stepped segments
            // chunked so far reach `k / workers` of the total; the last
            // takes the rest.
            let mut chunks: Vec<SegChunk<'_>> = Vec::with_capacity(workers);
            let mut seg_rem = &mut self.seg[..];
            let mut pending_rem = &mut self.pending[..];
            let (mut base, mut chunked) = (0, 0);
            for k in 1..=workers {
                let mut take_segs = 0;
                while take_segs < seg_rem.len() && (k == workers || chunked * workers < k * total) {
                    chunked += usize::from(steps(seg_rem[take_segs], dt_bits, allow_replay));
                    take_segs += 1;
                }
                if take_segs == 0 {
                    continue;
                }
                let take_hosts = (take_segs * sh).min(n - base);
                let (sa, st) = seg_rem.split_at_mut(take_segs);
                seg_rem = st;
                let (pa, pt) = pending_rem.split_at_mut(take_segs);
                pending_rem = pt;
                chunks.push(SegChunk::new(
                    base,
                    cols.split_off_front(take_hosts, s),
                    sa,
                    pa,
                ));
                base += take_hosts;
            }
            pmstack_exec::par_for_each_mut(&mut chunks, |_, chunk| run(chunk));
            chunks.iter().for_each(&mut fold);
        } else {
            // The whole fleet is one chunk, built on the stack: the loop
            // allocates nothing once the caller's vectors exist.
            let mut chunk = SegChunk::new(0, cols, &mut self.seg, &mut self.pending);
            run(&mut chunk);
            fold(&chunk);
        }
        if report.segments_replayed > 0 {
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
/// slots and pending-replay counts.
struct SegChunk<'a> {
    base: usize,
    cols: SpanCols<'a>,
    seg: &'a mut [SegCache],
    pending: &'a mut [u64],
    replayed: usize,
    stepped: usize,
    /// Pending replays written into cells before a step.
    applied: u64,
    all_settled: bool,
}

impl<'a> SegChunk<'a> {
    fn new(
        base: usize,
        cols: SpanCols<'a>,
        seg: &'a mut [SegCache],
        pending: &'a mut [u64],
    ) -> Self {
        Self {
            base,
            cols,
            seg,
            pending,
            replayed: 0,
            stepped: 0,
            applied: 0,
            all_settled: true,
        }
    }
}

/// Replay (count) or step each segment a chunk owns, refreshing its cache
/// slot.
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
        if !steps(chunk.seg[si], dt_bits, allow_replay) {
            debug_assert!(
                (chunk.cols.telemetry_down[lo..lo + len].iter()).all(|&t| t == 0)
                    && chunk.cols.msr_glitch[lo..lo + len].iter().all(|&g| !g),
                "replayed a span holding one-shot telemetry state"
            );
            chunk.pending[si] += 1;
            chunk.replayed += 1;
        } else {
            let mut cols = chunk.cols.sub(lo, len, sockets);
            // The step overwrites the delta the pending replays stand for.
            let k = std::mem::take(&mut chunk.pending[si]);
            apply_replays(cols.energy, cols.replay_delta, sockets, k);
            chunk.applied += k;
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
    sockets: usize,
    dt: Seconds,
    ops: &[Option<OperatingPoint>],
    target: &[Watts],
    tau: &[f64],
) -> (bool, bool) {
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
