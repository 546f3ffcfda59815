//! Columnar (struct-of-arrays) storage for a fleet of [`Node`]s.
//!
//! The per-[`Node`] stepping path pays, on every node every iteration, a PL1
//! register decode, an energy-counter store, and an `exp()` per package; the
//! per-[`Node`] control path pays a register-file lookup, an encode and a
//! decode per package; and every `Node` carries its own register file. A
//! control loop that re-caps every host every interval makes all of it hot,
//! so [`NodeBank`] keeps no per-host `Node` at all — only columns, and one
//! prototype `Node` of the part every host is built from.
//!
//! This file owns storage and construction. Every other concern is one
//! file, whose header states the invariant it owns:
//!
//! * `segments` — segment caches and replay counts: a replay is a count,
//!   and only a settled, quiescent segment at the same `dt` bits replays;
//! * `accrual` — energy reads accrue the pending counts exactly, and every
//!   writer of an energy cell writes its segment's count first;
//! * `write` — the control writes: one batched limit write
//!   ([`NodeBank::set_power_limits`]) that leaves every column, counter and
//!   journal event as per-host `rapl::resolve_pl1_request` calls would;
//! * `resolve` — operating points and the cap spans they hold over
//!   ([`Resolver`]); [`NodeBank::operating_point`] ignores spans and is the
//!   oracle;
//! * `split` — the one segment splitter every fan-out over the bank's hosts
//!   cuts its columns with ([`SegSplit`], [`par_segments`]);
//! * `step` — the step kernel, bit-identical to
//!   [`crate::rapl::RaplPackage::advance`];
//! * `planes` — node-level PP0/DRAM meters, which advance for every host
//!   the step is handed an operating point for, and sub-plane limits.
//!
//! A small helper that a per-host or per-segment loop in another of these
//! files calls is `#[inline]`: each file can land in its own codegen unit.
//!
//! **Columns.** Per-(host, socket) columns use index `host * sockets +
//! socket`, and every column is contiguous per segment, so a pass over a
//! segment runs over dense slabs.
//!
//! * **hot columns** — energy, enforced limit, last frequency, telemetry
//!   blackout countdown, MSR glitch flag, and the two control registers the
//!   runtime reprograms: the raw `MSR_PKG_POWER_LIMIT` value of every
//!   package (with the enforcement target/τ/enable and the programmed limit
//!   decoded from it) and the `IA32_PERF_CTL` frequency cap; for a part
//!   with PP0/DRAM planes, also the node-level meters of both planes.
//! * **cold columns** — id, health, efficiency, the stuck-RAPL latch and,
//!   for a part with PP0/DRAM planes, each plane's limit register, stuck
//!   latch and meter per (host, socket).
//!
//! **One part.** Every host is the same part of the same class: the socket
//! count, TDP, settable range, write masks and sub-plane split are kept
//! once, in the prototype and a few per-bank constants. [`NodeBank::from_nodes`]
//! asserts it.
//!
//! **Materialised views.** The columns are the only copy of a host's state.
//! [`NodeBank::from_nodes`] *ingests* each `Node` into them and drops it in
//! the same pass; [`NodeBank::from_part`] fills them from one part without
//! building a `Node` per host; [`NodeBank::node`] *materialises* one by
//! value, from the prototype plus the host's columns, register file
//! included (the energy-status counters are derived from the accrued
//! energies, `PERF_CTL` from the cap). An operation the columns do not
//! resolve themselves — a fault, a sub-plane write — runs the `Node` method
//! on a materialised copy and ingests the result (`with_node`), so `Node`
//! stays the one implementation of fault and sub-plane semantics. Health
//! marks are column-only: health never feeds the stepping arithmetic. A
//! round trip pins the pair: for nodes carrying every kind of state,
//! `from_nodes(v)` then `node(h)` is `v[h]` field for field
//! (`tests/shards.rs`).
//!
//! A path that puts a pending glitch, a stuck latch or a refusing PL1
//! register into the columns goes through `ingest` (which sets
//! `write_hazard`); one that changes ε, the cap, health or the load drops
//! the host's operating-point span (`ingest` does, for everything it
//! loads).

mod accrual;
mod planes;
mod resolve;
mod segments;
mod split;
mod step;
mod write;

#[cfg(test)]
mod tests;

pub use accrual::repeat_add;
pub use resolve::Resolver;
pub use segments::DEFAULT_SEGMENT_HOSTS;
pub use split::{par_segments, take_front, SegSplit};
pub use step::{HostStep, StepReport};

use crate::error::Result;
use crate::faults::{FaultKind, NodeHealth};
use crate::msr::address;
use crate::node::{check_eps, perf_ctl_ratio, Node, NodeId};
use crate::power::CapSpan;
use crate::rapl::{
    decode_power_limit, encode_power_limit, enforcement_params_of, pl1_request, DomainConfig,
    PackageState, PlaneState, RaplPackage, RaplUnits, DEFAULT_UNIT_REGISTER,
};
use crate::units::{Hertz, Joules, Watts};
use accrual::Accrual;
use segments::{count_applied, SegCache};

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
    /// The part's PP0/DRAM split; `None` for a PKG-only part.
    domains: Option<DomainConfig>,
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
    /// The enforced limits over which the point a [`Resolver`] last wrote
    /// for the host is still the answer; [`CapSpan::NEVER`] once any other
    /// input of the resolve has changed.
    op_span: Vec<CapSpan>,
    /// Node-level PP0 then DRAM energy; empty unless the part has planes.
    meters: Vec<[Joules; 2]>,

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
        let domains = first.and_then(RaplPackage::domain_config);
        let (planes, meters) = match domains {
            Some(_) => (
                tile(pkgs, n, |p| {
                    p.state()
                        .planes
                        .expect("every package of a part has planes")
                }),
                vec![[Joules::ZERO; 2]; n],
            ),
            None => (Vec::new(), Vec::new()),
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
            domains,
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
            meters,
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
