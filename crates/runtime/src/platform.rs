//! The PlatformIO layer: a job's runtime view of its hosts.
//!
//! A [`JobPlatform`] owns the job's nodes (leased from the resource
//! manager), binds them to the job's kernel workload, executes
//! bulk-synchronous iterations against the RAPL-enforced limits, and exposes
//! the signals and controls agents operate on.
//!
//! # The columnar hot loop: an iteration costs what changed
//!
//! Host state lives in a [`NodeBank`] (struct-of-arrays columns) rather than
//! a `Vec<Node>`: one bulk-synchronous iteration is a single batched
//! [`NodeBank::step_all_partial`] over parallel slices instead of `n`
//! virtual per-node steps, and per-step MSR decode/store traffic is hoisted
//! into columns a control write updates in place. The `Node`s handed to
//! [`JobPlatform::new`] are ingested into the columns and dropped;
//! [`JobPlatform::from_hosts`] builds no `Node` at all, filling the columns
//! from one part ([`NodeBank::from_part`]); [`JobPlatform::node`]
//! materialises one on demand.
//! [`JobPlatform::run_iteration_into`] fills caller-owned double-buffered
//! [`IterationBuffers`] whose vectors are sized once and written by index,
//! so the loop allocates nothing after warm-up.
//!
//! The bank is sharded into segments, and everything the platform caches is
//! per segment. One iteration costs O(dirty segments · segment size + clean
//! segments); the whole fleet fast-forwarding is simply the iteration in
//! which no segment is dirty, and it touches no per-host column. A segment
//! goes through four states, each one the one before it plus a condition:
//!
//! * **dirty** — a control write, fault or workload change touched it, or
//!   its enforcement filters are still moving. Its operating points are
//!   re-checked (the span rule below), the bank steps it, and its slices of
//!   the outcome are rewritten.
//! * **settled** — its last step left every filter at a bitwise fixed
//!   point. The operating point is a pure function of bitwise-unchanged
//!   inputs, so `ops`/`op_times` are reused and the PCU resolve is skipped.
//! * **stable** — settled, fast-forward on, and the last step read every
//!   live host back fresh and left no one-shot telemetry state, at whatever
//!   `dt`. Its limit, power, lead, alive and fresh slices cannot change:
//!   the limits are the ones the no-op step left, the points are cached,
//!   and one more step reports what that one did. A different `dt` may
//!   still move a filter (α depends on `dt`); the step that does so leaves
//!   the segment dirty, so it is rewritten from the next iteration on.
//!   These are the two caches that work under jitter, where every
//!   iteration has a new `dt` and nothing replays.
//! * **clean** — stable, jitter off, and the bank will replay it at this
//!   iteration's `dt`: it counts one more add of the energy delta its
//!   settling step recorded, and energy reads accrue the count exactly (see
//!   `simhw::bank`). Nothing about a clean segment's outcome can differ
//!   from the previous iteration's, its compute times included.
//!
//! Energy reads ([`JobPlatform::host_energy`], [`JobPlatform::total_energy`],
//! [`JobPlatform::fleet_snapshot`], a materialised node's energy-status
//! MSR) stay `&self` and cost O(binades the pending count crosses) per
//! cell; [`JobPlatform::apply_pending_replays`] writes the counts into the
//! cells for a caller that reads every iteration.
//!
//! **Passes.** An iteration makes one pre-step pass over the segments: a
//! stable segment whose back-buffer slices are current leaves on its first
//! test (a clean segment always does, once both sides of the double buffer
//! hold its epoch); any other segment writes its enforced limits into the
//! back buffer once ([`NodeBank::segment_enforced_limits`]) and, if it is
//! not settled, resolves its operating points against those limits. Then the
//! jitter draws, in host order on every path; then the bank's step; then the
//! outcome write.
//!
//! **Fan-out.** Once two segments resolve, the pre-step pass runs in
//! segment-aligned chunks on the exec pool ([`NodeBank::resolve_pieces`]),
//! and so do the compute-time pass with jitter off and the outcome write
//! ([`par_segments`]); each chunk owns its segments' slices of every column
//! it writes, so the split cannot change a bit. The platform counts the
//! segments whose points are not cached as it writes the outcome, so a
//! steady iteration (none) or churn (one) stays one pass on the calling
//! thread and counts nothing more. Jitter draws stay sequential, in host
//! order. Limit writes are batched too: [`JobPlatform::set_uniform_limit`]
//! and [`JobPlatform::set_host_limits`] are one [`NodeBank::set_power_limits`]
//! each, after which the platform drops the caches of exactly the segments
//! the bank dirtied.
//!
//! **Span rule.** A dirty segment is mostly one whose limits are still
//! creeping through their first-order filters: 15–95 iterations to a bitwise
//! fixed point, while the PCU's answer — quantised onto the p-state ladder —
//! stops changing after the first few. The resolve returns, with each point,
//! the span of enforced limits it holds over, and the bank keeps that span
//! per host. [`NodeBank::resolve_segment`] rewrites only the `ops` slots
//! whose host's enforced limit has left its span (the platform refreshes
//! `op_times` for exactly those); the rest cost two compares. The writes
//! that change a point's *other* inputs — a frequency cap, a fault routed
//! through a materialised `Node` (ε, death, stuck plane), a workload swap —
//! drop the span in the bank, where they are all visible; a limit write does
//! not, because the limit is the span's argument.
//!
//! **Epoch rule.** Each segment carries an outcome epoch naming the content
//! of its slices of the outcome vectors, bumped on every iteration in which
//! the segment is not stable (clean implies stable, so a steady fleet never
//! bumps); each side of the double buffer carries, per segment, the epoch
//! it was last written at. A segment whose back-buffer stamp equals its
//! epoch keeps its limit, power, lead, alive and fresh slices and its
//! `last_power`/`last_lead` untouched; any other segment is rewritten and
//! stamped. The compute-time slice is the exception: with jitter on it is
//! redrawn every iteration whatever the stamp, and with jitter off it is
//! kept, with its cached maximum (the barrier is a max over S values),
//! exactly when the other slices are. That is the double-buffer hazard
//! handled: after a step the side that was *not* written still carries the
//! older epoch, so the first stable iteration rewrites it — same values, no
//! bump — and reuse starts with the second.
//!
//! **Owner rule.** A stamp means nothing outside the platform and sharding
//! that wrote it, so the buffers also name their owner: a process-unique id
//! a platform takes at construction and again when it is re-sharded (host
//! count and sharding are fixed per id). Buffers that are fresh, or come
//! from another platform, have every stamp cleared, are resized, and are
//! fully rewritten.
//!
//! [`JobPlatform::set_fast_forward`]`(false)` turns every cache off:
//! every host goes through the PCU search ([`NodeBank::operating_point`],
//! spans ignored) and is stepped every iteration, which is the reference the
//! determinism suites compare against.

use pmstack_kernel::{KernelConfig, KernelLoad};
use pmstack_obs::{EventKind, StaticCounter, StaticHistogram};
use pmstack_simhw::bank::{par_segments, take_front, Resolver, SegSplit};
use pmstack_simhw::power::OperatingPoint;
use pmstack_simhw::{
    FaultPlan, Hertz, HostStep, Joules, Node, NodeBank, NodeHealth, NodeId, PowerModel, Seconds,
    SimHwError, Watts,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Observability: iterations in which every segment was clean — the whole
/// fleet fast-forwarding instead of stepping.
static FFWD_ENGAGED: StaticCounter = StaticCounter::new("runtime.ffwd.engaged");
/// Observability: transitions into "every segment clean" (jitter off,
/// settled, quiescent).
static FFWD_CAPTURED: StaticCounter = StaticCounter::new("runtime.ffwd.captured");
/// Observability: invalidations that dropped a live cache (control write,
/// fault, or config change while any segment was settled).
static FFWD_INVALIDATED: StaticCounter = StaticCounter::new("runtime.ffwd.invalidated");
/// Observability: segment-iterations whose outcome slices were kept as they
/// stood in the back buffer.
static SEGMENTS_REUSED: StaticCounter = StaticCounter::new("runtime.outcome.segments_reused");
/// Observability: segment-iterations whose outcome slices were rewritten.
static SEGMENTS_REWRITTEN: StaticCounter = StaticCounter::new("runtime.outcome.segments_rewritten");
/// Observability: iterations that reused settled operating points (skipping
/// the PCU resolve — the cache that works under jitter).
static SETTLED_HIT: StaticCounter = StaticCounter::new("runtime.settled.hit");
/// Observability: iterations that ran the full operating-point resolve.
static SETTLED_MISS: StaticCounter = StaticCounter::new("runtime.settled.miss");

/// Stage spans of [`JobPlatform::run_iteration_into`], timed as laps
/// ([`Laps`]): the pre-step pass (operating points and observed limits),
/// the jitter draws, the RAPL step, and the outcome write. Their readers
/// want each stage's sum and count, so they have no finite bucket: the
/// daemon records them too, and every bucket would be a line of each
/// `/metrics` body it serves.
pub(crate) const STAGE_BOUNDS: &[f64] = &[];
static RESOLVE_SECS: StaticHistogram =
    StaticHistogram::new("runtime.iter.resolve.secs", STAGE_BOUNDS);
static JITTER_SECS: StaticHistogram =
    StaticHistogram::new("runtime.iter.jitter.secs", STAGE_BOUNDS);
static RAPL_STEP_SECS: StaticHistogram =
    StaticHistogram::new("runtime.iter.rapl_step.secs", STAGE_BOUNDS);
static OUTCOME_WRITE_SECS: StaticHistogram =
    StaticHistogram::new("runtime.iter.outcome_write.secs", STAGE_BOUNDS);

/// Consecutive stages of one iteration timed into their histograms, one
/// clock read per stage boundary. It reads no clock while the recorder is
/// off (one relaxed load) or when the caller does not time the iteration.
pub(crate) struct Laps(Option<Instant>);

impl Laps {
    pub(crate) fn start(timed: bool) -> Self {
        Self((timed && pmstack_obs::enabled()).then(Instant::now))
    }

    /// Close the running stage into `stage` and start the next.
    pub(crate) fn lap(&mut self, stage: &StaticHistogram) {
        if let Some(last) = &mut self.0 {
            let now = Instant::now();
            stage.observe((now - *last).as_secs_f64());
            *last = now;
        }
    }
}

/// Source of the ids that tie [`IterationBuffers`] stamps to their platform.
/// Zero is never handed out: it marks buffers nobody owns yet.
static NEXT_PLATFORM_ID: AtomicU64 = AtomicU64::new(1);

fn next_platform_id() -> u64 {
    // Relaxed: the id publishes nothing, it only has to be unique.
    NEXT_PLATFORM_ID.fetch_add(1, Ordering::Relaxed)
}

/// A cheap, self-contained view of a live fleet for *other threads*: the
/// serving plane's step loop captures one per tick and publishes it behind
/// an `Arc`, so `/metrics` scrapes and `/stream` frames read consistent
/// state without ever locking the platform or stalling the step loop.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetSnapshot {
    /// Fleet size.
    pub hosts: usize,
    /// Hosts alive at capture.
    pub alive: usize,
    /// Bank segments backing the fleet.
    pub segments: usize,
    /// Simulated seconds elapsed.
    pub elapsed_s: f64,
    /// Whether every segment of the fleet was clean (fast-forwarding).
    pub steady: bool,
    /// Cumulative fleet energy, joules.
    pub energy_j: f64,
    /// Observed fleet power over the captured iteration, watts.
    pub power_w: f64,
    /// Simulated duration of the captured iteration, seconds.
    pub iteration_s: f64,
}

/// The observable outcome of one bulk-synchronous iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationOutcome {
    /// Elapsed wall time of the iteration (the barrier releases when the
    /// slowest host finishes).
    pub elapsed: Seconds,
    /// Per-host critical-path compute time (before the barrier).
    pub host_compute_time: Vec<Seconds>,
    /// Per-host average power over the iteration. When a host's telemetry
    /// is out (`host_fresh[h] == false`) this holds the last-known reading,
    /// not the true draw — exactly what an out-of-band agent would see.
    pub host_power: Vec<Watts>,
    /// Per-host lead frequency (stale under telemetry dropout, see above).
    pub host_lead: Vec<Hertz>,
    /// Per-host enforced node power limit during the iteration.
    pub host_limit: Vec<Watts>,
    /// Per-host liveness: `false` for fail-stop dead hosts, which no longer
    /// compute, draw power, or accept control.
    pub host_alive: Vec<bool>,
    /// Per-host telemetry freshness: `false` means the power/lead entries
    /// are stale last-known values, not this iteration's readings.
    pub host_fresh: Vec<bool>,
}

impl Default for IterationOutcome {
    fn default() -> Self {
        Self {
            elapsed: Seconds::ZERO,
            host_compute_time: Vec::new(),
            host_power: Vec::new(),
            host_lead: Vec::new(),
            host_limit: Vec::new(),
            host_alive: Vec::new(),
            host_fresh: Vec::new(),
        }
    }
}

impl IterationOutcome {
    /// Total job power during the iteration (as observed — stale entries
    /// contribute their last-known value).
    pub fn total_power(&self) -> Watts {
        self.host_power.iter().copied().sum()
    }

    /// Number of hosts still alive.
    pub fn alive_count(&self) -> usize {
        self.host_alive.iter().filter(|&&a| a).count()
    }

    /// True when any host died or reported stale telemetry this iteration.
    pub fn degraded(&self) -> bool {
        self.host_alive.iter().any(|&a| !a) || self.host_fresh.iter().any(|&f| !f)
    }

    /// Size every per-host vector to `hosts` entries; the values are
    /// placeholders the caller overwrites by index.
    fn resize(&mut self, hosts: usize) {
        self.host_compute_time.resize(hosts, Seconds::ZERO);
        self.host_power.resize(hosts, Watts::ZERO);
        self.host_lead.resize(hosts, Hertz(0.0));
        self.host_limit.resize(hosts, Watts::ZERO);
        self.host_alive.resize(hosts, false);
        self.host_fresh.resize(hosts, false);
    }
}

/// One side of the double buffer: an outcome and, per segment, the outcome
/// epoch its slices were last written at (0 = never).
#[derive(Debug, Default)]
struct BufferSide {
    outcome: IterationOutcome,
    stamps: Vec<u64>,
}

/// Double-buffered iteration outcomes: [`JobPlatform::run_iteration_into`]
/// writes the back side by index and swaps, so the hot loop reuses two
/// outcomes' worth of vectors forever instead of allocating seven per
/// iteration — and leaves alone the slices of segments whose stamp says they
/// already hold this iteration's values (the module docs have the rule).
#[derive(Debug, Default)]
pub struct IterationBuffers {
    front: BufferSide,
    back: BufferSide,
    /// Id of the platform whose epochs the stamps count; 0 = nobody's yet.
    owner: u64,
}

impl IterationBuffers {
    /// Empty buffers; the first iteration sizes them.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently completed iteration's outcome.
    pub fn outcome(&self) -> &IterationOutcome {
        &self.front.outcome
    }

    /// The outcome before that (the double-buffer's back side). Empty until
    /// two iterations have run.
    pub fn previous(&self) -> &IterationOutcome {
        &self.back.outcome
    }

    /// Make the back side writable by index for platform `owner`: stamps
    /// another platform (or nobody) wrote are dropped on both sides, and a
    /// side whose shape is not `hosts` × `segments` is resized with every
    /// stamp cleared, so nothing foreign is ever taken for current.
    fn claim(&mut self, owner: u64, hosts: usize, segments: usize) -> &mut BufferSide {
        if self.owner != owner {
            self.owner = owner;
            self.front.stamps.clear();
            self.back.stamps.clear();
        }
        let back = &mut self.back;
        if back.stamps.len() != segments || back.outcome.host_power.len() != hosts {
            back.outcome.resize(hosts);
            back.stamps.clear();
            back.stamps.resize(segments, 0);
        }
        back
    }

    fn swap(&mut self) {
        std::mem::swap(&mut self.front, &mut self.back);
    }
}

/// The platform's per-segment cache state (one per bank segment).
#[derive(Debug, Clone, Copy)]
struct SegmentState {
    /// `ops`/`op_times` of the segment's hosts are still exact: its
    /// enforcement filters sat at a bitwise fixed point after the last step
    /// and no control write, fault, or workload change has touched it since.
    /// Segment-local so a control write on one host forces a re-resolve of
    /// only its segment; also what accelerates *jittered* runs, where no
    /// segment is ever clean.
    ops_valid: bool,
    /// Settled and quiescent after the last step (so also `ops_valid`): the
    /// segment's limit, power, lead, alive and fresh slices cannot change at
    /// any `dt`, so its outcome epoch stays.
    stable: bool,
    /// Maximum compute time over the segment's hosts, as last written.
    time: Seconds,
    /// Names the content of the segment's outcome slices.
    epoch: u64,
}

impl SegmentState {
    /// Epochs start at 1 so a never-written stamp (0) matches none.
    const COLD: Self = Self {
        ops_valid: false,
        stable: false,
        time: Seconds::ZERO,
        epoch: 1,
    };

    /// The state with both caches dropped; the epoch and time stay.
    fn forget(self) -> Self {
        Self {
            ops_valid: false,
            stable: false,
            ..self
        }
    }
}

/// The platform's columns a pre-step pass writes, cut at segment boundaries
/// for [`NodeBank::resolve_pieces`]: a segment weighs when it resolves.
struct PreCols<'a> {
    segments: &'a mut [SegmentState],
    stamps: &'a [u64],
    limits: &'a mut [Watts],
    ops: &'a mut [Option<OperatingPoint>],
    op_times: &'a mut [f64],
}

impl SegSplit for PreCols<'_> {
    fn split_off_front(&mut self, segs: usize, hosts: usize) -> Self {
        let (stamps, rest) = self.stamps.split_at(segs);
        self.stamps = rest;
        PreCols {
            segments: take_front(&mut self.segments, segs),
            stamps,
            limits: take_front(&mut self.limits, hosts),
            ops: take_front(&mut self.ops, hosts),
            op_times: take_front(&mut self.op_times, hosts),
        }
    }

    fn weight(&self, seg: usize) -> bool {
        !self.segments[seg].ops_valid
    }
}

/// The pre-step pass over one piece's segments (module docs, "Passes"):
/// returns how many it resolved. A stable segment whose back-buffer slices
/// are current leaves on its first test. Any other segment moves to a new
/// epoch unless it is stable (the epoch rule), observes its hosts' enforced
/// limits into the back buffer — at the iteration's start, before stepping
/// advances the filters — and, if its operating points are not cached,
/// resolves them against those limits. A settled segment's filters sat at a
/// bitwise fixed point last iteration and nothing touched it since: every
/// input of the (pure) PCU resolve is bitwise unchanged, so its cached
/// operating points and base iteration times are exact.
fn prestep(
    res: &mut Resolver<'_>,
    cols: &mut PreCols<'_>,
    ff: bool,
    model: &PowerModel,
    load: &KernelLoad,
) -> usize {
    let PreCols {
        segments,
        stamps,
        limits,
        ops,
        op_times,
    } = cols;
    let first = res.segments().start;
    let mut resolved = 0;
    for (i, (seg, &stamp)) in segments.iter_mut().zip(stamps.iter()).enumerate() {
        let sidx = first + i;
        let stable = ff && seg.stable;
        if stable && stamp == seg.epoch {
            continue;
        }
        seg.epoch += u64::from(!stable);
        res.segment_enforced_limits(sidx, limits);
        if seg.ops_valid {
            continue;
        }
        resolved += 1;
        // Dead hosts drop out of the computation: the surviving ranks
        // redistribute (we charge no extra time) and the dead host
        // contributes nothing to the barrier.
        let mut store = |host: usize, op: Option<&OperatingPoint>| {
            op_times[host] = op.map_or(0.0, |op| load.iteration_time(op).value());
        };
        if ff {
            // The bank re-checks each host's enforced limit against the
            // span its cached point holds over and searches only the hosts
            // that left theirs.
            res.resolve_segment(sidx, model, load, limits, ops, store);
        } else {
            // The oracle: every host through the PCU search.
            for host in res.hosts(sidx) {
                let op = res.operating_point(host, model, load);
                store(host, op.as_ref());
                ops[host] = op;
            }
        }
    }
    resolved
}

/// The platform's columns the compute-time pass and the outcome write
/// touch, the back side's per-host outcome vectors included, cut at segment
/// boundaries for [`par_segments`]: a segment weighs when its outcome slices
/// are rewritten.
struct PostCols<'a> {
    segment_hosts: usize,
    segments: &'a mut [SegmentState],
    stamps: &'a mut [u64],
    ops: &'a [Option<OperatingPoint>],
    op_times: &'a [f64],
    steps: &'a [HostStep],
    last_power: &'a mut [Watts],
    last_lead: &'a mut [Hertz],
    compute: &'a mut [Seconds],
    power: &'a mut [Watts],
    lead: &'a mut [Hertz],
    alive: &'a mut [bool],
    fresh: &'a mut [bool],
}

impl<'a> PostCols<'a> {
    fn new(
        segment_hosts: usize,
        segments: &'a mut [SegmentState],
        stamps: &'a mut [u64],
        (ops, op_times, steps): (&'a [Option<OperatingPoint>], &'a [f64], &'a [HostStep]),
        (last_power, last_lead): (&'a mut [Watts], &'a mut [Hertz]),
        outcome: &'a mut IterationOutcome,
    ) -> Self {
        Self {
            segment_hosts,
            segments,
            stamps,
            ops,
            op_times,
            steps,
            last_power,
            last_lead,
            compute: &mut outcome.host_compute_time,
            power: &mut outcome.host_power,
            lead: &mut outcome.host_lead,
            alive: &mut outcome.host_alive,
            fresh: &mut outcome.host_fresh,
        }
    }
}

impl SegSplit for PostCols<'_> {
    fn split_off_front(&mut self, segs: usize, hosts: usize) -> Self {
        fn shared<'b, T>(slot: &mut &'b [T], n: usize) -> &'b [T] {
            let (head, tail) = slot.split_at(n);
            *slot = tail;
            head
        }
        PostCols {
            segment_hosts: self.segment_hosts,
            segments: take_front(&mut self.segments, segs),
            stamps: take_front(&mut self.stamps, segs),
            ops: shared(&mut self.ops, hosts),
            op_times: shared(&mut self.op_times, hosts),
            steps: shared(&mut self.steps, hosts),
            last_power: take_front(&mut self.last_power, hosts),
            last_lead: take_front(&mut self.last_lead, hosts),
            compute: take_front(&mut self.compute, hosts),
            power: take_front(&mut self.power, hosts),
            lead: take_front(&mut self.lead, hosts),
            alive: take_front(&mut self.alive, hosts),
            fresh: take_front(&mut self.fresh, hosts),
        }
    }

    fn weight(&self, seg: usize) -> bool {
        self.stamps[seg] != self.segments[seg].epoch
    }
}

/// The compute-time pass over one piece: each segment, hosts in order,
/// takes its live hosts' base times scaled by `factor()` (one jitter draw
/// per live host, or 1 with jitter off) and `time` their maximum. With
/// jitter off (`calm`), a segment the pre-step pass let go keeps both.
/// Returns the piece's slowest segment time: its share of the barrier.
fn compute_times(cols: &mut PostCols<'_>, calm: bool, mut factor: impl FnMut() -> f64) -> Seconds {
    let (sh, hosts) = (cols.segment_hosts, cols.ops.len());
    let mut slowest = Seconds::ZERO;
    for (i, (seg, &stamp)) in cols.segments.iter_mut().zip(&*cols.stamps).enumerate() {
        if calm && stamp == seg.epoch {
            slowest = slowest.max(seg.time);
            continue;
        }
        let range = i * sh..((i + 1) * sh).min(hosts);
        let hosts = (cols.ops[range.clone()].iter()).zip(&cols.op_times[range.clone()]);
        let mut time = Seconds::ZERO;
        for ((op, &base), t) in hosts.zip(&mut cols.compute[range]) {
            *t = match op {
                Some(_) => Seconds(base * factor()),
                None => Seconds::ZERO,
            };
            time = time.max(*t);
        }
        seg.time = time;
        slowest = slowest.max(time);
    }
    slowest
}

/// What the outcome write reports back: whether every segment would
/// replay, how many kept their slices, and how many left their operating
/// points uncached.
#[derive(Debug, Clone, Copy)]
struct OutcomePass {
    steady: bool,
    reused: u64,
    unresolved: usize,
}

impl OutcomePass {
    fn and(self, other: Self) -> Self {
        Self {
            steady: self.steady && other.steady,
            reused: self.reused + other.reused,
            unresolved: self.unresolved + other.unresolved,
        }
    }
}

/// The outcome write over one piece, whose first segment is the bank's
/// `first`. A segment whose filters are settled yields bit-identical
/// operating points next iteration — arm its op cache (jitter-compatible) —
/// and one that is also quiescent keeps its outcome slices; any other is
/// rewritten and stamped. `steady` comes back true when it was asked for
/// (fast-forward on, jitter off) and every segment would also replay.
/// `all_replayed`: the step just replayed every segment of the bank, so
/// each still replays at this `dt` and nothing needs asking.
fn write_outcome(
    cols: &mut PostCols<'_>,
    bank: &NodeBank,
    first: usize,
    (ff, steady, all_replayed): (bool, bool, bool),
    elapsed: Seconds,
) -> OutcomePass {
    let (sh, n) = (cols.segment_hosts, cols.ops.len());
    let mut pass = OutcomePass {
        steady,
        reused: 0,
        unresolved: 0,
    };
    for (i, (seg, stamp)) in cols
        .segments
        .iter_mut()
        .zip(cols.stamps.iter_mut())
        .enumerate()
    {
        let sidx = first + i;
        // A segment that replays at this `dt` is settled and stable: one
        // query answers all three for a clean segment.
        let replayable = all_replayed || bank.segment_replayable(sidx, elapsed);
        let (settled, stable) = if replayable {
            (true, true)
        } else {
            (bank.segment_settled(sidx), bank.segment_stable(sidx))
        };
        seg.ops_valid = ff && settled;
        pass.unresolved += usize::from(!seg.ops_valid);
        seg.stable = seg.ops_valid && stable;
        pass.steady &= replayable;
        if *stamp == seg.epoch {
            pass.reused += 1;
            continue;
        }
        *stamp = seg.epoch;
        let range = i * sh..((i + 1) * sh).min(n);
        let hosts = (cols.ops[range.clone()].iter())
            .zip(&cols.steps[range.clone()])
            .zip(cols.last_power[range.clone()].iter_mut())
            .zip(cols.last_lead[range.clone()].iter_mut());
        let slots = (cols.power[range.clone()].iter_mut())
            .zip(cols.lead[range.clone()].iter_mut())
            .zip(cols.alive[range.clone()].iter_mut())
            .zip(cols.fresh[range].iter_mut());
        for ((((op, step), last_power), last_lead), (((power, lead), alive), fresh)) in
            hosts.zip(slots)
        {
            (*power, *lead, *alive, *fresh) = match (op, step) {
                (None, _) => (Watts::ZERO, Hertz(0.0), false, false),
                (Some(op), HostStep::Fresh) => {
                    *last_power = op.power;
                    *last_lead = op.lead;
                    (op.power, op.lead, true, true)
                }
                // Telemetry out: the hardware advanced underneath, but the
                // observer only has last-known readings.
                (Some(_), HostStep::Stale) => (*last_power, *last_lead, true, false),
                (Some(_), HostStep::Skipped) => unreachable!("live host was not stepped"),
            };
        }
    }
    pass
}

/// A job's hosts bound to its workload.
pub struct JobPlatform {
    model: PowerModel,
    bank: NodeBank,
    load: KernelLoad,
    jitter_sigma: f64,
    rng: ChaCha8Rng,
    elapsed: Seconds,
    /// Faults scheduled against this job's hosts, applied at iteration
    /// boundaries (host indices are platform-local).
    fault_plan: FaultPlan,
    /// Cursor into the plan's iteration-sorted event list: everything below
    /// it has fired. Replaces a per-iteration scan of the whole plan.
    fault_cursor: usize,
    /// Index of the next bulk-synchronous iteration (for fault scheduling).
    iteration: u64,
    /// Last successfully read per-host power (held through dropouts).
    last_power: Vec<Watts>,
    /// Last successfully read per-host lead frequency.
    last_lead: Vec<Hertz>,
    /// Per-host operating points, their un-jittered iteration times, and the
    /// bank's step results; entries of a segment whose `ops_valid` holds are
    /// carried from iteration to iteration.
    ops: Vec<Option<OperatingPoint>>,
    op_times: Vec<f64>,
    steps: Vec<HostStep>,
    segments: Vec<SegmentState>,
    /// Segments whose operating points are not cached (`!ops_valid`): the
    /// ones the next pre-step pass resolves, which fans out from two.
    unresolved: usize,
    /// Whether segments may be clean (the fast-forward path may engage).
    fast_forward: bool,
    /// Every segment was clean-eligible after the last iteration and nothing
    /// has been invalidated since: the next iteration steps nothing.
    steady: bool,
    /// Ties the stamps in [`IterationBuffers`] to this platform and sharding.
    id: u64,
    /// Buffers backing the allocating [`Self::run_iteration`] wrapper.
    scratch: IterationBuffers,
}

impl JobPlatform {
    /// Bind `nodes` to a kernel workload. Every host of a job runs the same
    /// configuration (one benchmark instance per job, as in the paper).
    pub fn new(model: PowerModel, nodes: Vec<Node>, config: KernelConfig) -> Self {
        Self::over(model, NodeBank::from_nodes(nodes), config)
    }

    /// Bind fresh hosts of `model`'s part — each `(id, ε)` the host
    /// `Node::new(id, &model, ε)` would build — to a kernel workload,
    /// without building a `Node` per host: the bank fills its columns from
    /// one part ([`NodeBank::from_part`]). Equal, iteration for iteration,
    /// to [`Self::new`] over those nodes.
    ///
    /// # Errors
    /// An ε that `Node::new` refuses, with its error.
    pub fn from_hosts(
        model: PowerModel,
        hosts: &[(NodeId, f64)],
        config: KernelConfig,
    ) -> Result<Self, SimHwError> {
        let part = Node::new(NodeId(0), &model, 1.0)?;
        let bank = NodeBank::from_part(part, hosts)?;
        Ok(Self::over(model, bank, config))
    }

    fn over(model: PowerModel, bank: NodeBank, config: KernelConfig) -> Self {
        assert!(!bank.is_empty(), "a job needs at least one host");
        let load = KernelLoad::new(config, model.spec());
        let n = bank.len();
        let segments = bank.num_segments();
        Self {
            model,
            bank,
            load,
            jitter_sigma: 0.0,
            rng: ChaCha8Rng::seed_from_u64(0),
            elapsed: Seconds::ZERO,
            fault_plan: FaultPlan::none(),
            fault_cursor: 0,
            iteration: 0,
            last_power: vec![Watts::ZERO; n],
            last_lead: vec![Hertz(0.0); n],
            ops: vec![None; n],
            op_times: vec![0.0; n],
            steps: vec![HostStep::Skipped; n],
            segments: vec![SegmentState::COLD; segments],
            unresolved: segments,
            fast_forward: true,
            steady: false,
            id: next_platform_id(),
            scratch: IterationBuffers::new(),
        }
    }

    /// Re-shard the backing bank into segments of `hosts` hosts — the
    /// cache-invalidation granularity. Mostly a test hook: small fleets get
    /// multi-segment behavior without needing 100k hosts. Drops every cache
    /// (the next iteration re-proves settledness) and takes a new buffer
    /// id: stamps written under the old sharding name other host ranges.
    pub fn with_segment_hosts(mut self, hosts: usize) -> Self {
        self.bank.set_segment_hosts(hosts);
        self.segments = vec![SegmentState::COLD; self.bank.num_segments()];
        self.unresolved = self.segments.len();
        self.steady = false;
        self.id = next_platform_id();
        self
    }

    /// Hosts per bank segment.
    pub fn segment_hosts(&self) -> usize {
        self.bank.segment_hosts()
    }

    /// Number of bank segments.
    pub fn num_segments(&self) -> usize {
        self.bank.num_segments()
    }

    /// Segment-iterations the bank has advanced on the replay path so far
    /// ([`NodeBank::replays`]): this platform's share of
    /// `simhw.bank.shard.replayed`, whatever else runs in the process.
    pub fn segment_replays(&self) -> u64 {
        self.bank.replays()
    }

    /// Attach a fault plan. Events fire at the start of the matching
    /// bulk-synchronous iteration; host indices outside this job are
    /// ignored.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan.restricted_to(self.bank.len());
        self.fault_cursor = 0;
        self.invalidate_caches();
        self
    }

    /// Enable per-host per-iteration multiplicative compute-time jitter
    /// (log-normal-ish, σ small). The paper's error bars come from exactly
    /// this kind of run-to-run noise over 100 iterations.
    pub fn with_jitter(mut self, sigma: f64, seed: u64) -> Self {
        self.jitter_sigma = sigma;
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self.invalidate_caches();
        self
    }

    /// Drop every segment's settled operating points. Called on anything
    /// that could change the next iteration fleet-wide — workload or jitter
    /// changes, fault-plan swaps. (Suspect/healthy marks are deliberately
    /// exempt: health marks never enter the operating point or the outcome.)
    fn invalidate_caches(&mut self) {
        if self.segments.iter().any(|s| s.ops_valid) {
            FFWD_INVALIDATED.inc();
        }
        self.steady = false;
        self.segments.iter_mut().for_each(|s| *s = s.forget());
        self.unresolved = self.segments.len();
    }

    /// Drop the cache a single-host change actually dirties: the touched
    /// host's segment of settled operating points (the caller's bank write
    /// dirties the bank's side). The other segments keep theirs — the
    /// partial invalidation that keeps a 100k-host fleet replaying when one
    /// host takes a control write or fault.
    fn invalidate_host_caches(&mut self, host: usize) {
        let seg = &mut self.segments[self.bank.segment_of(host)];
        if seg.ops_valid {
            FFWD_INVALIDATED.inc();
            self.unresolved += 1;
        }
        self.steady = false;
        *seg = seg.forget();
    }

    /// Drop the caches of every segment a bank write dirtied since the last
    /// step — the partial invalidation of a batched write, one test per
    /// segment — and leave steady state if anything was written.
    fn forget_dirtied_segments(&mut self, wrote: bool) {
        for (sidx, seg) in self.segments.iter_mut().enumerate() {
            if seg.ops_valid && !self.bank.segment_settled(sidx) {
                FFWD_INVALIDATED.inc();
                self.unresolved += 1;
                *seg = seg.forget();
            }
        }
        if wrote {
            self.steady = false;
        }
    }

    /// Enable or disable the fast-forward path (on by default). With it
    /// off no segment is ever settled or clean: every iteration resolves and
    /// steps the full columnar loop — the reference the determinism suites
    /// compare against.
    pub fn set_fast_forward(&mut self, on: bool) {
        if self.fast_forward != on {
            // With it off the platform writes `ops` itself, so the bank's
            // spans stop describing the slots.
            self.bank.invalidate_segments();
        }
        self.fast_forward = on;
    }

    /// True while fast-forward is on, jitter is off and every segment is
    /// clean: the next event-free iteration steps nothing.
    pub fn steady_state_active(&self) -> bool {
        self.fast_forward && self.steady
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.bank.len()
    }

    /// The shared power model.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// The workload bound to this job.
    pub fn load(&self) -> &KernelLoad {
        &self.load
    }

    /// One host as a `Node` materialised from the bank's columns
    /// ([`NodeBank::node`]; panics out of range): a snapshot for inspection.
    /// Hot paths use the columnar accessors ([`Self::host_eps`], …).
    pub fn node(&self, host: usize) -> Node {
        self.bank.node(host)
    }

    /// Rebind the platform to a new kernel configuration — a phase change
    /// in a multi-phase application. Node state (energy counters, limits,
    /// enforcement filters) carries across the boundary, exactly as on real
    /// hardware.
    pub fn set_config(&mut self, config: KernelConfig) {
        self.load = KernelLoad::new(config, self.model.spec());
        self.invalidate_caches();
        // The one change to the operating points the bank cannot see: the
        // replay deltas it recorded were taken under the old workload.
        self.bank.invalidate_segments();
    }

    /// Total simulated time this platform has executed.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Program one host's node power limit (clamped into the settable
    /// range by the node itself).
    pub fn set_host_limit(&mut self, host: usize, limit: Watts) -> Result<(), SimHwError> {
        if host >= self.bank.len() {
            return Err(SimHwError::UnknownNode(host));
        }
        self.invalidate_host_caches(host);
        self.bank.set_power_limit(host, limit)
    }

    /// Program (or release) one host's frequency cap through the DVFS path.
    pub fn set_host_freq_cap(&mut self, host: usize, cap: Option<Hertz>) -> Result<(), SimHwError> {
        if host >= self.bank.len() {
            return Err(SimHwError::UnknownNode(host));
        }
        self.invalidate_host_caches(host);
        self.bank.set_freq_cap(host, cap)
    }

    /// Apply a control operation to every host, skipping fail-stop dead
    /// ones (nothing left to program); other errors propagate. The shared
    /// error discipline of every uniform control sweep.
    fn for_each_live_host(
        &mut self,
        mut op: impl FnMut(&mut NodeBank, usize) -> Result<(), SimHwError>,
    ) -> Result<(), SimHwError> {
        self.invalidate_caches();
        for host in 0..self.bank.len() {
            match op(&mut self.bank, host) {
                Ok(()) | Err(SimHwError::NodeFailed(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Program many hosts' node power limits in one batched bank write
    /// ([`NodeBank::set_power_limits`]): host `h` takes `limit_of(h)` where
    /// that is `Some`, as [`Self::set_host_limit`] calls in host order
    /// would, up to the first error. Returns how many hosts were written;
    /// only the segments written drop their caches.
    pub fn set_host_limits(
        &mut self,
        limit_of: impl Fn(usize) -> Option<Watts> + Sync,
    ) -> Result<usize, SimHwError> {
        let out = self.bank.set_power_limits(0..self.bank.len(), limit_of);
        self.forget_dirtied_segments(out != Ok(0));
        out.map_err(|(_, e)| e)
    }

    /// Program every host to the same node power limit, in one batched bank
    /// write. Fail-stop dead hosts are skipped (nothing left to program);
    /// other errors propagate.
    pub fn set_uniform_limit(&mut self, limit: Watts) -> Result<(), SimHwError> {
        self.invalidate_caches();
        let n = self.bank.len();
        let mut from = 0;
        while from < n {
            match self.bank.set_power_limits(from..n, |_| Some(limit)) {
                Ok(_) => break,
                Err((h, SimHwError::NodeFailed(_))) => from = h + 1,
                Err((_, e)) => return Err(e),
            }
        }
        Ok(())
    }

    /// Program (or release) a frequency cap on every host — the DVFS
    /// control path through `IA32_PERF_CTL`. Fail-stop dead hosts are
    /// skipped, like [`Self::set_uniform_limit`].
    pub fn set_uniform_freq_cap(&mut self, cap: Option<Hertz>) -> Result<(), SimHwError> {
        self.for_each_live_host(|bank, host| bank.set_freq_cap(host, cap))
    }

    /// Per-host health as observed through the platform.
    pub fn host_health(&self) -> Vec<NodeHealth> {
        let mut out = Vec::new();
        self.host_health_into(&mut out);
        out
    }

    /// Fill `out` with per-host health without allocating (beyond first use).
    pub fn host_health_into(&self, out: &mut Vec<NodeHealth>) {
        out.clear();
        out.extend((0..self.bank.len()).map(|h| self.bank.health(h)));
    }

    /// The host's efficiency factor ε.
    pub fn host_eps(&self, host: usize) -> f64 {
        self.bank.eps(host)
    }

    /// True when the host exists and is not fail-stop dead.
    pub fn is_host_alive(&self, host: usize) -> bool {
        host < self.bank.len() && self.bank.is_alive(host)
    }

    /// Number of hosts still alive.
    pub fn alive_hosts(&self) -> usize {
        self.bank.alive_count()
    }

    /// Mark a host suspect (stale telemetry, transient faults) without
    /// killing it; controllers call this when readings go missing.
    pub fn mark_host_suspect(&mut self, host: usize) {
        if host < self.bank.len() {
            self.bank.mark_suspect(host);
        }
    }

    /// Clear a host's suspect marking after telemetry recovers.
    pub fn mark_host_healthy(&mut self, host: usize) {
        if host < self.bank.len() {
            self.bank.mark_healthy(host);
        }
    }

    /// Inject a fault into one host immediately (outside any plan).
    pub fn inject_fault(&mut self, host: usize, kind: pmstack_simhw::FaultKind) {
        if host < self.bank.len() {
            self.invalidate_host_caches(host);
            self.bank.inject(host, kind);
        }
    }

    /// One host's observed health (allocation-free single-host probe).
    pub fn host_health_of(&self, host: usize) -> NodeHealth {
        self.bank.health(host)
    }

    /// The currently programmed per-host limits.
    pub fn host_limits(&self) -> Vec<Watts> {
        let mut out = Vec::new();
        self.host_limits_into(&mut out);
        out
    }

    /// Fill `out` with per-host programmed limits without allocating.
    pub fn host_limits_into(&self, out: &mut Vec<Watts>) {
        out.clear();
        out.extend((0..self.bank.len()).map(|h| self.bank.power_limit(h)));
    }

    /// Cumulative per-host energy.
    pub fn host_energy(&self) -> Vec<Joules> {
        let mut out = Vec::new();
        self.host_energy_into(&mut out);
        out
    }

    /// Fill `out` with cumulative per-host energy without allocating.
    pub fn host_energy_into(&self, out: &mut Vec<Joules>) {
        out.clear();
        out.reserve(self.bank.len());
        out.extend(self.bank.energies());
    }

    /// Total cumulative fleet energy, summed without allocating — the
    /// per-tick call the serving plane makes at 100k+ hosts.
    pub fn total_energy(&self) -> Joules {
        self.bank.energies().sum()
    }

    /// Write the bank's pending replays into its energy cells
    /// ([`NodeBank::apply_pending_replays`]). Reads are exact either way;
    /// a caller that reads the energy every iteration calls this once per
    /// iteration, so the read stays one add per cell however long the
    /// fleet stays steady.
    pub fn apply_pending_replays(&mut self) {
        self.bank.apply_pending_replays();
    }

    /// Capture a [`FleetSnapshot`] of this platform paired with the most
    /// recent iteration `outcome` it produced.
    pub fn fleet_snapshot(&self, outcome: &IterationOutcome) -> FleetSnapshot {
        FleetSnapshot {
            hosts: self.bank.len(),
            alive: self.alive_hosts(),
            segments: self.num_segments(),
            elapsed_s: self.elapsed().value(),
            steady: self.steady_state_active(),
            energy_j: self.total_energy().value(),
            power_w: outcome.total_power().value(),
            iteration_s: outcome.elapsed.value(),
        }
    }

    /// The operating point a host would settle on under its *enforced*
    /// limit (and any software frequency cap) right now. Out-of-range hosts
    /// are an error, consistent with [`Self::set_host_limit`].
    pub fn host_operating_point(&self, host: usize) -> Result<OperatingPoint, SimHwError> {
        if host >= self.bank.len() {
            return Err(SimHwError::UnknownNode(host));
        }
        Ok(self.bank.operating_point(host, &self.model, &self.load))
    }

    /// Execute one bulk-synchronous iteration (allocating wrapper around
    /// [`Self::run_iteration_into`], for callers that want an owned
    /// outcome).
    pub fn run_iteration(&mut self) -> IterationOutcome {
        let mut bufs = std::mem::take(&mut self.scratch);
        self.run_iteration_into(&mut bufs);
        let out = bufs.outcome().clone();
        self.scratch = bufs;
        out
    }

    /// Execute one bulk-synchronous iteration into caller-owned buffers:
    /// each host computes at the operating point its enforced limit allows;
    /// the barrier releases when the slowest host finishes; every node
    /// accumulates energy for the full elapsed time (waiting hosts poll at
    /// their operating-point power, which is the energy sink the paper's
    /// kernel deliberately models). The result lands in `bufs.outcome()`;
    /// after the first two iterations the loop is allocation-free, and a
    /// clean segment costs a stamp check plus the bank's replay count (the
    /// module docs have the rule).
    pub fn run_iteration_into(&mut self, bufs: &mut IterationBuffers) {
        // Fire the fault plan's events scheduled for this iteration before
        // anything computes — a node dying "during" an iteration is modeled
        // as dying at its leading barrier.
        loop {
            let events = self.fault_plan.events();
            if self.fault_cursor >= events.len()
                || events[self.fault_cursor].at_iteration > self.iteration
            {
                break;
            }
            let ev = events[self.fault_cursor];
            self.fault_cursor += 1;
            if ev.at_iteration == self.iteration && ev.host < self.bank.len() {
                // An applied event dirties only its host's segment.
                self.bank.inject(ev.host, ev.kind);
                self.invalidate_host_caches(ev.host);
            } else {
                // A skipped (stale / out-of-range) event invalidates
                // conservatively, matching the historical behavior.
                self.invalidate_caches();
            }
        }
        self.iteration += 1;

        let n = self.bank.len();
        let segs = self.segments.len();
        debug_assert_eq!(segs, self.bank.num_segments());
        let BufferSide {
            outcome: back,
            stamps,
        } = bufs.claim(self.id, n, segs);
        let ff = self.fast_forward;
        // With jitter off no draw can move a compute time this iteration.
        let calm = self.jitter_sigma == 0.0;

        // An all-clean iteration is not timed: its stages are a stamp check
        // per segment and a replay count, and the laps' five clock reads and
        // four histogram updates (~0.35 µs on a 2-vCPU VM) would cost it a
        // fifth again with the recorder on, as under `repro megafleet`.
        let mut laps = Laps::start(!(ff && calm && self.steady));

        // The pre-step pass ([`prestep`]), in segment-aligned chunks on the
        // exec pool once two segments resolve; a steady or churn iteration
        // stays one pass on the calling thread.
        let cols = PreCols {
            segments: &mut self.segments,
            stamps,
            limits: &mut back.host_limit,
            ops: &mut self.ops,
            op_times: &mut self.op_times,
        };
        let (model, load) = (&self.model, &self.load);
        let resolved = (self.bank).resolve_pieces(cols, self.unresolved >= 2, |res, cols| {
            prestep(res, cols, ff, model, load)
        });
        laps.lap(&RESOLVE_SECS);
        if resolved == 0 {
            SETTLED_HIT.inc();
        } else {
            SETTLED_MISS.inc();
        }

        // Compute times (`compute_times`). With jitter on, every live host
        // draws, in host order on every path; with it off, the pass draws
        // nothing and fans out by segment like the pre-step pass.
        let sh = self.bank.segment_hosts();
        let fan_out = resolved >= 2;
        let cols = PostCols::new(
            sh,
            &mut self.segments,
            stamps,
            (&self.ops, &self.op_times, &self.steps),
            (&mut self.last_power, &mut self.last_lead),
            back,
        );
        // The barrier releases when the slowest host finishes.
        let elapsed = if calm && fan_out {
            let pieces = par_segments(cols, segs, sh, n, |_, cols| {
                compute_times(cols, true, || 1.0)
            });
            pieces.into_iter().fold(Seconds::ZERO, Seconds::max)
        } else {
            let (rng, sigma) = (&mut self.rng, self.jitter_sigma);
            compute_times(&mut { cols }, calm, || jitter(rng, sigma))
        };
        laps.lap(&JITTER_SECS);

        // Advance RAPL state (energy counters + enforcement filters) on
        // every live host through the iteration at its operating-point
        // power in one batched columnar pass; the bank fans out when it
        // steps enough segments to pay for it. With fast-forward on, it
        // counts a replay for the segments its caches prove settled instead
        // of re-running their arithmetic.
        let replayed = if ff {
            (self.bank)
                .step_all_partial(elapsed, &self.ops, &mut self.steps, true)
                .segments_replayed
        } else {
            self.bank
                .step_all(elapsed, &self.ops, &mut self.steps, true);
            0
        };
        laps.lap(&RAPL_STEP_SECS);
        // Every segment was clean: cached points, no jitter, replayed.
        if calm && resolved == 0 && replayed == segs {
            FFWD_ENGAGED.inc();
        }

        // The outcome write (`write_outcome`), fanned out by segment like
        // the passes before it.
        let mut cols = PostCols::new(
            sh,
            &mut self.segments,
            stamps,
            (&self.ops, &self.op_times, &self.steps),
            (&mut self.last_power, &mut self.last_lead),
            back,
        );
        let (bank, all_replayed) = (&self.bank, replayed == segs);
        let pass = |piece: Range<usize>, cols: &mut PostCols<'_>| {
            let flags = (ff, ff && calm, all_replayed);
            write_outcome(cols, bank, piece.start, flags, elapsed)
        };
        let written = if fan_out {
            let passes = par_segments(cols, segs, sh, n, pass);
            let first = passes[0];
            passes[1..].iter().fold(first, |all, &piece| all.and(piece))
        } else {
            pass(0..segs, &mut cols)
        };
        let OutcomePass {
            steady,
            reused,
            unresolved,
        } = written;
        self.unresolved = unresolved;
        // Zero adds are skipped: in steady state nothing is rewritten, and a
        // sweep's workers would only bounce the counter's cache line.
        if reused > 0 {
            SEGMENTS_REUSED.add(reused);
        }
        if reused < segs as u64 {
            SEGMENTS_REWRITTEN.add(segs as u64 - reused);
        }
        laps.lap(&OUTCOME_WRITE_SECS);
        back.elapsed = elapsed;
        self.elapsed += elapsed;
        bufs.swap();

        if steady && !self.steady {
            FFWD_CAPTURED.inc();
            pmstack_obs::event(
                self.elapsed.value(),
                EventKind::FfwdCaptured {
                    hosts: self.bank.len() as u64,
                },
            );
        }
        self.steady = steady;
    }
}

/// One host's compute-time jitter factor: 1 with `sigma` zero (no draw),
/// else two draws from `rng`.
fn jitter(rng: &mut ChaCha8Rng, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    // Two-uniform approximation of a centered Gaussian is plenty for
    // multiplicative noise of a fraction of a percent.
    let u: f64 = rng.gen::<f64>() + rng.gen::<f64>() - 1.0;
    (1.0 + u * sigma * 1.7).max(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmstack_kernel::{Imbalance, VectorWidth, WaitingFraction};
    use pmstack_simhw::{quartz_spec, NodeId};

    fn platform(n_hosts: usize, eps: &[f64]) -> JobPlatform {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let nodes = (0..n_hosts)
            .map(|i| Node::new(NodeId(i), &model, eps.get(i).copied().unwrap_or(1.0)).unwrap())
            .collect();
        JobPlatform::new(
            model,
            nodes,
            KernelConfig::new(
                8.0,
                VectorWidth::Ymm,
                WaitingFraction::P0,
                Imbalance::Balanced,
            ),
        )
    }

    #[test]
    fn iteration_elapsed_is_max_of_hosts() {
        let mut p = platform(3, &[1.0, 1.0, 1.07]);
        // Tight limit: the inefficient host is slower.
        p.set_uniform_limit(Watts(150.0)).unwrap();
        // Let enforcement settle.
        for _ in 0..30 {
            p.run_iteration();
        }
        let out = p.run_iteration();
        let max_t = out
            .host_compute_time
            .iter()
            .copied()
            .fold(Seconds::ZERO, Seconds::max);
        assert_eq!(out.elapsed, max_t);
        assert!(out.host_compute_time[2] >= out.host_compute_time[0]);
    }

    #[test]
    fn energy_accumulates_over_iterations() {
        let mut p = platform(2, &[1.0, 1.0]);
        p.run_iteration();
        let e1 = p.host_energy();
        p.run_iteration();
        let e2 = p.host_energy();
        assert!(e2[0] > e1[0] && e2[1] > e1[1]);
    }

    #[test]
    fn fleet_snapshot_reflects_live_state() {
        let mut p = platform(3, &[1.0, 1.0, 1.07]);
        // Liveness is the bank's own tally, so it is there before the first
        // iteration has filled an outcome.
        let snap = p.fleet_snapshot(&IterationOutcome::default());
        assert_eq!(snap.hosts, 3);
        assert_eq!(snap.alive, 3);
        assert_eq!(snap.energy_j, 0.0);
        let out = p.run_iteration();
        let snap = p.fleet_snapshot(&out);
        assert_eq!(snap.hosts, 3);
        assert_eq!(snap.alive, 3);
        assert_eq!(snap.segments, p.num_segments());
        assert!(snap.energy_j > 0.0);
        assert!(snap.power_w > 0.0);
        assert!(snap.iteration_s > 0.0);
        assert!((snap.elapsed_s - p.elapsed().value()).abs() < 1e-12);
    }

    #[test]
    fn jitter_is_reproducible_and_small() {
        let mk = |seed| {
            let mut p = platform(1, &[1.0]).with_jitter(0.01, seed);
            (0..5)
                .map(|_| p.run_iteration().elapsed.value())
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(3), mk(3));
        assert_ne!(mk(3), mk(4));
        let ts = mk(3);
        let mean = ts.iter().sum::<f64>() / ts.len() as f64;
        assert!(ts.iter().all(|t| (t - mean).abs() / mean < 0.1));
    }

    #[test]
    fn limits_are_programmable_per_host() {
        let mut p = platform(2, &[1.0, 1.0]);
        p.set_host_limit(0, Watts(150.0)).unwrap();
        p.set_host_limit(1, Watts(200.0)).unwrap();
        let limits = p.host_limits();
        assert!((limits[0].value() - 150.0).abs() < 0.5);
        assert!((limits[1].value() - 200.0).abs() < 0.5);
        assert!(p.set_host_limit(5, Watts(150.0)).is_err());
    }

    #[test]
    fn out_of_range_limits_are_clamped_by_node() {
        let mut p = platform(1, &[1.0]);
        // 50 W/node is below the 136 W floor; node clamps per socket.
        p.set_host_limit(0, Watts(50.0)).unwrap();
        assert!((p.host_limits()[0].value() - 136.0).abs() < 0.5);
    }

    #[test]
    fn total_power_sums_hosts() {
        let mut p = platform(3, &[1.0, 1.0, 1.0]);
        let out = p.run_iteration();
        let sum: f64 = out.host_power.iter().map(|w| w.value()).sum();
        assert!((out.total_power().value() - sum).abs() < 1e-9);
    }

    #[test]
    fn planned_node_death_fires_at_its_iteration() {
        let plan = pmstack_simhw::FaultPlan::scripted(vec![pmstack_simhw::faults::kill(1, 3)]);
        let mut p = platform(2, &[1.0, 1.0]).with_fault_plan(plan);
        let before = p.run_iteration(); // iterations 0, 1, 2
        assert!(before.host_alive.iter().all(|&a| a));
        p.run_iteration();
        p.run_iteration();
        let after = p.run_iteration(); // iteration 3: host 1 dies at barrier
        assert!(after.host_alive[0]);
        assert!(!after.host_alive[1]);
        assert_eq!(after.alive_count(), 1);
        assert!(after.degraded());
        assert_eq!(after.host_power[1], Watts::ZERO);
        // The survivors keep the job going: elapsed still positive, and the
        // dead host no longer accumulates energy.
        let e1 = p.host_energy();
        p.run_iteration();
        let e2 = p.host_energy();
        assert!(e2[0] > e1[0]);
        assert_eq!(e2[1], e1[1]);
    }

    #[test]
    fn telemetry_dropout_serves_stale_readings_then_recovers() {
        let plan =
            pmstack_simhw::FaultPlan::scripted(vec![pmstack_simhw::faults::telemetry_dropout(
                0, 1, 3,
            )]);
        let mut p = platform(1, &[1.0]).with_fault_plan(plan);
        let fresh = p.run_iteration();
        assert!(fresh.host_fresh[0]);
        let known = fresh.host_power[0];
        let e_before = p.host_energy();
        for _ in 0..3 {
            let out = p.run_iteration();
            assert!(out.host_alive[0], "dropout must not kill the host");
            assert!(!out.host_fresh[0]);
            assert_eq!(out.host_power[0], known, "stale reading is last-known");
        }
        // The hardware kept running underneath the blackout.
        assert!(p.host_energy()[0] > e_before[0]);
        let recovered = p.run_iteration();
        assert!(recovered.host_fresh[0]);
    }

    #[test]
    fn stuck_rapl_pins_the_programmed_limit() {
        let mut p = platform(1, &[1.0]);
        p.inject_fault(0, pmstack_simhw::FaultKind::StuckRapl { pinned_w: 200.0 });
        // Writes "succeed" but the latch wins.
        p.set_host_limit(0, Watts(150.0)).unwrap();
        assert!((p.host_limits()[0].value() - 200.0).abs() < 0.5);
    }

    #[test]
    fn uniform_limit_skips_dead_hosts() {
        let mut p = platform(2, &[1.0, 1.0]);
        p.inject_fault(1, pmstack_simhw::FaultKind::NodeDeath);
        p.set_uniform_limit(Watts(180.0)).unwrap();
        assert!((p.host_limits()[0].value() - 180.0).abs() < 0.5);
        assert!(!p.is_host_alive(1));
        assert_eq!(p.alive_hosts(), 1);
        assert_eq!(p.host_health()[1], NodeHealth::Dead);
    }

    #[test]
    fn host_operating_point_rejects_unknown_hosts() {
        let p = platform(2, &[1.0, 1.0]);
        assert!(p.host_operating_point(1).is_ok());
        assert!(matches!(
            p.host_operating_point(2),
            Err(SimHwError::UnknownNode(2))
        ));
    }

    /// The heart of the tentpole's correctness claim at the platform level:
    /// with fast-forward on and off, every observable of every iteration is
    /// bit-identical — including across a mid-run limit write that breaks
    /// and later re-establishes the steady state.
    #[test]
    fn fast_forward_is_bit_identical_to_stepping() {
        let mk = || {
            let mut p = platform(4, &[0.95, 1.0, 1.03, 1.07]);
            p.set_uniform_limit(Watts(180.0)).unwrap();
            p
        };
        let mut fast = mk();
        let mut slow = mk();
        slow.set_fast_forward(false);
        let mut fb = IterationBuffers::new();
        let mut sb = IterationBuffers::new();
        let mut engaged = false;
        for iter in 0..220 {
            if iter == 120 {
                fast.set_host_limit(2, Watts(160.0)).unwrap();
                slow.set_host_limit(2, Watts(160.0)).unwrap();
            }
            fast.run_iteration_into(&mut fb);
            slow.run_iteration_into(&mut sb);
            engaged |= fast.steady_state_active();
            let (f, s) = (fb.outcome(), sb.outcome());
            assert_eq!(f.elapsed.value().to_bits(), s.elapsed.value().to_bits());
            for h in 0..4 {
                assert_eq!(
                    f.host_power[h].value().to_bits(),
                    s.host_power[h].value().to_bits(),
                    "power diverged at iteration {iter} host {h}"
                );
                assert_eq!(
                    f.host_limit[h].value().to_bits(),
                    s.host_limit[h].value().to_bits()
                );
                assert_eq!(f.host_alive[h], s.host_alive[h]);
                assert_eq!(f.host_fresh[h], s.host_fresh[h]);
            }
        }
        assert!(engaged, "fast-forward should engage after settling");
        assert!(
            !slow.steady_state_active(),
            "disabled platform never arms steady state"
        );
        let (fe, se) = (fast.host_energy(), slow.host_energy());
        for h in 0..4 {
            assert_eq!(
                fe[h].value().to_bits(),
                se[h].value().to_bits(),
                "energy diverged on host {h}"
            );
        }
    }

    /// With fast-forward off the platform writes `ops` itself, so the spans
    /// the bank recorded stop describing the slots. The hazard is a limit
    /// that creeps back into a span recorded before the toggle on the very
    /// step before fast-forward returns: the slot then holds the oracle's
    /// point for the limit before that step. Turning it back on at every
    /// iteration of such a descent must match the twin that never used a
    /// span.
    #[test]
    fn toggling_fast_forward_mid_run_forgets_the_spans() {
        for on_again_after in 0..25 {
            let mk = || platform(3, &[0.95, 1.0, 1.07]);
            let (mut toggled, mut twin) = (mk(), mk());
            twin.set_fast_forward(false);
            let (mut tb, mut wb) = (IterationBuffers::new(), IterationBuffers::new());
            let mut run = |toggled: &mut JobPlatform, twin: &mut JobPlatform, iterations| {
                for _ in 0..iterations {
                    toggled.run_iteration_into(&mut tb);
                    twin.run_iteration_into(&mut wb);
                    assert_eq!(tb.outcome(), wb.outcome(), "back on after {on_again_after}");
                }
            };
            let limit = |toggled: &mut JobPlatform, twin: &mut JobPlatform, w| {
                toggled.set_uniform_limit(Watts(w)).unwrap();
                twin.set_uniform_limit(Watts(w)).unwrap();
            };
            // Spans recorded part-way down a descent ...
            limit(&mut toggled, &mut twin, 150.0);
            run(&mut toggled, &mut twin, 4);
            // ... then up and down again through them with the oracle writing.
            toggled.set_fast_forward(false);
            limit(&mut toggled, &mut twin, 240.0);
            run(&mut toggled, &mut twin, 10);
            limit(&mut toggled, &mut twin, 150.0);
            run(&mut toggled, &mut twin, on_again_after);
            toggled.set_fast_forward(true);
            run(&mut toggled, &mut twin, 10);
            assert_eq!(toggled.host_energy(), twin.host_energy());
        }
    }

    /// Fault events and jitter must each keep the fast path disarmed.
    #[test]
    fn fast_forward_disarms_on_faults_and_jitter() {
        let plan = pmstack_simhw::FaultPlan::scripted(vec![pmstack_simhw::faults::kill(0, 200)]);
        let mut p = platform(2, &[1.0, 1.0]).with_fault_plan(plan);
        p.set_uniform_limit(Watts(180.0)).unwrap();
        let mut bufs = IterationBuffers::new();
        for _ in 0..200 {
            p.run_iteration_into(&mut bufs);
        }
        assert!(p.steady_state_active());
        p.run_iteration_into(&mut bufs); // iteration 200: the death fires
        assert!(!bufs.outcome().host_alive[0]);

        let mut j = platform(2, &[1.0, 1.0]).with_jitter(0.01, 9);
        for _ in 0..80 {
            j.run_iteration_into(&mut bufs);
        }
        assert!(
            !j.steady_state_active(),
            "jitter must never arm steady state"
        );
    }

    /// The double buffer keeps the previous outcome readable and reuses
    /// allocations across iterations.
    #[test]
    fn iteration_buffers_double_buffer() {
        let mut p = platform(2, &[1.0, 1.0]);
        let mut bufs = IterationBuffers::new();
        p.run_iteration_into(&mut bufs);
        let first = bufs.outcome().clone();
        p.run_iteration_into(&mut bufs);
        assert_eq!(bufs.previous(), &first);
        assert_eq!(bufs.outcome().host_power.len(), 2);
    }

    /// Stamps only mean something to the platform and sharding that wrote
    /// them. Buffers that served platform A and are then handed to a
    /// same-sized platform B — steady from its first iteration, as a fresh
    /// platform is — or that stay with a platform across a re-shard, must be
    /// rewritten, not trusted: every iteration equals the one the same
    /// platform produces into buffers of its own.
    #[test]
    fn buffers_moved_between_platforms_are_rewritten() {
        let a_eps = [0.95, 0.95, 0.95];
        let b_eps = [1.07, 1.07, 1.07];
        let mut bufs = IterationBuffers::new();
        let mut a = platform(3, &a_eps);
        for _ in 0..4 {
            a.run_iteration_into(&mut bufs);
        }
        assert!(a.steady_state_active());

        let mut b = platform(3, &b_eps);
        let mut b_twin = platform(3, &b_eps);
        let mut own = IterationBuffers::new();
        for iter in 0..4 {
            b.run_iteration_into(&mut bufs);
            b_twin.run_iteration_into(&mut own);
            assert_eq!(bufs.outcome(), own.outcome(), "iteration {iter}");
        }
        assert_ne!(bufs.outcome().host_power, a.run_iteration().host_power);

        // 3 hosts as 1+1+1 and as 2+1: the same buffers across the re-shard.
        let mut c = platform(3, &[0.95, 1.0, 1.07]).with_segment_hosts(1);
        let mut c_twin = platform(3, &[0.95, 1.0, 1.07]).with_segment_hosts(1);
        for _ in 0..4 {
            c.run_iteration_into(&mut bufs);
            c_twin.run_iteration_into(&mut own);
        }
        c.set_host_limit(2, Watts(150.0)).unwrap();
        c_twin.set_host_limit(2, Watts(150.0)).unwrap();
        let mut c = c.with_segment_hosts(2);
        let mut c_twin = c_twin.with_segment_hosts(2);
        let mut own = IterationBuffers::new();
        for iter in 0..4 {
            c.run_iteration_into(&mut bufs);
            c_twin.run_iteration_into(&mut own);
            assert_eq!(
                bufs.outcome(),
                own.outcome(),
                "re-sharded, iteration {iter}"
            );
        }
    }
}
