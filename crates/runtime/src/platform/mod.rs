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
//! virtual per-node steps. The `Node`s handed to [`JobPlatform::new`] are
//! ingested into the columns and dropped; [`JobPlatform::from_hosts`] builds
//! no `Node` at all, filling the columns from one part
//! ([`NodeBank::from_part`]); [`JobPlatform::node`] materialises one on
//! demand. [`JobPlatform::run_iteration_into`] fills caller-owned
//! double-buffered [`IterationBuffers`] whose vectors are sized once and
//! written by index, so the loop allocates nothing after warm-up.
//!
//! **The invariant this file owns: everything the platform caches is per
//! bank segment, and a segment's cache holds exactly while the condition
//! naming its state does.** One iteration costs O(dirty segments · segment
//! size + clean segments); the whole fleet fast-forwarding is simply the
//! iteration in which no segment is dirty, and it touches no per-host
//! column. A segment goes through four states, each one the one before it
//! plus a condition, and two shortcuts that hold beside them:
//!
//! * **dirty** — a control write that changed a PL1 cell, a fault or a
//!   workload change touched it, or its enforcement filters are still
//!   moving. Its operating points are re-checked, the bank steps it, and
//!   its limit slice of the outcome is rewritten.
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
//! * **at target** (beside stable) — every live filter of a stable segment
//!   holds exactly its target's bits, so no `dt` moves it: under jitter the
//!   bank steps it by its energy alone (`simhw::bank` segments), which is
//!   where most settled jittered iterations go.
//! * **kept outcome** (beside dirty) — a segment whose filters still move
//!   but whose pre-step pass re-searched no host, or landed every
//!   re-searched host on the point it held, and whose step read every live
//!   host back fresh as the one before did: its power, lead, alive and
//!   fresh slices and `last_power`/`last_lead` are what they were, so its
//!   outcome epoch stays and only its limit slice is rewritten (`outcome`
//!   module).
//!
//! A write or fault drops the caches of exactly the segments it touched:
//! [`JobPlatform::set_host_limit`], [`JobPlatform::set_uniform_limit`] and
//! [`JobPlatform::set_host_limits`] are one [`NodeBank::set_power_limits`]
//! each, after which the platform drops the caches of the segments the bank
//! dirtied — none, for a write that stored the PL1 bits its hosts held.
//! Health marks are exempt: they never enter the operating point or the
//! outcome. [`JobPlatform::trust_epoch`] moves with every outcome epoch,
//! health mark and fault, so a controller marks trust only when it can
//! change.
//!
//! An iteration runs four stages, each timed by a `runtime.iter.*` span:
//! the pre-step pass (`prestep`: observed limits and operating points, the
//! span rule), the jitter draws with the compute-time pass, the bank's
//! step, and the outcome write (`outcome`: the epoch rule); the buffers
//! (`buffers`) carry the owner rule. Energy reads
//! ([`JobPlatform::host_energy`], [`JobPlatform::total_energy`],
//! [`JobPlatform::fleet_snapshot`], a materialised node's energy-status
//! MSR) stay `&self`; [`JobPlatform::apply_pending_replays`] writes the
//! bank's counts into the cells for a caller that reads every iteration.
//!
//! [`JobPlatform::set_fast_forward`]`(false)` turns every cache off:
//! every host goes through the PCU search ([`NodeBank::operating_point`],
//! spans ignored) and is stepped every iteration, which is the reference the
//! determinism suites compare against.

mod buffers;
mod outcome;
mod prestep;

#[cfg(test)]
mod tests;

pub use buffers::{FleetSnapshot, IterationBuffers, IterationOutcome};

use buffers::{next_platform_id, BufferSide};
use outcome::{compute_times, write_outcome, OutcomePass, PostCols};
use pmstack_kernel::{KernelConfig, KernelLoad};
use pmstack_obs::{EventKind, StaticCounter, StaticHistogram};
use pmstack_simhw::bank::par_segments;
use pmstack_simhw::power::OperatingPoint;
use pmstack_simhw::{
    FaultPlan, Hertz, HostStep, Joules, Node, NodeBank, NodeHealth, NodeId, PowerModel, Seconds,
    SimHwError, Watts,
};
use prestep::{prestep, PreCols};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
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
    /// any `dt`, so neither of its epochs moves.
    stable: bool,
    /// This iteration's resolve landed every `ops` slot of the segment on
    /// the bits it held. Written only when the segment resolves, so read
    /// only when `ops_valid` was unset going in (a cached segment keeps its
    /// slots by definition).
    ops_kept: bool,
    /// The content `outcome` names was written from a quiescent step (every
    /// live host read back fresh).
    quiet: bool,
    /// Maximum compute time over the segment's hosts, as last written.
    time: Seconds,
    /// Names the content of the segment's limit slice (and, jitter off, its
    /// compute-time slice).
    epoch: u64,
    /// Names the content of the segment's power, lead, alive and fresh
    /// slices and its `last_power`/`last_lead`.
    outcome: u64,
}

impl SegmentState {
    /// Epochs start at 1 so a never-written stamp (0) matches none.
    const COLD: Self = Self {
        ops_valid: false,
        stable: false,
        ops_kept: false,
        quiet: false,
        time: Seconds::ZERO,
        epoch: 1,
        outcome: 1,
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
    /// Moves whenever an input of trust marking may have moved: an
    /// iteration that moved some segment's outcome epoch (its alive and
    /// fresh slices may differ from the iteration before), a health mark, a
    /// fault or a cache drop ([`Self::trust_epoch`]).
    trust_epoch: u64,
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
            trust_epoch: 0,
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
        self.trust_epoch += 1;
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
        self.trust_epoch += 1;
        *seg = seg.forget();
    }

    /// Drop the caches of every segment a bank write dirtied since the last
    /// step — the partial invalidation of a limit write, one test per
    /// segment — and leave steady state if any was. A write that stored
    /// what its hosts held dirtied nothing, so it leaves every cache.
    fn forget_dirtied_segments(&mut self) {
        for (sidx, seg) in self.segments.iter_mut().enumerate() {
            if seg.ops_valid && !self.bank.segment_settled(sidx) {
                FFWD_INVALIDATED.inc();
                self.unresolved += 1;
                self.steady = false;
                *seg = seg.forget();
            }
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
        let out = self.bank.set_power_limit(host, limit);
        // Only the host's segment can have been dirtied.
        if !self.bank.segment_settled(self.bank.segment_of(host)) {
            self.invalidate_host_caches(host);
        }
        out
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
    /// would, up to the first error, which comes back with the host that
    /// refused. Returns how many hosts were written; only the segments
    /// written drop their caches.
    pub fn set_host_limits(
        &mut self,
        limit_of: impl Fn(usize) -> Option<Watts> + Sync,
    ) -> Result<usize, (usize, SimHwError)> {
        let out = self.bank.set_power_limits(0..self.bank.len(), limit_of);
        self.forget_dirtied_segments();
        out
    }

    /// Program every host to the same node power limit, in one batched bank
    /// write. Fail-stop dead hosts are skipped (nothing left to program);
    /// other errors propagate.
    pub fn set_uniform_limit(&mut self, limit: Watts) -> Result<(), SimHwError> {
        let n = self.bank.len();
        let mut from = 0;
        let out = loop {
            match self.bank.set_power_limits(from..n, |_| Some(limit)) {
                Ok(_) => break Ok(()),
                Err((h, SimHwError::NodeFailed(_))) if h + 1 < n => from = h + 1,
                Err((_, SimHwError::NodeFailed(_))) => break Ok(()),
                Err((_, e)) => break Err(e),
            }
        };
        self.forget_dirtied_segments();
        out
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
            self.trust_epoch += 1;
        }
    }

    /// Clear a host's suspect marking after telemetry recovers.
    pub fn mark_host_healthy(&mut self, host: usize) {
        if host < self.bank.len() {
            self.bank.mark_healthy(host);
            self.trust_epoch += 1;
        }
    }

    /// A count that moves whenever an input of trust marking may have
    /// moved since it was last read: an iteration whose outcome moved some
    /// segment's alive or fresh slices, a health mark, a fault, or a change
    /// that drops the platform's caches. While it stands still, the latest
    /// outcome's alive and fresh slices equal the previous one's and no
    /// host's health has changed, so a pass that marked health from the
    /// previous outcome has nothing to mark from this one.
    pub fn trust_epoch(&self) -> u64 {
        self.trust_epoch
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
        self.programmed_limits().to_vec()
    }

    /// The per-host programmed limits, borrowed from the bank's column.
    pub fn programmed_limits(&self) -> &[Watts] {
        self.bank.power_limits()
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
            outcome_stamps,
        } = bufs.claim(self.id, n, segs);
        let ff = self.fast_forward;
        // With jitter off no draw can move a compute time this iteration.
        let calm = self.jitter_sigma == 0.0;

        // An all-clean iteration is not timed: its stages are a stamp check
        // per segment and a replay count, and the laps' five clock reads and
        // four histogram updates (~0.35 µs on a 2-vCPU VM) would cost it a
        // fifth again with the recorder on, as under `repro megafleet`.
        let mut laps = Laps::start(!(ff && calm && self.steady));

        // The pre-step pass (`prestep`), in segment-aligned chunks on the
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
            (stamps, outcome_stamps),
            (&self.ops, &self.op_times, &self.steps),
            (&mut self.last_power, &mut self.last_lead),
            back,
        );
        // The barrier releases when the slowest host finishes.
        let elapsed = if calm {
            let pass = |_, cols: &mut PostCols<'_>| compute_times(cols, true, || 1.0);
            par_segments(cols, segs, sh, n, fan_out, pass, Seconds::max)
        } else {
            let (rng, sigma) = (&mut self.rng, self.jitter_sigma);
            compute_times(&mut { cols }, false, || jitter(rng, sigma))
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
        let cols = PostCols::new(
            sh,
            &mut self.segments,
            (stamps, outcome_stamps),
            (&self.ops, &self.op_times, &self.steps),
            (&mut self.last_power, &mut self.last_lead),
            back,
        );
        let (bank, all_replayed) = (&self.bank, replayed == segs);
        let pass = |piece: Range<usize>, cols: &mut PostCols<'_>| {
            let flags = (ff, ff && calm, all_replayed);
            write_outcome(cols, bank, piece.start, flags, elapsed)
        };
        let OutcomePass {
            steady,
            reused,
            moved,
            unresolved,
        } = par_segments(cols, segs, sh, n, fan_out, pass, OutcomePass::and);
        self.unresolved = unresolved;
        self.trust_epoch += moved;
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

/// One host's compute-time jitter factor: two draws from `rng`.
fn jitter(rng: &mut ChaCha8Rng, sigma: f64) -> f64 {
    // Two-uniform approximation of a centered Gaussian is plenty for
    // multiplicative noise of a fraction of a percent.
    let u: f64 = rng.gen::<f64>() + rng.gen::<f64>() - 1.0;
    (1.0 + u * sigma * 1.7).max(0.5)
}
