//! Fault-tolerant facility campaign (`repro facility`).
//!
//! The Fig. 1 simulation ([`crate::facility`]) asks what a facility *draws*;
//! this module asks what it *survives*. A multi-day discrete-event campaign
//! runs the full job failure lifecycle against every §III policy:
//!
//! * **Checkpoint/restart** — running jobs checkpoint on a fixed cadence
//!   (progress stalls for the write); a kill rolls the job back to its last
//!   checkpoint, and the uncheckpointed tail is *wasted node-hours*.
//! * **Retry with backoff** — killed jobs relaunch after a capped
//!   exponential backoff ([`pmstack_rm::RetryPolicy`]); a crash-looping job
//!   hits the max-attempts kill switch and fails terminally.
//! * **Lease timeouts** — the campaign never tells the RM a node died. It
//!   observes heartbeats through a [`pmstack_rm::LeaseTable`]; telemetry
//!   going stale (death *or* a long blackout on a live node) expires the
//!   lease, drains the node, kills and requeues the job on it. Blackout
//!   false positives are repaired when telemetry resumes.
//! * **Budget shocks** — the system budget follows a diurnal grid-price
//!   curve, and chaos adds abrupt drops. An oversubscribed ledger is
//!   resolved in strict priority order: tighten flexible caps, then
//!   checkpoint-and-preempt the newest jobs, then hold the queue — the
//!   [`pmstack_rm::PowerLedger`] is never left oversubscribed.
//!
//! Everything is event-driven in one `(minute, seq)` order and all
//! randomness is pre-drawn before the clock starts, so two same-seed
//! campaigns are bit-identical, journal and summary included. The periodic
//! ticks and the pre-drawn faults and arrivals are cursors merged in that
//! order; only the dynamic events (launch, checkpoint, retry) go through a
//! heap. Job state lives in a dense table indexed by job id, the held jobs
//! and repair suspects in ordered sets, and node state in vectors indexed
//! by node. A telemetry tick touches only what can change in it: the jobs
//! holding nodes (accrued in id order), the nodes a fault silenced, and
//! the nodes drained while alive; its scheduling pass is free when nothing
//! the scheduler depends on changed (see [`pmstack_rm::Scheduler::tick`]).
//! Fault injection reuses the `simhw` taxonomy via [`FaultPlan::chaos`];
//! deaths are permanent (no repair crew), blackouts end. Jobs queue under the backfill discipline
//! ([`pmstack_rm::BackfillScheduler`]).
//!
//! The cells — one `(chaos, policy)` pair each, chaos 0 first, policies in
//! [`PolicyKind::all`] order — share nothing mutable, so [`run_campaign`]
//! fans them out with [`pmstack_exec::par_map`]. Rows come back in that
//! order at any pool width, and a campaign on the pool is bit-identical to
//! one under [`pmstack_exec::sequential_scope`]. Each cell writes its
//! journal into one buffer ([`Journal`]): a line is formatted straight onto
//! the end of it, and only its end offset is kept beside it. The line's
//! `t=` prefix is written by hand and its fixed-point numbers by `Fixed`,
//! which prints `{x:.N}`'s digits from an integer and leaves ties and
//! other edge values to core::fmt. The journal's `Debug` is the list of its
//! lines, byte for byte what the `Vec<String>` of them prints, because the
//! campaign's digests hash `{:?}` of the rows; a journal with nothing to
//! escape prints by copying its lines between quotes.
//!
//! Observability under the fan-out: every counter is an integer
//! (`facility.wasted_node_seconds` and the ledger's `rm.milliwatts.*`
//! round each add once), and integer adds commute, so concurrent cells
//! export the same counters as sequential ones. The `pmstack_obs::event`
//! records of concurrent cells interleave in the recorder's ring in
//! wall-clock order.

use crate::facility::{arrival_rate, job_size, poisson, workload_population};
use pmstack_core::PolicyKind;
use pmstack_kernel::KernelLoad;
use pmstack_obs::{EventKind, StaticCounter};
use pmstack_rm::{
    BackfillScheduler, JobId, JobLifecycle, JobSpec, LeaseTable, LifecycleState, NodePool,
    PowerLedger, RetryPolicy, SchedulerEvent,
};
use pmstack_simhw::{quartz_spec, FaultKind, FaultPlan, LoadModel, NodeId, PowerModel, Watts};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt::{self, Write};

/// Observability: checkpoints written durably to the parallel file system.
static CHECKPOINTS_SAVED: StaticCounter = StaticCounter::new("facility.checkpoint.saved");
/// Observability: in-flight checkpoint writes destroyed by a kill.
static CHECKPOINTS_LOST: StaticCounter = StaticCounter::new("facility.checkpoint.lost");
/// Observability: node-seconds of progress lost to kills (work past the
/// last checkpoint, summed over the killed job's nodes), rounded per kill.
static WASTED_NODE_SECONDS: StaticCounter = StaticCounter::new("facility.wasted_node_seconds");

/// Budget recomputation period, simulated minutes.
const BUDGET_TICK_MIN: u64 = 60;
/// Telemetry/heartbeat period, simulated minutes.
const TELEMETRY_MIN: u64 = 5;
/// Heartbeat silence after which a node is declared dead.
const LEASE_TIMEOUT_MIN: u64 = 15;
/// Checkpoint cadence while running.
const CHECKPOINT_INTERVAL_MIN: u64 = 60;
/// Checkpoint write duration (progress stalls).
const CHECKPOINT_WRITE_MIN: u64 = 4;
/// Launch latency between grant and work accruing.
const LAUNCH_LATENCY_MIN: u64 = 2;

/// Scale and chaos knobs of the campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignParams {
    /// Fleet size.
    pub nodes: usize,
    /// Campaign length, days.
    pub days: u64,
    /// Master seed: arrivals, workloads, shocks and faults derive from it.
    pub seed: u64,
    /// Failure intensity (0 = clean; each level multiplies injected faults
    /// and adds grid shocks).
    pub chaos: u32,
    /// Mean job arrivals per hour at the baseline season.
    pub arrivals_per_hour: f64,
    /// Baseline system budget as a fraction of fleet CPU TDP.
    pub budget_frac: f64,
    /// Non-CPU power per node, watts.
    pub non_cpu_w: f64,
    /// CPU power of an idle node, watts.
    pub idle_cpu_w: f64,
}

impl CampaignParams {
    /// Default scale: 512 nodes for 4 days.
    pub fn default_scale(chaos: u32) -> Self {
        Self {
            nodes: 512,
            days: 4,
            seed: 42,
            chaos,
            arrivals_per_hour: 0.8,
            budget_frac: 0.75,
            non_cpu_w: 140.0,
            idle_cpu_w: 80.0,
        }
    }

    /// Reduced scale for quick checks (`--fast`): 128 nodes for 2 days.
    pub fn fast(chaos: u32) -> Self {
        Self {
            nodes: 128,
            days: 2,
            arrivals_per_hour: 0.45,
            ..Self::default_scale(chaos)
        }
    }

    fn horizon_min(&self) -> u64 {
        self.days * 24 * 60
    }
}

/// One policy's campaign outcome at one failure intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// The policy.
    pub kind: PolicyKind,
    /// The failure intensity this row ran at.
    pub chaos: u32,
    /// Jobs that finished all their work.
    pub completed: usize,
    /// Jobs that exhausted their retry budget (terminal failures).
    pub failed: usize,
    /// Kill → requeue transitions (the retry policy granted an attempt).
    pub requeues: usize,
    /// Budget-shock checkpoint-and-preempt evictions.
    pub preemptions: usize,
    /// Lease expiries total…
    pub leases_expired: usize,
    /// …of which the node was actually alive (telemetry blackout).
    pub false_expiries: usize,
    /// Durable checkpoints written.
    pub checkpoints: usize,
    /// Node-hours of progress lost to kills.
    pub wasted_node_h: f64,
    /// Completed work as a fraction of nominal fleet node-hours.
    pub goodput_frac: f64,
    /// Facility energy per completed job, kWh.
    pub energy_per_job_kwh: f64,
    /// Mean queue wait before first launch, minutes.
    pub mean_wait_min: f64,
    /// The bit-reproducible event journal of the run.
    pub journal: Journal,
}

/// One cell's event journal: every line in one buffer, plus the offset
/// where each ends, so a line costs an append and no allocation of its own.
///
/// `Debug` prints the list of lines, exactly as the `Vec<String>` of
/// them would: the campaign's digests hash `{:?}` of the rows, journals
/// included.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Journal {
    text: String,
    /// Where each line ends in `text`.
    ends: Vec<u32>,
}

impl Journal {
    /// Append the line `t={t:>6} {line}`, the minute written by hand and
    /// `line` formatted straight onto the buffer.
    fn note(&mut self, t: u64, line: fmt::Arguments<'_>) {
        // "t=", up to 20 digits, the space after them.
        let mut prefix = [b' '; 23];
        let end = prefix.len() - 1;
        // `{t:>6}` pads to six columns and never cuts.
        let at = decimal(&mut prefix, end, t).min(end - 6) - 2;
        prefix[at..at + 2].copy_from_slice(b"t=");
        self.text.push_str(ascii(&prefix[at..]));
        self.push(line);
    }

    /// Append `line`, formatted straight onto the buffer, and end the line.
    fn push(&mut self, line: fmt::Arguments<'_>) {
        self.text
            .write_fmt(line)
            .expect("formatting into a String cannot fail");
        let end = u32::try_from(self.text.len()).expect("a cell's journal stays under 4 GiB");
        self.ends.push(end);
    }

    /// The journal without spare capacity: a study keeps every cell's
    /// journal until it is dropped.
    fn shrunk(mut self) -> Self {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
        self
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing was journaled.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The lines in journal order.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let span = |(start, &end): (u32, &u32)| &self.text[start as usize..end as usize];
        starts.zip(&self.ends).map(span)
    }
}

impl fmt::Debug for Journal {
    /// When no byte of the journal is one `str`'s `Debug` escapes (the
    /// campaign writes printable ASCII without `"` or `\`), `{:?}` copies
    /// the lines as they are, in two writes a line: the quotes and
    /// separator before it, then the line. Any other journal, and `{:#?}`,
    /// print through `debug_list`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // No short cut: a fold over every byte vectorizes.
        let escapes = |text: &str| {
            let escaped = |b: u8| !(b' '..=b'~').contains(&b) | (b == b'"') | (b == b'\\');
            text.bytes().fold(false, |any, b| any | escaped(b))
        };
        if f.alternate() || escapes(&self.text) {
            return f.debug_list().entries(self.lines()).finish();
        }
        f.write_str("[")?;
        let mut open = "\"";
        for line in self.lines() {
            f.write_str(open)?;
            f.write_str(line)?;
            open = "\", \"";
        }
        f.write_str(if self.is_empty() { "]" } else { "\"]" })
    }
}

/// `x` to `N` decimals, exactly as `{x:.N}` prints it, from an integer.
///
/// `{x:.N}` rounds the exact value of `x·10^N` to an integer (a tie to
/// even: `{:.2}` of 0.125 is `0.12`). The float product `y = x·10^N` is that
/// value rounded once, and below 1e15 (< 2^50) every half-integer is a
/// float, so rounding keeps the exact product on `y`'s side of each one:
/// unless `y` is a half-integer, both round to the same integer, and its
/// digits are the answer. Every other value takes core::fmt's path: a `y`
/// on a half-integer (a tie, or a near-tie that only the exact binary
/// value settles), `-0.0`, NaN, the infinities, and `y` of 1e15 and more.
struct Fixed<const N: usize>(f64);

impl<const N: usize> Fixed<N> {
    const SCALE: u64 = 10u64.pow(N as u32);

    /// The exact `x·10^N` rounded to the nearest integer, where `y` tells.
    fn scaled(&self) -> Option<u64> {
        let y = self.0 * Self::SCALE as f64;
        if !(self.0.is_sign_positive() && y < 1e15) {
            return None;
        }
        let whole = y.floor();
        let frac = y - whole;
        if frac == 0.5 {
            return None;
        }
        Some(whole as u64 + u64::from(frac > 0.5))
    }
}

impl<const N: usize> fmt::Display for Fixed<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(scaled) = self.scaled() else {
            return write!(f, "{:.*}", N, self.0);
        };
        // At most 16 digits and the point; the zeros pad the decimals.
        let mut buf = [b'0'; 24];
        let mut end = buf.len();
        if N > 0 {
            decimal(&mut buf, end, scaled % Self::SCALE);
            end -= N + 1;
            buf[end] = b'.';
        }
        let at = decimal(&mut buf, end, scaled / Self::SCALE);
        f.write_str(ascii(&buf[at..]))
    }
}

/// Write `n`'s decimal digits into `buf` to end just before `end`; returns
/// where they start.
fn decimal(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    loop {
        end -= 1;
        buf[end] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return end;
        }
    }
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("digits, points and spaces are ASCII")
}

/// The campaign: every policy at clean and (when requested) chaotic
/// intensity, same arrivals, same seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStudy {
    /// The parameters the campaign ran with.
    pub params: CampaignParams,
    /// One row per (chaos level, policy), clean rows first.
    pub rows: Vec<PolicyOutcome>,
}

/// One entry of the pre-characterized workload population.
struct Workload {
    load: KernelLoad,
    /// Uncapped node power, watts.
    p_unc_w: f64,
    /// Node power at the bottom of the p-state ladder, watts.
    p_min_w: f64,
    /// Uncapped lead frequency, Hz (speed denominator).
    unc_lead_hz: f64,
}

/// Per-policy capping behaviour: what a job reserves per node and how far
/// the policy will tighten it under a budget shock. Policies that are not
/// system-aware have `floor == reserve` — they cannot respond, so shocks
/// fall through to preemption.
struct Profile {
    reserve_w: f64,
    floor_w: f64,
}

fn profile(kind: PolicyKind, w: &Workload, share_w: f64) -> Profile {
    let p_unc = w.p_unc_w;
    let p_min = w.p_min_w;
    match kind {
        // User-submitted static cap at uncapped draw; nobody may touch it.
        PolicyKind::Precharacterized => Profile {
            reserve_w: p_unc,
            floor_w: p_unc,
        },
        // Uniform fair share of the base budget, system-aware.
        PolicyKind::StaticCaps => {
            let r = share_w.max(p_min);
            Profile {
                reserve_w: r,
                floor_w: (0.8 * r).max(p_min),
            }
        }
        // Reserves measured draw, reclaims aggressively when told to.
        PolicyKind::MinimizeWaste => Profile {
            reserve_w: p_unc,
            floor_w: (0.7 * p_unc).max(p_min),
        },
        // Performance-aware inside the job but blind to the system budget:
        // a modest reservation it will not renegotiate.
        PolicyKind::JobAdaptive => {
            let r = p_unc.min(1.15 * share_w).max(p_min);
            Profile {
                reserve_w: r,
                floor_w: r,
            }
        }
        // The paper's policy: reserves what the job needs up to its share
        // and yields the most headroom under shocks.
        PolicyKind::MixedAdaptive => {
            let r = p_unc.min(share_w).max(p_min);
            Profile {
                reserve_w: r,
                floor_w: (0.6 * r).max(p_min),
            }
        }
    }
}

/// A pre-drawn job arrival.
struct Arrival {
    at_min: u64,
    nodes: usize,
    work_h: f64,
    workload: usize,
}

/// A pre-drawn budget shock interval.
#[derive(Debug, Clone, Copy)]
struct Shock {
    start_min: u64,
    end_min: u64,
    factor: f64,
}

/// Discrete-event payloads. Time ordering lives in `Engine::next_event`.
enum Ev {
    /// Heartbeats, lease expiry, accrual, completion, scheduling.
    Telemetry,
    /// Hourly budget recomputation and shock resolution.
    BudgetTick,
    /// A pre-drawn job submission (index into the arrival stream).
    Arrival(usize),
    /// A fault-plan event fires (index into the plan).
    Fault(usize),
    /// Launch latency paid; the job starts accruing (if the epoch holds).
    LaunchDone(JobId, u32),
    /// Periodic checkpoint should begin (if the epoch holds).
    CheckpointDue(JobId, u32),
    /// Checkpoint write finished (if the epoch holds).
    CheckpointDone(JobId, u32),
    /// A killed job's backoff elapsed; it re-enters the queue.
    RetryDue(JobId),
}

/// Heap entry of a dynamic event (launch, checkpoint, retry): min-ordered
/// by `(t, seq)`. `seq` is assigned at push, so same-minute events fire in
/// exactly the order they were scheduled — deterministic tie-breaking
/// without comparing payloads.
struct QueuedEvent {
    t: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the earliest event.
        other.t.cmp(&self.t).then(other.seq.cmp(&self.seq))
    }
}

/// Index of job `id` in the campaign's job table (ids are dense from 1).
fn slot(id: JobId) -> usize {
    (id.0 - 1) as usize
}

/// Campaign-side control block for one job.
struct JobCtl {
    life: JobLifecycle,
    workload: usize,
    /// Invalidates stale LaunchDone/Checkpoint events after any kill,
    /// preemption or completion.
    epoch: u32,
    submit_min: u64,
    started: bool,
    nodes: usize,
    /// Current per-node grant, watts.
    grant_w: f64,
    /// Modeled per-node draw under the grant, watts.
    draw_w: f64,
    /// Progress rate under the grant, fraction of full speed.
    speed: f64,
}

struct Engine<'a> {
    params: &'a CampaignParams,
    policy: PolicyKind,
    model: &'a PowerModel,
    workloads: &'a [Workload],
    share_w: f64,
    base_budget_w: f64,
    sched: BackfillScheduler,
    lease: LeaseTable,
    retry: RetryPolicy,
    /// Every job submitted; job `id` is at `slot(id)`.
    jobs: Vec<JobCtl>,
    /// Sorted by time; `next_arrival` is the next to fire.
    arrivals: Vec<Arrival>,
    shocks: Vec<Shock>,
    /// Sorted by time, plan order within a minute; `next_fault` is the next
    /// to fire.
    faults: Vec<(u64, usize, FaultKind)>,
    /// Per node: the fault plan killed it.
    dead: Vec<bool>,
    /// Per node: drained out of the pool (dead or falsely suspected). A
    /// node is drained exactly while it holds no lease.
    drained: Vec<bool>,
    /// Per node: telemetry blackout horizon (0 = never blacked out).
    blackout_until: Vec<u64>,
    /// Every node that is dead but still leased or blacked out — a superset
    /// of the leased nodes that send no heartbeat this tick. Filled by
    /// faults in the order they arrive (a node hit twice appears twice),
    /// pruned each tick.
    silent: Vec<NodeId>,
    /// Nodes drained while alive: the only candidates for repair.
    suspects: BTreeSet<usize>,
    /// Jobs holding nodes (launching, running or checkpointing), ascending.
    held: BTreeSet<JobId>,
    next_budget: u64,
    next_telemetry: u64,
    next_fault: usize,
    next_arrival: usize,
    /// The dynamic events; the periodic and pre-drawn ones are cursors.
    heap: BinaryHeap<QueuedEvent>,
    seq: u64,
    hold_queue: bool,
    last_budget_factor: f64,
    last_telemetry_min: u64,
    energy_wh: f64,
    journal: Journal,
    // Tallies.
    completed: usize,
    failed: usize,
    requeues: usize,
    preemptions: usize,
    leases_expired: usize,
    false_expiries: usize,
    checkpoints: usize,
    wasted_node_h: f64,
    goodput_node_h: f64,
    wait_sum_min: f64,
    wait_count: usize,
}

impl Engine<'_> {
    fn push(&mut self, t: u64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueuedEvent { t, seq, ev });
    }

    /// Journal `line` at minute `t`.
    fn note(&mut self, t: u64, line: fmt::Arguments<'_>) {
        self.journal.note(t, line);
    }

    /// The next event in `(minute, seq)` order. The periodic and pre-drawn
    /// streams are merged by cursor, and at a shared minute they fire in
    /// the order they would have been queued: the budget tick (so the
    /// budget moves before telemetry schedules against it), then
    /// telemetry, then faults, then arrivals, then the dynamic events in
    /// the order they were pushed. The periodic streams never run out; the
    /// caller stops past the horizon.
    fn next_event(&mut self) -> (u64, Ev) {
        let fault_t = self.faults.get(self.next_fault).map_or(u64::MAX, |f| f.0);
        let arrival_t = self
            .arrivals
            .get(self.next_arrival)
            .map_or(u64::MAX, |a| a.at_min);
        let dynamic_t = self.heap.peek().map_or(u64::MAX, |q| q.t);
        let t = self
            .next_budget
            .min(self.next_telemetry)
            .min(fault_t)
            .min(arrival_t)
            .min(dynamic_t);
        if t == self.next_budget {
            self.next_budget += BUDGET_TICK_MIN;
            (t, Ev::BudgetTick)
        } else if t == self.next_telemetry {
            self.next_telemetry += TELEMETRY_MIN;
            (t, Ev::Telemetry)
        } else if t == fault_t {
            self.next_fault += 1;
            (t, Ev::Fault(self.next_fault - 1))
        } else if t == arrival_t {
            self.next_arrival += 1;
            (t, Ev::Arrival(self.next_arrival - 1))
        } else {
            let QueuedEvent { t, ev, .. } = self.heap.pop().expect("the earliest event is queued");
            (t, ev)
        }
    }

    /// Recompute a job's draw and speed for its current grant.
    fn apply_grant(&mut self, id: JobId) {
        let ctl = &mut self.jobs[slot(id)];
        let w = &self.workloads[ctl.workload];
        let op = w.load.operating_point(self.model, 1.0, Watts(ctl.grant_w));
        ctl.draw_w = op.power.value();
        ctl.speed = op.lead.value() / w.unc_lead_hz;
    }

    /// The diurnal × shock budget at minute `t`, watts, plus the shock
    /// factor in effect.
    fn budget_at(&self, t: u64) -> (f64, f64) {
        let hour = (t / 60) % 24;
        // Grid prices bottom out at night: the budget peaks around 03:00
        // and sags through the afternoon.
        let diurnal = 1.0 + 0.08 * (2.0 * std::f64::consts::PI * (hour as f64 - 3.0) / 24.0).cos();
        let shock = self
            .shocks
            .iter()
            .filter(|s| s.start_min <= t && t < s.end_min)
            .map(|s| s.factor)
            .fold(1.0, f64::min);
        (self.base_budget_w * diurnal * shock, shock)
    }

    /// One telemetry tick: accrue, complete, heartbeat, expire leases,
    /// repair false positives, schedule. Costs O(held jobs + silent nodes
    /// + suspects), not O(nodes + jobs ever submitted).
    fn telemetry(&mut self, t: u64) {
        let dt_h = (t - self.last_telemetry_min) as f64 / 60.0;
        self.last_telemetry_min = t;

        // Accrue progress and energy over the elapsed interval, in job id
        // order (the float sums depend on it).
        let mut busy_nodes = 0usize;
        let mut busy_draw_w = 0.0;
        let mut finished: Vec<JobId> = Vec::new();
        for &id in &self.held {
            let ctl = &mut self.jobs[slot(id)];
            if ctl.life.state() == LifecycleState::Running {
                ctl.life.accrue(ctl.speed * dt_h);
                if ctl.life.remaining_h() < 1e-9 {
                    finished.push(id);
                }
            }
            busy_nodes += ctl.nodes;
            busy_draw_w += ctl.nodes as f64 * ctl.draw_w;
        }
        let managed = self.sched.total_nodes();
        let idle_nodes = managed.saturating_sub(busy_nodes);
        self.energy_wh += (busy_draw_w
            + idle_nodes as f64 * self.params.idle_cpu_w
            + managed as f64 * self.params.non_cpu_w)
            * dt_h;

        for id in finished {
            let ctl = &mut self.jobs[slot(id)];
            ctl.life.complete();
            ctl.epoch += 1;
            let (nodes, work_h) = (ctl.nodes, ctl.life.work_h());
            self.held.remove(&id);
            self.sched.complete(id);
            self.completed += 1;
            self.goodput_node_h += work_h * nodes as f64;
            self.note(
                t,
                format_args!("complete {id} work={}h", Fixed::<2>(work_h)),
            );
        }

        // Heartbeats from every leased node that is alive and not blacked
        // out. Leased means not drained, so only the silent set is skipped.
        let (dead, drained, until) = (&self.dead, &self.drained, &self.blackout_until);
        self.silent
            .retain(|n| (dead[n.0] && !drained[n.0]) || t < until[n.0]);
        self.lease.beat_all_except(t, &self.silent);

        // Expire stale leases: drain the node, kill and requeue its job.
        for node in self.lease.expire(t) {
            self.leases_expired += 1;
            let alive = !self.dead[node.0];
            if alive {
                self.false_expiries += 1;
                self.suspects.insert(node.0);
            }
            self.drained[node.0] = true;
            pmstack_obs::event(
                t as f64 * 60.0,
                EventKind::LeaseExpired {
                    node: node.0 as u64,
                },
            );
            self.note(
                t,
                format_args!(
                    "lease-expired node={} ({})",
                    node.0,
                    if alive { "blackout" } else { "dead" }
                ),
            );
            for ev in self.sched.fail_node_requeue(node) {
                if let SchedulerEvent::Requeued { job, .. } = ev {
                    self.kill(t, job);
                }
            }
        }

        // Repair false positives: a suspect whose blackout ended resumes
        // telemetry and returns to service.
        let repairable: Vec<usize> = self
            .suspects
            .iter()
            .copied()
            .filter(|&n| self.blackout_until[n] <= t)
            .collect();
        for node in repairable {
            self.suspects.remove(&node);
            self.drained[node] = false;
            self.sched.restore_node(NodeId(node));
            self.lease.track(NodeId(node), t);
            self.note(t, format_args!("restore node={node} (telemetry resumed)"));
        }

        // Start whatever fits, unless a shock is holding the queue.
        if !self.hold_queue {
            self.start_jobs(t);
        }
    }

    /// Run the scheduler and absorb its start decisions.
    fn start_jobs(&mut self, t: u64) {
        for ev in self.sched.tick() {
            if let SchedulerEvent::Started { job, nodes, power } = ev {
                let ctl = &mut self.jobs[slot(job)];
                ctl.life.launch();
                self.held.insert(job);
                ctl.nodes = nodes.len();
                ctl.grant_w = power.value() / nodes.len() as f64;
                let first = !ctl.started;
                ctl.started = true;
                let (attempt, epoch, submit_min) = (ctl.life.attempts(), ctl.epoch, ctl.submit_min);
                if first {
                    self.wait_sum_min += (t - submit_min) as f64;
                    self.wait_count += 1;
                }
                self.apply_grant(job);
                self.push(t + LAUNCH_LATENCY_MIN, Ev::LaunchDone(job, epoch));
                self.note(t, format_args!("launch {job} attempt={attempt}"));
            }
        }
    }

    /// A job lost its nodes to a kill: roll back to the checkpoint, count
    /// the waste, and either schedule the retry or fail it terminally.
    fn kill(&mut self, t: u64, id: JobId) {
        let ctl = &mut self.jobs[slot(id)];
        if ctl.life.state() == LifecycleState::Checkpointing {
            CHECKPOINTS_LOST.inc();
        }
        let wasted_node_h = ctl.life.fail() * ctl.nodes as f64;
        ctl.epoch += 1;
        let attempts = ctl.life.attempts();
        self.held.remove(&id);
        self.wasted_node_h += wasted_node_h;
        WASTED_NODE_SECONDS.add((wasted_node_h * 3600.0).round() as u64);
        match self.retry.delay_for(attempts) {
            Some(delay_s) => {
                self.jobs[slot(id)].life.requeue();
                self.requeues += 1;
                let delay_min = ((delay_s / 60.0).ceil() as u64).max(1);
                self.push(t + delay_min, Ev::RetryDue(id));
                self.note(
                    t,
                    format_args!(
                        "kill {id} attempt={attempts} wasted={}nh retry+{delay_min}m",
                        Fixed::<2>(wasted_node_h)
                    ),
                );
            }
            None => {
                self.failed += 1;
                self.note(
                    t,
                    format_args!(
                        "kill {id} attempt={attempts} wasted={}nh TERMINAL",
                        Fixed::<2>(wasted_node_h)
                    ),
                );
            }
        }
    }

    /// Hourly budget update: follow the tariff, resolve any
    /// oversubscription in strict degradation order.
    fn budget_tick(&mut self, t: u64) {
        let (budget_w, shock_factor) = self.budget_at(t);
        if shock_factor != self.last_budget_factor {
            pmstack_obs::event(t as f64 * 60.0, EventKind::BudgetShock { budget_w });
            self.note(
                t,
                format_args!(
                    "budget {}W (shock x{})",
                    Fixed::<0>(budget_w),
                    Fixed::<2>(shock_factor)
                ),
            );
            self.last_budget_factor = shock_factor;
        }
        let mut over = self
            .sched
            .ledger_mut()
            .set_system_budget(Watts(budget_w))
            .value();

        if over > 1e-9 {
            // 1. Tighten flexible caps, newest jobs first.
            let held = self.held_jobs();
            for &id in held.iter().rev() {
                if over <= 1e-9 {
                    break;
                }
                let ctl = &self.jobs[slot(id)];
                let floor =
                    profile(self.policy, &self.workloads[ctl.workload], self.share_w).floor_w;
                let slack_w = (ctl.grant_w - floor) * ctl.nodes as f64;
                if slack_w <= 1e-9 {
                    continue;
                }
                let cut_w = slack_w.min(over);
                // `reclaim`, not `reserve`: shrinking through admission
                // control would be refused while the ledger is over budget.
                let reclaimed = self.sched.ledger_mut().reclaim(id, Watts(cut_w)).value();
                let ctl = &mut self.jobs[slot(id)];
                ctl.grant_w -= reclaimed / ctl.nodes as f64;
                over -= reclaimed;
                self.apply_grant(id);
                self.note(t, format_args!("tighten {id} -{}W", Fixed::<0>(reclaimed)));
            }
            // 2. Checkpoint-and-preempt the newest jobs until it fits.
            while over > 1e-9 {
                let Some(victim) = self.held.pop_last() else {
                    break;
                };
                let ctl = &mut self.jobs[slot(victim)];
                ctl.life.preempt();
                ctl.epoch += 1;
                self.preemptions += 1;
                if let SchedulerEvent::Preempted { power, .. } = self.sched.preempt(victim) {
                    over -= power.value();
                }
                self.note(t, format_args!("preempt {victim}"));
                // 3. Preemption means demand exceeds the shocked budget:
                // hold the queue until the ledger clears comfortably.
                self.hold_queue = true;
            }
        } else if self.hold_queue && self.sched.ledger().reserved().value() <= 0.95 * budget_w {
            self.hold_queue = false;
            self.note(t, format_args!("release queue hold"));
        }

        // Relax tightened grants back toward their reservations, oldest
        // jobs first, as far as the recovered budget admits.
        if over <= 1e-9 {
            for id in self.held_jobs() {
                let ctl = &self.jobs[slot(id)];
                let reserve =
                    profile(self.policy, &self.workloads[ctl.workload], self.share_w).reserve_w;
                if ctl.grant_w < reserve - 1e-9 {
                    let want = Watts(reserve * ctl.nodes as f64);
                    if self.sched.rebudget(id, want).is_ok() {
                        let ctl = &mut self.jobs[slot(id)];
                        ctl.grant_w = reserve;
                        self.apply_grant(id);
                    }
                }
            }
        }

        let reserved = self.sched.ledger().reserved().value();
        assert!(
            reserved <= budget_w + 1e-6,
            "ledger oversubscribed after degradation: {reserved} W reserved, {budget_w} W budget"
        );
    }

    /// Jobs currently holding nodes, oldest first (ascending id).
    fn held_jobs(&self) -> Vec<JobId> {
        self.held.iter().copied().collect()
    }

    fn run(&mut self) {
        let end = self.params.horizon_min();
        for node in 0..self.params.nodes {
            self.lease.track(NodeId(node), 0);
        }
        loop {
            let (t, ev) = self.next_event();
            if t > end {
                break;
            }
            match ev {
                Ev::Telemetry => self.telemetry(t),
                Ev::BudgetTick => self.budget_tick(t),
                Ev::Arrival(i) => {
                    let a = &self.arrivals[i];
                    let (nodes, work_h, workload) = (a.nodes, a.work_h, a.workload);
                    let reserve =
                        profile(self.policy, &self.workloads[workload], self.share_w).reserve_w;
                    let spec = JobSpec::new("campaign", nodes).with_power_hint(Watts(reserve));
                    let id = self.sched.submit(spec);
                    assert_eq!(slot(id), self.jobs.len(), "job ids are dense from 1");
                    self.jobs.push(JobCtl {
                        life: JobLifecycle::new(work_h),
                        workload,
                        epoch: 0,
                        submit_min: t,
                        started: false,
                        nodes,
                        grant_w: reserve,
                        draw_w: 0.0,
                        speed: 0.0,
                    });
                    self.note(
                        t,
                        format_args!("submit {id} nodes={nodes} work={}h", Fixed::<2>(work_h)),
                    );
                }
                Ev::Fault(i) => {
                    let (_, host, kind) = self.faults[i];
                    match kind {
                        FaultKind::NodeDeath => {
                            self.dead[host] = true;
                            self.suspects.remove(&host);
                            self.silent.push(NodeId(host));
                            self.note(t, format_args!("fault death node={host}"));
                        }
                        FaultKind::TelemetryDropout { iterations } => {
                            let until = &mut self.blackout_until[host];
                            *until = (*until).max(t + iterations as u64);
                            self.silent.push(NodeId(host));
                            self.note(t, format_args!("fault blackout node={host} {iterations}m"));
                        }
                        // The chaos plan only emits deaths and dropouts;
                        // RAPL/MSR faults live below this layer.
                        _ => {}
                    }
                }
                Ev::LaunchDone(id, epoch) => {
                    let ctl = &mut self.jobs[slot(id)];
                    if ctl.epoch == epoch && ctl.life.state() == LifecycleState::Launching {
                        ctl.life.run();
                        self.push(t + CHECKPOINT_INTERVAL_MIN, Ev::CheckpointDue(id, epoch));
                    }
                }
                Ev::CheckpointDue(id, epoch) => {
                    let ctl = &mut self.jobs[slot(id)];
                    if ctl.epoch == epoch && ctl.life.state() == LifecycleState::Running {
                        ctl.life.checkpoint_begin();
                        self.push(t + CHECKPOINT_WRITE_MIN, Ev::CheckpointDone(id, epoch));
                    }
                }
                Ev::CheckpointDone(id, epoch) => {
                    let ctl = &mut self.jobs[slot(id)];
                    if ctl.epoch == epoch && ctl.life.state() == LifecycleState::Checkpointing {
                        ctl.life.checkpoint_end();
                        let progress = ctl.life.checkpointed_h();
                        self.checkpoints += 1;
                        CHECKPOINTS_SAVED.inc();
                        pmstack_obs::event(
                            t as f64 * 60.0,
                            EventKind::CheckpointSaved {
                                job: id.0,
                                progress_h: progress,
                            },
                        );
                        self.note(
                            t,
                            format_args!("checkpoint {id} progress={}h", Fixed::<2>(progress)),
                        );
                        self.push(t + CHECKPOINT_INTERVAL_MIN, Ev::CheckpointDue(id, epoch));
                    }
                }
                Ev::RetryDue(id) => {
                    if self.jobs[slot(id)].life.state() == LifecycleState::Requeued {
                        self.sched.enqueue(id);
                        self.note(t, format_args!("retry {id} queued"));
                    }
                }
            }
        }
    }
}

/// Simulate one (policy, chaos) cell on a fresh backfill scheduler over the
/// whole fleet.
fn simulate_cell(
    params: &CampaignParams,
    policy: PolicyKind,
    chaos: u32,
    model: &PowerModel,
    workloads: &[Workload],
) -> PolicyOutcome {
    let tdp = model.spec().tdp_per_node();
    let sched = BackfillScheduler::new(
        NodePool::new(params.nodes),
        PowerLedger::new(tdp * params.nodes as f64),
        tdp,
    );
    let spec_tdp = tdp.value();
    let share_w = params.budget_frac * spec_tdp;
    let base_budget_w = share_w * params.nodes as f64;

    // Pre-draw the arrival stream: identical for every policy and chaos
    // level, and independent of anything that happens during execution.
    let mut arr_rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0x00a2_217a);
    let mut arrivals = Vec::new();
    for day in 0..params.days {
        for hour in 0..24u64 {
            let rate = arrival_rate(day as usize, params.arrivals_per_hour);
            for _ in 0..poisson(&mut arr_rng, rate) {
                let at_min = day * 1440 + hour * 60 + arr_rng.gen_range(0..60u64);
                let nodes = job_size(&mut arr_rng).min(params.nodes / 2).max(1);
                let work_h = 1.0 + arr_rng.gen_range(0.0..16.0);
                let workload = arr_rng.gen_range(0..workloads.len());
                arrivals.push(Arrival {
                    at_min,
                    nodes,
                    work_h,
                    workload,
                });
            }
        }
    }
    arrivals.sort_by_key(|a| a.at_min);

    // Pre-draw budget shocks (chaos ≥ 1 only). Same stream for every
    // policy: the comparison is apples-to-apples.
    let mut shocks = Vec::new();
    if chaos > 0 {
        let mut shock_rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0x0005_40c4);
        let count = ((params.days * chaos as u64) / 2).max(1);
        for _ in 0..count {
            let start_min = shock_rng.gen_range(0..params.horizon_min());
            let dur: u64 = shock_rng.gen_range(120..=300);
            let factor = shock_rng.gen_range(0.55..0.8);
            shocks.push(Shock {
                start_min,
                end_min: start_min + dur,
                factor,
            });
        }
        shocks.sort_by_key(|s| s.start_min);
    }

    let plan = FaultPlan::chaos(params.seed, params.nodes, params.horizon_min(), chaos);
    let mut faults: Vec<(u64, usize, FaultKind)> = plan
        .events()
        .iter()
        .map(|e| (e.at_iteration, e.host, e.kind))
        .collect();
    faults.sort_by_key(|f| f.0);

    let mut engine = Engine {
        params,
        policy,
        model,
        workloads,
        share_w,
        base_budget_w,
        sched,
        lease: LeaseTable::new(LEASE_TIMEOUT_MIN),
        retry: RetryPolicy::default(),
        jobs: Vec::new(),
        arrivals,
        shocks,
        faults,
        dead: vec![false; params.nodes],
        drained: vec![false; params.nodes],
        blackout_until: vec![0; params.nodes],
        silent: Vec::new(),
        suspects: BTreeSet::new(),
        held: BTreeSet::new(),
        next_budget: 0,
        next_telemetry: TELEMETRY_MIN,
        next_fault: 0,
        next_arrival: 0,
        heap: BinaryHeap::new(),
        seq: 0,
        hold_queue: false,
        last_budget_factor: 1.0,
        last_telemetry_min: 0,
        energy_wh: 0.0,
        journal: Journal::default(),
        completed: 0,
        failed: 0,
        requeues: 0,
        preemptions: 0,
        leases_expired: 0,
        false_expiries: 0,
        checkpoints: 0,
        wasted_node_h: 0.0,
        goodput_node_h: 0.0,
        wait_sum_min: 0.0,
        wait_count: 0,
    };
    engine
        .sched
        .ledger_mut()
        .set_system_budget(Watts(base_budget_w));

    engine.run();

    let nominal_node_h = (params.nodes as u64 * params.days * 24) as f64;
    PolicyOutcome {
        kind: policy,
        chaos,
        completed: engine.completed,
        failed: engine.failed,
        requeues: engine.requeues,
        preemptions: engine.preemptions,
        leases_expired: engine.leases_expired,
        false_expiries: engine.false_expiries,
        checkpoints: engine.checkpoints,
        wasted_node_h: engine.wasted_node_h,
        goodput_frac: engine.goodput_node_h / nominal_node_h,
        energy_per_job_kwh: engine.energy_wh / 1000.0 / engine.completed.max(1) as f64,
        mean_wait_min: engine.wait_sum_min / engine.wait_count.max(1) as f64,
        journal: engine.journal.shrunk(),
    }
}

/// The characterized workload population with its power envelope.
fn characterize(model: &PowerModel) -> Vec<Workload> {
    let tdp = model.spec().tdp_per_node();
    workload_population()
        .into_iter()
        .map(|c| {
            let load = KernelLoad::new(c, model.spec());
            let unc = load.operating_point(model, 1.0, tdp);
            let bottom = load.operating_point(model, 1.0, Watts(0.0));
            Workload {
                p_unc_w: unc.power.value(),
                p_min_w: bottom.power.value(),
                unc_lead_hz: unc.lead.value(),
                load,
            }
        })
        .collect()
}

/// Run the campaign: all five policies at chaos 0 and, when `params.chaos`
/// is nonzero, at `params.chaos`.
pub fn run_campaign(params: &CampaignParams) -> CampaignStudy {
    let spec = quartz_spec();
    let model = PowerModel::new(spec).expect("quartz spec is valid");
    let workloads = characterize(&model);

    let mut levels = vec![0u32];
    if params.chaos > 0 {
        levels.push(params.chaos);
    }
    let cells: Vec<(u32, PolicyKind)> = (levels.iter())
        .flat_map(|&chaos| PolicyKind::all().into_iter().map(move |kind| (chaos, kind)))
        .collect();
    let rows = pmstack_exec::par_map(&cells, |&(chaos, kind)| {
        simulate_cell(params, kind, chaos, &model, &workloads)
    });
    CampaignStudy {
        params: *params,
        rows,
    }
}

/// Render the campaign as a text artifact.
pub fn render(study: &CampaignStudy) -> String {
    use pmstack_analysis::render::table;
    let header = [
        "policy",
        "chaos",
        "done",
        "failed",
        "requeue",
        "preempt",
        "leases",
        "ckpts",
        "wasted nh",
        "goodput",
        "kWh/job",
        "wait min",
    ];
    let rows: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            vec![
                r.kind.to_string(),
                r.chaos.to_string(),
                r.completed.to_string(),
                r.failed.to_string(),
                r.requeues.to_string(),
                r.preemptions.to_string(),
                format!("{} ({}fp)", r.leases_expired, r.false_expiries),
                r.checkpoints.to_string(),
                format!("{:.1}", r.wasted_node_h),
                format!("{:.1}%", r.goodput_frac * 100.0),
                format!("{:.1}", r.energy_per_job_kwh),
                format!("{:.0}", r.mean_wait_min),
            ]
        })
        .collect();
    format!(
        "FACILITY CAMPAIGN: JOB FAILURE LIFECYCLE x 5 POLICIES ({} nodes, {} days, \
         chaos {})\n\n{}\n\
         lifecycle: checkpoint every {}m (write {}m), lease timeout {}m,\n\
         retry backoff 10m..60m capped, max 5 attempts; budget shocks resolved\n\
         by tighten -> preempt -> hold; the ledger is never oversubscribed.\n",
        study.params.nodes,
        study.params.days,
        study.params.chaos,
        table(&header, &rows),
        CHECKPOINT_INTERVAL_MIN,
        CHECKPOINT_WRITE_MIN,
        LEASE_TIMEOUT_MIN,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignParams {
        CampaignParams {
            nodes: 48,
            days: 1,
            seed: 11,
            chaos: 2,
            arrivals_per_hour: 0.5,
            ..CampaignParams::default_scale(2)
        }
    }

    #[test]
    fn same_seed_campaigns_are_bit_identical() {
        let a = run_campaign(&tiny());
        let b = run_campaign(&tiny());
        assert_eq!(a, b, "journals and summaries must match bit-for-bit");
    }

    #[test]
    fn chaos_injects_failures_and_jobs_still_complete() {
        let study = run_campaign(&tiny());
        let clean: Vec<_> = study.rows.iter().filter(|r| r.chaos == 0).collect();
        let chaotic: Vec<_> = study.rows.iter().filter(|r| r.chaos > 0).collect();
        assert_eq!(clean.len(), 5);
        assert_eq!(chaotic.len(), 5);
        for r in &clean {
            assert_eq!(r.leases_expired, 0, "{}: clean run expired leases", r.kind);
            assert_eq!(r.requeues, 0, "{}: clean run requeued", r.kind);
            assert!(r.completed > 0, "{}: clean run completed nothing", r.kind);
        }
        for r in &chaotic {
            assert!(r.leases_expired > 0, "{}: chaos expired no leases", r.kind);
            assert!(r.requeues > 0, "{}: chaos requeued nothing", r.kind);
            assert!(r.completed > 0, "{}: chaos completed nothing", r.kind);
            assert!(r.checkpoints > 0, "{}: no checkpoints written", r.kind);
            assert!(
                r.wasted_node_h > 0.0,
                "{}: kills wasted no node-hours",
                r.kind
            );
        }
    }

    /// Journal `lines` as the journal prints them to `Debug`: a
    /// `Vec<String>` of the same lines.
    fn as_vec(journal: &Journal) -> Vec<String> {
        journal.lines().map(str::to_owned).collect()
    }

    #[test]
    fn an_empty_journal_prints_as_an_empty_vec() {
        let journal = Journal::default();
        assert_eq!((journal.len(), journal.is_empty()), (0, true));
        assert_eq!(journal.lines().count(), 0);
        assert_eq!(
            format!("{journal:?}"),
            format!("{:?}", Vec::<String>::new())
        );
        assert_eq!(
            format!("{journal:#?}"),
            format!("{:#?}", Vec::<String>::new())
        );
    }

    #[test]
    fn a_journal_prints_as_the_vec_of_its_lines() {
        let mut journal = Journal::default();
        let said = [
            "t=    60 submit J1 nodes=4",
            "quote \" back\\ tab\t nul\0 bell\u{7} é",
            "",
            "one line\nof two",
        ];
        for line in said {
            journal.push(format_args!("{line}"));
        }
        let want: Vec<String> = said.map(str::to_owned).to_vec();
        assert_eq!(journal.len(), said.len());
        assert!(!journal.is_empty());
        assert_eq!(as_vec(&journal), want, "lines round-trip");
        assert_eq!(format!("{journal:?}"), format!("{want:?}"));
        assert_eq!(format!("{journal:#?}"), format!("{want:#?}"));
        assert_eq!(journal.clone(), journal);
    }

    #[test]
    fn every_cell_journal_counts_its_lines() {
        for row in run_campaign(&tiny()).rows {
            assert_eq!(row.journal.len(), row.journal.lines().count());
            assert!(!row.journal.is_empty(), "{}: nothing journaled", row.kind);
            let vec = as_vec(&row.journal);
            assert_eq!(format!("{:?}", row.journal), format!("{vec:?}"));
        }
    }

    /// `Fixed::<N>(x)` prints what `{x:.N}` prints.
    fn same_as_core<const N: usize>(x: f64) {
        let want = format!("{:.*}", N, x);
        let why = || format!("{x:e} (bits {:#018x}) to {N} places", x.to_bits());
        assert_eq!(Fixed::<N>(x).to_string(), want, "{}", why());
    }

    fn same_as_core_to_0_and_2(x: f64) {
        same_as_core::<0>(x);
        same_as_core::<2>(x);
    }

    #[test]
    fn fixed_prints_what_core_fmt_prints() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x00f1_0a7e);
        for _ in 0..100_000 {
            let bits: u64 = rng.gen();
            // Any pattern, then one with the exponent cleared (a subnormal
            // or zero) and one with it set (a NaN or an infinity).
            same_as_core_to_0_and_2(f64::from_bits(bits));
            same_as_core_to_0_and_2(f64::from_bits(bits & !(0x7ff << 52)));
            same_as_core_to_0_and_2(f64::from_bits(bits | (0x7ff << 52)));
            same_as_core_to_0_and_2(rng.gen_range(0.0..1e6));
            // Log-uniform from 1e-3 to 1e17, across the integer path's top.
            same_as_core_to_0_and_2(10f64.powf(rng.gen_range(-3.0..17.0)));
        }
        // Every k/8 is exact: odd k are ties at 2 places, k = 4 mod 8 at 0.
        // k/1000 sits on or next to a tie at 2 places.
        for k in 0..100_000 {
            same_as_core_to_0_and_2(k as f64 / 8.0);
            same_as_core_to_0_and_2(k as f64 / 1000.0);
        }
        let edges = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.125,
            2.5,
        ];
        edges.into_iter().for_each(same_as_core_to_0_and_2);
        // Across the top of the integer path and beyond it.
        for e in 13..=300 {
            let x: f64 = format!("1e{e}").parse().expect("a float literal");
            for bits in [x.to_bits() - 1, x.to_bits(), x.to_bits() + 1] {
                same_as_core_to_0_and_2(f64::from_bits(bits));
            }
        }
    }

    #[test]
    fn render_mentions_every_policy() {
        let study = run_campaign(&CampaignParams { chaos: 0, ..tiny() });
        let text = render(&study);
        for kind in PolicyKind::all() {
            assert!(text.contains(&kind.to_string()), "missing {kind}");
        }
    }
}
