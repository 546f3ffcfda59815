//! The compute-time pass and the outcome write, after the bank steps.
//!
//! [`compute_times`] scales each live host's base iteration time by its
//! jitter factor and keeps each segment's maximum (the barrier releases
//! when the slowest host finishes); [`write_outcome`] turns the step's
//! results into the back buffer's power, lead, alive and fresh slices,
//! holding last-known readings through a telemetry dropout, and arms each
//! segment's caches for the next iteration from the bank's slots: settled
//! arms `ops_valid` (the cache that works under jitter), settled and
//! quiescent arms `stable`, and a quiescent step (settled or not) is what
//! lets the next iteration keep the outcome epoch.
//!
//! **The invariant this file owns: the epoch rule.** Each segment carries
//! two epochs, each naming the content of some of its slices, and each
//! side of the double buffer carries, per segment, the two epochs it was
//! last written at. A slice whose stamp equals its epoch is left
//! untouched; any other is rewritten and stamped.
//!
//! * The **limit epoch** names the limit slice (and, with jitter off, the
//!   compute-time slice). The pre-step pass bumps it on every iteration in
//!   which the segment is not stable (clean implies stable, so a steady
//!   fleet never bumps) and rewrites the slice; the outcome write stamps it.
//! * The **outcome epoch** names the power, lead, alive and fresh slices
//!   and `last_power`/`last_lead`. Those are a function of the segment's
//!   operating points and step results alone, so the outcome write moves it
//!   unless the pre-step pass left every point bit for bit as it was
//!   (cached, or re-resolved onto the same bits) and the step read every
//!   live host back fresh, as the step the content was written from did.
//!   A stable segment meets all three; so does a segment whose limits creep
//!   inside its points' spans, which is most resolving iterations of a
//!   jittered run.
//!
//! A segment that went into the iteration stable and replays at its `dt`
//! moves neither epoch and keeps every flag, so the outcome write lets it
//! go on its two stamp tests before any other bookkeeping: a steady
//! fleet's iteration pays per segment what it paid with one epoch.
//!
//! The compute-time slice is the exception: with jitter on it is redrawn
//! every iteration whatever the stamps, and with jitter off it is kept,
//! with its cached maximum (the barrier is a max over S values), exactly
//! when the limit slice is. That is the double-buffer hazard handled: after
//! a step the side that was *not* written still carries the older epochs,
//! so the first iteration that keeps them rewrites it — same values, no
//! bump — and reuse starts with the second.
//!
//! Both passes run over [`PostCols`], cut at segment boundaries by the
//! bank's splitter: with jitter off the compute-time pass and the outcome
//! write fan out once the pre-step pass resolved two segments. Jitter
//! draws never fan out: they stay in host order on the calling thread, so
//! the RNG stream is the one every path draws.

use super::{IterationOutcome, SegmentState};
use pmstack_simhw::bank::{take_front, SegSplit};
use pmstack_simhw::power::OperatingPoint;
use pmstack_simhw::{Hertz, HostStep, NodeBank, Seconds, Watts};

/// The platform's columns the compute-time pass and the outcome write
/// touch, the back side's per-host outcome vectors included, cut at segment
/// boundaries by the bank's splitter: a segment weighs when its outcome slices
/// are rewritten.
pub(super) struct PostCols<'a> {
    segment_hosts: usize,
    segments: &'a mut [SegmentState],
    stamps: &'a mut [u64],
    outcome_stamps: &'a mut [u64],
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
    pub(super) fn new(
        segment_hosts: usize,
        segments: &'a mut [SegmentState],
        (stamps, outcome_stamps): (&'a mut [u64], &'a mut [u64]),
        (ops, op_times, steps): (&'a [Option<OperatingPoint>], &'a [f64], &'a [HostStep]),
        (last_power, last_lead): (&'a mut [Watts], &'a mut [Hertz]),
        outcome: &'a mut IterationOutcome,
    ) -> Self {
        Self {
            segment_hosts,
            segments,
            stamps,
            outcome_stamps,
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
            outcome_stamps: take_front(&mut self.outcome_stamps, segs),
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
pub(super) fn compute_times(
    cols: &mut PostCols<'_>,
    calm: bool,
    mut factor: impl FnMut() -> f64,
) -> Seconds {
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
/// replay, how many kept their slices, how many moved their outcome epoch,
/// and how many left their operating points uncached.
#[derive(Debug, Clone, Copy)]
pub(super) struct OutcomePass {
    pub(super) steady: bool,
    pub(super) reused: u64,
    pub(super) moved: u64,
    pub(super) unresolved: usize,
}

impl OutcomePass {
    pub(super) fn and(self, other: Self) -> Self {
        Self {
            steady: self.steady && other.steady,
            reused: self.reused + other.reused,
            moved: self.moved + other.moved,
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
pub(super) fn write_outcome(
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
        moved: 0,
        unresolved: 0,
    };
    let stamps = cols.stamps.iter_mut().zip(cols.outcome_stamps.iter_mut());
    for (i, (seg, (stamp, outcome_stamp))) in cols.segments.iter_mut().zip(stamps).enumerate() {
        let sidx = first + i;
        // A segment that replays at this `dt` is settled and stable: one
        // query answers all four for a clean segment.
        let replayable = all_replayed || bank.segment_replayable(sidx, elapsed);
        pass.steady &= replayable;
        // Stable going in and replaying now: neither epoch moved (a stable
        // segment's `quiet` is set), its caches stay armed, and the
        // slices in this side are current.
        if ff && seg.stable && replayable && *stamp == seg.epoch && *outcome_stamp == seg.outcome {
            pass.reused += 1;
            continue;
        }
        let (settled, stable, quiet) = if replayable {
            (true, true, true)
        } else {
            let quiet = bank.segment_quiescent(sidx);
            (bank.segment_settled(sidx), bank.segment_stable(sidx), quiet)
        };
        // The outcome epoch moves unless the content it names is what this
        // iteration's points and results give again: the same points
        // (cached, or resolved onto the same bits), and every live host
        // read back fresh now as then.
        let kept = seg.ops_valid || seg.ops_kept;
        let keep = ff && kept && seg.quiet && quiet;
        seg.outcome += u64::from(!keep);
        pass.moved += u64::from(!keep);
        seg.quiet = quiet;
        seg.ops_valid = ff && settled;
        pass.unresolved += usize::from(!seg.ops_valid);
        seg.stable = seg.ops_valid && stable;
        // The limit slice (and, jitter off, the compute-time slice) is
        // current in this side whatever happened to the others.
        *stamp = seg.epoch;
        if *outcome_stamp == seg.outcome {
            pass.reused += 1;
            continue;
        }
        *outcome_stamp = seg.outcome;
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
