//! The step kernel: one batched pass over the columns per iteration.
//!
//! **The invariant this file owns: a bank-stepped fleet is bit-identical
//! to one stepped through [`crate::Node::try_step`].** [`NodeBank::step_all`]
//! replays exactly the arithmetic of [`crate::rapl::RaplPackage::advance`]
//! over the columns — the same operand values, in the same order: per
//! package `energy += P/sockets · dt` and
//! `enforced += (target − enforced) · α`, with α memoised on τ's bits (dt is
//! iteration-wide). It additionally reports whether every enforcement filter
//! reached a bitwise fixed point, which is what arms the runtime's
//! steady-state fast-forward, and [`NodeBank::step_all_partial`] counts a
//! replay for each segment the `segments` rules prove replayable instead of
//! stepping it.
//!
//! `step_span` dispatches on the socket count to `step_cells::<1>`, `::<2>`
//! or the dynamic `::<0>`. A span whose cache proves it stable and at target
//! (`segments` module) exits after one pass that adds each host's energy
//! delta and records it: every other column already holds what a full step
//! would write. Any other span runs three passes over zipped columns: per
//! host (lead, energy delta, telemetry), the energy adds (`add_per_host`,
//! branch-free: a skipped host's delta is `+0.0`, which leaves its
//! non-negative cells bitwise alone), and the filter updates (a skipped
//! host's filters keep their value, which the settled flag, an `&=` of bit
//! equalities, counts as a no-op). α is taken once per span when its
//! packages share one τ, so the filter pass over a span with no dead host is
//! one flat loop with no call in it; a span that settles is then asked
//! whether its filters sit exactly at their targets.
//!
//! A multi-segment step fans out through the splitter once two segments are
//! stepped (a replay is a count, no work to share); a steady iteration and
//! one-segment churn run as one piece on the calling thread and allocate
//! nothing. The bank's unit tests and the lockstep harness
//! (`tests/lockstep/` at the workspace root) step it against raw
//! `Node::try_step`, the harness also under the platform's iteration.

use super::accrual::{add_per_host, apply_replays};
use super::segments::{at_target, cache_after_step, count_applied, steps, SegCache};
use super::split::{par_segments, take_front, SegSplit};
use super::NodeBank;
use crate::faults::NodeHealth;
use crate::power::OperatingPoint;
use crate::units::{Hertz, Joules, Seconds, Watts};
use pmstack_obs::StaticCounter;

/// Observability: batched stepping calls.
static STEP_ALL_CALLS: StaticCounter = StaticCounter::new("simhw.step_all.calls");
/// Observability: batched steps whose enforcement filters were all at their
/// bitwise fixed point (the steady-state signal).
static STEP_ALL_SETTLED: StaticCounter = StaticCounter::new("simhw.step_all.settled");
/// Observability: segments advanced on the replay path (filter updates
/// skipped) by [`NodeBank::step_all_partial`].
static SHARD_REPLAYED: StaticCounter = StaticCounter::new("simhw.bank.shard.replayed");

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

impl StepReport {
    const NONE: Self = Self {
        all_settled: true,
        segments_replayed: 0,
        segments_stepped: 0,
    };

    fn and(self, other: Self) -> Self {
        Self {
            all_settled: self.all_settled && other.all_settled,
            segments_replayed: self.segments_replayed + other.segments_replayed,
            segments_stepped: self.segments_stepped + other.segments_stepped,
        }
    }
}

/// Outcome of one host's step inside [`NodeBank::step_all`], mirroring the
/// three ways [`crate::Node::try_step`] can go.
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

impl NodeBank {
    /// True when no host has a pending telemetry blackout or MSR glitch —
    /// i.e. the hot flags hold no one-shot state a fast-forwarded iteration
    /// could consume differently from a stepped one.
    pub fn quiescent(&self) -> bool {
        self.telemetry_down.iter().all(|&t| t == 0) && self.msr_glitch.iter().all(|&g| !g)
    }

    /// Advance every host with an operating point by `dt`, replaying exactly
    /// the arithmetic of [`crate::Node::try_step`] over the columns:
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
    ///   energy delta its settling step recorded, so the call is exact only
    ///   while the caller's operating points for it are the ones it settled
    ///   on. That holds by construction when they are resolved from the bank
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
    ///   passes a different slice each time must keep its own copy.
    ///
    /// A bank whose part has PP0/DRAM planes reads every `ops` slot,
    /// replayed segments included, to advance its plane cells.
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
        if n == 0 {
            STEP_ALL_SETTLED.inc();
            return StepReport::NONE;
        }
        let (sh, nsegs) = (self.segment_hosts, self.seg.len());
        // A dead host may hold one-shot state: nothing will consume it.
        debug_assert!(
            !allow_replay
                || (0..nsegs)
                    .filter(|&s| self.segment_replayable(s, dt))
                    .flat_map(|s| self.segment_range(s))
                    .all(|h| self.health[h] == NodeHealth::Dead
                        || (self.telemetry_down[h] == 0 && !self.msr_glitch[h])),
            "replaying a live host that holds one-shot telemetry state"
        );
        let cols = SpanCols {
            sockets: self.sockets,
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
            dt_bits: dt.value().to_bits(),
            allow_replay,
        };
        let (target, tau) = (&self.target, &self.tau);
        // Each piece owns its segments' cache slots and counts outright, so
        // the replay/step decision is local to it.
        let (report, applied) = par_segments(
            (cols, segs),
            nsegs,
            sh,
            n,
            parallel,
            |piece, (cols, segs)| {
                step_piece(piece.start * sh, cols, segs, sh, dt, ops, target, tau)
            },
            |a, b| (a.0.and(b.0), a.1 + b.1),
        );
        if report.segments_replayed > 0 {
            self.replays += report.segments_replayed as u64;
            SHARD_REPLAYED.add(report.segments_replayed as u64);
        }
        count_applied(applied);
        self.advance_planes(dt, ops);
        if report.all_settled {
            STEP_ALL_SETTLED.inc();
        }
        report
    }
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

/// Replay (count) or step each segment of a piece whose first host is the
/// bank's `base`, refreshing its cache slot. Returns the piece's report and
/// the pending replays its stepped segments wrote into their cells first.
///
/// The segments are cut off the front of `cols` one stepped segment at a
/// time; a run of replayed segments is cut off in one go before the next
/// stepped one, so an all-replay piece cuts nothing.
#[allow(clippy::too_many_arguments)]
fn step_piece(
    base: usize,
    cols: &mut SpanCols<'_>,
    segs: &mut SegCols<'_>,
    segment_hosts: usize,
    dt: Seconds,
    ops: &[Option<OperatingPoint>],
    target: &[Watts],
    tau: &[f64],
) -> (StepReport, u64) {
    let (dt_bits, allow_replay) = (segs.dt_bits, segs.allow_replay);
    let (mut report, mut applied) = (StepReport::NONE, 0);
    // The bank's index of the first host left in `cols`, and how many of
    // the hosts from there on belong to replayed segments not yet cut off.
    let (mut lo, mut skipped) = (base, 0);
    for (cache, pending) in segs.seg.iter_mut().zip(segs.pending.iter_mut()) {
        let len = segment_hosts.min(cols.results.len() - skipped);
        if !steps(*cache, dt_bits, allow_replay) {
            *pending += 1;
            report.segments_replayed += 1;
            skipped += len;
            continue;
        }
        // `SpanCols` is cut by hosts alone.
        cols.split_off_front(0, skipped);
        lo += std::mem::take(&mut skipped);
        let mut seg = cols.split_off_front(1, len);
        // The step overwrites the delta the pending replays stand for.
        let k = std::mem::take(pending);
        apply_replays(seg.energy, seg.replay_delta, seg.sockets, k);
        applied += k;
        // A quiescent span at target steps its energy alone (`segments`
        // module docs); the oracle `step_all` never takes the exit.
        let at_target = allow_replay && at_target(*cache) && dt.value() >= 0.0;
        let facts = step_span(&mut seg, lo, dt, ops, target, tau, at_target);
        *cache = cache_after_step(facts, dt_bits);
        let settled = facts.0;
        report.all_settled &= settled;
        report.segments_stepped += 1;
        lo += len;
    }
    (report, applied)
}

/// Step every host of one span, replicating [`RaplPackage::advance`]
/// bit-for-bit. Returns `(settled, quiescent, at_target)`: whether every
/// filter update was a bitwise no-op, whether no live host of the span
/// consumed one-shot telemetry state in this step or holds any afterwards
/// (a dead host never consumes what it holds), and whether every live
/// host's filters now hold exactly their targets' bits.
///
/// `at_target` says the span's cache proved it stable and at target, with
/// `dt ≥ 0`: then every filter update is a no-op at this `dt` too, one more
/// step reports what the settling step reported, and `last_freq` holds the
/// lead it latched, so the kernel exits after one pass that adds each
/// host's energy and records its delta (`segments` module docs).
///
/// Three passes over the span, each over zipped columns with the socket
/// count fixed for the common parts: the per-host pass (lead, energy
/// delta, telemetry), the energy adds (`add_per_host`: a skipped host's
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
    at_target: bool,
) -> (bool, bool, bool) {
    let sockets = cols.sockets;
    let hosts = base..base + cols.results.len();
    let cells = hosts.start * sockets..hosts.end * sockets;
    let (ops, target, tau) = (&ops[hosts], &target[cells.clone()], &tau[cells]);
    match sockets {
        1 => step_cells::<1>(cols, 1, dt, ops, (target, tau), at_target),
        2 => step_cells::<2>(cols, 2, dt, ops, (target, tau), at_target),
        _ => step_cells::<0>(cols, sockets, dt, ops, (target, tau), at_target),
    }
}

/// [`step_span`] over the span's own slices, `S` sockets wide (`S == 0`:
/// `sockets` wide, read at run time).
fn step_cells<const S: usize>(
    cols: &mut SpanCols<'_>,
    sockets: usize,
    dt: Seconds,
    ops: &[Option<OperatingPoint>],
    (target, tau): (&[Watts], &[f64]),
    at_target: bool,
) -> (bool, bool, bool) {
    let w = if S == 0 { sockets } else { S };
    if at_target {
        let hosts =
            (ops.iter().zip(cols.replay_delta.iter_mut())).zip(cols.energy.chunks_exact_mut(w));
        for ((op, delta), cells) in hosts {
            *delta = op.map_or(Joules::ZERO, |op| op.power / w as f64 * dt);
            for e in cells {
                *e += *delta;
            }
        }
        return (true, true, true);
    }
    // α is memoised on τ. A span whose packages share one time window (the
    // common case: all of them) pays one `exp` before the pass, which then
    // makes no call; any other span pays one per run of equal τ.
    let tau0 = tau.first().copied().unwrap_or(f64::NAN);
    if differing_bits(tau.iter().map(|&t| (t, tau0))) == 0 {
        let alpha = 1.0 - (-dt.value() / tau0).exp();
        step_hosts::<S>(cols, w, dt, ops, (target, tau), |_| alpha)
    } else {
        let (mut memo_tau, mut memo_alpha) = (f64::NAN, 0.0);
        let alpha_of = |t: f64| {
            if t != memo_tau {
                memo_alpha = 1.0 - (-dt.value() / t).exp();
                memo_tau = t;
            }
            memo_alpha
        };
        step_hosts::<S>(cols, w, dt, ops, (target, tau), alpha_of)
    }
}

/// The full step of [`step_cells`], `w` sockets wide (`w == S` unless
/// `S == 0`), with `alpha_of(τ)` each filter's α, in three passes over
/// zipped columns: per host the lead, the energy delta and the telemetry;
/// the energy adds (`add_per_host`: a skipped host's delta is `+0.0`,
/// which leaves its non-negative cells bitwise alone); and the filter
/// updates (a skipped host's filters keep their value).
#[inline(always)]
fn step_hosts<const S: usize>(
    cols: &mut SpanCols<'_>,
    w: usize,
    dt: Seconds,
    ops: &[Option<OperatingPoint>],
    (target, tau): (&[Watts], &[f64]),
    mut alpha_of: impl FnMut(f64) -> f64,
) -> (bool, bool, bool) {
    let (mut quiescent, mut all_live) = (true, true);
    let per_host = (ops.iter().zip(cols.results.iter_mut()))
        .zip(cols.last_freq.iter_mut().zip(cols.replay_delta.iter_mut()));
    // A span that holds no one-shot telemetry state (the common case) reads
    // every live host back fresh and leaves the countdowns alone.
    let calm = (cols.telemetry_down.iter()).fold(0, |acc, &d| acc | d) == 0
        && !(cols.msr_glitch.iter()).fold(false, |acc, &g| acc | g);
    if calm {
        for ((op, result), (last_freq, delta)) in per_host {
            (*result, *delta) = match op {
                None => (HostStep::Skipped, Joules::ZERO),
                Some(op) => {
                    *last_freq = op.lead;
                    (HostStep::Fresh, op.power / w as f64 * dt)
                }
            };
            all_live &= op.is_some();
        }
    } else {
        let telemetry = cols
            .telemetry_down
            .iter_mut()
            .zip(cols.msr_glitch.iter_mut());
        for (((op, result), (last_freq, delta)), (down, glitch)) in per_host.zip(telemetry) {
            *result = match op {
                None => {
                    *delta = Joules::ZERO;
                    HostStep::Skipped
                }
                Some(op) => {
                    *last_freq = op.lead;
                    *delta = op.power / w as f64 * dt;
                    if *down > 0 {
                        *down -= 1;
                        HostStep::Stale
                    } else if std::mem::take(glitch) {
                        HostStep::Stale
                    } else {
                        HostStep::Fresh
                    }
                }
            };
            // A host that reads back `Stale` consumed one-shot state: the
            // next step reports something else, so this one cannot be
            // replayed. A dead host never steps again, so what it holds is
            // never consumed.
            quiescent &= *result != HostStep::Stale;
            all_live &= *result != HostStep::Skipped;
        }
    }

    add_per_host(cols.energy, cols.replay_delta, w);

    // Bit tests fold as `|` of `^` with no early exit, so the passes over
    // a span with no dead host vectorize.
    let mut moved = 0;
    if all_live {
        // Every filter updates: one flat pass over the cells.
        let filters = cols.enforced.iter_mut().zip(target).zip(tau);
        for ((held, &target), &t) in filters {
            let next = *held + (target - *held) * alpha_of(t);
            moved |= next.value().to_bits() ^ held.value().to_bits();
            *held = next;
        }
    } else {
        let filters = (cols.enforced.chunks_exact_mut(w))
            .zip(target.chunks_exact(w).zip(tau.chunks_exact(w)))
            .zip(cols.results.iter());
        for ((enforced, (target, tau)), result) in filters {
            let live = *result != HostStep::Skipped;
            for ((held, &target), &t) in enforced.iter_mut().zip(target).zip(tau) {
                let next = if live {
                    *held + (target - *held) * alpha_of(t)
                } else {
                    *held
                };
                moved |= next.value().to_bits() ^ held.value().to_bits();
                *held = next;
            }
        }
    }
    let settled = moved == 0;
    // Asked only of a settled span, after the pass: a flag folded into the
    // filter loop cost it a fifth.
    let at_target = settled
        && if all_live {
            let cells = cols.enforced.iter().zip(target);
            differing_bits(cells.map(|(held, target)| (held.value(), target.value()))) == 0
        } else {
            let filters = (cols.enforced.chunks_exact(w).zip(target.chunks_exact(w)))
                .zip(cols.results.iter());
            filters.into_iter().all(|((held, target), result)| {
                let live = *result != HostStep::Skipped;
                let bits = |w: &Watts| w.value().to_bits();
                !live || held.iter().map(bits).eq(target.iter().map(bits))
            })
        };
    (settled, quiescent, at_target)
}

/// The bits in which the pairs differ, or-ed together: zero when every
/// pair is bit for bit equal.
#[inline(always)]
fn differing_bits(pairs: impl Iterator<Item = (f64, f64)>) -> u64 {
    pairs.fold(0, |acc, (a, b)| acc | (a.to_bits() ^ b.to_bits()))
}

#[cfg(test)]
impl NodeBank {
    /// How many chunks the splitter cuts a parallel partial step at `dt`
    /// into, weighing the segments as the step does.
    pub(super) fn step_chunks(&mut self, dt: Seconds) -> usize {
        let nsegs = self.seg.len();
        let segs = SegCols {
            seg: &mut self.seg,
            pending: &mut self.pending,
            dt_bits: dt.value().to_bits(),
            allow_replay: true,
        };
        super::split::plan(nsegs, true, |s| segs.weight(s)).0
    }
}
