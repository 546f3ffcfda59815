//! Segment caches and replay counts.
//!
//! The bank is sharded into fixed-size **segments** of
//! [`DEFAULT_SEGMENT_HOSTS`] hosts (tunable via
//! [`NodeBank::set_segment_hosts`]; the last segment may be ragged). Each
//! segment carries its own cache slot recording whether its enforcement
//! filters sat at a bitwise fixed point after the last step — and at which
//! `dt`, and whether exactly at their targets — and whether that step read
//! every live host back fresh, so a control write or fault on one host
//! dirties only that host's segment.
//!
//! **The invariant this file owns: a replay is a count, and only a segment
//! whose slot proves "settled, quiescent, same `dt` bits" replays.** Every
//! step records, per host, the per-package energy it added
//! (`op.power / sockets * dt`, the exact product): the segment's **replay
//! delta**. One more step of a replayable segment would change nothing but
//! its energy cells, each by its host's recorded delta, because
//!
//! * a settled filter's update is a bitwise no-op, and the skip is only
//!   taken when the `dt` bits match the settle-time `dt` (α depends on `dt`,
//!   so a different window would re-excite the filters);
//! * `last_freq` already holds the lead the settling step latched;
//! * a dead host's recorded delta is `+0.0`, which leaves a non-negative
//!   energy cell bitwise alone;
//! * *quiescent* means the settling step neither consumed nor left behind
//!   any one-shot telemetry state on a live host (a dead host never steps,
//!   so what it holds is never consumed), so one more step would report
//!   exactly what that one reported. A step that read a host back `Stale`
//!   therefore never arms a replay; the segment takes one more (no-op) step
//!   first.
//!
//! So the replay arm adds one to the segment's pending-replay count and
//! touches no per-host column; the `accrual` module turns counts into
//! energy.
//!
//! **At target.** A settled slot also records whether every live filter of
//! the segment held exactly its target's bits. Such a filter's update is
//! `held + (+0.0)·α`, a bitwise no-op for *every* α in [0, 1], so a quiescent
//! segment at target steps at any `dt` (`dt ≥ 0`) by its energy alone: the
//! step kernel's early exit computes each host's `op.power / sockets · dt`,
//! adds it to the host's cells and records it as the replay delta, and
//! leaves the filters, `last_freq`, the telemetry columns and the results as
//! the settling step left them. It reads `op.power` and nothing else of
//! `ops`, on the same terms as a replay. This is what a jittered run, where
//! every iteration has a new `dt` and nothing replays, spends most settled
//! iterations in.
//!
//! Every control write that changes a stored PL1 cell or consumes a
//! one-shot MSR glitch, every cap write, every fault and
//! [`NodeBank::invalidate_segments`] drops the slot, `at_target` with it
//! (counted in `simhw.bank.shard.invalidated` when it was settled). A
//! limit write that stores the bits the cells already hold leaves it: the
//! step and the resolve read nothing it changed (the enforcement target,
//! τ and enable are decoded from the register). Health marks deliberately
//! do not either, since health never feeds the stepping arithmetic.

use super::accrual::apply_replays;
use super::NodeBank;
use crate::power::CapSpan;
use crate::units::Seconds;
use pmstack_obs::StaticCounter;
use std::ops::Range;

/// Observability: settled segment caches dirtied by a control op or fault.
pub(super) static SHARD_INVALIDATED: StaticCounter =
    StaticCounter::new("simhw.bank.shard.invalidated");
/// Observability: pending replays written into energy cells (a segment's
/// whole count in one add per application). A steady iteration leaves it.
static REPLAYS_APPLIED: StaticCounter = StaticCounter::new("simhw.bank.replays.applied");

/// Default hosts per segment: big enough that per-segment bookkeeping is
/// noise (one cache probe per 1024 hosts), small enough that a 100k-host
/// fleet has ~98 independently invalidatable shards.
pub const DEFAULT_SEGMENT_HOSTS: usize = 1024;

/// One segment's settled-state cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SegCache {
    /// Must be stepped: a control op / fault touched the segment since its
    /// last step (or it was never stepped).
    Invalid,
    /// Must be stepped: its filters were still moving after the last step.
    /// `quiescent` as for `Settled`.
    Moving { quiescent: bool },
    /// Every enforcement filter in the segment was at its bitwise fixed
    /// point after a step with these `dt` bits. `quiescent` records that the
    /// step neither consumed one-shot telemetry state (no host read back
    /// `Stale`) nor left any pending on a live host, so repeating it would
    /// report the same — which the replay path additionally requires.
    /// `at_target` records that every live host's filters held exactly
    /// their targets' bits, so a step at any `dt` moves none of them.
    Settled {
        dt_bits: u64,
        quiescent: bool,
        at_target: bool,
    },
}

impl NodeBank {
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
    #[inline]
    pub fn segment_of(&self, h: usize) -> usize {
        h / self.segment_hosts
    }

    /// The host range of segment `sidx` (the last segment may be shorter
    /// than `segment_hosts()`).
    #[inline]
    pub fn segment_range(&self, sidx: usize) -> Range<usize> {
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
    /// (no host read back `Stale`, no live host holds one-shot state), at
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

    /// True when segment `sidx`'s last step read no live host back stale and
    /// left no one-shot telemetry state on one, and nothing has touched the
    /// segment since, whether or not its filters settled: a caller that
    /// handed the step the same operating points as the step before, both
    /// quiescent, got the same results back.
    #[inline]
    pub fn segment_quiescent(&self, sidx: usize) -> bool {
        matches!(
            self.seg[sidx],
            SegCache::Moving { quiescent: true }
                | SegCache::Settled {
                    quiescent: true,
                    ..
                }
        )
    }

    /// True when segment `sidx` is stable and every live filter of it sits
    /// exactly at its target: [`NodeBank::step_all_partial`] steps it at
    /// any `dt` by its energy alone (module docs).
    #[inline]
    pub fn segment_at_target(&self, sidx: usize) -> bool {
        at_target(self.seg[sidx])
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
    /// next [`crate::bank::Resolver::resolve_segment`] re-resolves every
    /// host.
    pub fn invalidate_segments(&mut self) {
        for cache in &mut self.seg {
            if matches!(cache, SegCache::Settled { .. }) {
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
    pub(super) fn apply_segment_replays(&mut self, sidx: usize) -> u64 {
        let k = std::mem::take(&mut self.pending[sidx]);
        if k > 0 {
            let range = self.segment_range(sidx);
            let s = self.sockets;
            let energy = &mut self.energy[range.start * s..range.end * s];
            apply_replays(energy, &self.replay_delta[range], s, k);
        }
        k
    }

    /// Drop host `h`'s segment cache, counting settled→invalid transitions.
    #[inline]
    pub(super) fn dirty_segment(&mut self, h: usize) {
        let sidx = self.segment_of(h);
        if matches!(self.seg[sidx], SegCache::Settled { .. }) {
            SHARD_INVALIDATED.inc();
        }
        self.seg[sidx] = SegCache::Invalid;
    }
}

/// True when a segment's cache proves the replay path is bit-identical to
/// stepping: filters settled under the *same* `dt` bits (α depends on `dt`)
/// and no live host held one-shot telemetry state.
#[inline]
fn replayable(cache: SegCache, dt_bits: u64) -> bool {
    matches!(
        cache,
        SegCache::Settled { dt_bits: b, quiescent: true, .. } if b == dt_bits
    )
}

/// True when a segment's cache proves that a step at any `dt ≥ 0` changes
/// nothing but its energy cells and replay deltas: settled, quiescent, and
/// every live filter at its target's bits.
#[inline]
pub(super) fn at_target(cache: SegCache) -> bool {
    matches!(
        cache,
        SegCache::Settled {
            quiescent: true,
            at_target: true,
            ..
        }
    )
}

/// True when a step at `dt_bits` takes the segment through the full
/// stepping arithmetic rather than counting a replay.
#[inline]
pub(super) fn steps(cache: SegCache, dt_bits: u64, allow_replay: bool) -> bool {
    !(allow_replay && replayable(cache, dt_bits))
}

/// The cache slot a segment earns by being stepped.
#[inline]
pub(super) fn cache_after_step(
    (settled, quiescent, at_target): (bool, bool, bool),
    dt_bits: u64,
) -> SegCache {
    if settled {
        SegCache::Settled {
            dt_bits,
            quiescent,
            at_target,
        }
    } else {
        SegCache::Moving { quiescent }
    }
}

/// Count pending replays written into cells, one add per application
/// (none for zero, so steady iterations leave the counter's line alone).
#[inline]
pub(super) fn count_applied(k: u64) {
    if k > 0 {
        REPLAYS_APPLIED.add(k);
    }
}
