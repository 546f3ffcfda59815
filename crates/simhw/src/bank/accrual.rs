//! Energy accrual: reads turn pending replay counts into joules.
//!
//! `k` pending replays of a segment stand for `k` sequential
//! `cell += delta` on every energy cell of the segment, and [`repeat_add`]
//! computes exactly that, bit for bit, in O(1 + binades crossed) (its docs
//! have the argument). Readers compute: [`NodeBank::energy`],
//! [`NodeBank::energies`] and [`NodeBank::node`] (whose energy-status MSR
//! follows) return the accrued value without caching it, so they stay
//! `&self`; a host's bit-equal socket cells are accrued once.
//!
//! **The invariant this file owns: every writer of an energy cell first
//! writes its segment's count into the cells, with the delta the replays
//! were recorded under, and zeroes it.** The writers are the step arm
//! (before the step overwrites the delta), `with_node` (whose materialise →
//! ingest round trip rewrites the host's cells: kept pending, the count
//! would be applied twice) and [`NodeBank::set_segment_hosts`] (before the
//! counts lose their segments). A limit, cap or invalidation writes no
//! energy and leaves the count for the next step.
//! [`NodeBank::apply_pending_replays`] writes every count, for a caller that
//! reads every iteration and wants each read to stay one add per cell;
//! correctness never needs it. The idle stretches of the lockstep harness
//! (`tests/lockstep/` at the workspace root), each followed by reads,
//! writes, faults, re-shards and rebuilds, are what catch a writer that
//! skips the count.

use super::NodeBank;
use crate::units::Joules;

impl NodeBank {
    /// Cumulative exact host energy (sum over sockets), bit-identical to
    /// [`crate::Node::energy`]: the cells with the segment's pending
    /// replays accrued.
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
pub(super) struct Accrual {
    delta: f64,
    k: u64,
    /// The last cell's bits and its accrued value.
    memo: (u64, Joules),
}

impl Accrual {
    #[inline]
    pub(super) fn new(delta: Joules, k: u64) -> Self {
        Self {
            delta: delta.value(),
            k,
            // A NaN's bits: no energy cell holds them.
            memo: (u64::MAX, Joules::ZERO),
        }
    }

    #[inline]
    pub(super) fn of(&mut self, e: Joules) -> Joules {
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
/// caller that applies every iteration writes, and the step's own add. The
/// common socket counts get a fixed-width inner loop (a dynamic chunk width
/// measured 2x slower); the [`repeat_add`] walk costs ~6x this per cell.
#[inline]
pub(super) fn add_per_host(energy: &mut [Joules], deltas: &[Joules], sockets: usize) {
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
#[inline]
pub(super) fn apply_replays(energy: &mut [Joules], deltas: &[Joules], sockets: usize, k: u64) {
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
