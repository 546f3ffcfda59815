//! The segment splitter: every fan-out over a bank's hosts cuts its
//! columns here.
//!
//! A type holding a pass's columns implements [`SegSplit`]
//! (`split_off_front(segs, hosts)`, plus `weight(seg)`: which segments count
//! as work), and [`par_segments`] hands each pool worker a chunk of whole
//! segments, balanced on the weighing ones. The bank's step (its stepped
//! segments weigh), its batched limit write (every segment weighs), a
//! caller's pre-step pass through [`super::NodeBank::resolve_pieces`] (the
//! segments that resolve) and the runtime's compute-time and outcome passes
//! all go through it.
//!
//! **The invariant this file owns: a split cannot change a bit.** Chunk
//! boundaries are segment boundaries, every column is cut at the same one
//! (per-(host, socket) columns at `hosts × sockets` elements, per-host
//! columns at `hosts`, per-segment columns at `segs`), and the chunks cover
//! every segment exactly once, in order. So each chunk owns its segments'
//! slices of every column it writes, and a pass whose segments are
//! independent computes the same bits on one chunk or many;
//! `sequential_scope` and a `fan_out` of false run it as one call.
//!
//! A pass fans out only when the exec pool would not run inline, the
//! caller says it may, and at least [`PAR_MIN_STEPPED`] segments weigh: a
//! steady iteration (every segment replays) and one-segment churn stay one
//! call on the calling thread, which allocates nothing.

use std::ops::Range;

/// A pass fans out across the resident pool only when at least this many
/// of its segments weigh; chunks balance the weighing segments. A replayed
/// segment is a count increment, nothing per host, so it is no work to
/// share: a steady iteration (every segment replays) and churn (one dirty
/// segment) stay on the calling thread. A round costs ~2 µs (the wake, the
/// chunk plan, the join) against ~10–16 µs to step a default-sized segment
/// of 2-socket hosts. On a 2-vCPU Xeon, 100 000 hosts in 98 segments,
/// medians of 600 iterations, inline → fanned: two stepped segments 28–33
/// → 19–25 µs, four 70 → 37 µs; one 9.4 → 9.5 µs (no second chunk to give
/// it), and a steady iteration takes 0.4 µs. (Counted in segments, not
/// hosts, so the tiny segments the test suites shard small fleets into
/// still reach the fan-out.)
const PAR_MIN_STEPPED: usize = 2;

/// Columns a segment-aligned fan-out hands out in disjoint pieces, every
/// column cut at the same segment boundary: per-(host, socket) columns at
/// `hosts × sockets` elements, per-host columns at `hosts`, per-segment
/// columns at `segs`.
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

/// A per-host column, cut by hosts.
impl<T: Send> SegSplit for &mut [T] {
    fn split_off_front(&mut self, _segs: usize, hosts: usize) -> Self {
        take_front(self, hosts)
    }
}

/// Detach the first `n` elements of a mutable slice, leaving the rest in
/// `slot`: the cut every [`SegSplit`] makes.
pub fn take_front<'b, T>(slot: &mut &'b mut [T], n: usize) -> &'b mut [T] {
    let (head, tail) = std::mem::take(slot).split_at_mut(n);
    *slot = tail;
    head
}

/// Run `run` over `cols` in segment-aligned chunks and fold the chunks'
/// results with `reduce`, in chunk order. `cols` holds `segs` segments of
/// `segment_hosts` hosts, `hosts` in all (the last segment may be short);
/// `run` gets each chunk's segments, counted from the first of `cols`, with
/// its piece.
///
/// With `fan_out` true the chunks, at most one per pool worker, balance the
/// segments [`SegSplit::weight`] marks; where the exec pool would run
/// inline, or fewer than two segments weigh, or `fan_out` is false, it is
/// one call on the calling thread over everything, which allocates nothing.
/// Weighing is a pass over the segments, so a caller that already knows it
/// will not fan out passes false and pays no count.
#[inline]
pub fn par_segments<C: SegSplit, R: Send>(
    mut cols: C,
    segs: usize,
    segment_hosts: usize,
    hosts: usize,
    fan_out: bool,
    run: impl Fn(Range<usize>, &mut C) -> R + Sync,
    reduce: impl Fn(R, R) -> R,
) -> R {
    match plan(segs, fan_out, |i| cols.weight(i)) {
        (1, _) => run(0..segs, &mut cols),
        (chunks, total) => {
            let pieces = seg_chunks(cols, segs, segment_hosts, hosts, chunks, total);
            run_pieces(pieces, run, reduce)
        }
    }
}

/// Run `run` over each piece on the exec pool and fold the results in
/// piece order: the fan-out of [`par_segments`], kept out of line so the
/// one-chunk call stays small enough to inline.
fn run_pieces<C: SegSplit, R: Send>(
    pieces: Vec<(Range<usize>, C)>,
    run: impl Fn(Range<usize>, &mut C) -> R + Sync,
    reduce: impl Fn(R, R) -> R,
) -> R {
    let mut tasks: Vec<_> = (pieces.into_iter())
        .map(|(segs, cols)| (segs, cols, None))
        .collect();
    pmstack_exec::par_for_each_mut(&mut tasks, |_, (segs, cols, out)| {
        *out = Some(run(segs.clone(), cols));
    });
    (tasks.into_iter())
        .map(|(_, _, out)| out.expect("every chunk ran"))
        .reduce(reduce)
        .expect("a fan-out has chunks")
}

/// How [`par_segments`] cuts `segs` segments: the number of chunks (1 to
/// stay on the calling thread) and, when it fans out, how many segments
/// weigh.
pub(super) fn plan(segs: usize, fan_out: bool, weight: impl Fn(usize) -> bool) -> (usize, usize) {
    if !fan_out || segs < 2 || pmstack_exec::is_inline() {
        return (1, 0);
    }
    let total = (0..segs).filter(|&i| weight(i)).count();
    if total < PAR_MIN_STEPPED {
        return (1, 0);
    }
    (pmstack_exec::workers().min(total), total)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A piece that records what it holds: its first segment and host, and
    /// how many of each; segment `i` of the whole weighs when `weights[i]`.
    #[derive(Debug)]
    struct Probe<'a> {
        segs: Range<usize>,
        hosts: Range<usize>,
        weights: &'a [bool],
    }

    impl SegSplit for Probe<'_> {
        fn split_off_front(&mut self, segs: usize, hosts: usize) -> Self {
            assert!(segs <= self.segs.len() && hosts <= self.hosts.len());
            let front = Probe {
                segs: self.segs.start..self.segs.start + segs,
                hosts: self.hosts.start..self.hosts.start + hosts,
                weights: self.weights,
            };
            self.segs.start += segs;
            self.hosts.start += hosts;
            front
        }

        fn weight(&self, seg: usize) -> bool {
            self.weights[self.segs.start + seg]
        }
    }

    /// Chunks are non-empty, contiguous and in order, cover every segment
    /// exactly once, and hold exactly their segments' hosts: whole
    /// segments but for a ragged last one, summing to the fleet. Each
    /// returned range names the piece it comes with.
    fn assert_geometry(hosts: usize, sh: usize, weights: &[bool], workers: usize) {
        let segs = hosts.div_ceil(sh);
        assert_eq!(weights.len(), segs);
        let total = weights.iter().filter(|&&w| w).count();
        let cols = Probe {
            segs: 0..segs,
            hosts: 0..hosts,
            weights,
        };
        let chunks = seg_chunks(cols, segs, sh, hosts, workers, total);
        let case = format!("{hosts} hosts by {sh}, {workers} workers, weights {weights:?}");
        assert!(!chunks.is_empty() && chunks.len() <= workers, "{case}");
        let (mut next_seg, mut next_host) = (0, 0);
        for (range, piece) in &chunks {
            assert!(!range.is_empty(), "{case}");
            assert_eq!(*range, piece.segs, "{case}");
            assert_eq!(range.start, next_seg, "{case}");
            assert_eq!(piece.hosts.start, next_host, "{case}");
            assert_eq!(piece.hosts.start, range.start * sh, "{case}");
            assert_eq!(piece.hosts.end, (range.end * sh).min(hosts), "{case}");
            (next_seg, next_host) = (range.end, piece.hosts.end);
        }
        assert_eq!(next_seg, segs, "{case}");
        let held: usize = chunks.iter().map(|(_, p)| p.hosts.len()).sum();
        assert_eq!(held, hosts, "{case}");
    }

    #[test]
    fn chunks_cover_every_segment_once_in_order() {
        let all = |segs| vec![true; segs];
        // A ragged last segment, weighing and not.
        for workers in 1..=4 {
            assert_geometry(41, 2, &all(21), workers);
            let mut tail_only = vec![false; 21];
            tail_only[20] = true;
            assert_geometry(41, 2, &tail_only, workers);
        }
        // No segment weighs, or one does.
        for workers in [2, 3, 8] {
            assert_geometry(40, 4, &[false; 10], workers);
            for one in [0, 4, 9] {
                let mut w = vec![false; 10];
                w[one] = true;
                assert_geometry(40, 4, &w, workers);
            }
        }
        // More workers than segments.
        for hosts in [1usize, 5, 9, 12] {
            let segs = hosts.div_ceil(4);
            assert_geometry(hosts, 4, &all(segs), 8);
        }
        // The weight clustered at the end: the leading chunks take the
        // weightless run, the last chunks share the weighing tail.
        let mut clustered = vec![false; 30];
        clustered[26..].iter_mut().for_each(|w| *w = true);
        for workers in [2, 3, 4, 5] {
            assert_geometry(30 * 7 - 3, 7, &clustered, workers);
        }
    }

    /// Clustered weight is shared out: with four weighing segments at the
    /// end and two workers, each chunk gets two of them.
    #[test]
    fn chunks_balance_the_weighing_segments() {
        let mut weights = vec![false; 12];
        weights[8..].iter_mut().for_each(|w| *w = true);
        let cols = Probe {
            segs: 0..12,
            hosts: 0..48,
            weights: &weights,
        };
        let chunks = seg_chunks(cols, 12, 4, 48, 2, 4);
        let weighing: Vec<usize> = (chunks.iter())
            .map(|(r, _)| r.clone().filter(|&s| weights[s]).count())
            .collect();
        assert_eq!(weighing, [2, 2]);
    }

    /// Without a fan-out the pass is one call over everything, whatever
    /// weighs.
    #[test]
    fn a_pass_that_does_not_fan_out_is_one_call() {
        let weights = [true; 6];
        let cols = Probe {
            segs: 0..6,
            hosts: 0..23,
            weights: &weights,
        };
        let calls = par_segments(
            cols,
            6,
            4,
            23,
            false,
            |segs, piece| {
                assert_eq!((segs, piece.hosts.clone()), (0..6, 0..23));
                1
            },
            |a, b| a + b,
        );
        assert_eq!(calls, 1);
        assert_eq!(plan(6, false, |_| true), (1, 0));
        assert_eq!(plan(1, true, |_| true), (1, 0));
        assert_eq!(plan(6, true, |s| s == 3), (1, 0));
    }
}
