//! The resolve: each host's operating point, and the span of enforced
//! limits it holds over.
//!
//! A segment that must be stepped is usually one whose limits are still
//! creeping through their first-order filters (15–95 iterations to a
//! bitwise fixed point), while the PCU's answer — quantised onto the
//! p-state ladder — changes only when the limit crosses the power of a
//! neighbouring candidate point. [`LoadModel::operating_point_span`] returns,
//! with the point, the [`CapSpan`] of limits it holds over; the bank keeps
//! one per host, and [`Resolver::resolve_segment`] re-resolves a host only
//! when [`NodeBank::enforced_limit`] has left it (the rest cost two
//! compares; `simhw.bank.resolve.{kept,searched}` count both outcomes). A
//! resolve that searches looks the load's [`CandidateTable`] up once per
//! segment ([`LoadModel::candidates`]) and counts each host's fitting
//! candidates over its coefficient columns.
//!
//! **The invariant this file owns: a host's span describes the `ops` slot
//! the resolve last wrote for it, so every write to the resolve's other
//! inputs drops it.** The bank is the right owner because it sees all of
//! them: a frequency-cap write ([`NodeBank::set_freq_cap`]), anything
//! routed through a materialised `Node` (a fault can kill the host or latch
//! a stuck plane, and the ingest that follows reloads ε and the cap with
//! it), and [`NodeBank::invalidate_segments`] (a load swap, or `ops` slots
//! the caller wrote itself). A limit write deliberately does not: the limit
//! is the span's argument, so a write that lands inside the span keeps the
//! point and one that lands outside is caught by the next check.
//! [`NodeBank::operating_point`] ignores spans and stays the oracle.
//!
//! A pre-step pass reaches the resolve only through
//! [`NodeBank::resolve_pieces`], which hands each segment-aligned piece a
//! [`Resolver`]: the resolve's input columns, read-only, and the span column
//! of the piece's hosts.

use super::split::par_segments;
use super::NodeBank;
use crate::faults::NodeHealth;
use crate::power::{CandidateTable, CapSpan, LoadModel, OperatingPoint, PowerModel};
use crate::units::{Hertz, Watts};
use pmstack_obs::StaticCounter;
use std::ops::Range;

/// Observability: hosts a [`Resolver::resolve_segment`] pass left alone
/// because their enforced limit was still inside the cached point's span.
static RESOLVE_KEPT: StaticCounter = StaticCounter::new("simhw.bank.resolve.kept");
/// Observability: hosts a [`Resolver::resolve_segment`] pass re-resolved.
static RESOLVE_SEARCHED: StaticCounter = StaticCounter::new("simhw.bank.resolve.searched");

impl NodeBank {
    /// The limit the host's enforcement loops currently hold (sum over
    /// sockets), bit-identical to [`crate::Node::enforced_limit`].
    pub fn enforced_limit(&self, h: usize) -> Watts {
        self.resolve_in().enforced_limit(h)
    }

    /// The operating point the host settles on right now, replicating
    /// [`crate::Node::operating_point`] (PCU resolution under the enforced
    /// limit, clamped by any software frequency cap).
    pub fn operating_point<L: LoadModel + ?Sized>(
        &self,
        h: usize,
        model: &PowerModel,
        load: &L,
    ) -> OperatingPoint {
        let input = self.resolve_in();
        let table = load.candidates(model);
        input
            .resolve_host(h, input.enforced_limit(h), model, load, table)
            .0
    }

    /// Run a pre-step pass over the bank's segments and sum what it
    /// returns: `run` gets a [`Resolver`] and `cols`, the caller's per-host
    /// and per-segment columns. With `fan_out` off that is one call on the
    /// calling thread covering every segment; with it on, the segments are
    /// split as [`par_segments`] splits them, balanced on the segments
    /// [`super::SegSplit::weight`] marks (the ones that will resolve), each
    /// chunk one call with a [`Resolver`] over its segments. The caller
    /// decides `fan_out` from what it already knows, so a pass that stays on
    /// the calling thread costs no count of the segments.
    ///
    /// Every call sees the same bank and writes only its own hosts' spans,
    /// so the outcome does not depend on the split; the resolve counters
    /// take one add per call.
    pub fn resolve_pieces<C: super::SegSplit>(
        &mut self,
        cols: C,
        fan_out: bool,
        run: impl Fn(&mut Resolver<'_>, &mut C) -> usize + Sync,
    ) -> usize {
        // The span column is the one a pass writes: take it out of the bank
        // so the rest can be read beside it. (A pass that panics leaves it
        // empty, so a later resolve on the same bank panics too.)
        let mut op_span = std::mem::take(&mut self.op_span);
        let input = self.resolve_in();
        let out = par_segments(
            (&mut op_span[..], cols),
            self.seg.len(),
            input.segment_hosts,
            input.len,
            fan_out,
            |segs, (op_span, cols)| {
                let mut resolver = Resolver::new(input, op_span, segs);
                let out = run(&mut resolver, cols);
                resolver.flush();
                out
            },
            |a, b| a + b,
        );
        self.op_span = op_span;
        out
    }

    /// The columns a resolve reads.
    fn resolve_in(&self) -> ResolveIn<'_> {
        ResolveIn {
            sockets: self.sockets,
            segment_hosts: self.segment_hosts,
            len: self.len(),
            pl1_max: self.pl1_max,
            enforced: &self.enforced,
            enabled: &self.enabled,
            eps: &self.eps,
            freq_cap: &self.freq_cap,
            health: &self.health,
        }
    }
}

/// The columns a resolve reads, shared by every piece of a pre-step pass.
#[derive(Clone, Copy)]
struct ResolveIn<'a> {
    sockets: usize,
    segment_hosts: usize,
    len: usize,
    pl1_max: Watts,
    enforced: &'a [Watts],
    enabled: &'a [bool],
    eps: &'a [f64],
    freq_cap: &'a [Option<Hertz>],
    health: &'a [NodeHealth],
}

impl ResolveIn<'_> {
    fn segment_range(&self, sidx: usize) -> Range<usize> {
        let lo = sidx * self.segment_hosts;
        lo..(lo + self.segment_hosts).min(self.len)
    }

    /// [`NodeBank::enforced_limit`].
    fn enforced_limit(&self, h: usize) -> Watts {
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

    /// Segment `sidx`'s enforced limits into `out`, whose first slot is
    /// host `base`'s.
    fn segment_enforced_limits(&self, sidx: usize, base: usize, out: &mut [Watts]) {
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
        let out = &mut out[range.start - base..range.end - base];
        match s {
            1 => fixed::<1>(enforced, enabled, self.pl1_max, s, out),
            2 => fixed::<2>(enforced, enabled, self.pl1_max, s, out),
            _ => fixed::<0>(enforced, enabled, self.pl1_max, s, out),
        }
    }

    /// [`NodeBank::operating_point`] under enforced limit `limit`, with the
    /// span of enforced limits it holds over: resolved against `table` when
    /// the caller looked one up, else through the load's own resolve. The
    /// frequency-cap clamp is a function of the PCU's answer and of inputs
    /// whose writes drop the span, so it holds over the same limits the
    /// PCU's answer does.
    fn resolve_host<L: LoadModel + ?Sized>(
        &self,
        h: usize,
        limit: Watts,
        model: &PowerModel,
        load: &L,
        table: Option<&CandidateTable>,
    ) -> (OperatingPoint, CapSpan) {
        let eps = self.eps[h];
        let (op, span) = match table {
            Some(t) => t.resolve(model.static_power(eps), eps, limit),
            None => load.operating_point_span(model, eps, limit),
        };
        let op = match self.freq_cap[h] {
            Some(cap_f) if op.lead > cap_f => OperatingPoint {
                lead: cap_f,
                trail: op.trail.min(cap_f),
                power: load.node_power_at(model, eps, cap_f),
            },
            _ => op,
        };
        (op, span)
    }
}

/// A segment-aligned piece of the bank for a pre-step pass
/// ([`NodeBank::resolve_pieces`]): the columns a resolve reads, and the
/// operating-point spans of the piece's hosts. Segment indices are the
/// bank's; host indices and the slices passed in are the piece's, counted
/// from its first host.
pub struct Resolver<'a> {
    input: ResolveIn<'a>,
    op_span: &'a mut [CapSpan],
    segs: Range<usize>,
    base: usize,
    searched: u64,
    kept: u64,
}

impl<'a> Resolver<'a> {
    fn new(input: ResolveIn<'a>, op_span: &'a mut [CapSpan], segs: Range<usize>) -> Self {
        let base = segs.start * input.segment_hosts;
        Self {
            input,
            op_span,
            segs,
            base,
            searched: 0,
            kept: 0,
        }
    }

    /// The bank segments of this piece.
    pub fn segments(&self) -> Range<usize> {
        self.segs.clone()
    }

    /// Segment `sidx`'s hosts, counted from the piece's first host.
    pub fn hosts(&self, sidx: usize) -> Range<usize> {
        let range = self.input.segment_range(sidx);
        range.start - self.base..range.end - self.base
    }

    /// Every host of segment `sidx`'s [`NodeBank::enforced_limit`], written
    /// into the piece's `out` at the host's index: one pass over the
    /// segment's cells with the socket count fixed for the common parts.
    pub fn segment_enforced_limits(&self, sidx: usize, out: &mut [Watts]) {
        self.input.segment_enforced_limits(sidx, self.base, out);
    }

    /// The piece's host `h` through the PCU search, spans ignored: its
    /// [`NodeBank::operating_point`], `None` for a fail-stop dead host.
    pub fn operating_point<L: LoadModel + ?Sized>(
        &self,
        h: usize,
        model: &PowerModel,
        load: &L,
    ) -> Option<OperatingPoint> {
        let h = self.base + h;
        (self.input.health[h] != NodeHealth::Dead).then(|| {
            let limit = self.input.enforced_limit(h);
            self.input.resolve_host(h, limit, model, load, None).0
        })
    }

    /// Bring the piece's `ops` up to date for segment `sidx`: afterwards
    /// every slot of the segment holds what [`NodeBank::operating_point`]
    /// returns for its host right now (`None` for a fail-stop dead host),
    /// bit for bit. Only the hosts whose enforced limit has left the span of
    /// the point last written for them are re-resolved; each of those is
    /// passed to `rewrote` with its piece index and new slot, the others
    /// cost two compares. The load's candidate table is looked up once for
    /// the segment. Returns how many slots the pass changed, bit for bit: a
    /// re-resolved host that lands on the point it held does not count, so
    /// zero means every slot of the segment is what it was.
    ///
    /// `limits` holds, at each of the segment's host indices, the host's
    /// [`NodeBank::enforced_limit`] as it is now — what
    /// [`Resolver::segment_enforced_limits`] writes — so a caller that
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
    ) -> usize {
        let table = load.candidates(model);
        let range = self.hosts(sidx);
        let hosts = range.len() as u64;
        let (mut searched, mut moved) = (0, 0);
        for h in range {
            let (limit, global) = (limits[h], self.base + h);
            debug_assert_eq!(
                limit.value().to_bits(),
                self.input.enforced_limit(global).value().to_bits()
            );
            if self.op_span[h].holds(limit) {
                continue;
            }
            searched += 1;
            // Dead hosts drop out of the computation; the span dropped at
            // death stays empty, so the slot is simply rewritten each pass.
            let op = (self.input.health[global] != NodeHealth::Dead).then(|| {
                let (op, span) = self.input.resolve_host(global, limit, model, load, table);
                self.op_span[h] = span;
                op
            });
            moved += usize::from(!same_point(ops[h].as_ref(), op.as_ref()));
            ops[h] = op;
            rewrote(h, ops[h].as_ref());
        }
        self.searched += searched;
        self.kept += hosts - searched;
        moved
    }

    /// Add the piece's resolve counts. Zero adds are skipped, as for the
    /// outcome counters: a sweep's workers would only bounce the counter's
    /// cache line.
    fn flush(&self) {
        if self.searched > 0 {
            RESOLVE_SEARCHED.add(self.searched);
        }
        if self.kept > 0 {
            RESOLVE_KEPT.add(self.kept);
        }
    }
}

/// True when two `ops` slots hold the same point bit for bit (both `None`,
/// or every field's bits equal).
#[inline]
fn same_point(a: Option<&OperatingPoint>, b: Option<&OperatingPoint>) -> bool {
    let bits = |op: &OperatingPoint| {
        [op.lead.value(), op.trail.value(), op.power.value()].map(f64::to_bits)
    };
    match (a, b) {
        (Some(a), Some(b)) => bits(a) == bits(b),
        (a, b) => a.is_none() && b.is_none(),
    }
}
