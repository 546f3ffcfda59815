//! The pre-step pass: each segment's observed limits and operating points,
//! before the bank steps.
//!
//! An iteration walks the segments once before stepping. A stable segment
//! whose back-buffer slices are current leaves on its first test — a clean
//! segment always does once both sides of the double buffer hold its epoch,
//! so the all-clean iteration pays no limit or stability work. Any other
//! segment moves its limit epoch unless it is stable (the epoch rule,
//! `outcome` module), writes its hosts' enforced limits into the back
//! buffer once ([`Resolver::segment_enforced_limits`], at the iteration's
//! start, before stepping advances the filters) and, unless its operating
//! points are cached, resolves them against that slice. A resolving segment
//! records whether every re-searched host landed on the bits it held (a
//! cached segment keeps its slots by definition), which is what lets the
//! outcome write keep the outcome epoch.
//!
//! **The invariant this file owns: the `ops` and `op_times` slots of every
//! segment are exact after the pass.** A settled segment's filters sat at a
//! bitwise fixed point last iteration and nothing touched it since, so
//! every input of the (pure) PCU resolve is bitwise unchanged and its cached
//! points and base iteration times are exact. Any other segment goes
//! through the span rule: the bank re-checks each host's enforced limit
//! against the span its cached point holds over
//! ([`Resolver::resolve_segment`]) and searches only the hosts that left
//! theirs, and the pass refreshes `op_times` for exactly those. The writes
//! that change a point's *other* inputs — a frequency cap, a fault routed
//! through a materialised `Node`, a workload swap — drop the span in the
//! bank, where they are all visible; a limit write does not, because the
//! limit is the span's argument. With fast-forward off every host goes
//! through the PCU search instead ([`Resolver::operating_point`], spans
//! ignored): the oracle the determinism suites compare against.
//!
//! The pass runs through [`NodeBank::resolve_pieces`], whose splitter fans it
//! out by segment once two segments resolve; a steady (nothing to resolve)
//! or churn (one segment) iteration stays one pass on the calling thread.
//!
//! [`NodeBank::resolve_pieces`]: pmstack_simhw::NodeBank::resolve_pieces

use super::SegmentState;
use pmstack_kernel::KernelLoad;
use pmstack_simhw::bank::{take_front, Resolver, SegSplit};
use pmstack_simhw::power::OperatingPoint;
use pmstack_simhw::{PowerModel, Watts};

/// The platform's columns a pre-step pass writes, cut at segment boundaries
/// for [`NodeBank::resolve_pieces`]: a segment weighs when it resolves.
pub(super) struct PreCols<'a> {
    pub(super) segments: &'a mut [SegmentState],
    pub(super) stamps: &'a [u64],
    pub(super) limits: &'a mut [Watts],
    pub(super) ops: &'a mut [Option<OperatingPoint>],
    pub(super) op_times: &'a mut [f64],
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

/// The pre-step pass over one piece's segments (module docs): returns how
/// many it resolved.
pub(super) fn prestep(
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
            let moved = res.resolve_segment(sidx, model, load, limits, ops, store);
            seg.ops_kept = moved == 0;
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
