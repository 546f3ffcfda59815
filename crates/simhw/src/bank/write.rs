//! The write path: power limits and frequency caps, resolved in the
//! columns.
//!
//! [`NodeBank::set_power_limits`] and [`NodeBank::set_freq_cap`] never touch
//! a `Node`. What a limit request programs is decided by one function,
//! `rapl::resolve_pl1_request` — dead node → `NodeFailed`; pending one-shot
//! glitch consumed → `MsrNotAllowed`; stuck limit latched; per-socket share
//! clamped into the settable range with the `RaplClamp` event; encode →
//! decode quantisation to RAPL units — which `Node::set_power_limit` calls
//! against its fields and the bank against its columns
//! (`node::resolve_freq_cap_request` plays the same role for `PERF_CTL`).
//! The register value then passes the msr-safe write rule
//! (`msr::check_write`) against the raw column, package by package, so a
//! preset lock bit refuses the write on either side.
//!
//! **The invariant this file owns: a limit write is one batched write, and
//! it leaves what per-host writes in host order would leave.** The runtime
//! re-caps every host every control interval, so a limit write is
//! [`NodeBank::set_power_limits`], of which [`NodeBank::set_power_limit`] is
//! the one-host call. Host `h` takes `limit_of(h)` where it is `Some`, and
//! the result is what `resolve_pl1_request` host by host would leave: every
//! column, the error and the host it stopped at (hosts before a failing one
//! written, after it not), the `simhw.bank.control_writes`,
//! `simhw.rapl.clamped` and `simhw.bank.shard.invalidated` counts and the
//! `RaplClamp` journal. Every field of the request but the limit is a
//! constant of the bank, encoded once, so per host the batched write is the
//! share, its clamp, the limit field's rounding and its decode; each segment
//! whose cells a write changes is dirtied once, and the counters take one
//! add per write. A host whose write stores the PL1 bits it holds (a cap
//! re-posted, or one that rounds to the same RAPL units) still counts as
//! written but dirties nothing: its segment keeps replaying or stepping at
//! target.
//!
//! A host whose request needs more goes through `resolve_pl1_request` on
//! the calling thread, in host order: a dead host, a pending MSR glitch, a
//! stuck latch, a request that clamps while the recorder is on, a register
//! the write mask refuses. The bank knows without a scan when no host can
//! be one of those: `dead_hosts` is a tally, and `write_hazard` is set by
//! every ingest that brings in a glitch, a latch or a refusing register and
//! cleared by the scan a multi-segment write makes while it is set. Such a
//! write over two or more segments runs in segment-aligned chunks on the
//! pool; a chunk that meets a host needing more leaves it, and the rest of
//! its hosts, to the calling thread, which takes them chunk by chunk in host
//! order. The lockstep harness (`tests/lockstep/` at the workspace root)
//! pins all of it against the per-`Node` writes in host order, on the pool
//! and under `sequential_scope`; `tests/lockstep_counters.rs` also compares
//! the counters and the journal.
//!
//! A limit write does not drop the host's operating-point span (the limit
//! is the span's argument); a cap write does.

use super::segments::{SegCache, SHARD_INVALIDATED};
use super::split::par_segments;
use super::NodeBank;
use crate::error::{Result, SimHwError};
use crate::faults::NodeHealth;
use crate::msr::{address, check_write};
use crate::node::{perf_ctl_ratio, resolve_freq_cap_request};
use crate::power::CapSpan;
use crate::rapl::{
    decode_limit_field, decode_power_limit, encode_limit_field, enforcement_params_of,
    resolve_pl1_request, Pl1Gate, RaplUnits,
};
use crate::units::{Hertz, Watts};
use pmstack_obs::StaticCounter;
use std::ops::Range;

/// Observability: limit and frequency-cap requests resolved in the columns.
static CONTROL_WRITES: StaticCounter = StaticCounter::new("simhw.bank.control_writes");

/// The mask bits of the PL1 limit field (bits 14:0).
const LIMIT_FIELD: u64 = 0x7FFF;

/// Where a piece's batched walk stopped: the host that needs
/// `resolve_pl1_request`, its limit, and the end of the piece's hosts.
type Stop = (usize, Watts, usize);

impl NodeBank {
    /// Program a node-level power limit in the columns:
    /// `set_power_limits(h..h + 1, …)`. It dirties the host's segment
    /// unless it leaves the host's PL1 registers and one-shot MSR glitch as
    /// they were.
    pub fn set_power_limit(&mut self, h: usize, limit: Watts) -> Result<()> {
        self.set_power_limits(h..h + 1, |_| Some(limit))
            .map(|_| ())
            .map_err(|(_, e)| e)
    }

    /// Program node-level power limits on many hosts in one write: each
    /// host `h` of `hosts` for which `limit_of(h)` is `Some(limit)` ends up
    /// as `set_power_limit(h, limit)` on a `Node` called in host order would
    /// leave it, bit for bit, counters and journal included, up to the first
    /// error: the hosts before the failing one are written, the ones after
    /// it are not, and the error comes back with the host it stopped at.
    /// `None` leaves a host alone. Returns how many hosts were written.
    ///
    /// A write in which no host can fail (none dead, no glitch, no stuck
    /// latch, no refusing register) and that spans two or more segments
    /// runs in segment-aligned chunks on the exec pool (module docs).
    pub fn set_power_limits(
        &mut self,
        hosts: Range<usize>,
        limit_of: impl Fn(usize) -> Option<Watts> + Sync,
    ) -> std::result::Result<usize, (usize, SimHwError)> {
        assert!(hosts.end <= self.len(), "hosts out of range");
        if hosts.is_empty() {
            return Ok(0);
        }
        // One division unless the write spans segments.
        let (sh, first) = (self.segment_hosts, self.segment_of(hosts.start));
        let last = if hosts.end > (first + 1) * sh {
            (hosts.end - 1) / sh
        } else {
            first
        };
        let segs = first..last + 1;
        if segs.len() > 1 && self.write_hazard {
            self.write_hazard = self.holds_write_hazard();
        }
        let batched = self.batchable();
        let fan_out = batched && segs.len() > 1 && self.dead_hosts == 0;
        let mut tally = WriteTally::default();
        let out = self.write_pieces(hosts, segs, batched, fan_out, &limit_of, &mut tally);
        if tally.written > 0 {
            CONTROL_WRITES.add(tally.written);
        }
        if tally.invalidated > 0 {
            SHARD_INVALIDATED.add(tally.invalidated);
        }
        out.map(|()| tally.written as usize)
    }

    /// [`NodeBank::set_power_limits`] over segments `segs`: one batched walk
    /// per piece of the splitter ([`par_segments`], on the pool only with
    /// `fan_out`), then, on the calling thread and in host order, each
    /// piece's rest from the host its walk stopped at. With `batched` off a
    /// walk stops at the first host it writes, so every host goes through
    /// `resolve_pl1_request`.
    #[inline]
    fn write_pieces(
        &mut self,
        hosts: Range<usize>,
        segs: Range<usize>,
        batched: bool,
        fan_out: bool,
        limit_of: &(impl Fn(usize) -> Option<Watts> + Sync),
        tally: &mut WriteTally,
    ) -> std::result::Result<(), (usize, SimHwError)> {
        let (sh, first, nsegs) = (self.segment_hosts, segs.start, segs.len());
        let piece_hosts = (segs.end * sh).min(self.len()) - first * sh;
        let (cols, fields, health) = self.write_parts(segs);
        // A piece's walk starts in its first segment: `hosts.start` lies in
        // the first segment of the write.
        let walk = |local: Range<usize>, cols: &mut WriteCols<'_>| {
            let segs = first + local.start..first + local.end;
            let span = hosts.start.max(segs.start * sh)..hosts.end;
            let mut t = WriteTally::default();
            let stop = write_span(
                cols, segs.start, span, segs.start, batched, &fields, health, limit_of, &mut t,
            );
            let end = hosts.end.min(segs.end * sh);
            (t, Vec::from_iter(stop.map(|(h, limit)| (h, limit, end))))
        };
        let merge = |(a, mut stops): (WriteTally, Vec<Stop>), (b, more)| {
            stops.extend(more);
            (a.and(b), stops)
        };
        let (walked, stops) = par_segments(cols, nsegs, sh, piece_hosts, fan_out, walk, merge);
        *tally = tally.and(walked);
        for stop in stops {
            self.write_from(stop, batched, limit_of, tally)?;
        }
        Ok(())
    }

    /// A piece's rest on the calling thread: the stop host through
    /// [`NodeBank::write_one`], then the batched walk up to the next host
    /// that needs it, until the piece's end.
    fn write_from(
        &mut self,
        (mut h, mut limit, end): Stop,
        batched: bool,
        limit_of: &impl Fn(usize) -> Option<Watts>,
        tally: &mut WriteTally,
    ) -> std::result::Result<(), (usize, SimHwError)> {
        loop {
            tally.written += 1;
            self.write_one(h, limit).map_err(|e| (h, e))?;
            let seg = self.segment_of(h + 1);
            let (mut cols, fields, health) = self.write_parts(0..self.seg.len());
            let span = h + 1..end;
            match write_span(
                &mut cols, 0, span, seg, batched, &fields, health, limit_of, tally,
            ) {
                Some(next) => (h, limit) = next,
                None => return Ok(()),
            }
        }
    }

    /// True when a host's limit write may skip `resolve_pl1_request`: no
    /// host holds a glitch, a stuck latch or a refusing register, and the
    /// mask lets the limit field through, so its verdict does not depend on
    /// the limit.
    fn batchable(&self) -> bool {
        let mask = self.pl1_write_mask;
        !self.write_hazard && mask != 0 && LIMIT_FIELD & !mask == 0
    }

    /// The columns a limit write changes over segments `segs`, the
    /// constants it encodes with, and the health column it checks.
    #[inline]
    fn write_parts(&mut self, segs: Range<usize>) -> (WriteCols<'_>, Pl1Fields, &[NodeHealth]) {
        let s = self.sockets;
        let n = self.id.len();
        let hosts = segs.start * self.segment_hosts..(segs.end * self.segment_hosts).min(n);
        let cells = hosts.start * s..hosts.end * s;
        let fields = Pl1Fields {
            raw: self.pl1_fields,
            tau: self.pl1_tau,
            units: self.units,
            min: self.pl1_min,
            max: self.pl1_max,
            sockets: s,
            segment_hosts: self.segment_hosts,
            record: pmstack_obs::enabled(),
        };
        let cols = WriteCols {
            sockets: s,
            pl1_raw: &mut self.pl1_raw[cells.clone()],
            target: &mut self.target[cells.clone()],
            tau: &mut self.tau[cells.clone()],
            enabled: &mut self.enabled[cells],
            programmed: &mut self.programmed[hosts],
            seg: &mut self.seg[segs],
        };
        (cols, fields, &self.health)
    }

    /// One host's limit write through `resolve_pl1_request`, against the
    /// host's columns: each package's raw register column is checked against
    /// the msr-safe write mask and updated, and the enforcement inputs are
    /// re-decoded from it. Dirties the host's segment, whatever the outcome,
    /// unless it left every PL1 register of the host and its one-shot MSR
    /// glitch as they were (the enforcement inputs are decoded from the
    /// registers).
    fn write_one(&mut self, h: usize, limit: Watts) -> Result<()> {
        let s = self.sockets;
        let gate = Pl1Gate {
            dead: self.health[h] == NodeHealth::Dead,
            stuck: self.stuck[h],
            sockets: s,
            min: self.pl1_min,
            max: self.pl1_max,
            units: self.units,
        };
        let (id, glitch) = (self.id[h].0, self.msr_glitch[h]);
        let write = resolve_pl1_request(&gate, &mut self.msr_glitch[h], || id, limit);
        if self.msr_glitch[h] != glitch {
            self.dirty_segment(h);
        }
        let write = write?;
        let (target, tau) = enforcement_params_of(&write.limit, self.pl1_max);
        // Packages are written in order, as on the `Node`: one that refuses
        // the write leaves the ones before it reprogrammed.
        for i in h * s..(h + 1) * s {
            if let Err(refused) = check_write(
                address::PKG_POWER_LIMIT,
                self.pl1_write_mask,
                self.pl1_raw[i],
                write.raw,
            ) {
                self.programmed[h] = self.programmed_limit(h);
                return Err(refused);
            }
            if self.pl1_raw[i] != write.raw {
                self.dirty_segment(h);
            }
            self.pl1_raw[i] = write.raw;
            self.target[i] = target;
            self.tau[i] = tau;
            self.enabled[i] = write.limit.enabled;
        }
        // Every package now holds `write.limit`: summed as
        // [`crate::Node::power_limit`] sums it.
        self.programmed[h] = (0..s).map(|_| write.limit.limit).sum();
        Ok(())
    }

    /// True when host `h` holds state a batched limit write cannot take: a
    /// pending MSR glitch, a stuck latch, or a PL1 register the write of
    /// this bank's fixed fields would be refused on.
    #[inline]
    pub(super) fn hazardous(&self, h: usize) -> bool {
        let s = self.sockets;
        self.msr_glitch[h]
            || self.stuck[h].is_some()
            || (h * s..(h + 1) * s).any(|i| self.pl1_refuses(self.pl1_raw[i]))
    }

    /// True when some host is [`NodeBank::hazardous`]: the scan that clears
    /// `write_hazard`.
    fn holds_write_hazard(&self) -> bool {
        (0..self.len()).any(|h| self.hazardous(h))
    }

    /// True when the write mask would refuse to move `raw` to this bank's
    /// fixed fields (whatever the limit field: a refusing mask either
    /// covers it or refuses everything).
    #[inline]
    fn pl1_refuses(&self, raw: u64) -> bool {
        let mask = self.pl1_write_mask;
        mask == 0 || (raw ^ self.pl1_fields) & !mask & !LIMIT_FIELD != 0
    }

    /// The programmed node-level limit decoded from the raw register column
    /// (sum over sockets, in [`crate::Node::power_limit`]'s order).
    #[inline]
    pub(super) fn programmed_limit(&self, h: usize) -> Watts {
        let s = self.sockets;
        self.pl1_raw[h * s..(h + 1) * s]
            .iter()
            .map(|&raw| decode_power_limit(raw, &self.units).limit)
            .sum()
    }

    /// Program or release a frequency cap in the columns, resolved by
    /// `resolve_freq_cap_request` — the function [`crate::Node::set_freq_cap`]
    /// calls. `PERF_CTL` is only ever written through this path, so its
    /// current value for the write-mask check follows from the cap column.
    /// The cap is an input of the resolve, so it drops the host's span.
    pub fn set_freq_cap(&mut self, h: usize, cap: Option<Hertz>) -> Result<()> {
        CONTROL_WRITES.inc();
        self.dirty_segment(h);
        let (dead, id) = (self.health[h] == NodeHealth::Dead, self.id[h].0);
        let raw = resolve_freq_cap_request(dead, || id, cap)?;
        let current = perf_ctl_ratio(self.freq_cap[h]);
        check_write(address::PERF_CTL, self.perf_ctl_write_mask, current, raw)?;
        self.freq_cap[h] = cap;
        self.op_span[h] = CapSpan::NEVER;
        Ok(())
    }
}

/// What a batched limit write encodes with: the bank's fixed PL1 fields and
/// the τ they decode to, its units and settable range, and whether the
/// recorder is on (a clamp then journals an event).
#[derive(Debug, Clone, Copy)]
struct Pl1Fields {
    raw: u64,
    tau: f64,
    units: RaplUnits,
    min: Watts,
    max: Watts,
    sockets: usize,
    segment_hosts: usize,
    record: bool,
}

impl Pl1Fields {
    /// What `resolve_pl1_request` programs for `requested` on a host with
    /// no glitch, latch or refusing register — the share, its clamp, the
    /// limit field's rounding and its decode — or `None` when the request
    /// must go through `resolve_pl1_request` itself: the host is dead, or
    /// the request clamps while the recorder is on (its `RaplClamp` event).
    #[inline]
    fn program(&self, requested: Watts, dead: bool) -> Option<Pl1Program> {
        let share = requested / self.sockets as f64;
        let per_socket = share.clamp(self.min, self.max);
        if dead || self.record && per_socket != share {
            return None;
        }
        let raw = self.raw | encode_limit_field(per_socket, &self.units);
        Some(Pl1Program {
            raw,
            limit: decode_limit_field(raw, &self.units),
            tau: self.tau,
        })
    }
}

/// What a limit write programs into each of a host's packages: the raw
/// register, the limit it decodes to, and the window's τ.
#[derive(Debug, Clone, Copy)]
struct Pl1Program {
    raw: u64,
    limit: Watts,
    tau: f64,
}

impl Pl1Program {
    /// True when one host's package registers already hold the bits
    /// [`Pl1Program::store`] would store: the enforcement inputs are
    /// decoded from them, so the write changes nothing the step or the
    /// resolve reads.
    #[inline]
    fn holds(self, pl1_raw: &[u64]) -> bool {
        pl1_raw.iter().all(|&raw| raw == self.raw)
    }

    /// Program one host's package cells; returns its node-level limit,
    /// summed as [`crate::Node::power_limit`] sums it.
    #[inline]
    fn store(
        self,
        pl1_raw: &mut [u64],
        target: &mut [Watts],
        tau: &mut [f64],
        enabled: &mut [bool],
    ) -> Watts {
        let cells = pl1_raw.iter_mut().zip(target).zip(tau).zip(enabled);
        for (((raw, target), tau), enabled) in cells {
            (*raw, *target, *tau, *enabled) = (self.raw, self.limit, self.tau, true);
        }
        (0..pl1_raw.len()).map(|_| self.limit).sum()
    }
}

/// What a limit write adds to the control-write and invalidation counters.
#[derive(Debug, Default, Clone, Copy)]
struct WriteTally {
    written: u64,
    invalidated: u64,
}

impl WriteTally {
    fn and(self, other: Self) -> Self {
        Self {
            written: self.written + other.written,
            invalidated: self.invalidated + other.invalidated,
        }
    }
}

/// A segment-aligned piece of the columns a limit write changes.
struct WriteCols<'a> {
    sockets: usize,
    pl1_raw: &'a mut [u64],
    target: &'a mut [Watts],
    tau: &'a mut [f64],
    enabled: &'a mut [bool],
    programmed: &'a mut [Watts],
    seg: &'a mut [SegCache],
}

impl super::SegSplit for WriteCols<'_> {
    fn split_off_front(&mut self, segs: usize, hosts: usize) -> Self {
        use super::take_front;
        let cells = hosts * self.sockets;
        WriteCols {
            sockets: self.sockets,
            pl1_raw: take_front(&mut self.pl1_raw, cells),
            target: take_front(&mut self.target, cells),
            tau: take_front(&mut self.tau, cells),
            enabled: take_front(&mut self.enabled, cells),
            programmed: take_front(&mut self.programmed, hosts),
            seg: take_front(&mut self.seg, segs),
        }
    }
}

/// Write the hosts of `hosts` that the piece `cols` (starting at segment
/// `first_seg`) holds, in host order, each as `resolve_pl1_request` would
/// program it when it neither fails nor latches nor journals, dirtying each
/// segment before its first write. `seg` is the segment of `hosts.start`,
/// so the walk divides nothing. Returns the first host that needs
/// `resolve_pl1_request` itself (with `batched` off: the first host
/// written at all), with its limit and its segment already dirtied, or
/// `None` once the piece is done.
// Always inlined (`write_pieces`, `write_parts` and `par_segments` are
// `#[inline]`): a one-host write is this walk over one host, and out of
// line the calls' argument traffic cost more than the write (~110 against
// ~60 ns per `set_power_limit` over 100 000 hosts on a 2-vCPU Xeon).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn write_span(
    cols: &mut WriteCols<'_>,
    first_seg: usize,
    hosts: Range<usize>,
    seg: usize,
    batched: bool,
    fields: &Pl1Fields,
    health: &[NodeHealth],
    limit_of: &impl Fn(usize) -> Option<Watts>,
    tally: &mut WriteTally,
) -> Option<(usize, Watts)> {
    let (s, sh) = (fields.sockets, fields.segment_hosts);
    let base = first_seg * sh;
    let end = hosts.end.min(base + cols.programmed.len());
    let (mut lo, mut si) = (hosts.start, seg - first_seg);
    while lo < end {
        let seg_end = end.min((first_seg + si + 1) * sh);
        let mut dirtied = false;
        for (h, &health) in (lo..seg_end).zip(&health[lo..seg_end]) {
            let Some(limit) = limit_of(h) else {
                continue;
            };
            let program = batched.then(|| fields.program(limit, health == NodeHealth::Dead));
            let Some(Some(program)) = program else {
                return Some((h, limit));
            };
            let (i, cells) = (h - base, (h - base) * s..(h - base + 1) * s);
            if !dirtied && !program.holds(&cols.pl1_raw[cells.clone()]) {
                let cache = &mut cols.seg[si];
                tally.invalidated += u64::from(matches!(cache, SegCache::Settled { .. }));
                *cache = SegCache::Invalid;
                dirtied = true;
            }
            cols.programmed[i] = program.store(
                &mut cols.pl1_raw[cells.clone()],
                &mut cols.target[cells.clone()],
                &mut cols.tau[cells.clone()],
                &mut cols.enabled[cells],
            );
            tally.written += 1;
        }
        (lo, si) = (seg_end, si + 1);
    }
    None
}
