//! The outcome buffers an iteration writes, and the fleet snapshot other
//! threads read.
//!
//! [`IterationBuffers`] are caller-owned and double-buffered; which slices
//! of the back side an iteration may leave alone is the epoch rule of the
//! `outcome` module.
//!
//! **The invariant this file owns: the owner rule.** A stamp means nothing
//! outside the platform and sharding that wrote it, so the buffers also
//! name their owner: a process-unique id a platform takes at construction
//! and again when it is re-sharded (host count and sharding are fixed per
//! id). Buffers that are fresh, or come from another platform, have every
//! stamp cleared, are resized, and are fully rewritten; they may be moved
//! between platforms freely.

use pmstack_simhw::{Hertz, Seconds, Watts};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of the ids that tie [`IterationBuffers`] stamps to their platform.
/// Zero is never handed out: it marks buffers nobody owns yet.
static NEXT_PLATFORM_ID: AtomicU64 = AtomicU64::new(1);

pub(super) fn next_platform_id() -> u64 {
    // Relaxed: the id publishes nothing, it only has to be unique.
    NEXT_PLATFORM_ID.fetch_add(1, Ordering::Relaxed)
}

/// A cheap, self-contained view of a live fleet for *other threads*: the
/// serving plane's step loop captures one per tick and publishes it behind
/// an `Arc`, so `/metrics` scrapes and `/stream` frames read consistent
/// state without ever locking the platform or stalling the step loop.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetSnapshot {
    /// Fleet size.
    pub hosts: usize,
    /// Hosts alive at capture.
    pub alive: usize,
    /// Bank segments backing the fleet.
    pub segments: usize,
    /// Simulated seconds elapsed.
    pub elapsed_s: f64,
    /// Whether every segment of the fleet was clean (fast-forwarding).
    pub steady: bool,
    /// Cumulative fleet energy, joules.
    pub energy_j: f64,
    /// Observed fleet power over the captured iteration, watts.
    pub power_w: f64,
    /// Simulated duration of the captured iteration, seconds.
    pub iteration_s: f64,
}

/// The observable outcome of one bulk-synchronous iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationOutcome {
    /// Elapsed wall time of the iteration (the barrier releases when the
    /// slowest host finishes).
    pub elapsed: Seconds,
    /// Per-host critical-path compute time (before the barrier).
    pub host_compute_time: Vec<Seconds>,
    /// Per-host average power over the iteration. When a host's telemetry
    /// is out (`host_fresh[h] == false`) this holds the last-known reading,
    /// not the true draw — exactly what an out-of-band agent would see.
    pub host_power: Vec<Watts>,
    /// Per-host lead frequency (stale under telemetry dropout, see above).
    pub host_lead: Vec<Hertz>,
    /// Per-host enforced node power limit during the iteration.
    pub host_limit: Vec<Watts>,
    /// Per-host liveness: `false` for fail-stop dead hosts, which no longer
    /// compute, draw power, or accept control.
    pub host_alive: Vec<bool>,
    /// Per-host telemetry freshness: `false` means the power/lead entries
    /// are stale last-known values, not this iteration's readings.
    pub host_fresh: Vec<bool>,
}

impl Default for IterationOutcome {
    fn default() -> Self {
        Self {
            elapsed: Seconds::ZERO,
            host_compute_time: Vec::new(),
            host_power: Vec::new(),
            host_lead: Vec::new(),
            host_limit: Vec::new(),
            host_alive: Vec::new(),
            host_fresh: Vec::new(),
        }
    }
}

impl IterationOutcome {
    /// Total job power during the iteration (as observed — stale entries
    /// contribute their last-known value).
    pub fn total_power(&self) -> Watts {
        self.host_power.iter().copied().sum()
    }

    /// Number of hosts still alive.
    pub fn alive_count(&self) -> usize {
        self.host_alive.iter().filter(|&&a| a).count()
    }

    /// True when any host died or reported stale telemetry this iteration.
    pub fn degraded(&self) -> bool {
        self.host_alive.iter().any(|&a| !a) || self.host_fresh.iter().any(|&f| !f)
    }

    /// Size every per-host vector to `hosts` entries; the values are
    /// placeholders the caller overwrites by index.
    fn resize(&mut self, hosts: usize) {
        self.host_compute_time.resize(hosts, Seconds::ZERO);
        self.host_power.resize(hosts, Watts::ZERO);
        self.host_lead.resize(hosts, Hertz(0.0));
        self.host_limit.resize(hosts, Watts::ZERO);
        self.host_alive.resize(hosts, false);
        self.host_fresh.resize(hosts, false);
    }
}

/// One side of the double buffer: an outcome and, per segment, the two
/// epochs its slices were last written at (0 = never): the limit epoch and
/// the outcome epoch (`outcome` module).
#[derive(Debug, Default)]
pub(super) struct BufferSide {
    pub(super) outcome: IterationOutcome,
    pub(super) stamps: Vec<u64>,
    pub(super) outcome_stamps: Vec<u64>,
}

/// Double-buffered iteration outcomes: [`super::JobPlatform::run_iteration_into`]
/// writes the back side by index and swaps, so the hot loop reuses two
/// outcomes' worth of vectors forever instead of allocating seven per
/// iteration — and leaves alone the slices of segments whose stamp says they
/// already hold this iteration's values. Buffers name the platform whose
/// stamps they hold, so they may be moved between platforms freely.
#[derive(Debug, Default)]
pub struct IterationBuffers {
    front: BufferSide,
    back: BufferSide,
    /// Id of the platform whose epochs the stamps count; 0 = nobody's yet.
    owner: u64,
}

impl IterationBuffers {
    /// Empty buffers; the first iteration sizes them.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently completed iteration's outcome.
    pub fn outcome(&self) -> &IterationOutcome {
        &self.front.outcome
    }

    /// The outcome before that (the double-buffer's back side). Empty until
    /// two iterations have run.
    pub fn previous(&self) -> &IterationOutcome {
        &self.back.outcome
    }

    /// Make the back side writable by index for platform `owner`: stamps
    /// another platform (or nobody) wrote are dropped on both sides, and a
    /// side whose shape is not `hosts` × `segments` is resized with every
    /// stamp cleared, so nothing foreign is ever taken for current.
    pub(super) fn claim(&mut self, owner: u64, hosts: usize, segments: usize) -> &mut BufferSide {
        if self.owner != owner {
            self.owner = owner;
            for side in [&mut self.front, &mut self.back] {
                side.stamps.clear();
                side.outcome_stamps.clear();
            }
        }
        let back = &mut self.back;
        if back.stamps.len() != segments || back.outcome.host_power.len() != hosts {
            back.outcome.resize(hosts);
            for stamps in [&mut back.stamps, &mut back.outcome_stamps] {
                stamps.clear();
                stamps.resize(segments, 0);
            }
        }
        back
    }

    pub(super) fn swap(&mut self) {
        std::mem::swap(&mut self.front, &mut self.back);
    }
}
