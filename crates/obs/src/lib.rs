//! # pmstack-obs — stack-wide observability
//!
//! The paper's whole argument is *visibility*: `MixedAdaptive` wins because
//! it can see both system power and application behaviour, and the
//! PowerStack community frames the production version of that as
//! multi-layer telemetry flowing between the resource manager, the job
//! runtimes, and the hardware. This crate is that layer for the
//! reproduction: every crate of the stack records what it does here, and
//! the `repro` CLI exports the result as JSON ([`JsonWriter`], the stack's
//! one JSON writer) or Prometheus text.
//!
//! Three instrument families, all behind one global [`Recorder`]:
//!
//! * **Metrics** — monotonic [`Counter`]s, last-write [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s whose snapshots merge associatively (the
//!   property tests in `tests/prop.rs` prove it). Every accumulator is an
//!   integer: a counter of a real quantity counts it in a fixed unit named
//!   in the metric (`rm.milliwatts.reserved`,
//!   `facility.wasted_node_seconds`), and a histogram sums its observations
//!   in units of 1e-9 (nanoseconds). Integer adds commute, so totals are
//!   the same bits however concurrent adds interleave.
//! * **Scoped span timers** — `obs::span!("grid.eval_cell")` returns an
//!   RAII guard that feeds the wall-clock duration of its scope into a
//!   duration histogram of the same name.
//! * **Event journal** — an append-only, ring-buffer-bounded log of typed
//!   [`EventKind`]s stamped with simulation time and wall time.
//!
//! # Cost discipline
//!
//! The recorder starts *disabled*. Every instrument checks
//! [`enabled`] — one relaxed atomic load and a branch — before doing
//! anything, so the hot loops (`NodeBank::step_all`,
//! `JobPlatform::run_iteration_into`) pay nanoseconds when nobody is
//! watching (guarded by the `obs_overhead` bench against
//! `BENCH_step.json`). When enabled, static call sites cache their metric
//! handle in a `OnceLock`, so a counter bump is an atomic load plus a
//! relaxed `fetch_add`. [`reset`] therefore *zeroes* metrics
//! instead of dropping them: cached handles stay registered forever.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod export;
mod journal;
mod json;
mod metrics;

pub use export::{
    exporter, validate_prometheus, Exporter, JsonExporter, PrometheusExporter, Snapshot,
    SummaryExporter, EXPORTER_NAMES,
};
pub use journal::{Event, EventKind, FieldValue};
pub use json::{json_escape, JsonWriter};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

use journal::Journal;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Bucket bounds (seconds) shared by every span-duration histogram:
/// powers of four from 100 ns to ~27 s, capturing everything from one
/// columnar `step_all` call to a full grid run.
pub const DURATION_BOUNDS: &[f64] = &[
    1e-7,
    4e-7,
    1.6e-6,
    6.4e-6,
    2.56e-5,
    1.024e-4,
    4.096e-4,
    1.6384e-3,
    6.5536e-3,
    2.62144e-2,
    0.104_857_6,
    0.419_430_4,
    1.677_721_6,
    6.710_886_4,
    26.843_545_6,
];

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True while the global recorder is capturing. Inline-able single relaxed
/// load — the entire disabled-path cost of every instrument in this crate.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the global recorder on. Instruments hit after this call record.
pub fn enable() {
    recorder(); // pin the wall-clock epoch before anything records
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the global recorder off. Instruments become no-ops again; recorded
/// data stays readable through [`snapshot`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Zero every metric and clear the journal (registrations survive, so
/// cached handles at static call sites stay valid). Test isolation helper.
pub fn reset() {
    recorder().reset();
}

/// Capture a consistent point-in-time view of every metric and the journal.
pub fn snapshot() -> Snapshot {
    recorder().snapshot()
}

/// Append a typed event to the journal (no-op while disabled). `sim_s` is
/// the caller's simulation clock; pass `f64::NAN` where no simulated time
/// is meaningful (exported as `null`).
#[inline]
pub fn event(sim_s: f64, kind: EventKind) {
    if enabled() {
        recorder().journal.push(sim_s, kind);
    }
}

/// The global recorder: the metric registry plus the event journal.
///
/// All instruments route through the process-wide instance returned by
/// [`recorder`]; it exists so the whole observability layer is one branch
/// when disabled and one shared sink when enabled.
pub struct Recorder {
    epoch: Instant,
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
    journal: Journal,
}

/// The process-wide [`Recorder`].
pub fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        counters: Mutex::new(HashMap::new()),
        gauges: Mutex::new(HashMap::new()),
        histograms: Mutex::new(HashMap::new()),
        journal: Journal::new(),
    })
}

impl Recorder {
    /// Microseconds since the recorder was first touched (journal wall
    /// stamps are relative to this epoch).
    pub(crate) fn wall_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The counter registered under `name` (registered on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// The histogram registered under `name`. The first registration fixes
    /// the bucket bounds; later callers share them regardless of the bounds
    /// they pass (one metric, one shape — snapshots must merge).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(bounds)))
            .clone()
    }

    fn reset(&self) {
        for c in self.counters.lock().expect("poisoned").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("poisoned").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("poisoned").values() {
            h.reset();
        }
        self.journal.clear();
    }

    fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .expect("poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .lock()
            .expect("poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .lock()
            .expect("poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let (events, dropped_events) = self.journal.drain_copy();
        Snapshot {
            counters,
            gauges,
            histograms,
            events,
            dropped_events,
        }
    }
}

/// A named counter handle for static call sites: resolves its registry
/// entry once, then each [`Self::add`] is an enabled-check plus a relaxed
/// `fetch_add`.
pub struct StaticCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl StaticCounter {
    /// A handle for the counter registered under `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Add `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| recorder().counter(self.name))
                .add(n);
        }
    }

    /// Add one (no-op while disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A named gauge handle for static call sites.
pub struct StaticGauge {
    name: &'static str,
    cell: OnceLock<Arc<Gauge>>,
}

impl StaticGauge {
    /// A handle for the gauge registered under `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Set the gauge (no-op while disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.cell.get_or_init(|| recorder().gauge(self.name)).set(v);
        }
    }
}

/// A named histogram handle for static call sites; also the anchor the
/// [`span!`] macro hangs its RAII guards on.
pub struct StaticHistogram {
    name: &'static str,
    bounds: &'static [f64],
    cell: OnceLock<Arc<Histogram>>,
}

impl StaticHistogram {
    /// A handle for the histogram registered under `name` with `bounds`.
    pub const fn new(name: &'static str, bounds: &'static [f64]) -> Self {
        Self {
            name,
            bounds,
            cell: OnceLock::new(),
        }
    }

    /// Record one observation (no-op while disabled).
    #[inline]
    pub fn observe(&self, v: f64) {
        if enabled() {
            self.cell
                .get_or_init(|| recorder().histogram(self.name, self.bounds))
                .observe(v);
        }
    }

    /// Start a scoped span: the guard's drop records the elapsed seconds
    /// into this histogram. While disabled the guard is inert and no clock
    /// is read.
    #[inline]
    pub fn start_span(&self) -> SpanGuard<'_> {
        SpanGuard {
            live: enabled().then(|| (self, Instant::now())),
        }
    }
}

/// RAII guard of one timed scope; see [`StaticHistogram::start_span`] and
/// [`span!`].
pub struct SpanGuard<'a> {
    live: Option<(&'a StaticHistogram, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.live.take() {
            hist.observe(start.elapsed().as_secs_f64());
        }
    }
}

/// Open a scoped span timer feeding the duration histogram named by the
/// literal: `let _span = obs::span!("grid.eval_cell");`. The span closes
/// (and records) when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static SPAN_HIST: $crate::StaticHistogram =
            $crate::StaticHistogram::new($name, $crate::DURATION_BOUNDS);
        SPAN_HIST.start_span()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide; tests in this module serialize
    // behind one lock so enable/disable/reset do not race each other.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = guard();
        disable();
        reset();
        static C: StaticCounter = StaticCounter::new("test.disabled.counter");
        static G: StaticGauge = StaticGauge::new("test.disabled.gauge");
        static H: StaticHistogram = StaticHistogram::new("test.disabled.hist", DURATION_BOUNDS);
        C.inc();
        G.set(7.0);
        H.observe(0.1);
        {
            let _span = span!("test.disabled.span");
        }
        event(
            1.0,
            EventKind::Marker {
                name: "x",
                value: 1.0,
            },
        );
        let snap = snapshot();
        assert_eq!(snap.counter("test.disabled.counter").unwrap_or(0), 0);
        assert!(snap
            .histogram("test.disabled.hist")
            .is_none_or(|h| h.total == 0));
        assert!(snap
            .histogram("test.disabled.span")
            .is_none_or(|h| h.total == 0));
        assert!(snap.events.is_empty());
    }

    #[test]
    fn enabled_recorder_counts_and_times() {
        let _g = guard();
        enable();
        reset();
        static C: StaticCounter = StaticCounter::new("test.enabled.counter");
        C.add(3);
        C.inc();
        {
            let _span = span!("test.enabled.span");
            std::hint::black_box(0u64);
        }
        event(
            0.5,
            EventKind::FaultInjected {
                host: 3,
                fault: "node_death",
            },
        );
        let snap = snapshot();
        disable();
        assert_eq!(snap.counter("test.enabled.counter"), Some(4));
        let h = snap.histogram("test.enabled.span").expect("span recorded");
        assert_eq!(h.total, 1);
        assert!(h.sum() >= 0.0);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind.name(), "fault.injected");
        reset();
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let _g = guard();
        enable();
        reset();
        static C: StaticCounter = StaticCounter::new("test.reset.counter");
        C.inc();
        assert_eq!(snapshot().counter("test.reset.counter"), Some(1));
        reset();
        // Reset zeroes the counter but keeps it registered: Some(0), the
        // state the Option-returning accessor exists to distinguish.
        assert_eq!(snapshot().counter("test.reset.counter"), Some(0));
        // The cached handle still reaches the registered metric.
        C.inc();
        assert_eq!(snapshot().counter("test.reset.counter"), Some(1));
        disable();
        reset();
    }

    #[test]
    fn gauges_hold_last_write() {
        let _g = guard();
        enable();
        reset();
        static G: StaticGauge = StaticGauge::new("test.gauge.workers");
        G.set(4.0);
        G.set(9.0);
        let v = snapshot()
            .gauges
            .iter()
            .find(|(k, _)| k == "test.gauge.workers")
            .map(|(_, v)| *v);
        disable();
        assert_eq!(v, Some(9.0));
        reset();
    }
}
