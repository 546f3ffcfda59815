//! The metric tables: every name a run may print, with its unit.
//!
//! `BENCHMARK.json` at the repository root carries the same names plus the
//! regression bounds; a unit test holds the two equal.

pub const WORKLOADS: &[&str] = &[
    "serve_submit",
    "serve_mixed",
    "sweep_fullstack",
    "fleet_step",
    "facility_campaign",
];

/// `(name, unit, better)`; `better` is `"lower"` or `"higher"`.
pub type Def = (&'static str, &'static str, &'static str);

/// Reported by every workload with `--trace 0`. What the operation and the
/// unit of work are on each workload is in `README.md`.
pub const END_TO_END: &[Def] = &[
    ("latency_p50_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Reported by every run with `--trace 1`.
pub const PER_LAYER: &[Def] = &[
    ("exec.par_map.ns_per_task", "ns", "lower"),
    ("exec.par_chunks_mut.ns_per_chunk", "ns", "lower"),
    ("exec.service_pool.handoff_us", "us", "lower"),
    ("obs.snapshot_us", "us", "lower"),
    ("obs.export.prometheus_us", "us", "lower"),
    ("obs.export.json_us", "us", "lower"),
    ("obs.export.summary_us", "us", "lower"),
    ("obs.export.prometheus_bytes", "count", "lower"),
    ("obs.recorder_on.slowdown_share", "share", "lower"),
    ("simhw.node.new.us_per_host", "us", "lower"),
    ("simhw.bank.set_power_limit.ns_per_host", "ns", "lower"),
    ("simhw.bank.step_all.ns_per_host", "ns", "lower"),
    ("simhw.bank.operating_point.ns", "ns", "lower"),
    ("simhw.bank.replay.ns_per_host", "ns", "lower"),
    ("simhw.bank.churn.replay_share", "share", "higher"),
    ("kernel.load.shared_miss_us", "us", "lower"),
    ("kernel.load.shared_hit_ns", "ns", "lower"),
    ("runtime.platform.new.ms", "ms", "lower"),
    ("runtime.platform.control_write.ns_per_host", "ns", "lower"),
    ("runtime.platform.full_step.ns_per_host", "ns", "lower"),
    ("runtime.platform.steady_step.ns_per_host", "ns", "lower"),
    ("runtime.hier_balancer.adjust.ns_per_host", "ns", "lower"),
    ("runtime.platform.small_step.ns_per_host", "ns", "lower"),
    ("runtime.balancer.adjust.ns_per_host", "ns", "lower"),
    ("runtime.fleet_snapshot.us", "us", "lower"),
    ("rm.pool.allocate_release.ns", "ns", "lower"),
    ("rm.ledger.reserve_release.ns", "ns", "lower"),
    ("rm.scheduler.backfill_tick.us", "us", "lower"),
    ("rm.lease.heartbeat_expire.ns", "ns", "lower"),
    ("rm.scheduler.fifo_tick.us", "us", "lower"),
    ("core.char.analytic_miss_us", "us", "lower"),
    ("core.char.analytic_hit_ns", "ns", "lower"),
    ("core.char.memo_hit_share", "share", "higher"),
    ("core.policy.mixed_allocate_us", "us", "lower"),
    ("core.coordinator.run_mix.clean_ms", "ms", "lower"),
    ("core.coordinator.run_mix.jitter_ms", "ms", "lower"),
    ("experiments.sweep.cold_wall_s", "s", "lower"),
    ("experiments.grid.cold_ms", "ms", "lower"),
    ("experiments.hetero.cold_ms", "ms", "lower"),
    ("experiments.fig1.cold_ms", "ms", "lower"),
    ("experiments.campaign.chaos_share", "share", "lower"),
    ("pmstackd.http.read_request_us", "us", "lower"),
    ("pmstackd.json.parse_us", "us", "lower"),
    ("pmstackd.admission.submit_us", "us", "lower"),
    ("pmstackd.admission.tick_us", "us", "lower"),
    ("pmstackd.http.write_response_us", "us", "lower"),
    ("pmstackd.fleet.snapshot_json_us", "us", "lower"),
    ("pmstackd.wire_overhead_us", "us", "lower"),
    ("pmstackd.submit.p50_ms.r1000", "ms", "lower"),
    ("pmstackd.submit.p50_ms.r2000", "ms", "lower"),
    ("pmstackd.submit.p50_ms.r4000", "ms", "lower"),
    ("pmstackd.submit.p99_ms.r1000", "ms", "lower"),
    ("pmstackd.submit.p99_ms.r2000", "ms", "lower"),
    ("pmstackd.submit.p99_ms.r4000", "ms", "lower"),
    ("pmstackd.submit.service_p50_ms.r2000", "ms", "lower"),
    ("pmstackd.loadgen.late_p50_ms", "ms", "lower"),
    ("pmstackd.loadgen.late_p99_ms", "ms", "lower"),
    ("pmstackd.submit.max_rate_ok", "1/s", "higher"),
    ("pmstackd.scrape.p99_ms", "ms", "lower"),
    ("pmstackd.stream.frame_gap_p99_ms", "ms", "lower"),
    ("pmstackd.responses.429_share", "share", "lower"),
    ("pmstackd.responses.503_share", "share", "lower"),
    ("pmstackd.fleet.tick_rate_share", "share", "higher"),
    ("bench.trace_overhead_share", "share", "lower"),
    // The issue's workload-specific end-to-end names. The contract has
    // every workload report every end-to-end metric, so these are kept
    // here under their names, without a bound.
    ("mixed_submit_p50_ms", "ms", "lower"),
    ("fleet_cold_ns_per_host", "ns", "lower"),
    ("fleet_balance_ns_per_host", "ns", "lower"),
    ("fleet_steady_ns_per_host", "ns", "lower"),
    ("fleet_churn_ns_per_host", "ns", "lower"),
];

pub fn unit_of(table: &[Def], name: &str) -> &'static str {
    table
        .iter()
        .find(|d| d.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
        .1
}
