//! `fleet_step`: one 100 000-host `JobPlatform`, built as
//! `megafleet::run_megafleet` builds it, driven from outside through four
//! regimes with every iteration timed on its own.
//!
//! The regime lengths give each regime a comparable share of a cycle's
//! wall time, so the cycle's overall rate moves when any one of them does.
//! A cycle rebuilds the platform, which yields one set-up sample and lets
//! every cycle's final energy be compared bit for bit.

use crate::digest;
use crate::outcome::Outcome;
use crate::spec::END_TO_END;
use crate::stats;
use crate::trace::Tracer;
use pmstack_kernel::KernelConfig;
use pmstack_runtime::{Agent, HierarchicalBalancerAgent, IterationBuffers, JobPlatform};
use pmstack_simhw::{quartz_spec, Node, NodeId, PowerModel, Watts};
use std::time::Instant;

pub const HOSTS: usize = 100_000;
pub const COLD_ITERS: u64 = 4;
pub const BALANCE_ITERS: u64 = 8;
pub const STEADY_ITERS: u64 = 2000;
pub const CHURN_ITERS: u64 = 600;
/// Untimed iterations allowed for the filters to reach their fixed point
/// once the balancer stops writing.
const SETTLE_MAX: usize = 600;
const BUDGET_PER_HOST_W: f64 = 150.0;

/// The megafleet's 16-level manufacturing-variation spread, rotated by the
/// seed so each seed is another fleet within the same support.
pub fn eps_of(i: usize, seed: u64) -> f64 {
    0.92 + 0.012 * ((i * 31 + (seed % 16) as usize) % 16) as f64
}

pub fn build_nodes(model: &PowerModel, seed: u64) -> Vec<Node> {
    (0..HOSTS)
        .map(|i| Node::new(NodeId(i), model, eps_of(i, seed)).expect("eps is in range"))
        .collect()
}

pub fn build_platform(model: PowerModel, nodes: Vec<Node>) -> JobPlatform {
    let mut platform = JobPlatform::new(model, nodes, KernelConfig::balanced_ymm(16.0));
    platform.set_fast_forward(true);
    platform
}

/// Segments the bank has advanced on the replay path so far (its own
/// counter; counts only while the recorder is on).
pub fn shard_replays() -> u64 {
    pmstack_obs::snapshot()
        .counter("simhw.bank.shard.replayed")
        .unwrap_or(0)
}

pub struct Cycle {
    pub build_s: f64,
    /// Final per-host energy, hashed bit for bit.
    pub digest: String,
    /// The fleet was on the replay path when the steady regime began.
    pub settled: bool,
    /// Shard replays counted over the churn regime, of `CHURN_ITERS` x
    /// `segments` segment-iterations.
    pub churn_replayed: u64,
    pub segments: usize,
    /// The platform as the cycle left it, for probes that need a live fleet.
    pub platform: JobPlatform,
    pub bufs: IterationBuffers,
}

/// One cycle. Every iteration is one span (`fleet.cold`, `fleet.balance`,
/// `fleet.steady`, `fleet.churn`); with `split` the write, step and agent
/// parts are child spans, which is how the traced run attributes them.
pub fn cycle(seed: u64, tr: &mut Tracer, split: bool) -> Cycle {
    let start = Instant::now();
    let model = PowerModel::new(quartz_spec()).expect("quartz spec is valid");
    let nodes = tr.span("simhw.node.new", 0, |_| build_nodes(&model, seed));
    let mut platform = tr.span("runtime.platform.new", 0, |_| build_platform(model, nodes));
    let build_s = start.elapsed().as_secs_f64();
    let mut bufs = IterationBuffers::new();
    let segments = platform.num_segments();

    // Cold: a uniform limit write keeps every segment invalid, so each
    // iteration pays the control write, the resolve and the full step.
    for i in 0..COLD_ITERS {
        let limit = Watts(200.0 + (i % 2) as f64);
        tr.span("fleet.cold", i, |tr| {
            if split {
                tr.span("runtime.platform.control_write", i, |_| {
                    platform
                        .set_uniform_limit(limit)
                        .expect("limit is settable")
                });
                tr.span("runtime.platform.full_step", i, |_| {
                    platform.run_iteration_into(&mut bufs)
                });
            } else {
                platform
                    .set_uniform_limit(limit)
                    .expect("limit is settable");
                platform.run_iteration_into(&mut bufs);
            }
        });
    }

    // Balance: the hierarchical balancer live, shards aligned with segments.
    let budget = Watts(BUDGET_PER_HOST_W * HOSTS as f64);
    let mut agent =
        HierarchicalBalancerAgent::new(budget).with_shard_hosts(platform.segment_hosts());
    agent.init(&mut platform);
    for i in 0..BALANCE_ITERS {
        tr.span("fleet.balance", i, |tr| {
            if split {
                tr.span("runtime.platform.balance_step", i, |_| {
                    platform.run_iteration_into(&mut bufs)
                });
                tr.span("runtime.hier_balancer.adjust", i, |_| {
                    agent.adjust(&mut platform, bufs.outcome())
                });
            } else {
                platform.run_iteration_into(&mut bufs);
                agent.adjust(&mut platform, bufs.outcome());
            }
        });
    }

    for _ in 0..SETTLE_MAX {
        if platform.steady_state_active() {
            break;
        }
        platform.run_iteration_into(&mut bufs);
    }
    let settled = platform.steady_state_active();

    for i in 0..STEADY_ITERS {
        tr.span("fleet.steady", i, |_| {
            platform.run_iteration_into(&mut bufs)
        });
    }

    // Churn: host 0's limit alternates, so segment 0 re-resolves while
    // every other segment must stay on the replay path.
    let before = shard_replays();
    for i in 0..CHURN_ITERS {
        let limit = Watts(180.0 + (i % 2) as f64);
        tr.span("fleet.churn", i, |_| {
            platform
                .set_host_limit(0, limit)
                .expect("limit is settable");
            platform.run_iteration_into(&mut bufs);
        });
    }
    let churn_replayed = shard_replays() - before;

    let energy = platform.host_energy();
    Cycle {
        build_s,
        digest: digest::fnv(
            energy
                .iter()
                .flat_map(|e| e.value().to_bits().to_le_bytes()),
        ),
        settled,
        churn_replayed,
        segments,
        platform,
        bufs,
    }
}

/// The checks every cycle must pass.
pub fn check_cycle(out: &mut Outcome, seed: u64, c: &Cycle, first: &str) {
    digest::check(out, "fleet_step", seed, &c.digest, first, digest::EXPECTED);
    out.check(c.settled, || {
        format!("fleet_step: not on the replay path after {SETTLE_MAX} settle iterations")
    });
    // One segment re-steps per iteration; the other S-1 must replay.
    let expected = CHURN_ITERS * (c.segments as u64 - 1);
    out.check(c.churn_replayed == expected, || {
        format!(
            "fleet_step: churn replayed {} segment-iterations, (S-1)/S of {} x {} is {}",
            c.churn_replayed, CHURN_ITERS, c.segments, expected
        )
    });
}

pub fn per_host_ns(tr: &Tracer, span: &str) -> Vec<f64> {
    tr.durations_ns(span)
        .into_iter()
        .map(|ns| ns / HOSTS as f64)
        .collect()
}

/// The workload: cycles until `seconds` have been measured. Latency is one
/// steady-regime iteration; the rate is host-iterations per second over all
/// four regimes.
pub fn fleet_step(seed: u64, seconds: f64) -> Outcome {
    // The shard counters behind the churn check count only while the
    // recorder is on, as under `repro megafleet`.
    pmstack_obs::enable();
    let mut out = Outcome::new(END_TO_END);
    let mut tr = Tracer::new();
    let mut build_s = Vec::new();
    let mut first: Option<String> = None;
    let mut cycles = 0u64;
    let measured = Instant::now();
    while measured.elapsed().as_secs_f64() < seconds {
        let c = cycle(seed, &mut tr, false);
        let first = first.get_or_insert_with(|| c.digest.clone());
        check_cycle(&mut out, seed, &c, first);
        build_s.push(c.build_s);
        cycles += 1;
    }
    out.notes
        .push(format!("digest {}", first.unwrap_or_default()));

    let regimes = ["fleet.cold", "fleet.balance", "fleet.steady", "fleet.churn"];
    let timed_s: f64 = regimes
        .iter()
        .map(|r| tr.durations_ns(r).iter().sum::<f64>())
        .sum::<f64>()
        / 1e9;
    let iterations = cycles * (COLD_ITERS + BALANCE_ITERS + STEADY_ITERS + CHURN_ITERS);
    let mut steady_ms: Vec<f64> = tr
        .durations_ns("fleet.steady")
        .into_iter()
        .map(|ns| ns / 1e6)
        .collect();
    out.notes.push(format!(
        "{cycles} cycles; ns/host medians: cold {:.1} balance {:.1} steady {:.2} churn {:.2}",
        stats::median(&mut per_host_ns(&tr, "fleet.cold")),
        stats::median(&mut per_host_ns(&tr, "fleet.balance")),
        stats::median(&mut per_host_ns(&tr, "fleet.steady")),
        stats::median(&mut per_host_ns(&tr, "fleet.churn")),
    ));
    out.put_samples("latency_p50_ms", &mut steady_ms);
    out.put(
        "throughput_per_s",
        (iterations * HOSTS as u64) as f64 / timed_s,
    );
    out.put_samples("setup_s", &mut build_s);
    out.put("peak_rss_mb", crate::host::peak_rss_mb());
    out
}
