//! The megafleet scale scenario (`repro megafleet`).
//!
//! Drives one [`JobPlatform`] at 100k–1M hosts through the four regimes the
//! sharded bank distinguishes, timing each:
//!
//! 1. **full_resolve** — every segment cold: per-host operating-point
//!    resolve plus full columnar stepping.
//! 2. **balance** — the [`PowerBalancerAgent`] live on every interval, one
//!    shard per bank segment. Its write elision lets segments settle while
//!    the agent still runs.
//! 3. **steady** — no agent: the whole fleet replays from the
//!    steady-state cache at the flat ns/host the bank is built for.
//! 4. **shard_churn** — a control write lands in segment 0 every
//!    interval, so that one segment re-resolves while every other segment
//!    stays on the replay path. The shard counters prove the partial
//!    invalidation: with S segments, the replay fraction must stay at
//!    (S-1)/S, not collapse to zero.
//!
//! The scenario is deterministic (no jitter, seeded manufacturing
//! variation) and needs the observability recorder enabled to report the
//! replay fraction; `repro` turns it on for this artifact.

use pmstack_kernel::KernelConfig;
use pmstack_runtime::{Agent, IterationBuffers, JobPlatform, PowerBalancerAgent};
use pmstack_simhw::{quartz_spec, NodeId, PowerModel, Watts};
use std::time::Instant;

/// Hard ceiling on `--hosts`: 2^20 hosts (~1.3 GB of bank state).
pub const MAX_HOSTS: usize = 1 << 20;

/// Scale knobs of the megafleet scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MegafleetParams {
    /// Fleet size (1 ..= [`MAX_HOSTS`]).
    pub hosts: usize,
    /// Iterations timed with every segment cold.
    pub resolve_iters: usize,
    /// Iterations with the hierarchical balancer live.
    pub balance_iters: usize,
    /// Iterations of full steady-state replay.
    pub steady_iters: usize,
    /// Iterations with a one-host control write per interval.
    pub churn_iters: usize,
    /// Job budget per host, watts. Scarce, so the balancer has real work.
    pub budget_per_host_w: f64,
    /// Override the bank's segment size (None = the bank default). Used
    /// by tests to get many segments out of a small fleet.
    pub segment_hosts: Option<usize>,
}

impl MegafleetParams {
    /// Default scale: the 100k-host point of the ISSUE's target band.
    pub fn default_scale(hosts: usize) -> Self {
        Self {
            hosts,
            resolve_iters: 30,
            balance_iters: 400,
            steady_iters: 200,
            churn_iters: 200,
            budget_per_host_w: 150.0,
            segment_hosts: None,
        }
    }

    /// Reduced iteration counts for quick checks (`--fast`).
    pub fn fast(hosts: usize) -> Self {
        Self {
            hosts,
            resolve_iters: 10,
            balance_iters: 150,
            steady_iters: 60,
            churn_iters: 60,
            budget_per_host_w: 150.0,
            segment_hosts: None,
        }
    }
}

/// Wall-clock of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase name (`full_resolve`, `balance`, `steady`, `shard_churn`).
    pub name: &'static str,
    /// Iterations run.
    pub iters: usize,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Nanoseconds per host per iteration.
    pub ns_per_host: f64,
}

/// The full scenario result.
#[derive(Debug, Clone, PartialEq)]
pub struct MegafleetReport {
    /// Fleet size.
    pub hosts: usize,
    /// Bank segments backing the fleet.
    pub segments: usize,
    /// Hosts per segment.
    pub segment_hosts: usize,
    /// One entry per phase, run order.
    pub phases: Vec<PhaseStat>,
    /// Shard invalidations over the churn phase.
    pub churn_invalidated: u64,
    /// Shard replays over the churn phase.
    pub churn_replayed: u64,
    /// Fraction of (segment, iteration) slots the churn phase replayed.
    pub churn_replay_fraction: f64,
    /// Whether steady-state replay was active at the end of the balance
    /// phase (the write-elision fixed point engaged under a live agent).
    pub settled_under_agent: bool,
    /// Total fleet energy at the end, joules (a determinism anchor).
    pub total_energy_j: f64,
    /// Wall-clock seconds of the final per-host energy read, which accrues
    /// every replay the clean segments counted since they last stepped
    /// (deferred work, not a phase).
    pub final_read_secs: f64,
    /// Wall-clock seconds to build the platform from the host list (the
    /// part's columns filled, no `Node` per host).
    pub build_secs: f64,
    /// Resident memory the fleet costs per host: `resident_bytes()` once
    /// the platform is built minus before its nodes were, over the host
    /// count. `None` where `/proc/self/status` does not exist.
    pub resident_bytes_per_host: Option<f64>,
}

/// The process's resident set in bytes (`VmRSS`, from `/proc/self/status`)
/// once the allocator has handed the pages it holds free back to the OS.
/// Building the platform frees the `(id, ε)` list it reads; glibc would
/// keep that memory cached for the next allocation, and `VmRSS` would still
/// count its 16 bytes per host.
fn resident_bytes() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases memory
        // the allocator holds free.
        unsafe { malloc_trim(0) };
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024.0)
}

/// Deterministic manufacturing-variation spread, inside the profile's
/// support, cheap enough for a million hosts.
fn eps_of(i: usize) -> f64 {
    0.92 + 0.012 * ((i * 31) % 16) as f64
}

fn time_phase(name: &'static str, hosts: usize, iters: usize, mut body: impl FnMut()) -> PhaseStat {
    let start = Instant::now();
    for _ in 0..iters {
        body();
    }
    let wall_secs = start.elapsed().as_secs_f64();
    PhaseStat {
        name,
        iters,
        wall_secs,
        ns_per_host: wall_secs * 1e9 / (iters.max(1) * hosts) as f64,
    }
}

/// Run the scenario.
pub fn run_megafleet(params: &MegafleetParams) -> MegafleetReport {
    assert!(
        (1..=MAX_HOSTS).contains(&params.hosts),
        "hosts out of range"
    );
    let model = PowerModel::new(quartz_spec()).expect("quartz spec is valid");
    let rss_before = resident_bytes();
    let build = Instant::now();
    let hosts: Vec<(NodeId, f64)> = (0..params.hosts).map(|i| (NodeId(i), eps_of(i))).collect();
    let config = KernelConfig::balanced_ymm(16.0);
    let mut platform = JobPlatform::from_hosts(model, &hosts, config).expect("eps is in range");
    drop(hosts);
    let build_secs = build.elapsed().as_secs_f64();
    if let Some(sh) = params.segment_hosts {
        platform = platform.with_segment_hosts(sh);
    }
    platform.set_fast_forward(true);
    let resident_bytes_per_host = rss_before
        .zip(resident_bytes())
        .map(|(before, after)| (after - before) / params.hosts as f64);
    let segments = platform.num_segments();
    let segment_hosts = platform.segment_hosts();
    let mut bufs = IterationBuffers::new();
    let mut phases = Vec::with_capacity(4);

    // Phase 1: cold resolve + full stepping. A uniform limit write before
    // each timed iteration keeps every segment invalid, so this times the
    // worst case the sharding is supposed to make rare.
    let mut flip = 0u64;
    phases.push(time_phase(
        "full_resolve",
        params.hosts,
        params.resolve_iters,
        || {
            flip += 1;
            platform
                .set_uniform_limit(Watts(200.0 + (flip % 2) as f64))
                .expect("limit is in the settable range");
            platform.run_iteration_into(&mut bufs);
        },
    ));

    // Phase 2: the balancer; it shards itself by the platform's segments.
    let budget = Watts(params.budget_per_host_w * params.hosts as f64);
    let mut agent = PowerBalancerAgent::new(budget);
    agent.init(&mut platform);
    phases.push(time_phase(
        "balance",
        params.hosts,
        params.balance_iters,
        || {
            platform.run_iteration_into(&mut bufs);
            agent.adjust(&mut platform, bufs.outcome());
        },
    ));
    let settled_under_agent = platform.steady_state_active();

    // A scarce budget can keep the agent nudging targets right up to its
    // last adjustment, leaving the filters a few iterations short of their
    // bitwise fixed point. Give them a bounded, untimed window to settle so
    // the steady row measures the replay path itself, not the tail of the
    // convergence.
    for _ in 0..600 {
        if platform.steady_state_active() {
            break;
        }
        platform.run_iteration_into(&mut bufs);
    }

    // Phase 3: the whole fleet on the steady-state replay path.
    phases.push(time_phase(
        "steady",
        params.hosts,
        params.steady_iters,
        || {
            platform.run_iteration_into(&mut bufs);
        },
    ));

    // Phase 4: one-host churn. Alternating limits on host 0 keep segment 0
    // re-resolving every interval; every other segment must stay on the
    // per-segment replay path, which the shard counters prove.
    let before = pmstack_obs::snapshot();
    let mut flip = 0u64;
    phases.push(time_phase(
        "shard_churn",
        params.hosts,
        params.churn_iters,
        || {
            flip += 1;
            platform
                .set_host_limit(0, Watts(180.0 + (flip % 2) as f64))
                .expect("limit is in the settable range");
            platform.run_iteration_into(&mut bufs);
        },
    ));
    let after = pmstack_obs::snapshot();
    let shard_count = |snap: &pmstack_obs::Snapshot, name: &str| snap.counter(name).unwrap_or(0);
    let churn_invalidated = shard_count(&after, "simhw.bank.shard.invalidated")
        - shard_count(&before, "simhw.bank.shard.invalidated");
    let churn_replayed = shard_count(&after, "simhw.bank.shard.replayed")
        - shard_count(&before, "simhw.bank.shard.replayed");
    let slots = (params.churn_iters * segments) as f64;
    let churn_replay_fraction = if slots > 0.0 {
        churn_replayed as f64 / slots
    } else {
        0.0
    };

    let read = Instant::now();
    let energy = platform.host_energy();
    let final_read_secs = read.elapsed().as_secs_f64();
    let total_energy_j: f64 = energy.iter().map(|e| e.value()).sum();
    MegafleetReport {
        hosts: params.hosts,
        segments,
        segment_hosts,
        phases,
        churn_invalidated,
        churn_replayed,
        churn_replay_fraction,
        settled_under_agent,
        total_energy_j,
        final_read_secs,
        build_secs,
        resident_bytes_per_host,
    }
}

/// Render the report as a text artifact.
///
/// Deliberately timing-free: every `repro` artifact on stdout is
/// byte-identical across same-seed runs (the verify recipe `cmp`s two
/// invocations). Per-phase wall-clock prints on stderr behind `--time`,
/// and machine form lands in `BENCH_megafleet.json` behind `--out`.
pub fn render(report: &MegafleetReport) -> String {
    use pmstack_analysis::render::table;
    let header = ["phase", "iters", "regime"];
    let regime = |name: &str| match name {
        "full_resolve" => "every segment cold: full resolve + step",
        "balance" => "hierarchical balancer live each interval",
        "steady" => "whole-fleet steady-state replay",
        "shard_churn" => "segment 0 dirtied, rest replaying",
        _ => "",
    };
    let rows: Vec<Vec<String>> = report
        .phases
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                p.iters.to_string(),
                regime(p.name).to_string(),
            ]
        })
        .collect();
    format!(
        "MEGAFLEET: {} HOSTS ({} segments x {} hosts)\n\n{}\n\
         balance fixed point reached under live agent: {}\n\
         churn: {} shard invalidations, {} shard replays \
         ({:.1}% of segment-iterations on the replay path)\n\
         total fleet energy: {:.3e} J\n\
         (per-phase wall-clock: --time; machine form: --out DIR writes \
         BENCH_megafleet.json)\n",
        report.hosts,
        report.segments,
        report.segment_hosts,
        table(&header, &rows),
        if report.settled_under_agent {
            "yes"
        } else {
            "no"
        },
        report.churn_invalidated,
        report.churn_replayed,
        report.churn_replay_fraction * 100.0,
        report.total_energy_j,
    )
}

/// Serialize the report as the BENCH_megafleet.json document.
pub fn to_bench_json(report: &MegafleetReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\n  \"benchmark\": \"megafleet\",\n  \"hosts\": {},\n  \
         \"segments\": {},\n  \"segment_hosts\": {},\n",
        report.hosts, report.segments, report.segment_hosts
    );
    let _ = writeln!(out, "  \"build_secs\": {:.6},", report.build_secs);
    if let Some(bytes) = report.resident_bytes_per_host {
        let _ = writeln!(out, "  \"resident_bytes_per_host\": {bytes:.1},");
    }
    out.push_str("  \"phases\": {");
    for (i, p) in report.phases.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"iters\": {}, \"wall_secs\": {:.6}, \
             \"ns_per_host\": {:.3}}}",
            p.name, p.iters, p.wall_secs, p.ns_per_host
        );
    }
    let _ = write!(
        out,
        "\n  }},\n  \"final_read_secs\": {:.6},\n  \"churn_invalidated\": {},\n  \
         \"churn_replayed\": {},\n  \"churn_replay_fraction\": {:.6},\n  \
         \"settled_under_agent\": {}\n}}\n",
        report.final_read_secs,
        report.churn_invalidated,
        report.churn_replayed,
        report.churn_replay_fraction,
        report.settled_under_agent
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MegafleetParams {
        MegafleetParams {
            hosts: 24,
            resolve_iters: 4,
            balance_iters: 250,
            steady_iters: 20,
            churn_iters: 20,
            budget_per_host_w: 150.0,
            segment_hosts: None,
        }
    }

    #[test]
    fn runs_all_phases_and_reports_partial_invalidation() {
        pmstack_obs::enable();
        let report = run_megafleet(&tiny());
        assert_eq!(report.hosts, 24);
        assert_eq!(report.phases.len(), 4);
        assert!(report.phases.iter().all(|p| p.wall_secs >= 0.0));
        // 24 hosts fit one default segment: churn re-steps it every
        // interval, so nothing replays — the fraction is honest, not
        // vacuous.
        assert_eq!(report.segments, 1);
        assert_eq!(report.churn_replay_fraction, 0.0);
        assert!(report.settled_under_agent, "balancer reached fixed point");
        assert!(report.total_energy_j > 0.0);
    }

    #[test]
    fn churn_leaves_most_segments_on_the_replay_path() {
        pmstack_obs::enable();
        let mut params = tiny();
        params.segment_hosts = Some(2); // 12 segments of 2 hosts
        let report = run_megafleet(&params);
        assert_eq!(report.segments, 12);
        // Only segment 0 is dirtied each churn interval: the other 11
        // must replay, i.e. >= 90% of segment-iterations.
        assert!(
            report.churn_replay_fraction >= 0.9,
            "replay fraction {} below the 90% floor",
            report.churn_replay_fraction
        );
        assert!(report.churn_invalidated > 0);
        assert!(report.churn_replayed > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        pmstack_obs::enable();
        let a = run_megafleet(&tiny());
        let b = run_megafleet(&tiny());
        assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
        assert_eq!(a.churn_replay_fraction, b.churn_replay_fraction);
    }

    #[test]
    fn render_and_json_name_every_phase() {
        pmstack_obs::enable();
        let report = run_megafleet(&tiny());
        let text = render(&report);
        let json = to_bench_json(&report);
        for name in ["full_resolve", "balance", "steady", "shard_churn"] {
            assert!(text.contains(name), "render missing {name}");
            assert!(json.contains(name), "json missing {name}");
        }
        assert!(json.contains("\"hosts\": 24"));
        // Linux has /proc/self/status; the field is left out elsewhere.
        assert_eq!(
            json.contains("resident_bytes_per_host"),
            report.resident_bytes_per_host.is_some()
        );
    }

    #[test]
    fn eps_stays_inside_the_variation_support() {
        for i in [0usize, 1, 15, 16, 1023, 1024, MAX_HOSTS - 1] {
            let e = eps_of(i);
            assert!((0.85..=1.18).contains(&e), "eps {e} out of range at {i}");
        }
    }
}
