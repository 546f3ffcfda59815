//! The two batch workloads: the full-stack replicate sweep and the
//! facility campaign.

use crate::digest;
use crate::outcome::Outcome;
use crate::spec::END_TO_END;
use pmstack_experiments::campaign::{self, CampaignParams};
use pmstack_experiments::replicates::{self, ReplicateParams};
use pmstack_experiments::MixKind;
use std::time::Instant;

pub const SWEEP_MIX: MixKind = MixKind::WastefulPower;

/// 5 policies x (1 clean + 100 jittered) full-stack runs of 9 jobs x 100
/// hosts x 100 iterations: 45.45 M node-iterations per repeat.
pub fn sweep_params(seed: u64, replicates: usize) -> ReplicateParams {
    ReplicateParams {
        seed,
        ..ReplicateParams::default_scale(replicates)
    }
}

pub const CAMPAIGN_DAYS: u64 = 40;

/// 512 nodes, 40 simulated days, 5 policies x {clean, chaos 2} = 10 cells.
pub fn campaign_params(seed: u64, chaos: u32) -> CampaignParams {
    CampaignParams {
        days: CAMPAIGN_DAYS,
        seed,
        ..CampaignParams::default_scale(chaos)
    }
}

/// Repeat `once` until `seconds` have passed, after one untimed repeat
/// that fills the process-wide memos and is reported as the set-up.
/// `once` returns the work done (for the rate) and the result's digest.
fn repeat(
    workload: &str,
    seed: u64,
    seconds: f64,
    mut once: impl FnMut() -> (f64, String),
) -> Outcome {
    let mut out = Outcome::new(END_TO_END);
    let start = Instant::now();
    let (_, first) = once();
    let setup_s = start.elapsed().as_secs_f64();

    let (mut wall_ms, mut rate) = (Vec::new(), Vec::new());
    let measured = Instant::now();
    while measured.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let (work, digest) = once();
        let wall = t.elapsed().as_secs_f64();
        wall_ms.push(wall * 1e3);
        rate.push(work / wall);
        digest::check(&mut out, workload, seed, &digest, &first, digest::EXPECTED);
    }
    out.notes.push(format!("digest {first}"));
    out.put_samples("latency_p50_ms", &mut wall_ms);
    out.put_samples("throughput_per_s", &mut rate);
    out.put("setup_s", setup_s);
    out.put("peak_rss_mb", crate::host::peak_rss_mb());
    out
}

/// `sweep_fullstack`: the paper-facing batch path, recorder disabled.
/// Latency is one sweep's wall time; the rate is node-iterations per second.
pub fn sweep_fullstack(seed: u64, seconds: f64) -> Outcome {
    let params = sweep_params(seed, 100);
    repeat("sweep_fullstack", seed, seconds, || {
        let sweep = replicates::run_sweep(SWEEP_MIX, params);
        (sweep.node_iterations as f64, digest::of_debug(&sweep.rows))
    })
}

/// `facility_campaign`: the `rm` plane. Latency is one campaign's wall
/// time; the rate is simulated days (cells x days) per second.
pub fn facility_campaign(seed: u64, seconds: f64) -> Outcome {
    let params = campaign_params(seed, 2);
    repeat("facility_campaign", seed, seconds, || {
        let study = campaign::run_campaign(&params);
        let sim_days = (study.rows.len() as u64 * params.days) as f64;
        (sim_days, digest::of_debug(&study.rows))
    })
}
