//! The facility campaign's `facility.*` metrics are the same bits whether
//! its cells fan out over the exec pool or run one by one on the calling
//! thread. `facility.wasted_node_hours` is a float counter, so adds from
//! concurrent cells would sum in whatever order the threads interleave;
//! the campaign adds each cell's tally once, in cell order, after the
//! fan-out. One test in its own binary, so no other test moves the
//! process-wide counters it compares.

use pmstack_experiments::campaign::{run_campaign, CampaignParams, CampaignStudy};

/// What one campaign exported: its `facility.*` series, floats as their
/// bits, and how many rounds the exec pool ran meanwhile.
struct Exported {
    series: Vec<(String, u64)>,
    fanouts: u64,
    study: CampaignStudy,
}

fn exported(run: impl FnOnce() -> CampaignStudy) -> Exported {
    pmstack_obs::reset();
    let study = run();
    let snap = pmstack_obs::snapshot();
    let fanouts = snap.counter("exec.pool.fanouts").unwrap_or(0);
    let floats = (snap.float_counters.into_iter()).map(|(name, v)| (name, v.to_bits()));
    let series = (snap.counters.into_iter().chain(floats))
        .filter(|(name, _)| name.starts_with("facility."))
        .collect();
    Exported {
        series,
        fanouts,
        study,
    }
}

#[test]
fn the_pool_exports_the_bits_the_calling_thread_exports() {
    pmstack_obs::enable();
    let params = CampaignParams::default_scale(2);
    let inline = exported(|| pmstack_exec::sequential_scope(|| run_campaign(&params)));
    // The tally of each cell, added in cell order: what the counter holds
    // whichever thread ran which cell. Per-kill adds, even in order, round
    // differently.
    let tallies = (inline.study.rows.iter()).fold(0.0, |sum, row| sum + row.wasted_node_h);
    let wasted = ("facility.wasted_node_hours".to_string(), tallies.to_bits());
    assert!(tallies > 0.0, "chaos wasted no node-hours");
    assert!(inline.series.contains(&wasted), "{:?}", inline.series);
    // Which cells overlap on the pool varies from run to run.
    for _ in 0..3 {
        let pooled = exported(|| run_campaign(&params));
        if pmstack_exec::workers() > 1 {
            assert!(pooled.fanouts > 0, "the campaign never fanned out");
        }
        assert_eq!(pooled.study, inline.study);
        assert_eq!(pooled.series, inline.series);
    }
    pmstack_obs::disable();
}
