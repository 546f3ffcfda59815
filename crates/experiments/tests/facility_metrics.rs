//! The facility campaign's `rm.*` and `facility.*` counters are the same
//! whether its cells fan out over the exec pool or run one by one on the
//! calling thread. Every counter is an integer, so adds from concurrent
//! cells commute: the ledger's `rm.milliwatts.*` and the per-kill
//! `facility.wasted_node_seconds` round each add once. One test in its own
//! binary, so no other test moves the process-wide counters it compares.

use pmstack_experiments::campaign::{run_campaign, CampaignParams, CampaignStudy};

/// What one campaign exported: its `rm.*` and `facility.*` counters, and
/// how many rounds the exec pool ran meanwhile.
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
    let series = (snap.counters.into_iter())
        .filter(|(name, _)| name.starts_with("rm.") || name.starts_with("facility."))
        .collect();
    Exported {
        series,
        fanouts,
        study,
    }
}

fn counter(series: &[(String, u64)], name: &str) -> u64 {
    match series.iter().find(|(n, _)| n == name) {
        Some(&(_, v)) => v,
        None => panic!("{name} missing from {series:?}"),
    }
}

#[test]
fn the_pool_exports_the_bits_the_calling_thread_exports() {
    pmstack_obs::enable();
    let params = CampaignParams::default_scale(2);
    let inline = exported(|| pmstack_exec::sequential_scope(|| run_campaign(&params)));
    // Each kill rounds its wasted node-seconds once, so the counter is
    // within half a node-second per kill of the rows' exact tally.
    let rows = &inline.study.rows;
    let kills: usize = rows.iter().map(|row| row.requeues + row.failed).sum();
    let tally_s = rows.iter().map(|row| row.wasted_node_h).sum::<f64>() * 3600.0;
    let wasted_s = counter(&inline.series, "facility.wasted_node_seconds");
    assert!(tally_s > 0.0, "chaos wasted no node-hours");
    assert!(
        (wasted_s as f64 - tally_s).abs() <= 0.5 * kills as f64,
        "{wasted_s} node-seconds counted, {tally_s} tallied over {kills} kills"
    );
    for name in ["rm.milliwatts.reserved", "rm.milliwatts.reclaimed"] {
        assert!(counter(&inline.series, name) > 0, "{name} is zero");
    }
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
