//! Cross-crate determinism contract for the facility campaign.
//!
//! The campaign pre-draws every random quantity before the clock starts
//! and orders same-minute events by insertion sequence, so two runs with
//! the same seed must be *bit-identical* — not merely statistically
//! similar. This test pins that contract at the public-API boundary
//! (`run_campaign` + `render`), where a regression in any layer below
//! (event ordering, fault plans, ledger arithmetic, journal text) would
//! surface as a diff.

use pmstack_experiments::campaign::{render, run_campaign, CampaignParams};

/// Small enough to run in debug CI, large enough that chaos actually
/// kills jobs (lease expiries + requeues are nonzero at this scale).
fn small() -> CampaignParams {
    CampaignParams {
        nodes: 48,
        days: 1,
        seed: 11,
        chaos: 2,
        arrivals_per_hour: 0.5,
        ..CampaignParams::fast(2)
    }
}

#[test]
fn same_seed_reproduces_journals_and_summaries_bit_for_bit() {
    let a = run_campaign(&small());
    let b = run_campaign(&small());
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        // Journals first: on a mismatch the journal diff names the first
        // divergent event, which the summary comparison cannot.
        assert_eq!(ra.journal, rb.journal, "{} journals diverge", ra.kind);
        assert_eq!(ra, rb, "{} summaries diverge", ra.kind);
    }
    assert_eq!(render(&a), render(&b));
}

#[test]
fn different_seeds_actually_diverge() {
    // Guard against the degenerate way to "pass" the test above: a
    // campaign that ignores its seed entirely.
    let a = run_campaign(&small());
    let mut p = small();
    p.seed = 12;
    let b = run_campaign(&p);
    assert!(
        a.rows
            .iter()
            .zip(&b.rows)
            .any(|(ra, rb)| ra.journal != rb.journal),
        "changing the seed changed nothing — campaign is not seeded"
    );
}

/// The cells fan out over the exec pool; rows come back in cell order and
/// each cell is a pure function of its parameters, so the pool's campaign
/// is the one run cell by cell on the calling thread: every row, and every
/// journal line, at chaos 0 and at chaos 2.
#[test]
fn the_pool_runs_the_cells_the_calling_thread_runs() {
    for chaos in [0, 2] {
        let params = CampaignParams { chaos, ..small() };
        let pooled = run_campaign(&params);
        let inline = pmstack_exec::sequential_scope(|| run_campaign(&params));
        assert_eq!(pooled.rows.len(), if chaos == 0 { 5 } else { 10 });
        for (rp, ri) in pooled.rows.iter().zip(&inline.rows) {
            assert_eq!((rp.kind, rp.chaos), (ri.kind, ri.chaos), "row order");
            assert!(
                rp.journal.lines().eq(ri.journal.lines()),
                "chaos {chaos}: {} journals diverge",
                rp.kind
            );
            assert_eq!(rp, ri, "chaos {chaos}: {} rows diverge", rp.kind);
        }
        assert_eq!(pooled, inline);
    }
}

/// A journal prints as the `Vec` of its lines, which the campaign's digests
/// hash: `{:?}` through its copying path (every campaign line is plain
/// ASCII) and `{:#?}` through `debug_list`, for every row of the
/// default-scale study and of a 40-day study, both at chaos 2.
#[test]
fn journals_print_as_the_vec_of_their_lines() {
    let forty_days = CampaignParams {
        days: 40,
        ..CampaignParams::default_scale(2)
    };
    for params in [CampaignParams::default_scale(2), forty_days] {
        for row in run_campaign(&params).rows {
            let lines: Vec<&str> = row.journal.lines().collect();
            let at = format!("{} days, {} chaos {}", params.days, row.kind, row.chaos);
            assert_eq!(format!("{:?}", row.journal), format!("{lines:?}"), "{at}");
            assert_eq!(format!("{:#?}", row.journal), format!("{lines:#?}"), "{at}");
        }
    }
}
