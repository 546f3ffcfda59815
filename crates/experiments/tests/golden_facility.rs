//! Golden-file regression for the facility campaign.
//!
//! Re-runs `repro facility` at its default scale (512 nodes, 4 days, seed
//! 42, chaos 2 — exactly what the CLI runs) and diffs the rendered table
//! plus, per row, the journal's line count and an FNV-1a hash of its text
//! against the tracked `tests/golden/facility.txt`. The table pins every
//! count and summary; the journal hash pins every event, its minute and
//! its order, so a change to event ordering, lease detection, accrual or
//! budget degradation shows up here even when the totals happen to agree.
//! Intentional changes re-bless with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p pmstack-experiments --test golden_facility
//! ```

use pmstack_experiments::campaign::{render, run_campaign, CampaignParams};
use std::fmt::Write as _;

#[path = "golden/mod.rs"]
mod golden;

/// FNV-1a (64-bit) over the journal, each line followed by a newline.
fn fnv1a<'a>(lines: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.flat_map(|l| l.bytes().chain([b'\n'])) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn facility_campaign_matches_golden_file() {
    let study = run_campaign(&CampaignParams::default_scale(2));
    assert_eq!(study.rows.len(), 10, "5 policies x {{clean, chaos 2}}");
    let mut out = render(&study);
    out.push('\n');
    for r in &study.rows {
        let _ = writeln!(
            out,
            "journal {} chaos={} lines={} fnv1a={:016x}",
            r.kind,
            r.chaos,
            r.journal.len(),
            fnv1a(r.journal.lines()),
        );
    }
    golden::check(&golden::path("facility.txt"), &out);
}
