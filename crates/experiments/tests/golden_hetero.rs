//! Golden-file regression for the heterogeneous-fleet scenario.
//!
//! Re-runs `repro hetero` at its default scale (6 hosts/job, 60 ticks,
//! budget 72% of summed TDP — exactly what the CLI runs) and diffs every
//! policy row on both fleets against the tracked
//! `tests/golden/hetero.json` at fixed printed precision. Any change to
//! the class descriptors, the domain split, the balancer, the per-class
//! characterization, or the policies shows up here as a row-level diff;
//! intentional changes re-bless with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p pmstack-experiments --test golden_hetero
//! ```

use pmstack_experiments::hetero::{run_hetero, HeteroParams, HeteroReport};
use std::fmt::Write as _;

#[path = "golden/mod.rs"]
mod golden;

/// Render the report as the golden JSON document. Values are stored as
/// strings at fixed precision so the comparison is exact and the
/// tolerated precision is explicit in the file itself. Every number here
/// folds in fleet/job order — nothing is derived from hash-map iteration.
fn render(report: &HeteroReport) -> String {
    let mut out = String::from(
        "{\n  \"params\": {\"hosts_per_job\": 6, \"ticks\": 60, \"budget_frac\": \"0.72\"},\n  \
         \"fleets\": [\n",
    );
    let nf = report.fleets.len();
    for (fi, f) in report.fleets.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"fleet\": \"{}\", \"classes\": \"{}\", \"hosts\": {}, \
             \"budget_w\": \"{:.1}\", \"rows\": [",
            f.fleet,
            f.classes.join("+"),
            f.hosts,
            f.budget.value(),
        );
        let nr = f.rows.len();
        for (ri, r) in f.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "      {{\"policy\": \"{}\", \"mean_elapsed_s\": \"{:.4}\", \
                 \"energy_j\": \"{:.1}\", \"pct_of_budget\": \"{:.2}\", \
                 \"domain_shifts\": {}}}{}",
                r.policy,
                r.mean_elapsed,
                r.energy_j,
                r.pct_of_budget,
                r.domain_shifts,
                if ri + 1 == nr { "" } else { "," },
            );
        }
        let _ = writeln!(out, "    ]}}{}", if fi + 1 == nf { "" } else { "," });
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn hetero_scenario_matches_golden_file() {
    let report = run_hetero(&HeteroParams::default_scale());
    assert_eq!(report.fleets.len(), 2, "homogeneous + 3-class");
    assert_eq!(report.fleets[1].rows.len(), 5, "one row per policy");
    golden::check(&golden::path("hetero.json"), &render(&report));
}
