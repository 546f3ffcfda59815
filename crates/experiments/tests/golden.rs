//! Golden-file regression for the full-scale evaluation grid.
//!
//! Re-runs the paper-scale grid (2000-node screen, seed 6, 100 nodes/job,
//! 100 iterations — exactly what `repro grid` runs) and diffs per-cell
//! time, energy, and EDP against the tracked `tests/golden/grid.json` at the
//! same precision the CSV export prints. Any change to the physics, the
//! policies, the placement, or the seeding shows up here as a cell-level
//! diff; intentional changes re-bless with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p pmstack-experiments --test golden
//! ```
//!
//! The same grid must also export, byte for byte, the tracked
//! `results/grid.csv` that EXPERIMENTS.md quotes, so the published table
//! and the pin cannot drift apart (a bless rewrites it too; `repro all
//! --out results/` regenerates it together with the figures built on it).

use pmstack_experiments::export::grid_to_csv;
use pmstack_experiments::grid::{EvaluationGrid, GridParams};
use pmstack_experiments::Testbed;
use std::fmt::Write as _;

#[path = "golden/mod.rs"]
mod golden;

const RESULTS_CSV: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/grid.csv");

/// Render the grid cells as the golden JSON document. Values are stored
/// as strings at the CSV export's printed precision so the comparison is
/// exact and the tolerated precision is explicit in the file itself.
fn render(grid: &EvaluationGrid) -> String {
    let mut out = String::from(
        "{\n  \"testbed\": {\"screen_nodes\": 2000, \"seed\": 6},\n  \
         \"params\": {\"nodes_per_job\": 100, \"iterations\": 100},\n  \"cells\": [\n",
    );
    let n = grid.cells.len();
    for (i, c) in grid.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"mix\": \"{}\", \"budget\": \"{}\", \"policy\": \"{}\", \
             \"mean_elapsed_s\": \"{:.4}\", \"energy_j\": \"{:.1}\", \"edp\": \"{:.4e}\"}}{}",
            c.mix,
            c.level,
            c.policy,
            c.mean_elapsed.value(),
            c.energy.value(),
            c.edp,
            if i + 1 == n { "" } else { "," },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn full_scale_grid_matches_golden_file() {
    let tb = Testbed::new(2000, 6);
    let grid = EvaluationGrid::run(&tb, GridParams::default());
    assert_eq!(grid.cells.len(), 90, "6 mixes x 3 budgets x 5 policies");
    golden::check(&golden::path("grid.json"), &render(&grid));
    golden::check(RESULTS_CSV, &grid_to_csv(&grid));
}
