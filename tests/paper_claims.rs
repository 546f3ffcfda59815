//! Integration tests of the paper's headline claims, end to end: every
//! marker and takeaway from the evaluation section (the list in
//! `claims/mod.rs`) must hold on the reproduced stack (at reduced scale for
//! CI speed; `repro all` runs the full scale).

mod claims;

use powerstack::experiments::grid::{EvaluationGrid, GridParams};
use powerstack::experiments::Testbed;

fn grid() -> EvaluationGrid {
    let tb = Testbed::new(500, 42);
    let params = GridParams {
        nodes_per_job: 12,
        iterations: 60,
        jitter_sigma: 0.01,
    };
    EvaluationGrid::run(&tb, params)
}

#[test]
fn headline_claims_hold() {
    let claims = claims::claims(&grid());
    assert_eq!(claims.len(), 12);
    let failed: Vec<String> = (claims.iter())
        .filter(|c| !c.holds)
        .map(|c| format!("{} ({})", c.name, c.numbers))
        .collect();
    assert!(failed.is_empty(), "claims that fail: {failed:#?}");
}
