//! Satellite of the work-stealing substrate: the parallel grid must be
//! bit-identical to a forced single-thread run, cell for cell. Every jitter
//! stream is derived from explicit (mix, level, policy, job) seeds, so the
//! fanout order — and the number of workers — must not matter.

use pmstack_experiments::grid::{run_mix, EvaluationGrid, GridParams};
use pmstack_experiments::mixes::MixKind;
use pmstack_experiments::Testbed;

fn assert_cells_identical(
    a: &pmstack_experiments::grid::GridCell,
    b: &pmstack_experiments::grid::GridCell,
) {
    assert_eq!(a.mix, b.mix);
    assert_eq!(a.level, b.level);
    assert_eq!(a.policy, b.policy);
    assert_eq!(
        a.total_power.value().to_bits(),
        b.total_power.value().to_bits(),
        "{} {} {}: total_power differs",
        a.mix,
        a.level,
        a.policy
    );
    assert_eq!(
        a.mean_elapsed.value().to_bits(),
        b.mean_elapsed.value().to_bits(),
        "{} {} {}: mean_elapsed differs",
        a.mix,
        a.level,
        a.policy
    );
    assert_eq!(
        a.energy.value().to_bits(),
        b.energy.value().to_bits(),
        "{} {} {}: energy differs",
        a.mix,
        a.level,
        a.policy
    );
    assert_eq!(
        a.edp.to_bits(),
        b.edp.to_bits(),
        "{} {} {}: edp differs",
        a.mix,
        a.level,
        a.policy
    );
}

/// The full 90-cell grid evaluated on the pool equals the same grid
/// evaluated inline on one thread, bit for bit.
#[test]
fn parallel_grid_matches_sequential_cell_for_cell() {
    let testbed = Testbed::new(400, 7);
    let params = GridParams::fast();

    let parallel = EvaluationGrid::run(&testbed, params);
    let sequential = pmstack_exec::sequential_scope(|| EvaluationGrid::run(&testbed, params));

    assert_eq!(parallel.cells.len(), sequential.cells.len());
    for (a, b) in parallel.cells.iter().zip(&sequential.cells) {
        assert_cells_identical(a, b);
    }
}

/// `run_mix` emits exactly the cells of the corresponding grid slice, in
/// the same order and with the same numbers.
#[test]
fn run_mix_is_a_slice_of_the_grid() {
    let testbed = Testbed::new(400, 7);
    let params = GridParams::fast();

    let grid = EvaluationGrid::run(&testbed, params);
    for kind in [MixKind::NeedUsedPower, MixKind::RandomLarge] {
        let standalone = run_mix(&testbed, kind, params);
        let slice: Vec<_> = grid.cells.iter().filter(|c| c.mix == kind).collect();
        assert_eq!(standalone.len(), slice.len());
        for (a, b) in standalone.iter().zip(slice) {
            assert_cells_identical(a, b);
        }
    }
}

/// The keyed lookup agrees with a linear scan for every cell.
#[test]
fn keyed_cell_lookup_matches_linear_scan() {
    let testbed = Testbed::new(400, 7);
    let grid = EvaluationGrid::run(&testbed, GridParams::fast());
    for c in &grid.cells {
        let found = grid.cell(c.mix, c.level, c.policy);
        assert_eq!(
            found.total_power.value().to_bits(),
            c.total_power.value().to_bits()
        );
        assert_eq!(
            found.mean_elapsed.value().to_bits(),
            c.mean_elapsed.value().to_bits()
        );
    }
}

/// Full-stack fast-forward determinism: a coordinator run with the
/// steady-state caches enabled is bit-identical to the same run forced
/// through the full resolve-and-step pipeline every iteration — clean,
/// jittered, and under a fault plan.
#[test]
fn coordinator_fast_forward_matches_full_pipeline() {
    use pmstack_core::policies::by_kind;
    use pmstack_core::{Coordinator, CoordinatorMode, MixRun, PolicyKind};
    use pmstack_experiments::mixes::build_scaled;
    use pmstack_simhw::{quartz_spec, Cluster, FaultPlan, VariationProfile, Watts};

    let workload = build_scaled(MixKind::NeedUsedPower, 3);
    let total = workload.total_nodes();
    let cluster = Cluster::builder(quartz_spec())
        .nodes(total)
        .variation(VariationProfile::quartz())
        .seed(11)
        .build()
        .unwrap();
    let budget = Watts(185.0 * total as f64);
    let policy = by_kind(PolicyKind::JobAdaptive);

    let assert_runs_identical = |a: &MixRun, b: &MixRun| {
        assert_eq!(a.reports.len(), b.reports.len());
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.elapsed.value().to_bits(), rb.elapsed.value().to_bits());
            assert_eq!(ra.energy.value().to_bits(), rb.energy.value().to_bits());
            assert_eq!(ra.iteration_times.len(), rb.iteration_times.len());
            for (ta, tb) in ra.iteration_times.iter().zip(&rb.iteration_times) {
                assert_eq!(ta.value().to_bits(), tb.value().to_bits());
            }
            for (ha, hb) in ra.hosts.iter().zip(&rb.hosts) {
                assert_eq!(ha.energy.value().to_bits(), hb.energy.value().to_bits());
                assert_eq!(
                    ha.final_limit.value().to_bits(),
                    hb.final_limit.value().to_bits()
                );
                assert_eq!(
                    ha.mean_epoch.value().to_bits(),
                    hb.mean_epoch.value().to_bits()
                );
            }
        }
    };

    let run = |coord: Coordinator| -> MixRun {
        coord
            .try_run_mix(
                &workload.jobs,
                policy.as_ref(),
                budget,
                120,
                CoordinatorMode::Emulated,
            )
            .expect("the mix fits its cluster")
    };

    // Clean: the fast-forward replay engages once enforcement settles.
    let with_ff = run(Coordinator::new(&cluster));
    let without_ff = run(Coordinator::new(&cluster).with_fast_forward(false));
    assert_runs_identical(&with_ff, &without_ff);

    // Jittered: only the settled operating-point cache can engage.
    let with_ff = run(Coordinator::new(&cluster).with_jitter(0.01, 23));
    let without_ff = run(Coordinator::new(&cluster)
        .with_jitter(0.01, 23)
        .with_fast_forward(false));
    assert_runs_identical(&with_ff, &without_ff);

    // Faulted: every cache must disarm exactly at the event boundaries.
    let plan = FaultPlan::randomized(5, total, 120, 4);
    let with_ff = run(Coordinator::new(&cluster).with_fault_plan(plan.clone()));
    let without_ff = run(Coordinator::new(&cluster)
        .with_fault_plan(plan)
        .with_fast_forward(false));
    assert_runs_identical(&with_ff, &without_ff);
}
