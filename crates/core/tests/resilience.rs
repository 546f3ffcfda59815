//! End-to-end resilience acceptance tests: a deterministic fault plan fired
//! mid-run against the full stack must degrade the mix, never crash it —
//! the ledger stays within the system budget, dead nodes are drained, and
//! (online mode) the surviving hosts are re-characterized and re-allocated.

use pmstack_core::policies::by_kind;
use pmstack_core::{
    Allocation, CharacterizationSource, Coordinator, CoordinatorError, CoordinatorMode, JobChar,
    MixRun, MixedAdaptive, PolicyKind, PowerPolicy, StaticCaps,
};
use pmstack_kernel::{Imbalance, KernelConfig, VectorWidth, WaitingFraction};
use pmstack_simhw::{faults, quartz_spec, Cluster, FaultPlan, VariationProfile, Watts};

fn cluster(n: usize) -> Cluster {
    Cluster::builder(quartz_spec())
        .nodes(n)
        .variation(VariationProfile::quartz())
        .seed(42)
        .build()
        .unwrap()
}

fn mix() -> Vec<(String, KernelConfig, usize)> {
    vec![
        (
            "wasteful".into(),
            KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P75, Imbalance::TwoX),
            3,
        ),
        ("hungry".into(), KernelConfig::balanced_ymm(8.0), 3),
    ]
}

#[test]
fn online_mode_reallocates_survivors_after_a_node_death() {
    // Node 3 (held by the second job) dies at iteration 8 of 40 — inside
    // the first online window, so the re-characterization step sees the
    // shrunken job.
    let c = cluster(6);
    let budget = Watts(6.0 * 190.0);
    let plan = FaultPlan::scripted(vec![faults::kill(3, 8)]);
    let coord = Coordinator::new(&c).with_fault_plan(plan);
    let run = coord
        .try_run_mix(&mix(), &MixedAdaptive, budget, 40, CoordinatorMode::Online)
        .expect("a node death must not fail the mix");

    assert_eq!(run.reports.len(), 2, "every job still reports");
    assert!(run.reports.iter().all(|r| r.iterations == 40));
    assert_eq!(run.resilience.dead_nodes, vec![3]);
    assert!(run.resilience.reallocated);
    assert!(
        run.resilience.reclaimed > Watts::ZERO,
        "the dead node's share returned to the system budget"
    );
    assert!(
        run.resilience.reserved_after <= budget + Watts(1e-6),
        "ledger within budget post-failure: {} vs {}",
        run.resilience.reserved_after,
        budget
    );
    // The final allocation zeroes exactly the dead host and spends only
    // the budget on the survivors.
    let zeros = run
        .allocation
        .jobs
        .iter()
        .flatten()
        .filter(|&&c| c == Watts::ZERO)
        .count();
    assert_eq!(zeros, 1, "one dead host, one zero cap");
    assert!(run.allocation.total() <= budget + Watts(1e-6));
    // The mix still made progress on every surviving host.
    assert!(run.total_energy() > 0.0);
    // The dead host's energy froze at its death: it is what eight
    // iterations under the same first allocation left, and its average
    // is that energy over the whole job's elapsed time.
    let dead = &run.reports[1].hosts[0];
    let before_death = coord
        .try_run_mix(&mix(), &MixedAdaptive, budget, 8, CoordinatorMode::Emulated)
        .unwrap();
    assert_eq!(dead.energy, before_death.reports[1].hosts[0].energy);
    assert_eq!(dead.avg_power, dead.energy / run.reports[1].elapsed);
}

#[test]
fn emulated_mode_drains_dead_nodes_into_the_ledger() {
    let c = cluster(6);
    let budget = Watts(6.0 * 190.0);
    let plan = FaultPlan::scripted(vec![faults::kill(0, 5), faults::kill(4, 12)]);
    let coord = Coordinator::new(&c).with_fault_plan(plan);
    let run = coord
        .try_run_mix(
            &mix(),
            &MixedAdaptive,
            budget,
            30,
            CoordinatorMode::Emulated,
        )
        .expect("emulated mode absorbs deaths too");
    let mut dead = run.resilience.dead_nodes.clone();
    dead.sort_unstable();
    assert_eq!(dead, vec![0, 4]);
    assert!(
        !run.resilience.reallocated,
        "emulated mode never re-allocates"
    );
    assert!(run.resilience.reserved_after <= budget + Watts(1e-6));
    assert!(run.resilience.reclaimed > Watts::ZERO);
}

#[test]
fn telemetry_dropout_and_stuck_rapl_degrade_without_any_death() {
    let c = cluster(6);
    let budget = Watts(6.0 * 190.0);
    let plan = FaultPlan::scripted(vec![
        faults::telemetry_dropout(1, 4, 6),
        faults::stuck_rapl(5, 10, Watts(170.0)),
    ]);
    let coord = Coordinator::new(&c).with_fault_plan(plan);
    let run = coord
        .try_run_mix(&mix(), &MixedAdaptive, budget, 30, CoordinatorMode::Online)
        .expect("soft faults must not fail the mix");
    assert!(run.resilience.dead_nodes.is_empty());
    assert!(!run.resilience.injected.is_empty());
    assert!(!run.resilience.clean());
    assert!(run.resilience.reserved_after <= budget + Watts(1e-6));
    assert!(run.reports.iter().all(|r| r.iterations == 30));
}

#[test]
fn every_policy_survives_the_same_fixed_fault_plan() {
    // The EXPERIMENTS.md comparison rests on this: one fixed plan, five
    // policies, zero panics, ledger always within budget.
    let plan = FaultPlan::scripted(vec![
        faults::kill(2, 7),
        faults::telemetry_dropout(4, 3, 5),
        faults::stuck_rapl(0, 10, Watts(180.0)),
    ]);
    let budget = Watts(6.0 * 185.0);
    for kind in PolicyKind::all() {
        let c = cluster(6);
        let coord = Coordinator::new(&c).with_fault_plan(plan.clone());
        let policy = by_kind(kind);
        for mode in [CoordinatorMode::Emulated, CoordinatorMode::Online] {
            let run = coord
                .try_run_mix(&mix(), policy.as_ref(), budget, 30, mode)
                .unwrap_or_else(|e| panic!("{kind} under {mode:?} failed: {e}"));
            assert_eq!(run.resilience.dead_nodes, vec![2], "{kind} {mode:?}");
            assert!(
                run.resilience.reserved_after <= budget + Watts(1e-6),
                "{kind} {mode:?}: {}",
                run.resilience.reserved_after
            );
        }
    }
}

#[test]
fn losing_every_host_is_a_typed_error_not_a_panic() {
    let c = cluster(2);
    let budget = Watts(2.0 * 200.0);
    let plan = FaultPlan::scripted(vec![faults::kill(0, 2), faults::kill(1, 2)]);
    let coord = Coordinator::new(&c).with_fault_plan(plan);
    let single = vec![("doomed".to_string(), KernelConfig::balanced_ymm(8.0), 2)];
    let err = coord
        .try_run_mix(&single, &MixedAdaptive, budget, 20, CoordinatorMode::Online)
        .unwrap_err();
    assert_eq!(err, CoordinatorError::AllHostsFailed);
}

/// FNV-1a (64-bit) over `{:?}` of a run: every report, host, cap and
/// resilience record, each float at its shortest round-trip digits.
fn digest(run: &pmstack_core::MixRun) -> u64 {
    format!("{run:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn both_modes_are_pinned_bit_for_bit() {
    // 31 iterations split unevenly online (15 + 16). One death per window,
    // a dropout in the first and a stuck RAPL latch in the second, so the
    // drain, re-allocation and the per-job plan slicing all show in the
    // hash. Losing the whole first job under jitter pins the seeds: each
    // job's is the seed plus its mix index, one stream for the whole run.
    let c = cluster(6);
    let budget = Watts(6.0 * 190.0);
    let faulted = FaultPlan::scripted(vec![
        faults::kill(3, 8),
        faults::telemetry_dropout(1, 4, 6),
        faults::stuck_rapl(5, 20, Watts(170.0)),
        faults::kill(0, 22),
    ]);
    let first_job_lost = FaultPlan::scripted((0..3).map(|h| faults::kill(h, 5)).collect());
    let coords = [
        ("clean", 0, Coordinator::new(&c)),
        ("faulted", 2, Coordinator::new(&c).with_fault_plan(faulted)),
        ("jittered", 0, Coordinator::new(&c).with_jitter(0.01, 7)),
        (
            "job-lost-jittered",
            3,
            (Coordinator::new(&c).with_fault_plan(first_job_lost)).with_jitter(0.01, 7),
        ),
    ];
    let mut got = Vec::new();
    for mode in [CoordinatorMode::Emulated, CoordinatorMode::Online] {
        for (name, dead, coord) in &coords {
            let run = coord
                .try_run_mix(&mix(), &MixedAdaptive, budget, 31, mode)
                .unwrap();
            assert_eq!(run.resilience.dead_nodes.len(), *dead, "{mode:?} {name}");
            got.push(format!("{mode:?} {name} {:016x}", digest(&run)));
        }
    }
    let want = [
        "Emulated clean bfd1e6366f61ec5e",
        "Emulated faulted 06eb02dd69dbaf41",
        "Emulated jittered 66369745aae1f5e3",
        "Emulated job-lost-jittered 06c5c61c2a746bf1",
        "Online clean 20bae8b901bf22d8",
        "Online faulted 17523b83c16858a7",
        "Online jittered ffa82d19ff12b0c4",
        "Online job-lost-jittered 905f84bfc75c2759",
    ];
    assert_eq!(got, want);
}

/// StaticCaps, except that a re-allocation from measured power drops the
/// last cap of its last job.
struct ShortOnRealloc;

impl PowerPolicy for ShortOnRealloc {
    fn kind(&self) -> PolicyKind {
        PolicyKind::StaticCaps
    }
    fn system_aware(&self) -> bool {
        true
    }
    fn application_aware(&self) -> bool {
        false
    }
    fn allocate(&self, ctx: &pmstack_core::PolicyCtx, jobs: &[JobChar]) -> Allocation {
        let mut alloc = pmstack_core::StaticCaps.allocate(ctx, jobs);
        if jobs[0].source == CharacterizationSource::Measured {
            alloc.jobs.last_mut().unwrap().pop();
        }
        alloc
    }
}

#[test]
fn a_bad_reallocation_names_the_job_by_its_mix_position() {
    // The first job loses all three hosts in phase one, so the second job
    // is the only one re-allocated: the error still calls it job 1.
    let c = cluster(6);
    let plan = FaultPlan::scripted((0..3).map(|h| faults::kill(h, 2)).collect());
    let coord = Coordinator::new(&c).with_fault_plan(plan);
    let budget = Watts(6.0 * 190.0);
    let err = coord
        .try_run_mix(&mix(), &ShortOnRealloc, budget, 20, CoordinatorMode::Online)
        .unwrap_err();
    let want = CoordinatorError::CapShapeMismatch {
        job: 1,
        caps: 2,
        hosts: 3,
    };
    assert_eq!(err, want);
}

/// The two-host probe of a latch that outlives the boundary: StaticCaps at
/// σ = 0 for 40 iterations, host 0's RAPL stuck at 90 W from iteration 2.
fn latch_probe(mode: CoordinatorMode) -> MixRun {
    let c = cluster(2);
    let plan = FaultPlan::scripted(vec![faults::stuck_rapl(0, 2, Watts(90.0))]);
    let coord = Coordinator::new(&c).with_fault_plan(plan);
    let job = vec![("latched".to_string(), KernelConfig::balanced_ymm(8.0), 2)];
    coord
        .try_run_mix(&job, &StaticCaps, Watts(2.0 * 180.0), 40, mode)
        .unwrap()
}

#[test]
fn a_stuck_latch_set_before_the_boundary_holds_after_it() {
    let [emulated, online] =
        [CoordinatorMode::Emulated, CoordinatorMode::Online].map(|m| latch_probe(m).reports);
    let second_half = |run: &[pmstack_runtime::JobReport]| -> f64 {
        run[0].iteration_times[20..].iter().map(|t| t.value()).sum()
    };
    assert_eq!(second_half(&online), second_half(&emulated));
    assert_eq!(online[0].hosts[0].avg_power, emulated[0].hosts[0].avg_power);
}

#[test]
fn static_caps_online_is_emulated_bit_for_bit() {
    // A share under the 136 W floor: StaticCaps clamps every cap to the
    // floor from pre-characterized and from measured power alike, so the
    // boundary re-posts the caps every host already holds. A dropout and a
    // stuck latch span the boundary of the 15 + 16 split.
    let c = cluster(6);
    let budget = Watts(6.0 * 120.0);
    let floor = c.model().spec().min_rapl_per_node();
    let spanning = FaultPlan::scripted(vec![
        faults::stuck_rapl(4, 10, Watts(170.0)),
        faults::telemetry_dropout(1, 12, 6),
    ]);
    let coords = [
        ("clean", Coordinator::new(&c)),
        ("jittered", Coordinator::new(&c).with_jitter(0.01, 7)),
        ("faulted", Coordinator::new(&c).with_fault_plan(spanning)),
    ];
    for (name, coord) in &coords {
        let run = |mode| {
            coord
                .try_run_mix(&mix(), &StaticCaps, budget, 31, mode)
                .unwrap()
        };
        let emulated = run(CoordinatorMode::Emulated);
        let mut online = run(CoordinatorMode::Online);
        assert!(online.resilience.reallocated, "{name}");
        assert!(emulated
            .allocation
            .jobs
            .iter()
            .flatten()
            .all(|&cap| cap == floor));
        assert_eq!(online.allocation.jobs, emulated.allocation.jobs, "{name}");
        online.resilience.reallocated = false;
        assert_eq!(format!("{online:?}"), format!("{emulated:?}"), "{name}");
    }
}
