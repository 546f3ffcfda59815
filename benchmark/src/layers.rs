//! The traced run: every per-layer metric, measured from outside by spans
//! around each crate's public functions.
//!
//! One section per workload, each re-driving that workload's path stage by
//! stage and writing its spans to `benchmark/out/trace-<workload>.json`.
//! The contract has every traced run report every per-layer metric, so a
//! traced run executes all five sections whichever workload it is named
//! for; the name selects whose tracing overhead is reported. The sweep
//! section runs first, so its first sweep is the process's cold one, and
//! the serve sections last, because `Daemon::spawn` switches the recorder
//! on for good. The registry and journal are zeroed between sections, so a
//! section's scrapes and counter deltas see what a fresh process would.

use crate::batch::{campaign_params, sweep_params, SWEEP_MIX};
use crate::fleet;
use crate::outcome::Outcome;
use crate::rng::Rng;
use crate::serve;
use crate::spec::PER_LAYER;
use crate::stats;
use crate::trace::Tracer;
use pmstack_core::policies::by_kind;
use pmstack_core::{Coordinator, CoordinatorMode, JobChar, PolicyCtx, PolicyKind};
use pmstack_exec::ServicePool;
use pmstack_experiments::grid::GridParams;
use pmstack_experiments::hetero::HeteroParams;
use pmstack_experiments::{campaign, figures, hetero, mixes, replicates, EvaluationGrid, Testbed};
use pmstack_kernel::{KernelConfig, KernelLoad};
use pmstack_rm::{
    BackfillScheduler, FifoScheduler, JobId, JobSpec, LeaseTable, NodePool, PowerLedger,
};
use pmstack_runtime::{Agent, IterationBuffers, JobPlatform, PowerBalancerAgent};
use pmstack_simhw::{
    quartz_spec, Cluster, HostStep, NodeBank, NodeId, OperatingPoint, PowerModel, Seconds,
    VariationProfile, Watts,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

type Section = fn(u64, &mut Tracer, &mut Outcome);

const SECTIONS: &[(&str, Section)] = &[
    ("sweep_fullstack", sweep_section),
    ("facility_campaign", campaign_section),
    ("fleet_step", fleet_section),
    ("serve_submit", serve::submit_section),
    ("serve_mixed", serve::mixed_section),
];

pub fn traced(workload: &str, seed: u64) -> Outcome {
    let mut out = Outcome::new(PER_LAYER);
    let span_cost_ns = span_cost_ns();
    for (name, section) in SECTIONS {
        // Each section reads only what it put into the registry itself.
        pmstack_obs::reset();
        let mut tr = Tracer::new();
        let start = Instant::now();
        section(seed, &mut tr, &mut out);
        let wall_ns = start.elapsed().as_nanos() as f64;
        if *name == workload {
            // What recording this section's spans cost, as a share of the
            // section: spans recorded x the tracer's measured cost per span.
            out.put(
                "bench.trace_overhead_share",
                tr.len() as f64 * span_cost_ns / wall_ns,
            );
        }
        out.notes.push(format!(
            "{name}: {} spans in {:.2} s",
            tr.len(),
            wall_ns / 1e9
        ));
        let path = format!("benchmark/out/trace-{name}.json");
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, tr.to_json(name)));
        out.check(written.is_ok(), || format!("{path}: {written:?}"));
    }
    out
}

/// Nanoseconds one empty span costs in this process.
fn span_cost_ns() -> f64 {
    const SPANS: u64 = 100_000;
    let mut tr = Tracer::new();
    let start = Instant::now();
    for i in 0..SPANS {
        tr.span("empty", i, |_| black_box(i));
    }
    start.elapsed().as_nanos() as f64 / SPANS as f64
}

fn scaled(tr: &Tracer, span: &str, divide_by: f64) -> Vec<f64> {
    tr.durations_ns(span)
        .into_iter()
        .map(|ns| ns / divide_by)
        .collect()
}

fn put(out: &mut Outcome, tr: &Tracer, metric: &'static str, span: &str, divide_by: f64) {
    out.put_central(metric, &mut scaled(tr, span, divide_by));
}

fn median_of(tr: &Tracer, span: &str) -> f64 {
    stats::median(&mut tr.durations_ns(span))
}

// --------------------------------------------------------------------
// sweep_fullstack: experiments -> core -> runtime, fanned out by exec.
// --------------------------------------------------------------------

fn sweep_section(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    pmstack_obs::disable();
    tr.span("experiments.sweep.cold", 0, |_| {
        black_box(replicates::run_sweep(SWEEP_MIX, sweep_params(seed, 100)))
    });
    put(
        out,
        tr,
        "experiments.sweep.cold_wall_s",
        "experiments.sweep.cold",
        1e9,
    );

    // Recorder off against on, interleaved, on a fifth-size sweep (same
    // runs, 20 jitter replicates) so four pairs fit in a few seconds.
    for pair in 0..4u64 {
        tr.span("experiments.sweep20.recorder_off", pair, |_| {
            black_box(replicates::run_sweep(SWEEP_MIX, sweep_params(seed, 20)))
        });
        pmstack_obs::enable();
        tr.span("experiments.sweep20.recorder_on", pair, |_| {
            black_box(replicates::run_sweep(SWEEP_MIX, sweep_params(seed, 20)))
        });
        pmstack_obs::disable();
    }
    out.put(
        "obs.recorder_on.slowdown_share",
        median_of(tr, "experiments.sweep20.recorder_on")
            / median_of(tr, "experiments.sweep20.recorder_off")
            - 1.0,
    );

    // One-shots, report only: first call of each in this process.
    tr.span("experiments.grid.cold", 0, |_| {
        black_box(EvaluationGrid::run(
            &Testbed::paper_scale(),
            GridParams::default(),
        ))
    });
    put(
        out,
        tr,
        "experiments.grid.cold_ms",
        "experiments.grid.cold",
        1e6,
    );
    tr.span("experiments.hetero.cold", 0, |_| {
        black_box(hetero::run_hetero(&HeteroParams::default_scale()))
    });
    put(
        out,
        tr,
        "experiments.hetero.cold_ms",
        "experiments.hetero.cold",
        1e6,
    );

    exec_probes(tr, out);
    kernel_probes(seed, tr, out);
    core_and_runtime_probes(seed, tr, out);
}

fn exec_probes(tr: &mut Tracer, out: &mut Outcome) {
    const TASKS: usize = 10_000;
    let items: Vec<u32> = (0..TASKS as u32).collect();
    for rep in 0..40 {
        tr.span("exec.par_map", rep, |_| {
            black_box(pmstack_exec::par_map(&items, |x| black_box(*x)))
        });
    }
    put(
        out,
        tr,
        "exec.par_map.ns_per_task",
        "exec.par_map",
        TASKS as f64,
    );

    const CHUNKS: usize = 98; // a 100 000-host bank's segment count
    let mut column = vec![0u8; CHUNKS * 1024];
    for rep in 0..400 {
        tr.span("exec.par_chunks_mut", rep, |_| {
            pmstack_exec::par_chunks_mut(&mut column, 1024, |_, chunk| {
                black_box(chunk);
            })
        });
    }
    put(
        out,
        tr,
        "exec.par_chunks_mut.ns_per_chunk",
        "exec.par_chunks_mut",
        CHUNKS as f64,
    );

    // A connection handed to a parked worker: `try_execute` until the
    // closure starts. Only reconnects pay it; keep-alive requests do not.
    let pool = ServicePool::new(2, 16);
    let (tx, rx) = std::sync::mpsc::channel::<Instant>();
    let mut handoff_us = Vec::with_capacity(300);
    for _ in 0..300 {
        std::thread::sleep(std::time::Duration::from_micros(200));
        let tx = tx.clone();
        let sent = Instant::now();
        let queued = pool.try_execute(Box::new(move || {
            let _ = tx.send(Instant::now());
        }));
        if queued.is_ok() {
            let started = rx.recv().expect("worker ran the job");
            handoff_us.push((started - sent).as_secs_f64() * 1e6);
        }
    }
    pool.shutdown();
    out.put_central("exec.service_pool.handoff_us", &mut handoff_us);
}

fn kernel_probes(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let spec = quartz_spec();
    // A configuration the process has not bound yet misses the memo.
    let fresh =
        |i: u64| KernelConfig::balanced_ymm(3.0 + (seed % 997) as f64 * 1e-3 + i as f64 * 1e-6);
    for i in 0..200 {
        tr.span("kernel.load.shared_miss", i, |_| {
            black_box(KernelLoad::shared(fresh(i), &spec))
        });
    }
    put(
        out,
        tr,
        "kernel.load.shared_miss_us",
        "kernel.load.shared_miss",
        1e3,
    );
    for batch in 0..200 {
        tr.span("kernel.load.shared_hit_x100", batch, |_| {
            for _ in 0..100 {
                black_box(KernelLoad::shared(fresh(0), &spec));
            }
        });
    }
    put(
        out,
        tr,
        "kernel.load.shared_hit_ns",
        "kernel.load.shared_hit_x100",
        100.0,
    );
}

fn core_and_runtime_probes(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let workload = mixes::build_scaled(SWEEP_MIX, 100);
    let total = workload.total_nodes();
    let cluster = Cluster::builder(quartz_spec())
        .nodes(total)
        .variation(VariationProfile::quartz())
        .seed(seed)
        .build()
        .expect("sweep cluster builds");
    let model: PowerModel = cluster.model().clone();
    let eps = cluster.efficiency_factors();
    let budget = Watts(185.0 * total as f64);

    // Characterization of a 64-host job: a vector the memo has not seen,
    // then the same vector again.
    let config = KernelConfig::balanced_ymm(8.0);
    let vector = |i: u64| -> Vec<f64> {
        let mut v: Vec<f64> = (0..64).map(pmstackd::fleet::eps_of).collect();
        v[0] += (1 + seed % 997) as f64 * 1e-6 + i as f64 * 1e-9;
        v
    };
    for i in 0..200 {
        let v = vector(i);
        tr.span("core.char.analytic_miss", i, |_| {
            black_box(JobChar::analytic(config, &model, &v))
        });
    }
    put(
        out,
        tr,
        "core.char.analytic_miss_us",
        "core.char.analytic_miss",
        1e3,
    );
    let v = vector(0);
    for batch in 0..200 {
        tr.span("core.char.analytic_hit_x100", batch, |_| {
            for _ in 0..100 {
                black_box(JobChar::analytic(config, &model, &v));
            }
        });
    }
    put(
        out,
        tr,
        "core.char.analytic_hit_ns",
        "core.char.analytic_hit_x100",
        100.0,
    );

    // The mix's nine 100-host jobs through the most elaborate policy.
    let mut next = 0;
    let chars: Vec<JobChar> = workload
        .jobs
        .iter()
        .map(|(_, config, nodes)| {
            let hosts = &eps[next..next + nodes];
            next += nodes;
            JobChar::analytic(*config, &model, hosts)
        })
        .collect();
    let ctx = PolicyCtx {
        system_budget: budget,
        min_node: model.spec().min_rapl_per_node(),
        tdp_node: model.spec().tdp_per_node(),
    };
    let mixed = by_kind(PolicyKind::MixedAdaptive);
    for i in 0..300 {
        tr.span("core.policy.mixed_allocate", i, |_| {
            black_box(mixed.allocate(&ctx, &chars))
        });
    }
    put(
        out,
        tr,
        "core.policy.mixed_allocate_us",
        "core.policy.mixed_allocate",
        1e3,
    );

    // One full-stack run each way: clean fast-forwards once settled,
    // jittered steps every iteration.
    for i in 0..3u64 {
        for (span, jitter) in [
            ("core.coordinator.run_mix.clean", None),
            (
                "core.coordinator.run_mix.jitter",
                Some(seed.wrapping_add(1 + i)),
            ),
        ] {
            let mut coord = Coordinator::new(&cluster);
            if let Some(jitter_seed) = jitter {
                coord = coord.with_jitter(0.01, jitter_seed);
            }
            let run = tr.span(span, i, |_| {
                coord.try_run_mix(
                    &workload.jobs,
                    mixed.as_ref(),
                    budget,
                    100,
                    CoordinatorMode::Emulated,
                )
            });
            out.check(run.is_ok(), || format!("{span}: {:?}", run.err()));
        }
    }
    put(
        out,
        tr,
        "core.coordinator.run_mix.clean_ms",
        "core.coordinator.run_mix.clean",
        1e6,
    );
    put(
        out,
        tr,
        "core.coordinator.run_mix.jitter_ms",
        "core.coordinator.run_mix.jitter",
        1e6,
    );

    // One job's platform at sweep scale: 100 hosts, jitter on, the flat
    // balancer adjusting after every iteration.
    const JOB_HOSTS: usize = 100;
    let nodes = cluster.nodes()[..JOB_HOSTS].to_vec();
    let mut platform = JobPlatform::new(model, nodes, config).with_jitter(0.01, seed);
    platform.set_fast_forward(true);
    let mut agent = PowerBalancerAgent::new(Watts(185.0 * JOB_HOSTS as f64));
    agent.init(&mut platform);
    let mut bufs = IterationBuffers::new();
    for i in 0..3000 {
        tr.span("runtime.platform.small_step", i, |_| {
            platform.run_iteration_into(&mut bufs)
        });
        tr.span("runtime.balancer.adjust", i, |_| {
            agent.adjust(&mut platform, bufs.outcome())
        });
    }
    put(
        out,
        tr,
        "runtime.platform.small_step.ns_per_host",
        "runtime.platform.small_step",
        JOB_HOSTS as f64,
    );
    put(
        out,
        tr,
        "runtime.balancer.adjust.ns_per_host",
        "runtime.balancer.adjust",
        JOB_HOSTS as f64,
    );
}

// --------------------------------------------------------------------
// facility_campaign: the rm plane, simhw and runtime absent.
// --------------------------------------------------------------------

fn campaign_section(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    // The failure path's share: the chaotic cells cost W2 - W0 of W2; half
    // if failures were free.
    tr.span("experiments.campaign.chaos0", 0, |_| {
        black_box(campaign::run_campaign(&campaign_params(seed, 0)))
    });
    tr.span("experiments.campaign.chaos2", 0, |_| {
        black_box(campaign::run_campaign(&campaign_params(seed, 2)))
    });
    let (w0, w2) = (
        median_of(tr, "experiments.campaign.chaos0"),
        median_of(tr, "experiments.campaign.chaos2"),
    );
    out.put("experiments.campaign.chaos_share", (w2 - w0) / w2);

    tr.span("experiments.fig1.cold", 0, |_| {
        black_box(figures::fig1(seed))
    });
    put(
        out,
        tr,
        "experiments.fig1.cold_ms",
        "experiments.fig1.cold",
        1e6,
    );

    // Pool and ledger as the daemon's admission uses them: about a
    // thousand leases outstanding, the oldest released as a new one lands.
    let mut rng = Rng::new(seed);
    let mut pool = NodePool::new(serve::HOSTS);
    let mut held: VecDeque<Vec<NodeId>> = VecDeque::new();
    for i in 0..6000u64 {
        let n = rng.log_uniform(crate::load::MAX_NODES);
        let oldest = if held.len() >= 1000 {
            held.pop_front()
        } else {
            None
        };
        let got = tr.span("rm.pool.allocate_release", i, |_| {
            if let Some(nodes) = oldest {
                pool.release(nodes);
            }
            pool.allocate(n)
        });
        held.push_back(got.expect("the pool has room"));
    }
    put(
        out,
        tr,
        "rm.pool.allocate_release.ns",
        "rm.pool.allocate_release",
        1.0,
    );

    let mut ledger = PowerLedger::new(Watts(150.0 * serve::HOSTS as f64));
    for i in 0..6000u64 {
        let n = rng.log_uniform(crate::load::MAX_NODES) as f64;
        let granted = tr.span("rm.ledger.reserve_release", i, |_| {
            if i >= 1000 {
                ledger.release(JobId(i - 1000));
            }
            ledger.reserve_upto(JobId(i), Watts(200.0 * n), Watts(136.0 * n))
        });
        out.check(granted.is_ok(), || {
            format!("ledger refused job {i}: {granted:?}")
        });
    }
    put(
        out,
        tr,
        "rm.ledger.reserve_release.ns",
        "rm.ledger.reserve_release",
        1.0,
    );

    // One scheduling pass over 200 queued jobs on 512 nodes, FIFO and
    // backfill on the same queue.
    let tdp = quartz_spec().tdp_per_node();
    let queue: Vec<usize> = (0..200).map(|_| rng.log_uniform(64)).collect();
    for i in 0..100u64 {
        let fresh = || (NodePool::new(512), PowerLedger::new(tdp * 512.0));
        let (p, l) = fresh();
        let mut backfill = BackfillScheduler::new(p, l, tdp);
        let (p, l) = fresh();
        let mut fifo = FifoScheduler::new(p, l, tdp);
        for (j, nodes) in queue.iter().enumerate() {
            backfill.submit(JobSpec::new(format!("j{j}"), *nodes));
            fifo.submit(JobSpec::new(format!("j{j}"), *nodes));
        }
        tr.span("rm.scheduler.backfill_tick", i, |_| {
            black_box(backfill.tick())
        });
        tr.span("rm.scheduler.fifo_tick", i, |_| black_box(fifo.tick()));
    }
    put(
        out,
        tr,
        "rm.scheduler.backfill_tick.us",
        "rm.scheduler.backfill_tick",
        1e3,
    );
    put(
        out,
        tr,
        "rm.scheduler.fifo_tick.us",
        "rm.scheduler.fifo_tick",
        1e3,
    );

    // A telemetry round over 512 leased nodes: every node beats but one,
    // then the table is swept. Per node.
    const LEASED: usize = 512;
    let mut leases = LeaseTable::new(15);
    (0..LEASED).for_each(|n| leases.track(NodeId(n), 0));
    for round in 1..=400u64 {
        let now = round * 5;
        let silent = NodeId(round as usize % LEASED);
        let expired = tr.span("rm.lease.heartbeat_expire", round, |_| {
            for n in (0..LEASED).map(NodeId).filter(|n| *n != silent) {
                leases.beat(n, now);
            }
            leases.expire(now)
        });
        expired.into_iter().for_each(|n| leases.track(n, now));
    }
    put(
        out,
        tr,
        "rm.lease.heartbeat_expire.ns",
        "rm.lease.heartbeat_expire",
        LEASED as f64,
    );
}

// --------------------------------------------------------------------
// fleet_step: runtime's platform over simhw's bank at 100 000 hosts.
// --------------------------------------------------------------------

fn fleet_section(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    const HOSTS: f64 = fleet::HOSTS as f64;
    pmstack_obs::enable();
    let c = fleet::cycle(seed, tr, true);
    let first = c.digest.clone();
    fleet::check_cycle(out, seed, &c, &first);
    for i in 0..50 {
        tr.span("runtime.fleet_snapshot", i, |_| {
            black_box(c.platform.fleet_snapshot(c.bufs.outcome()))
        });
    }
    drop(c);
    put(
        out,
        tr,
        "simhw.node.new.us_per_host",
        "simhw.node.new",
        HOSTS * 1e3,
    );
    put(
        out,
        tr,
        "runtime.platform.new.ms",
        "runtime.platform.new",
        1e6,
    );
    put(
        out,
        tr,
        "runtime.platform.control_write.ns_per_host",
        "runtime.platform.control_write",
        HOSTS,
    );
    put(
        out,
        tr,
        "runtime.platform.full_step.ns_per_host",
        "runtime.platform.full_step",
        HOSTS,
    );
    put(
        out,
        tr,
        "runtime.hier_balancer.adjust.ns_per_host",
        "runtime.hier_balancer.adjust",
        HOSTS,
    );
    put(
        out,
        tr,
        "runtime.platform.steady_step.ns_per_host",
        "fleet.steady",
        HOSTS,
    );
    put(
        out,
        tr,
        "runtime.fleet_snapshot.us",
        "runtime.fleet_snapshot",
        1e3,
    );
    put(out, tr, "fleet_cold_ns_per_host", "fleet.cold", HOSTS);
    put(out, tr, "fleet_balance_ns_per_host", "fleet.balance", HOSTS);
    put(out, tr, "fleet_steady_ns_per_host", "fleet.steady", HOSTS);
    put(out, tr, "fleet_churn_ns_per_host", "fleet.churn", HOSTS);
    // The write and the step must account for the cold iteration: what is
    // left as the iteration's self time stays within a tenth of it.
    let unattributed = stats::median(&mut tr.self_ns("fleet.cold")) / median_of(tr, "fleet.cold");
    out.check(unattributed <= 0.1, || {
        format!(
            "fleet.cold: {unattributed:.3} of the iteration is in neither the write nor the step"
        )
    });

    // The bank alone, as the platform drives it.
    let model = PowerModel::new(quartz_spec()).expect("quartz spec is valid");
    let load = KernelLoad::shared(KernelConfig::balanced_ymm(16.0), model.spec());
    let mut bank = NodeBank::from_nodes(fleet::build_nodes(&model, seed));
    let hosts = bank.len();
    let segments = bank.num_segments();
    let dt = Seconds(0.05);
    let mut ops: Vec<Option<OperatingPoint>> = vec![None; hosts];
    let mut steps = vec![HostStep::Skipped; hosts];
    for round in 0..4u64 {
        let limit = Watts(200.0 + (round % 2) as f64);
        tr.span("simhw.bank.set_power_limit", round, |_| {
            for h in 0..hosts {
                bank.set_power_limit(h, limit).expect("limit is settable");
            }
        });
        tr.span("simhw.bank.operating_point", round, |_| {
            for (h, op) in ops.iter_mut().enumerate() {
                *op = Some(bank.operating_point(h, &model, load.as_ref()));
            }
        });
        // Every segment was just invalidated by the writes.
        tr.span("simhw.bank.step_all", round, |_| {
            black_box(bank.step_all(dt, &ops, &mut steps, true))
        });
    }
    put(
        out,
        tr,
        "simhw.bank.set_power_limit.ns_per_host",
        "simhw.bank.set_power_limit",
        HOSTS,
    );
    put(
        out,
        tr,
        "simhw.bank.operating_point.ns",
        "simhw.bank.operating_point",
        HOSTS,
    );
    put(
        out,
        tr,
        "simhw.bank.step_all.ns_per_host",
        "simhw.bank.step_all",
        HOSTS,
    );

    let mut settled = false;
    for _ in 0..2000 {
        if bank
            .step_all_partial(dt, &ops, &mut steps, true)
            .segments_replayed
            == segments
        {
            settled = true;
            break;
        }
    }
    out.check(settled, || "simhw.bank: segments never all settled".into());
    for i in 0..300 {
        tr.span("simhw.bank.replay", i, |_| {
            black_box(bank.step_all_partial(dt, &ops, &mut steps, true))
        });
    }
    put(
        out,
        tr,
        "simhw.bank.replay.ns_per_host",
        "simhw.bank.replay",
        HOSTS,
    );

    // One host written per iteration: the other S-1 segments must replay,
    // counted by the bank's own shard counter.
    const CHURN: u64 = 200;
    let before = fleet::shard_replays();
    for i in 0..CHURN {
        bank.set_power_limit(0, Watts(180.0 + (i % 2) as f64))
            .expect("limit is settable");
        for h in bank.segment_range(0) {
            ops[h] = Some(bank.operating_point(h, &model, load.as_ref()));
        }
        bank.step_all_partial(dt, &ops, &mut steps, true);
    }
    let share = (fleet::shard_replays() - before) as f64 / (CHURN * segments as u64) as f64;
    out.check(share == (segments - 1) as f64 / segments as f64, || {
        format!("simhw.bank: churn replay share {share} is not ({segments}-1)/{segments}")
    });
    out.put("simhw.bank.churn.replay_share", share);
}
