//! Property-based tests of resource-manager conservation invariants.

use pmstack_rm::{
    Backfill, Discipline, Fifo, JobSpec, LeaseTable, NodePool, PowerLedger, RetryPolicy, Scheduler,
    SchedulerEvent,
};
use pmstack_simhw::{NodeId, Watts};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

/// One operation on a lease table. Pool indices pick from a set of sparse
/// ids; `back` is how many ticks behind the clock the operation's time is,
/// so beats, rounds and expiries arrive out of order.
#[derive(Debug, Clone)]
enum LeaseOp {
    Track {
        node: usize,
        back: u64,
    },
    Beat {
        node: usize,
        back: u64,
    },
    /// `beat_all_except`; entries below 16 name pool ids, the rest ids no
    /// table has ever seen.
    Round {
        silent: Vec<usize>,
        back: u64,
    },
    Forget {
        node: usize,
    },
    Expire {
        back: u64,
    },
    /// The clock jumps with no round in between (past the timeout, often).
    Gap {
        ticks: u64,
    },
}

fn lease_op() -> impl Strategy<Value = LeaseOp> {
    let round = || {
        (prop::collection::vec(0usize..24, 0..6), 0u64..3)
            .prop_map(|(silent, back)| LeaseOp::Round { silent, back })
    };
    prop_oneof![
        (0usize..16, 0u64..4).prop_map(|(node, back)| LeaseOp::Track { node, back }),
        (0usize..16, 0u64..8).prop_map(|(node, back)| LeaseOp::Beat { node, back }),
        round(),
        round(),
        round(),
        (0usize..16).prop_map(|node| LeaseOp::Forget { node }),
        (0u64..4).prop_map(|back| LeaseOp::Expire { back }),
        (0u64..4).prop_map(|back| LeaseOp::Expire { back }),
        (16u64..60).prop_map(|ticks| LeaseOp::Gap { ticks }),
    ]
}

/// No node is held by two jobs, the ledger matches the sum of per-job
/// reservations exactly, and nothing exceeds the budget.
fn assert_conserved<D: Discipline>(s: &Scheduler<D>, budget: Watts) -> Result<(), TestCaseError> {
    let mut held: HashSet<usize> = HashSet::new();
    let mut reserved_sum = 0.0;
    for id in s.running() {
        let job = s.job(id).expect("running job exists");
        for n in &job.nodes {
            prop_assert!(held.insert(n.0), "node {n} held by two jobs");
        }
        reserved_sum += s
            .ledger()
            .reservation(id)
            .expect("running job holds a reservation")
            .value();
    }
    prop_assert!(
        (s.ledger().reserved().value() - reserved_sum).abs() < 1e-6,
        "ledger reserved {} != sum of running reservations {}",
        s.ledger().reserved(),
        reserved_sum
    );
    prop_assert!(s.ledger().reserved() <= budget + Watts(1e-6));
    Ok(())
}

/// Body of `scheduler_conserves_resources` under one discipline.
fn conserves<D: Discipline>(
    sizes: &[usize],
    pool_size: usize,
    budget_per_node: f64,
) -> Result<(), TestCaseError> {
    let budget = Watts(budget_per_node * pool_size as f64);
    let mut s = Scheduler::<D>::new(
        NodePool::new(pool_size),
        PowerLedger::new(budget),
        Watts(budget_per_node),
    );
    let ids: Vec<_> = sizes
        .iter()
        .map(|&n| s.submit(JobSpec::new(format!("j{n}"), n)))
        .collect();

    let mut held: HashSet<usize> = HashSet::new();
    let mut running = Vec::new();
    loop {
        for ev in s.tick() {
            if let SchedulerEvent::Started { job, nodes, .. } = ev {
                for n in &nodes {
                    prop_assert!(held.insert(n.0), "node {n} double-allocated");
                }
                running.push((job, nodes));
            }
        }
        prop_assert!(s.ledger().reserved() <= budget + Watts(1e-6));
        match running.pop() {
            Some((job, nodes)) => {
                s.complete(job);
                for n in nodes {
                    held.remove(&n.0);
                }
            }
            None => break,
        }
    }
    // Everything that fit eventually ran and completed.
    prop_assert_eq!(s.free_nodes(), pool_size);
    prop_assert_eq!(s.ledger().reserved(), Watts::ZERO);
    let completed = ids
        .iter()
        .filter(|id| {
            matches!(
                s.job(**id).map(|j| j.state),
                Some(pmstack_rm::JobState::Completed)
            )
        })
        .count();
    let fits = sizes.iter().filter(|&&n| n <= pool_size).count();
    prop_assert_eq!(completed, fits, "every feasible job completed");
    Ok(())
}

/// Body of `node_death_reclaims_without_overshooting` under one discipline.
fn reclaims<D: Discipline>(
    sizes: &[usize],
    death_picks: &[usize],
    pool_size: usize,
) -> Result<(), TestCaseError> {
    let budget = Watts(200.0 * pool_size as f64);
    let mut s = Scheduler::<D>::new(
        NodePool::new(pool_size),
        PowerLedger::new(budget),
        Watts(200.0),
    );
    for (i, &n) in sizes.iter().enumerate() {
        s.submit(JobSpec::new(format!("j{i}"), n));
    }
    s.tick();
    for &pick in death_picks {
        // Kill an arbitrary (possibly repeated, possibly unknown) node.
        let victim = pmstack_simhw::NodeId(pick % (pool_size + 2));
        for ev in s.fail_node(victim) {
            if let SchedulerEvent::JobDegraded { job, remaining, .. } = ev {
                let j = s.job(job).expect("degraded job exists");
                prop_assert_eq!(j.nodes.len(), remaining);
                prop_assert!(remaining > 0);
            }
        }
        // Invariants hold after every single failure event…
        prop_assert!(s.ledger().reserved() <= budget + Watts(1e-6));
        prop_assert!(s.ledger().available() <= budget + Watts(1e-6));
        prop_assert!(s.ledger().available() >= Watts(-1e-6));
        prop_assert!(s.free_nodes() <= pool_size);
        // …and the freed capacity may admit queued work.
        s.tick();
        prop_assert!(s.ledger().reserved() <= budget + Watts(1e-6));
    }
    // Completing all survivors returns the ledger to zero reservations.
    for id in s.running() {
        s.complete(id);
    }
    prop_assert_eq!(s.ledger().reserved(), Watts::ZERO);
    prop_assert!(s.ledger().available() <= budget + Watts(1e-6));
    Ok(())
}

/// Body of `requeue_restart_never_double_reserves` under one discipline.
fn requeue_restarts<D: Discipline>(
    sizes: &[usize],
    kills: &[usize],
    pool_size: usize,
) -> Result<(), TestCaseError> {
    let budget = Watts(200.0 * pool_size as f64);
    let mut s = Scheduler::<D>::new(
        NodePool::new(pool_size),
        PowerLedger::new(budget),
        Watts(200.0),
    );
    for (i, &n) in sizes.iter().enumerate() {
        s.submit(JobSpec::new(format!("j{i}"), n));
    }
    s.tick();
    assert_conserved(&s, budget)?;
    for &pick in kills {
        // Kill an arbitrary (possibly repeated, possibly already
        // drained, possibly free) node.
        let victim = pmstack_simhw::NodeId(pick % (pool_size + 2));
        let mut withdrawn = None;
        for ev in s.fail_node_requeue(victim) {
            if let SchedulerEvent::Requeued { job, .. } = ev {
                withdrawn = Some(job);
            }
        }
        assert_conserved(&s, budget)?;
        if let Some(job) = withdrawn {
            // The backoff elapsed: the job re-enters the queue and may
            // restart on surviving nodes.
            s.enqueue(job);
        }
        s.tick();
        assert_conserved(&s, budget)?;
    }
    // Whatever survived still balances when it all completes.
    for id in s.running() {
        s.complete(id);
    }
    prop_assert_eq!(s.ledger().reserved(), Watts::ZERO);
    Ok(())
}

/// One step of a schedule replayed in lockstep on both disciplines. Picks
/// index the running jobs (or nodes) modulo their count.
#[derive(Debug, Clone)]
enum SchedOp {
    Submit { nodes: usize, hint: Option<f64> },
    Tick,
    Complete { pick: usize },
    Kill { node: usize },
    Preempt { pick: usize },
}

/// A per-node power hint in 100..240 W, or none (the 240 W default) about
/// 40 % of the time.
fn power_hint() -> impl Strategy<Value = Option<f64>> {
    (0.0f64..240.0).prop_map(|w| (w >= 100.0).then_some(w))
}

fn sched_op() -> impl Strategy<Value = SchedOp> {
    prop_oneof![
        (1usize..6, power_hint()).prop_map(|(nodes, hint)| SchedOp::Submit { nodes, hint }),
        Just(SchedOp::Tick),
        Just(SchedOp::Tick),
        (0usize..8).prop_map(|pick| SchedOp::Complete { pick }),
        (0usize..64).prop_map(|node| SchedOp::Kill { node }),
        (0usize..8).prop_map(|pick| SchedOp::Preempt { pick }),
    ]
}

/// Replay `ops` on a scheduler and return every event it emitted, in order.
/// A killed job is re-queued at once (a zero backoff).
fn replay<D: Discipline>(ops: &[SchedOp], pool_size: usize) -> (Scheduler<D>, Vec<SchedulerEvent>) {
    let mut s = Scheduler::<D>::new(
        NodePool::new(pool_size),
        PowerLedger::new(Watts(240.0 * pool_size as f64)),
        Watts(240.0),
    );
    let mut events = Vec::new();
    for op in ops {
        let running = s.running();
        let pick = |i: usize| running.get(i % running.len().max(1)).copied();
        match op {
            SchedOp::Submit { nodes, hint } => {
                let mut spec = JobSpec::new("j", *nodes);
                if let Some(w) = hint {
                    spec = spec.with_power_hint(Watts(*w));
                }
                s.submit(spec);
            }
            SchedOp::Tick => events.extend(s.tick()),
            SchedOp::Complete { pick: i } => {
                if let Some(id) = pick(*i) {
                    events.push(s.complete(id));
                }
            }
            SchedOp::Kill { node } => {
                let evs = s.fail_node_requeue(NodeId(node % pool_size));
                for ev in &evs {
                    if let SchedulerEvent::Requeued { job, .. } = ev {
                        s.enqueue(*job);
                    }
                }
                events.extend(evs);
            }
            SchedOp::Preempt { pick: i } => {
                if let Some(id) = pick(*i) {
                    events.push(s.preempt(id));
                }
            }
        }
    }
    events.extend(s.tick());
    (s, events)
}

proptest! {
    /// Under any submission/completion schedule, nodes are never double-
    /// allocated, the ledger never overcommits, and completing everything
    /// restores full capacity.
    #[test]
    fn scheduler_conserves_resources(
        sizes in prop::collection::vec(1usize..8, 1..12),
        pool_size in 8usize..24,
        budget_per_node in 140.0f64..240.0,
    ) {
        conserves::<Fifo>(&sizes, pool_size, budget_per_node)?;
        conserves::<Backfill>(&sizes, pool_size, budget_per_node)?;
    }

    /// Fault accounting: under any schedule of starts and node deaths, the
    /// ledger never reports more available power than the system budget,
    /// reservations never go negative, and the pool never frees more nodes
    /// than it manages. This is the reserve → fail → reclaim invariant the
    /// resilience plane depends on.
    #[test]
    fn node_death_reclaims_without_overshooting(
        sizes in prop::collection::vec(1usize..6, 1..10),
        death_picks in prop::collection::vec(0usize..64, 1..24),
        pool_size in 6usize..20,
    ) {
        reclaims::<Fifo>(&sizes, &death_picks, pool_size)?;
        reclaims::<Backfill>(&sizes, &death_picks, pool_size)?;
    }

    /// Double release is a no-op: however many times a grant is returned,
    /// availability never exceeds the managed total.
    #[test]
    fn double_release_is_a_noop(
        pool_size in 2usize..16,
        take in 1usize..8,
        repeats in 2usize..5,
    ) {
        let mut pool = NodePool::new(pool_size);
        let take = take.min(pool_size);
        let grant = pool.allocate(take).expect("grant fits");
        for _ in 0..repeats {
            pool.release(grant.clone());
            prop_assert_eq!(pool.available(), pool_size);
            prop_assert_eq!(pool.total(), pool_size);
        }
    }

    /// The campaign's kill path: under any schedule of lease-style kills
    /// (`fail_node_requeue`) followed by re-admission (`enqueue` + tick),
    /// no node is ever double-allocated and no watt is ever double-
    /// reserved — the fail → requeue → restart cycle conserves resources
    /// at every step.
    #[test]
    fn requeue_restart_never_double_reserves(
        sizes in prop::collection::vec(1usize..6, 2..10),
        kills in prop::collection::vec(0usize..64, 1..16),
        pool_size in 8usize..20,
    ) {
        requeue_restarts::<Fifo>(&sizes, &kills, pool_size)?;
        requeue_restarts::<Backfill>(&sizes, &kills, pool_size)?;
    }

    /// FIFO and backfill differ only past a blocked head. On a pool wide
    /// enough that no job ever waits, the two emit identical event streams
    /// under any schedule of submits, kills, preemptions and completions.
    /// On a tight pool, one tick of FIFO starts exactly a prefix of the
    /// queue and nothing behind the first job that does not fit, and
    /// backfill's stream opens with FIFO's whole stream; every start past
    /// it is a backfill.
    #[test]
    fn fifo_and_backfill_differ_only_past_a_blocked_head(
        ops in prop::collection::vec(sched_op(), 1..40),
        sizes in prop::collection::vec(1usize..8, 1..12),
        hints in prop::collection::vec(power_hint(), 12..13),
        tight_pool in 4usize..16,
    ) {
        // Roomy: every node ever requested plus every node a kill drains.
        let roomy_pool = ops
            .iter()
            .map(|op| match op {
                SchedOp::Submit { nodes, .. } => *nodes,
                SchedOp::Kill { .. } => 1,
                _ => 0,
            })
            .sum::<usize>()
            .max(1);
        let (_, fifo) = replay::<Fifo>(&ops, roomy_pool);
        let (backfill, backfilled) = replay::<Backfill>(&ops, roomy_pool);
        prop_assert_eq!(&fifo, &backfilled);
        prop_assert_eq!(backfill.backfilled_count(), 0);

        // Tight: a queue that may block at its head.
        let queue: Vec<SchedOp> = sizes
            .iter()
            .zip(&hints)
            .map(|(&nodes, &hint)| SchedOp::Submit { nodes, hint })
            .collect();
        let (fifo_s, fifo) = replay::<Fifo>(&queue, tight_pool);
        let (backfill, backfilled) = replay::<Backfill>(&queue, tight_pool);
        let started: Vec<u64> = fifo
            .iter()
            .map(|ev| match ev {
                SchedulerEvent::Started { job, .. } => job.0,
                other => panic!("a fresh queue only starts jobs: {other:?}"),
            })
            .collect();
        let prefix: Vec<u64> = (1..=started.len() as u64).collect();
        prop_assert_eq!(&started, &prefix, "FIFO started out of order");
        if started.len() < sizes.len() {
            // The first job left behind genuinely does not fit.
            let head = started.len();
            let power = hints[head].unwrap_or(240.0) * sizes[head] as f64;
            prop_assert!(
                sizes[head] > fifo_s.free_nodes()
                    || power > fifo_s.ledger().available().value() + 1e-9,
                "FIFO stopped at a head that fits"
            );
        }
        prop_assert_eq!(&backfilled[..fifo.len()], &fifo[..]);
        prop_assert_eq!(backfill.backfilled_count(), backfilled.len() - fifo.len());
    }

    /// Backoff schedule: every granted delay is within `[0, cap_s]`, delays
    /// never shrink as attempts accumulate, and the kill switch fires at
    /// exactly `max_attempts` — for any policy shape.
    #[test]
    fn backoff_is_capped_monotone_and_kills_at_max(
        base_s in 1.0f64..2000.0,
        factor in 1.0f64..4.0,
        cap_s in 60.0f64..7200.0,
        max_attempts in 1u32..12,
    ) {
        let p = RetryPolicy { base_s, factor, cap_s, max_attempts };
        let mut prev = 0.0f64;
        for attempts in 0..max_attempts + 3 {
            match p.delay_for(attempts) {
                Some(d) => {
                    prop_assert!(attempts < max_attempts || attempts == 0,
                        "retry granted at attempt {attempts} past the kill switch");
                    prop_assert!(d >= 0.0);
                    prop_assert!(d <= cap_s + 1e-9, "delay {d} exceeds cap {cap_s}");
                    prop_assert!(d + 1e-9 >= prev, "delay shrank: {prev} -> {d}");
                    prev = d;
                    prop_assert!(p.allows_retry(attempts));
                }
                None => {
                    prop_assert!(attempts >= max_attempts,
                        "kill switch fired early at attempt {attempts}");
                    prop_assert!(!p.allows_retry(attempts));
                }
            }
        }
    }

    /// Ledger arithmetic: any sequence of reserve/release operations keeps
    /// reserved + available == system budget.
    #[test]
    fn ledger_conservation(ops in prop::collection::vec((0u64..6, 0.0f64..400.0), 1..40)) {
        let budget = Watts(1000.0);
        let mut ledger = PowerLedger::new(budget);
        for (job, w) in ops {
            let id = pmstack_rm::JobId(job);
            if w < 200.0 {
                let _ = ledger.reserve(id, Watts(w));
            } else {
                ledger.release(id);
            }
            let total = ledger.reserved() + ledger.available();
            prop_assert!((total.value() - budget.value()).abs() < 1e-6);
            prop_assert!(ledger.reserved() <= budget + Watts(1e-9));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The watermark lease table behaves exactly like a map from node to
    /// last beat: `track` overwrites, `beat` keeps the later time and
    /// ignores untracked nodes, a round beats every tracked node but the
    /// silent ones, `expire` removes and reports every stale node once in
    /// ascending order — at any tick order, over sparse ids, and across
    /// gaps with no round at all.
    #[test]
    fn lease_table_matches_a_last_beat_map(
        ids in prop::collection::vec(0usize..4096, 1..12),
        timeout in 1u64..20,
        ops in prop::collection::vec((0u64..6, lease_op()), 1..120),
    ) {
        let mut table = LeaseTable::new(timeout);
        let mut model: BTreeMap<NodeId, u64> = BTreeMap::new();
        let pick = |i: usize| NodeId(ids[i % ids.len()]);
        let mut clock = 0u64;
        for (step, op) in &ops {
            clock += step;
            let at = |back: u64| clock.saturating_sub(back);
            match op {
                LeaseOp::Track { node, back } => {
                    table.track(pick(*node), at(*back));
                    model.insert(pick(*node), at(*back));
                }
                LeaseOp::Beat { node, back } => {
                    table.beat(pick(*node), at(*back));
                    if let Some(t) = model.get_mut(&pick(*node)) {
                        *t = (*t).max(at(*back));
                    }
                }
                LeaseOp::Round { silent, back } => {
                    let silent: Vec<NodeId> = silent
                        .iter()
                        .map(|&s| if s < 16 { pick(s) } else { NodeId(4096 + s) })
                        .collect();
                    table.beat_all_except(at(*back), &silent);
                    for (n, t) in model.iter_mut() {
                        if !silent.contains(n) {
                            *t = (*t).max(at(*back));
                        }
                    }
                }
                LeaseOp::Forget { node } => {
                    table.forget(pick(*node));
                    model.remove(&pick(*node));
                }
                LeaseOp::Expire { back } => {
                    let now = at(*back);
                    let want: Vec<NodeId> = model
                        .iter()
                        .filter(|(_, &t)| now.saturating_sub(t) > timeout)
                        .map(|(&n, _)| n)
                        .collect();
                    want.iter().for_each(|n| { model.remove(n); });
                    prop_assert_eq!(table.expire(now), want, "expire at {} (clock {})", now, clock);
                }
                LeaseOp::Gap { ticks } => clock += ticks,
            }
            prop_assert_eq!(table.tracked(), model.len(), "after {:?}", op);
            for n in ids.iter().map(|&n| NodeId(n)).chain([NodeId(4100)]) {
                let want = model.get(&n).map(|t| clock.saturating_sub(*t));
                prop_assert_eq!(table.staleness(n, clock), want, "{} after {:?}", n, op);
            }
        }
    }
}
