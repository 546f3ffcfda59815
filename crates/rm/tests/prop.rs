//! Property-based tests of resource-manager conservation invariants.

use pmstack_rm::{
    Backfill, Discipline, Fifo, Job, JobId, JobSpec, JobState, LeaseTable, NodePool, OverCommit,
    PowerLedger, RetryPolicy, Scheduler, SchedulerEvent,
};
use pmstack_simhw::{NodeId, Watts};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

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

// --------------------------------------------------------------------
// Oracles: the ordered-set pool and the always-scan scheduler the dense
// ones replaced, kept here only as models.
// --------------------------------------------------------------------

/// The node pool as ordered sets. `drained` makes `restore` return only
/// nodes `remove` took out.
#[derive(Debug, Clone)]
struct ModelPool {
    free: BTreeSet<NodeId>,
    managed: BTreeSet<NodeId>,
    drained: BTreeSet<NodeId>,
}

impl ModelPool {
    fn from_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let managed: BTreeSet<NodeId> = nodes.into_iter().collect();
        Self {
            free: managed.clone(),
            managed,
            drained: BTreeSet::new(),
        }
    }

    fn allocate(&mut self, n: usize) -> Option<Vec<NodeId>> {
        if self.free.len() < n {
            return None;
        }
        self.allocate_in(n, NodeId(0), NodeId(usize::MAX))
    }

    fn allocate_in(&mut self, n: usize, lo: NodeId, hi: NodeId) -> Option<Vec<NodeId>> {
        let grant: Vec<NodeId> = self.free.range(lo..hi).take(n).copied().collect();
        if grant.len() < n {
            return None;
        }
        for id in &grant {
            self.free.remove(id);
        }
        Some(grant)
    }

    fn available_in(&self, lo: NodeId, hi: NodeId) -> usize {
        self.free.range(lo..hi).count()
    }

    fn release(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        for id in nodes {
            if self.managed.contains(&id) {
                self.free.insert(id);
            }
        }
    }

    fn remove(&mut self, id: NodeId) -> bool {
        self.free.remove(&id);
        let removed = self.managed.remove(&id);
        if removed {
            self.drained.insert(id);
        }
        removed
    }

    fn restore(&mut self, id: NodeId) -> bool {
        if !self.drained.remove(&id) {
            return false;
        }
        self.managed.insert(id);
        self.free.insert(id);
        true
    }
}

/// The scheduler whose every tick scans the queue and whose drain scans
/// every job; `backfill` picks the discipline.
struct ModelScheduler {
    backfill: bool,
    pool: ModelPool,
    ledger: PowerLedger,
    queue: VecDeque<JobId>,
    jobs: BTreeMap<JobId, Job>,
    default_per_node: Watts,
}

impl ModelScheduler {
    fn new(backfill: bool, pool_size: usize, ledger: PowerLedger, default_per_node: Watts) -> Self {
        Self {
            backfill,
            pool: ModelPool::from_nodes((0..pool_size).map(NodeId)),
            ledger,
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            default_per_node,
        }
    }

    fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.jobs.len() as u64 + 1);
        self.jobs.insert(id, Job::pending(id, spec));
        self.queue.push_back(id);
        id
    }

    fn tick(&mut self) -> Vec<SchedulerEvent> {
        let mut events = Vec::new();
        if !self.backfill {
            while let Some(&head) = self.queue.front() {
                let Some(ev) = self.try_start(head) else {
                    break;
                };
                self.queue.pop_front();
                events.push(ev);
            }
            return events;
        }
        loop {
            let ids: Vec<JobId> = self.queue.iter().copied().collect();
            let Some(ev) = ids.iter().find_map(|id| self.try_start(*id)) else {
                return events;
            };
            if let SchedulerEvent::Started { job, .. } = &ev {
                self.queue.retain(|q| q != job);
            }
            events.push(ev);
        }
    }

    fn try_start(&mut self, id: JobId) -> Option<SchedulerEvent> {
        let job = &self.jobs[&id];
        let per_node = job
            .spec
            .power_hint_per_node
            .unwrap_or(self.default_per_node);
        let (n, power) = (job.spec.nodes, per_node * job.spec.nodes as f64);
        if self.pool.free.len() < n || self.ledger.reserve(id, power).is_err() {
            return None;
        }
        let nodes = self.pool.allocate(n).expect("availability checked");
        let job = self.jobs.get_mut(&id).expect("queued job exists");
        job.start(nodes.clone());
        job.power_budget = Some(power);
        Some(SchedulerEvent::Started {
            job: id,
            nodes,
            power,
        })
    }

    fn complete(&mut self, id: JobId) -> SchedulerEvent {
        let nodes = self.jobs.get_mut(&id).expect("known job").complete();
        self.pool.release(nodes);
        self.ledger.release(id);
        SchedulerEvent::Completed { job: id }
    }

    fn drain(&mut self, node: NodeId) -> Option<Option<JobId>> {
        if !self.pool.managed.contains(&node) {
            return None;
        }
        self.pool.remove(node);
        let owner = self
            .jobs
            .values()
            .find(|j| j.state == JobState::Running && j.nodes.contains(&node))
            .map(|j| j.id);
        Some(owner)
    }

    fn fail_node(&mut self, node: NodeId) -> Vec<SchedulerEvent> {
        let Some(owner) = self.drain(node) else {
            return Vec::new();
        };
        let mut events = vec![SchedulerEvent::NodeFailed { node, job: owner }];
        let Some(id) = owner else {
            return events;
        };
        let job = self.jobs.get_mut(&id).expect("owner exists");
        let held = job.nodes.len();
        job.lose_node(node);
        if job.nodes.is_empty() {
            job.complete();
            self.ledger.release(id);
            events.push(SchedulerEvent::Completed { job: id });
        } else {
            let share = self
                .ledger
                .reservation(id)
                .map(|w| w / held as f64)
                .unwrap_or(Watts::ZERO);
            let reclaimed = self.ledger.reclaim(id, share);
            let job = self.jobs.get_mut(&id).expect("owner exists");
            job.power_budget = self.ledger.reservation(id);
            events.push(SchedulerEvent::JobDegraded {
                job: id,
                lost: node,
                remaining: job.nodes.len(),
                reclaimed,
            });
        }
        events
    }

    fn fail_node_requeue(&mut self, node: NodeId) -> Vec<SchedulerEvent> {
        let Some(owner) = self.drain(node) else {
            return Vec::new();
        };
        let mut events = vec![SchedulerEvent::NodeFailed { node, job: owner }];
        if let Some(id) = owner {
            events.push(self.withdraw(id));
        }
        events
    }

    fn withdraw(&mut self, id: JobId) -> SchedulerEvent {
        let power = self.ledger.reservation(id).unwrap_or(Watts::ZERO);
        let nodes = self.jobs.get_mut(&id).expect("known job").requeue();
        let released = nodes.len();
        self.pool.release(nodes);
        self.ledger.release(id);
        self.queue.retain(|q| *q != id);
        SchedulerEvent::Requeued {
            job: id,
            released,
            power,
        }
    }

    fn enqueue(&mut self, id: JobId) {
        self.queue.push_back(id);
    }

    fn preempt(&mut self, id: JobId) -> SchedulerEvent {
        let power = self.ledger.reservation(id).unwrap_or(Watts::ZERO);
        let nodes = self.jobs.get_mut(&id).expect("known job").requeue();
        self.pool.release(nodes);
        self.ledger.release(id);
        self.queue.push_front(id);
        SchedulerEvent::Preempted { job: id, power }
    }

    fn rebudget(&mut self, id: JobId, power: Watts) -> Result<(), OverCommit> {
        self.ledger.reserve(id, power)?;
        self.jobs.get_mut(&id).expect("known job").power_budget = Some(power);
        Ok(())
    }

    fn running(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.id)
            .collect();
        ids.sort();
        ids
    }
}

/// One step of a lifecycle interleaving. Picks index the model's running
/// (or withdrawn) jobs modulo their count; node picks land on the pool,
/// just past it, or (for restores) across later bitmap words.
#[derive(Debug, Clone)]
enum LifeOp {
    Submit { nodes: usize, hint: Option<f64> },
    Tick,
    Complete { pick: usize },
    Fail { node: usize },
    FailRequeue { node: usize },
    Withdraw { pick: usize },
    Enqueue { pick: usize },
    Preempt { pick: usize },
    Rebudget { pick: usize, per_node: f64 },
    SetBudget { per_node: f64 },
    Restore { node: usize },
}

/// Any pick; the replay reduces it modulo what it picks from.
const PICK: std::ops::Range<usize> = 0..1 << 20;

fn life_op() -> impl Strategy<Value = LifeOp> {
    let submit =
        || (1usize..12, power_hint()).prop_map(|(nodes, hint)| LifeOp::Submit { nodes, hint });
    prop_oneof![
        submit(),
        submit(),
        submit(),
        Just(LifeOp::Tick),
        Just(LifeOp::Tick),
        Just(LifeOp::Tick),
        Just(LifeOp::Tick),
        Just(LifeOp::Tick),
        Just(LifeOp::Tick),
        PICK.prop_map(|pick| LifeOp::Complete { pick }),
        PICK.prop_map(|node| LifeOp::Fail { node }),
        PICK.prop_map(|node| LifeOp::Fail { node }),
        PICK.prop_map(|node| LifeOp::FailRequeue { node }),
        PICK.prop_map(|pick| LifeOp::Withdraw { pick }),
        PICK.prop_map(|pick| LifeOp::Enqueue { pick }),
        PICK.prop_map(|pick| LifeOp::Enqueue { pick }),
        PICK.prop_map(|pick| LifeOp::Preempt { pick }),
        (PICK, 60.0f64..260.0).prop_map(|(pick, per_node)| LifeOp::Rebudget { pick, per_node }),
        (60.0f64..260.0).prop_map(|per_node| LifeOp::SetBudget { per_node }),
        PICK.prop_map(|node| LifeOp::Restore { node }),
        PICK.prop_map(|node| LifeOp::Restore { node }),
    ]
}

/// Replay `ops` on a scheduler and on the model in lockstep: after every
/// step the events, every job record, the pool counts and the ledger's
/// reserved watts (to the bit) must agree.
fn matches_model<D: Discipline>(
    ops: &[LifeOp],
    pool_size: usize,
    backfill: bool,
) -> Result<(), TestCaseError> {
    let ledger = PowerLedger::new(Watts(200.0 * pool_size as f64));
    let mut s = Scheduler::<D>::new(NodePool::new(pool_size), ledger.clone(), Watts(240.0));
    let mut m = ModelScheduler::new(backfill, pool_size, ledger, Watts(240.0));
    // Pending jobs a kill or a withdraw took out of the queue.
    let mut withdrawn: Vec<JobId> = Vec::new();
    let node_near = |n: usize| NodeId(n % (pool_size + 2));
    for (step, op) in ops.iter().enumerate() {
        let running = m.running();
        let pick = |i: usize| running.get(i % running.len().max(1)).copied();
        let (got, want) = match *op {
            LifeOp::Submit { nodes, hint } => {
                let mut spec = JobSpec::new("j", nodes);
                if let Some(w) = hint {
                    spec = spec.with_power_hint(Watts(w));
                }
                prop_assert_eq!(s.submit(spec.clone()), m.submit(spec));
                (Vec::new(), Vec::new())
            }
            LifeOp::Tick => (s.tick(), m.tick()),
            LifeOp::Complete { pick: i } => match pick(i) {
                Some(id) => (vec![s.complete(id)], vec![m.complete(id)]),
                None => (Vec::new(), Vec::new()),
            },
            LifeOp::Fail { node } => (s.fail_node(node_near(node)), m.fail_node(node_near(node))),
            LifeOp::FailRequeue { node } => (
                s.fail_node_requeue(node_near(node)),
                m.fail_node_requeue(node_near(node)),
            ),
            LifeOp::Withdraw { pick: i } => match pick(i) {
                Some(id) => (vec![s.withdraw(id)], vec![m.withdraw(id)]),
                None => (Vec::new(), Vec::new()),
            },
            LifeOp::Enqueue { pick: i } => {
                if !withdrawn.is_empty() {
                    let id = withdrawn.remove(i % withdrawn.len());
                    s.enqueue(id);
                    m.enqueue(id);
                }
                (Vec::new(), Vec::new())
            }
            LifeOp::Preempt { pick: i } => match pick(i) {
                Some(id) => (vec![s.preempt(id)], vec![m.preempt(id)]),
                None => (Vec::new(), Vec::new()),
            },
            LifeOp::Rebudget { pick: i, per_node } => {
                if let Some(id) = pick(i) {
                    let w = Watts(per_node * m.jobs[&id].nodes.len() as f64);
                    prop_assert_eq!(s.rebudget(id, w), m.rebudget(id, w));
                }
                (Vec::new(), Vec::new())
            }
            LifeOp::SetBudget { per_node } => {
                let w = Watts(per_node * pool_size as f64);
                prop_assert_eq!(
                    s.ledger_mut().set_system_budget(w),
                    m.ledger.set_system_budget(w)
                );
                (Vec::new(), Vec::new())
            }
            LifeOp::Restore { node } => {
                // Half near the pool, where drained nodes are; half
                // anywhere in the first few bitmap words.
                let id = if node % 2 == 0 {
                    node_near(node / 2)
                } else {
                    NodeId(node / 2 % 320)
                };
                prop_assert_eq!(s.restore_node(id), m.pool.restore(id));
                (Vec::new(), Vec::new())
            }
        };
        prop_assert_eq!(&got, &want, "events at step {} ({:?})", step, op);
        for ev in &want {
            if let SchedulerEvent::Requeued { job, .. } = ev {
                withdrawn.push(*job);
            }
        }
        prop_assert_eq!(s.running(), m.running(), "running at step {}", step);
        for (id, job) in &m.jobs {
            prop_assert_eq!(s.job(*id), Some(job), "job {} at step {}", id, step);
        }
        prop_assert_eq!(s.free_nodes(), m.pool.free.len(), "free at step {}", step);
        prop_assert_eq!(
            s.total_nodes(),
            m.pool.managed.len(),
            "total at step {}",
            step
        );
        prop_assert_eq!(
            s.ledger().reserved().value().to_bits(),
            m.ledger.reserved().value().to_bits(),
            "reserved at step {}",
            step
        );
    }
    prop_assert_eq!(s.tick(), m.tick(), "the closing tick");
    Ok(())
}

/// One operation on a pool and its model.
#[derive(Debug, Clone)]
enum PoolOp {
    Allocate {
        n: usize,
    },
    AllocateIn {
        n: usize,
        a: usize,
        b: usize,
    },
    /// Release a grant still held (`pick` modulo their count), or a
    /// returned one again.
    Release {
        pick: usize,
        again: bool,
    },
    /// Release an arbitrary id, held or not.
    ReleaseId {
        id: usize,
    },
    Remove {
        id: usize,
    },
    Restore {
        id: usize,
    },
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    let allocate_in = || {
        (0usize..40, 0usize..300, 0usize..300).prop_map(|(n, a, b)| PoolOp::AllocateIn { n, a, b })
    };
    let release = |again| PICK.prop_map(move |pick| PoolOp::Release { pick, again });
    prop_oneof![
        (0usize..80).prop_map(|n| PoolOp::Allocate { n }),
        (0usize..80).prop_map(|n| PoolOp::Allocate { n }),
        allocate_in(),
        allocate_in(),
        release(false),
        release(false),
        release(true),
        (0usize..300).prop_map(|id| PoolOp::ReleaseId { id }),
        (0usize..300).prop_map(|id| PoolOp::Remove { id }),
        (0usize..300).prop_map(|id| PoolOp::Restore { id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The settled scheduler is the always-scan one: under any interleaving
    /// of the lifecycle calls, ledger edits through `ledger_mut` and node
    /// restores, both disciplines emit the model's event stream and keep
    /// its job table, pool counts and ledger, step for step. Pools cross
    /// the 64- and 128-node bitmap word boundaries.
    #[test]
    fn scheduler_matches_the_always_scan_model(
        ops in prop::collection::vec(life_op(), 1..120),
        pool_size in prop_oneof![1usize..24, 60usize..140],
    ) {
        matches_model::<Fifo>(&ops, pool_size, false)?;
        matches_model::<Backfill>(&ops, pool_size, true)?;
    }

    /// The bitmap pool is the ordered-set pool: grants (lowest id first,
    /// whole or range-pinned), availability over the whole pool and over
    /// ranges that cross word boundaries, idempotent release, drain and
    /// restore — on dense pools and on sparse explicit node sets.
    #[test]
    fn bitmap_pool_matches_the_ordered_set_model(
        dense in 0usize..260,
        sparse in prop::collection::vec(0usize..260, 0..80),
        ops in prop::collection::vec(pool_op(), 1..80),
    ) {
        // Half the cases build `0..dense`, half an explicit sparse set.
        let ids: Vec<NodeId> = if dense % 2 == 0 {
            (0..dense).map(NodeId).collect()
        } else {
            sparse.iter().map(|&n| NodeId(n)).collect()
        };
        let mut pool = NodePool::from_nodes(ids.iter().copied());
        let mut model = ModelPool::from_nodes(ids);
        let mut held: Vec<Vec<NodeId>> = Vec::new();
        let mut returned: Vec<Vec<NodeId>> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                PoolOp::Allocate { n } => {
                    let grant = pool.allocate(n);
                    prop_assert_eq!(&grant, &model.allocate(n), "step {}", step);
                    held.extend(grant);
                }
                PoolOp::AllocateIn { n, a, b } => {
                    let (lo, hi) = (NodeId(a.min(b)), NodeId(a.max(b)));
                    prop_assert_eq!(pool.available_in(lo, hi), model.available_in(lo, hi));
                    let grant = pool.allocate_in(n, lo, hi);
                    prop_assert_eq!(&grant, &model.allocate_in(n, lo, hi), "step {}", step);
                    held.extend(grant);
                }
                PoolOp::Release { pick, again } => {
                    let from = if again { &mut returned } else { &mut held };
                    if !from.is_empty() {
                        let grant = from.swap_remove(pick % from.len());
                        pool.release(grant.iter().copied());
                        model.release(grant.iter().copied());
                        returned.push(grant);
                    }
                }
                PoolOp::ReleaseId { id } => {
                    pool.release([NodeId(id)]);
                    model.release([NodeId(id)]);
                }
                PoolOp::Remove { id } => {
                    prop_assert_eq!(pool.remove(NodeId(id)), model.remove(NodeId(id)));
                }
                PoolOp::Restore { id } => {
                    prop_assert_eq!(pool.restore(NodeId(id)), model.restore(NodeId(id)));
                }
            }
            prop_assert_eq!(pool.available(), model.free.len(), "step {}", step);
            prop_assert_eq!(pool.total(), model.managed.len(), "step {}", step);
            for id in (0..330).map(NodeId) {
                prop_assert_eq!(pool.manages(id), model.managed.contains(&id), "{} step {}", id, step);
            }
            for (lo, hi) in [(0, 330), (1, 64), (63, 65), (64, 128), (100, 257)] {
                let (lo, hi) = (NodeId(lo), NodeId(hi));
                prop_assert_eq!(pool.available_in(lo, hi), model.available_in(lo, hi));
            }
        }
    }
}
