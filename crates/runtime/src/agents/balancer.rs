//! The power balancer agent.
//!
//! Re-implements the behaviour of GEOPM's `power_balancer` that the paper's
//! methodology relies on (§III-A): *"the power balancer agent reduces the
//! power limit where it does not impact performance, and redistributes that
//! power where it can improve performance, all during execution."*
//!
//! The algorithm, per control step (one kernel iteration here), starting
//! from a uniform split of the job budget:
//!
//! 1. **Harvest** — a host whose lead (critical-path) frequency still holds
//!    the turbo ceiling has power to spare: one probe step is cut. On hardware
//!    whose PCU demotes spin-polling cores first, these cuts are
//!    performance-free and harvest the slack power of waiting/imbalanced
//!    ranks — the Fig. 4 → Fig. 5 gap. A throttled host that is *off* the
//!    job's critical path is pure slack and is trimmed too.
//! 2. **Grant** — freed watts are pooled and granted (rate-limited) to
//!    power-bound hosts on the critical path, equalizing iteration times
//!    across hosts that differ in manufacturing efficiency.
//!
//! Steps halve on direction reversals (the binary-search refinement the
//! real agent uses) and restores run faster than cuts, so the search
//! breathes slightly *above* each host's needed power — protecting elapsed
//! time while still harvesting the slack.

use crate::agent::Agent;
use crate::platform::{IterationOutcome, JobPlatform, Laps, STAGE_BOUNDS};
use pmstack_obs::{StaticCounter, StaticHistogram};
use pmstack_simhw::{Seconds, Watts};

/// Observability: probe cuts taken by the harvest pass.
static BALANCER_CUTS: StaticCounter = StaticCounter::new("runtime.balancer.cuts");
/// Observability: grants paid out to power-bound critical-path hosts.
static BALANCER_GRANTS: StaticCounter = StaticCounter::new("runtime.balancer.grants");
/// Observability: total milliwatts harvested from slack hosts (each
/// pass's total rounded once).
static BALANCER_HARVESTED_MW: StaticCounter = StaticCounter::new("runtime.balancer.harvested_mw");
/// Observability: total milliwatts granted to power-bound hosts (each
/// pass's total rounded once).
static BALANCER_GRANTED_MW: StaticCounter = StaticCounter::new("runtime.balancer.granted_mw");
/// Observability: host-limit writes elided because the target was bitwise
/// unchanged since the last write.
static BALANCER_WRITES_SKIPPED: StaticCounter =
    StaticCounter::new("runtime.balancer.writes_skipped");

/// Stage spans of one `adjust`, timed as laps like the platform's
/// `runtime.iter.*` stages (count and sum, no bucket): the harvest pass,
/// the pooling and grant pass, and the batched limit write.
static HARVEST_SECS: StaticHistogram =
    StaticHistogram::new("runtime.balancer.harvest.secs", STAGE_BOUNDS);
static GRANT_SECS: StaticHistogram =
    StaticHistogram::new("runtime.balancer.grant.secs", STAGE_BOUNDS);
static APPLY_SECS: StaticHistogram =
    StaticHistogram::new("runtime.balancer.apply.secs", STAGE_BOUNDS);

/// Tunable parameters of the balancer (exposed for the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancerParams {
    /// Watts removed per probe/cut step.
    pub step: Watts,
    /// Relative distance from the slowest host within which a host counts
    /// as on the critical path and may receive grants.
    pub critical_band: f64,
}

impl Default for BalancerParams {
    fn default() -> Self {
        Self {
            step: Watts(4.0),
            critical_band: 0.01,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct HostState {
    /// The limit this agent wants for the host.
    target: Watts,
    /// The limit last written to the host, for write elision. Compared
    /// bitwise: any real move produces a different f64. Each apply writes
    /// every live target that moved, so the harvest pass refreshes this from
    /// the target before anything moves it.
    programmed: Watts,
    /// Current adjustment step; halves on direction reversals (the
    /// balancer's binary-search convergence) and re-expands after
    /// sustained moves in one direction.
    step: Watts,
    /// Direction of the last adjustment: -1 cut, +1 grant, 0 none.
    last_dir: i8,
    /// Consecutive adjustments in the same direction.
    streak: u8,
    /// The host is fail-stop dead; its power was returned to the pool and
    /// it is excluded from the search permanently.
    dead: bool,
}

impl HostState {
    /// Update the step size for a move in direction `dir`, returning the
    /// step to use for this move.
    fn step_for(&mut self, dir: i8, initial: Watts) -> Watts {
        if self.last_dir != 0 && dir != self.last_dir {
            // Reversal: we bracketed the optimum; refine.
            self.step = (self.step * 0.5).max(Watts(0.25));
            self.streak = 0;
        } else {
            self.streak = self.streak.saturating_add(1);
            if self.streak >= 4 {
                // Sustained motion: the optimum moved; accelerate.
                self.step = (self.step * 2.0).min(initial);
                self.streak = 0;
            }
        }
        self.last_dir = dir;
        self.step
    }
}

/// Per-shard working set for one `adjust` pass. Borrowing disjoint
/// `HostState` slices into per-shard tasks lets the harvest and grant
/// phases fan out across the exec pool without any shared mutable state;
/// the scalar summaries come back in the task itself.
#[derive(Default)]
struct ShardPass<'a> {
    /// Global index of the first host in this shard.
    base: usize,
    hosts: &'a mut [HostState],
    /// Watts freed by harvest cuts and dead-host release in this shard.
    freed: Watts,
    /// Hosts in this shard eligible for grants after the harvest.
    recipients: usize,
    /// Hosts in this shard alive after the harvest.
    live: usize,
    /// Grant budget the top level allotted to this shard; the grant pass
    /// leaves here what it could not spend (recipients hit TDP first).
    quota: Watts,
    cuts: u64,
    harvested: f64,
    grants: u64,
    granted: f64,
}

/// The performance-aware power balancer — the one within-job balancer,
/// from a two-host job to a 1M-host fleet.
///
/// The per-interval pass is sharded by the platform's bank-segment size; a
/// job that fits one segment is simply the one-shard case, in which every
/// fan-out below runs inline.
///
/// 1. **Hierarchical aggregation.** Harvest and grant run shard-by-shard
///    across the exec pool; the top level works on O(shards) summaries, not
///    O(hosts) state. The grant pool is split into per-shard quotas
///    (`per_grant × recipients`, capped by the remaining pool *in shard
///    order*) and each shard spends its quota independently.
/// 2. **Deterministic folds.** The critical path is an `f64::max` (exact in
///    any order) and the pool a fixed-order sum over shards, so a parallel
///    run is bit-identical to a sequential one.
/// 3. **Write elision.** The apply is one batched write
///    ([`JobPlatform::set_host_limits`]) of the hosts whose target changed
///    bitwise since the last write. Rewriting an unchanged target would
///    dirty its bank segment and forbid steady-state replay even at a fixed
///    point. (A skipped write also leaves any pending
///    one-shot MSR glitch to be consumed by the next telemetry read instead
///    of the next write — an observable but benign reordering, accepted.)
///
/// A shard cannot dip into watts another shard declined (a grant is capped
/// by the shard's quota, not by the whole pool), so on a multi-segment
/// fleet under extreme TDP-headroom skew the pool drains one interval later
/// than it would in one shard. The policy fixed points are the same.
#[derive(Debug, Clone)]
pub struct PowerBalancerAgent {
    budget: Watts,
    params: BalancerParams,
    /// Explicit shard size; `None` takes the platform's segment size, so a
    /// shard's writes land in one segment's cache line of invalidation.
    shard_hosts: Option<usize>,
    hosts: Vec<HostState>,
    /// Watts freed by cuts, not yet granted.
    pool: Watts,
}

/// The balancer under the name the fleet-scale callers import.
pub type HierarchicalBalancerAgent = PowerBalancerAgent;

impl PowerBalancerAgent {
    /// Balance `budget` watts across the job.
    pub fn new(budget: Watts) -> Self {
        Self::with_params(budget, BalancerParams::default())
    }

    /// Balance with explicit parameters.
    pub fn with_params(budget: Watts, params: BalancerParams) -> Self {
        Self {
            budget,
            params,
            shard_hosts: None,
            hosts: Vec::new(),
            pool: Watts::ZERO,
        }
    }

    /// Override the shard size (the default is the platform's
    /// `segment_hosts()`, so agent shards and bank segments coincide).
    pub fn with_shard_hosts(mut self, hosts: usize) -> Self {
        assert!(hosts >= 1, "shards must hold at least one host");
        self.shard_hosts = Some(hosts);
        self
    }

    /// The per-host limits the agent currently targets.
    pub fn targets(&self) -> Vec<Watts> {
        self.hosts.iter().map(|h| h.target).collect()
    }

    /// Watts currently freed and unallocated.
    pub fn pool(&self) -> Watts {
        self.pool
    }
}

impl Agent for PowerBalancerAgent {
    fn name(&self) -> &'static str {
        "power_balancer"
    }

    fn budget(&self) -> Option<Watts> {
        Some(self.budget)
    }

    fn init(&mut self, platform: &mut JobPlatform) {
        let spec = platform.model().spec();
        let floor = spec.min_rapl_per_node();
        let tdp = spec.tdp_per_node();
        let alive = platform.alive_hosts();
        // Hardware cannot go under the floor: a budget below `alive × floor`
        // is unmeetable, and that floor total is what the agent then holds.
        self.budget = self.budget.max(floor * alive as f64);
        let share = (self.budget / alive.max(1) as f64).clamp(floor, tdp);
        self.hosts = (0..platform.num_hosts())
            .map(|h| {
                let dead = !platform.is_host_alive(h);
                let target = if dead { Watts::ZERO } else { share };
                HostState {
                    target,
                    programmed: target,
                    step: self.params.step,
                    last_dir: 0,
                    streak: 0,
                    dead,
                }
            })
            .collect();
        self.pool = Watts::ZERO;
        platform
            .set_uniform_limit(share)
            .expect("share is clamped into the settable range");
    }

    fn on_boundary(&mut self, _platform: &mut JobPlatform, _caps: Option<&[Watts]>) {
        // A new stretch may have a new power signature: re-open every
        // host's search at the full step so convergence is fast again.
        // Posted caps do not re-seed the targets.
        let initial = self.params.step;
        for state in &mut self.hosts {
            state.step = initial;
            state.last_dir = 0;
            state.streak = 0;
        }
    }

    fn adjust(&mut self, platform: &mut JobPlatform, outcome: &IterationOutcome) {
        let spec = platform.model().spec();
        let floor = spec.min_rapl_per_node();
        let tdp = spec.tdp_per_node();
        let f_turbo = spec.f_turbo;
        let initial = self.params.step;
        let critical_band = self.params.critical_band;
        let shard = self.shard_hosts.unwrap_or_else(|| platform.segment_hosts());
        let mut laps = Laps::start(true);

        let mut tasks: Vec<ShardPass<'_>> = self
            .hosts
            .chunks_mut(shard)
            .enumerate()
            .map(|(i, hosts)| ShardPass {
                base: i * shard,
                hosts,
                ..ShardPass::default()
            })
            .collect();

        // The job's critical path. One streaming max over the fleet costs
        // less than a fan-out, and f64 max is exact in any order.
        let slowest = outcome
            .host_compute_time
            .iter()
            .copied()
            .fold(Seconds::ZERO, Seconds::max);

        // Stale telemetry means slack cannot be judged: the host holds its
        // last-known cap, and gets no grant either — that would chase a
        // critical path that may no longer exist.
        let fresh = |h: usize| outcome.host_fresh.get(h).copied().unwrap_or(true);
        let throttled = |h: usize| outcome.host_lead[h] < f_turbo;
        let off_critical = |h: usize| {
            outcome.host_compute_time[h].value() < slowest.value() * (1.0 - critical_band)
        };
        // Throttled hosts on the critical path are power-bound — extra watts
        // buy elapsed time. Must not change between the harvest and grant
        // phases, so the top-level count and the per-shard spend agree.
        let grant_eligible = |state: &HostState, h: usize| {
            !state.dead && fresh(h) && throttled(h) && !off_critical(h) && state.target < tdp
        };

        // Harvest + dead-host release, one shard per task. Each shard
        // mutates only its own states and reports freed watts and its
        // recipient count; nothing global is touched.
        pmstack_exec::par_for_each_mut(&mut tasks, |_, t| {
            for (j, state) in t.hosts.iter_mut().enumerate() {
                let h = t.base + j;
                state.programmed = state.target;
                // Graceful degradation: a host that died this interval
                // leaves the search and its power returns to the pool, where
                // the grant path redistributes it to the survivors — the
                // within-job version of the coordinator re-allocating a
                // failed node's budget.
                if !state.dead && !outcome.host_alive.get(h).copied().unwrap_or(true) {
                    state.dead = true;
                    t.freed += state.target;
                    state.target = Watts::ZERO;
                }
                t.live += usize::from(!state.dead);
                if state.dead || !fresh(h) {
                    continue;
                }
                // A host whose critical path still holds the turbo ceiling
                // has free power above its needs (cuts there only demote
                // spin-polling cores); a throttled host *off* the job's
                // critical path is pure slack, trim it too. One step per
                // control interval, the gentle cadence the real balancer uses.
                if (!throttled(h) || off_critical(h)) && state.target > floor {
                    let cut = state.step_for(-1, initial).min(state.target - floor);
                    state.target -= cut;
                    t.freed += cut;
                    t.cuts += 1;
                    t.harvested += cut.value();
                }
                t.recipients += usize::from(grant_eligible(state, h));
            }
        });
        laps.lap(&HARVEST_SECS);

        // Top level: pool the freed watts and split them into per-shard
        // quotas, both in shard order so the arithmetic is deterministic.
        let mut pool = self.pool;
        let mut recipients = 0usize;
        for t in &tasks {
            pool += t.freed;
            recipients += t.recipients;
        }
        let mut remaining = pool;
        if recipients > 0 && pool > Watts::ZERO {
            // Rate-limited so a transiently throttled host cannot swallow
            // the pool. Restores are deliberately faster than cuts (twice
            // the nominal step): a throttled critical path costs elapsed
            // time immediately, so the search hovers just *above* the needed
            // power rather than below it. The reversal still halves the
            // subsequent cut probe.
            let per_grant = (pool / recipients as f64).min(initial * 2.0);
            for t in &mut tasks {
                let quota = (per_grant * t.recipients as f64).min(remaining);
                remaining -= quota;
                t.quota = quota;
            }
            // Grants: each shard spends its own quota independently.
            pmstack_exec::par_for_each_mut(&mut tasks, |_, t| {
                let mut quota = t.quota;
                for (j, state) in t.hosts.iter_mut().enumerate() {
                    if !grant_eligible(state, t.base + j) {
                        continue;
                    }
                    state.step_for(1, initial);
                    let grant = per_grant.min(tdp - state.target).min(quota);
                    state.target += grant;
                    quota -= grant;
                    if grant > Watts::ZERO {
                        t.grants += 1;
                        t.granted += grant.value();
                    }
                }
                t.quota = quota;
            });
            for t in &tasks {
                remaining += t.quota;
            }
        }

        let (mut cuts, mut harvested, mut grants, mut granted) = (0u64, 0.0, 0u64, 0.0);
        let mut live = 0;
        for t in &tasks {
            live += t.live;
            cuts += t.cuts;
            harvested += t.harvested;
            grants += t.grants;
            granted += t.granted;
        }
        self.pool = remaining;
        if cuts > 0 {
            BALANCER_CUTS.add(cuts);
            BALANCER_HARVESTED_MW.add((harvested * 1e3).round() as u64);
        }
        if grants > 0 {
            BALANCER_GRANTS.add(grants);
            BALANCER_GRANTED_MW.add((granted * 1e3).round() as u64);
        }

        laps.lap(&GRANT_SECS);

        // Apply: one batched write of every live host whose target moved,
        // eliding bitwise no-op writes so a shard whose targets sit at a
        // fixed point never dirties its bank segment.
        let hosts = &self.hosts;
        let written = platform
            .set_host_limits(|h| {
                let state = hosts.get(h)?;
                let moved = state.target.value().to_bits() != state.programmed.value().to_bits();
                (!state.dead && moved).then_some(state.target)
            })
            .expect("targets stay within the settable range");
        if live > written {
            BALANCER_WRITES_SKIPPED.add((live - written) as u64);
        }
        laps.lap(&APPLY_SECS);
        debug_assert!(
            self.hosts.iter().map(|h| h.target).sum::<Watts>() + self.pool
                <= self.budget + Watts(1e-6),
            "balancer must never exceed its budget"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmstack_kernel::{Imbalance, KernelConfig, KernelLoad, VectorWidth, WaitingFraction};
    use pmstack_simhw::{quartz_spec, FaultKind, Node, NodeId, PowerModel};

    /// A fleet with one host per `eps` entry in segments of `shard_hosts`,
    /// and a freshly initialised balancer holding `budget_per_host` each.
    /// The agent takes its shard size from the platform.
    fn start(
        config: KernelConfig,
        eps: &[f64],
        budget_per_host: f64,
        shard_hosts: usize,
    ) -> (PowerBalancerAgent, JobPlatform) {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let nodes = eps
            .iter()
            .enumerate()
            .map(|(i, &e)| Node::new(NodeId(i), &model, e).unwrap())
            .collect();
        let mut platform = JobPlatform::new(model, nodes, config).with_segment_hosts(shard_hosts);
        let mut agent = PowerBalancerAgent::new(Watts(budget_per_host * eps.len() as f64));
        agent.init(&mut platform);
        (agent, platform)
    }

    fn run(agent: &mut PowerBalancerAgent, platform: &mut JobPlatform, iterations: usize) {
        for _ in 0..iterations {
            let out = platform.run_iteration();
            agent.adjust(platform, &out);
        }
    }

    /// Every policy test runs as one shard and split into two-host shards.
    fn shard_sizes(eps: &[f64]) -> [usize; 2] {
        assert!(eps.len() > 2, "a two-host shard must split the fleet");
        [eps.len(), 2]
    }

    fn total(agent: &PowerBalancerAgent) -> Watts {
        agent.targets().iter().copied().sum::<Watts>() + agent.pool()
    }

    #[test]
    fn converges_to_needed_power_under_ample_budget() {
        // Heavy waiting: lots of harvestable slack. Under a TDP-level
        // budget the balancer should settle near the workload's needed
        // power, well below the uniform share.
        let config =
            KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P75, Imbalance::TwoX);
        let (mut agent, mut platform) = start(config, &[1.0, 1.0], 240.0, 2);
        run(&mut agent, &mut platform, 120);
        let load = KernelLoad::new(config, platform.model().spec());
        let needed = load.needed_power(platform.model(), 1.0);
        for t in agent.targets() {
            assert!(
                (t.value() - needed.value()).abs() < 16.0,
                "target {t} should approach needed {needed} (search breathes around the optimum)"
            );
        }
        // The harvested surplus sits unspent in the pool.
        assert!(agent.pool().value() > 50.0);
    }

    #[test]
    fn balanced_workload_keeps_its_power() {
        // Balanced, compute-heavy: needed == used; probing must back off
        // near the used power, not collapse to the floor.
        let config = KernelConfig::balanced_ymm(16.0);
        let (mut agent, mut platform) = start(config, &[1.0], 240.0, 1);
        run(&mut agent, &mut platform, 120);
        let load = KernelLoad::new(config, platform.model().spec());
        let used = load.used_power(platform.model(), 1.0);
        let t = agent.targets()[0];
        assert!(
            t.value() > used.value() - 12.0,
            "target {t} collapsed below used {used}"
        );
    }

    #[test]
    fn scarcity_shifts_power_to_inefficient_nodes_and_equalizes_epoch_times() {
        // Tight budget; efficient and inefficient hosts alternate, so every
        // two-host shard holds one of each. The inefficient
        // (slower-under-cap) nodes must end up with more power.
        let eps = [0.94, 1.07, 0.94, 1.07];
        for shard in shard_sizes(&eps) {
            let (mut agent, mut platform) =
                start(KernelConfig::balanced_ymm(16.0), &eps, 170.0, shard);
            run(&mut agent, &mut platform, 200);
            for pair in agent.targets().chunks(2) {
                assert!(
                    pair[1].value() > pair[0].value() + 2.0,
                    "shard {shard}: inefficient node got {} vs efficient {}",
                    pair[1],
                    pair[0]
                );
            }
            // Let enforcement settle on the final targets, then compare.
            for _ in 0..40 {
                platform.run_iteration();
            }
            let times = platform.run_iteration().host_compute_time;
            let slowest = times.iter().copied().fold(Seconds::ZERO, Seconds::max);
            for t in &times {
                assert!(
                    (slowest.value() - t.value()) / slowest.value() < 0.06,
                    "shard {shard}: epoch times {t} vs {slowest} should be near-equal"
                );
            }
        }
    }

    #[test]
    fn one_shard_and_many_shards_reach_the_same_policy_fixed_point() {
        // The shard boundary only moves where a grant quota is cut, never
        // what the policy converges to: same per-host ordering and targets
        // within a few probe steps of each other.
        let config = KernelConfig::balanced_ymm(16.0);
        let eps = [0.94, 1.0, 1.07, 0.97];
        let [whole, split] = shard_sizes(&eps).map(|shard| {
            let (mut agent, mut platform) = start(config, &eps, 170.0, shard);
            run(&mut agent, &mut platform, 250);
            agent.targets()
        });
        for (h, (a, b)) in whole.iter().zip(&split).enumerate() {
            assert!(
                (a.value() - b.value()).abs() < 12.0,
                "host {h}: one shard {a} vs two shards {b} diverged"
            );
        }
    }

    #[test]
    fn dead_host_returns_its_power_to_the_survivors() {
        // Tight budget, three hosts. Kill one mid-run: the balancer must
        // not panic, must zero the dead host's target, and the survivors
        // end up with more power than their original scarce share.
        let eps = [1.0, 1.0, 1.0];
        for shard in shard_sizes(&eps) {
            let (mut agent, mut platform) =
                start(KernelConfig::balanced_ymm(16.0), &eps, 160.0, shard);
            run(&mut agent, &mut platform, 40);
            platform.inject_fault(2, FaultKind::NodeDeath);
            run(&mut agent, &mut platform, 80);
            let t = agent.targets();
            assert_eq!(t[2], Watts::ZERO, "dead host's target is zeroed");
            for &survivor in &t[..2] {
                assert!(
                    survivor.value() > 165.0,
                    "shard {shard}: survivor holds {survivor}, should exceed the scarce 160 W share"
                );
            }
            assert!(
                total(&agent) <= Watts(3.0 * 160.0 + 1e-6),
                "budget is conserved"
            );
        }
    }

    #[test]
    fn stale_telemetry_holds_the_last_known_cap() {
        let config =
            KernelConfig::new(8.0, VectorWidth::Ymm, WaitingFraction::P50, Imbalance::TwoX);
        let eps = [1.0, 1.0, 1.0];
        for shard in shard_sizes(&eps) {
            let (mut agent, mut platform) = start(config, &eps, 200.0, shard);
            run(&mut agent, &mut platform, 30);
            let held = agent.targets()[0];
            platform.inject_fault(0, FaultKind::TelemetryDropout { iterations: 5 });
            for _ in 0..5 {
                let out = platform.run_iteration();
                assert!(!out.host_fresh[0]);
                agent.adjust(&mut platform, &out);
                assert_eq!(
                    agent.targets()[0],
                    held,
                    "blind host's cap must not move on stale data"
                );
            }
            // Fresh telemetry resumes the search.
            let out = platform.run_iteration();
            assert!(out.host_fresh[0]);
            agent.adjust(&mut platform, &out);
        }
    }

    #[test]
    fn never_exceeds_budget() {
        let config = KernelConfig::new(
            4.0,
            VectorWidth::Ymm,
            WaitingFraction::P25,
            Imbalance::ThreeX,
        );
        let eps = [1.0, 0.95, 1.05];
        for shard in shard_sizes(&eps) {
            let (mut agent, mut platform) = start(config, &eps, 180.0, shard);
            run(&mut agent, &mut platform, 150);
            assert!(total(&agent) <= Watts(180.0 * 3.0 + 1e-6));
        }
    }

    #[test]
    fn budget_below_the_hardware_floor_holds_the_floor() {
        // 40 W/host is under the RAPL floor: `init` has to clamp every host
        // up to it, so the targets exceed the asked budget from the first
        // interval. The agent accounts for the floor total instead — no
        // debug assertion, nothing harvested below the floor.
        let eps = [1.0, 1.0];
        let (mut agent, mut platform) = start(KernelConfig::balanced_ymm(16.0), &eps, 40.0, 2);
        let floor = platform.model().spec().min_rapl_per_node();
        assert!(floor > Watts(40.0));
        run(&mut agent, &mut platform, 20);
        assert_eq!(agent.targets(), vec![floor, floor]);
        assert_eq!(agent.budget(), Some(floor * 2.0));
        assert!(total(&agent) <= floor * 2.0 + Watts(1e-6));
    }

    #[test]
    fn write_elision_lets_the_platform_settle() {
        // Uniform fleet, balanced workload, scarce budget: every host is
        // throttled and on the critical path, so after the pool drains the
        // targets freeze. Rewriting the same limits would dirty every
        // segment each interval; with those writes elided the platform's
        // steady-state fast-forward must engage *while the agent is still
        // running*.
        let eps = [1.0, 1.0, 1.0, 1.0];
        for shard in shard_sizes(&eps) {
            let (mut agent, mut platform) =
                start(KernelConfig::balanced_ymm(16.0), &eps, 150.0, shard);
            let mut settled = false;
            for _ in 0..300 {
                run(&mut agent, &mut platform, 1);
                if platform.steady_state_active() {
                    settled = true;
                    break;
                }
            }
            assert!(
                settled,
                "shard {shard}: write elision should let steady-state replay engage under a live agent"
            );
        }
    }

    #[test]
    fn parallel_pass_is_bit_identical_to_the_sequential_one() {
        // Five one-host shards (more than this box has workers), a scarce
        // budget so the grant quotas bind, and a host dying mid-run.
        let run_once = || {
            let eps = [0.94, 1.0, 1.07, 0.97, 1.03];
            let (mut agent, mut platform) = start(KernelConfig::balanced_ymm(16.0), &eps, 170.0, 1);
            run(&mut agent, &mut platform, 30);
            platform.inject_fault(3, FaultKind::NodeDeath);
            run(&mut agent, &mut platform, 60);
            let bits: Vec<u64> = agent
                .targets()
                .iter()
                .map(|t| t.value().to_bits())
                .collect();
            (bits, agent.pool().value().to_bits())
        };
        assert_eq!(run_once(), pmstack_exec::sequential_scope(run_once));
    }
}
