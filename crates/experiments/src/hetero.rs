//! The heterogeneous-fleet scenario (`repro hetero`).
//!
//! Runs the five §III policies twice — once on a homogeneous one-class
//! fleet and once on a three-class fleet (quartz / skylake_sp / stout) —
//! with the full multi-domain power plumbing live:
//!
//! * every job is characterized **per (app, class)** pair
//!   ([`JobChar::analytic_classed`]), so the same application carries
//!   different used/needed numbers on each class;
//! * the policy's per-host caps are admitted through the resource
//!   manager's [`DomainLedger`], splitting each job's node grant into
//!   PKG-rest / PP0 / DRAM domain budgets;
//! * every job runs on one class, so each job's hosts are one [`NodeBank`]
//!   of that class's part (its own column segments and PP0/DRAM cells);
//!   each tick every bank steps at the fleet-wide `dt`, the
//!   [`DomainBalancer`] shifts watts between domains within hosts, planning
//!   from each host's per-domain draw at its operating point, and the
//!   shifted splits are reprogrammed into the simulated PP0/DRAM limit
//!   MSRs;
//! * **every tick** asserts the ledger's containment chain —
//!   Σ domain grants = node grant per job and Σ node grants ≤ fleet
//!   budget — so a per-domain oversubscription anywhere aborts the run.
//!
//! The scenario is deterministic: no jitter, fixed eps spread, analytic
//! characterization, and all rendered aggregates fold in fleet order.

use pmstack_core::{apply_job_runtime, policies, Allocation, JobChar, PolicyCtx, PolicyKind};
use pmstack_kernel::{Imbalance, KernelConfig, KernelLoad, VectorWidth, WaitingFraction};
use pmstack_rm::{DomainGrant, DomainLedger, JobId};
use pmstack_runtime::DomainBalancer;
use pmstack_simhw::{
    standard_classes, ClassId, ClassModels, HostStep, Node, NodeBank, NodeClass, NodeId,
    RaplDomain, Seconds, Watts,
};
use std::ops::Range;

/// Scale knobs of the hetero scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeteroParams {
    /// Hosts per (app, class) job.
    pub hosts_per_job: usize,
    /// Control ticks per policy run.
    pub ticks: usize,
    /// Fleet budget as a fraction of the fleet's summed class TDPs. Scarce
    /// enough that static uniform capping strands watts on the low-TDP
    /// class while the adaptive policies reallocate them.
    pub budget_frac: f64,
}

impl HeteroParams {
    /// Default scale: the golden-file configuration.
    pub fn default_scale() -> Self {
        Self {
            hosts_per_job: 6,
            ticks: 60,
            budget_frac: 0.72,
        }
    }

    /// Reduced scale for quick checks (`--fast`).
    pub fn fast() -> Self {
        Self {
            hosts_per_job: 3,
            ticks: 25,
            budget_frac: 0.72,
        }
    }
}

/// The two applications every class runs: a compute-bound solver and a
/// communication-heavy, imbalanced exchange.
fn apps() -> [(&'static str, KernelConfig); 2] {
    [
        ("compute", KernelConfig::balanced_ymm(16.0)),
        (
            "exchange",
            KernelConfig::new(4.0, VectorWidth::Ymm, WaitingFraction::P50, Imbalance::TwoX),
        ),
    ]
}

/// Deterministic manufacturing-variation spread.
fn eps_of(i: usize) -> f64 {
    0.94 + 0.01 * ((i * 7) % 13) as f64
}

/// One policy's outcome on one fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// The policy.
    pub policy: PolicyKind,
    /// Mean job elapsed time over the run, seconds.
    pub mean_elapsed: f64,
    /// Total fleet energy, joules.
    pub energy_j: f64,
    /// Node watts the ledger admitted, as a percentage of the budget.
    pub pct_of_budget: f64,
    /// Within-host domain shifts the balancer applied over the run.
    pub domain_shifts: u64,
}

/// One fleet's five-policy comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet label (`homogeneous`, `3-class`).
    pub fleet: &'static str,
    /// Node classes backing the fleet.
    pub classes: Vec<String>,
    /// Total hosts.
    pub hosts: usize,
    /// The fleet power budget.
    pub budget: Watts,
    /// One row per policy, [`PolicyKind::all`] order.
    pub rows: Vec<PolicyRow>,
}

/// The full scenario result.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroReport {
    /// Homogeneous fleet first, then the three-class fleet.
    pub fleets: Vec<FleetReport>,
}

/// One job: an app pinned to one class's sub-fleet.
struct JobPlan {
    config: KernelConfig,
    class: ClassId,
    /// Global host indices; slot `k` of the job's bank is host
    /// `hosts.start + k`.
    hosts: Range<usize>,
}

struct Fleet {
    label: &'static str,
    classes: Vec<NodeClass>,
    jobs: Vec<JobPlan>,
    membership: Vec<ClassId>,
    eps: Vec<f64>,
}

fn build_fleet(label: &'static str, classes: Vec<NodeClass>, hosts_per_job: usize) -> Fleet {
    let mut jobs = Vec::new();
    let mut membership = Vec::new();
    let mut eps = Vec::new();
    for (_, config) in apps() {
        for c in 0..classes.len() {
            let base = membership.len();
            let hosts = base..base + hosts_per_job;
            for h in hosts.clone() {
                membership.push(ClassId(c));
                eps.push(eps_of(h));
            }
            jobs.push(JobPlan {
                config,
                class: ClassId(c),
                hosts,
            });
        }
    }
    Fleet {
        label,
        classes,
        jobs,
        membership,
        eps,
    }
}

/// Split a job's node grant into per-domain wants from its class's domain
/// configuration: PP0 gets its plane fraction, DRAM its fixed draw per
/// host, PKG-rest the remainder. A PKG-only class keeps everything in
/// PKG-rest.
fn domain_want(class: &NodeClass, total: Watts, hosts: usize) -> DomainGrant {
    match &class.domains {
        Some(cfg) => {
            let pp0 = total * cfg.pp0_fraction;
            let dram = Watts(
                (cfg.dram_power.value() * hosts as f64)
                    .min(total.value() - pp0.value())
                    .max(0.0),
            );
            [total - pp0 - dram, pp0, dram]
        }
        None => [total, Watts::ZERO, Watts::ZERO],
    }
}

/// Run one policy on one fleet.
fn run_policy(
    fleet: &Fleet,
    policy: PolicyKind,
    params: &HeteroParams,
    budget: Watts,
) -> PolicyRow {
    let models = ClassModels::new(&fleet.classes).expect("classes are valid");
    // One bank per job: a job is class-pure, so its hosts are one part.
    let mut banks: Vec<NodeBank> = (fleet.jobs.iter())
        .map(|j| {
            let (class, model) = (&fleet.classes[j.class.0], models.model(j.class));
            let nodes = (j.hosts.clone())
                .map(|h| Node::with_class(NodeId(h), j.class, class, model, fleet.eps[h]))
                .collect::<Result<_, _>>()
                .expect("fleet layout is valid");
            NodeBank::from_nodes(nodes)
        })
        .collect();
    let n = fleet.membership.len();

    // Per-(app, class) characterization, one JobChar per job.
    let chars: Vec<JobChar> = fleet
        .jobs
        .iter()
        .map(|j| {
            let eps = &fleet.eps[j.hosts.clone()];
            let membership = vec![j.class; eps.len()];
            JobChar::analytic_classed(j.config, &models, &membership, eps)
        })
        .collect();

    // The policy works in the widest settable envelope; each host's cap is
    // then clamped into its own class's range below.
    let min_node = fleet
        .classes
        .iter()
        .map(|c| c.spec.min_rapl_per_node())
        .fold(Watts(f64::MAX), Watts::min);
    let tdp_node = fleet
        .classes
        .iter()
        .map(|c| c.spec.tdp_per_node())
        .fold(Watts::ZERO, Watts::max);
    let ctx = PolicyCtx {
        system_budget: budget,
        min_node,
        tdp_node,
    };
    let policy_impl = policies::by_kind(policy);
    let mut alloc = policy_impl.allocate(&ctx, &chars);
    if policy_impl.application_aware() {
        alloc = apply_job_runtime(&alloc, &chars, &ctx);
    }
    clamp_to_classes(&mut alloc, fleet);

    // Admission: every job's node grant splits into per-domain budgets.
    // Zero floor = degraded admission; an over-subscribing policy (the
    // paper's Precharacterized) gets partial grants instead of free watts.
    let mut ledger = DomainLedger::new(budget);
    let mut admitted = Watts::ZERO;
    for (j, plan) in fleet.jobs.iter().enumerate() {
        let want_total = alloc.job_total(j);
        let class = &fleet.classes[plan.class.0];
        let want = domain_want(class, want_total, plan.hosts.len());
        let granted = ledger
            .reserve_domains(JobId(j as u64), want, Watts::ZERO)
            .expect("zero-floor admission cannot overcommit");
        let total: Watts = granted.iter().copied().sum();
        admitted += total;
        // Scale the job's host caps onto what the ledger actually granted.
        let scale = if want_total > Watts::ZERO {
            (total / want_total.value()).value()
        } else {
            0.0
        };
        let bank = &mut banks[j];
        for slot in 0..plan.hosts.len() {
            let cap = (alloc.jobs[j][slot] * scale)
                .clamp(class.spec.min_rapl_per_node(), class.spec.tdp_per_node());
            bank.set_power_limit(slot, cap)
                .expect("cap is in class range");
        }
        program_domain_limits(bank, class, &granted);
    }

    // Per-job loads are (app, class) pairs too.
    let loads: Vec<KernelLoad> = fleet
        .jobs
        .iter()
        .map(|j| KernelLoad::new(j.config, models.model(j.class).spec()))
        .collect();
    let job_of: Vec<usize> = {
        let mut v = vec![0usize; n];
        for (j, plan) in fleet.jobs.iter().enumerate() {
            v[plan.hosts.clone()].fill(j);
        }
        v
    };

    let balancer = DomainBalancer::new();
    let mut ops = vec![None; n];
    let mut results = vec![HostStep::Skipped; n];
    let mut job_elapsed = vec![0.0f64; fleet.jobs.len()];
    let mut domain_shifts = 0u64;

    for _ in 0..params.ticks {
        let mut dt = Seconds::ZERO;
        let mut job_tick = vec![0.0f64; fleet.jobs.len()];
        for (j, (plan, bank)) in fleet.jobs.iter().zip(&banks).enumerate() {
            let model = models.model(plan.class);
            for (slot, h) in plan.hosts.clone().enumerate() {
                let op = bank.operating_point(slot, model, &loads[j]);
                let t = loads[j].iteration_time(&op);
                dt = dt.max(t);
                job_tick[j] = job_tick[j].max(t.value());
                ops[h] = Some(op);
            }
        }
        for (e, t) in job_elapsed.iter_mut().zip(&job_tick) {
            *e += t;
        }
        for (plan, bank) in fleet.jobs.iter().zip(&mut banks) {
            let hosts = plan.hosts.clone();
            bank.step_all(dt, &ops[hosts.clone()], &mut results[hosts], false);
        }

        // Each host's per-domain draw at its operating point is its demand
        // on the within-host balancer; grants are each host's even share of
        // its job's domain split.
        let mut grants = vec![[Watts::ZERO; 3]; n];
        let mut demands = vec![[Watts::ZERO; 3]; n];
        for h in 0..n {
            let j = job_of[h];
            let plan = &fleet.jobs[j];
            let split = ledger.grant(JobId(j as u64)).expect("job admitted");
            let share = 1.0 / plan.hosts.len() as f64;
            grants[h] = [split[0] * share, split[1] * share, split[2] * share];
            let power = ops[h].as_ref().map_or(Watts::ZERO, |op| op.power);
            let class = &fleet.classes[plan.class.0];
            demands[h] = match &class.domains {
                Some(cfg) => {
                    let pp0 = power * cfg.pp0_fraction;
                    let dram = if power > Watts::ZERO {
                        Watts(cfg.dram_power.value() * class.spec.sockets_per_node as f64)
                    } else {
                        Watts::ZERO
                    };
                    [power - pp0 - dram, pp0, dram]
                }
                None => [power, Watts::ZERO, Watts::ZERO],
            };
        }
        let shifts = balancer.plan(&grants, &demands);
        let mut touched: Vec<usize> = Vec::new();
        for s in &shifts {
            let j = job_of[s.host];
            let moved = ledger.shift(JobId(j as u64), s.from, s.to, s.watts);
            if moved > Watts::ZERO {
                domain_shifts += 1;
                if !touched.contains(&j) {
                    touched.push(j);
                }
            }
        }
        for &j in &touched {
            let granted = ledger.grant(JobId(j as u64)).expect("job admitted");
            let class = &fleet.classes[fleet.jobs[j].class.0];
            program_domain_limits(&mut banks[j], class, &granted);
        }

        // The per-tick oversubscription gate: Σ domain grants = node grant
        // for every job, Σ node grants ≤ fleet budget.
        ledger
            .check_invariants()
            .expect("per-domain budgets oversubscribed");
    }

    let energy_j: f64 = (banks.iter().flat_map(NodeBank::energies))
        .map(|e| e.value())
        .sum();
    let mean_elapsed = job_elapsed.iter().sum::<f64>() / job_elapsed.len() as f64;
    PolicyRow {
        policy,
        mean_elapsed,
        energy_j,
        pct_of_budget: 100.0 * admitted.value() / budget.value(),
        domain_shifts,
    }
}

/// Clamp every host's cap into its own class's settable range (the policy
/// allocated in the widest envelope).
fn clamp_to_classes(alloc: &mut Allocation, fleet: &Fleet) {
    for (j, plan) in fleet.jobs.iter().enumerate() {
        let spec = &fleet.classes[plan.class.0].spec;
        for cap in &mut alloc.jobs[j] {
            *cap = cap.clamp(spec.min_rapl_per_node(), spec.tdp_per_node());
        }
    }
}

/// Program each host of a job's bank with its PP0/DRAM limit registers from
/// its even share of the job's domain split. PKG-only classes have no
/// sub-domain registers; the node-level PKG limit already carries their
/// whole grant.
fn program_domain_limits(bank: &mut NodeBank, class: &NodeClass, granted: &DomainGrant) {
    if class.domains.is_none() {
        return;
    }
    let share = 1.0 / bank.len() as f64;
    for h in 0..bank.len() {
        for (d, want) in [
            (RaplDomain::Pp0, granted[RaplDomain::Pp0.index()] * share),
            (RaplDomain::Dram, granted[RaplDomain::Dram.index()] * share),
        ] {
            // The plane clamps into its own range; a healthy host never
            // rejects, and a stuck plane latching is not an error here.
            let _ = bank.set_domain_limit(h, d, want);
        }
    }
}

/// Run the scenario: all five policies on the homogeneous fleet, then on
/// the three-class fleet.
pub fn run_hetero(params: &HeteroParams) -> HeteroReport {
    let all = standard_classes();
    let fleets = [
        build_fleet("homogeneous", vec![all[0].clone()], params.hosts_per_job),
        build_fleet("3-class", all.to_vec(), params.hosts_per_job),
    ];
    let reports: Vec<FleetReport> = fleets
        .iter()
        .map(|fleet| {
            let budget = Watts(
                fleet
                    .membership
                    .iter()
                    .map(|c| fleet.classes[c.0].spec.tdp_per_node().value())
                    .sum::<f64>()
                    * params.budget_frac,
            );
            let rows = PolicyKind::all()
                .iter()
                .map(|&policy| run_policy(fleet, policy, params, budget))
                .collect();
            FleetReport {
                fleet: fleet.label,
                classes: fleet.classes.iter().map(|c| c.name.clone()).collect(),
                hosts: fleet.membership.len(),
                budget,
                rows,
            }
        })
        .collect();
    HeteroReport { fleets: reports }
}

/// Render the report as a text artifact (byte-stable across runs).
pub fn render(report: &HeteroReport) -> String {
    use pmstack_analysis::render::table;
    use std::fmt::Write as _;
    let mut out = String::from("HETEROGENEOUS FLEET: 5 POLICIES x {homogeneous, 3-class}\n");
    for f in &report.fleets {
        let _ = write!(
            out,
            "\n{} fleet: {} hosts [{}], budget {:.0} W\n",
            f.fleet,
            f.hosts,
            f.classes.join(", "),
            f.budget.value(),
        );
        let header = ["policy", "elapsed_s", "energy_J", "%budget", "dom_shifts"];
        let rows: Vec<Vec<String>> = f
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.to_string(),
                    format!("{:.4}", r.mean_elapsed),
                    format!("{:.1}", r.energy_j),
                    format!("{:.1}", r.pct_of_budget),
                    r.domain_shifts.to_string(),
                ]
            })
            .collect();
        out.push_str(&table(&header, &rows));
        out.push('\n');
    }
    out.push_str(
        "\nper-tick ledger invariant held: sum(domain grants) = node grant <= fleet budget\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_both_fleets_under_all_policies() {
        pmstack_obs::enable();
        let report = run_hetero(&HeteroParams::fast());
        assert_eq!(report.fleets.len(), 2);
        assert_eq!(report.fleets[0].fleet, "homogeneous");
        assert_eq!(report.fleets[1].fleet, "3-class");
        assert_eq!(report.fleets[1].classes.len(), 3);
        for f in &report.fleets {
            assert_eq!(f.rows.len(), 5);
            for r in &f.rows {
                assert!(r.mean_elapsed > 0.0, "{} {}", f.fleet, r.policy);
                assert!(r.energy_j > 0.0);
                assert!(r.pct_of_budget <= 100.0 + 1e-6, "{} {}", f.fleet, r.policy);
            }
        }
    }

    #[test]
    fn mixed_adaptive_beats_static_uniform_capping_on_the_3_class_fleet() {
        let report = run_hetero(&HeteroParams::fast());
        let hetero = &report.fleets[1];
        let row = |p: PolicyKind| hetero.rows.iter().find(|r| r.policy == p).unwrap();
        let static_caps = row(PolicyKind::StaticCaps);
        let mixed = row(PolicyKind::MixedAdaptive);
        assert!(
            mixed.mean_elapsed < static_caps.mean_elapsed,
            "MixedAdaptive {:.4}s should beat StaticCaps {:.4}s on the 3-class fleet",
            mixed.mean_elapsed,
            static_caps.mean_elapsed
        );
    }

    #[test]
    fn domain_balancer_finds_work_on_the_domain_fleet() {
        let report = run_hetero(&HeteroParams::fast());
        let shifts: u64 = report.fleets[1].rows.iter().map(|r| r.domain_shifts).sum();
        assert!(
            shifts > 0,
            "no within-host domain shifts over the whole run"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_hetero(&HeteroParams::fast());
        let b = run_hetero(&HeteroParams::fast());
        for (fa, fb) in a.fleets.iter().zip(&b.fleets) {
            for (ra, rb) in fa.rows.iter().zip(&fb.rows) {
                assert_eq!(ra.mean_elapsed.to_bits(), rb.mean_elapsed.to_bits());
                assert_eq!(ra.energy_j.to_bits(), rb.energy_j.to_bits());
                assert_eq!(ra.domain_shifts, rb.domain_shifts);
            }
        }
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn render_names_every_policy_and_fleet() {
        let text = render(&run_hetero(&HeteroParams::fast()));
        for name in [
            "homogeneous",
            "3-class",
            "StaticCaps",
            "MixedAdaptive",
            "quartz",
            "skylake",
            "stout",
        ] {
            assert!(text.contains(name), "render missing {name}");
        }
    }
}
