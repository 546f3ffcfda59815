//! The fleet step loop: one dedicated thread drives the simulated
//! platform so request threads never have to.
//!
//! Each tick the loop (1) drains the admission plane's queued cap
//! programs into the platform, (2) runs one iteration, and (3) publishes a
//! fresh [`FleetSnapshot`] behind an `Arc` swap. `/metrics` and `/stream`
//! read whatever snapshot is current — consistent, lock-held for
//! nanoseconds, and never blocking on a 100k-host iteration in progress.

use crate::admission::Admission;
use pmstack_kernel::KernelConfig;
use pmstack_obs::{StaticCounter, StaticGauge};
use pmstack_runtime::{FleetSnapshot, IterationBuffers, JobPlatform};
use pmstack_simhw::{quartz_spec, NodeId, PowerModel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

static TICKS: StaticCounter = StaticCounter::new("pmstackd.fleet.ticks");
static CAP_OPS: StaticCounter = StaticCounter::new("pmstackd.fleet.cap_ops");
static POWER: StaticGauge = StaticGauge::new("pmstackd.fleet.power_w");
static ALIVE: StaticGauge = StaticGauge::new("pmstackd.fleet.alive");
static STEADY: StaticGauge = StaticGauge::new("pmstackd.fleet.steady");

/// Deterministic manufacturing-variation spread for the served fleet; the
/// same formula the megafleet scenario uses, so serving-plane results are
/// comparable with the batch benchmarks.
pub fn eps_of(i: usize) -> f64 {
    0.92 + 0.012 * ((i * 31) % 16) as f64
}

/// Configuration of the served fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Fleet size.
    pub hosts: usize,
    /// Sleep between step-loop ticks.
    pub tick_interval: Duration,
    /// Override the bank's segment size (tests use small segments).
    pub segment_hosts: Option<usize>,
}

/// Handle to the running step loop.
pub struct Fleet {
    latest: Arc<Mutex<Arc<FleetSnapshot>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    model: PowerModel,
    host_eps: Vec<f64>,
}

impl Fleet {
    /// Build the platform, publish an initial snapshot, and start the step
    /// loop. The loop drains `admission.tick()` before every iteration.
    pub fn spawn(config: FleetConfig, admission: Arc<Mutex<Admission>>) -> Self {
        let model = PowerModel::new(quartz_spec()).expect("quartz spec is valid");
        let host_eps: Vec<f64> = (0..config.hosts).map(eps_of).collect();
        let mut platform = build_platform(&config, &model, &host_eps);

        let initial = Arc::new(platform.fleet_snapshot(&Default::default()));
        let latest = Arc::new(Mutex::new(initial));
        let stop = Arc::new(AtomicBool::new(false));

        let thread = {
            let latest = Arc::clone(&latest);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("pmstackd-fleet".into())
                .spawn(move || {
                    let mut bufs = IterationBuffers::new();
                    while !stop.load(Ordering::Acquire) {
                        let ops = admission.lock().expect("admission lock").tick();
                        for (host, cap) in &ops {
                            // Expiry of a host that died mid-lease can race a
                            // removed node; programming failures are expected
                            // there and must not kill the loop.
                            let _ = platform.set_host_limit(*host, *cap);
                        }
                        CAP_OPS.add(ops.len() as u64);
                        let snap = Arc::new(tick(&mut platform, &mut bufs));
                        POWER.set(snap.power_w);
                        ALIVE.set(snap.alive as f64);
                        STEADY.set(if snap.steady { 1.0 } else { 0.0 });
                        TICKS.inc();
                        *latest.lock().expect("snapshot lock") = snap;
                        if !config.tick_interval.is_zero() {
                            std::thread::sleep(config.tick_interval);
                        }
                    }
                })
                .expect("spawn fleet thread")
        };

        Self {
            latest,
            stop,
            thread: Some(thread),
            model,
            host_eps,
        }
    }

    /// The most recently published snapshot (cheap: one Arc clone).
    pub fn latest(&self) -> Arc<FleetSnapshot> {
        Arc::clone(&self.latest.lock().expect("snapshot lock"))
    }

    /// The power model the fleet was built from.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Per-host efficiency factors, index-aligned with host ids.
    pub fn host_eps(&self) -> &[f64] {
        &self.host_eps
    }

    /// Render one snapshot as a single JSON object (one stream frame).
    pub fn snapshot_json(snap: &FleetSnapshot, tick: u64) -> String {
        format!(
            "{{\"tick\":{},\"hosts\":{},\"alive\":{},\"segments\":{},\
             \"elapsed_s\":{:.6},\"steady\":{},\"energy_j\":{:.3},\
             \"power_w\":{:.3},\"iteration_s\":{:.6}}}",
            tick,
            snap.hosts,
            snap.alive,
            snap.segments,
            snap.elapsed_s,
            snap.steady,
            snap.energy_j,
            snap.power_w,
            snap.iteration_s
        )
    }

    /// Stop and join the step loop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The served platform: one node per entry of `host_eps`, on the replay
/// path.
fn build_platform(config: &FleetConfig, model: &PowerModel, host_eps: &[f64]) -> JobPlatform {
    let hosts: Vec<(NodeId, f64)> = (host_eps.iter().enumerate())
        .map(|(i, &e)| (NodeId(i), e))
        .collect();
    let mut platform =
        JobPlatform::from_hosts(model.clone(), &hosts, KernelConfig::balanced_ymm(8.0))
            .expect("eps is in range");
    if let Some(sh) = config.segment_hosts {
        platform = platform.with_segment_hosts(sh);
    }
    platform.set_fast_forward(true);
    platform
}

/// One tick's platform work: an iteration, then the snapshot.
///
/// The tick has its whole interval to finish while the request workers
/// want every core, so the loop never fans out: splitting the fleet's step
/// across the exec pool cost ~9 % closed-loop submit throughput on a 2-vCPU
/// host, with a 50 µs or a 5 µs spin budget. The snapshot reads every
/// host's energy, so the tick writes the iteration's replay counts into the
/// cells first: each read stays one add per cell instead of growing with
/// how long the fleet has been steady.
fn tick(platform: &mut JobPlatform, bufs: &mut IterationBuffers) -> FleetSnapshot {
    pmstack_exec::sequential_scope(|| platform.run_iteration_into(bufs));
    platform.apply_pending_replays();
    platform.fleet_snapshot(bufs.outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AppClass, SubmitRequest};
    use pmstack_core::PolicyKind;
    use pmstack_simhw::Watts;

    fn small_fleet() -> (Fleet, Arc<Mutex<Admission>>) {
        let model = PowerModel::new(quartz_spec()).unwrap();
        let eps: Vec<f64> = (0..8).map(eps_of).collect();
        let admission = Arc::new(Mutex::new(Admission::new(
            model,
            eps,
            Watts(240.0 * 8.0),
            3,
            8,
        )));
        let fleet = Fleet::spawn(
            FleetConfig {
                hosts: 8,
                tick_interval: Duration::from_millis(1),
                segment_hosts: None,
            },
            Arc::clone(&admission),
        );
        (fleet, admission)
    }

    #[test]
    fn step_loop_publishes_progressing_snapshots() {
        let (fleet, _admission) = small_fleet();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let snap = fleet.latest();
            if snap.elapsed_s > 0.0 && snap.energy_j > 0.0 {
                assert_eq!(snap.hosts, 8);
                assert_eq!(snap.alive, 8);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "loop never ticked");
            std::thread::sleep(Duration::from_millis(2));
        }
        fleet.shutdown();
    }

    #[test]
    fn admission_caps_reach_the_platform_via_tick() {
        let (fleet, admission) = small_fleet();
        let grant = admission
            .lock()
            .unwrap()
            .submit(&SubmitRequest {
                app: AppClass::Balanced,
                nodes: 2,
                policy: PolicyKind::StaticCaps,
                class: None,
            })
            .unwrap();
        assert_eq!(grant.nodes.len(), 2);
        // The loop drains the ops within a few ticks; afterwards the job
        // expires (TTL 3) and its watts return.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if admission.lock().unwrap().ledger().reserved() == Watts::ZERO {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "grant never expired");
            std::thread::sleep(Duration::from_millis(2));
        }
        fleet.shutdown();
    }

    /// The tick writes replay counts into the cells every iteration; a
    /// platform that never does must read the same energy, bit for bit,
    /// after any number of settled iterations.
    #[test]
    fn applying_replays_every_tick_reads_what_counting_them_does() {
        let config = FleetConfig {
            hosts: 40,
            tick_interval: Duration::ZERO,
            segment_hosts: Some(4),
        };
        let model = PowerModel::new(quartz_spec()).unwrap();
        let eps: Vec<f64> = (0..config.hosts).map(eps_of).collect();
        let mut ticked = build_platform(&config, &model, &eps);
        let mut counted = build_platform(&config, &model, &eps);
        let (mut bufs_t, mut bufs_c) = (IterationBuffers::new(), IterationBuffers::new());
        let energy = |p: &JobPlatform| -> Vec<u64> {
            p.host_energy()
                .iter()
                .map(|e| e.value().to_bits())
                .collect()
        };
        for i in 0..1500 {
            let snap = tick(&mut ticked, &mut bufs_t);
            counted.run_iteration_into(&mut bufs_c);
            if i % 100 == 99 {
                let want = counted.fleet_snapshot(bufs_c.outcome());
                assert_eq!(snap.energy_j.to_bits(), want.energy_j.to_bits(), "tick {i}");
                assert_eq!(energy(&ticked), energy(&counted), "tick {i}");
            }
        }
        assert!(counted.steady_state_active(), "the fleet settled");
    }

    #[test]
    fn snapshot_json_is_parseable_and_complete() {
        let snap = FleetSnapshot {
            hosts: 8,
            alive: 7,
            segments: 1,
            elapsed_s: 1.25,
            steady: true,
            energy_j: 1234.5,
            power_w: 987.6,
            iteration_s: 0.5,
        };
        let doc = Fleet::snapshot_json(&snap, 42);
        let v = crate::json::parse(doc.as_bytes()).unwrap();
        assert_eq!(v.get("tick").and_then(|x| x.as_f64()), Some(42.0));
        assert_eq!(v.get("hosts").and_then(|x| x.as_f64()), Some(8.0));
        assert_eq!(v.get("alive").and_then(|x| x.as_f64()), Some(7.0));
        assert_eq!(v.get("steady"), Some(&crate::json::Value::Bool(true)));
        assert_eq!(v.get("power_w").and_then(|x| x.as_f64()), Some(987.6));
    }
}
