//! Concurrency and saturation suite: the daemon under parallel clients,
//! plus property tests of the ledger invariants the admission plane rides
//! on. The single hard rule everywhere: the power ledger never
//! oversubscribes and reservations are conserved and unique.

mod common;

use common::{connect, get, post, read_response, send};
use pmstack_rm::{JobId, PowerLedger};
use pmstack_simhw::Watts;
use pmstackd::json::{self, Value};
use pmstackd::{Daemon, DaemonConfig};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::io::BufRead as _;
use std::sync::Arc;

const APPS: [&str; 5] = ["balanced", "compute", "memory", "wasteful", "imbalanced"];
const POLICIES: [&str; 4] = ["static", "prechar", "minwaste", "mixedadaptive"];

/// Hammer `/submit` from many threads, then audit the admission plane:
/// total reserved power within budget, utilization sane, every granted
/// node held by exactly one live job.
#[test]
fn concurrent_submits_never_oversubscribe() {
    let hosts = 64;
    let budget_w = 150.0 * hosts as f64;
    let daemon = Arc::new(
        Daemon::spawn(DaemonConfig {
            hosts,
            budget_per_host_w: 150.0,
            workers: 8,
            conn_capacity: 128,
            max_inflight: 64,
            tick_ms: 5,
            // Leases far outlive the test so every grant is still active
            // when we audit; expiry would otherwise hide double-grants.
            job_ttl_ticks: 1_000_000,
            max_nodes_per_job: 8,
            ..DaemonConfig::default()
        })
        .unwrap(),
    );

    let threads = 6;
    let per_thread = 25;
    let mut handles = Vec::new();
    for t in 0..threads {
        let daemon = Arc::clone(&daemon);
        handles.push(std::thread::spawn(move || {
            let mut grants = Vec::new();
            let mut rejected = 0usize;
            for i in 0..per_thread {
                let k = t * per_thread + i;
                let body = format!(
                    "{{\"app\":\"{}\",\"nodes\":{},\"policy\":\"{}\"}}",
                    APPS[k % APPS.len()],
                    (k % 4) + 1,
                    POLICIES[k % POLICIES.len()]
                );
                let resp = post(daemon.addr(), "/submit", &body);
                match resp.status {
                    200 => {
                        let v = json::parse(&resp.body).expect("grant is JSON");
                        let granted = v.get("granted_w").and_then(Value::as_f64).unwrap();
                        let Some(Value::Arr(nodes)) = v.get("nodes") else {
                            panic!("grant without nodes: {}", resp.body_str());
                        };
                        let ids: Vec<u64> = nodes
                            .iter()
                            .map(|n| n.as_f64().expect("node id is numeric") as u64)
                            .collect();
                        grants.push((granted, ids));
                    }
                    429 | 503 => rejected += 1,
                    other => panic!("unexpected status {other}: {}", resp.body_str()),
                }
            }
            (grants, rejected)
        }));
    }

    let mut all_grants = Vec::new();
    let mut rejected = 0;
    for handle in handles {
        let (grants, r) = handle.join().expect("client thread panicked");
        all_grants.extend(grants);
        rejected += r;
    }
    assert_eq!(
        all_grants.len() + rejected,
        threads * per_thread,
        "every request must be answered"
    );
    assert!(!all_grants.is_empty(), "at least some submits must land");

    // Uniqueness: with no expiry during the test, no node may appear in
    // two grants.
    let mut held = HashSet::new();
    for (_, nodes) in &all_grants {
        for &n in nodes {
            assert!(held.insert(n), "node {n} granted to two live jobs");
        }
    }

    // Conservation: the ledger agrees with the sum of what clients were
    // told (responses round to 0.1 W, hence the tolerance).
    let admission = daemon.admission();
    let admission = admission.lock().unwrap();
    let reserved = admission.ledger().reserved().value();
    let granted_sum: f64 = all_grants.iter().map(|(w, _)| *w).sum();
    assert!(
        (reserved - granted_sum).abs() <= 0.05 * all_grants.len() as f64 + 1e-6,
        "ledger reserved {reserved} != sum of granted {granted_sum}"
    );
    assert!(
        reserved <= budget_w + 1e-6,
        "oversubscribed: {reserved} > {budget_w}"
    );
    let util = admission.ledger().utilization();
    assert!((0.0..=1.0 + 1e-9).contains(&util), "utilization {util}");
    assert_eq!(admission.active_jobs(), all_grants.len());
    drop(admission);

    match Arc::try_unwrap(daemon) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("daemon still shared"),
    }
}

/// Scrape `/metrics` from several threads while submits churn the
/// registry: every scrape must be a complete, valid exposition — no torn
/// reads.
#[test]
fn concurrent_metric_scrapes_never_tear() {
    let daemon = Arc::new(
        Daemon::spawn(DaemonConfig {
            hosts: 32,
            tick_ms: 1,
            job_ttl_ticks: 10,
            ..DaemonConfig::default()
        })
        .unwrap(),
    );

    let mut handles = Vec::new();
    for _ in 0..2 {
        let daemon = Arc::clone(&daemon);
        handles.push(std::thread::spawn(move || {
            for k in 0..20 {
                let body = format!(
                    "{{\"app\":\"balanced\",\"nodes\":{},\"policy\":\"mixedadaptive\"}}",
                    (k % 4) + 1
                );
                let resp = post(daemon.addr(), "/submit", &body);
                assert!(
                    matches!(resp.status, 200 | 429 | 503),
                    "unexpected submit status {}",
                    resp.status
                );
            }
        }));
    }
    for _ in 0..2 {
        let daemon = Arc::clone(&daemon);
        handles.push(std::thread::spawn(move || {
            for _ in 0..15 {
                let resp = get(daemon.addr(), "/metrics");
                assert_eq!(resp.status, 200);
                pmstack_obs::validate_prometheus(resp.body_str())
                    .unwrap_or_else(|e| panic!("torn scrape: {e}"));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("worker panicked");
    }
    match Arc::try_unwrap(daemon) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("daemon still shared"),
    }
}

/// With the in-flight gate closed (`max_inflight: 0`) every submit is
/// shed with 429 — and sheds must not leak gate slots (each request is
/// answered, none hangs).
#[test]
fn inflight_gate_sheds_429() {
    let daemon = Daemon::spawn(DaemonConfig {
        hosts: 8,
        max_inflight: 0,
        tick_ms: 1,
        ..DaemonConfig::default()
    })
    .unwrap();
    for _ in 0..10 {
        let resp = post(
            daemon.addr(),
            "/submit",
            "{\"app\":\"balanced\",\"nodes\":1,\"policy\":\"static\"}",
        );
        assert_eq!(resp.status, 429, "{}", resp.body_str());
        assert_eq!(resp.reason, "Too Many Requests");
    }
    // The gate gates /submit only; reads still flow.
    assert_eq!(get(daemon.addr(), "/healthz").status, 200);
    daemon.shutdown();
}

/// Bottom rung of the ladder: one worker, minimal queue. A connection
/// arriving while the worker is pinned and the queue is full gets the
/// inline 503 from the accept loop itself.
#[test]
fn full_connection_queue_is_refused_inline_with_503() {
    let daemon = Daemon::spawn(DaemonConfig {
        hosts: 8,
        workers: 1,
        conn_capacity: 1,
        tick_ms: 1,
        ..DaemonConfig::default()
    })
    .unwrap();

    // Pin the single worker with a long stream. Its status line reaching
    // us proves the worker has taken this connection off the queue (the
    // read blocks until then, bounded by the socket's read timeout).
    let mut pinned = connect(daemon.addr());
    send(
        &mut pinned,
        b"GET /stream?frames=10000&interval_ms=20 HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    let mut status_line = String::new();
    pinned.read_line(&mut status_line).expect("stream starts");
    assert!(status_line.starts_with("HTTP/1.1 200"), "{status_line:?}");

    // The accept loop takes connections one at a time in arrival order:
    // this one fills the single queue slot and sits there unserved ...
    let queued = connect(daemon.addr());

    // ... so the next overflows, and the accept loop must answer 503
    // itself, without a worker.
    let mut overflow = connect(daemon.addr());
    send(&mut overflow, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    let resp = read_response(&mut overflow);
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    assert_eq!(resp.header("connection"), Some("close"));
    assert!(resp.body_str().contains("connection queue full"));

    // Closing both ends the stream at its next frame and gives the queued
    // connection an EOF, so shutdown has nothing to wait out.
    drop(pinned);
    drop(queued);
    daemon.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any interleaving of reserve / reserve_upto / release /
    /// reclaim across a handful of jobs, the ledger (a) never exceeds the
    /// budget, (b) always equals the sum of per-job reservations tracked
    /// by an independent mirror, and (c) grants stay within [floor, want].
    #[test]
    fn ledger_conserves_under_random_op_sequences(
        budget in 400.0f64..2000.0,
        ops in prop::collection::vec(
            (0u8..4, 0u64..6, 1.0f64..400.0, 0.0f64..1.0),
            1..60,
        ),
    ) {
        let mut ledger = PowerLedger::new(Watts(budget));
        let mut mirror: HashMap<u64, f64> = HashMap::new();

        for (kind, job, amount, frac) in ops {
            let id = JobId(job);
            match kind {
                0 => match ledger.reserve(id, Watts(amount)) {
                    Ok(()) => {
                        mirror.insert(job, amount);
                    }
                    Err(over) => {
                        // Refusal must be honest: the request really did
                        // not fit, and nothing changed.
                        let others: f64 = mirror
                            .iter()
                            .filter(|(j, _)| **j != job)
                            .map(|(_, w)| w)
                            .sum();
                        prop_assert!(amount > budget - others - 1e-6);
                        prop_assert!(over.requested.value() >= amount - 1e-9);
                    }
                },
                1 => {
                    let floor = amount * frac;
                    match ledger.reserve_upto(id, Watts(amount), Watts(floor)) {
                        Ok(granted) => {
                            let g = granted.value();
                            prop_assert!(g >= floor - 1e-6, "grant {g} below floor {floor}");
                            prop_assert!(g <= amount + 1e-6, "grant {g} above want {amount}");
                            mirror.insert(job, g);
                        }
                        Err(_) => {
                            let others: f64 = mirror
                                .iter()
                                .filter(|(j, _)| **j != job)
                                .map(|(_, w)| w)
                                .sum();
                            prop_assert!(floor > budget - others - 1e-6);
                        }
                    }
                }
                2 => {
                    ledger.release(id);
                    mirror.remove(&job);
                }
                _ => {
                    let held = mirror.get(&job).copied().unwrap_or(0.0);
                    let reclaimed = ledger.reclaim(id, Watts(amount)).value();
                    prop_assert!((reclaimed - amount.min(held)).abs() < 1e-6);
                    let left = held - reclaimed;
                    if left <= 0.0 {
                        mirror.remove(&job);
                    } else {
                        mirror.insert(job, left);
                    }
                }
            }

            // Invariants after every single op.
            let reserved = ledger.reserved().value();
            let mirror_sum: f64 = mirror.values().sum();
            prop_assert!(
                (reserved - mirror_sum).abs() < 1e-6,
                "ledger {reserved} diverged from mirror {mirror_sum}"
            );
            prop_assert!(reserved <= budget + 1e-6, "oversubscribed");
            prop_assert!(
                (ledger.available().value() - (budget - reserved)).abs() < 1e-6
            );
            for (j, w) in &mirror {
                let held = ledger.reservation(JobId(*j));
                prop_assert!(held.is_some(), "job {j} reservation vanished");
                prop_assert!((held.unwrap().value() - w).abs() < 1e-6);
            }
        }

        // Releasing everything restores the full budget.
        for job in 0..6 {
            ledger.release(JobId(job));
        }
        prop_assert!(ledger.reserved() == Watts::ZERO);
        prop_assert!((ledger.available().value() - budget).abs() < 1e-9);
    }
}
