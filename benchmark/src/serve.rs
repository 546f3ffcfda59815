//! The two serve-path workloads and the serve layers' probes.
//!
//! Both drive an in-process `pmstackd::Daemon` with the shipping defaults
//! at 100 000 hosts (what `repro serve` boots) over two keep-alive
//! connections, one generator thread each.

use crate::load::{self, Client, Done, Kind};
use crate::outcome::Outcome;
use crate::quiet::IdleSpinners;
use crate::rng::Rng;
use crate::spec::END_TO_END;
use crate::stats;
use crate::trace::Tracer;
use pmstack_runtime::FleetSnapshot;
use pmstack_simhw::{quartz_spec, PowerModel, Watts};
use pmstackd::{Admission, AppClass, Daemon, DaemonConfig, Fleet, SubmitRequest};
use std::time::{Duration, Instant};

pub const HOSTS: usize = 100_000;
const CONNECTIONS: usize = 2;
/// The reference rate of `serve_submit`'s open loop, requests per second.
const SUBMIT_RATE: f64 = 2000.0;
/// The rate of `serve_mixed`'s open loop.
const MIXED_RATE: f64 = 1500.0;
/// Share of a run spent in the open loop; the rest is the closed loop.
const OPEN_SHARE: f64 = 0.5;
/// Daemons booted per run, each serving an equal part of it.
const EPOCHS: usize = 5;

fn config() -> DaemonConfig {
    DaemonConfig {
        hosts: HOSTS,
        ..DaemonConfig::default()
    }
}

struct Served {
    /// Dropped last, after the daemon has stopped.
    _quiet: IdleSpinners,
    daemon: Daemon,
    clients: Vec<Client>,
    /// Spawn to first answered request, seconds.
    setup_s: f64,
}

/// Boot a daemon and open the connections, timing spawn → first answered
/// request.
fn boot(out: &mut Outcome) -> Served {
    let quiet = IdleSpinners::start();
    let start = Instant::now();
    let daemon = Daemon::spawn(config()).expect("daemon binds an ephemeral port");
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(daemon.addr()).expect("daemon accepts"))
        .collect();
    let status = clients[0].roundtrip(&load::get_request(Kind::Healthz));
    let setup_s = start.elapsed().as_secs_f64();
    out.check(matches!(status, Ok(200)), || {
        format!("first /healthz answered {status:?}")
    });
    Served {
        _quiet: quiet,
        daemon,
        clients,
        setup_s,
    }
}

/// Count a phase's requests; one that is not a checked 200 failed.
fn tally(out: &mut Outcome, done: &[Done]) {
    out.attempted += done.len() as u64;
    for d in done.iter().filter(|d| !d.ok) {
        out.fail(format!(
            "{:?} answered {} or failed its body check",
            d.kind, d.status
        ));
    }
}

fn latencies(done: &[Done], keep: fn(&Done) -> bool) -> Vec<f64> {
    done.iter()
        .filter(|d| d.ok && keep(d))
        .map(Done::latency_ms)
        .collect()
}

/// Wait for every lease to expire: each must give back its watts and nodes.
fn drain(daemon: &Daemon, out: &mut Outcome) {
    let admission = daemon.admission();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (active, reserved, free) = {
            let adm = admission.lock().expect("admission lock");
            (adm.active_jobs(), adm.ledger().reserved(), adm.free_nodes())
        };
        if active == 0 {
            out.check(reserved == Watts::ZERO && free == HOSTS, || {
                format!("after the drain {reserved} still reserved, {free} of {HOSTS} nodes free")
            });
            return;
        }
        if Instant::now() > deadline {
            out.check(false, || format!("{active} leases never expired"));
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Close the connections first: a worker blocks on an open one.
fn stop(served: Served) {
    drop(served.clients);
    served.daemon.shutdown();
}

/// One Poisson schedule per connection, `rate` requests per second in all.
fn plans(
    rng: &mut Rng,
    request: load::Request,
    rate: f64,
    seconds: f64,
) -> Vec<Vec<load::Planned>> {
    (0..CONNECTIONS)
        .map(|c| {
            let mut stream = rng.fork(c as u64);
            let mut turn = c;
            load::poisson_schedule(&mut stream, rate / CONNECTIONS as f64, seconds, |r| {
                request(r, &mut turn, load::MAX_NODES)
            })
        })
        .collect()
}

fn forks(rng: &mut Rng) -> Vec<Rng> {
    (0..CONNECTIONS).map(|c| rng.fork(100 + c as u64)).collect()
}

/// A serve workload: `EPOCHS` times over, boot a daemon, run the open
/// loop, run the closed loop on the same two connections, stop; the last
/// daemon first waits for every lease to expire. Which threads the
/// scheduler pairs up on the two cores is drawn anew with each daemon and
/// holds for its lifetime, and latency and capacity follow it (capacity by
/// a quarter). A run that spans several daemons pools the draws: latency
/// is the median over every epoch's open-loop requests, capacity is every
/// epoch's completions over their closed-loop time, and set-up time gets a
/// sample per epoch.
fn epochs(
    seed: u64,
    seconds: f64,
    request: load::Request,
    rate: f64,
    latency_of: fn(&Done) -> bool,
) -> Outcome {
    let mut out = Outcome::new(END_TO_END);
    let mut rng = Rng::new(seed);
    let seconds = seconds / EPOCHS as f64;
    let (mut latency, mut setup) = (Vec::new(), Vec::new());
    let (mut completed, mut closed_s) = (0usize, 0.0);
    for epoch in 0..EPOCHS {
        let mut served = boot(&mut out);
        setup.push(served.setup_s);

        let open_plans = plans(&mut rng, request, rate, seconds * OPEN_SHARE);
        let open = load::open_loop(&mut served.clients, open_plans);
        tally(&mut out, &open);
        latency.extend(latencies(&open, latency_of));

        let (closed, wall) = load::closed_loop(
            &mut served.clients,
            forks(&mut rng),
            seconds * (1.0 - OPEN_SHARE),
            |r, turn| request(r, turn, load::MAX_NODES_CLOSED),
        );
        tally(&mut out, &closed);
        completed += closed.iter().filter(|d| d.ok).count();
        closed_s += wall;
        if epoch + 1 == EPOCHS {
            drain(&served.daemon, &mut out);
        }
        stop(served);
    }
    out.put_samples("latency_p50_ms", &mut latency);
    out.put("throughput_per_s", completed as f64 / closed_s);
    out.put_samples("setup_s", &mut setup);
    out.put("peak_rss_mb", crate::host::peak_rss_mb());
    out
}

/// `serve_submit`: the write path. Open loop of `POST /submit` at the
/// reference rate, then closed-loop saturation.
pub fn serve_submit(seed: u64, seconds: f64) -> Outcome {
    epochs(seed, seconds, load::submit_only, SUBMIT_RATE, |_| true)
}

/// `serve_mixed`: reads beside writes. Open loop of the scrape/health/
/// submit mix, then the same mix closed-loop. Latency is the scrapes'.
pub fn serve_mixed(seed: u64, seconds: f64) -> Outcome {
    epochs(seed, seconds, load::mixed_request, MIXED_RATE, |d| {
        d.kind.is_scrape()
    })
}

fn to_us(ns: Vec<f64>) -> Vec<f64> {
    ns.into_iter().map(|v| v / 1e3).collect()
}

/// Stage costs of one `/submit` with no sockets: the daemon's public
/// functions called in the order `handle_connection` calls them, on
/// requests drawn from the workload's mix. The step loop's `tick` runs
/// every 40 requests, the ratio of the 2000 req/s rung to the 20 ms tick.
/// Formatting the grant body is private to `server.rs` and therefore not a
/// stage here; it lands in `pmstackd.wire_overhead_us`.
fn stage_probe(seed: u64, tr: &mut Tracer, out: &mut Outcome) -> f64 {
    const REQUESTS: u64 = 6000;
    let model = PowerModel::new(quartz_spec()).expect("quartz spec is valid");
    let cfg = config();
    let eps: Vec<f64> = (0..HOSTS).map(pmstackd::fleet::eps_of).collect();
    let mut admission = Admission::new(
        model,
        eps,
        Watts(cfg.budget_per_host_w * HOSTS as f64),
        cfg.job_ttl_ticks,
        cfg.max_nodes_per_job,
    );
    let mut rng = Rng::new(seed);
    let mut sink: Vec<u8> = Vec::with_capacity(4096);
    for op in 0..REQUESTS {
        let raw = load::submit_request(&mut rng, load::MAX_NODES);
        let granted = tr.span("pmstackd.request", op, |tr| {
            let req = tr.span("pmstackd.http.read_request", op, |_| {
                pmstackd::http::read_request(&mut &raw[..]).expect("generated request parses")
            });
            let submit = tr.span("pmstackd.json.parse", op, |_| {
                let v = pmstackd::json::parse(&req.body).expect("generated body parses");
                let field = |k| v.get(k).and_then(pmstackd::json::Value::as_str);
                SubmitRequest {
                    app: AppClass::parse(field("app").expect("app")).expect("known app"),
                    nodes: v.get("nodes").and_then(|n| n.as_f64()).expect("nodes") as usize,
                    policy: pmstackd::admission::parse_policy(field("policy").expect("policy"))
                        .expect("known policy"),
                    class: None,
                }
            });
            let grant = tr.span("pmstackd.admission.submit", op, |_| {
                admission.submit(&submit)
            });
            let body = "x".repeat(130 + 13 * submit.nodes);
            let response = pmstackd::http::Response::json(200, body);
            tr.span("pmstackd.http.write_response", op, |_| {
                sink.clear();
                response
                    .write_to(&mut sink, false)
                    .expect("write to memory");
            });
            grant.is_ok()
        });
        out.check(granted, || {
            "stage probe: admission refused a request".into()
        });
        if op % 40 == 39 {
            tr.span("pmstackd.admission.tick", op, |_| {
                std::hint::black_box(admission.tick());
            });
        }
    }

    let snap = FleetSnapshot {
        hosts: HOSTS,
        alive: HOSTS,
        segments: HOSTS.div_ceil(1024),
        elapsed_s: 12.5,
        steady: true,
        energy_j: 1.234e9,
        power_w: 1.5e7,
        iteration_s: 0.05,
    };
    for batch in 0..200u64 {
        tr.span("pmstackd.fleet.snapshot_json_x100", batch, |_| {
            for tick in 0..100 {
                std::hint::black_box(Fleet::snapshot_json(&snap, batch * 100 + tick));
            }
        });
    }

    out.notes.push(format!(
        "serve stages: {:.3} us of a staged request is outside the four stages",
        stats::median(&mut tr.self_ns("pmstackd.request")) / 1e3
    ));
    let mut stage_sum_us = 0.0;
    for (span, metric) in [
        (
            "pmstackd.http.read_request",
            "pmstackd.http.read_request_us",
        ),
        ("pmstackd.json.parse", "pmstackd.json.parse_us"),
        ("pmstackd.admission.submit", "pmstackd.admission.submit_us"),
        (
            "pmstackd.http.write_response",
            "pmstackd.http.write_response_us",
        ),
    ] {
        let mut us = to_us(tr.durations_ns(span));
        stage_sum_us += stats::median(&mut us);
        out.put_central(metric, &mut us);
    }
    out.put_central(
        "pmstackd.admission.tick_us",
        &mut to_us(tr.durations_ns("pmstackd.admission.tick")),
    );
    let mut per_call: Vec<f64> = tr
        .durations_ns("pmstackd.fleet.snapshot_json_x100")
        .into_iter()
        .map(|ns| ns / 100.0 / 1e3)
        .collect();
    out.put_central("pmstackd.fleet.snapshot_json_us", &mut per_call);
    stage_sum_us
}

fn counter(snap: &pmstack_obs::Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn p99(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        f64::INFINITY
    } else {
        stats::percentile(sorted, 0.99)
    }
}

/// The traced section of `serve_submit`: the stage costs without sockets,
/// then the wire view of the same path over the rate ladder. What the wire
/// adds to the stages (sockets, wake-ups, mutex waits, formatting the
/// grant) is `pmstackd.wire_overhead_us`.
pub fn submit_section(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    const RUNG_S: f64 = 2.5;
    let stage_sum_us = stage_probe(seed, tr, out);
    let mut served = boot(out);
    let mut rng = Rng::new(seed);
    let before = pmstack_obs::snapshot();
    let ladder_start = Instant::now();

    let mut all: Vec<Done> = Vec::new();
    let mut max_rate_ok = 0.0;
    let mut service_p50_r1000_us = 0.0;
    for (rate, p50_name, p99_name) in [
        (
            1000.0,
            "pmstackd.submit.p50_ms.r1000",
            "pmstackd.submit.p99_ms.r1000",
        ),
        (
            2000.0,
            "pmstackd.submit.p50_ms.r2000",
            "pmstackd.submit.p99_ms.r2000",
        ),
        (
            4000.0,
            "pmstackd.submit.p50_ms.r4000",
            "pmstackd.submit.p99_ms.r4000",
        ),
    ] {
        let done = load::open_loop(
            &mut served.clients,
            plans(&mut rng, load::submit_only, rate, RUNG_S),
        );
        tally(out, &done);
        let mut latency = latencies(&done, |_| true);
        stats::sort(&mut latency);
        let tail = p99(&latency);
        out.put(p99_name, tail);
        out.put_central(p50_name, &mut latency);

        let mut service: Vec<f64> = done.iter().filter(|d| d.ok).map(Done::service_ms).collect();
        if rate == 1000.0 {
            service_p50_r1000_us = stats::median(&mut service) * 1e3;
        }
        if rate == SUBMIT_RATE {
            out.put_central("pmstackd.submit.service_p50_ms.r2000", &mut service);
            let mut late: Vec<f64> = done.iter().map(Done::late_ms).collect();
            stats::sort(&mut late);
            out.put("pmstackd.loadgen.late_p99_ms", p99(&late));
            out.put_central("pmstackd.loadgen.late_p50_ms", &mut late);
        }
        // A rung holds when its tail meets 5 ms, at most 0.1 % of requests
        // fail, and the generator is not falling further behind in the
        // second half of the window than in the first.
        let failed = done.iter().filter(|d| !d.ok).count() as f64 / done.len().max(1) as f64;
        let late_in_half = |second: bool| {
            let mut late: Vec<f64> = done
                .iter()
                .filter(|d| (d.due_ns as f64 > RUNG_S * 0.5e9) == second)
                .map(Done::late_ms)
                .collect();
            if late.is_empty() {
                0.0
            } else {
                stats::median(&mut late)
            }
        };
        let backlog_grows = late_in_half(true) > 2.0 * late_in_half(false) + 0.1;
        if tail <= 5.0 && failed <= 0.001 && !backlog_grows {
            max_rate_ok = rate;
        }
        all.extend(done);
    }
    out.put("pmstackd.submit.max_rate_ok", max_rate_ok);
    out.put(
        "pmstackd.wire_overhead_us",
        service_p50_r1000_us - stage_sum_us,
    );

    // The step loop's ticks over the ladder against what 20 ms ticks would
    // give: the only outside view of step-loop lag.
    let ladder_s = ladder_start.elapsed().as_secs_f64();
    let after = pmstack_obs::snapshot();
    let delta = |name| counter(&after, name) - counter(&before, name);
    let tick_s = config().tick_ms as f64 / 1e3;
    out.put(
        "pmstackd.fleet.tick_rate_share",
        delta("pmstackd.fleet.ticks") / (ladder_s / tick_s),
    );
    let (hits, misses) = (delta("core.char.memo_hit"), delta("core.char.memo_miss"));
    out.put("core.char.memo_hit_share", hits / (hits + misses).max(1.0));
    let share = |status: u16| {
        all.iter().filter(|d| d.status == status).count() as f64 / all.len().max(1) as f64
    };
    out.put("pmstackd.responses.429_share", share(429));
    out.put("pmstackd.responses.503_share", share(503));
    drain(&served.daemon, out);
    stop(served);
}

/// The traced section of `serve_mixed`: the mix over the wire, one stream
/// pull, and the `obs` exporters against the registry the daemon filled.
pub fn mixed_section(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let mut served = boot(out);
    let mut rng = Rng::new(seed);
    let mixed = load::open_loop(
        &mut served.clients,
        plans(&mut rng, load::mixed_request, MIXED_RATE, 3.0),
    );
    tally(out, &mixed);
    let mut scrapes = latencies(&mixed, |d| d.kind.is_scrape());
    stats::sort(&mut scrapes);
    out.put("pmstackd.scrape.p99_ms", p99(&scrapes));
    out.put_central(
        "mixed_submit_p50_ms",
        &mut latencies(&mixed, |d| d.kind == Kind::Submit),
    );

    const FRAMES: u64 = 500;
    out.attempted += 1;
    match served.clients[0].stream_frames(FRAMES, 1) {
        Ok(arrivals) if arrivals.len() as u64 == FRAMES => {
            let mut gaps: Vec<f64> = arrivals
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
                .collect();
            stats::sort(&mut gaps);
            out.put("pmstackd.stream.frame_gap_p99_ms", p99(&gaps));
        }
        other => {
            out.fail(format!("stream pull: {:?}", other.map(|a| a.len())));
            out.put("pmstackd.stream.frame_gap_p99_ms", f64::INFINITY);
        }
    }

    for round in 0..200u64 {
        let snap = tr.span("obs.snapshot", round, |_| pmstack_obs::snapshot());
        for (format, span) in [
            ("prometheus", "obs.export.prometheus"),
            ("json", "obs.export.json"),
            ("summary", "obs.export.summary"),
        ] {
            let exporter = pmstack_obs::exporter(format).expect("known exporter");
            let body = tr.span(span, round, |_| exporter.render(&snap));
            if round == 0 && format == "prometheus" {
                out.put("obs.export.prometheus_bytes", body.len() as f64);
            }
        }
    }
    out.put_central(
        "obs.snapshot_us",
        &mut to_us(tr.durations_ns("obs.snapshot")),
    );
    for (span, metric) in [
        ("obs.export.prometheus", "obs.export.prometheus_us"),
        ("obs.export.json", "obs.export.json_us"),
        ("obs.export.summary", "obs.export.summary_us"),
    ] {
        out.put_central(metric, &mut to_us(tr.durations_ns(span)));
    }
    drain(&served.daemon, out);
    stop(served);
}
