//! Pins every JSON document the stack writes, from fixed inputs.
//!
//! Two strengths of pin:
//!
//! * the compact wire documents — the `/stream` frame, the `/submit` grant,
//!   its two 503 bodies and every error body — are compared byte for byte;
//! * every other document (the `/metrics?format=json` snapshot, `/healthz`
//!   and the four `BENCH_*.json` files) is compared as the
//!   `pmstackd::json::parse` value tree, key order included, so its layout
//!   may change while its content may not. Fields printed to a fixed number
//!   of decimals also have that number checked in the raw text.

use pmstack_experiments::megafleet::{self, MegafleetReport, PhaseStat};
use pmstack_obs::{Event, EventKind, Exporter, HistogramSnapshot, JsonExporter, Snapshot};
use pmstack_runtime::FleetSnapshot;
use pmstackd::json::{self, Value};
use pmstackd::loadgen::{self, LoadgenReport};
use pmstackd::{Daemon, DaemonConfig, Fleet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::Duration;

/// `/metrics?format=json` byte length of [`snapshot_fixture`] as the
/// per-site emitters (one member per line) wrote it; the compact writer
/// must not exceed it.
const FIXTURE_JSON_BYTES_BEFORE: usize = 501_668;

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn int(v: u64) -> Value {
    Value::Num(v as f64)
}

fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Finite floats parse back to themselves; non-finite ones are `null`.
fn float(v: f64) -> Value {
    if v.is_finite() {
        num(v)
    } else {
        Value::Null
    }
}

fn parse(doc: &str) -> Value {
    json::parse(doc.as_bytes()).unwrap_or_else(|e| panic!("{e} in {doc}"))
}

/// The number of decimals of every number printed for `key` in `doc`
/// (`None` for a number without a point), whatever the layout.
fn decimals(doc: &str, key: &str) -> Vec<Option<usize>> {
    let quoted = format!("\"{key}\"");
    doc.match_indices(&quoted)
        .filter_map(|(at, _)| {
            let rest = doc[at + quoted.len()..].trim_start().strip_prefix(':')?;
            let token: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
                .collect();
            Some(token.split_once('.').map(|(_, frac)| frac.len()))
        })
        .collect()
}

fn assert_decimals(doc: &str, key: &str, want: usize) {
    let got = decimals(doc, key);
    assert!(!got.is_empty(), "no {key:?} in {doc}");
    assert!(
        got.iter().all(|d| *d == Some(want)),
        "{key:?} printed with {got:?} decimals, want {want}: {doc}"
    );
}

/// Replace every number under `keys` (at any depth) with 0, so documents
/// that carry wall-clock values compare on everything else.
fn zero_keys(v: &Value, keys: &[&str]) -> Value {
    match v {
        Value::Obj(members) => Value::Obj(
            members
                .iter()
                .map(|(k, m)| {
                    let m = if keys.contains(&k.as_str()) && matches!(m, Value::Num(_)) {
                        num(0.0)
                    } else {
                        zero_keys(m, keys)
                    };
                    (k.clone(), m)
                })
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.iter().map(|m| zero_keys(m, keys)).collect()),
        other => other.clone(),
    }
}

// ---------------------------------------------------------------- obs ----

const FAULTS: [&str; 3] = ["node_death", "stuck \"rapl\"\\", "tab\tand\u{1}ctl"];

fn event_kind(i: u64) -> EventKind {
    let f = i as f64;
    match i % 14 {
        0 => EventKind::FaultInjected {
            host: i,
            fault: FAULTS[(i / 14 % 3) as usize],
        },
        1 => EventKind::RaplClamp {
            node: i,
            requested_w: 0.1 + 0.2 + f,
            applied_w: 1e-7 * f,
        },
        2 => EventKind::FfwdCaptured { hosts: i << 20 },
        3 => EventKind::JobStarted {
            job: i,
            nodes: 3,
            power_w: 1e300,
        },
        4 => EventKind::JobCompleted { job: i },
        5 => EventKind::JobBackfilled { job: i },
        6 => EventKind::NodeDrained {
            node: i,
            reclaimed_w: -0.0,
        },
        7 => EventKind::JobDegraded {
            job: i,
            lost_node: i + 1,
            remaining: 2,
        },
        8 => EventKind::JobRequeued {
            job: i,
            released: 4,
            power_w: f / 3.0,
        },
        9 => EventKind::JobPreempted {
            job: i,
            power_w: f64::INFINITY,
        },
        10 => EventKind::LeaseExpired { node: i },
        11 => EventKind::CheckpointSaved {
            job: i,
            progress_h: 5e-324,
        },
        12 => EventKind::BudgetShock {
            budget_w: 123_456.789,
        },
        _ => EventKind::Marker {
            name: "phase\n\"boundary\"",
            value: f64::NAN,
        },
    }
}

/// A snapshot with a control character in a counter name, NaN gauges and
/// sim-times, an infinite histogram bound and a full 4096-event journal.
fn snapshot_fixture() -> Snapshot {
    let histogram = HistogramSnapshot {
        bounds: vec![1e-7, 0.25, f64::INFINITY],
        counts: vec![1, 2, 3, 0],
        sum_nanos: 7_123_456_789,
        total: 6,
    };
    let empty = HistogramSnapshot::empty(&[]);
    Snapshot {
        counters: vec![
            ("exec.tasks.executed".into(), 12),
            ("json.escape\u{1}\ntest\"q\\".into(), u64::MAX),
            ("rm.milliwatts.reclaimed".into(), 0),
        ],
        gauges: vec![
            ("exec.pool.workers".into(), 2.0),
            ("fleet.power_w".into(), 0.1 + 0.2),
            ("gauge.nan".into(), f64::NAN),
            ("gauge.neg_inf".into(), f64::NEG_INFINITY),
        ],
        histograms: vec![
            ("grid.eval_cell.secs".into(), histogram),
            ("never.observed".into(), empty),
        ],
        events: (0..4096)
            .map(|i| Event {
                seq: 10_000 + i,
                wall_us: 1_700_000_000_000 + 37 * i,
                sim_s: if i % 5 == 0 {
                    f64::NAN
                } else {
                    i as f64 * 0.02
                },
                kind: event_kind(i),
            })
            .collect(),
        dropped_events: 77,
    }
}

fn field_value(v: pmstack_obs::FieldValue) -> Value {
    match v {
        pmstack_obs::FieldValue::U64(n) => int(n),
        pmstack_obs::FieldValue::F64(x) => float(x),
        pmstack_obs::FieldValue::Str(s) => string(s),
    }
}

/// The snapshot document's value tree, built from the fixture's fields.
fn snapshot_tree(snap: &Snapshot) -> Value {
    let counters = snap
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), int(*v)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(k, v)| (k.clone(), float(*v)))
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .map(|(k, h)| {
            let body = obj(vec![
                ("total", int(h.total)),
                ("sum", float(h.sum())),
                ("mean", float(h.mean())),
                (
                    "bounds",
                    Value::Arr(h.bounds.iter().map(|b| float(*b)).collect()),
                ),
                (
                    "counts",
                    Value::Arr(h.counts.iter().map(|c| int(*c)).collect()),
                ),
            ]);
            (k.clone(), body)
        })
        .collect();
    let events = snap
        .events
        .iter()
        .map(|e| {
            let mut members = vec![
                ("seq", int(e.seq)),
                ("wall_us", int(e.wall_us)),
                ("sim_s", float(e.sim_s)),
                ("event", string(e.kind.name())),
            ];
            members.extend(
                e.kind
                    .fields()
                    .into_iter()
                    .map(|(k, v)| (k, field_value(v))),
            );
            obj(members)
        })
        .collect();
    obj(vec![
        ("counters", Value::Obj(counters)),
        ("gauges", Value::Obj(gauges)),
        ("histograms", Value::Obj(histograms)),
        ("dropped_events", int(snap.dropped_events)),
        ("events", Value::Arr(events)),
    ])
}

#[test]
fn metrics_json_parses_to_the_snapshot_tree() {
    let snap = snapshot_fixture();
    let doc = JsonExporter.render(&snap);
    assert_eq!(doc, snap.to_json());
    assert!(doc.ends_with("}\n"), "a written document ends its line");
    let got = parse(&doc);
    let want = snapshot_tree(&snap);
    if got != want {
        let (Value::Obj(g), Value::Obj(w)) = (&got, &want) else {
            panic!("not an object: {doc}");
        };
        for ((gk, gv), (wk, wv)) in g.iter().zip(w) {
            assert_eq!(gk, wk, "member order");
            if let (Value::Arr(ga), Value::Arr(wa)) = (gv, wv) {
                for (i, (a, b)) in ga.iter().zip(wa).enumerate() {
                    assert_eq!(a, b, "{gk}[{i}]");
                }
            }
            assert_eq!(gv, wv, "{gk}");
        }
        assert_eq!(got, want);
    }
    eprintln!("fixture /metrics?format=json: {} bytes", doc.len());
    assert!(
        doc.len() <= FIXTURE_JSON_BYTES_BEFORE,
        "scrape grew: {} > {FIXTURE_JSON_BYTES_BEFORE} bytes",
        doc.len()
    );
}

// ------------------------------------------------------ bench reports ----

fn loadgen_report() -> LoadgenReport {
    LoadgenReport {
        requests: 5000,
        concurrency: 6,
        ok: 4990,
        shed: 7,
        unavailable: 3,
        errors: 0,
        wall_secs: 1.234_567_89,
        rps: 4_051.987_6,
        p50_ms: 0.123_45,
        p90_ms: 0.5,
        p99_ms: 2.468_135_7,
        max_ms: 31.415_926,
    }
}

#[test]
fn bench_serve_parses_to_the_report_tree() {
    let doc = loadgen::to_bench_json(&loadgen_report());
    assert!(doc.ends_with("}\n"));
    let want = obj(vec![
        ("benchmark", string("serve")),
        ("requests", int(5000)),
        ("concurrency", int(6)),
        ("ok", int(4990)),
        ("shed", int(7)),
        ("unavailable", int(3)),
        ("errors", int(0)),
        ("wall_secs", num(1.234568)),
        ("rps", num(4052.0)),
        ("p50_ms", num(0.123)),
        ("p90_ms", num(0.5)),
        ("p99_ms", num(2.468)),
        ("max_ms", num(31.416)),
    ]);
    assert_eq!(parse(&doc), want, "{doc}");
    assert_decimals(&doc, "wall_secs", 6);
    assert_decimals(&doc, "rps", 1);
    for key in ["p50_ms", "p90_ms", "p99_ms", "max_ms"] {
        assert_decimals(&doc, key, 3);
    }
}

fn megafleet_report(resident: Option<f64>) -> MegafleetReport {
    let phase = |name, iters, wall_secs, ns_per_host| PhaseStat {
        name,
        iters,
        wall_secs,
        ns_per_host,
    };
    MegafleetReport {
        hosts: 100_000,
        segments: 25,
        segment_hosts: 4096,
        phases: vec![
            phase("full_resolve", 3, 0.123_456_7, 411.522_33),
            phase("balance", 250, 2.5, 98.765_43),
            phase("steady", 200, 0.000_123_4, 0.006_17),
            phase("shard_churn", 200, 0.042, 2.1),
        ],
        churn_invalidated: 200,
        churn_replayed: 4800,
        churn_replay_fraction: 0.96,
        settled_under_agent: true,
        total_energy_j: 1.5e9,
        final_read_secs: 0.001_234_567_8,
        build_secs: 0.333_333_33,
        resident_bytes_per_host: resident,
    }
}

#[test]
fn bench_megafleet_parses_to_the_report_tree() {
    let phase = |iters, wall_secs, ns_per_host| {
        obj(vec![
            ("iters", int(iters)),
            ("wall_secs", num(wall_secs)),
            ("ns_per_host", num(ns_per_host)),
        ])
    };
    for resident in [Some(229.87), None] {
        let doc = megafleet::to_bench_json(&megafleet_report(resident));
        assert!(doc.ends_with("}\n"));
        let mut want = vec![
            ("benchmark", string("megafleet")),
            ("hosts", int(100_000)),
            ("segments", int(25)),
            ("segment_hosts", int(4096)),
            ("build_secs", num(0.333333)),
        ];
        if resident.is_some() {
            want.push(("resident_bytes_per_host", num(229.9)));
        }
        want.extend([
            (
                "phases",
                obj(vec![
                    ("full_resolve", phase(3, 0.123457, 411.522)),
                    ("balance", phase(250, 2.5, 98.765)),
                    ("steady", phase(200, 0.000123, 0.006)),
                    ("shard_churn", phase(200, 0.042, 2.1)),
                ]),
            ),
            ("final_read_secs", num(0.001235)),
            ("churn_invalidated", int(200)),
            ("churn_replayed", int(4800)),
            ("churn_replay_fraction", num(0.96)),
            ("settled_under_agent", Value::Bool(true)),
        ]);
        assert_eq!(parse(&doc), obj(want), "{doc}");
        for key in [
            "build_secs",
            "wall_secs",
            "final_read_secs",
            "churn_replay_fraction",
        ] {
            assert_decimals(&doc, key, 6);
        }
        assert_decimals(&doc, "ns_per_host", 3);
        if resident.is_some() {
            assert_decimals(&doc, "resident_bytes_per_host", 1);
        }
    }
}

fn repro(args: &[&str], dir: &std::path::Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--out")
        .arg(dir)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("json-docs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn bench_sweep_parses_to_the_sweep_tree() {
    let dir = scratch_dir("sweep");
    repro(&["sweep", "--fast", "--replicates", "1", "--time"], &dir);
    let doc = std::fs::read_to_string(dir.join("BENCH_sweep.json")).expect("BENCH_sweep.json");
    std::fs::remove_dir_all(&dir).ok();
    assert!(doc.ends_with("}\n"));
    let v = parse(&doc);
    let node_iterations = v
        .get("node_iterations")
        .and_then(Value::as_f64)
        .expect("node_iterations");
    assert!(node_iterations > 0.0);
    let want = obj(vec![
        ("benchmark", string("replicate_sweep")),
        ("mix", string("WastefulPower")),
        ("replicates", int(1)),
        ("nodes_per_job", int(4)),
        ("iterations", int(24)),
        ("node_iterations", num(node_iterations)),
        ("wall_secs", num(0.0)),
        ("node_iters_per_sec", num(0.0)),
    ]);
    assert_eq!(
        zero_keys(&v, &["wall_secs", "node_iters_per_sec"]),
        want,
        "{doc}"
    );
    assert_decimals(&doc, "wall_secs", 6);
    assert_decimals(&doc, "node_iters_per_sec", 1);
}

#[test]
fn bench_grid_parses_to_the_grid_tree() {
    let dir = scratch_dir("grid");
    repro(&["grid", "--fast", "--time"], &dir);
    let doc = std::fs::read_to_string(dir.join("BENCH_grid.json")).expect("BENCH_grid.json");
    std::fs::remove_dir_all(&dir).ok();
    assert!(doc.ends_with("}\n"));
    let v = parse(&doc);
    let workers = v.get("workers").and_then(Value::as_f64).expect("workers");
    assert!(workers >= 1.0);
    let timings = ["prep_secs", "eval_secs", "assemble_secs", "total_secs"];
    let want = obj(vec![
        ("benchmark", string("evaluation_grid")),
        ("cells", int(90)),
        ("nodes_per_job", int(10)),
        ("iterations", int(30)),
        ("workers", num(workers)),
        ("prep_secs", num(0.0)),
        ("eval_secs", num(0.0)),
        ("assemble_secs", num(0.0)),
        ("total_secs", num(0.0)),
    ]);
    assert_eq!(zero_keys(&v, &timings), want, "{doc}");
    for key in timings {
        assert_decimals(&doc, key, 6);
    }
}

// ------------------------------------------------------------- daemon ----

#[test]
fn stream_frame_bytes() {
    let snap = FleetSnapshot {
        hosts: 100_000,
        alive: 99_998,
        segments: 25,
        elapsed_s: 12.345_678_9,
        steady: true,
        energy_j: 1_234_567.891_23,
        power_w: 987.654_321,
        iteration_s: 0.000_001_5,
    };
    assert_eq!(
        Fleet::snapshot_json(&snap, 42),
        "{\"tick\":42,\"hosts\":100000,\"alive\":99998,\"segments\":25,\
         \"elapsed_s\":12.345679,\"steady\":true,\"energy_j\":1234567.891,\
         \"power_w\":987.654,\"iteration_s\":0.000002}"
    );
    let snap = FleetSnapshot {
        hosts: 0,
        alive: 0,
        segments: 0,
        elapsed_s: 0.0,
        steady: false,
        energy_j: 0.0,
        power_w: 0.0,
        iteration_s: 0.0,
    };
    assert_eq!(
        Fleet::snapshot_json(&snap, 0),
        "{\"tick\":0,\"hosts\":0,\"alive\":0,\"segments\":0,\"elapsed_s\":0.000000,\
         \"steady\":false,\"energy_j\":0.000,\"power_w\":0.000,\"iteration_s\":0.000000}"
    );
}

fn daemon(config: DaemonConfig) -> Daemon {
    Daemon::spawn(DaemonConfig {
        hosts: 16,
        tick_ms: 5,
        job_ttl_ticks: 1_000_000,
        max_nodes_per_job: 8,
        ..config
    })
    .expect("spawn daemon")
}

/// One request on a fresh connection: `(status, body)`, the body read to
/// its declared length or de-chunked. A refusal may reset the connection
/// once written, so reading stops as soon as the response is whole.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A refused request's unread tail may be reset; the response still lands.
    let _ = conn.write_all(raw);
    let mut bytes = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(done) = whole_response(&bytes) {
            return done;
        }
        match conn.read(&mut buf) {
            Ok(0) => panic!(
                "EOF before a whole response: {:?}",
                String::from_utf8_lossy(&bytes)
            ),
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
            Err(e) => panic!(
                "{e} before a whole response: {:?}",
                String::from_utf8_lossy(&bytes)
            ),
        }
    }
}

fn whole_response(bytes: &[u8]) -> Option<(u16, String)> {
    let text = std::str::from_utf8(bytes).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head[9..12].parse().expect("status code");
    let head = head.to_ascii_lowercase();
    if head.contains("transfer-encoding: chunked") {
        let mut out = String::new();
        let mut rest = body;
        loop {
            let (size, tail) = rest.split_once("\r\n")?;
            let size = usize::from_str_radix(size, 16).expect("chunk size");
            if size == 0 {
                return tail.starts_with("\r\n").then_some((status, out));
            }
            out.push_str(tail.get(..size)?);
            rest = tail.get(size + 2..)?;
        }
    }
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .expect("Content-Length")
        .trim()
        .parse()
        .expect("integer Content-Length");
    (body.len() >= len).then(|| (status, body[..len].to_string()))
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn submit(addr: SocketAddr, body: &str) -> (u16, String) {
    request(addr, "POST", "/submit", body)
}

fn error(msg: &str) -> String {
    format!("{{\"error\":\"{msg}\"}}\n")
}

#[test]
fn grant_and_refusal_bodies_are_byte_identical() {
    let d = daemon(DaemonConfig {
        class_layout: vec![("fat".into(), 4), ("thin".into(), 12)],
        budget_per_host_w: 145.0,
        ..DaemonConfig::default()
    });
    let addr = d.addr();
    // In order, on a 16-host fleet with 2320 W: three full grants (one
    // class-pinned), a refusal for power, a refusal for nodes in a full
    // class, a degraded grant, a refusal for nodes.
    let cases = [
        (
            r#"{"app":"compute","nodes":2,"policy":"MixedAdaptive"}"#,
            200,
            "{\"job\":\"job1\",\"app\":\"compute\",\"policy\":\"MixedAdaptive\",\"granted_w\":480.0,\
             \"want_w\":480.0,\"degraded\":false,\"ttl_ticks\":1000000,\"nodes\":[0,1],\
             \"caps_w\":[240.0,240.0]}\n",
        ),
        (
            r#"{"app":"memory","nodes":3,"policy":"static","class":"THIN"}"#,
            200,
            "{\"job\":\"job2\",\"app\":\"memory\",\"class\":\"thin\",\"policy\":\"StaticCaps\",\
             \"granted_w\":692.3,\"want_w\":692.3,\"degraded\":false,\"ttl_ticks\":1000000,\
             \"nodes\":[4,5,6],\"caps_w\":[230.8,230.8,230.8]}\n",
        ),
        (
            r#"{"app":"wasteful","nodes":4,"policy":"jobadaptive"}"#,
            200,
            "{\"job\":\"job3\",\"app\":\"wasteful\",\"policy\":\"JobAdaptive\",\"granted_w\":960.0,\
             \"want_w\":960.0,\"degraded\":false,\"ttl_ticks\":1000000,\"nodes\":[2,3,7,8],\
             \"caps_w\":[240.0,240.0,240.0,240.0]}\n",
        ),
        (
            r#"{"app":"imbalanced","nodes":2,"policy":"minwaste"}"#,
            503,
            "{\"error\":\"power budget exhausted\",\"available_w\":187.7,\"floor_w\":272.0}\n",
        ),
        (
            r#"{"app":"balanced","nodes":1,"policy":"mixed","class":"fat"}"#,
            503,
            "{\"error\":\"not enough free nodes\",\"free_nodes\":0}\n",
        ),
        (
            r#"{"app":"compute","nodes":1,"policy":"prechar","class":"thin"}"#,
            200,
            "{\"job\":\"job4\",\"app\":\"compute\",\"class\":\"thin\",\
             \"policy\":\"Precharacterized\",\"granted_w\":187.7,\"want_w\":224.3,\
             \"degraded\":true,\"ttl_ticks\":1000000,\"nodes\":[9],\"caps_w\":[187.7]}\n",
        ),
        (
            r#"{"app":"compute","nodes":8,"policy":"mixed"}"#,
            503,
            "{\"error\":\"not enough free nodes\",\"free_nodes\":6}\n",
        ),
    ];
    for (i, (body, status, want)) in cases.into_iter().enumerate() {
        let (got_status, got) = submit(addr, body);
        assert_eq!((got_status, got.as_str()), (status, want), "case {i}");
    }
    d.shutdown();
}

#[test]
fn error_bodies_are_byte_identical() {
    let d = daemon(DaemonConfig::default());
    let addr = d.addr();
    let cases: Vec<((u16, String), u16, String)> = vec![
        (get(addr, "/nope"), 404, error("no such endpoint")),
        (
            request(addr, "DELETE", "/metrics", ""),
            405,
            error("method not allowed"),
        ),
        (get(addr, "/submit"), 405, error("method not allowed")),
        (
            request(addr, "POST", "/stream", ""),
            405,
            error("method not allowed"),
        ),
        (
            get(addr, "/metrics?format=xml"),
            400,
            error("unknown format xml; expected one of prometheus, json, summary"),
        ),
        (
            get(addr, "/stream?frames=0"),
            400,
            error("frames must be an integer in [1, 10000], got 0"),
        ),
        (
            get(addr, "/stream?interval_ms=1e3"),
            400,
            error("interval_ms must be an integer in [0, 10000], got 1e3"),
        ),
        (
            submit(addr, "{\"app\":"),
            400,
            error("invalid JSON body: empty input"),
        ),
        (
            submit(addr, "[1]"),
            400,
            error("body must be a JSON object"),
        ),
        (
            submit(addr, r#"{"app":"gpu","nodes":1,"policy":"mixed"}"#),
            400,
            error(
                r#"unknown app class \"gpu\"; expected one of balanced, compute, memory, wasteful, imbalanced"#,
            ),
        ),
        (
            submit(
                addr,
                "{\"app\":\"compute\",\"nodes\":1,\"policy\":\"a\\u0001\\\"b\"}",
            ),
            400,
            error(r#"unknown policy \"a\\u{1}\\\"b\""#),
        ),
        (
            submit(addr, r#"{"app":"compute","nodes":9,"policy":"mixed"}"#),
            400,
            error("nodes must be an integer in [1, 8], got 9"),
        ),
        (
            submit(
                addr,
                r#"{"app":"compute","nodes":1,"policy":"mixed","class":"fat"}"#,
            ),
            400,
            error(r#"unknown node class \"fat\"; this fleet has no node classes"#),
        ),
        (
            get(addr, "/metrics?format=a\"b\\"),
            400,
            error(r#"unknown format a\"b\\; expected one of prometheus, json, summary"#),
        ),
        (
            exchange(addr, b"BROKEN\r\n\r\n"),
            400,
            error(r#"malformed request line: \"BROKEN\""#),
        ),
        (
            exchange(
                addr,
                b"POST /submit HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n",
            ),
            413,
            error("body of 99999999 bytes exceeds 65536"),
        ),
        (
            exchange(
                addr,
                format!(
                    "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                    "p".repeat(pmstackd::http::MAX_LINE_BYTES + 16)
                )
                .as_bytes(),
            ),
            431,
            error("header block too large"),
        ),
    ];
    let wrong: Vec<String> = cases
        .iter()
        .enumerate()
        .filter(|(_, (got, status, body))| (got.0, got.1.as_str()) != (*status, body.as_str()))
        .map(|(i, (got, status, body))| format!("case {i}: got {got:?}, want {:?}", (status, body)))
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    d.shutdown();

    let d = daemon(DaemonConfig {
        max_inflight: 0,
        ..DaemonConfig::default()
    });
    assert_eq!(
        submit(d.addr(), r#"{"app":"compute","nodes":1,"policy":"mixed"}"#),
        (429, error("admission queue full, retry later"))
    );
    d.shutdown();
}

#[test]
fn a_full_connection_queue_is_refused_with_the_error_body() {
    let d = daemon(DaemonConfig {
        workers: 1,
        conn_capacity: 1,
        ..DaemonConfig::default()
    });
    let addr = d.addr();
    // The one worker blocks reading `busy`, `queued` fills the queue, and
    // the accept loop refuses `refused` inline.
    let busy = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(300));
    let queued = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(300));
    let mut refused = TcpStream::connect(addr).expect("connect");
    refused
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut bytes = Vec::new();
    refused.read_to_end(&mut bytes).expect("read refusal");
    let text = String::from_utf8(bytes).expect("UTF-8");
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(
        text.ends_with(&format!(
            "\r\n\r\n{}",
            error("connection queue full, retry later")
        )),
        "{text}"
    );
    drop((busy, queued));
    d.shutdown();
}

#[test]
fn healthz_and_stream_parse_to_their_trees() {
    let d = daemon(DaemonConfig::default());
    let (status, doc) = get(d.addr(), "/healthz");
    assert_eq!(status, 200);
    assert!(doc.ends_with("}\n"));
    let v = parse(&doc);
    let steady = v.get("steady").cloned().expect("steady");
    assert!(matches!(steady, Value::Bool(_)));
    let alive = v.get("alive").and_then(Value::as_f64).expect("alive");
    assert_eq!(
        zero_keys(&v, &["elapsed_s"]),
        obj(vec![
            ("status", string("ok")),
            ("hosts", int(16)),
            ("alive", num(alive)),
            ("elapsed_s", num(0.0)),
            ("steady", steady),
        ]),
        "{doc}"
    );
    assert_decimals(&doc, "elapsed_s", 6);

    let (status, body) = get(d.addr(), "/stream?frames=2&interval_ms=5");
    assert_eq!(status, 200);
    let frames: Vec<&str> = body.lines().collect();
    assert_eq!(frames.len(), 2, "{body}");
    let keys = [
        "tick",
        "hosts",
        "alive",
        "segments",
        "elapsed_s",
        "steady",
        "energy_j",
        "power_w",
        "iteration_s",
    ];
    for frame in frames {
        let Value::Obj(members) = parse(frame) else {
            panic!("frame is not an object: {frame}");
        };
        let got: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, keys, "{frame}");
        assert_decimals(frame, "energy_j", 3);
        assert_decimals(frame, "iteration_s", 6);
    }
    d.shutdown();
}
