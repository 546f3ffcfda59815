//! The daemon: accept loop, connection workers, and the three surfaces.
//!
//! Thread-per-connection over the exec crate's bounded [`ServicePool`]:
//! the accept loop hands each socket to a long-lived worker, and when the
//! pool's queue is full it writes a canned 503 inline and moves on — the
//! bottom rung of the backpressure ladder. The middle rung is the
//! `/submit` in-flight gate (429); the top is the admission plane itself
//! (power/node exhaustion, 503). Request workers never touch the simulated
//! platform: `/metrics` reads the observability registry, `/stream` reads
//! published snapshots, `/submit` locks only the admission struct.

use crate::admission::{Admission, AppClass, Reject, SubmitRequest};
use crate::fleet::{eps_of, Fleet, FleetConfig};
use crate::http::{self, ParseError, Request, Response};
use crate::json::{self, Value};
use pmstack_exec::ServicePool;
use pmstack_obs::{JsonWriter, StaticCounter};
use pmstack_simhw::{quartz_spec, PowerModel, Watts};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

static REQUESTS: StaticCounter = StaticCounter::new("pmstackd.http.requests");
static RESP_2XX: StaticCounter = StaticCounter::new("pmstackd.http.responses_2xx");
static RESP_4XX: StaticCounter = StaticCounter::new("pmstackd.http.responses_4xx");
static RESP_5XX: StaticCounter = StaticCounter::new("pmstackd.http.responses_5xx");
static SHED: StaticCounter = StaticCounter::new("pmstackd.submit.shed");
static CONN_REJECTED: StaticCounter = StaticCounter::new("pmstackd.conn.rejected");
static CONN_ACCEPTED: StaticCounter = StaticCounter::new("pmstackd.conn.accepted");
static STREAM_FRAMES: StaticCounter = StaticCounter::new("pmstackd.stream.frames");

/// Most frames one `/stream` request may ask for.
pub const MAX_STREAM_FRAMES: u64 = 10_000;
/// Longest `/stream` inter-frame interval accepted, milliseconds.
pub const MAX_STREAM_INTERVAL_MS: u64 = 10_000;

/// Everything the daemon needs to start.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral, for tests).
    pub port: u16,
    /// Simulated fleet size.
    pub hosts: usize,
    /// System power budget per host, watts.
    pub budget_per_host_w: f64,
    /// Connection workers in the service pool.
    pub workers: usize,
    /// Bounded connection-queue capacity (overflow → inline 503).
    pub conn_capacity: usize,
    /// Concurrent `/submit` requests admitted before shedding 429s.
    pub max_inflight: usize,
    /// Step-loop sleep between ticks, milliseconds.
    pub tick_ms: u64,
    /// Ticks an admitted job holds its reservation.
    pub job_ttl_ticks: u64,
    /// Largest per-job node count accepted.
    pub max_nodes_per_job: usize,
    /// Override the bank's segment size (None = default).
    pub segment_hosts: Option<usize>,
    /// Node-class layout: `(name, host count)` pairs laid out as
    /// contiguous id segments in order. Non-empty layouts must sum to
    /// `hosts` exactly; empty keeps the fleet unclassed and makes any
    /// `"class"` field in `/submit` a 400. A class pins a lease to its id
    /// segment only: every host the daemon serves is the quartz part,
    /// whatever segment it is in.
    pub class_layout: Vec<(String, usize)>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            port: 0,
            hosts: 1024,
            budget_per_host_w: 150.0,
            workers: 8,
            conn_capacity: 128,
            max_inflight: 32,
            tick_ms: 20,
            job_ttl_ticks: 25,
            max_nodes_per_job: 64,
            segment_hosts: None,
            class_layout: Vec::new(),
        }
    }
}

struct ServerCtx {
    admission: Arc<Mutex<Admission>>,
    fleet: Fleet,
    inflight: AtomicUsize,
    max_inflight: usize,
    max_nodes_per_job: usize,
    class_names: Vec<String>,
    tick_ms: u64,
    frames_served: AtomicU64,
}

/// A running daemon.
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    ctx: Arc<ServerCtx>,
}

impl Daemon {
    /// Bind, build the fleet + admission plane, and start serving.
    pub fn spawn(config: DaemonConfig) -> io::Result<Self> {
        pmstack_obs::enable();
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;

        let model = PowerModel::new(quartz_spec()).expect("quartz spec is valid");
        let host_eps: Vec<f64> = (0..config.hosts).map(eps_of).collect();
        let admission = Arc::new(Mutex::new(
            Admission::new(
                model,
                host_eps,
                Watts(config.budget_per_host_w * config.hosts as f64),
                config.job_ttl_ticks,
                config.max_nodes_per_job,
            )
            .with_classes(&config.class_layout),
        ));
        let fleet = Fleet::spawn(
            FleetConfig {
                hosts: config.hosts,
                tick_interval: Duration::from_millis(config.tick_ms),
                segment_hosts: config.segment_hosts,
            },
            Arc::clone(&admission),
        );

        let ctx = Arc::new(ServerCtx {
            admission,
            fleet,
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight,
            max_nodes_per_job: config.max_nodes_per_job,
            class_names: config
                .class_layout
                .iter()
                .map(|(name, _)| name.clone())
                .collect(),
            tick_ms: config.tick_ms,
            frames_served: AtomicU64::new(0),
        });

        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            let workers = config.workers.max(1);
            let capacity = config.conn_capacity;
            std::thread::Builder::new()
                .name("pmstackd-accept".into())
                .spawn(move || {
                    let pool = ServicePool::new(workers, capacity);
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        // A duplicate handle survives the queued closure
                        // being dropped, so a full queue can still get a
                        // canned refusal instead of a bare reset.
                        let reject_copy = stream.try_clone().ok();
                        let ctx = Arc::clone(&ctx);
                        let job = Box::new(move || handle_connection(stream, &ctx));
                        if pool.try_execute(job).is_ok() {
                            CONN_ACCEPTED.inc();
                        } else {
                            // Bottom rung of the ladder: the connection
                            // queue is full. Refuse inline; the accept loop
                            // itself never blocks on a slow worker.
                            CONN_REJECTED.inc();
                            count_status(503);
                            if let Some(mut s) = reject_copy {
                                let _ = error(503, "connection queue full, retry later")
                                    .write_to(&mut s, true);
                            }
                        }
                    }
                    pool.shutdown();
                })
                .expect("spawn accept thread")
        };

        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            ctx,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission plane (tests assert invariants through it).
    pub fn admission(&self) -> Arc<Mutex<Admission>> {
        Arc::clone(&self.ctx.admission)
    }

    /// Stop accepting, join the workers and the step loop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Decrements the in-flight gate on drop, so early returns cannot leak a
/// slot.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_connection(stream: TcpStream, ctx: &ServerCtx) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        match http::read_request(&mut reader) {
            Ok(req) => {
                REQUESTS.inc();
                let close = !req.keep_alive();
                if serve_request(&req, &mut writer, close, ctx).is_err() {
                    return;
                }
                if close {
                    return;
                }
            }
            Err(ParseError::Eof | ParseError::Io(_)) => return,
            Err(ParseError::Bad(msg)) => {
                let _ = write_plain(&mut writer, error(400, &msg), true);
                return;
            }
            Err(ParseError::BodyTooLarge(len)) => {
                let msg = format!("body of {len} bytes exceeds {}", http::MAX_BODY_BYTES);
                let _ = write_plain(&mut writer, error(413, &msg), true);
                return;
            }
            Err(ParseError::HeadersTooLarge) => {
                let _ = write_plain(&mut writer, error(431, "header block too large"), true);
                return;
            }
        }
    }
}

fn count_status(status: u16) {
    match status {
        200..=299 => RESP_2XX.inc(),
        400..=499 => RESP_4XX.inc(),
        _ => RESP_5XX.inc(),
    }
}

/// The `{"error":msg}` response every refusal without further fields
/// answers with.
fn error(status: u16, msg: &str) -> Response {
    let mut w = JsonWriter::with_capacity(msg.len() + 16);
    w.begin_object().key("error").str(msg).end_object();
    Response::json(status, w.finish_line())
}

fn serve_request(
    req: &Request,
    out: &mut BufWriter<TcpStream>,
    close: bool,
    ctx: &ServerCtx,
) -> io::Result<()> {
    // `/stream` writes its own chunked framing; everything else is a plain
    // fixed-length response.
    if req.path == "/stream" {
        return match req.method.as_str() {
            "GET" => serve_stream(req, out, close, ctx),
            _ => write_plain(out, method_not_allowed("GET"), close),
        };
    }
    let response = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => serve_metrics(req),
        ("POST", "/submit") => serve_submit(req, ctx),
        ("GET", "/healthz") => serve_healthz(ctx),
        ("GET", "/") => Response::text(
            200,
            "pmstackd: GET /metrics | GET /stream?frames=N&interval_ms=M | \
             POST /submit {\"app\",\"nodes\",\"policy\"[,\"class\"]} | GET /healthz\n",
        ),
        (_, "/metrics" | "/healthz" | "/") => method_not_allowed("GET"),
        (_, "/submit") => method_not_allowed("POST"),
        _ => error(404, "no such endpoint"),
    };
    write_plain(out, response, close)
}

fn method_not_allowed(allow: &'static str) -> Response {
    let mut resp = error(405, "method not allowed");
    resp.extra_headers
        .push(("Allow".to_string(), allow.to_string()));
    resp
}

fn write_plain(out: &mut impl Write, response: Response, close: bool) -> io::Result<()> {
    count_status(response.status);
    response.write_to(out, close)
}

fn serve_metrics(req: &Request) -> Response {
    let format = req.query_param("format").unwrap_or("prometheus");
    let Some(exporter) = pmstack_obs::exporter(format) else {
        let names = pmstack_obs::EXPORTER_NAMES.join(", ");
        return error(
            400,
            &format!("unknown format {format}; expected one of {names}"),
        );
    };
    let snap = pmstack_obs::snapshot();
    Response::text(200, exporter.render(&snap)).with_content_type(exporter.content_type())
}

fn serve_healthz(ctx: &ServerCtx) -> Response {
    let snap = ctx.fleet.latest();
    let mut w = JsonWriter::with_capacity(96);
    w.begin_object().key("status").str("ok");
    w.key("hosts").usize(snap.hosts);
    w.key("alive").usize(snap.alive);
    w.key("elapsed_s").fixed(snap.elapsed_s, 6);
    w.key("steady").bool(snap.steady).end_object();
    Response::json(200, w.finish_line())
}

fn serve_stream(
    req: &Request,
    out: &mut BufWriter<TcpStream>,
    close: bool,
    ctx: &ServerCtx,
) -> io::Result<()> {
    let frames = match parse_u64_param(req, "frames", 1, 1, MAX_STREAM_FRAMES) {
        Ok(v) => v,
        Err(resp) => return write_plain(out, resp, close),
    };
    let interval_ms =
        match parse_u64_param(req, "interval_ms", ctx.tick_ms, 0, MAX_STREAM_INTERVAL_MS) {
            Ok(v) => v,
            Err(resp) => return write_plain(out, resp, close),
        };
    count_status(200);
    http::start_chunked(out, 200, "application/json", close)?;
    for frame in 0..frames {
        if frame > 0 && interval_ms > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        let tick = ctx.frames_served.fetch_add(1, Ordering::AcqRel);
        let snap = ctx.fleet.latest();
        let mut line = Fleet::snapshot_json(&snap, tick);
        line.push('\n');
        STREAM_FRAMES.inc();
        http::write_chunk(out, line.as_bytes())?;
    }
    http::finish_chunked(out)
}

fn parse_u64_param(
    req: &Request,
    name: &str,
    default: u64,
    min: u64,
    max: u64,
) -> Result<u64, Response> {
    let Some(raw) = req.query_param(name) else {
        return Ok(default);
    };
    match raw.parse::<u64>() {
        Ok(v) if (min..=max).contains(&v) => Ok(v),
        _ => Err(error(
            400,
            &format!("{name} must be an integer in [{min}, {max}], got {raw}"),
        )),
    }
}

fn serve_submit(req: &Request, ctx: &ServerCtx) -> Response {
    // Middle rung: bounded concurrent admissions. Everything past this
    // check is covered by the guard's decrement-on-drop.
    if ctx.inflight.fetch_add(1, Ordering::AcqRel) >= ctx.max_inflight {
        ctx.inflight.fetch_sub(1, Ordering::AcqRel);
        SHED.inc();
        count_status(429);
        return error(429, "admission queue full, retry later");
    }
    let _guard = InflightGuard(&ctx.inflight);

    let parsed = match parse_submit_body(&req.body, ctx.max_nodes_per_job, &ctx.class_names) {
        Ok(parsed) => parsed,
        Err(msg) => return error(400, &msg),
    };
    let decision = ctx
        .admission
        .lock()
        .expect("admission lock")
        .submit(&parsed);
    match decision {
        Ok(grant) => {
            let mut w = JsonWriter::with_capacity(192 + 16 * grant.nodes.len());
            w.begin_object().key("job").str(grant.job);
            w.key("app").str(parsed.app.name());
            if let Some(c) = parsed.class {
                w.key("class").str(&ctx.class_names[c]);
            }
            w.key("policy").str(parsed.policy);
            w.key("granted_w").fixed(grant.granted.value(), 1);
            w.key("want_w").fixed(grant.want.value(), 1);
            w.key("degraded").bool(grant.degraded);
            w.key("ttl_ticks").u64(grant.ttl_ticks);
            w.key("nodes").begin_array();
            for node in &grant.nodes {
                w.usize(node.0);
            }
            w.end_array().key("caps_w").begin_array();
            for cap in &grant.caps {
                w.fixed(cap.value(), 1);
            }
            w.end_array().end_object();
            Response::json(200, w.finish_line())
        }
        Err(Reject::NoNodes { free }) => {
            let mut w = JsonWriter::with_capacity(64);
            w.begin_object().key("error").str("not enough free nodes");
            w.key("free_nodes").usize(free).end_object();
            Response::json(503, w.finish_line())
        }
        Err(Reject::NoPower { available, floor }) => {
            let mut w = JsonWriter::with_capacity(96);
            w.begin_object().key("error").str("power budget exhausted");
            w.key("available_w").fixed(available.value(), 1);
            w.key("floor_w").fixed(floor.value(), 1).end_object();
            Response::json(503, w.finish_line())
        }
    }
}

fn parse_submit_body(
    body: &[u8],
    max_nodes: usize,
    classes: &[String],
) -> Result<SubmitRequest, String> {
    let value = json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let Value::Obj(_) = &value else {
        return Err("body must be a JSON object".into());
    };
    let app_name = value
        .get("app")
        .and_then(Value::as_str)
        .ok_or("missing string field \"app\"")?;
    let app = AppClass::parse(app_name).ok_or_else(|| {
        format!(
            "unknown app class {:?}; expected one of {}",
            app_name,
            AppClass::NAMES.join(", ")
        )
    })?;
    let nodes_raw = value
        .get("nodes")
        .and_then(Value::as_f64)
        .ok_or("missing numeric field \"nodes\"")?;
    if nodes_raw.fract() != 0.0 || nodes_raw < 1.0 || nodes_raw > max_nodes as f64 {
        return Err(format!(
            "nodes must be an integer in [1, {max_nodes}], got {nodes_raw}"
        ));
    }
    let policy_name = value
        .get("policy")
        .and_then(Value::as_str)
        .ok_or("missing string field \"policy\"")?;
    let policy = crate::admission::parse_policy(policy_name)
        .ok_or_else(|| format!("unknown policy {policy_name:?}"))?;
    // The node-class preference is optional; when present it must name a
    // configured class (an unclassed fleet accepts none).
    let class = match value.get("class") {
        None => None,
        Some(v) => {
            let name = v.as_str().ok_or("field \"class\" must be a string")?;
            let idx = classes
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    if classes.is_empty() {
                        format!("unknown node class {name:?}; this fleet has no node classes")
                    } else {
                        format!(
                            "unknown node class {:?}; expected one of {}",
                            name,
                            classes.join(", ")
                        )
                    }
                })?;
            Some(idx)
        }
    };
    Ok(SubmitRequest {
        app,
        nodes: nodes_raw as usize,
        policy,
        class,
    })
}
