//! The HTTP load generator: request mixes, Poisson schedules, and the
//! open- and closed-loop drivers over keep-alive connections.
//!
//! The generator shares the machine's two cores with the daemon it loads,
//! so it paces by sleeping, never by spinning: a spinning generator takes a
//! core from the daemon's workers and step loop and measures that theft.
//! Each connection has one request in flight; a request that is due while
//! the previous one is still outstanding goes out late, and because latency
//! is counted from the time it was due, the wait shows in the result.

use crate::rng::Rng;
use pmstackd::json::{self, Value};
use pmstackd::AppClass;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Canonical policy names `/submit` accepts.
pub const POLICIES: &[&str] = &[
    "precharacterized",
    "staticcaps",
    "minimizewaste",
    "jobadaptive",
    "mixedadaptive",
];

/// Largest `nodes` an open-loop `/submit` asks for (the daemon's default
/// `max_nodes_per_job`).
pub const MAX_NODES: usize = 64;
/// Largest `nodes` in the closed-loop phases. A lease holds its nodes and
/// watts for 25 ticks, which under saturation stretch to about a second,
/// and the default budget of 150 W per host covers 62 500 nodes at TDP. At
/// the ~13 000 submits per second two clients reach, the 1..=64 mix (mean
/// 15) and even 1..=16 (mean 5.6) ask for more than that and are refused;
/// 1..=4 (mean 2.5) holds ~32 000 nodes and leaves a factor of two.
pub const MAX_NODES_CLOSED: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Submit,
    MetricsPrometheus,
    MetricsJson,
    MetricsSummary,
    Healthz,
}

impl Kind {
    pub fn is_scrape(self) -> bool {
        matches!(
            self,
            Kind::MetricsPrometheus | Kind::MetricsJson | Kind::MetricsSummary
        )
    }
}

pub struct Planned {
    /// When the request is due, nanoseconds after the phase starts.
    pub due_ns: u64,
    pub kind: Kind,
    pub raw: Vec<u8>,
}

#[derive(Clone, Copy)]
pub struct Done {
    pub kind: Kind,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// Status 200 and the body passed its check.
    pub ok: bool,
}

impl Done {
    /// Latency from the time the request was due, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// Latency from the time it was actually sent, milliseconds.
    pub fn service_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }

    /// How late the generator sent it, milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }
}

/// One `POST /submit` drawn from the workload's mix: app uniform over the
/// five classes, nodes log-uniform in `1..=max_nodes`, policy uniform.
pub fn submit_request(rng: &mut Rng, max_nodes: usize) -> Vec<u8> {
    let app = AppClass::NAMES[rng.below(AppClass::NAMES.len())];
    let nodes = rng.log_uniform(max_nodes);
    let policy = POLICIES[rng.below(POLICIES.len())];
    let body = format!("{{\"app\":\"{app}\",\"nodes\":{nodes},\"policy\":\"{policy}\"}}");
    format!(
        "POST /submit HTTP/1.1\r\nHost: pmbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn get_request(kind: Kind) -> Vec<u8> {
    let path = match kind {
        Kind::MetricsPrometheus => "/metrics?format=prometheus",
        Kind::MetricsJson => "/metrics?format=json",
        Kind::MetricsSummary => "/metrics?format=summary",
        Kind::Healthz => "/healthz",
        Kind::Submit => unreachable!("submit is a POST"),
    };
    format!("GET {path} HTTP/1.1\r\nHost: pmbench\r\n\r\n").into_bytes()
}

/// A workload's request mix: draws one request; `turn` is the connection's
/// scrape-format rotation, the last argument the largest `nodes`.
pub type Request = fn(&mut Rng, &mut usize, usize) -> (Kind, Vec<u8>);

/// The `serve_submit` mix: submits only.
pub fn submit_only(rng: &mut Rng, _turn: &mut usize, max_nodes: usize) -> (Kind, Vec<u8>) {
    (Kind::Submit, submit_request(rng, max_nodes))
}

/// The `serve_mixed` mix: 60 % scrapes rotating the three formats, 10 %
/// health checks, 30 % submits.
pub fn mixed_request(rng: &mut Rng, scrape_turn: &mut usize, max_nodes: usize) -> (Kind, Vec<u8>) {
    let u = rng.unit();
    if u < 0.6 {
        let kind = [
            Kind::MetricsPrometheus,
            Kind::MetricsJson,
            Kind::MetricsSummary,
        ][*scrape_turn % 3];
        *scrape_turn += 1;
        (kind, get_request(kind))
    } else if u < 0.7 {
        (Kind::Healthz, get_request(Kind::Healthz))
    } else {
        (Kind::Submit, submit_request(rng, max_nodes))
    }
}

/// Poisson arrivals at `rate_per_s` for `seconds`.
pub fn poisson_schedule(
    rng: &mut Rng,
    rate_per_s: f64,
    seconds: f64,
    mut make: impl FnMut(&mut Rng) -> (Kind, Vec<u8>),
) -> Vec<Planned> {
    let mut plan = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 8);
    let mut t = rng.exp(1.0 / rate_per_s);
    while t < seconds {
        let (kind, raw) = make(rng);
        plan.push(Planned {
            due_ns: (t * 1e9) as u64,
            kind,
            raw,
        });
        t += rng.exp(1.0 / rate_per_s);
    }
    plan
}

/// Check one 200 body. A grant must parse and its caps must sum to no more
/// than the watts granted; a Prometheus scrape must pass the exposition
/// checks; JSON bodies must parse.
pub fn check_body(kind: Kind, body: &[u8]) -> Result<(), String> {
    match kind {
        Kind::Submit => {
            let v = json::parse(body).map_err(|e| format!("grant body: {e}"))?;
            let granted = v
                .get("granted_w")
                .and_then(Value::as_f64)
                .ok_or("grant without granted_w")?;
            let Some(Value::Arr(caps)) = v.get("caps_w") else {
                return Err("grant without caps_w".into());
            };
            let Some(Value::Arr(nodes)) = v.get("nodes") else {
                return Err("grant without nodes".into());
            };
            if caps.len() != nodes.len() || caps.is_empty() {
                return Err(format!("{} caps for {} nodes", caps.len(), nodes.len()));
            }
            let sum: f64 = caps.iter().filter_map(Value::as_f64).sum();
            // Caps and the grant are printed to 0.1 W, so each may be off
            // by 0.05 W from the value the ledger holds.
            let slack = 0.05 * (caps.len() + 1) as f64 + 1e-6;
            if sum > granted + slack {
                return Err(format!("caps sum {sum} W over granted {granted} W"));
            }
            Ok(())
        }
        Kind::MetricsPrometheus => {
            let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            pmstack_obs::validate_prometheus(text)
        }
        Kind::Healthz => json::parse(body).map(|_| ()),
        Kind::MetricsJson => balanced_json(body),
        Kind::MetricsSummary => {
            if body.is_empty() {
                Err("empty summary".into())
            } else {
                Ok(())
            }
        }
    }
}

/// A linear-time well-formedness check for a JSON scrape: one object whose
/// brackets balance outside strings. `pmstackd::json::parse` is for request
/// bodies of at most 64 KiB and takes over a second on a scrape that
/// carries a full 4096-event journal, which would stall the generator.
fn balanced_json(body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?.trim();
    if !text.starts_with('{') || !text.ends_with('}') {
        return Err("scrape is not a JSON object".into());
    }
    let (mut open, mut in_string, mut escaped) = (Vec::new(), false, false);
    for b in text.bytes() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => open.push(b),
            b'}' | b']' => {
                let want = if b == b'}' { b'{' } else { b'[' };
                if open.pop() != Some(want) {
                    return Err("scrape has unbalanced brackets".into());
                }
            }
            _ => {}
        }
    }
    if open.is_empty() && !in_string {
        Ok(())
    } else {
        Err("scrape is truncated".into())
    }
}

/// One keep-alive connection with one request in flight at a time.
pub struct Client {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
    body: Vec<u8>,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut c = Self {
            addr,
            reader: None,
            body: Vec::new(),
            line: String::new(),
        };
        c.stream()?;
        Ok(c)
    }

    fn stream(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.reader.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            self.reader = Some(BufReader::new(s));
        }
        Ok(self.reader.as_mut().expect("just connected"))
    }

    /// Send one request and read the whole fixed-length response. The body
    /// is left in `self.body()`. An error drops the connection so the next
    /// request starts on a fresh one.
    pub fn roundtrip(&mut self, raw: &[u8]) -> io::Result<u16> {
        let result = self.exchange(raw);
        if !matches!(result, Ok((_, false))) {
            self.reader = None;
        }
        result.map(|(status, _)| status)
    }

    pub fn body(&self) -> &[u8] {
        &self.body
    }

    fn exchange(&mut self, raw: &[u8]) -> io::Result<(u16, bool)> {
        self.stream()?.get_mut().write_all(raw)?;
        let (status, length, close, _) = self.read_head()?;
        self.body.resize(length, 0);
        let Self { reader, body, .. } = self;
        reader.as_mut().expect("connected").read_exact(body)?;
        Ok((status, close))
    }

    /// Status, content length, `Connection: close`, chunked.
    fn read_head(&mut self) -> io::Result<(u16, usize, bool, bool)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let Self { reader, line, .. } = self;
        let reader = reader.as_mut().expect("connected");
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut length, mut close, mut chunked) = (0usize, false, false);
        loop {
            line.clear();
            if reader.read_line(line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                return Ok((status, length, close, chunked));
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
    }

    /// `GET /stream`: read the chunked response, checking that each frame
    /// parses, and return the arrival time of every frame.
    pub fn stream_frames(&mut self, frames: u64, interval_ms: u64) -> io::Result<Vec<Instant>> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let raw = format!(
            "GET /stream?frames={frames}&interval_ms={interval_ms} HTTP/1.1\r\nHost: pmbench\r\n\r\n"
        );
        self.stream()?.get_mut().write_all(raw.as_bytes())?;
        let (status, _, _, chunked) = self.read_head()?;
        if status != 200 || !chunked {
            return Err(bad(format!("stream answered {status}, chunked {chunked}")));
        }
        let mut arrivals = Vec::with_capacity(frames as usize);
        loop {
            let Self {
                reader, line, body, ..
            } = self;
            let reader = reader.as_mut().expect("connected");
            line.clear();
            reader.read_line(line)?;
            let size = usize::from_str_radix(line.trim_end(), 16)
                .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
            body.resize(size + 2, 0); // payload + CRLF
            reader.read_exact(body)?;
            if size == 0 {
                return Ok(arrivals);
            }
            arrivals.push(Instant::now());
            json::parse(&body[..size]).map_err(|e| bad(format!("stream frame: {e}")))?;
        }
    }
}

fn perform(client: &mut Client, t0: Instant, kind: Kind, due_ns: u64, raw: &[u8]) -> Done {
    let sent_ns = t0.elapsed().as_nanos() as u64;
    let result = client.roundtrip(raw);
    let done_ns = t0.elapsed().as_nanos() as u64;
    let status = result.unwrap_or(0);
    let ok = status == 200 && check_body(kind, client.body()).is_ok();
    Done {
        kind,
        due_ns: due_ns.min(sent_ns),
        sent_ns,
        done_ns,
        status,
        ok,
    }
}

/// Open loop: each client sends its plan's requests when they are due,
/// whatever happened to the earlier ones. One thread per client.
pub fn open_loop(clients: &mut [Client], plans: Vec<Vec<Planned>>) -> Vec<Done> {
    assert_eq!(clients.len(), plans.len());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .map(|(client, plan)| {
                scope.spawn(move || {
                    crate::quiet::precise_sleeps();
                    let mut done = Vec::with_capacity(plan.len());
                    for p in &plan {
                        let due = Duration::from_nanos(p.due_ns);
                        let now = t0.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        done.push(perform(client, t0, p.kind, p.due_ns, &p.raw));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Closed loop: each client sends its next request as soon as the previous
/// one is answered, for `seconds`. Returns the completions and the wall
/// time they took.
pub fn closed_loop(
    clients: &mut [Client],
    mut rngs: Vec<Rng>,
    seconds: f64,
    make: impl Fn(&mut Rng, &mut usize) -> (Kind, Vec<u8>) + Sync,
) -> (Vec<Done>, f64) {
    assert_eq!(clients.len(), rngs.len());
    let t0 = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let make = &make;
    let done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(rngs.iter_mut())
            .map(|(client, rng)| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut turn = 0usize;
                    while t0.elapsed() < limit {
                        let (kind, raw) = make(rng, &mut turn);
                        let due_ns = t0.elapsed().as_nanos() as u64;
                        done.push(perform(client, t0, kind, due_ns, &raw));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    (done, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_submit_bodies_are_valid_requests() {
        let mut rng = Rng::new(42);
        for _ in 0..200 {
            let raw = submit_request(&mut rng, MAX_NODES);
            let req = pmstackd::http::read_request(&mut io::BufReader::new(&raw[..])).unwrap();
            let v = json::parse(&req.body).unwrap();
            assert!(AppClass::parse(v.get("app").unwrap().as_str().unwrap()).is_some());
            let policy = v.get("policy").unwrap().as_str().unwrap();
            assert!(pmstackd::admission::parse_policy(policy).is_some());
            let nodes = v.get("nodes").unwrap().as_f64().unwrap();
            assert!((1.0..=MAX_NODES as f64).contains(&nodes));
        }
    }

    #[test]
    fn poisson_schedule_is_seeded_ordered_and_near_its_rate() {
        let plan = |seed| {
            poisson_schedule(&mut Rng::new(seed), 1000.0, 2.0, |rng| {
                (Kind::Submit, submit_request(rng, MAX_NODES))
            })
        };
        let (a, b) = (plan(1), plan(1));
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_ns == y.due_ns && x.raw == y.raw));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn a_grant_whose_caps_exceed_it_is_rejected() {
        let good = br#"{"granted_w":300.0,"nodes":[1,2],"caps_w":[150.0,150.0]}"#;
        let bad = br#"{"granted_w":300.0,"nodes":[1,2],"caps_w":[150.0,151.0]}"#;
        assert!(check_body(Kind::Submit, good).is_ok());
        assert!(check_body(Kind::Submit, bad).is_err());
        assert!(check_body(Kind::Submit, b"{").is_err());
    }

    #[test]
    fn json_scrapes_must_balance_outside_strings() {
        assert!(balanced_json(br#"{"a":[1,{"b":"}]\\\"["}],"c":{}}"#).is_ok());
        assert!(balanced_json(br#"{"a":[1,2}"#).is_err());
        assert!(balanced_json(br#"{"a":"unterminated}"#).is_err());
        assert!(balanced_json(b"[1]").is_err());
    }
}
