//! Closed-loop load generator for the serving plane.
//!
//! `--concurrency` worker threads each hold one keep-alive connection and
//! issue `POST /submit` requests back to back until the shared request
//! budget is spent. Every response is awaited before the next request goes
//! out (closed loop: measured latency includes server queueing), and every
//! latency sample is kept, so the percentiles are exact rather than
//! histogram-bucketed.

use pmstack_obs::JsonWriter;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenParams {
    /// Daemon address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Total requests across all workers.
    pub requests: usize,
    /// Concurrent keep-alive connections.
    pub concurrency: usize,
    /// JSON body to post.
    pub body: String,
}

impl LoadgenParams {
    /// The default submit body: a small balanced job under the paper's
    /// headline policy.
    pub fn default_body() -> String {
        "{\"app\":\"balanced\",\"nodes\":4,\"policy\":\"mixedadaptive\"}".to_string()
    }
}

/// Aggregated result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Requests attempted.
    pub requests: usize,
    /// Concurrency used.
    pub concurrency: usize,
    /// 200 responses (admitted).
    pub ok: usize,
    /// 429 responses (shed by the in-flight gate).
    pub shed: usize,
    /// 503 responses (saturated: power, nodes, or connection queue).
    pub unavailable: usize,
    /// Other statuses and transport failures.
    pub errors: usize,
    /// Wall-clock of the whole run, seconds.
    pub wall_secs: f64,
    /// Completed requests per second.
    pub rps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Slowest request, milliseconds.
    pub max_ms: f64,
}

struct WorkerStats {
    ok: usize,
    shed: usize,
    unavailable: usize,
    errors: usize,
    latencies_ns: Vec<u64>,
}

/// One worker's keep-alive connection; reconnects when the server closes
/// it (e.g. after a 503 with `Connection: close`).
struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn ensure(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Send one request and read the full response. Returns the status and
    /// whether the server will close the connection. A stale keep-alive
    /// socket (server closed between requests) gets one fresh-socket retry.
    fn roundtrip(&mut self, raw_request: &[u8]) -> io::Result<(u16, bool)> {
        for attempt in 0..2 {
            let result = Self::attempt(self.ensure()?, raw_request);
            match result {
                Ok(Some((status, close))) => {
                    if close {
                        self.stream = None;
                    }
                    return Ok((status, close));
                }
                Ok(None) => self.stream = None,
                Err(e)
                    if attempt == 0
                        && matches!(
                            e.kind(),
                            io::ErrorKind::BrokenPipe
                                | io::ErrorKind::ConnectionReset
                                | io::ErrorKind::UnexpectedEof
                        ) =>
                {
                    self.stream = None;
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response"))
    }

    /// One request/response exchange; `Ok(None)` means the server closed
    /// the socket before sending a status line.
    fn attempt(
        reader: &mut BufReader<TcpStream>,
        raw_request: &[u8],
    ) -> io::Result<Option<(u16, bool)>> {
        reader.get_mut().write_all(raw_request)?;
        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            return Ok(None);
        }
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        Ok(Some((status, close)))
    }
}

/// Run the generator against a live daemon.
pub fn run_loadgen(params: &LoadgenParams) -> io::Result<LoadgenReport> {
    assert!(params.requests >= 1 && params.concurrency >= 1);
    let raw_request = format!(
        "POST /submit HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{}",
        params.addr,
        params.body.len(),
        params.body
    )
    .into_bytes();

    // Smoke one request first so a dead daemon is an error, not a report
    // full of failures.
    let mut probe = Conn {
        addr: params.addr.clone(),
        stream: None,
    };
    probe.roundtrip(&raw_request)?;
    drop(probe);

    let remaining = Arc::new(AtomicUsize::new(params.requests));
    let start = Instant::now();
    let mut handles = Vec::with_capacity(params.concurrency);
    for _ in 0..params.concurrency {
        let remaining = Arc::clone(&remaining);
        let raw_request = raw_request.clone();
        let addr = params.addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut stats = WorkerStats {
                ok: 0,
                shed: 0,
                unavailable: 0,
                errors: 0,
                latencies_ns: Vec::with_capacity(1024),
            };
            let mut conn = Conn { addr, stream: None };
            loop {
                // Claim one unit of the shared budget (closed loop).
                if remaining
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                    .is_err()
                {
                    break;
                }
                let sent = Instant::now();
                match conn.roundtrip(&raw_request) {
                    Ok((status, _)) => {
                        stats.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                        match status {
                            200 => stats.ok += 1,
                            429 => stats.shed += 1,
                            503 => stats.unavailable += 1,
                            _ => stats.errors += 1,
                        }
                    }
                    Err(_) => {
                        stats.errors += 1;
                        conn.stream = None;
                    }
                }
            }
            stats
        }));
    }

    let mut ok = 0;
    let mut shed = 0;
    let mut unavailable = 0;
    let mut errors = 0;
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(params.requests);
    for handle in handles {
        let stats = handle.join().expect("loadgen worker panicked");
        ok += stats.ok;
        shed += stats.shed;
        unavailable += stats.unavailable;
        errors += stats.errors;
        latencies_ns.extend(stats.latencies_ns);
    }
    let wall_secs = start.elapsed().as_secs_f64();
    latencies_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let rank = ((latencies_ns.len() as f64 * p).ceil() as usize).clamp(1, latencies_ns.len());
        latencies_ns[rank - 1] as f64 / 1e6
    };
    let completed = ok + shed + unavailable;
    Ok(LoadgenReport {
        requests: params.requests,
        concurrency: params.concurrency,
        ok,
        shed,
        unavailable,
        errors,
        wall_secs,
        rps: if wall_secs > 0.0 {
            completed as f64 / wall_secs
        } else {
            0.0
        },
        p50_ms: pct(0.50),
        p90_ms: pct(0.90),
        p99_ms: pct(0.99),
        max_ms: latencies_ns.last().map_or(0.0, |&n| n as f64 / 1e6),
    })
}

/// Render the report for stdout.
pub fn render(report: &LoadgenReport) -> String {
    format!(
        "LOADGEN: {} requests, {} connections\n\
         outcome: {} admitted (200), {} shed (429), {} saturated (503), {} errors\n\
         throughput: {:.0} req/s over {:.3}s\n\
         latency: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms\n",
        report.requests,
        report.concurrency,
        report.ok,
        report.shed,
        report.unavailable,
        report.errors,
        report.rps,
        report.wall_secs,
        report.p50_ms,
        report.p90_ms,
        report.p99_ms,
        report.max_ms,
    )
}

/// Serialize the report as the BENCH_serve.json document.
pub fn to_bench_json(report: &LoadgenReport) -> String {
    let mut w = JsonWriter::default();
    w.begin_object().key("benchmark").str("serve");
    w.key("requests").usize(report.requests);
    w.key("concurrency").usize(report.concurrency);
    w.key("ok").usize(report.ok).key("shed").usize(report.shed);
    w.key("unavailable").usize(report.unavailable);
    w.key("errors").usize(report.errors);
    w.key("wall_secs").fixed(report.wall_secs, 6);
    w.key("rps").fixed(report.rps, 1);
    w.key("p50_ms").fixed(report.p50_ms, 3);
    w.key("p90_ms").fixed(report.p90_ms, 3);
    w.key("p99_ms").fixed(report.p99_ms, 3);
    w.key("max_ms").fixed(report.max_ms, 3).end_object();
    w.finish_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_both_ways() {
        let report = LoadgenReport {
            requests: 100,
            concurrency: 4,
            ok: 90,
            shed: 6,
            unavailable: 4,
            errors: 0,
            wall_secs: 0.5,
            rps: 200.0,
            p50_ms: 1.0,
            p90_ms: 2.0,
            p99_ms: 3.0,
            max_ms: 4.0,
        };
        let text = render(&report);
        assert!(text.contains("90 admitted"));
        assert!(text.contains("p99 3.000 ms"));
        let json = to_bench_json(&report);
        let v = crate::json::parse(json.as_bytes()).unwrap();
        assert_eq!(v.get("benchmark").and_then(|x| x.as_str()), Some("serve"));
        assert_eq!(v.get("rps").and_then(|x| x.as_f64()), Some(200.0));
        assert_eq!(v.get("p99_ms").and_then(|x| x.as_f64()), Some(3.0));
    }
}
