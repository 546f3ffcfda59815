//! In-memory spans around calls into each layer's public functions.
//!
//! The benchmark times the layers from outside; spans inside the program
//! are a later change. Spans stay in memory until the section ends and are
//! then written as one JSON file.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Spans of one operation (one request, one iteration) share this.
    pub op_id: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span with this name, nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time of every span with this name: its duration minus the
    /// part its direct children cover.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64)
            .collect()
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new();
        tr.span("op", 1, |tr| {
            tr.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let op = tr.durations_ns("op")[0];
        let child = tr.durations_ns("child")[0];
        let own = tr.self_ns("op")[0];
        assert!(child >= 2e6 && op >= child);
        assert_eq!(own, op - child);
        assert!(tr.to_json("w").contains("\"parent\":0"));
    }
}
