//! What one run reports: operations attempted and failed, and one value
//! per metric with the in-run samples it summarises.

use crate::spec::{unit_of, Def};
use crate::stats;
use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The reported value: the median of `samples` in-run readings.
    pub value: f64,
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

pub struct Outcome {
    table: &'static [Def],
    pub attempted: u64,
    pub failed: u64,
    /// Why operations or checks failed (first few, for the report).
    pub failures: Vec<String>,
    /// Informational lines for the report (digests, regime medians).
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(table: &'static [Def]) -> Self {
        Self {
            table,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// One operation or check that should have passed did not.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    /// A check that counts as one attempted operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Report a single reading.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_samples(name, &mut [value]);
    }

    /// Report the median of in-run samples, keeping count and quartiles.
    pub fn put_samples(&mut self, name: &'static str, samples: &mut [f64]) {
        self.put_with(name, samples, |sorted| stats::percentile(sorted, 0.5));
    }

    /// Report the mean of the central tenth of the samples: the median
    /// without the clock's 1 ns grid. A stage that costs a few hundred
    /// nanoseconds would otherwise read exactly the same on two runs one
    /// time in ten, which looks like a constant, not a measurement.
    pub fn put_central(&mut self, name: &'static str, samples: &mut [f64]) {
        self.put_with(name, samples, stats::central_mean);
    }

    fn put_with(&mut self, name: &'static str, samples: &mut [f64], value: fn(&[f64]) -> f64) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
            self.fail(format!("metric {name} has no finite samples"));
            samples.iter_mut().for_each(|v| *v = 0.0);
        }
        stats::sort(samples);
        let pick = |p| {
            if samples.is_empty() {
                0.0
            } else {
                stats::percentile(samples, p)
            }
        };
        self.metrics.push(Metric {
            name,
            unit: unit_of(self.table, name),
            value: if samples.is_empty() {
                0.0
            } else {
                value(samples)
            },
            samples: samples.len(),
            q1: pick(0.25),
            q3: pick(0.75),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every name of the table reported exactly once.
    pub fn assert_complete(&self) {
        for def in self.table {
            assert!(
                self.metrics.iter().any(|m| m.name == def.0),
                "metric {} was not reported",
                def.0
            );
        }
        assert_eq!(self.metrics.len(), self.table.len());
    }

    /// Human-readable listing: name, unit, sample count, median, quartiles.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "{workload}: attempted {} failed {}\n",
            self.attempted, self.failed
        );
        for why in &self.failures {
            let _ = writeln!(out, "  FAILED: {why}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<44} {:>14.6} {:<6} n={:<6} q1={:.6} q3={:.6}",
                m.name, m.value, m.unit, m.samples, m.q1, m.q3
            );
        }
        out
    }

    /// The contract's result line.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    #[test]
    fn result_line_parses_and_carries_every_metric() {
        let mut o = Outcome::new(END_TO_END);
        o.attempted = 10;
        o.put_samples("latency_p50_ms", &mut [3.0, 1.0, 2.0]);
        o.put("throughput_per_s", 12.5);
        o.put("setup_s", 0.25);
        o.put("peak_rss_mb", 100.0);
        o.assert_complete();
        let v = pmstackd::json::parse(o.to_json_line().as_bytes()).unwrap();
        assert_eq!(v.get("correct"), Some(&pmstackd::json::Value::Bool(true)));
        let m = v.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::new(END_TO_END);
        o.check(false, || "digest mismatch".into());
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (1, 1));
    }
}
