//! `pmbench run`, `pmbench traced` and `pmbench compare`: run sets made of
//! one child process per (workload, seed), and the row-by-row comparison of
//! two of them against the bounds in `BENCHMARK.json`.

use crate::{host, spec, stats, Flags};
use pmstackd::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

const BENCHMARK_JSON: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";

fn read_json(path: &str) -> Result<Value, String> {
    let text =
        std::fs::read(path).map_err(|e| format!("{path}: {e} (run from the repository root)"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// The values of one (workload, metric) across a set's runs.
type Values = BTreeMap<(String, String), Vec<f64>>;

/// Run one child and return its result line, parsed.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    json::parse(line.as_bytes()).map_err(|e| {
        format!(
            "{workload} child ({}) printed no result line: {e}",
            output.status
        )
    })
}

/// `run` (untraced, every end-to-end metric) or `traced` (the per-layer
/// suite). Lengths are fixed by `BENCHMARK.json`, so parent and change
/// always run the same thing.
pub fn run(args: &[String], traced: bool) -> Result<u8, String> {
    let flags = Flags::parse(args, &["only", "seed", "runs"])?;
    let seed: u64 = flags.number("seed", 42)?;
    let runs: u64 = flags.number("runs", 1)?;
    let only = flags.workload("only")?;
    let bench = read_json(BENCHMARK_JSON)?;
    let seconds = bench
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")? as u64;

    let mut values: Values = BTreeMap::new();
    let (mut attempted, mut failed, mut incorrect) = (0.0, 0.0, 0u64);
    for k in 0..runs {
        for workload in spec::WORKLOADS
            .iter()
            .filter(|w| only.is_none_or(|o| o == **w))
        {
            let result = child(workload, seed + k, seconds, traced)?;
            attempted += result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            if result.get("correct") != Some(&Value::Bool(true)) {
                incorrect += 1;
            }
            if let Some(Value::Obj(metrics)) = result.get("metrics") {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }

    let table = if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    println!("== {runs} run(s) per workload from seed {seed}, {seconds} s each ==");
    let mut doc = format!(
        "{{\n\"host\": {},\n\"seed\": {seed},\n\"runs\": {runs},\n\"run_seconds\": {seconds},\n\
         \"traced\": {traced},\n\"attempted\": {attempted},\n\"failed\": {failed},\n\"results\": {{",
        host::descriptor_json()
    );
    for (i, ((workload, metric), v)) in values.iter().enumerate() {
        let unit = spec::unit_of(table, metric);
        let (q1, q2, q3) = stats::quartiles(v);
        println!(
            "{workload:<18} {metric:<44} {q2:>14.6} {unit:<6} n={} q1={q1:.6} q3={q3:.6} spread={:.4}",
            v.len(),
            stats::spread(v)
        );
        let sep = if i == 0 { "" } else { "," };
        let list: Vec<String> = v.iter().map(f64::to_string).collect();
        let _ = write!(
            doc,
            "{sep}\n\"{workload}/{metric}\": {{\"unit\": \"{unit}\", \"values\": [{}]}}",
            list.join(", ")
        );
    }
    // This benchmark measures; it claims no gain.
    doc.push_str("\n},\n\"claim\": null\n}\n");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let kind = if traced { "traced" } else { "run" };
    let path = format!("{OUT_DIR}/{kind}-seed{seed}.json");
    std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
    println!("attempted {attempted} failed {failed}; wrote {path}");
    println!("\"claim\": null");
    Ok(if incorrect == 0 && failed == 0.0 {
        0
    } else {
        1
    })
}

fn values_of(set: &Value) -> Values {
    let mut out = BTreeMap::new();
    if let Some(Value::Obj(results)) = set.get("results") {
        for (key, entry) in results {
            if let Some((workload, metric)) = key.split_once('/') {
                let v = array(entry, "values")
                    .iter()
                    .filter_map(Value::as_f64)
                    .collect();
                out.insert((workload.to_string(), metric.to_string()), v);
            }
        }
    }
    out
}

/// The verdict on one row: `b`'s median against `a`'s, by the bound.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    better: &str,
    bound: f64,
    spread_counts: bool,
) -> &'static str {
    let (_, a_med, _) = stats::quartiles(a);
    let (_, b_med, _) = stats::quartiles(b);
    let worse_by = if better == "higher" {
        (a_med - b_med) / a_med
    } else {
        (b_med - a_med) / a_med
    };
    if spread_counts && (stats::spread(a) > bound || stats::spread(b) > bound) {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Row by row: both medians with quartiles, the ratio with its base, and
/// `ok`, `worse` or `unresolved` (a spread wider than the bound).
pub fn compare(args: &[String]) -> Result<u8, String> {
    let [a_path, b_path] = args else {
        return Err("usage: pmbench compare <a.json> <b.json>".into());
    };
    let bench = read_json(BENCHMARK_JSON)?;
    let (a, b) = (
        values_of(&read_json(a_path)?),
        values_of(&read_json(b_path)?),
    );
    let mut bad = 0u8;
    println!("a = {a_path}\nb = {b_path}");
    for workload in spec::WORKLOADS {
        for def in array(&bench, "end_to_end") {
            let (metric, unit) = (text(def, "name"), text(def, "unit"));
            let bound = def.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let key = (workload.to_string(), metric.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<18} {metric:<18} missing from a set");
                bad = 1;
                continue;
            };
            let (a1, a2, a3) = stats::quartiles(va);
            let (b1, b2, b3) = stats::quartiles(vb);
            // Set-up time is a median of few boots; its spread is reported
            // but only its median is held to the bound.
            let v = verdict(va, vb, text(def, "better"), bound, metric != "setup_s");
            if v != "ok" {
                bad = 1;
            }
            println!(
                "{workload:<18} {metric:<18} a {a2:.6} [{a1:.6}, {a3:.6}] b {b2:.6} [{b1:.6}, {b3:.6}] {unit:<4} \
                 b/a {:.4} (base a = {a2:.6} {unit}) bound {bound} {v}",
                b2 / a2
            );
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&steady, &[105.0; 5], "lower", 0.1, true), "ok");
        assert_eq!(verdict(&steady, &[115.0; 5], "lower", 0.1, true), "worse");
        assert_eq!(verdict(&steady, &[115.0; 5], "higher", 0.1, true), "ok");
        assert_eq!(verdict(&steady, &[85.0; 5], "higher", 0.1, true), "worse");
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&noisy, &steady, "lower", 0.1, true), "unresolved");
        assert_eq!(verdict(&noisy, &steady, "lower", 0.1, false), "ok");
    }

    /// `BENCHMARK.json` and the tables in `spec.rs` name the same things.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = read_json(path).unwrap();
        let names = |key| -> Vec<(String, String, String)> {
            array(&bench, key)
                .iter()
                .map(|d| {
                    (
                        text(d, "name").into(),
                        text(d, "unit").into(),
                        text(d, "better").into(),
                    )
                })
                .collect()
        };
        let table = |t: &[spec::Def]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|d| (d.0.into(), d.1.into(), d.2.into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(spec::END_TO_END));
        assert_eq!(names("per_layer"), table(spec::PER_LAYER));
        let workloads: Vec<&str> = array(&bench, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, spec::WORKLOADS);
        for def in array(&bench, "end_to_end") {
            let bound = def.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
