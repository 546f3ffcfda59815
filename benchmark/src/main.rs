//! `pmbench` — the benchmark `BENCHMARK.json` names.
//!
//! ```text
//! pmbench --workload W --seed N --seconds S --trace 0|1   one measured run
//! pmbench run    [--only W] [--seed N] [--runs K]          every workload, untraced
//! pmbench traced [--only W] [--seed N]                     the per-layer suite
//! pmbench compare <a.json> <b.json>                        two run sets, row by row
//! ```
//!
//! The first form is what the acceptance driver calls: it prints a report
//! and, as the last line of standard output, one JSON object. `run` and
//! `traced` re-execute this binary once per workload, because the daemon
//! switches the process-wide recorder on, the characterization and kernel
//! memos are process-wide, and the worker count is resolved once: a
//! workload must not inherit another's warm caches.

mod batch;
mod digest;
mod fleet;
mod host;
mod layers;
mod load;
mod outcome;
mod quiet;
mod rng;
mod runset;
mod serve;
mod spec;
mod stats;
mod trace;

use outcome::Outcome;
use std::process::ExitCode;

/// A run that failed a check must not look like a result to a script.
pub fn exit_code(out: &Outcome) -> u8 {
    if out.correct() {
        0
    } else {
        1
    }
}

pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// `--name value` pairs, nothing else.
    pub fn parse(args: &[String], allowed: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| allowed.contains(n))
                .ok_or_else(|| {
                    format!(
                        "unknown argument {flag:?}; expected --{}",
                        allowed.join(", --")
                    )
                })?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Self(pairs))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name} {raw:?} is not a number")),
        }
    }

    pub fn workload(&self, name: &str) -> Result<Option<&str>, String> {
        match self.get(name) {
            Some(w) if !spec::WORKLOADS.contains(&w) => Err(format!(
                "unknown workload {w:?}; expected one of {}",
                spec::WORKLOADS.join(", ")
            )),
            other => Ok(other),
        }
    }
}

/// One measured run in this process.
fn measure(args: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let workload = flags
        .workload("workload")?
        .ok_or("--workload is required")?;
    let seed: u64 = flags.number("seed", 42)?;
    let seconds: f64 = flags.number("seconds", 12.0)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let out = match flags.get("trace").unwrap_or("0") {
        "0" => match workload {
            "serve_submit" => serve::serve_submit(seed, seconds),
            "serve_mixed" => serve::serve_mixed(seed, seconds),
            "sweep_fullstack" => batch::sweep_fullstack(seed, seconds),
            "fleet_step" => fleet::fleet_step(seed, seconds),
            "facility_campaign" => batch::facility_campaign(seed, seconds),
            _ => unreachable!("workload was validated"),
        },
        "1" => layers::traced(workload, seed),
        other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    out.assert_complete();
    print!("{}", out.render(workload));
    println!("{}", out.to_json_line());
    Ok(exit_code(&out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => runset::run(&args[1..], false),
        Some("traced") => runset::run(&args[1..], true),
        Some("compare") => runset::compare(&args[1..]),
        _ => measure(&args),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("pmbench: {msg}");
            ExitCode::from(2)
        }
    }
}
