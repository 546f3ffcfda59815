//! What the machine and the process look like, recorded with every result.

use std::fs;

/// Peak resident set of this process, megabytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(path: &str) -> Option<String> {
    Some(
        fs::read_to_string(path)
            .ok()?
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// The commit of the checkout in the working directory, if it is a git
/// repository (the acceptance driver's checkout is not).
fn git_sha() -> String {
    let head = first_line(".git/HEAD").unwrap_or_default();
    match head.strip_prefix("ref: ") {
        Some(reference) => first_line(&format!(".git/{reference}")),
        None if !head.is_empty() => Some(head),
        None => None,
    }
    .unwrap_or_else(|| "unknown".into())
}

/// One JSON object: cores, CPU model, kernel, commit, compiler.
pub fn descriptor_json() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let esc = pmstackd::json::escape;
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"kernel\":\"{}\",\"git_sha\":\"{}\",\"rustc\":\"{}\"}}",
        esc(&cpu),
        esc(&kernel),
        esc(&git_sha()),
        esc(&rustc)
    )
}
