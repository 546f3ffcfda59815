//! Integration tests for the `repro` binary's command line: unknown flags
//! must exit nonzero with a usage hint (they used to be silently ignored),
//! and `--metrics-out` must emit both export formats.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_flag_exits_nonzero_with_usage() {
    let out = repro().arg("--bogus").output().expect("spawn repro");
    assert!(!out.status.success(), "--bogus must not exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--bogus`"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}

#[test]
fn typoed_value_flag_exits_nonzero() {
    // The historical bug: `--replicate 20` parsed as (ignored flag,
    // artifact "20") and happily ran the wrong thing with exit 0.
    let out = repro()
        .args(["sweep", "--replicate", "20"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--replicate`"), "{stderr}");
}

#[test]
fn unknown_artifact_exits_nonzero() {
    let out = repro().arg("fig9").output().expect("spawn repro");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artifact `fig9`"), "{stderr}");
}

#[test]
fn megafleet_rejects_out_of_range_hosts_with_exit_2() {
    for bad in ["0", "1048577", "-3", "lots"] {
        let out = repro()
            .args(["megafleet", "--hosts", bad])
            .output()
            .expect("spawn repro");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--hosts {bad} must exit 2, got {:?}",
            out.status.code()
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--hosts"), "{stderr}");
        assert!(stderr.contains("usage: repro"), "{stderr}");
    }
}

#[test]
fn megafleet_smoke_reports_shard_counters() {
    // A tiny fleet end to end: the artifact renders, and the shard
    // counters land in the metrics snapshot for ci/check_metrics.py.
    let dir = std::env::temp_dir().join(format!("repro-mega-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("mega.json");
    // 4096 hosts = four default segments, so the churn phase has other
    // segments to keep on the replay path and both counters go live.
    let out = repro()
        .args(["megafleet", "--fast", "--hosts", "4096", "--metrics-out"])
        .arg(&json_path)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MEGAFLEET: 4096 HOSTS"), "{stdout}");
    assert!(stdout.contains("shard_churn"), "{stdout}");
    let json = std::fs::read_to_string(&json_path).expect("metrics JSON written");
    assert!(json.contains("simhw.bank.shard.invalidated"), "{json}");
    assert!(json.contains("simhw.bank.shard.replayed"), "{json}");
    // Churn's dirty segment writes the replays it counted before stepping.
    assert!(json.contains("simhw.bank.replays.applied"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_out_writes_json_and_prometheus() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("m.json");
    // table1 is the cheapest artifact: static text, no testbed.
    let out = repro()
        .args(["table1", "--metrics-out"])
        .arg(&json_path)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).expect("metrics JSON written");
    assert!(json.contains("\"counters\""), "{json}");
    let prom = std::fs::read_to_string(dir.join("m.json.prom")).expect("metrics .prom written");
    // table1 registers nothing, but the exporter must still run clean.
    assert!(prom.is_empty() || prom.contains("pmstack_"), "{prom}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fast_sweep_prints_metrics_summary_with_live_counters() {
    let out = repro()
        .args(["sweep", "--fast", "--replicates", "2"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("METRICS SUMMARY"), "{stdout}");
    assert!(stdout.contains("runtime.ffwd.engaged"), "{stdout}");
    assert!(stdout.contains("exec.tasks.executed"), "{stdout}");
}
