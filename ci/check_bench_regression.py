#!/usr/bin/env python3
"""Bench regression guard for the CI bench-smoke, megafleet-smoke, and
serve-smoke jobs.

Three modes, dispatched on the fresh file's "benchmark" field:

- fast grid (default): compares the fresh fast-grid timing
  (bench-out/BENCH_grid.json, written by `repro grid --fast --time`)
  against the committed baseline (BENCH_grid.json, key
  optimized.grid_fast_secs) and fails when the fresh run is more than 2x
  slower.

- megafleet: takes the fresh per-host phase costs
  (bench-out/BENCH_megafleet.json, written by
  `repro megafleet --time --out`). The steady row is compared against the
  committed per_host_ns row in BENCH_step.json for the same fleet size and
  guards the sharded bank's whole-fleet replay. The shard_churn row guards
  the partial-invalidation path — one dirty segment must cost what that
  segment costs, not a pass over the fleet — as a ratio to the steady row
  of the *same run*, which cancels the runner's speed: ~2 when a clean
  segment costs a stamp check and its energy adds, ~23 when every clean
  host's outcome is rebuilt each iteration, ~85 when the fleet re-resolves.

- serve: compares the fresh loadgen run (bench-out/BENCH_serve.json,
  written by `repro loadgen --out`) against the committed
  BENCH_serve.json. p99 latency is relative-guarded like the others;
  throughput and correctness are absolute gates — the daemon must sustain
  at least MIN_SERVE_RPS completed requests/s and report zero transport
  errors, whatever the baseline says.

Shared CI runners are noisy and the guarded quantities are small, so each
threshold never drops below an absolute floor.

Usage: check_bench_regression.py [fresh.json] [baseline.json]
"""

import json
import sys

# Below this many seconds a 2x ratio is indistinguishable from scheduler
# noise on a shared runner; the grid guard only engages above it.
NOISE_FLOOR_SECS = 0.25
# Same idea for the per-host megafleet steady row: the replay is under 1
# ns/host, where 2x is still scheduler jitter. A regression back to the
# full resolve path costs 56+ ns/host and clears this floor with margin.
NOISE_FLOOR_NS_PER_HOST = 25.0
# Sub-25ms p99s on a loaded shared runner are mostly scheduler jitter;
# the serve guard only engages above this.
NOISE_FLOOR_P99_MS = 25.0
# Absolute throughput gate for the serving plane (completed = answered:
# 200s, 429s, and 503s all count; hangs and resets do not).
MIN_SERVE_RPS = 1000.0
MAX_SLOWDOWN = 2.0
# One dirty segment of ~98 may cost at most this many whole-fleet replays.
MAX_CHURN_OVER_STEADY = 8.0


def check(label: str, fresh_val: float, base_val: float, floor: float, unit: str) -> bool:
    limit = max(MAX_SLOWDOWN * base_val, floor)
    print(f"{label}: fresh {fresh_val:.4f} {unit}, committed {base_val:.4f} {unit}, "
          f"allowed {limit:.4f} {unit} (max of {MAX_SLOWDOWN}x baseline and "
          f"{floor} {unit} floor)")
    if fresh_val > limit:
        print(f"REGRESSION: {label} at {fresh_val:.4f} {unit}, "
              f"{fresh_val / base_val:.1f}x the committed baseline")
        return False
    return True


def check_grid(fresh: dict, base_path: str) -> int:
    with open(base_path) as f:
        base = json.load(f)
    ok = check("fast grid total", float(fresh["total_secs"]),
               float(base["optimized"]["grid_fast_secs"]),
               NOISE_FLOOR_SECS, "s")
    if not ok:
        return 1
    print("ok: within the regression budget")
    return 0


def check_megafleet(fresh: dict, base_path: str) -> int:
    with open(base_path) as f:
        base = json.load(f)
    per_host = base["per_host_ns"]
    hosts = int(fresh["hosts"])
    ok = True
    phases = fresh["phases"]
    row = f"fast_forward_{hosts}_hosts"
    if "steady" in phases and row in per_host:
        ok &= check(f"megafleet steady ({hosts} hosts)",
                    float(phases["steady"]["ns_per_host"]),
                    float(per_host[row]), NOISE_FLOOR_NS_PER_HOST, "ns/host")
    elif "steady" in phases:
        print(f"note: no committed {row} baseline in {base_path}; skipping steady")
    if "steady" in phases and "shard_churn" in phases:
        steady = float(phases["steady"]["ns_per_host"])
        churn = float(phases["shard_churn"]["ns_per_host"])
        ratio = churn / steady
        print(f"megafleet shard_churn / steady ({hosts} hosts): "
              f"{churn:.3f} / {steady:.3f} ns/host = {ratio:.1f}, "
              f"allowed {MAX_CHURN_OVER_STEADY}")
        if ratio > MAX_CHURN_OVER_STEADY:
            print(f"REGRESSION: one dirty segment costs {ratio:.1f} whole-fleet "
                  "replays — clean segments are being reworked")
            ok = False
    if not ok:
        return 1
    print("ok: within the regression budget")
    return 0


def check_serve(fresh: dict, base_path: str) -> int:
    with open(base_path) as f:
        base = json.load(f)
    ok = check("serve submit p99", float(fresh["p99_ms"]),
               float(base["p99_ms"]), NOISE_FLOOR_P99_MS, "ms")

    rps = float(fresh["rps"])
    print(f"serve throughput: fresh {rps:.0f} req/s, required {MIN_SERVE_RPS:.0f} req/s")
    if rps < MIN_SERVE_RPS:
        print(f"REGRESSION: serve throughput {rps:.0f} req/s below the "
              f"{MIN_SERVE_RPS:.0f} req/s floor")
        ok = False

    errors = int(fresh["errors"])
    print(f"serve errors: {errors} (must be 0)")
    if errors != 0:
        print(f"REGRESSION: {errors} transport error(s) — requests went "
              "unanswered instead of being admitted or shed")
        ok = False

    if not ok:
        return 1
    print("ok: within the regression budget")
    return 0


def main() -> int:
    fresh_path = sys.argv[1] if len(sys.argv) > 1 else "bench-out/BENCH_grid.json"
    with open(fresh_path) as f:
        fresh = json.load(f)

    if fresh.get("benchmark") == "megafleet":
        base_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_step.json"
        return check_megafleet(fresh, base_path)
    if fresh.get("benchmark") == "serve":
        base_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_serve.json"
        return check_serve(fresh, base_path)
    base_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_grid.json"
    return check_grid(fresh, base_path)


if __name__ == "__main__":
    sys.exit(main())
